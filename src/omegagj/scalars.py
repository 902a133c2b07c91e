"""Exact fields: the rationals and prime fields.

Every value in the library is a raw value of a Field (a Fraction over the
rationals, an int residue over GF(p)), operated on only through that
Field's methods. A row (rows.Row) holds its values as int numerators over
one row denominator, and each field owns the kernels on those ints: the
row sum (combination_support), the pivot scale (normalized_support), and
the conversions to and from lowest-terms values. Over GF(p) the
denominator is always 1 and the numerators are the residues; a prime field
also owns the slots of rows.PackedRow. Each field writes the text of a
symbolic form's terms (render_terms) from one row of the form
(solver.LinForm). No floating point is used anywhere. Over the rationals
the row kernels work on int numerators and each scalar operation is one
call of Fraction's constructor on its operands' numerators and
denominators, so none goes through Fraction's operators.
"""

from __future__ import annotations

import re
import sys
from fractions import Fraction
from math import gcd, lcm
from typing import Optional

# Packed rows are little-endian 64-bit words; array("Q") holds native ones.
_BIG_ENDIAN = sys.byteorder == "big"

# The text of an integer: an optional sign and ASCII digits; of a rational,
# 'p' or 'p/q' with an integer p and unsigned q. int() and Fraction also take
# '_', spaces and other scripts' digits, and Fraction decimals and exponents,
# where '1e100000000' builds a hundred-million-digit int.
_INTEGER_TEXT = re.compile(r"[+-]?[0-9]+")
_RATIONAL_TEXT = re.compile(r"[+-]?[0-9]+(?:/[0-9]+)?")


# Python (3.11 on, and 3.10 from 3.10.7) refuses to convert between an int
# and decimal text past sys.get_int_max_str_digits() digits (4,300 by
# default, a process-global setting). A value that long is converted in
# pieces of at most 640 digits, the lowest limit the setting accepts, so
# that every piece converts whatever it is; values under the limit take
# str() and int() directly, which only raise ValueError past it.
_PIECE_DIGITS = 640


def _str_of_int(n: int) -> str:
    """str(n) for an int of any size: split on powers of ten into pieces
    short enough for str (the approach of CPython 3.12's
    _pylong.int_to_decimal_string), with no global setting touched."""
    if n < 0:
        return "-" + _str_of_int(-n)

    def padded(n: int, width: int) -> str:  # the width digits of n < 10**width
        if width <= _PIECE_DIGITS:
            return str(n).zfill(width)
        low = width // 2
        hi, lo = divmod(n, 10**low)
        return padded(hi, width - low) + padded(lo, low)

    # 0.30103 > log10(2), so n < 10**width
    return padded(n, n.bit_length() * 30103 // 100000 + 1).lstrip("0") or "0"


def _int_of_str(text: str) -> int:
    """int(text) for an optional sign and ASCII digits of any length, built
    from pieces of at most _PIECE_DIGITS digits (divide and conquer)."""
    digits = text.lstrip("+-")

    def value(digits: str) -> int:
        if len(digits) <= _PIECE_DIGITS:
            return int(digits)
        high = len(digits) // 2
        return value(digits[:high]) * 10 ** (len(digits) - high) + value(digits[high:])

    n = value(digits)
    return -n if text[:1] == "-" else n


def _quotient_text(v: int, den: int) -> str:
    """format_quotients' text of v / den, through _str_of_int."""
    g = gcd(v, den)
    if g == den:
        return _str_of_int(v // g)
    return "%s/%s" % (_str_of_int(v // g), _str_of_int(den // g))


class FieldMismatch(Exception):
    """Raised when two values from different fields meet in one operation."""


class DivisionByZero(Exception):
    """Raised on inverting the zero value."""


_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
# Miller-Rabin over the twelve bases above is exact below this bound
# (Sorenson and Webster, Math. Comp. 86 (2017)); past it, it could accept
# a composite.
_MR_BOUND = 318665857834031151167461


def _is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin primality test; exact for n < _MR_BOUND."""
    if n < 2:
        return False
    for a in _MR_BASES:
        if n % a == 0:
            return n == a
    d, s = n - 1, 0
    while not d & 1:
        d >>= 1
        s += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _check_modulus(p) -> None:
    """Raise ValueError, naming p, unless p is an int."""
    if type(p) is not int:
        raise ValueError("gf modulus must be an int, got %r" % (p,))


def _lowest_terms(den: int, nums: tuple) -> tuple:
    """(den, nums) for den over zero-free (key, int numerator) pairs, with
    their common factor divided out: one gcd, none over den 1."""
    if den != 1:
        g = gcd(den, *[v for _, v in nums])
        if g != 1:
            den //= g
            nums = tuple([(c, v // g) for c, v in nums])
    return den, nums


class Field:
    """A coefficient field: exact rationals, or integers mod a prime.

    The fields are RATIONAL (the one RationalField) and Field.gf(p) (a
    PrimeField). Each subclass owns its scalar operations and the kernels
    of rows.Row, whose entries are int numerators over one positive row
    denominator, under the same names and signatures, so no operation
    dispatches on the field. Raw values are Fraction for the rationals and
    int residues in [0, p) for GF(p); p is None for the rationals.
    """

    __slots__ = ("p",)

    _gf_cache: dict = {}

    @classmethod
    def gf(cls, p: int) -> "PrimeField":
        """The field GF(p), one object per modulus; a modulus that is not
        an int raises ValueError before the cache is read, so 7.0 is
        rejected whether or not GF(7) was made before."""
        _check_modulus(p)
        try:
            return cls._gf_cache[p]
        except KeyError:
            f = PrimeField(p)
            cls._gf_cache[p] = f
            return f

    def __eq__(self, other):
        return type(other) is type(self) and self.p == other.p

    def __hash__(self):
        return hash((type(self), self.p))


class RationalField(Field):
    """The rationals, with Fraction values.

    Raw values are lowest-terms Fractions. Each scalar operation builds
    its result with one call of Fraction's constructor, which divides out
    one gcd, on the operands' public numerators and denominators, so it
    never goes through Fraction's operators; the engine calls them once
    per hit, patch or stage, never once per entry. A plain int operand is
    read as the value from_int builds, and every result is a lowest-terms
    Fraction. A row is int numerators over the
    lcm of its values' denominators, with gcd(den, *numerators) == 1 (the
    common-denominator rows of Bareiss, Math. Comp. 22, 1968): a row sum
    multiply-adds ints with one multi-argument gcd per result row, not a
    gcd per entry.
    """

    __slots__ = ()

    _ZERO = Fraction(0)
    _ONE = Fraction(1)

    def __init__(self):
        self.p = None

    def __reduce__(self):
        return (RationalField, ())

    def zero(self):
        return self._ZERO

    def one(self):
        return self._ONE

    # each operation is one Fraction(numerator, denominator) call on the
    # operands' numerators and denominators, which an int (or a bool) has
    # too, so it is read as the Fraction n/1 and every result is a
    # lowest-terms Fraction with int slots

    def from_int(self, n: int):
        return Fraction(n)

    def add(self, a, b):
        return Fraction(a.numerator * b.denominator + b.numerator * a.denominator,
                        a.denominator * b.denominator)

    def mul(self, a, b):
        return Fraction(a.numerator * b.numerator, a.denominator * b.denominator)

    def neg(self, a):
        return Fraction(-a.numerator, a.denominator)

    def neg_numerator(self, v: int) -> int:
        """-v for an int numerator v of a row (Row.nums), an int too."""
        return -v

    def inv(self, a):
        if not a.numerator:
            raise DivisionByZero("inverse of zero")
        return Fraction(a.denominator, a.numerator)

    def parse(self, text: str):
        """Parse the canonical text form: 'p/q' or 'p'. Any other spelling
        raises ValueError, and a zero q ZeroDivisionError, after work
        bounded by the length of the text."""
        if not _RATIONAL_TEXT.fullmatch(text):
            raise ValueError("not a rational 'p' or 'p/q': %r" % text)
        try:
            return Fraction(text)
        except ValueError:  # past the digit limit, the only error left
            p, _, q = text.partition("/")
            q = _int_of_str(q) if q else 1
            if not q:  # Fraction's own message would write the numerator
                raise ZeroDivisionError("zero denominator")
            return Fraction(_int_of_str(p), q)

    def format_quotients(self, den: int, nums) -> list:
        """The canonical text of each v / den in lowest terms ('p/q' or
        'p', as str prints its Fraction) over (key, int numerator) pairs
        and one positive denominator: the text of a rows.Row's entries,
        with one gcd per entry, none over den 1. An int past the digit
        limit is written through _str_of_int."""
        try:
            if den == 1:
                return [str(v) for _, v in nums]
            texts = []
            append = texts.append
            for _, v in nums:
                g = gcd(v, den)
                append(str(v // g) if g == den else f"{v // g}/{den // g}")
            return texts
        except ValueError:
            return [_quotient_text(v, den) for _, v in nums]

    def render_terms(self, ns: str, row) -> list:
        """The text of the v * ns_i terms of a form's Row for the
        namespace ns, one ' + ' or ' - ' piece per term with its sign read
        from the numerator; a coefficient of one is left out. An integral
        row prints its numerators; any other is read off them by
        format_quotients."""
        name = ns + "_"
        star = "*" + name
        pieces = []
        append = pieces.append
        den, nums = row.den, row.nums
        if den == 1:
            try:
                for i, v in nums:
                    if v < 0:
                        append(f" - {name}{i}" if v == -1 else f" - {-v}{star}{i}")
                    else:
                        append(f" + {name}{i}" if v == 1 else f" + {v}{star}{i}")
                return pieces
            except ValueError:  # an int past the digit limit: the loop below
                pieces.clear()
        for (i, v), text in zip(nums, self.format_quotients(den, nums)):
            sign = " + "
            if v < 0:
                sign, text = " - ", text[1:]
            append(f"{sign}{name}{i}" if text == "1" else f"{sign}{text}{star}{i}")
        return pieces

    def accepts(self, v) -> bool:
        """Whether Row.from_pairs takes v as a value: an int or a Fraction."""
        return isinstance(v, (int, Fraction))

    def entry_error(self, v) -> Optional[str]:
        """Why v cannot be a stored row value, or None: it must be a
        nonzero Fraction."""
        if type(v) is not Fraction:
            return "value must be a Fraction"
        return None if v else "zero value"

    def scaled_support(self, den: int, nums: tuple) -> tuple:
        """The (key, lowest-terms Fraction) pairs of (key, int numerator)
        pairs over one positive denominator (Row.support), one gcd each."""
        quotient = self.quotient
        return tuple([(c, quotient(v, den)) for c, v in nums])

    def quotient(self, n: int, d: int):
        """The lowest-terms Fraction n/d of two ints, d nonzero."""
        return Fraction(n, d)

    def over_common_denominator(self, xs: tuple) -> tuple:
        """(den, nums): the (key, lowest-terms Fraction) pairs xs as int
        numerators over den, the lcm of their denominators, the inverse of
        scaled_support. gcd(den, *numerators) is 1 already: a prime power
        that divides den exactly divides some denominator exactly, and that
        entry's numerator is prime to it.
        """
        den = lcm(*[v.denominator for _, v in xs])
        return den, tuple([(c, v.numerator * (den // v.denominator)) for c, v in xs])

    def normalized_support(self, den: int, nums: tuple, lead: int) -> tuple:
        """(den', nums', inv): the row nums over den divided by its entry
        of numerator lead, so that entry becomes one, and that entry's
        inverse den / lead in lowest terms.

        The result is the same numerators over lead, divided by their
        common factor (one multi-argument gcd, which lead's own numerator
        is in), so its pivot numerator equals its denominator.
        """
        if lead == den:
            return den, nums, self._ONE
        g = gcd(*[v for _, v in nums])
        if lead < 0:
            g = -g
        if g != 1:
            nums = tuple([(c, v // g) for c, v in nums])
        return lead // g, nums, self.quotient(den, lead)

    def combination_support(self, den: int, ys: tuple, pairs, rows):
        """(den', nums') of the row ys over den plus the sum of lam * rows[i]
        over (i, lam) pairs, each lam a Fraction or a plain int (the hits of
        engine.step); None when every lam is zero.

        Over the common denominator L of the row and every lam * x, each
        row contributes its numerators times one int factor, summed in one
        dict; one gcd then brings the result to lowest terms, none over L 1.
        A single source that lies wholly left of the row's entries (the
        passage row of a one-hit stage, whose own entry e_n is right of
        every earlier passage column) is concatenated instead.
        """
        parts = []
        L = den
        for i, lam in pairs:
            x = rows[i]
            if x.field is not self:
                check_same_field(self, x.field)
            a = lam.numerator
            if not a:
                continue
            d = lam.denominator * x.den
            if L % d:
                L = lcm(L, d)
            parts.append((a, d, x.nums))
        if not parts:
            return None
        f = L // den
        if len(parts) == 1:
            (a, d, xs), = parts
            if xs and ys and xs[-1][0] < ys[0][0]:
                g = a * (L // d)
                left = xs if g == 1 else [(c, g * v) for c, v in xs]
                right = ys if f == 1 else [(c, f * v) for c, v in ys]
                return _lowest_terms(L, tuple(left) + tuple(right))
        acc = dict(ys) if f == 1 else {c: f * v for c, v in ys}
        get = acc.get
        for a, d, xs in parts:
            g = a * (L // d)
            for c, v in xs:
                s = get(c, 0) + g * v
                if s:
                    acc[c] = s
                else:
                    del acc[c]
        return _lowest_terms(L, tuple(sorted(acc.items())))

    def __repr__(self):
        return "Field(rational)"


class PrimeField(Field):
    """Integers modulo a prime p, with residues in [0, p).

    The kernels of rows.Row take its denominator and return one, as the
    rationals' do, but over GF(p) a row's denominator is always 1 and its
    numerators are its residues. The field also owns the slots of packed
    rows (rows.PackedRow): an int
    holding one nonnegative slot_bits-wide slot per column, lowest column in
    the lowest bits. slot_bits is the smallest multiple of 64 that is at
    least 2 * bitlen(p) + 16, so a slot holds (p - 1) + (p - 1)^2, one
    axpy on reduced slots, with 16 bits to spare.
    """

    __slots__ = ("slot_bits",)

    def __init__(self, p: int):
        _check_modulus(p)
        if p >= _MR_BOUND:
            raise ValueError(
                "gf modulus must be below %d, where primality is decided exactly"
                % _MR_BOUND
            )
        if not _is_prime(p):
            raise ValueError("gf modulus must be prime, got %r" % (p,))
        self.p = p
        self.slot_bits = -(-(2 * p.bit_length() + 16) // 64) * 64

    def slots(self, bits: int):
        """The slots of a packed int, lowest column first, as a sequence of
        ints (an array of 64-bit words when slots are one word wide)."""
        w = self.slot_bits
        raw = bits.to_bytes((bits.bit_length() + w - 1) // w * (w >> 3), "little")
        if w == 64:
            from array import array  # kept out of a cold import of the CLI

            words = array("Q", raw)
            if _BIG_ENDIAN:
                words.byteswap()
            return words
        s = w >> 3
        return [int.from_bytes(raw[i:i + s], "little") for i in range(0, len(raw), s)]

    def pack(self, values) -> int:
        """The packed int of slot values in [0, 2^slot_bits), lowest column first."""
        w = self.slot_bits
        if w == 64:
            from array import array

            words = array("Q", values)
            if _BIG_ENDIAN:
                words.byteswap()
            return int.from_bytes(words, "little")
        s = w >> 3
        return int.from_bytes(b"".join([v.to_bytes(s, "little") for v in values]), "little")

    def reduce_slots(self, bits: int) -> int:
        """The packed int with every slot reduced mod p."""
        p = self.p
        return self.pack([v % p for v in self.slots(bits)])

    def __reduce__(self):
        return (Field.gf, (self.p,))

    def zero(self):
        return 0

    def one(self):
        return 1

    def from_int(self, n: int):
        return n % self.p

    def add(self, a, b):
        return (a + b) % self.p

    def mul(self, a, b):
        return (a * b) % self.p

    def neg(self, a):
        return (-a) % self.p

    # a row's numerators are its residues
    neg_numerator = neg

    def inv(self, a):
        if not a:
            raise DivisionByZero("inverse of zero")
        return pow(a, -1, self.p)

    def parse(self, text: str):
        """Parse a residue: an optional sign and ASCII digits, reduced mod
        p. Any other spelling, which int() might read ('1_0', other
        scripts' digits, spaces), raises ValueError."""
        if not _INTEGER_TEXT.fullmatch(text):
            raise ValueError("not an integer: %r" % text)
        try:
            return int(text) % self.p
        except ValueError:  # past the digit limit, the only error left
            return _int_of_str(text) % self.p

    def render_terms(self, ns: str, row) -> list:
        """The text of the v * ns_i terms of a form's Row for the namespace
        ns, one ' + ' piece per term (residues are never negative); a
        coefficient of one is left out."""
        # the fixed parts of a term are joined once per row, not per term
        plus, star = " + " + ns + "_", "*" + ns + "_"
        return [f"{plus}{i}" if v == 1 else f" + {v}{star}{i}" for i, v in row.nums]

    def accepts(self, v) -> bool:
        """Whether Row.from_pairs takes v as a value: any int (reduced mod p)."""
        return isinstance(v, int)

    def entry_error(self, v) -> Optional[str]:
        """Why v cannot be a stored row value, or None: it must be an int
        in [1, p)."""
        if type(v) is not int or not 0 <= v < self.p:
            return "value must be an int in [0, %d)" % self.p
        return None if v else "zero value"

    def over_common_denominator(self, xs: tuple) -> tuple:
        """(1, xs): residues are their own numerators over den 1."""
        return 1, xs

    def scaled_support(self, den: int, nums: tuple) -> tuple:
        """The (key, residue) pairs of a row: its numerators over den 1."""
        return nums

    def format_quotients(self, den: int, nums) -> list:
        """The text of each residue of (key, residue) pairs over den 1."""
        return [str(v) for _, v in nums]

    def quotient(self, n: int, d: int):
        """The residue of n / d, d prime to p."""
        return n * pow(d, -1, self.p) % self.p

    def normalized_support(self, den: int, nums: tuple, lead: int) -> tuple:
        """(1, nums', inv): the row divided by its entry lead, so that
        entry becomes one, and lead's inverse; a lead of one returns nums
        itself."""
        inv = self.inv(lead)
        if inv != 1:
            p = self.p
            nums = tuple([(c, inv * v % p) for c, v in nums])
        return 1, nums, inv

    def combination_support(self, den: int, ys: tuple, pairs, rows):
        """(1, nums') of the row ys plus the sum of lam * rows[i] mod p
        over (i, lam) pairs of residues; None when every lam is zero. One
        sparse accumulator (Gilbert, Moler and Schreiber, SIAM J. Matrix
        Anal. Appl. 13(1), 1992), a dict seeded with ys and sorted once,
        each column summed as a plain int and reduced at the end, so the
        entries a pair does not reach are not copied once per pair."""
        terms = []
        for i, lam in pairs:
            x = rows[i]
            if x.field is not self:
                check_same_field(self, x.field)
            if lam:
                terms.append((lam, x.nums))
        if not terms:
            return None
        p = self.p
        acc = dict(ys)
        get = acc.get
        for lam, xs in terms:
            for c, v in xs:
                acc[c] = get(c, 0) + lam * v
        out = []
        append = out.append
        for c in sorted(acc):
            v = acc[c] % p
            if v:
                append((c, v))
        return 1, tuple(out)

    def __repr__(self):
        return "Field(gf %d)" % self.p


RATIONAL = RationalField()


def check_same_field(a: Field, b: Field) -> None:
    if a is not b and a != b:
        raise FieldMismatch("%r vs %r" % (a, b))
