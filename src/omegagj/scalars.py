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
every operation works on the numerator/denominator ints of its Fractions,
so none goes through Fraction's operators.
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


_new_object = object.__new__


def _rational(n: int, d: int) -> Fraction:
    """The Fraction n/d for coprime n and d > 0, without re-normalising.

    Fraction(n, d) checks types and divides out a gcd on every call; the
    rational operations have already reduced their results, so they set
    Fraction's two slots (_numerator, _denominator on Python 3.10-3.13)
    directly on a bare instance.
    """
    f = _new_object(Fraction)
    f._numerator = n
    f._denominator = d
    return f


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

    def format_values(self, values) -> list:
        """The canonical text of each raw value: lowest-terms 'p/q' (or 'p'),
        a bare residue over GF(p)."""
        # a comprehension, not map(str, ...): CPython specialises a
        # one-argument str(v) call, which map cannot use
        return [str(v) for v in values]

    def __eq__(self, other):
        return type(other) is type(self) and self.p == other.p

    def __hash__(self):
        return hash((type(self), self.p))


class RationalField(Field):
    """The rationals, with Fraction values.

    Raw values are lowest-terms Fractions. The scalar operations and the
    row kernels work on their numerator/denominator pairs in integers and
    build each result with _rational, so they never go through Fraction's
    operators; a plain int operand is read through Fraction, the value
    from_int builds (mul reads an int second operand as it is), and every
    result is a lowest-terms Fraction. A row is int numerators over the
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

    def from_int(self, n: int):
        # n/1 is in lowest terms; a bool (or another int type) goes through
        # Fraction, so the numerator is always a plain int
        return _rational(n, 1) if type(n) is int else Fraction(n)

    # gcd-reduced sums and products of numerator/denominator pairs (Henrici,
    # J. ACM 3(1), 1956): one gcd per sum, none of its cross products over
    # one denominator, and two cross-cancelling gcds per product

    def add(self, a, b):
        if type(a) is not Fraction:
            a = Fraction(a)
        if type(b) is not Fraction:
            b = Fraction(b)
        na, da = a._numerator, a._denominator
        nb, db = b._numerator, b._denominator
        if not nb:
            return a
        if not na:
            return b
        if da == db:
            n = na + nb
            g = gcd(n, da)
            return _rational(n // g, da // g)
        n = na * db + nb * da
        d = da * db
        g = gcd(n, d)
        return _rational(n // g, d // g)

    def mul(self, a, b):
        """a * b; a plain int b (not a bool, which goes through Fraction)
        takes one gcd with a's denominator and builds no Fraction of its
        own: the replay folds a pivot inverse into each int hit this way."""
        if type(a) is not Fraction:
            a = Fraction(a)
        na, da = a._numerator, a._denominator
        if type(b) is int:
            g = gcd(b, da)
            return _rational(na * (b // g), da // g)
        if type(b) is not Fraction:
            b = Fraction(b)
        nb, db = b._numerator, b._denominator
        g1 = gcd(na, db)
        g2 = gcd(nb, da)
        return _rational((na // g1) * (nb // g2), (da // g2) * (db // g1))

    def neg(self, a):
        # a lowest-terms Fraction stays one with its numerator negated
        if type(a) is not Fraction:
            a = Fraction(a)
        return _rational(-a._numerator, a._denominator)

    def neg_numerator(self, v: int) -> int:
        """-v for an int numerator v of a row (Row.nums), an int too."""
        return -v

    def inv(self, a):
        if type(a) is not Fraction:
            a = Fraction(a)
        n, d = a._numerator, a._denominator
        if not n:
            raise DivisionByZero("inverse of zero")
        return _rational(d, n) if n > 0 else _rational(-d, -n)

    def parse(self, text: str):
        """Parse the canonical text form: 'p/q' or 'p'. Any other spelling
        raises ValueError, and a zero q ZeroDivisionError, after work
        bounded by the length of the text."""
        if not _RATIONAL_TEXT.fullmatch(text):
            raise ValueError("not a rational 'p' or 'p/q': %r" % text)
        return Fraction(text)

    def format_quotients(self, den: int, nums) -> list:
        """The canonical text of each v / den in lowest terms ('p/q' or
        'p', as str prints its Fraction) over (key, int numerator) pairs
        and one positive denominator: the text of a rows.Row's entries,
        with one gcd per entry, none over den 1."""
        if den == 1:
            return [str(v) for _, v in nums]
        texts = []
        append = texts.append
        for _, v in nums:
            g = gcd(v, den)
            append(str(v // g) if g == den else f"{v // g}/{den // g}")
        return texts

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
            for i, v in nums:
                if v < 0:
                    append(f" - {name}{i}" if v == -1 else f" - {-v}{star}{i}")
                else:
                    append(f" + {name}{i}" if v == 1 else f" + {v}{star}{i}")
            return pieces
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
        if d < 0:
            n, d = -n, -d
        g = gcd(n, d)
        return _rational(n // g, d // g)

    def over_common_denominator(self, xs: tuple) -> tuple:
        """(den, nums): the (key, lowest-terms Fraction) pairs xs as int
        numerators over den, the lcm of their denominators, the inverse of
        scaled_support. gcd(den, *numerators) is 1 already: a prime power
        that divides den exactly divides some denominator exactly, and that
        entry's numerator is prime to it.
        """
        den = lcm(*[v._denominator for _, v in xs])
        return den, tuple([(c, v._numerator * (den // v._denominator)) for c, v in xs])

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
        return int(text) % self.p

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
