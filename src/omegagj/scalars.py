"""Exact fields (the rationals and prime fields) and affine symbolic forms.

Every value in the library is either a raw value of a Field (a Fraction over
the rationals, an int residue over GF(p)), operated on only through that
Field's methods, or a LinForm (affine combination of indexed symbols with
raw coefficients). A LinForm holds, for each symbol namespace, one sorted
zero-free (index, coefficient) support, the invariant of a row's support,
so the field's row kernels add and format forms too. No floating point is
used anywhere. Over the rationals every operation, scalar or sparse, works
on the numerator/denominator ints of its Fractions, so none goes through
Fraction's operators.
"""

from __future__ import annotations

import sys
from bisect import bisect_left
from fractions import Fraction
from math import gcd, lcm
from typing import Optional

# Packed rows are little-endian 64-bit words; array("Q") holds native ones.
_BIG_ENDIAN = sys.byteorder == "big"


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


_new_object = object.__new__


def _rational(n: int, d: int) -> Fraction:
    """The Fraction n/d for coprime n and d > 0, without re-normalising.

    Fraction(n, d) checks types and divides out a gcd on every call; the
    rational kernels have already reduced their results, so they set
    Fraction's two slots (_numerator, _denominator on Python 3.10-3.13)
    directly on a bare instance.
    """
    f = _new_object(Fraction)
    f._numerator = n
    f._denominator = d
    return f


class Field:
    """A coefficient field: exact rationals, or integers mod a prime.

    The fields are RATIONAL (the one RationalField) and Field.gf(p) (a
    PrimeField). Each subclass owns its scalar operations and the sparse
    kernels that rows are built from, so no operation dispatches on the
    field. Raw values are Fraction for the rationals and int residues in
    [0, p) for GF(p); p is None for the rationals.
    """

    __slots__ = ("p",)

    _gf_cache: dict = {}

    @classmethod
    def gf(cls, p: int) -> "PrimeField":
        """The field GF(p), one object per modulus."""
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

    Row values are lowest-terms Fractions. The scalar operations and the
    sparse kernels work on their numerator/denominator pairs in integers and
    build each result with _rational, so they never go through Fraction's
    operators; a plain int operand is read through Fraction, as from_int
    reads it, and every result is a lowest-terms Fraction.
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
        return Fraction(n)

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
        if type(a) is not Fraction:
            a = Fraction(a)
        if type(b) is not Fraction:
            b = Fraction(b)
        na, da = a._numerator, a._denominator
        nb, db = b._numerator, b._denominator
        g1 = gcd(na, db)
        g2 = gcd(nb, da)
        return _rational((na // g1) * (nb // g2), (da // g2) * (db // g1))

    def neg(self, a):
        # a lowest-terms Fraction stays one with its numerator negated
        if type(a) is not Fraction:
            a = Fraction(a)
        return _rational(-a._numerator, a._denominator)

    def inv(self, a):
        if type(a) is not Fraction:
            a = Fraction(a)
        n, d = a._numerator, a._denominator
        if not n:
            raise DivisionByZero("inverse of zero")
        return _rational(d, n) if n > 0 else _rational(-d, -n)

    def parse(self, text: str):
        """Parse the canonical text form: 'p/q' or 'p'."""
        return Fraction(text)

    def format_values(self, values) -> list:
        """The text of many Fractions, as str gives each, read from their
        numerator and denominator slots."""
        return [
            str(v._numerator) if v._denominator == 1 else f"{v._numerator}/{v._denominator}"
            for v in values
        ]

    def render_terms(self, ns: str, support) -> list:
        """The text of the v * ns_i terms of one sorted (i, v) support of a
        form, one ' + ' or ' - ' piece per term with its sign read from the
        numerator; a coefficient of one is left out."""
        name = ns + "_"
        star = "*" + name
        pieces = []
        append = pieces.append
        for i, v in support:
            n, d = v._numerator, v._denominator
            sign = " + "
            if n < 0:
                sign, n = " - ", -n
            if d != 1:
                append(f"{sign}{n}/{d}{star}{i}")
            elif n == 1:
                append(f"{sign}{name}{i}")
            else:
                append(f"{sign}{n}{star}{i}")
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

    def scale_support(self, lam, xs: tuple) -> tuple:
        """lam times the values of (key, value) pairs; lam is nonzero."""
        a, b = lam.numerator, lam.denominator
        if a == -1 and b == 1:
            return tuple([(c, _rational(-v._numerator, v._denominator)) for c, v in xs])
        out = []
        append = out.append
        for c, v in xs:
            n = a * v._numerator
            d = b * v._denominator
            g = gcd(n, d)
            append((c, _rational(n // g, d // g)))
        return tuple(out)

    def scaled_support(self, den: int, nums: tuple) -> tuple:
        """The (key, lowest-terms Fraction) pairs of (key, int numerator)
        pairs over one positive denominator (a rows.ScaledRow). Over den 1
        each distinct numerator makes one Fraction."""
        out = []
        append = out.append
        if den == 1:
            made: dict = {}
            for c, v in nums:
                q = made.get(v)
                if q is None:
                    q = made[v] = _rational(v, 1)
                append((c, q))
        else:
            for c, v in nums:
                g = gcd(v, den)
                append((c, _rational(v // g, den // g)))
        return tuple(out)

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
        entry's numerator is prime to it. No lcm is taken for an integral xs.
        """
        # a plain loop, not a comprehension: most rows are short and integral
        nums = []
        append = nums.append
        for c, v in xs:
            if v._denominator != 1:
                break
            append((c, v._numerator))
        else:
            return 1, tuple(nums)
        den = lcm(*[v._denominator for _, v in xs])
        return den, tuple([(c, v._numerator * (den // v._denominator)) for c, v in xs])

    def combination_support(self, ys: tuple, pairs) -> tuple:
        """ys plus the sum of lam * xs over (lam, xs) pairs of nonzero
        multipliers, for sorted zero-free supports ys and xs, built in one
        dict seeded with ys and sorted once.

        The sparse accumulator of Gilbert, Moler and Schreiber (SIAM J.
        Matrix Anal. Appl. 13(1), 1992): the one sparse row-sum kernel over
        the rationals, for one pair as for many, so the running row is never
        copied once per pair. Each value is worked on as its
        numerator/denominator pair: with lam = a/b, vx = p/q and vy = r/s
        the sum is (r*b*q + a*p*s) / (s*b*q), reduced by one gcd; a
        multiplier of 1 or -1 passes a new entry through or flips its sign
        without one.
        """
        acc = dict(ys)
        get = acc.get
        for lam, xs in pairs:
            a, b = lam.numerator, lam.denominator
            sign = a if b == 1 and (a == 1 or a == -1) else 0
            for c, vx in xs:
                vy = get(c)
                if vy is None:
                    if sign == 1:
                        acc[c] = vx
                    elif sign:
                        acc[c] = _rational(-vx._numerator, vx._denominator)
                    else:
                        n = a * vx._numerator
                        d = b * vx._denominator
                        g = gcd(n, d)
                        acc[c] = _rational(n // g, d // g)
                    continue
                q, s = vx._denominator, vy._denominator
                n = vy._numerator * b * q + a * vx._numerator * s
                if n:
                    d = s * b * q
                    g = gcd(n, d)
                    acc[c] = _rational(n // g, d // g)
                else:
                    del acc[c]
        return tuple(sorted(acc.items()))

    def __repr__(self):
        return "Field(rational)"


class PrimeField(Field):
    """Integers modulo a prime p, with residues in [0, p).

    The field also owns the slots of packed rows (rows.PackedRow): an int
    holding one nonnegative slot_bits-wide slot per column, lowest column in
    the lowest bits. slot_bits is the smallest multiple of 64 that is at
    least 2 * bitlen(p) + 16, so a slot holds (p - 1) + (p - 1)^2, one
    axpy on reduced slots, with 16 bits to spare.
    """

    __slots__ = ("slot_bits",)

    def __init__(self, p: int):
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

    def inv(self, a):
        if not a:
            raise DivisionByZero("inverse of zero")
        return pow(a, -1, self.p)

    def parse(self, text: str):
        """Parse a residue: any integer text, reduced mod p."""
        return int(text) % self.p

    def render_terms(self, ns: str, support) -> list:
        """The text of the v * ns_i terms of one sorted (i, v) support of a
        form, one ' + ' piece per term (residues are never negative); a
        coefficient of one is left out."""
        # the fixed parts of a term are joined once per block, not per term
        plus, star = " + " + ns + "_", "*" + ns + "_"
        return [f"{plus}{i}" if v == 1 else f" + {v}{star}{i}" for i, v in support]

    def accepts(self, v) -> bool:
        """Whether Row.from_pairs takes v as a value: any int (reduced mod p)."""
        return isinstance(v, int)

    def entry_error(self, v) -> Optional[str]:
        """Why v cannot be a stored row value, or None: it must be an int
        in [1, p)."""
        if type(v) is not int or not 0 <= v < self.p:
            return "value must be an int in [0, %d)" % self.p
        return None if v else "zero value"

    def scale_support(self, lam, xs: tuple) -> tuple:
        """lam times the values of (key, value) pairs; lam is a nonzero residue."""
        p = self.p
        return tuple([(c, lam * v % p) for c, v in xs])

    def combination_support(self, ys: tuple, pairs) -> tuple:
        """ys plus the sum of lam * xs mod p over (lam, xs) pairs of
        nonzero residues, for sorted zero-free supports ys and xs, built in
        one dict seeded with ys and sorted once; each column is summed as a
        plain int and reduced once, at the end."""
        p = self.p
        acc = dict(ys)
        get = acc.get
        for lam, xs in pairs:
            for c, v in xs:
                acc[c] = get(c, 0) + lam * v
        out = []
        append = out.append
        for c in sorted(acc):
            v = acc[c] % p
            if v:
                append((c, v))
        return tuple(out)

    def __repr__(self):
        return "Field(gf %d)" % self.p


RATIONAL = RationalField()


def check_same_field(a: Field, b: Field) -> None:
    if a is not b and a != b:
        raise FieldMismatch("%r vs %r" % (a, b))


# Symbols are (namespace, index) pairs: ("t", 3) prints as t_3.


class LinForm:
    """An affine form over indexed symbols: constant + sum of coeff * ns_i.

    blocks maps each namespace ns to one support: the (i, coeff) pairs of
    its symbols ns_i, sorted by i and free of zero coefficients, as in
    Row.support. No block is empty, so two forms are equal iff their
    fields, constants and block tables are equal. Sums merge a namespace
    that both forms hold with the field's combination_support and share
    every other block, so no coefficient is copied one by one.
    """

    __slots__ = ("field", "constant", "blocks")

    def __init__(self, field: Field, constant=None, terms=None):
        """The form constant + sum of terms[(ns, i)] * ns_i; each value is
        read as const reads it, a flat terms mapping is grouped by namespace
        once, zero coefficients are dropped, and a key that is not a
        (str, natural) pair raises ValueError."""
        self.field = field
        self.constant = field.zero() if constant is None else _value(field, constant)
        grouped: dict = {}
        for key, v in (terms or {}).items():
            if not (isinstance(key, tuple) and len(key) == 2):
                raise ValueError("symbol %r: not a (namespace, natural index) pair" % (key,))
            ns, i = key
            _check_symbol(ns, i)
            v = _value(field, v)
            if v:
                grouped.setdefault(ns, []).append((i, v))
        self.blocks = {ns: tuple(sorted(pairs)) for ns, pairs in grouped.items()}

    @classmethod
    def zero(cls, field: Field) -> "LinForm":
        return _form(field, field.zero(), {})

    @classmethod
    def const(cls, field: Field, value) -> "LinForm":
        """The constant form value; a plain int is read through
        field.from_int, and a value the field does not accept raises
        TypeError."""
        return _form(field, _value(field, value), {})

    @classmethod
    def symbol(cls, field: Field, namespace: str, index: int) -> "LinForm":
        """The form namespace_index; a key that is not a (str, natural)
        pair raises ValueError, as in the constructor."""
        _check_symbol(namespace, index)
        return _form(field, field.zero(), {namespace: ((index, field.one()),)})

    @classmethod
    def block(cls, field: Field, namespace: str, support) -> "LinForm":
        """The form sum of v * namespace_i over a sorted zero-free support of
        (i, v) pairs, which it holds as given (a tuple is not copied).

        The namespace and the first index are checked as the constructor
        checks a key; the rest of the support is taken as sorted, so the
        check costs the same for any length, and an empty support builds
        the zero form."""
        support = tuple(support)
        if support:
            _check_symbol(namespace, support[0][0])
        return _form(field, field.zero(), {namespace: support} if support else {})

    @property
    def terms(self) -> dict:
        """The flat {(ns, i): coeff} view of the blocks, built when read."""
        return {(ns, i): v for ns, support in self.blocks.items() for i, v in support}

    def is_zero(self) -> bool:
        return not self.constant and not self.blocks

    def __add__(self, other):
        check_same_field(self.field, other.field)
        F = self.field
        blocks = dict(self.blocks)
        for ns, ys in other.blocks.items():
            xs = blocks.get(ns)
            if xs is None:
                blocks[ns] = ys
                continue
            merged = F.combination_support(xs, ((F.one(), ys),))
            if merged:
                blocks[ns] = merged
            else:
                del blocks[ns]
        return _form(F, F.add(self.constant, other.constant), blocks)

    def __eq__(self, other):
        if not isinstance(other, LinForm):
            return NotImplemented
        check_same_field(self.field, other.field)
        return self.constant == other.constant and self.blocks == other.blocks

    def __str__(self):
        return self.render()

    def render(self, leading=None) -> str:
        """Text form with terms sorted by (namespace, index), constant last.

        leading, if given, is a symbol pulled to the front (used for
        constraints written as c_w - ... = 0). Only the namespaces are
        sorted; each block is already in index order.
        """
        F = self.field
        blocks = self.blocks
        render_terms = F.render_terms
        pieces = []
        lead = None
        for ns in sorted(blocks):
            support = blocks[ns]
            block = render_terms(ns, support)
            if leading is not None and leading[0] == ns:
                pos = bisect_left(support, (leading[1],))
                if pos < len(support) and support[pos][0] == leading[1]:
                    lead = block.pop(pos)
            pieces += block
        if lead is not None:
            pieces.insert(0, lead)
        constant = self.constant
        if constant or not pieces:
            text = F.format_values((constant,))[0]
            pieces.append(" - " + text[1:] if text[0] == "-" else " + " + text)
        # the first piece loses its ' + ', or its ' - ' becomes '-'
        text = "".join(pieces)
        return "-" + text[3:] if text[1] == "-" else text[3:]

    def __repr__(self):
        return "LinForm(%s)" % self

    __hash__ = None


def _check_symbol(namespace, index) -> None:
    """Raise ValueError unless (namespace, index) is a (str, natural) symbol."""
    if not (isinstance(namespace, str) and type(index) is int and index >= 0):
        raise ValueError(
            "symbol %r: not a (namespace, natural index) pair" % ((namespace, index),))


def _value(field: Field, v):
    """v as a raw value of field: a plain int through field.from_int."""
    if not field.accepts(v):
        raise TypeError("%r is not a value of %r" % (v, field))
    return field.from_int(v) if isinstance(v, int) else v


def _form(field: Field, constant, blocks: dict) -> LinForm:
    """The LinForm of a checked constant and block table, built directly."""
    f = _new_object(LinForm)
    f.field = field
    f.constant = constant
    f.blocks = blocks
    return f
