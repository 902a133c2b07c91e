"""Exact fields (the rationals and prime fields) and affine symbolic forms.

Every value in the library is either a raw value of a Field (a Fraction over
the rationals, an int residue over GF(p)), operated on only through that
Field's methods, or a LinForm (affine combination of indexed symbols with
raw coefficients). No floating point is used anywhere.
"""

from __future__ import annotations

import sys
from fractions import Fraction
from math import gcd
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

    def format(self, a) -> str:
        """Canonical text form: lowest-terms 'p/q' (or 'p'), bare residue for gf."""
        return str(a)

    def format_values(self, values) -> list:
        """The canonical text of many raw values, as format gives each."""
        # a comprehension, not map(str, ...): CPython specialises a
        # one-argument str(v) call, which map cannot use
        return [str(v) for v in values]

    def __eq__(self, other):
        return type(other) is type(self) and self.p == other.p

    def __hash__(self):
        return hash((type(self), self.p))


class RationalField(Field):
    """The rationals, with Fraction values.

    Row values are lowest-terms Fractions. The sparse kernels work on their
    numerator/denominator pairs in integers and build each result with
    _rational, so they never go through Fraction's operators.
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

    def add(self, a, b):
        return a + b

    def mul(self, a, b):
        return a * b

    def neg(self, a):
        # a lowest-terms Fraction stays one with its numerator negated; the
        # engine negates the multiplier of every pivot row a stage meets, so
        # this skips Fraction.__neg__
        if type(a) is Fraction:
            return _rational(-a._numerator, a._denominator)
        return -a

    def inv(self, a):
        if not a:
            raise DivisionByZero("inverse of zero")
        return 1 / a

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

    def render_terms(self, keys, terms, constant) -> str:
        """The text of a form: the terms[key] * key terms in the order of
        keys, then the constant if it is nonzero or there are no terms.

        Each term is one ' + ' or ' - ' piece with its sign read from the
        numerator, and a coefficient of one is left out; the pieces are
        joined once, after the first loses its leading ' + ' (or ' - '
        becomes '-').
        """
        pieces = []
        append = pieces.append
        for (ns, i), v in zip(keys, map(terms.__getitem__, keys)):
            n, d = v._numerator, v._denominator
            sign = " + "
            if n < 0:
                sign, n = " - ", -n
            if d != 1:
                append(f"{sign}{n}/{d}*{ns}_{i}")
            elif n == 1:
                append(f"{sign}{ns}_{i}")
            else:
                append(f"{sign}{n}*{ns}_{i}")
        if constant or not pieces:
            n, d = constant._numerator, constant._denominator
            sign = " + "
            if n < 0:
                sign, n = " - ", -n
            append(f"{sign}{n}" if d == 1 else f"{sign}{n}/{d}")
        first = pieces[0]
        pieces[0] = "-" + first[3:] if first[1] == "-" else first[3:]
        return "".join(pieces)

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

    def axpy_support(self, lam, xs: tuple, ys: tuple) -> tuple:
        """ys + lam * xs for two sorted zero-free supports; lam is nonzero.

        Each value is worked on as its numerator/denominator pair: with
        lam = a/b, vx = p/q and vy = r/s the sum is (r*b*q + a*p*s) / (s*b*q),
        reduced by one gcd. Where only xs holds a column, lam == 1 passes
        its entry through and lam == -1 flips its sign without a gcd; entries
        of ys that xs does not reach are passed through as they are.
        """
        a, b = lam.numerator, lam.denominator
        sign = a if b == 1 and (a == 1 or a == -1) else 0
        out = []
        append = out.append
        nx, ny = len(xs), len(ys)
        i = j = 0
        while i < nx and j < ny:
            cx, vx = xs[i]
            cy = ys[j][0]
            if cx < cy:
                if sign == 1:
                    append(xs[i])
                elif sign:
                    append((cx, _rational(-vx._numerator, vx._denominator)))
                else:
                    n = a * vx._numerator
                    d = b * vx._denominator
                    g = gcd(n, d)
                    append((cx, _rational(n // g, d // g)))
                i += 1
            elif cy < cx:
                append(ys[j])
                j += 1
            else:
                vy = ys[j][1]
                q, s = vx._denominator, vy._denominator
                n = vy._numerator * b * q + a * vx._numerator * s
                d = s * b * q
                if n:
                    g = gcd(n, d)
                    append((cx, _rational(n // g, d // g)))
                i += 1
                j += 1
        if i < nx:
            out.extend(xs[i:] if sign == 1 else self.scale_support(lam, xs[i:]))
        elif j < ny:
            out.extend(ys[j:])
        return tuple(out)

    def combination_support(self, pairs) -> tuple:
        """Sum of lam * xs over (lam, xs) pairs of nonzero multipliers and
        sorted zero-free supports, built in one dict and sorted once.

        The sparse accumulator of Gilbert, Moler and Schreiber (SIAM J.
        Matrix Anal. Appl. 13(1), 1992): equal to folding axpy_support over
        the pairs, without copying the running row once per pair. Each
        value is updated as in axpy_support, with one gcd; a multiplier of
        1 or -1 passes a new entry through or flips its sign without one.
        """
        acc: dict = {}
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

    def render_terms(self, keys, terms, constant) -> str:
        """The text of a form: the terms[key] * key terms in the order of
        keys, then the constant if it is nonzero or there are no terms.
        Residues are never negative, so every term is joined by ' + ', and
        a coefficient of one is left out."""
        pieces = [
            f"{ns}_{i}" if v == 1 else f"{v}*{ns}_{i}"
            for (ns, i), v in zip(keys, map(terms.__getitem__, keys))
        ]
        if constant or not pieces:
            pieces.append(str(constant))
        return " + ".join(pieces)

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

    def axpy_support(self, lam, xs: tuple, ys: tuple) -> tuple:
        """ys + lam * xs mod p for two sorted zero-free supports; lam is a
        nonzero residue, so lam * vx never vanishes on its own."""
        p = self.p
        out = []
        append = out.append
        nx, ny = len(xs), len(ys)
        i = j = 0
        while i < nx and j < ny:
            cx, vx = xs[i]
            cy = ys[j][0]
            if cx < cy:
                append((cx, lam * vx % p))
                i += 1
            elif cy < cx:
                append(ys[j])
                j += 1
            else:
                v = (ys[j][1] + lam * vx) % p
                if v:
                    append((cx, v))
                i += 1
                j += 1
        if i < nx:
            out.extend(self.scale_support(lam, xs[i:]))
        elif j < ny:
            out.extend(ys[j:])
        return tuple(out)

    def combination_support(self, pairs) -> tuple:
        """Sum of lam * xs mod p over (lam, xs) pairs of residues and sorted
        zero-free supports, built in one dict and sorted once; each column
        is summed as a plain int and reduced once, at the end."""
        p = self.p
        acc: dict = {}
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

    Canonical: the term table never stores zero coefficients, so two forms
    are equal iff their fields, constants, and term tables are equal.
    """

    __slots__ = ("field", "constant", "terms")

    def __init__(self, field: Field, constant=None, terms=None):
        self.field = field
        self.constant = field.zero() if constant is None else constant
        self.terms = {} if terms is None else terms

    @classmethod
    def zero(cls, field: Field) -> "LinForm":
        return cls(field)

    @classmethod
    def const(cls, field: Field, value) -> "LinForm":
        """The constant form value; a plain int is read through field.from_int."""
        if isinstance(value, int):
            value = field.from_int(value)
        return cls(field, constant=value)

    @classmethod
    def symbol(cls, field: Field, namespace: str, index: int) -> "LinForm":
        return cls(field, terms={(namespace, index): field.one()})

    @classmethod
    def combination(cls, field: Field, pairs) -> "LinForm":
        """Sum of lam * form over (lam, form) pairs, built in one dict.

        Equal to adding the scaled forms one by one, without copying the
        running term table at every step.
        """
        add, mul = field.add, field.mul
        zero = field.zero()
        constant = zero
        terms: dict = {}
        for lam, form in pairs:
            if not lam:
                continue
            check_same_field(field, form.field)
            if form.constant:
                constant = add(constant, mul(lam, form.constant))
            for s, c in form.terms.items():
                v = add(terms.get(s, zero), mul(lam, c))
                if v:
                    terms[s] = v
                else:
                    terms.pop(s, None)
        return cls(field, constant, terms)

    def is_zero(self) -> bool:
        return not self.constant and not self.terms

    def __add__(self, other):
        check_same_field(self.field, other.field)
        F = self.field
        terms = dict(self.terms)
        for s, c in other.terms.items():
            v = F.add(terms.get(s, F.zero()), c)
            if v:
                terms[s] = v
            else:
                terms.pop(s, None)
        return LinForm(F, F.add(self.constant, other.constant), terms)

    def __eq__(self, other):
        if not isinstance(other, LinForm):
            return NotImplemented
        check_same_field(self.field, other.field)
        return self.constant == other.constant and self.terms == other.terms

    def __str__(self):
        return self.render()

    def render(self, leading=None) -> str:
        """Text form with terms sorted by (namespace, index), constant last.

        leading, if given, is a symbol pulled to the front (used for
        constraints written as c_w - ... = 0).
        """
        terms = self.terms
        keys = sorted(terms)
        if leading is not None and leading in terms:
            keys.remove(leading)
            keys.insert(0, leading)
        return self.field.render_terms(keys, terms, self.constant)

    def __repr__(self):
        return "LinForm(%s)" % self

    __hash__ = None
