"""Exact fields (the rationals and prime fields) and affine symbolic forms.

Every value in the library is either a raw value of a Field (a Fraction over
the rationals, an int residue over GF(p)), operated on only through that
Field's methods, or a LinForm (affine combination of indexed symbols with
raw coefficients). No floating point is used anywhere.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd
from typing import Optional


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
        return -a

    def inv(self, a):
        if not a:
            raise DivisionByZero("inverse of zero")
        return 1 / a

    def parse(self, text: str):
        """Parse the canonical text form: 'p/q' or 'p'."""
        return Fraction(text)

    def random_value(self, rng):
        """A small random rational, for spot checks."""
        return Fraction(rng.randint(-9, 9), rng.randint(1, 5))

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
        """lam times a sparse support; lam is nonzero and not one."""
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

    def __repr__(self):
        return "Field(rational)"


class PrimeField(Field):
    """Integers modulo a prime p, with residues in [0, p)."""

    __slots__ = ()

    def __init__(self, p: int):
        if p >= _MR_BOUND:
            raise ValueError(
                "gf modulus must be below %d, where primality is decided exactly"
                % _MR_BOUND
            )
        if not _is_prime(p):
            raise ValueError("gf modulus must be prime, got %r" % (p,))
        self.p = p

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

    def random_value(self, rng):
        """A uniform random residue, for spot checks."""
        return rng.randrange(self.p)

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
        """lam times a sparse support; lam is a nonzero residue."""
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
        items = sorted(self.terms.items())
        if leading is not None and leading in self.terms:
            items = [(leading, self.terms[leading])] + [
                it for it in items if it[0] != leading
            ]
        parts = []
        for (ns, idx), c in items:
            parts.append(_signed(c, "%s_%d" % (ns, idx), first=not parts))
        if self.constant or not parts:
            parts.append(_signed(self.constant, None, first=not parts))
        return "".join(parts)

    def __repr__(self):
        return "LinForm(%s)" % self

    __hash__ = None


def _signed(c, sym: Optional[str], first: bool) -> str:
    """Render one signed term; the sign is read from the value's canonical
    text (str, as Field.format), so rationals show it and GF residues, never
    negative, do not."""
    body = str(c)
    negative = body[0] == "-"
    if negative:
        body = body[1:]
    if sym is not None:
        body = sym if body == "1" else "%s*%s" % (body, sym)
    if first:
        return "-" + body if negative else body
    return (" - " if negative else " + ") + body
