"""Exact field scalars (rationals and prime fields) and affine symbolic forms.

Every value in the library is either a Scalar over an explicit Field or a
LinForm (affine combination of indexed symbols with Scalar coefficients).
No floating point is used anywhere.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd
from typing import Optional, Tuple


class FieldMismatch(Exception):
    """Raised when two values from different fields meet in one operation."""


class DivisionByZero(Exception):
    """Raised on division or inversion by the zero scalar."""


def _is_prime(n: int) -> bool:
    """Primality by trial division; moduli here are small."""
    if n < 2:
        return False
    if n % 2 == 0:
        return n == 2
    d = 3
    while d * d <= n:
        if n % d == 0:
            return False
        d += 2
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

    Field("rational") and Field("gf", p) build a RationalField or a
    PrimeField. Each subclass owns its scalar operations and the sparse
    kernels that rows are built from, so no operation dispatches on kind.
    Raw values are Fraction for the rationals and int residues in [0, p)
    for gf.
    """

    __slots__ = ("p",)

    kind = ""
    _gf_cache: dict = {}

    def __new__(cls, kind: str, p: Optional[int] = None):
        if cls is Field:
            if kind == "rational":
                cls = RationalField
            elif kind == "gf":
                cls = PrimeField
            else:
                raise ValueError("unknown field kind: %r" % (kind,))
        return object.__new__(cls)

    def __init__(self, kind: str, p: Optional[int] = None):
        if kind != self.kind:
            raise ValueError("unknown field kind: %r" % (kind,))
        self.p = p

    @classmethod
    def gf(cls, p: int) -> "Field":
        try:
            return cls._gf_cache[p]
        except KeyError:
            f = PrimeField("gf", p)
            cls._gf_cache[p] = f
            return f

    def format(self, a) -> str:
        """Canonical text form: lowest-terms 'p/q' (or 'p'), bare residue for gf."""
        return str(a)

    def __eq__(self, other):
        return (
            isinstance(other, Field)
            and self.kind == other.kind
            and self.p == other.p
        )

    def __hash__(self):
        return hash((self.kind, self.p))

    def __reduce__(self):
        return (Field, (self.kind, self.p))


class RationalField(Field):
    """The rationals, with Fraction values.

    Row values are lowest-terms Fractions. The sparse kernels work on their
    numerator/denominator pairs in integers and build each result with
    _rational, so they never go through Fraction's operators.
    """

    __slots__ = ()

    kind = "rational"
    _ZERO = Fraction(0)
    _ONE = Fraction(1)

    def zero(self):
        return self._ZERO

    def one(self):
        return self._ONE

    def from_int(self, n: int):
        return Fraction(n)

    def add(self, a, b):
        return a + b

    def sub(self, a, b):
        return a - b

    def mul(self, a, b):
        return a * b

    def neg(self, a):
        return -a

    def inv(self, a):
        if not a:
            raise DivisionByZero("inverse of zero")
        return 1 / a

    def div(self, a, b):
        if not b:
            raise DivisionByZero("division by zero")
        return a / b

    def parse(self, text: str):
        """Parse the canonical text form: 'p/q' or 'p'."""
        return Fraction(text)

    def sign_and_magnitude(self, a) -> Tuple[str, str]:
        """'+' or '-', read from the numerator, and the text of |a|."""
        n, d = a.numerator, a.denominator
        sign = "+"
        if n < 0:
            sign, n = "-", -n
        return sign, ("%d" % n if d == 1 else "%d/%d" % (n, d))

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

    kind = "gf"

    def __init__(self, kind: str, p: Optional[int] = None):
        super().__init__(kind, p)
        if p is None or not _is_prime(p):
            raise ValueError("gf modulus must be prime, got %r" % (p,))

    def zero(self):
        return 0

    def one(self):
        return 1

    def from_int(self, n: int):
        return n % self.p

    def add(self, a, b):
        return (a + b) % self.p

    def sub(self, a, b):
        return (a - b) % self.p

    def mul(self, a, b):
        return (a * b) % self.p

    def neg(self, a):
        return (-a) % self.p

    def inv(self, a):
        if not a:
            raise DivisionByZero("inverse of zero")
        return pow(a, -1, self.p)

    def div(self, a, b):
        if not b:
            raise DivisionByZero("division by zero")
        return (a * pow(b, -1, self.p)) % self.p

    def parse(self, text: str):
        """Parse a residue: any integer text, reduced mod p."""
        return int(text) % self.p

    def sign_and_magnitude(self, a) -> Tuple[str, str]:
        """Residues carry no sign: '+' and the bare residue."""
        return "+", str(a)

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


RATIONAL = Field("rational")


def check_same_field(a: Field, b: Field) -> None:
    if a is not b and a != b:
        raise FieldMismatch("%r vs %r" % (a, b))


class Scalar:
    """An immutable field element; arithmetic never coerces across fields."""

    __slots__ = ("field", "value")

    def __init__(self, field: Field, value):
        self.field = field
        self.value = value

    @classmethod
    def of(cls, field: Field, n: int) -> "Scalar":
        return cls(field, field.from_int(n))

    def __bool__(self):
        return bool(self.value)

    def __add__(self, other):
        check_same_field(self.field, other.field)
        return Scalar(self.field, self.field.add(self.value, other.value))

    def __sub__(self, other):
        check_same_field(self.field, other.field)
        return Scalar(self.field, self.field.sub(self.value, other.value))

    def __mul__(self, other):
        check_same_field(self.field, other.field)
        return Scalar(self.field, self.field.mul(self.value, other.value))

    def __truediv__(self, other):
        check_same_field(self.field, other.field)
        return Scalar(self.field, self.field.div(self.value, other.value))

    def __neg__(self):
        return Scalar(self.field, self.field.neg(self.value))

    def inv(self) -> "Scalar":
        return Scalar(self.field, self.field.inv(self.value))

    def __eq__(self, other):
        if not isinstance(other, Scalar):
            return NotImplemented
        check_same_field(self.field, other.field)
        return self.value == other.value

    def __hash__(self):
        return hash((self.field, self.value))

    def __str__(self):
        return self.field.format(self.value)

    def __repr__(self):
        return "Scalar(%r, %s)" % (self.field, self.value)


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
        if isinstance(value, Scalar):
            check_same_field(field, value.field)
            value = value.value
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

    def coeff(self, sym) -> Scalar:
        return Scalar(self.field, self.terms.get(sym, self.field.zero()))

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

    def __sub__(self, other):
        return self + other.scaled_raw(self.field.neg(self.field.one()))

    def __neg__(self):
        return self.scaled_raw(self.field.neg(self.field.one()))

    def scaled_raw(self, lam) -> "LinForm":
        F = self.field
        if not lam:
            return LinForm(F)
        return LinForm(
            F,
            F.mul(lam, self.constant),
            {s: F.mul(lam, c) for s, c in self.terms.items()},
        )

    def scaled(self, lam: Scalar) -> "LinForm":
        check_same_field(self.field, lam.field)
        return self.scaled_raw(lam.value)

    def substitute(self, sym, replacement: "LinForm") -> "LinForm":
        """Replace one symbol by an affine form."""
        c = self.terms.get(sym)
        if c is None:
            return self
        check_same_field(self.field, replacement.field)
        rest = LinForm(
            self.field,
            self.constant,
            {s: v for s, v in self.terms.items() if s != sym},
        )
        return rest + replacement.scaled_raw(c)

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
        F = self.field
        items = sorted(self.terms.items())
        if leading is not None and leading in self.terms:
            items = [(leading, self.terms[leading])] + [
                it for it in items if it[0] != leading
            ]
        parts = []
        for (ns, idx), c in items:
            parts.append(_signed(F, c, "%s_%d" % (ns, idx), first=not parts))
        if self.constant or not parts:
            parts.append(_signed(F, self.constant, None, first=not parts))
        return "".join(parts)

    def __repr__(self):
        return "LinForm(%s)" % self

    __hash__ = None


def _signed(F: Field, c, sym: Optional[str], first: bool) -> str:
    """Render one signed term; rationals show sign, gf shows bare residues."""
    sign, body = F.sign_and_magnitude(c)
    if sym is not None:
        body = sym if body == "1" else "%s*%s" % (body, sym)
    if first:
        return body if sign == "+" else "-" + body
    return (" + " if sign == "+" else " - ") + body

