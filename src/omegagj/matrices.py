"""Row-finite infinite matrices: lazy memoized row generators and builtins."""

from __future__ import annotations

import math
from typing import Callable, List, Tuple

from .rows import Row, _row, check_row
from .scalars import RATIONAL, Field, _lowest_terms


class DuplicateOffset(Exception):
    """Raised when a stencil lists the same offset twice."""


class RowFiniteMatrix:
    """An omega x omega matrix with finitely supported rows, generated lazily.

    Rows are produced on demand by the generator and memoized, so repeated
    row_at calls are cheap and generator side effects happen once per index.
    """

    def __init__(self, field: Field, generator: Callable[[int], Row], certificate=None):
        self.field = field
        self.generator = generator
        self.certificate = certificate
        self._memo: List[Row] = []

    def row_at(self, k: int) -> Row:
        if k < 0:
            raise IndexError("row index must be a natural, got %d" % k)
        while len(self._memo) <= k:
            try:
                r = self.generator(len(self._memo))
            except ValueError as exc:  # e.g. a Row it built was not canonical
                raise ValueError("row %d: %s" % (len(self._memo), exc)) from exc
            check_row(self.field, len(self._memo), r)
            self._memo.append(r)
        return self._memo[k]

    def top_submatrix(self, n: int) -> List[Row]:
        """Rows 0..n inclusive."""
        return [self.row_at(k) for k in range(n + 1)]


def make_stencil(field: Field, offsets) -> RowFiniteMatrix:
    """Banded matrix: row k has value v at column k+off for each (off, v).

    offsets is a mapping or an iterable of (offset, value) pairs; a repeated
    offset raises DuplicateOffset, and an offset that is not an int or a
    value the field does not accept raises ValueError naming the offset.
    Each value is checked and made a stored value here, once (ints become
    Fractions over the rationals and residues over GF(p)), zero values are
    dropped, and the band is brought over one denominator, so every row is
    its numerators, built canonical with no further check. Columns that
    would fall below zero are dropped; a row cut there over a denominator
    other than 1 is brought to lowest terms again, with one gcd.
    """
    if hasattr(offsets, "items"):
        pairs = list(offsets.items())
    else:
        pairs = list(offsets)
    add, accepts, zero = field.add, field.accepts, field.zero()
    seen = set()
    band = []
    for off, v in pairs:
        if not isinstance(off, int):
            raise ValueError("offset %r: not an int" % (off,))
        if off in seen:
            raise DuplicateOffset("offset %d listed twice" % off)
        seen.add(off)
        if not accepts(v):
            raise ValueError("offset %d: %r is not a value of %r" % (off, v, field))
        v = add(zero, v)
        if v:
            band.append((off, v))
    band.sort()  # offsets are distinct, so no two values are compared
    den, band = field.over_common_denominator(tuple(band))
    full = len(band)

    def gen(k: int) -> Row:
        nums = tuple([(k + off, v) for off, v in band if off >= -k])
        if den != 1 and len(nums) < full:
            return _row(field, *_lowest_terms(den, nums))
        return _row(field, den, nums)

    return RowFiniteMatrix(field, gen)


def make_explicit(field: Field, rows) -> RowFiniteMatrix:
    """Finitely many explicit rows followed by an all-zero tail.

    rows is a list, or a mapping {index: Row} whose missing indices are zero
    rows; only the given rows are stored.
    """
    fixed = dict(rows) if hasattr(rows, "items") else dict(enumerate(rows))
    zero = Row.zero(field)

    def gen(k: int) -> Row:
        return fixed.get(k, zero)

    return RowFiniteMatrix(field, gen)


class MonomialOrdering:
    """Graded orders on exponent pairs (i, j), each of order type omega.

    prec1 breaks degree ties by ascending j. prec2 breaks ties by ascending i
    in odd degrees and by ascending j in even degrees.
    """

    def __init__(self, kind: str):
        if kind not in ("prec1", "prec2"):
            raise ValueError("unknown ordering kind: %r" % (kind,))
        self.kind = kind

    def rank(self, i: int, j: int) -> int:
        d = i + j
        base = d * (d + 1) // 2
        if self.kind == "prec1":
            return base + j
        return base + (i if d % 2 else j)

    def unrank(self, n: int) -> Tuple[int, int]:
        # Largest degree d with d(d+1)/2 <= n.
        d = (math.isqrt(8 * n + 1) - 1) // 2
        r = n - d * (d + 1) // 2
        if self.kind == "prec1" or d % 2 == 0:
            return (d - r, r)
        return (r, d - r)


def builtin_bidiag() -> RowFiniteMatrix:
    """Row k = e_k + e_{k+1} over the rationals."""
    return make_stencil(RATIONAL, {0: 1, 1: 1})


def builtin_repeated() -> RowFiniteMatrix:
    """Every row equals e_0, so every row after the first reduces to zero."""
    e0 = Row.unit(RATIONAL, 0)

    def gen(k: int) -> Row:
        return e0

    return RowFiniteMatrix(RATIONAL, gen)


def _fulkerson_even(n: int) -> Tuple[int, ...]:
    """The columns of row 2n of Fulkerson's matrix, increasing; each holds one."""
    if n == 0:
        return (2, 3)
    if n == 1:
        return (3, 5, 6)
    return (3, 6, 3 * n + 2, 3 * (n + 1))


def builtin_fulkerson() -> RowFiniteMatrix:
    """Fulkerson's matrix: even rows given directly, odd rows by recurrence.

    Row 1 is zero; row 2n+1 = (n+1) * row 2n + sum of rows 0, 2, ..., 2(n-1)
    for n >= 1, which makes every odd row a combination of earlier even rows.
    The generator keeps the running sum of the even rows as a {column: int}
    dict, so rows asked for in order cost time linear in their length: an
    odd row is one copy of that dict. A row asked for out of order restarts
    the sum. Each even row meets at most two columns past those of the rows
    before it, 3n+2 < 3n+3 (and 5 < 6 for n = 1), so the dict's insertion
    order is column order and needs no sort. Every entry of row 2n+1 is an
    integer in [1, 2n+1] (n+1 from row 2n, at most one from each earlier
    even row), so each row is built canonical, with no further check, as
    its int numerators over 1.
    """
    summed, even_sum = 0, {}  # column -> sum of even rows 0, 2, ..., 2(summed-1)

    def gen(k: int) -> Row:
        nonlocal summed, even_sum
        n = k // 2
        if k % 2 == 0:
            return _row(RATIONAL, 1, tuple([(c, 1) for c in _fulkerson_even(n)]))
        if n == 0:
            return _row(RATIONAL, 1, ())
        if summed > n:
            summed, even_sum = 0, {}
        while summed < n:
            for c in _fulkerson_even(summed):
                even_sum[c] = even_sum.get(c, 0) + 1
            summed += 1
        acc = even_sum.copy()
        for c in _fulkerson_even(n):
            acc[c] = acc.get(c, 0) + n + 1
        return _row(RATIONAL, 1, tuple(acc.items()))

    return RowFiniteMatrix(RATIONAL, gen)


def builtin_pde_operator() -> RowFiniteMatrix:
    """Matrix of the operator sending x^i y^j to
    ij x^{i+1} y^{j-1} + ij x^i y^j + ij x^{i-1} y^{j+1} + j x^{i+1} y^j
    + i x^i y^{j+1}, with domain monomials enumerated in prec2 order and
    image coordinates taken in prec1 order. prec1 ranks by degree, then by
    the exponent of y, so the five image monomials, listed below by degree
    and then by that exponent, have strictly increasing columns: a row is
    its nonzero terms as listed, int numerators over 1."""
    domain = MonomialOrdering("prec2")
    rank = MonomialOrdering("prec1").rank

    def gen(k: int) -> Row:
        i, j = domain.unrank(k)
        terms = (
            (i * j, i + 1, j - 1),
            (i * j, i, j),
            (i * j, i - 1, j + 1),
            (j, i + 1, j),
            (i, i, j + 1),
        )
        return _row(RATIONAL, 1, tuple([(rank(a, b), coeff) for coeff, a, b in terms
                                        if coeff and a >= 0 and b >= 0]))

    return RowFiniteMatrix(RATIONAL, gen)


BUILTINS = {
    "bidiag": builtin_bidiag,
    "repeated": builtin_repeated,
    "fulkerson": builtin_fulkerson,
    "pde": builtin_pde_operator,
}
