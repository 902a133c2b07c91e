"""Row-finite infinite matrices: lazy memoized row generators and builtins."""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Callable, List, Tuple

from .rows import Row, check_row
from .scalars import RATIONAL, Field


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
    offset raises DuplicateOffset. Columns that would fall below zero are
    dropped.
    """
    if hasattr(offsets, "items"):
        pairs = list(offsets.items())
    else:
        pairs = list(offsets)
    seen = set()
    for off, _ in pairs:
        if off in seen:
            raise DuplicateOffset("offset %d listed twice" % off)
        seen.add(off)

    def gen(k: int) -> Row:
        return Row.from_pairs(
            field, [(k + off, v) for off, v in pairs if k + off >= 0]
        )

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
    return make_stencil(RATIONAL, {0: Fraction(1), 1: Fraction(1)})


def builtin_repeated() -> RowFiniteMatrix:
    """Every row equals e_0, so every row after the first reduces to zero."""

    def gen(k: int) -> Row:
        return Row.unit(RATIONAL, 0)

    return RowFiniteMatrix(RATIONAL, gen)


def _fulkerson_even(n: int) -> Row:
    if n == 0:
        return Row.from_pairs(RATIONAL, [(2, Fraction(1)), (3, Fraction(1))])
    if n == 1:
        return Row.from_pairs(
            RATIONAL, [(3, Fraction(1)), (5, Fraction(1)), (6, Fraction(1))]
        )
    return Row.from_pairs(
        RATIONAL,
        [(3, Fraction(1)), (6, Fraction(1)), (3 * n + 2, Fraction(1)),
         (3 * (n + 1), Fraction(1))],
    )


def builtin_fulkerson() -> RowFiniteMatrix:
    """Fulkerson's matrix: even rows given directly, odd rows by recurrence.

    Row 1 is zero; row 2n+1 = (n+1) * row 2n + sum of rows 0, 2, ..., 2(n-1)
    for n >= 1, which makes every odd row a combination of earlier even rows.
    The generator keeps the running sum of the even rows, so rows asked for
    in order cost time linear in their length.
    """
    summed, even_sum = 0, Row.zero(RATIONAL)  # sum of even rows 0, 2, ..., 2(summed-1)

    def gen(k: int) -> Row:
        nonlocal summed, even_sum
        if k % 2 == 0:
            return _fulkerson_even(k // 2)
        n = k // 2
        if n == 0:
            return Row.zero(RATIONAL)
        if summed > n:
            summed, even_sum = 0, Row.zero(RATIONAL)
        while summed < n:
            even_sum = even_sum.add_combination(((0, RATIONAL.one()),), (_fulkerson_even(summed),))
            summed += 1
        return even_sum.add_combination(((0, Fraction(n + 1)),), (_fulkerson_even(n),))

    return RowFiniteMatrix(RATIONAL, gen)


def builtin_pde_operator() -> RowFiniteMatrix:
    """Matrix of the operator sending x^i y^j to
    ij x^{i+1} y^{j-1} + ij x^i y^j + ij x^{i-1} y^{j+1} + j x^{i+1} y^j
    + i x^i y^{j+1}, with domain monomials enumerated in prec2 order and
    image coordinates taken in prec1 order."""
    domain = MonomialOrdering("prec2")
    codomain = MonomialOrdering("prec1")

    def gen(k: int) -> Row:
        i, j = domain.unrank(k)
        terms = [
            (i * j, i + 1, j - 1),
            (i * j, i, j),
            (i * j, i - 1, j + 1),
            (j, i + 1, j),
            (i, i, j + 1),
        ]
        pairs = []
        for coeff, a, b in terms:
            if coeff and a >= 0 and b >= 0:
                pairs.append((codomain.rank(a, b), Fraction(coeff)))
        return Row.from_pairs(RATIONAL, pairs)

    return RowFiniteMatrix(RATIONAL, gen)


BUILTINS = {
    "bidiag": builtin_bidiag,
    "repeated": builtin_repeated,
    "fulkerson": builtin_fulkerson,
    "pde": builtin_pde_operator,
}
