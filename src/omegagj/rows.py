"""Finitely supported rows: sorted (column, value) support lists over a field."""

from __future__ import annotations

from typing import Iterable, Optional, Tuple

from .scalars import Field, check_same_field


class Row:
    """An immutable finitely supported sequence indexed by naturals.

    support is a tuple of (column, raw value) pairs with strictly increasing
    natural columns and no zero values, so equal rows have equal supports.
    Raw values are lowest-terms Fractions over the rationals and ints in
    [1, p) over GF(p); from_pairs converts ints. The constructor rejects,
    with a ValueError naming the entry, a support that breaks any of this;
    the field kernels' results are canonical already and skip the check.
    """

    __slots__ = ("field", "support")

    def __init__(self, field: Field, support: Tuple[Tuple[int, object], ...] = ()):
        prev = -1
        for entry in support:
            c, v = entry
            if type(c) is not int or c < 0:
                reason = "negative or non-integer column"
            elif c <= prev:
                reason = "columns not strictly increasing"
            else:
                reason = field.entry_error(v)
            if reason is not None:
                raise ValueError("entry %r: %s" % (entry, reason))
            prev = c
        self.field = field
        self.support = support

    @classmethod
    def from_pairs(cls, field: Field, pairs: Iterable[Tuple[int, object]]) -> "Row":
        """Build from (column, value) pairs in any order; repeats accumulate."""
        acc: dict = {}
        for col, val in pairs:
            if not field.accepts(val):
                raise ValueError("column %d: %r is not a value of %r" % (col, val, field))
            v = field.add(acc.get(col, field.zero()), val)
            if v:
                acc[col] = v
            else:
                acc.pop(col, None)
        return cls(field, tuple(sorted(acc.items())))

    @classmethod
    def zero(cls, field: Field) -> "Row":
        return cls(field, ())

    @classmethod
    def unit(cls, field: Field, col: int) -> "Row":
        return cls(field, ((col, field.one()),))

    def is_zero(self) -> bool:
        return not self.support

    @property
    def maxs(self) -> Optional[int]:
        """Rightmost support index; None for the zero row."""
        return self.support[-1][0] if self.support else None

    @property
    def zeta(self) -> Optional[int]:
        """Leftmost support index; None for the zero row."""
        return self.support[0][0] if self.support else None

    def raw(self, col: int):
        """Raw value at a column (field zero when absent).

        A linear scan that stops at the first column past col. Supports are
        not always short (passage rows can be dense lower-triangular), so
        the engine's column clear does not probe every row with this: it
        reads only the rows its column index lists for the column.
        """
        for c, v in self.support:
            if c == col:
                return v
            if c > col:
                break
        return self.field.zero()

    def scaled_raw(self, lam) -> "Row":
        """lam times this row; scaling by one returns the row itself."""
        if not lam:
            return _row(self.field, ())
        if lam == 1:
            return self
        return _row(self.field, self.field.scale_support(lam, self.support))

    def __eq__(self, other):
        if not isinstance(other, Row):
            return NotImplemented
        check_same_field(self.field, other.field)
        return self.support == other.support

    def __hash__(self):
        return hash((self.field, self.support))

    def __str__(self):
        return " ".join("%d:%s" % (c, self.field.format(v)) for c, v in self.support)

    def __repr__(self):
        return "Row(%s)" % (self if self.support else "0")


def _row(field: Field, support: tuple) -> Row:
    """A Row whose support a field kernel built canonical: sets the slots only."""
    r = object.__new__(Row)
    r.field = field
    r.support = support
    return r


def check_row(field: Field, k: int, r) -> None:
    """Raise ValueError, naming row k, unless r is a Row (canonical) over field."""
    if not isinstance(r, Row):
        raise ValueError("row %d is %r, not a Row" % (k, r))
    if r.field != field:
        raise ValueError("row %d is over %r, not %r" % (k, r.field, field))


def axpy_raw(lam, x: Row, y: Row) -> Row:
    """Return y + lam * x by merging the two sorted supports."""
    F = x.field
    check_same_field(F, y.field)
    if not lam:
        return y
    return _row(F, F.axpy_support(lam, x.support, y.support))


def dense_width(rows: Iterable[Row]) -> int:
    """Running horizon: one past the largest rightmost index over the rows."""
    width = 0
    for r in rows:
        if r.maxs is not None and r.maxs + 1 > width:
            width = r.maxs + 1
    return width
