"""Canonical-form predicates, the length recurrence, equivalence checks, and
the dense reference reduction."""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import List, Optional, Set, Tuple

from .rows import Row, axpy_raw


class NonIncreasingLengths(Exception):
    """Raised when representative rows are not strictly increasing in length."""


class NotReduced(Exception):
    """Raised when an operation needs a reduced prefix but got something else."""


@dataclass
class FormReport:
    """Outcome of a form predicate; witness is the first offending (row, column)."""

    form: str
    holds: bool
    witness: Optional[Tuple[int, int]] = None

    def __bool__(self) -> bool:
        return self.holds


def _reduced_report(form: str, rows: List[Row], rightmost: bool) -> FormReport:
    """Leading coefficients are one and each leading column is zero elsewhere."""
    owner = {}
    for i, r in enumerate(rows):
        if r.is_zero():
            continue
        col, lead = r.support[-1] if rightmost else r.support[0]
        if lead != r.field.one():
            return FormReport(form, False, (i, col))
        owner[col] = i
    for i, r in enumerate(rows):
        for c, _ in r.support:
            if c in owner and owner[c] != i:
                return FormReport(form, False, (i, c))
    return FormReport(form, True)


def _echelon_report(form: str, rows: List[Row], rightmost: bool) -> FormReport:
    """Leading indices strictly increase along the nonzero rows."""
    prev = -1
    for i, r in enumerate(rows):
        if r.is_zero():
            continue
        col = r.maxs if rightmost else r.zeta
        if col <= prev:
            return FormReport(form, False, (i, col))
        prev = col
    return FormReport(form, True)


def is_lrrf(rows: List[Row]) -> FormReport:
    return _reduced_report("lrrf", rows, rightmost=True)


def is_lref(rows: List[Row]) -> FormReport:
    return _echelon_report("lref", rows, rightmost=True)


def is_urrf(rows: List[Row]) -> FormReport:
    return _reduced_report("urrf", rows, rightmost=False)


def is_uref(rows: List[Row]) -> FormReport:
    return _echelon_report("uref", rows, rightmost=False)


def is_qhf(rows: List[Row]) -> FormReport:
    """Reduced with strictly increasing row-lengths, in one report."""
    a = is_lrrf(rows)
    if not a.holds:
        return FormReport("qhf", False, a.witness)
    b = is_lref(rows)
    return FormReport("qhf", b.holds, b.witness)


def is_hermite_basis(rows: List[Row]) -> FormReport:
    """Strictly increasing lengths, monic rightmost entries, zeros below
    each rightmost one."""
    prev = -1
    for j, r in enumerate(rows):
        if r.is_zero():
            continue
        col, lead = r.support[-1]
        if col <= prev:
            return FormReport("hermite", False, (j, col))
        prev = col
        if lead != r.field.one():
            return FormReport("hermite", False, (j, col))
        for k in range(j + 1, len(rows)):
            if rows[k].raw(col):
                return FormReport("hermite", False, (k, col))
    return FormReport("hermite", True)


def right_set(rows: List[Row]) -> Set[int]:
    """Rightmost indices of the nonzero rows."""
    return {r.maxs for r in rows if not r.is_zero()}


def rank_nullity(rows: List[Row]) -> Tuple[int, int]:
    """(number of nonzero rows, number of zero rows) of a reduced prefix."""
    report = is_lrrf(rows)
    if not report.holds:
        raise NotReduced("offending entry at %r" % (report.witness,))
    nonzero = sum(1 for r in rows if not r.is_zero())
    return nonzero, len(rows) - nonzero


def fulkerson_recurrence(reps: List[Row]) -> List[Row]:
    """Rebuild the monic basis from representative rows of each length.

    Representative j is reduced by the already-built rows using its own
    original coefficients at their pivot columns, then divided by its own
    rightmost coefficient.
    """
    out: List[Row] = []
    pivots: List[int] = []
    prev = -1
    for j, a in enumerate(reps):
        if a.is_zero() or a.maxs <= prev:
            raise NonIncreasingLengths("representative %d breaks the order" % j)
        prev = a.maxs
        F = a.field
        acc = a
        for i in range(j):
            alpha = a.raw(pivots[i])
            if alpha:
                acc = axpy_raw(F.neg(alpha), out[i], acc)
        pivots.append(a.maxs)
        out.append(acc.scaled_raw(F.inv(a.raw(a.maxs))))
    return out


def verify_row_equivalence(passage: List[Row], matrix, out_rows: List[Row], horizon: int) -> bool:
    """Does each passage row applied to the matrix reproduce the output?

    Checks rows 0..horizon exactly; False on the first mismatch, and False
    when either list stops before row horizon.
    """
    if min(len(passage), len(out_rows)) <= horizon:
        return False
    for i in range(horizon + 1):
        acc = Row.zero(passage[i].field)
        for j, v in passage[i].support:
            acc = axpy_raw(v, matrix.row_at(j), acc)
        if acc != out_rows[i]:
            return False
    return True


# The dense reference shares no code with the engine: plain {column: value}
# dicts of Fractions (or ints mod p), no Row or Field, one-shot eager sweep.


def _dict_sub_scaled(target: dict, lam, source: dict, p: Optional[int] = None) -> None:
    """target -= lam * source, in place, dropping zeros."""
    for c, v in source.items():
        nv = target.get(c, 0) - lam * v
        if p is not None:
            nv %= p
        if nv:
            target[c] = nv
        else:
            target.pop(c, None)


def _dict_scale(row: dict, lam, p: Optional[int] = None) -> None:
    for c in list(row):
        row[c] = row[c] * lam if p is None else row[c] * lam % p


def dense_reduce(rows: List[dict], p: Optional[int] = None, leftmost: bool = False):
    """Classic Gauss-Jordan with rightmost (or leftmost) pivots on dict rows.

    rows: list of {col: value} dicts (Fractions, or ints when p is given).
    Returns (reduced rows, passage rows, pivot history) where passage row i
    expresses reduced row i in terms of the inputs and history holds the
    pivot column per row (None for rows that vanished). `verify --check
    oracle` and the tests compare the engine against it.
    """
    n = len(rows)
    work = [dict(r) for r in rows]
    passage = [{i: Fraction(1) if p is None else 1 % p} for i in range(n)]
    pivots = {}
    history: List[Optional[int]] = []
    for t in range(n):
        r, q = work[t], passage[t]
        for col, owner in list(pivots.items()):
            lam = r.get(col)
            if lam:
                _dict_sub_scaled(r, lam, work[owner], p)
                _dict_sub_scaled(q, lam, passage[owner], p)
        if not r:
            history.append(None)
            continue
        col = min(r) if leftmost else max(r)
        lead = Fraction(1) / r[col] if p is None else pow(r[col], -1, p)
        _dict_scale(r, lead, p)
        _dict_scale(q, lead, p)
        pivots[col] = t
        history.append(col)
        for i in range(n):
            if i == t:
                continue
            mu = work[i].get(col)
            if mu:
                _dict_sub_scaled(work[i], mu, r, p)
                _dict_sub_scaled(passage[i], mu, q, p)
    return work, passage, history
