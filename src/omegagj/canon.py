"""Canonical-form predicates, the row-equivalence check, and the dense
reference reduction."""

from __future__ import annotations

from fractions import Fraction
from typing import List, Optional, Tuple

from .rows import Row, axpy_raw


class FormReport:
    """Outcome of a form predicate; witness is the first offending (row, column)."""

    def __init__(self, form: str, holds: bool, witness: Optional[Tuple[int, int]] = None):
        self.form = form
        self.holds = holds
        self.witness = witness

    def __bool__(self) -> bool:
        return self.holds


def is_lrrf(rows: List[Row]) -> FormReport:
    """Rightmost coefficients are one and each rightmost column is zero in
    every other row."""
    owner = {}
    for i, r in enumerate(rows):
        if r.is_zero():
            continue
        col, lead = r.support[-1]
        if lead != r.field.one():
            return FormReport("lrrf", False, (i, col))
        owner[col] = i
    for i, r in enumerate(rows):
        for c, _ in r.support:
            if c in owner and owner[c] != i:
                return FormReport("lrrf", False, (i, c))
    return FormReport("lrrf", True)


def is_lref(rows: List[Row]) -> FormReport:
    """Rightmost indices strictly increase along the nonzero rows."""
    prev = -1
    for i, r in enumerate(rows):
        if r.is_zero():
            continue
        if r.maxs <= prev:
            return FormReport("lref", False, (i, r.maxs))
        prev = r.maxs
    return FormReport("lref", True)


def is_qhf(rows: List[Row]) -> FormReport:
    """Reduced with strictly increasing row-lengths, in one report."""
    a = is_lrrf(rows)
    if not a.holds:
        return FormReport("qhf", False, a.witness)
    b = is_lref(rows)
    return FormReport("qhf", b.holds, b.witness)


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
