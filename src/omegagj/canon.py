"""Canonical-form predicates, the row-equivalence check, and the dense
reference reduction."""

from __future__ import annotations

from fractions import Fraction
from typing import List, Optional, Tuple

from .rows import Row, _row, dense_width
from .scalars import _lowest_terms


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
    every other row; read off the numerators, where a rightmost one is a
    numerator equal to the row's denominator."""
    owner = {}
    for i, r in enumerate(rows):
        nums = r.nums
        if not nums:
            continue
        col, lead = nums[-1]
        if lead != r.den:
            return FormReport("lrrf", False, (i, col))
        owner[col] = i
    for i, r in enumerate(rows):
        for c, _ in r.nums:
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
    when either list stops before row horizon. Each Q[i]·A is read off
    Q[i]'s numerators on either field: one add_combination of the matrix
    rows Q reaches, as they are, on a zero row is r = Q[i].den·(Q[i]·A),
    and Q[i]·A is r's numerators over r.den·Q[i].den in lowest terms. A
    packed passage row reduces its slots itself, once, on its first read.
    """
    if min(len(passage), len(out_rows)) <= horizon:
        return False
    checked = passage[: horizon + 1]
    # Jordan patches give a passage row columns past its own index
    rows = matrix.top_submatrix(dense_width(checked) - 1)
    F = checked[0].field
    zero = Row.zero(F)
    for i, q in enumerate(checked):
        r = zero.add_combination(q.nums, rows)
        if _row(F, *_lowest_terms(r.den * q.den, r.nums)) != out_rows[i]:
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
