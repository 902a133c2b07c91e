"""Reordering reduced prefixes into strictly increasing row-length order.

After each stage the nonzero rows are permuted so their rightmost indices
increase along the prefix, while zero rows keep their slots.

Under rightmost pivots each nonzero reduced row ends at its own pivot
column. step takes a new row's pivot at its rightmost index, and the Jordan
clear of a later pivot column c subtracts the new row, which ends at c, from
the rows holding c; each of those ends at another pivot column, so right of
c, and keeps that end. So the nonzero rows' rightmost indices are the pivot
columns, no two alike, and the QHF order is the pivot table read in column
order: ReorderState.permutation reads it off base.pivots, with no sort and
no scan of the rows.

A row's rightmost index is thus fixed once the row exists, and the clear of
c touches only rows that end to the right of c. So a stage adding a row that
ends at c changes exactly the nonzero slots from that row's rank in
rightmost-index order onward, plus its own new slot. ReorderState.record
logs this with one bisection per stage.

The paper's Delta_k, the last stage at which the largest row-length of the
reordered prefix 0..k dropped (at least k), is engine.prefix_stability on a
ReorderState: a drop after stage k is exactly a new row ranking among the
prefix's nonzero slots, which record logs.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import List

from .engine import EliminationState, step
from .rows import Row
from .rows import axpy_raw  # noqa: F401  (unused; bench/tracing.py patches reorder.axpy_raw)


class ReorderState:
    """Reordered view of a rightmost-pivot elimination state, with its change log.

    last_changed[i] is the last stage at which slot i of the reordered
    prefix changed content. permutation, q_rows and q_passage are read from
    the base state when asked, with q_rows[i] = base.rows[permutation[i]].
    """

    def __init__(self, base: EliminationState):
        if base.strategy != "rps":
            raise ValueError(
                "reordering sorts by rightmost index, which needs rightmost pivots"
            )
        self.base = base
        self.last_changed: List[int] = []
        self._lengths: List[int] = []  # pivot columns (rightmost indices), sorted
        self._slots: List[int] = []  # slots of nonzero rows, in slot order

    @property
    def stage(self) -> int:
        return self.base.stage

    def record(self) -> None:
        """Log the slots changed by the base state's last stage; call once per stage."""
        n = self.base.stage
        if len(self.last_changed) != n:
            raise ValueError(
                "record expects stage %d but the state is at stage %d"
                % (len(self.last_changed), n)
            )
        self.last_changed.append(n)
        col = self.base.pivot_history[-1]
        if col is None:
            return
        rank = bisect_left(self._lengths, col)
        self._lengths.insert(rank, col)
        self._slots.append(n)
        for slot in self._slots[rank:]:
            self.last_changed[slot] = n

    @property
    def permutation(self) -> List[int]:
        """The k-th nonzero slot takes the row pivoting at the k-th smallest
        pivot column; zero-row slots are fixed points."""
        perm = list(range(len(self.base.rows)))
        pivots = self.base.pivots
        for slot, col in zip(self._slots, self._lengths):
            perm[slot] = pivots[col]
        return perm

    @property
    def q_rows(self) -> List[Row]:
        rows = self.base.rows
        return [rows[i] for i in self.permutation]

    @property
    def q_passage(self) -> List[Row]:
        passage = self.base.passage
        return [passage[i] for i in self.permutation]


def extended_run(matrix, n: int) -> ReorderState:
    """Run engine.step on rows 0..n with rightmost pivots, recording the
    reordered view after each; the elimination state is on the result's
    .base attribute."""
    state = EliminationState(matrix.field, certificate=getattr(matrix, "certificate", None))
    rs = ReorderState(state)
    for k in range(n + 1):
        step(state, matrix.row_at(k))
        rs.record()
    return rs
