"""Reordering reduced prefixes into strictly increasing row-length order.

After each elimination stage the nonzero rows are permuted so their
rightmost indices increase along the prefix while zero rows keep their
slots. Tracking the running maximum of row-lengths per prefix gives a cheap
equivalent test for "did the displayed prefix change", which drives the
stability candidates reported here.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from .engine import EliminationState, IndexOutOfRange, step
from .rows import Row
from .rows import axpy_raw  # noqa: F401  (unused; bench/tracing.py patches reorder.axpy_raw)


class DuplicateLength(Exception):
    """Raised when two nonzero rows share a rightmost index."""


def reorder_prefix(rows: List[Row]) -> Tuple[List[int], List[Row]]:
    """Sort nonzero row contents by rightmost index over the nonzero slots.

    Returns (permutation, q_rows) with q_rows[i] = rows[permutation[i]];
    zero-row slots are fixed points.
    """
    nonzero = [(r.maxs, i) for i, r in enumerate(rows) if not r.is_zero()]
    seen = {}
    for m, i in nonzero:
        if m in seen:
            raise DuplicateLength(
                "rows %d and %d both end at column %d" % (seen[m], i, m)
            )
        seen[m] = i
    slots = [i for _, i in nonzero]
    sources = [i for _, i in sorted(nonzero)]
    perm = list(range(len(rows)))
    for slot, src in zip(slots, sources):
        perm[slot] = src
    return perm, [rows[perm[i]] for i in range(len(rows))]


class ReorderState:
    """Reordered view of an elimination state, with its change history.

    last_changed[i] is the last stage at which slot i of the reordered
    prefix changed content, whether through elimination or through the
    permutation itself; m_history[s] lists, for each k <= s, the largest
    rightmost index among reordered rows 0..k at stage s (None entries mark
    stages before a seeded run's first record).
    """

    def __init__(self, base: EliminationState):
        self.base = base
        self.permutation: List[int] = []
        self.q_rows: List[Row] = []
        self.q_passage: List[Row] = []
        self.m_history: List[Optional[List[int]]] = []
        self.last_changed: List[int] = []

    @property
    def stage(self) -> int:
        return self.base.stage

    def record(self) -> None:
        """Reorder the current rows and log what moved; one call per stage."""
        n = self.base.stage
        perm, q = reorder_prefix(self.base.rows)
        prev = self.q_rows
        for i, r in enumerate(q):
            if i >= len(self.last_changed):
                self.last_changed.append(n)
            elif prev[i] != r:
                self.last_changed[i] = n
        self.permutation = perm
        self.q_rows = q
        self.q_passage = [self.base.passage[perm[i]] for i in range(len(q))]
        while len(self.m_history) < n:
            self.m_history.append(None)
        running = []
        cur = -1
        for r in q:
            if not r.is_zero() and r.maxs > cur:
                cur = r.maxs
            running.append(cur)
        self.m_history.append(running)


def extended_run(matrix, n: int, strategy: str = "rps", oracle_stages=None) -> "ReorderState":
    """Run the elimination through row n, reordering after every stage.

    Every row goes through engine.step. With oracle_stages set (True meaning
    all n+1 rows), the reordered view is recorded only from that stage on:
    rows, passage and the reordered prefix are those of the plain run, but
    per-stage change history before the seed point is not kept and is
    reported conservatively as the seed stage. The returned view keeps the
    plain elimination state on its .base attribute.
    """
    if strategy != "rps":
        raise ValueError(
            "reordering sorts by rightmost index, which needs rightmost pivots"
        )
    if oracle_stages is True:
        oracle_stages = n
    seed = 0 if oracle_stages is None else min(int(oracle_stages), n)
    state = EliminationState(
        matrix.field, strategy, certificate=getattr(matrix, "certificate", None)
    )
    rs = ReorderState(state)
    for k in range(n + 1):
        step(state, matrix.row_at(k))
        if k >= seed:
            rs.record()
    return rs


def qhf_prefix_stability(history, k: int) -> int:
    """Last stage at which the reordered prefix 0..k changed, per 𝔪 drops.

    Accepts a ReorderState or a raw m_history list. The prefix changes at a
    stage exactly when its running-maximum row-length strictly drops, so the
    candidate is the latest such drop (at least k, and at least the seed
    stage when early history is unavailable).
    """
    if hasattr(history, "m_history"):
        if k > history.stage or k < 0:
            raise IndexOutOfRange("prefix %d exceeds stage %d" % (k, history.stage))
        history = history.m_history
    if k < 0 or k >= len(history):
        raise IndexOutOfRange("prefix %d has no recorded history" % k)
    first = 0
    while history[first] is None:
        first += 1
    delta = max(k, first)
    for s in range(delta + 1, len(history)):
        prev, cur = history[s - 1], history[s]
        if prev is not None and cur is not None and cur[k] < prev[k]:
            delta = s
    return delta
