"""Staged Gauss-Jordan elimination over row-finite infinite matrices.

Rows of the input matrix arrive one at a time. Each stage reduces the
incoming row against the pivot rows found so far, normalizes it into a new
pivot row (or records a zero row), then clears the new pivot column from all
earlier rows. The same operations are mirrored on an identity matrix, whose
rows therefore always express the current reduced rows in terms of the
original input rows.

With the rightmost strategy the pivot of a row is its rightmost support
index; with the leftmost strategy it is the leftmost one.

The state keeps a column index, column_rows: for every column, the set of
row indices whose reduced row holds a nonzero entry there. The column clear
of a new pivot visits only the rows the index names for that column, not
every earlier row, and re-indexes each row it patches. Zero rows hold no
entries and never appear in the index.

step (with jordan_update) is the package's only elimination: run_to and
reorder.extended_run both go through it. The dense dict-based
canon.dense_reduce shares no code with it and serves only as the reference
that verification compares against.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Set

from . import rows
from .rows import Row, check_row
from .scalars import Field


class PivotCollision(Exception):
    """Raised when a new pivot lands on a column that is already pinned."""


class CertificateViolation(Exception):
    """Raised when an observed pivot breaks a declared pivot floor promise."""

    def __init__(self, stage: int, column: int, floor: int):
        self.stage = stage
        self.column = column
        self.floor = floor
        super().__init__(
            "stage %d produced pivot column %d below promised floor %d"
            % (stage, column, floor)
        )


class IndexOutOfRange(IndexError):
    """Raised when a prefix index exceeds the current stage."""


class PivotFloor:
    """A promise b: after stage m, every later pivot column is >= b(m).

    The promise is validated online: each observed nonzero pivot is checked
    against the largest floor promised by the completed stages before it.
    Zero rows produce no pivot and are exempt. The running floor is kept on
    each EliminationState, so one floor can serve any number of runs.
    """

    def __init__(self, promise: Callable[[int], int]):
        self.promise = promise

    @classmethod
    def affine(cls, slope: int, intercept: int) -> "PivotFloor":
        return cls(lambda m: slope * m + intercept)


class EliminationState:
    """All data accumulated by the staged elimination of one matrix."""

    def __init__(self, field: Field, strategy: str = "rps", certificate: Optional[PivotFloor] = None):
        if strategy not in ("rps", "lps"):
            raise ValueError("unknown strategy: %r" % (strategy,))
        self.field = field
        self.strategy = strategy
        self.rows: List[Row] = []
        self.passage: List[Row] = []
        self.pivots: Dict[int, int] = {}
        self.pivot_history: List[Optional[int]] = []
        self.last_changed: List[int] = []
        self.column_rows: Dict[int, Set[int]] = {}
        self.certificate = certificate
        self._floor_max: Optional[int] = None

    @property
    def stage(self) -> int:
        """Index of the last processed input row; -1 before the first."""
        return len(self.rows) - 1


def _sub_scaled(y: Row, lam, x: Row) -> Row:
    # looked up on the module at call time, so a wrapper installed on
    # rows.axpy_raw sees every engine call
    return rows.axpy_raw(y.field.neg(lam), x, y)


def _index_row(index: Dict[int, Set[int]], i: int, r: Row) -> None:
    for c, _ in r.support:
        index.setdefault(c, set()).add(i)


def _reindex_row(index: Dict[int, Set[int]], i: int, old: Row, new: Row) -> None:
    old_cols = {c for c, _ in old.support}
    new_cols = {c for c, _ in new.support}
    for c in new_cols - old_cols:
        index.setdefault(c, set()).add(i)
    for c in old_cols - new_cols:
        holders = index[c]
        holders.discard(i)
        if not holders:
            del index[c]


def jordan_update(state: EliminationState, g: Row) -> None:
    """Clear the pivot column of the newly appended pivot row g everywhere.

    step calls this once g, its passage row and its pivot column (the last
    pivot_history entry) are appended; the earlier rows the column index
    lists for that column (and their passage rows) are patched in step and
    recorded in last_changed, and g itself is indexed last.
    """
    n = state.stage
    col = state.pivot_history[-1]
    index = state.column_rows
    holders = index.get(col)
    if holders:
        g_passage = state.passage[n]
        for i in sorted(holders):
            old = state.rows[i]
            mu = old.raw(col)
            new = _sub_scaled(old, mu, g)
            state.rows[i] = new
            state.passage[i] = _sub_scaled(state.passage[i], mu, g_passage)
            state.last_changed[i] = n
            _reindex_row(index, i, old, new)
    _index_row(index, n, g)
    state.pivots[col] = n


def step(state: EliminationState, c: Row) -> EliminationState:
    """Run one full stage on the incoming row and return the state.

    A stage that raises (a row that is not a Row over the state's field, a
    certificate violation or a pivot collision) leaves the state as it was.
    """
    n = len(state.rows)
    check_row(state.field, n, c)
    # every pivot row is one at its own pivot column and zero at all other
    # pivot columns, so the multiplier against pivot row idx is c's original
    # entry there and the order of the subtractions does not matter
    reduced = c
    p = Row.unit(state.field, n)
    for col, val in c.support:
        idx = state.pivots.get(col)
        if idx is not None:
            reduced = _sub_scaled(reduced, val, state.rows[idx])
            p = _sub_scaled(p, val, state.passage[idx])

    col = None
    if not reduced.is_zero():
        col, lead = reduced.support[-1] if state.strategy == "rps" else reduced.support[0]
        if state._floor_max is not None and col < state._floor_max:
            raise CertificateViolation(n, col, state._floor_max)
        if col in state.pivots:
            raise PivotCollision(
                "column %d already pinned by row %d" % (col, state.pivots[col])
            )
        inv = state.field.inv(lead)
        reduced = reduced.scaled_raw(inv)
        p = p.scaled_raw(inv)
    state.rows.append(reduced)
    state.passage.append(p)
    state.pivot_history.append(col)
    state.last_changed.append(n)
    if col is not None:
        jordan_update(state, reduced)
    if state.certificate is not None:
        b = state.certificate.promise(n)
        if state._floor_max is None or b > state._floor_max:
            state._floor_max = b
    return state


def run_to(matrix, n: int, strategy: str = "rps") -> EliminationState:
    """Process rows 0..n of the matrix and return the resulting state."""
    state = EliminationState(
        matrix.field, strategy, certificate=getattr(matrix, "certificate", None)
    )
    for k in range(n + 1):
        step(state, matrix.row_at(k))
    return state


def prefix_stability(state, k: int) -> int:
    """Last stage at which any of rows 0..k changed.

    Works on any state-like object carrying stage and last_changed; the
    result is the empirical stage after which the prefix has stayed fixed so
    far and can only grow as later rows arrive.
    """
    if k > state.stage or k < 0:
        raise IndexOutOfRange("prefix %d exceeds stage %d" % (k, state.stage))
    return max(state.last_changed[: k + 1])


def certified_floor(state: EliminationState) -> Optional[int]:
    """The column below which no later stage can write, or None without a
    certificate: the running floor step holds every later pivot to, the
    largest promise of the stages so far (step is atomic, so it holds)."""
    return state._floor_max


def certified_stable(state: EliminationState, k: int) -> str:
    """Decide whether rows 0..k are guaranteed final: certified|provisional.

    A future stage can touch row i only through a pivot column inside row
    i's support, so a certified floor strictly above every nonzero row's
    rightmost index freezes the prefix.
    """
    if k > state.stage or k < 0:
        raise IndexOutOfRange("prefix %d exceeds stage %d" % (k, state.stage))
    floor = certified_floor(state)
    if floor is None:
        return "provisional"
    for r in state.rows[: k + 1]:
        if not r.is_zero() and r.maxs >= floor:
            return "provisional"
    return "certified"
