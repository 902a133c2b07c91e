"""Staged Gauss-Jordan elimination over row-finite infinite matrices.

Rows of the input matrix arrive one at a time. Each stage reduces the
incoming row against the pivot rows found so far, normalizes it into a new
pivot row (or records a zero row), then clears the new pivot column from all
earlier rows. The same operations applied to an identity matrix give the
passage rows, which express the current reduced rows in terms of the
original input rows.

With the rightmost strategy the pivot of a row is its rightmost support
index; with the leftmost strategy it is the leftmost one.

The reduction of the incoming row c is one linear combination. Every pivot
row is one at its own pivot column and zero at the other pivot columns, so
the reduced row is c - sum val * H[idx] over the hits: (idx, val) for each
column of c that pivot row idx pins, val being c's entry there. The row's
add_combination builds it in one sparse accumulator seeded with c, for one
hit as for many, not one merge per hit that copies the running row each
time. The passage row inv * e_n - sum (val * inv) * Q[idx] is one
combination too, built by the passage rows' own add_combination when the
log is replayed, with the inverse inv of the new pivot entry folded into
the multipliers, so no pass rescales the finished passage row.

H, like every sparse row, is rows.Row: int numerators nums over one row
denominator den, 1 over GF(p), where the numerators are the residues. The
stage reads the incoming row c through c.nums and c.den on either field
and reduces the row den * c, the numerators over 1, whose hits are the
negated numerators (idx, -C) at the pinned columns (F.neg_numerator, an
int over the rationals, a residue over GF(p)): no Fraction per hit. Each row sum
is one pass of the field's kernel on the numerators (one multi-argument
gcd per result row over the rationals, not one per entry). The reduced
row is made unit at its pivot by the field's normalized_support, which
over the rationals takes the pivot numerator as its denominator and also
divides the factor den out, so H is the same as for c; the inverse it
returns is that of den * lead. The engine reads an H row through its
numerators to find the pivot, index the columns and certify a prefix; it
never builds the Fractions of a row's support.

The state keeps a column index, column_rows: for every column, the set of
row indices whose reduced row holds a nonzero entry there. The column clear
of a new pivot visits only the rows the index names for that column, not
every earlier row, and re-indexes each row it patches. Zero rows hold no
entries and never appear in the index.

Only row equivalence and the general solution read the passage rows, and
they are most of the work, so step builds H only. Once a stage's checks
pass it appends one entry to the state's log: the hits of den * c, den,
the inverse inv of den * lead (of den for a zero row), and the Jordan
patches (i, lam) jordan_update applies. The passage rows are rebuilt
from that log the first time state.passage is read, by replaying the
pending entries in order and dropping each: the product form of the
inverse, or eta file (Dantzig and Orchard-Hays, Math. Tables Aids Comput.
8, 1954). Stage n's passage row starts from passage_unit(F, n, den * inv),
the inverse of the stage's own pivot entry times e_n, and inv is folded
into each hit with one F.mul, an int times a Fraction over the rationals.
So a run that never reads Q builds no passage row, and one that reads Q
now and then replays only the stages since the last read. Over GF(p) the
passage rows are rows.PackedRow, over the rationals rows.Row; the replay
needs only canonical and add_combination from a passage row, and
rows.passage_unit builds each stage's first one, so the field picks the
representation and there is one replay. add_combination is the one row
update, on H as on Q: a Jordan patch is the pair (n, lam) against the new
row n, logged as it is applied to H and replayed as logged.

step (with jordan_update) is the package's only elimination: run_to and
reorder.extended_run both go through it. The dense dict-based
canon.dense_reduce shares no code with it and serves only as the reference
that verification compares against.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Set, Tuple, Union

from .rows import PackedRow, Row, _row, check_row, passage_unit
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

    def __init__(self, field: Field, strategy: str = "rps",
                 certificate: Optional[PivotFloor] = None):
        if strategy not in ("rps", "lps"):
            raise ValueError("unknown strategy: %r" % (strategy,))
        self.field = field
        self.strategy = strategy
        # H, read through its numerators, so no row builds its Fractions
        self.rows: List[Row] = []
        self._passage: List[Union[Row, PackedRow]] = []
        # one (hits, den, inv, patches) per stage not yet replayed into _passage
        self._log: List[Tuple[list, int, object, list]] = []
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

    @property
    def passage(self) -> List[Union[Row, PackedRow]]:
        """The passage rows Q, with Q[i] applied to the input rows giving
        rows[i]; the stages logged since the last read are replayed first."""
        if self._log:
            _replay(self)
        return self._passage


def _replay(state: EliminationState) -> None:
    """Rebuild the passage rows of the logged stages, in order, emptying the log.

    Stage n reduced den * c_n, so its row is (den * inv) * e_n plus the
    hits scaled by inv (F.mul on each multiplier, an int over the
    rationals), one add_combination on passage_unit(F, n, den * inv); then
    each Jordan patch (i, lam) adds the pair (n, lam) to Q[i]. A source is
    used reduced and written back reduced, as is the new row before it
    patches.
    Each entry is dropped as it is replayed, so the log and the rows built
    from it are not held at their full sizes at once.
    """
    F = state.field
    q = state._passage
    log = state._log
    log.reverse()
    while log:
        hits, den, inv, patches = log.pop()
        n = len(q)
        for idx, _ in hits:
            q[idx] = q[idx].canonical()
        if inv != 1:
            hits = [(idx, F.mul(inv, h)) for idx, h in hits]
        unit = passage_unit(F, n, inv if den == 1 else F.mul(inv, den))
        q.append(unit.add_combination(hits, q))
        if patches:
            q[n] = q[n].canonical()
            for i, lam in patches:
                q[i] = q[i].add_combination(((n, lam),), q)


def _index_row(index: Dict[int, Set[int]], i: int, entries: tuple) -> None:
    for c, _ in entries:
        index.setdefault(c, set()).add(i)


def _reindex_row(index: Dict[int, Set[int]], i: int, old: tuple, new: tuple) -> None:
    old_cols = {c for c, _ in old}
    new_cols = {c for c, _ in new}
    for c in new_cols - old_cols:
        index.setdefault(c, set()).add(i)
    for c in old_cols - new_cols:
        holders = index[c]
        holders.discard(i)
        if not holders:
            del index[c]


def jordan_update(state: EliminationState, g: Row) -> None:
    """Clear the pivot column of the newly appended pivot row g everywhere.

    step calls this once g, its pivot column (the last pivot_history entry)
    and its log entry are appended; the earlier rows the column index lists
    for that column are patched in step, each by the one pair (n, lam)
    against g = rows[n], lam = -rows[i][col], which is logged as (i, lam)
    on the stage's entry and recorded in last_changed; g is indexed last.
    """
    n = state.stage
    col = state.pivot_history[-1]
    index = state.column_rows
    holders = index.get(col)
    if holders:
        patches = state._log[-1][3]
        for i in sorted(holders):
            old = state.rows[i]
            lam = state.field.neg(old.raw(col))
            new = old.add_combination(((n, lam),), state.rows)
            state.rows[i] = new
            patches.append((i, lam))
            state.last_changed[i] = n
            _reindex_row(index, i, old.nums, new.nums)
    _index_row(index, n, g.nums)
    state.pivots[col] = n


def step(state: EliminationState, c: Row) -> EliminationState:
    """Run one full stage on the incoming row and return the state.

    A stage that raises (a row that is not a Row over the state's field, a
    certificate violation or a pivot collision) leaves the state as it was.
    """
    F = state.field
    n = len(state.rows)
    check_row(F, n, c)
    # every pivot row is one at its own pivot column and zero at all other
    # pivot columns, so the multiplier against pivot row idx is c's original
    # entry there, and the reduced row is the one combination
    # c - sum val * H[idx] over the hits: (idx, -val) for each column of c
    # that a pivot pins; c is reduced as the integer row den * c, its
    # numerators over 1, whose hits are the negated numerators
    pivots = state.pivots
    neg = F.neg_numerator
    hits = []
    for col, v in c.nums:
        idx = pivots.get(col)
        if idx is not None:
            hits.append((idx, neg(v)))
    den = c.den
    if den != 1:
        c = _row(F, 1, c.nums)
    reduced = c.add_combination(hits, state.rows)

    # the inverse of den * lead, the pivot entry of den * c reduced, or of
    # den for a zero row; den times it is the inverse of c's own pivot entry
    col = None
    lead_inv = F.one() if den == 1 else F.quotient(1, den)
    entries = reduced.nums
    if entries:
        col, lead = entries[-1] if state.strategy == "rps" else entries[0]
        if state._floor_max is not None and col < state._floor_max:
            raise CertificateViolation(n, col, state._floor_max)
        if col in pivots:
            raise PivotCollision(
                "column %d already pinned by row %d" % (col, pivots[col])
            )
        reduced, lead_inv = reduced.normalized(lead)
    state.rows.append(reduced)
    state._log.append((hits, den, lead_inv, []))
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

    A future stage can touch row i only through a new pivot column inside
    row i's support, and a new pivot is at least the certified floor and
    not pinned yet. So the prefix is frozen unless some row in it holds an
    unpinned column at or past the floor. Under either strategy a row's
    pinned columns are its own pivot alone, since the Jordan clear removes
    every other pivot column from it, so a row that ends past the floor on
    its own pivot is final too.
    """
    if k > state.stage or k < 0:
        raise IndexOutOfRange("prefix %d exceeds stage %d" % (k, state.stage))
    floor = certified_floor(state)
    if floor is None:
        return "provisional"
    pivots = state.pivots
    for r in state.rows[: k + 1]:
        for c, _ in reversed(r.nums):
            if c < floor:
                break
            if c not in pivots:
                return "provisional"
    return "certified"
