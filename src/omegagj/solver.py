"""Symbolic solutions of row-finite systems from a reduced elimination state."""

from __future__ import annotations

from bisect import bisect_left
from typing import Callable, Dict, List, Optional, Sequence, Union

from .engine import EliminationState, IndexOutOfRange, certified_floor
from .rows import ScaledRow
from .scalars import LinForm

# Symbol namespace of the homogeneous solution's free parameters t_0, t_1, ...
# A symbolic right-hand side in the same namespace would merge its symbols
# with them, so transform_rhs rejects it.
PARAMETER_NAMESPACE = "t"


class SymbolicSequence:
    """A column-indexed sequence of linear forms, defined up to a horizon.

    Entries beyond the horizon are not known yet; asking for one, or for its
    provenance, raises IndexOutOfRange rather than silently returning zero.
    """

    def __init__(self, field, entries: Dict[int, LinForm], free_columns: Sequence[int],
                 horizon: int, stage: int, floor: Optional[int]) -> None:
        self.field = field
        self.entries = {j: f for j, f in entries.items() if not f.is_zero()}
        self.free_columns = list(free_columns)
        self.horizon = horizon
        self.stage = stage
        self.floor = floor

    def _check(self, j: int) -> None:
        if j < 0 or j > self.horizon:
            raise IndexOutOfRange(
                "column %d is outside the computed horizon %d" % (j, self.horizon)
            )

    def entry(self, j: int) -> LinForm:
        self._check(j)
        return self.entries.get(j, LinForm.zero(self.field))

    def provenance(self, j: int) -> str:
        """Return "certified" below the certified floor, where no later stage
        can write, and "provisional at stage N" from the floor on."""
        self._check(j)
        if self.floor is not None and j < self.floor:
            return "certified"
        return "provisional at stage %d" % self.stage


class SolveResult:
    """Constraints plus the general solution of one system."""

    def __init__(self, constraints: List[LinForm], general: SymbolicSequence) -> None:
        self.constraints = constraints
        self.general = general

    @property
    def horizon(self) -> int:
        return self.general.horizon

    @property
    def deficiency_over_horizon(self) -> int:
        """The number of free parameters at or below the horizon."""
        return len(self.general.free_columns)


def transform_rhs(
    passage: Sequence, rhs: Union[str, Sequence, Callable[[int], object]]
) -> List[LinForm]:
    """Push a right-hand side through the passage rows, k[i] = Q[i] . rhs.

    ``passage`` is a state's passage rows, rebuilt from its stage log when
    state.passage is first read. ``rhs`` may be a symbol namespace, an
    explicit list of field values, or a callable giving the value for index
    i. A namespace ns makes k[i] the form sum of v * ns_j over Q[i]'s
    entries, one block in the field's layout: over the rationals the
    numerators and the denominator of the ScaledRow Q[i] themselves, with
    no per-entry work, and over GF(p) the support of the packed row. An
    explicit rhs makes each k[i] a constant form; a value that the field
    does not accept raises TypeError naming its index. The namespace
    PARAMETER_NAMESPACE is reserved and raises ValueError.
    """
    if rhs == PARAMETER_NAMESPACE:
        raise ValueError("rhs namespace %r is reserved for the solution parameters" % rhs)
    if isinstance(rhs, str):
        return [
            LinForm.of_block(
                prow.field, rhs,
                (prow.den, prow.nums) if type(prow) is ScaledRow
                else prow.field.block_of(prow.support),
            )
            for prow in passage
        ]
    # an explicit rhs makes constant forms; a sequence is zero past its
    # end, so each sorted support is cut there
    at, end = (rhs, None) if callable(rhs) else (rhs.__getitem__, (len(rhs),))
    out: List[LinForm] = []
    for prow in passage:
        F = prow.field
        add, mul, accepts = F.add, F.mul, F.accepts
        support = prow.support
        if end is not None:
            support = support[:bisect_left(support, end)]
        total = F.zero()
        for j, v in support:
            x = at(j)
            if not accepts(x):
                raise TypeError("rhs value %r at index %d is not a value of %r" % (x, j, F))
            total = add(total, mul(v, x))
        out.append(LinForm.const(F, total))
    return out


def consistency_constraints(state: EliminationState, k: Sequence[LinForm]) -> List[LinForm]:
    """Transformed right-hand sides sitting against zero rows must vanish."""
    return [k[w] for w, r in enumerate(state.rows) if r.is_zero() and not k[w].is_zero()]


def _solution(state: EliminationState, horizon: int, k: Sequence[LinForm]) -> SymbolicSequence:
    """The homogeneous solution through the horizon, plus k[i] at the pivot
    column of each row i.

    Free columns get fresh parameters t_0, t_1, ... in column order; each
    pivot column balances its row against the free columns to its left,
    which needs rightmost pivots (ValueError otherwise).
    """
    if state.strategy != "rps":
        raise ValueError("symbolic solutions need rightmost pivots")
    F = state.field
    neg = F.neg
    free = [j for j in range(horizon + 1) if j not in state.pivots]
    param = {j: idx for idx, j in enumerate(free)}
    entries: Dict[int, LinForm] = {
        j: LinForm.symbol(F, PARAMETER_NAMESPACE, idx) for j, idx in param.items()
    }
    for col, i in state.pivots.items():
        if col > horizon:
            continue
        # the row's off-pivot columns are free and their parameters increase
        # with the column, so the homogeneous part is one sorted block with
        # one term per entry and nothing to sum
        row = state.rows[i]
        if F.p is None:
            # a ScaledRow whose pivot numerator is its denominator: the other
            # numerators, negated, stay in lowest terms over it
            block = row.den, tuple([(param[c], -v) for c, v in row.nums if c != col])
        else:
            block = tuple([(param[c], neg(v)) for c, v in row.support if c != col])
        h = LinForm.of_block(F, PARAMETER_NAMESPACE, block)
        # k[i] holds no parameter, so + only joins the two block tables
        entries[col] = k[i] + h
    return SymbolicSequence(F, entries, free, horizon, state.stage, certified_floor(state))


def general_solution(
    state: EliminationState, k: Sequence[LinForm], horizon: int
) -> SolveResult:
    """Constraints and the general solution, the particular solution plus
    the homogeneous one, built in one pass."""
    return SolveResult(consistency_constraints(state, k), _solution(state, horizon, k))
