"""Symbolic solutions of row-finite systems from a reduced elimination state."""

from __future__ import annotations

import random
from typing import Callable, Dict, List, Optional, Sequence, Union

from .engine import EliminationState, IndexOutOfRange, certified_floor
from .scalars import LinForm

# Symbol namespace of the homogeneous solution's free parameters t_0, t_1, ...
# A symbolic right-hand side in the same namespace would merge its symbols
# with them, so transform_rhs and verify_solution reject it.
PARAMETER_NAMESPACE = "t"


def _check_rhs_namespace(rhs) -> None:
    if rhs == PARAMETER_NAMESPACE:
        raise ValueError("rhs namespace %r is reserved for the solution parameters" % rhs)


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
    passage: Optional[Sequence], rhs: Union[str, Sequence, Callable[[int], object]]
) -> List[LinForm]:
    """Push a right-hand side through the recorded combination rows.

    ``rhs`` may be a symbol namespace (each input row i contributes the
    symbol ``ns_i``), an explicit list of field values, or a callable
    giving the value for index i. The namespace PARAMETER_NAMESPACE is
    reserved, and a state run with passage=False has passage None; both
    raise ValueError.
    """
    _check_rhs_namespace(rhs)
    if passage is None:
        raise ValueError("no passage rows: the state was run without passage rows")
    out: List[LinForm] = []
    for prow in passage:
        F = prow.field
        if isinstance(rhs, str):
            # distinct symbols rhs_j, one per nonzero passage entry
            out.append(LinForm(F, terms={(rhs, j): v for j, v in prow.support}))
        else:
            out.append(LinForm.combination(F, ((v, _rhs_at(F, rhs, j)) for j, v in prow.support)))
    return out


def _rhs_at(F, rhs, i: int) -> LinForm:
    """Entry i of a right-hand side as a form: the symbol rhs_i for a
    namespace, rhs(i) for a callable, rhs[i] for a sequence (zero past its end)."""
    if isinstance(rhs, str):
        return LinForm.symbol(F, rhs, i)
    value = rhs(i) if callable(rhs) else rhs[i] if i < len(rhs) else F.zero()
    if isinstance(value, LinForm):
        return value
    return LinForm.const(F, F.from_int(value) if isinstance(value, int) else value)


def consistency_constraints(state: EliminationState, k: Sequence[LinForm]) -> List[LinForm]:
    """Transformed right-hand sides sitting against zero rows must vanish."""
    return [k[w] for w, r in enumerate(state.rows) if r.is_zero() and not k[w].is_zero()]


def _solution(
    state: EliminationState, horizon: int, k: Optional[Sequence[LinForm]]
) -> SymbolicSequence:
    """The homogeneous solution through the horizon, plus k[i] at the pivot
    column of each row i when k is given.

    Free columns get fresh parameters t_0, t_1, ... in column order; each
    pivot column balances its row against the free columns to its left,
    which needs rightmost pivots (ValueError otherwise).
    """
    if state.strategy != "rps":
        raise ValueError("symbolic solutions need rightmost pivots")
    F = state.field
    free = [j for j in range(horizon + 1) if j not in state.pivots]
    param = {j: LinForm.symbol(F, PARAMETER_NAMESPACE, idx) for idx, j in enumerate(free)}
    entries: Dict[int, LinForm] = dict(param)
    for col, i in state.pivots.items():
        if col > horizon:
            continue
        h = LinForm.combination(
            F, ((F.neg(v), param[c]) for c, v in state.rows[i].support if c != col)
        )
        # k[i] on the left: + copies the left term table, and k[i] is dense
        entries[col] = h if k is None else k[i] + h
    return SymbolicSequence(F, entries, free, horizon, state.stage, certified_floor(state))


def homogeneous_solution(state: EliminationState, horizon: int) -> SymbolicSequence:
    """General solution of the homogeneous system through the given column."""
    return _solution(state, horizon, None)


def particular_solution(
    state: EliminationState, k: Sequence[LinForm], horizon: Optional[int] = None
) -> SymbolicSequence:
    """One solution: the transformed right-hand side placed at the pivot columns."""
    if horizon is None:
        horizon = max(state.pivots) if state.pivots else -1
    entries = {col: k[i] for col, i in state.pivots.items() if col <= horizon}
    return SymbolicSequence(state.field, entries, [], horizon, state.stage, certified_floor(state))


def general_solution(
    state: EliminationState, k: Sequence[LinForm], horizon: int
) -> SolveResult:
    """Constraints and the general solution, the particular solution plus
    the homogeneous one, built in one pass."""
    return SolveResult(consistency_constraints(state, k), _solution(state, horizon, k))


def _reduce_modulo(form: LinForm, constraints: Sequence[LinForm]) -> LinForm:
    """Eliminate the leading symbol of each constraint from the form."""
    ordered = []
    for c in constraints:
        if c.terms:
            ordered.append((max(c.terms), c))
    ordered.sort(key=lambda t: t[0], reverse=True)
    for sym, c in ordered:
        coeff = form.terms.get(sym)
        if coeff is None:
            continue
        F = form.field
        # form - (coeff / c[sym]) * c has no sym term
        lam = F.neg(F.mul(coeff, F.inv(c.terms[sym])))
        form = LinForm.combination(F, ((F.one(), form), (lam, c)))
    return form


def verify_solution(
    matrix,
    x: SymbolicSequence,
    c: Union[str, Sequence, Callable[[int], object]],
    horizon: int,
    trials: int = 0,
    constraints: Optional[Sequence[LinForm]] = None,
    rng: Optional[random.Random] = None,
) -> bool:
    """Check rows 0..horizon of the system against a candidate solution.

    The residual of each row must vanish identically after reduction
    modulo the constraints.  With ``trials`` > 0, also spot-check with
    random constraint-satisfying numeric assignments. A symbolic ``c`` in
    PARAMETER_NAMESPACE raises ValueError, as in transform_rhs.
    """
    _check_rhs_namespace(c)
    F = x.field
    minus_one = F.neg(F.one())
    residuals: List[LinForm] = []
    try:
        for i in range(horizon + 1):
            row = matrix.row_at(i)
            pairs = [(v, x.entry(j)) for j, v in row.support]
            pairs.append((minus_one, _rhs_at(F, c, i)))
            residuals.append(LinForm.combination(F, pairs))
    except IndexOutOfRange:
        return False
    cons = list(constraints or [])
    for r in residuals:
        if not _reduce_modulo(r, cons).is_zero():
            return False
    rng = rng or random.Random(0)
    symbols = set()
    for r in residuals:
        symbols.update(r.terms)
    for con in cons:
        symbols.update(con.terms)
    for _ in range(trials):
        values = {s: F.random_value(rng) for s in symbols}
        for con in sorted(cons, key=lambda f: max(f.terms)):
            lead = max(con.terms)
            rest = con.constant
            for s, v in con.terms.items():
                if s != lead:
                    rest = F.add(rest, F.mul(v, values[s]))
            values[lead] = F.mul(F.neg(F.inv(con.terms[lead])), rest)
        for r in residuals:
            total = r.constant
            for s, v in r.terms.items():
                total = F.add(total, F.mul(v, values[s]))
            if total != F.zero():
                return False
    return True
