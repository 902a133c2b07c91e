"""Symbolic solutions of row-finite systems from a reduced elimination state."""

from __future__ import annotations

import random
from dataclasses import dataclass
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

    Entries beyond the horizon are not known yet; asking for one raises
    IndexOutOfRange rather than silently returning zero.
    """

    def __init__(
        self,
        field,
        entries: Dict[int, LinForm],
        free_columns: Sequence[int],
        provenance: Dict[int, str],
        horizon: int,
        stage: int,
    ) -> None:
        self.field = field
        self.entries = {j: f for j, f in entries.items() if not f.is_zero()}
        self.free_columns = list(free_columns)
        self.provenance = dict(provenance)
        self.horizon = horizon
        self.stage = stage

    def entry(self, j: int) -> LinForm:
        if j < 0 or j > self.horizon:
            raise IndexOutOfRange(
                "column %d is outside the computed horizon %d" % (j, self.horizon)
            )
        return self.entries.get(j, LinForm.zero(self.field))


@dataclass
class SolveResult:
    """Constraints plus the general solution of one system."""

    constraints: List[LinForm]
    general: SymbolicSequence
    deficiency_over_horizon: int
    horizon: int


def transform_rhs(
    passage: Sequence, rhs: Union[str, Sequence, Callable[[int], object]]
) -> List[LinForm]:
    """Push a right-hand side through the recorded combination rows.

    ``rhs`` may be a symbol namespace (each input row i contributes the
    symbol ``ns_i``), an explicit list of field values, or a callable
    giving the value for index i. The namespace PARAMETER_NAMESPACE is
    reserved (ValueError).
    """
    _check_rhs_namespace(rhs)
    out: List[LinForm] = []
    for prow in passage:
        F = prow.field
        if isinstance(rhs, str):
            # distinct symbols rhs_j, one per nonzero passage entry
            out.append(LinForm(F, terms={(rhs, j): v for j, v in prow.support}))
            continue
        if callable(rhs):
            pairs = ((v, _as_form(F, rhs(j))) for j, v in prow.support)
        else:
            pairs = ((v, _as_form(F, rhs[j])) for j, v in prow.support if j < len(rhs))
        out.append(LinForm.combination(F, pairs))
    return out


def _as_form(F, value) -> LinForm:
    if isinstance(value, LinForm):
        return value
    return LinForm.const(F, F.from_int(value) if isinstance(value, int) else value)


def consistency_constraints(state: EliminationState, k: Sequence[LinForm]) -> List[LinForm]:
    """Transformed right-hand sides sitting against zero rows must vanish."""
    return [k[w] for w, r in enumerate(state.rows) if r.is_zero() and not k[w].is_zero()]


def _provenance(state: EliminationState, horizon: int) -> Dict[int, str]:
    floor = certified_floor(state)
    provisional = "provisional at stage %d" % state.stage
    return {
        j: "certified" if floor is not None and j < floor else provisional
        for j in range(horizon + 1)
    }


def homogeneous_solution(state: EliminationState, horizon: int) -> SymbolicSequence:
    """General solution of the homogeneous system through the given column.

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
        entries[col] = LinForm.combination(
            F, ((F.neg(v), param[c]) for c, v in state.rows[i].support if c != col)
        )
    return SymbolicSequence(F, entries, free, _provenance(state, horizon), horizon, state.stage)


def particular_solution(
    state: EliminationState, k: Sequence[LinForm], horizon: Optional[int] = None
) -> SymbolicSequence:
    """One solution: the transformed right-hand side placed at the pivot columns."""
    F = state.field
    if horizon is None:
        horizon = max(state.pivots) if state.pivots else -1
    entries: Dict[int, LinForm] = {}
    for col, i in state.pivots.items():
        if col <= horizon:
            entries[col] = k[i]
    return SymbolicSequence(F, entries, [], _provenance(state, horizon), horizon, state.stage)


def general_solution(
    state: EliminationState, k: Sequence[LinForm], horizon: int
) -> SolveResult:
    """Constraints, the general solution and the rank deficiency.

    The general solution is the homogeneous one with k[i] added at the
    pivot column of each row i, that is the particular solution plus the
    homogeneous one, in one pass.
    """
    constraints = consistency_constraints(state, k)
    general = homogeneous_solution(state, horizon)
    zero = LinForm.zero(state.field)
    for col, i in state.pivots.items():
        if col <= horizon:
            x = k[i] + general.entries.get(col, zero)
            if x.is_zero():
                general.entries.pop(col, None)
            else:
                general.entries[col] = x
    pivots_below = sum(1 for c in state.pivots if c <= horizon)
    return SolveResult(constraints, general, horizon + 1 - pivots_below, horizon)


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
        # sym = -(c - coeff_c*sym)/coeff_c
        rest = LinForm(F, c.constant, {s: v for s, v in c.terms.items() if s != sym})
        replacement = rest.scaled_raw(F.neg(F.inv(c.terms[sym])))
        form = form.substitute(sym, replacement)
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
    residuals: List[LinForm] = []
    try:
        for i in range(horizon + 1):
            row = matrix.row_at(i)
            acc = LinForm.combination(F, ((v, x.entry(j)) for j, v in row.support))
            if isinstance(c, str):
                acc = acc - LinForm.symbol(F, c, i)
            elif callable(c):
                acc = acc - _as_form(F, c(i))
            else:
                acc = acc - (_as_form(F, c[i]) if i < len(c) else LinForm.zero(F))
            residuals.append(acc)
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
