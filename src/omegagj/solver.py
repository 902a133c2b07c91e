"""Symbolic solutions of row-finite systems from a reduced elimination
state, written as affine forms over indexed symbols (LinForm)."""

from __future__ import annotations

from bisect import bisect_left
from collections.abc import Sequence as SequenceType
from typing import Callable, Dict, List, Optional, Sequence, Union

from .engine import EliminationState, IndexOutOfRange, certified_floor
from .rows import Row, _row
from .scalars import Field, check_same_field

# Symbol namespace of the homogeneous solution's free parameters t_0, t_1, ...
# A symbolic right-hand side in the same namespace would merge its symbols
# with them, so transform_rhs rejects it.
PARAMETER_NAMESPACE = "t"


# Symbols are (namespace, index) pairs: ("t", 3) prints as t_3.


class LinForm:
    """An affine form over indexed symbols: constant + sum of coeff * ns_i.

    blocks maps each namespace ns to one rows.Row holding the
    coefficients of its symbols ns_i at columns i, as int numerators over
    one denominator. No row is zero, and rows are canonical, so two forms
    are equal iff their fields, constants and block tables are equal. A
    symbolic k[i] holds the passage row Q[i] itself over the rationals.
    Sums merge a namespace that both forms hold with the rows' own
    add_combination and share every other row, so no coefficient is
    copied one by one; rendering reads a row's numerators.
    """

    __slots__ = ("field", "constant", "blocks")

    def __init__(self, field: Field, constant=None, terms=None):
        """The form constant + sum of terms[(ns, i)] * ns_i; each value is
        read as const reads it, a flat terms mapping is grouped by namespace
        once, zero coefficients are dropped, and a key that is not a
        (str, natural) pair raises ValueError."""
        self.field = field
        self.constant = field.zero() if constant is None else _value(field, constant)
        grouped: dict = {}
        for key, v in (terms or {}).items():
            if not (isinstance(key, tuple) and len(key) == 2):
                raise ValueError("symbol %r: not a (namespace, natural index) pair" % (key,))
            ns, i = key
            _check_symbol(ns, i)
            v = _value(field, v)
            if v:
                grouped.setdefault(ns, []).append((i, v))
        self.blocks = {ns: _row(field, *field.over_common_denominator(tuple(sorted(pairs))))
                       for ns, pairs in grouped.items()}

    @classmethod
    def zero(cls, field: Field) -> "LinForm":
        return _form(field, field.zero(), {})

    @classmethod
    def const(cls, field: Field, value) -> "LinForm":
        """The constant form value; a plain int is read through
        field.from_int, and a value the field does not accept raises
        TypeError."""
        return _form(field, _value(field, value), {})

    @classmethod
    def symbol(cls, field: Field, namespace: str, index: int) -> "LinForm":
        """The form namespace_index; a key that is not a (str, natural)
        pair raises ValueError, as in the constructor."""
        _check_symbol(namespace, index)
        # the value one is the numerator 1 over 1 on either field
        return _form(field, field.zero(), {namespace: _row(field, 1, ((index, 1),))})

    @property
    def terms(self) -> dict:
        """The flat {(ns, i): coeff} view of the blocks, built when read."""
        return {(ns, i): v for ns, row in self.blocks.items() for i, v in row.support}

    def is_zero(self) -> bool:
        return not self.constant and not self.blocks

    def __add__(self, other):
        check_same_field(self.field, other.field)
        F = self.field
        one = ((0, 1),)
        blocks = dict(self.blocks)
        for ns, ys in other.blocks.items():
            xs = blocks.get(ns)
            if xs is None:
                blocks[ns] = ys
                continue
            merged = xs.add_combination(one, (ys,))
            if merged.is_zero():
                del blocks[ns]
            else:
                blocks[ns] = merged
        return _form(F, F.add(self.constant, other.constant), blocks)

    def __eq__(self, other):
        if not isinstance(other, LinForm):
            return NotImplemented
        check_same_field(self.field, other.field)
        return self.constant == other.constant and self.blocks == other.blocks

    def __str__(self):
        return self.render()

    def render(self, leading=None) -> str:
        """Text form with terms sorted by (namespace, index), constant last.

        leading, if given, is a symbol pulled to the front (used for
        constraints written as c_w - ... = 0). Only the namespaces are
        sorted; each row is already in index order.
        """
        F = self.field
        blocks = self.blocks
        render_terms = F.render_terms
        pieces = []
        lead = None
        for ns in sorted(blocks):
            row = blocks[ns]
            texts = render_terms(ns, row)
            if leading is not None and leading[0] == ns:
                entries = row.nums
                pos = bisect_left(entries, (leading[1],))
                if pos < len(entries) and entries[pos][0] == leading[1]:
                    lead = texts.pop(pos)
            pieces += texts
        if lead is not None:
            pieces.insert(0, lead)
        constant = self.constant
        if constant or not pieces:
            text = F.format_values((constant,))[0]
            pieces.append(" - " + text[1:] if text[0] == "-" else " + " + text)
        # the first piece loses its ' + ', or its ' - ' becomes '-'
        text = "".join(pieces)
        return "-" + text[3:] if text[1] == "-" else text[3:]

    def __repr__(self):
        return "LinForm(%s)" % self

    __hash__ = None


def _check_symbol(namespace, index) -> None:
    """Raise ValueError unless (namespace, index) is a (str, natural) symbol."""
    if not (isinstance(namespace, str) and type(index) is int and index >= 0):
        raise ValueError(
            "symbol %r: not a (namespace, natural index) pair" % ((namespace, index),))


def _value(field: Field, v):
    """v as a raw value of field: a plain int through field.from_int."""
    if not field.accepts(v):
        raise TypeError("%r is not a value of %r" % (v, field))
    return field.from_int(v) if isinstance(v, int) else v


def _form(field: Field, constant, blocks: dict) -> LinForm:
    """The LinForm of a checked constant and block table, built directly."""
    f = object.__new__(LinForm)
    f.field = field
    f.constant = constant
    f.blocks = blocks
    return f


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
    entries, held as one Row: over the rationals Q[i] itself, with no
    per-entry work, and over GF(p) the Row of the packed row's support. An
    explicit rhs makes each k[i] a constant form; a value that the field
    does not accept raises TypeError naming its index. The namespace
    PARAMETER_NAMESPACE is reserved and raises ValueError; an rhs of any
    other type raises TypeError.
    """
    if rhs == PARAMETER_NAMESPACE:
        raise ValueError("rhs namespace %r is reserved for the solution parameters" % rhs)
    if isinstance(rhs, str):
        forms = []
        for prow in passage:
            F = prow.field
            row = prow if isinstance(prow, Row) else _row(F, 1, prow.support)
            forms.append(_form(F, F.zero(), {} if row.is_zero() else {rhs: row}))
        return forms
    if not (callable(rhs) or isinstance(rhs, SequenceType)):
        raise TypeError("rhs is a %s, not a namespace, a sequence or a callable"
                        % type(rhs).__name__)
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
    neg = F.neg_numerator
    free = [j for j in range(horizon + 1) if j not in state.pivots]
    param = {j: idx for idx, j in enumerate(free)}
    entries: Dict[int, LinForm] = {
        j: LinForm.symbol(F, PARAMETER_NAMESPACE, idx) for j, idx in param.items()
    }
    for col, i in state.pivots.items():
        if col > horizon:
            continue
        # the row's off-pivot columns are free and their parameters increase
        # with the column, so the homogeneous part is one sorted row with one
        # term per entry and nothing to sum: the other numerators, negated,
        # over the row's denominator, which its pivot numerator equals, so
        # they stay in lowest terms
        row = state.rows[i]
        t = _row(F, row.den, tuple([(param[c], neg(v)) for c, v in row.nums if c != col]))
        h = _form(F, F.zero(), {} if t.is_zero() else {PARAMETER_NAMESPACE: t})
        # k[i] holds no parameter, so + only joins the two block tables
        entries[col] = k[i] + h
    return SymbolicSequence(F, entries, free, horizon, state.stage, certified_floor(state))


def general_solution(
    state: EliminationState, k: Sequence[LinForm], horizon: int
) -> SolveResult:
    """Constraints and the general solution, the particular solution plus
    the homogeneous one, built in one pass. A negative horizon, or a k
    that does not hold one form per row of the state, raises ValueError."""
    if horizon < 0:
        raise ValueError("horizon must be >= 0, got %d" % horizon)
    if len(k) != len(state.rows):
        raise ValueError("k holds %d forms for %d rows" % (len(k), len(state.rows)))
    return SolveResult(consistency_constraints(state, k), _solution(state, horizon, k))
