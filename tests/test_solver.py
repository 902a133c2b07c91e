import re
from collections.abc import Sequence
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from omegagj import (
    BUILTINS,
    EliminationState,
    Field,
    IndexOutOfRange,
    LinForm,
    PivotFloor,
    RATIONAL,
    Row,
    consistency_constraints,
    general_solution,
    make_explicit,
    make_stencil,
    run_to,
    step,
    transform_rhs,
)
from omegagj.engine import certified_floor, certified_stable, prefix_stability
from omegagj.solver import SymbolicSequence
from fixtures import (
    BIDIAG_GENERAL,
    BIDIAG_K,
    BIDIAG_XH,
    FULKERSON_CONSTRAINTS,
    FULKERSON_K,
    FULKERSON_XP,
    PDE_XH_PREFIX,
)
from oracles import (
    _leads,
    _reduce_modulo,
    form_combination,
    homogeneous_solution,
    particular_solution,
    substitute,
    verify_solution,
)
from util import dict_matrices, field_for, mk_row, mk_rows

F1 = Fraction(1)
GF7 = Field.gf(7)


def form_terms(f: LinForm) -> dict:
    assert f.constant == f.field.zero()
    return dict(f.terms)


# -- transformed right-hand sides ---------------------------------------------


def test_transform_rhs_symbolic_band():
    state = run_to(BUILTINS["bidiag"](), 6)
    k = transform_rhs(state.passage, "s")
    for i, expect in enumerate(BIDIAG_K):
        assert form_terms(k[i]) == expect


def test_transform_rhs_symbolic_fulkerson():
    state = run_to(BUILTINS["fulkerson"](), 6)
    k = transform_rhs(state.passage, "c")
    for i, expect in enumerate(FULKERSON_K):
        assert form_terms(k[i]) == expect


def test_transform_rhs_symbolic_holds_the_passage_support_and_reads_any_column():
    # k[i] is one block holding Q[i]'s support itself, over the rationals
    # (scaled passage rows) and over GF(7) (packed ones)
    for matrix in (BUILTINS["bidiag"](), make_stencil(GF7, {0: 1, 1: 3, 2: 5})):
        passage = run_to(matrix, 6).passage
        k = transform_rhs(passage, "s")
        for f, prow in zip(k, passage):
            assert f.terms == {("s", j): v for j, v in prow.support}
            assert len(f.terms) == len(prow.support)
    # passage rows need not stay below their own count
    rows = mk_rows(RATIONAL, [{0: F1, 5: Fraction(-1, 2)}, {9: F1}])
    k = transform_rhs(rows, "s")
    assert form_terms(k[0]) == {("s", 0): F1, ("s", 5): Fraction(-1, 2)}
    assert form_terms(k[1]) == {("s", 9): F1}
    # each form holds its passage row itself, numerators over one
    # denominator, and prints, compares and adds from them
    assert [str(f) for f in k] == ["s_0 - 1/2*s_5", "s_9"]
    assert [f.blocks["s"] for f in k] == rows and k[0].blocks["s"] is rows[0]
    assert str(k[0] + k[1]) == "s_0 - 1/2*s_5 + s_9"
    assert k[0] + LinForm(RATIONAL, None, {("s", 5): Fraction(1, 2)}) == LinForm.symbol(
        RATIONAL, "s", 0)


def test_symbolic_forms_hold_rows_of_the_fields_row_type():
    # over the rationals k[i] holds the Row Q[i] itself, so nothing is
    # copied; over GF(7) a sparse Row of the packed Q[i]; and each
    # homogeneous t block is a Row too
    for matrix in (BUILTINS["pde"](), make_stencil(GF7, {0: 1, 1: 3, 2: 5})):
        state = run_to(matrix, 12)
        k = transform_rhs(state.passage, "c")
        for f, prow in zip(k, state.passage):
            block = f.blocks["c"]
            assert type(block) is Row and block == prow
            assert (block is prow) == (matrix.field.p is None)
        general = general_solution(state, k, 12).general
        t_blocks = [general.entry(j).blocks["t"] for j in range(13)
                    if "t" in general.entry(j).blocks]
        assert t_blocks and all(type(b) is Row for b in t_blocks)


class CountedReads(Sequence):
    """A sequence that records every index it is read at."""

    def __init__(self, values):
        self.values = list(values)
        self.reads = []

    def __len__(self):
        return len(self.values)

    def __getitem__(self, i):
        self.reads.append(i)
        return self.values[i]


def test_transform_rhs_reads_a_sequence_only_up_to_its_end():
    # bidiag's passage is dense lower-triangular (1,891 nonzeros at 60
    # stages); a sequence is zero past its end, so no entry there is read
    passage = run_to(BUILTINS["bidiag"](), 60).passage
    vals = [Fraction(1, 2), -3, Fraction(5, 7), 0, 2]
    rhs = CountedReads(vals)
    k = transform_rhs(passage, rhs)
    assert 0 < len(rhs.reads) <= 5 * len(passage)
    assert all(i < len(vals) for i in rhs.reads)
    assert k == transform_rhs(passage, lambda i: vals[i] if i < len(vals) else 0)


def test_transform_rhs_explicit_and_callable():
    state = run_to(BUILTINS["bidiag"](), 3)
    vals = [Fraction(2), Fraction(5), Fraction(1), Fraction(0)]
    k = transform_rhs(state.passage, vals)
    assert k[1].constant == 3  # -2 + 5
    assert not k[1].terms
    k2 = transform_rhs(state.passage, lambda i: Fraction(i))
    assert k2[2].constant == 0 - 1 + 2
    k3 = transform_rhs(state.passage, [])
    assert all(f.is_zero() for f in k3)


@st.composite
def explicit_systems(draw):
    """(p, rows, rhs): up to 20 zero-free {column: value} rows over the
    rationals (p None) or GF(7), empty ones included, and an explicit rhs
    shorter than, as long as or longer than the rows, whose values include
    plain ints (and, over GF(7), ints outside [0, 7))."""
    p = draw(st.sampled_from([None, 7]))
    if p is None:
        values = st.fractions(min_value=-5, max_value=5, max_denominator=4)
        rhs_values = st.one_of(values, st.integers(-5, 5))
    else:
        values, rhs_values = st.integers(0, 6), st.integers(-20, 20)
    rows = draw(st.lists(st.dictionaries(st.integers(0, 24), values, max_size=5),
                         min_size=1, max_size=20))
    rows = [{c: v for c, v in r.items() if v} for r in rows]
    n = len(rows)
    size = draw(st.sampled_from([0, n // 2, n - 1, n, n + 3]))
    return p, rows, draw(st.lists(rhs_values, min_size=size, max_size=size))


@settings(max_examples=150, deadline=None)
@given(explicit_systems())
def test_explicit_transform_is_the_symbolic_one_evaluated(case):
    # Q[i] . rhs is Q[i] . (c_0, c_1, ...) with each c_j replaced by rhs_j
    p, dicts, vals = case
    F = field_for(p)
    passage = run_to(make_explicit(F, mk_rows(F, dicts)), len(dicts) - 1).passage
    expect = [LinForm.const(F, substitute(f, vals, p)) for f in transform_rhs(passage, "c")]
    assert transform_rhs(passage, vals) == expect
    assert transform_rhs(passage, lambda j: vals[j] if j < len(vals) else 0) == expect


def test_rhs_in_the_parameter_namespace_is_rejected():
    # its symbols t_i would merge with the homogeneous parameters t_i
    matrix = BUILTINS["bidiag"]()
    state = run_to(matrix, 2)
    with pytest.raises(ValueError, match="reserved"):
        transform_rhs(state.passage, "t")
    x = homogeneous_solution(state, 2)
    with pytest.raises(ValueError, match="reserved"):
        verify_solution(matrix, x, "t", 2)


def test_transform_rhs_rejects_form_values():
    # an explicit rhs holds field values; a LinForm entry is none
    for F in (RATIONAL, GF7):
        state = run_to(make_explicit(F, mk_rows(F, [{0: 1}, {0: 1, 1: 1}])), 1)
        forms = [LinForm.symbol(F, "u", 9), LinForm.zero(F)]
        with pytest.raises(TypeError):
            transform_rhs(state.passage, lambda i: forms[i])
        with pytest.raises(TypeError):
            transform_rhs(state.passage, forms)


def test_transform_rhs_rejects_values_outside_the_field():
    # over GF(7) a Fraction is no residue (the sum used to print 5/2), and
    # over the rationals a float is no exact value (0.1 used to become
    # 3602879701896397/36028797018963968); the error names the index
    passage = run_to(make_stencil(GF7, {0: 1, 1: 3}), 2).passage
    for rhs in ([Fraction(1, 2), 1, 1], lambda i: Fraction(1, 2) if i == 0 else 1):
        with pytest.raises(TypeError, match="index 0"):
            transform_rhs(passage, rhs)
    passage = run_to(BUILTINS["bidiag"](), 3).passage
    for rhs in ([1, 0.1, 2], lambda i: 0.1 if i == 1 else i):
        with pytest.raises(TypeError, match="index 1"):
            transform_rhs(passage, rhs)
    # ints are values of both fields
    assert transform_rhs(passage, [1, 2, 3]) == transform_rhs(
        passage, [Fraction(1), Fraction(2), Fraction(3)])


# -- constraints --------------------------------------------------------------


def test_constraints_band_matrix_is_unconstrained():
    state = run_to(BUILTINS["bidiag"](), 6)
    k = transform_rhs(state.passage, "s")
    assert consistency_constraints(state, k) == []


def test_constraints_fulkerson_stage_six():
    state = run_to(BUILTINS["fulkerson"](), 6)
    k = transform_rhs(state.passage, "c")
    cons = consistency_constraints(state, k)
    assert [form_terms(f) for f in cons] == FULKERSON_CONSTRAINTS


def test_constraints_repeated_matrix():
    state = run_to(BUILTINS["repeated"](), 6)
    k = transform_rhs(state.passage, "c")
    cons = consistency_constraints(state, k)
    assert len(cons) == 6
    for i, f in enumerate(cons, start=1):
        assert form_terms(f) == {("c", 0): -F1, ("c", i): F1}


# -- homogeneous solutions ----------------------------------------------------


def test_homogeneous_band_alternates_one_parameter():
    state = run_to(BUILTINS["bidiag"](), 6)
    xh = homogeneous_solution(state, 7)
    assert xh.free_columns == [0]
    for j, expect in enumerate(BIDIAG_XH):
        assert form_terms(xh.entry(j)) == expect
    assert form_terms(xh.entry(7)) == {("t", 0): Fraction(-1)}


def test_homogeneous_pde_prefix():
    state = run_to(BUILTINS["pde"](), 9)
    xh = homogeneous_solution(state, 10)
    assert xh.free_columns == [0, 1, 2, 3, 6, 10]
    for j, expect in enumerate(PDE_XH_PREFIX):
        assert form_terms(xh.entry(j)) == expect


def test_homogeneous_identity_prefix_has_no_parameters():
    rows = mk_rows(RATIONAL, [{0: F1}, {1: F1}, {2: F1}])
    state = run_to(make_explicit(RATIONAL, rows), 2)
    xh = homogeneous_solution(state, 2)
    assert xh.free_columns == []
    assert all(xh.entry(j).is_zero() for j in range(3))


def test_parameter_assignment_is_order_preserving():
    state = run_to(BUILTINS["fulkerson"](), 6)
    xh = homogeneous_solution(state, 12)
    free = [j for j in range(13) if j not in state.pivots]
    assert xh.free_columns == free
    for idx, col in enumerate(free):
        assert form_terms(xh.entry(col)) == {("t", idx): F1}


# -- particular and general solutions -----------------------------------------


def test_particular_band():
    state = run_to(BUILTINS["bidiag"](), 6)
    k = transform_rhs(state.passage, "s")
    xp = particular_solution(state, k)
    assert xp.horizon == 7
    assert xp.entry(0).is_zero()
    for j in range(1, 4):
        assert form_terms(xp.entry(j)) == BIDIAG_K[j - 1]


def test_particular_fulkerson_pivot_columns():
    state = run_to(BUILTINS["fulkerson"](), 12)
    k = transform_rhs(state.passage, "c")
    xp = particular_solution(state, k, 12)
    for j in range(13):
        expect = FULKERSON_XP.get(j, {})
        assert form_terms(xp.entry(j)) == expect
    assert xp.entry(11).is_zero()


def test_particular_zero_rhs_is_zero():
    state = run_to(BUILTINS["fulkerson"](), 6)
    k = transform_rhs(state.passage, [])
    xp = particular_solution(state, k, 12)
    assert all(xp.entry(j).is_zero() for j in range(13))


def test_general_band_closed_form_prefix():
    state = run_to(BUILTINS["bidiag"](), 6)
    k = transform_rhs(state.passage, "s")
    res = general_solution(state, k, 6)
    for j, expect in enumerate(BIDIAG_GENERAL):
        assert form_terms(res.general.entry(j)) == expect
    assert res.constraints == []
    assert res.deficiency_over_horizon == 1
    assert res.horizon == 6


def test_general_zero_rhs_equals_homogeneous():
    state = run_to(BUILTINS["fulkerson"](), 6)
    k = transform_rhs(state.passage, [])
    res = general_solution(state, k, 12)
    xh = homogeneous_solution(state, 12)
    for j in range(13):
        assert res.general.entry(j) == xh.entry(j)


def _assert_general_is_particular_plus_homogeneous(state, horizon):
    k = transform_rhs(state.passage, "c")
    res = general_solution(state, k, horizon)
    general = res.general
    xp = particular_solution(state, k, horizon)
    xh = homogeneous_solution(state, horizon)
    floor = certified_floor(state)
    for j in range(horizon + 1):
        assert general.entry(j) == xp.entry(j) + xh.entry(j)
        expect = (
            "certified" if floor is not None and j < floor
            else "provisional at stage %d" % state.stage
        )
        assert general.provenance(j) == xh.provenance(j) == xp.provenance(j) == expect
    assert general.free_columns == xh.free_columns
    pivots_below = sum(1 for c in state.pivots if c <= horizon)
    assert res.horizon == horizon
    assert res.deficiency_over_horizon == len(general.free_columns)
    assert res.deficiency_over_horizon == horizon + 1 - pivots_below


@pytest.mark.parametrize("name", ["bidiag", "repeated", "fulkerson", "pde"])
def test_general_is_particular_plus_homogeneous_on_builtins(name):
    _assert_general_is_particular_plus_homogeneous(run_to(BUILTINS[name](), 30), 35)


@settings(max_examples=100, deadline=None)
@given(dict_matrices())
def test_general_is_particular_plus_homogeneous(case):
    p, dicts = case
    F = field_for(p)
    state = run_to(make_explicit(F, mk_rows(F, dicts)), len(dicts) - 1)
    for horizon in range(13):
        _assert_general_is_particular_plus_homogeneous(state, horizon)
    with pytest.raises(ValueError, match="horizon"):
        general_solution(state, transform_rhs(state.passage, "c"), -1)


def test_solutions_need_rightmost_pivots():
    # leftmost pivots leave free columns right of a pivot, beyond the horizon
    state = EliminationState(RATIONAL, "lps")
    for k in range(4):
        step(state, BUILTINS["bidiag"]().row_at(k))
    k = transform_rhs(state.passage, "c")
    with pytest.raises(ValueError):
        homogeneous_solution(state, 3)
    with pytest.raises(ValueError):
        general_solution(state, k, 3)


def test_deficiency_matches_uncovered_columns():
    for name, stage, horizon in [("bidiag", 8, 8), ("fulkerson", 8, 12), ("pde", 9, 13)]:
        state = run_to(BUILTINS[name](), stage)
        k = transform_rhs(state.passage, "c")
        res = general_solution(state, k, horizon)
        covered = sum(1 for r in state.rows if not r.is_zero() and r.maxs <= horizon)
        assert res.deficiency_over_horizon == horizon + 1 - covered
        assert len(res.general.free_columns) == res.deficiency_over_horizon


def test_general_solution_checks_its_inputs():
    # a negative horizon, which once gave a solution of deficiency 0, and a
    # k of another length than the rows, once an IndexError from inside,
    # are rejected at the boundary
    state = run_to(BUILTINS["bidiag"](), 3)
    k = transform_rhs(state.passage, "c")
    for horizon in (-1, -5):
        with pytest.raises(ValueError, match="horizon must be >= 0, got %d" % horizon):
            general_solution(state, k, horizon)
    for forms in (k[:3], k + k[:1], []):
        with pytest.raises(ValueError, match="k holds %d forms for 4 rows" % len(forms)):
            general_solution(state, forms, 3)
    assert general_solution(state, k, 0).deficiency_over_horizon == 1


@pytest.mark.parametrize("rhs", [5, 2.5, None, {0: 1}, object()],
                         ids=["int", "float", "none", "dict", "object"])
def test_transform_rhs_rejects_an_rhs_of_another_type(rhs):
    # once an AttributeError (no __getitem__) or a TypeError from inside;
    # now a TypeError naming the rhs type
    passage = run_to(BUILTINS["bidiag"](), 3).passage
    with pytest.raises(TypeError, match="rhs is a %s, not" % type(rhs).__name__):
        transform_rhs(passage, rhs)


# -- sequences ----------------------------------------------------------------


def test_sequence_entry_beyond_horizon_raises():
    state = run_to(BUILTINS["bidiag"](), 6)
    xh = homogeneous_solution(state, 5)
    with pytest.raises(IndexOutOfRange):
        xh.entry(6)
    with pytest.raises(IndexOutOfRange):
        xh.entry(-1)


def test_provenance_provisional_without_certificate():
    state = run_to(BUILTINS["bidiag"](), 6)
    xh = homogeneous_solution(state, 4)
    assert xh.provenance(0) == "provisional at stage 6"
    assert xh.provenance(4) == "provisional at stage 6"
    for j in (-1, 5):
        with pytest.raises(IndexOutOfRange):
            xh.provenance(j)


def test_provenance_certified_with_floor():
    m = BUILTINS["bidiag"]()
    m.certificate = PivotFloor.affine(1, 1)
    state = run_to(m, 6)
    xh = homogeneous_solution(state, 6)
    # floor(6) = 7: every column below 7 is final
    assert all(xh.provenance(j) == "certified" for j in range(7))
    wide = homogeneous_solution(state, 8)
    assert wide.provenance(6) == "certified"
    assert wide.provenance(7) == "provisional at stage 6"
    assert wide.provenance(8) == "provisional at stage 6"
    with pytest.raises(IndexOutOfRange):
        wide.provenance(9)


@pytest.mark.parametrize("bad", [1.5, 2.0, "2", None, Fraction(1)])
def test_indices_that_are_not_integers_raise_type_error(bad):
    # a float index once answered silently (entry(1.5) the zero form,
    # entry(2.0) x_2, certified_stable "provisional"), or failed on a slice
    state = run_to(BUILTINS["bidiag"](), 5)
    general = general_solution(state, transform_rhs(state.passage, "c"), 5).general
    for read in (general.entry, general.provenance, lambda k: prefix_stability(state, k),
                 lambda k: certified_stable(state, k)):
        with pytest.raises(TypeError, match=re.escape(repr(bad))):
            read(bad)
    # a bool is an int, and answers as one
    assert general.entry(True) == general.entry(1) and general.provenance(False)
    assert prefix_stability(state, True) == prefix_stability(state, 1)
    assert certified_stable(state, True) == certified_stable(state, 1)


# -- residual verification ----------------------------------------------------


def test_verify_band_general_solution():
    m = BUILTINS["bidiag"]()
    state = run_to(m, 40)
    k = transform_rhs(state.passage, "s")
    res = general_solution(state, k, 41)
    assert verify_solution(m, res.general, "s", 30, constraints=res.constraints)


def test_verify_fulkerson_under_constraints():
    m = BUILTINS["fulkerson"]()
    state = run_to(m, 12)
    k = transform_rhs(state.passage, "c")
    res = general_solution(state, k, 21)
    assert verify_solution(m, res.general, "c", 12, constraints=res.constraints)
    # without the constraints the residual at a zero row survives
    assert not verify_solution(m, res.general, "c", 12)


def test_verify_pde_homogeneous():
    m = BUILTINS["pde"]()
    state = run_to(m, 20)
    xh = homogeneous_solution(state, 27)
    assert verify_solution(m, xh, [], 20)


def test_verify_rejects_perturbed_entry():
    m = BUILTINS["bidiag"]()
    state = run_to(m, 10)
    k = transform_rhs(state.passage, "s")
    res = general_solution(state, k, 11)
    g = res.general
    bumped = dict(g.entries)
    bumped[2] = g.entry(2) + LinForm.const(RATIONAL, F1)
    broken = SymbolicSequence(g.field, bumped, g.free_columns, g.horizon, g.stage, g.floor)
    assert not verify_solution(m, broken, "s", 8, constraints=res.constraints)


def test_verify_fails_when_horizon_not_covered():
    m = BUILTINS["fulkerson"]()
    state = run_to(m, 12)
    k = transform_rhs(state.passage, "c")
    res = general_solution(state, k, 12)
    # row 11 reaches column 18, beyond the realized entries
    assert not verify_solution(m, res.general, "c", 12, constraints=res.constraints)


def test_verify_gf_system_under_constraints():
    rows = mk_rows(GF7, [{0: 2, 2: 1}, {1: 3}, {0: 2, 1: 3, 2: 1}])
    m = make_explicit(GF7, rows)
    state = run_to(m, 2)
    k = transform_rhs(state.passage, "c")
    res = general_solution(state, k, 2)
    assert len(res.constraints) == 1
    assert verify_solution(m, res.general, "c", 2, constraints=res.constraints)


def test_verify_inconsistent_system_checks_the_rows_it_is_asked_for():
    # the constraints 1 = 0, 2 = 0 and 3 = 0 have no symbol; a random
    # spot-check once crashed on them with max() of an empty sequence
    m = BUILTINS["repeated"]()
    state = run_to(m, 3)
    rhs = [1, 2, 3, 4]
    res = general_solution(state, transform_rhs(state.passage, rhs), 3)
    assert [str(c) for c in res.constraints] == ["1", "2", "3"]
    assert verify_solution(m, res.general, rhs, 0, constraints=res.constraints)


def _s(i):
    return LinForm.symbol(RATIONAL, "s", i)


def _lin(*pairs):
    return form_combination(RATIONAL, [(Fraction(lam), f) for lam, f in pairs])


def test_reduce_modulo_constraints_that_share_a_lead():
    # s_0 = ((s_1 + s_0) - (s_1 - s_0)) / 2 lies in their span
    cons = [_lin((1, _s(1)), (-1, _s(0))), _lin((1, _s(1)), (1, _s(0)))]
    assert _reduce_modulo(_s(0), _leads(cons)).is_zero()
    assert not _reduce_modulo(_s(2), _leads(cons)).is_zero()
    # a constraint in the span of earlier ones adds no lead
    assert len(_leads(cons + [_lin((2, _s(1)))])) == 2


def test_verify_accepts_constraints_that_share_a_lead():
    # the one row x_0 = s_0 with x_0 = 0 leaves the residual -s_0
    m = make_explicit(RATIONAL, [mk_row(RATIONAL, {0: F1})])
    x = SymbolicSequence(RATIONAL, {}, [], 0, 0, None)
    cons = [_lin((1, _s(1)), (-1, _s(0))), _lin((1, _s(1)), (1, _s(0)))]
    assert verify_solution(m, x, "s", 0, constraints=cons)
    assert not verify_solution(m, x, "s", 0, constraints=cons[:1])
    assert not verify_solution(m, x, "s", 0)


def test_numeric_instance_agrees_with_symbolic_pipeline(rng):
    # build a consistent numeric RHS from a known solution, then check that
    # the symbolic general solution verifies against it numerically
    rows = mk_rows(
        RATIONAL,
        [
            {0: F1, 3: 2 * F1},
            {1: F1, 2: -F1},
            {0: F1, 1: F1, 2: -F1, 3: 2 * F1},
            {4: 5 * F1},
        ],
    )
    m = make_explicit(RATIONAL, rows)
    x0 = [Fraction(rng.randint(-4, 4)) for _ in range(5)]
    c = [sum((v * x0[j] for j, v in r.support), Fraction(0)) for r in (m.row_at(i) for i in range(4))]
    state = run_to(m, 3)
    k = transform_rhs(state.passage, c)
    res = general_solution(state, k, 4)
    assert verify_solution(m, res.general, c, 3, constraints=res.constraints)


def test_residual_reduction_agrees_with_sympy():
    sympy = pytest.importorskip("sympy")
    m = BUILTINS["fulkerson"]()
    state = run_to(m, 6)
    k = transform_rhs(state.passage, "c")
    res = general_solution(state, k, 12)

    syms = {}

    def to_sympy(form):
        expr = sympy.Rational(form.constant)
        for (ns, idx), v in form.terms.items():
            s = syms.setdefault((ns, idx), sympy.Symbol("%s_%d" % (ns, idx)))
            expr += sympy.Rational(v) * s
        return expr

    constraint_exprs = [to_sympy(f) for f in res.constraints]
    solved = sympy.solve(constraint_exprs, dict=True)
    assert len(solved) == 1
    for i in range(7):
        row = m.row_at(i)
        residual = -sympy.Symbol("c_%d" % i)
        if ("c", i) in syms:
            residual = -syms[("c", i)]
        for j, v in row.support:
            residual += sympy.Rational(v) * to_sympy(res.general.entry(j))
        assert sympy.simplify(residual.subs(solved[0])) == 0
