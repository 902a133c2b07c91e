import random
from fractions import Fraction

import pytest
from hypothesis import given, settings

from omegagj import (
    BUILTINS,
    EliminationState,
    Field,
    IndexOutOfRange,
    LinForm,
    PivotFloor,
    RATIONAL,
    consistency_constraints,
    general_solution,
    homogeneous_solution,
    make_explicit,
    particular_solution,
    run_to,
    step,
    transform_rhs,
    verify_solution,
)
from omegagj.engine import certified_floor
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


@pytest.mark.parametrize(
    "rhs", ["c", [1, 2, 3], lambda i: i], ids=["symbolic", "explicit", "callable"]
)
def test_transform_rhs_refuses_a_passage_free_state(rhs):
    state = run_to(BUILTINS["bidiag"](), 6, passage=False)
    with pytest.raises(ValueError, match="passage"):
        transform_rhs(state.passage, rhs)


def test_transform_rhs_symbolic_fulkerson():
    state = run_to(BUILTINS["fulkerson"](), 6)
    k = transform_rhs(state.passage, "c")
    for i, expect in enumerate(FULKERSON_K):
        assert form_terms(k[i]) == expect


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


def test_rhs_in_the_parameter_namespace_is_rejected():
    # its symbols t_i would merge with the homogeneous parameters t_i
    matrix = BUILTINS["bidiag"]()
    state = run_to(matrix, 2)
    with pytest.raises(ValueError, match="reserved"):
        transform_rhs(state.passage, "t")
    x = homogeneous_solution(state, 2)
    with pytest.raises(ValueError, match="reserved"):
        verify_solution(matrix, x, "t", 2)


def test_transform_rhs_mixed_form_values():
    state = run_to(BUILTINS["bidiag"](), 2)
    forms = [LinForm.symbol(RATIONAL, "u", 9), LinForm.zero(RATIONAL), LinForm.zero(RATIONAL)]
    k = transform_rhs(state.passage, lambda i: forms[i])
    assert form_terms(k[2]) == {("u", 9): F1}


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
    for horizon in range(-1, 13):
        _assert_general_is_particular_plus_homogeneous(state, horizon)


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


def test_negative_horizon_has_no_deficiency():
    # a horizon below column 0 covers no column, free or pivot
    state = run_to(BUILTINS["bidiag"](), 3)
    k = transform_rhs(state.passage, "c")
    res = general_solution(state, k, -5)
    assert res.deficiency_over_horizon == 0
    assert res.general.free_columns == [] and res.general.entries == {}


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


# -- residual verification ----------------------------------------------------


def test_verify_band_general_solution():
    m = BUILTINS["bidiag"]()
    state = run_to(m, 40)
    k = transform_rhs(state.passage, "s")
    res = general_solution(state, k, 41)
    assert verify_solution(m, res.general, "s", 30, trials=3, constraints=res.constraints)


def test_verify_fulkerson_under_constraints():
    m = BUILTINS["fulkerson"]()
    state = run_to(m, 12)
    k = transform_rhs(state.passage, "c")
    res = general_solution(state, k, 21)
    assert verify_solution(m, res.general, "c", 12, trials=3, constraints=res.constraints)
    # without the constraints the residual at a zero row survives
    assert not verify_solution(m, res.general, "c", 12)


def test_verify_pde_homogeneous():
    m = BUILTINS["pde"]()
    state = run_to(m, 20)
    xh = homogeneous_solution(state, 27)
    assert verify_solution(m, xh, [], 20, trials=5, rng=random.Random(7))


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


def test_verify_gf_system_with_trials():
    rows = mk_rows(GF7, [{0: 2, 2: 1}, {1: 3}, {0: 2, 1: 3, 2: 1}])
    m = make_explicit(GF7, rows)
    state = run_to(m, 2)
    k = transform_rhs(state.passage, "c")
    res = general_solution(state, k, 2)
    assert len(res.constraints) == 1
    assert verify_solution(
        m, res.general, "c", 2, trials=6, constraints=res.constraints,
        rng=random.Random(11),
    )


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
    assert verify_solution(m, res.general, c, 3, trials=4, constraints=res.constraints)


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
