from fractions import Fraction

import pytest

from omegagj import (
    BUILTINS,
    CertificateViolation,
    EliminationState,
    IndexOutOfRange,
    PivotFloor,
    RATIONAL,
    ReorderState,
    certified_stable,
    dense_reduce,
    extended_run,
    make_explicit,
    prefix_stability,
    run_to,
    step,
)
from fixtures import PDE_PERMUTATION, PDE_QHF, PDE_QHF_PASSAGE
from oracles import ReorderReference
from util import mk_rows, rows_dicts


def test_reorder_sorts_contents_and_fixes_zero_slots():
    rows = mk_rows(
        RATIONAL,
        [{7: Fraction(1)}, {}, {2: Fraction(1)}, {4: Fraction(1)}, {}],
    )
    rs = extended_run(make_explicit(RATIONAL, rows), 4)
    assert rs.permutation == [2, 1, 3, 0, 4]
    assert rows_dicts(rs.q_rows) == [
        {2: Fraction(1)},
        {},
        {4: Fraction(1)},
        {7: Fraction(1)},
        {},
    ]
    assert rs.q_rows[1].is_zero() and rs.q_rows[4].is_zero()


def test_reorder_is_content_permutation():
    rows = mk_rows(RATIONAL, [{5: Fraction(2)}, {1: Fraction(3)}])
    rs = extended_run(make_explicit(RATIONAL, rows), 1)
    assert rs.permutation == [1, 0]
    assert sorted(map(str, rs.q_rows)) == sorted(map(str, rs.base.rows))
    assert rows_dicts(rs.q_rows) == [{1: Fraction(1)}, {5: Fraction(1)}]


def test_extended_run_pde_qhf_prefix():
    rs = extended_run(BUILTINS["pde"](), 9)
    assert rs.stage == 9
    assert rs.permutation == PDE_PERMUTATION
    assert rows_dicts(rs.q_rows) == PDE_QHF
    assert rows_dicts(rs.q_passage) == PDE_QHF_PASSAGE
    assert rs.last_changed == [0, 1, 2, 5, 5, 5, 9, 9, 9, 9]


def test_extended_run_reorders_slot_level_change_log():
    rs = extended_run(BUILTINS["pde"](), 9)
    # the change log counts reorder moves, so it dominates the engine log
    assert prefix_stability(rs, 6) == 9
    assert prefix_stability(rs.base, 6) == 6


def test_qhf_prefix_stability_values():
    rs = extended_run(BUILTINS["pde"](), 9)
    assert prefix_stability(rs, 0) == 0
    assert prefix_stability(rs, 3) == 5
    assert prefix_stability(rs, 6) == 9
    assert prefix_stability(rs, 9) == 9


def test_qhf_prefix_stability_on_stable_matrix():
    rs = extended_run(BUILTINS["bidiag"](), 8)
    # lengths arrive in increasing order: nothing ever moves
    assert rs.permutation == list(range(9))
    for k in range(9):
        assert prefix_stability(rs, k) == k


def test_qhf_prefix_stability_bounds():
    rs = extended_run(BUILTINS["pde"](), 5)
    with pytest.raises(IndexOutOfRange):
        prefix_stability(rs, 6)
    with pytest.raises(IndexOutOfRange):
        prefix_stability(rs, -1)


@pytest.mark.parametrize("name", ["bidiag", "repeated", "fulkerson", "pde"])
def test_one_shot_state_agrees_with_staged_run(name):
    # the one-shot dense reference against both the plain and the reordering run
    rows, passage, history = dense_reduce(rows_dicts(BUILTINS[name]().top_submatrix(9)))
    staged = run_to(BUILTINS[name](), 9)
    extended = extended_run(BUILTINS[name](), 9).base
    for state in (staged, extended):
        assert rows_dicts(state.rows) == rows
        assert rows_dicts(state.passage) == passage
        assert state.pivot_history == history
        assert state.pivots == {c: i for i, c in enumerate(history) if c is not None}
        assert state.stage == 9


def test_seeded_run_validates_floor():
    m = BUILTINS["bidiag"]()
    m.certificate = PivotFloor.affine(1, 1)
    assert certified_stable(extended_run(m, 9).base, 8) == "certified"

    bad = BUILTINS["bidiag"]()
    bad.certificate = PivotFloor.affine(1, 5)
    with pytest.raises(CertificateViolation) as info:
        extended_run(bad, 9)
    assert (info.value.stage, info.value.column, info.value.floor) == (1, 2, 5)


def test_extended_run_rejects_leftmost_strategy():
    # leftmost pivots need not produce distinct rightmost indices, so the
    # length reordering is undefined there
    with pytest.raises(ValueError):
        ReorderState(EliminationState(RATIONAL, "lps"))


@pytest.mark.parametrize("name", ["bidiag", "repeated", "fulkerson", "pde"])
def test_change_log_matches_reference_on_builtins(name):
    # the one-bisection log against a full re-sort and compare at every stage
    m = BUILTINS[name]()
    state = EliminationState(m.field)
    rs = ReorderState(state)
    ref = ReorderReference()
    for n in range(41):
        step(state, m.row_at(n))
        rs.record()
        ref.record(n, rows_dicts(state.rows), rows_dicts(state.passage))
        assert rs.last_changed == ref.last_changed
        # the reorder reads the QHF order off the pivot table: every nonzero
        # row ends at its own pivot column
        for i, r in enumerate(state.rows):
            if not r.is_zero():
                assert r.maxs == state.pivot_history[i]
                assert state.pivots[r.maxs] == i
    assert rs.permutation == ref.permutation
    assert rows_dicts(rs.q_rows) == ref.q_rows
    assert rows_dicts(rs.q_passage) == ref.q_passage
    assert [prefix_stability(rs, k) for k in range(41)] == [
        ref.drop_stability(k) for k in range(41)
    ]
