from fractions import Fraction

import pytest

from omegagj import (
    BUILTINS,
    CertificateViolation,
    DuplicateLength,
    IndexOutOfRange,
    PivotFloor,
    RATIONAL,
    Row,
    dense_reduce,
    extended_run,
    prefix_stability,
    qhf_prefix_stability,
    reorder_prefix,
    run_to,
)
from fixtures import PDE_PERMUTATION, PDE_QHF, PDE_QHF_PASSAGE
from util import mk_rows, rows_dicts


def test_reorder_prefix_sorts_contents_and_fixes_zero_slots():
    rows = mk_rows(
        RATIONAL,
        [{7: Fraction(1)}, {}, {2: Fraction(1)}, {4: Fraction(1)}, {}],
    )
    perm, q = reorder_prefix(rows)
    assert perm == [2, 1, 3, 0, 4]
    assert rows_dicts(q) == [
        {2: Fraction(1)},
        {},
        {4: Fraction(1)},
        {7: Fraction(1)},
        {},
    ]
    assert q[1].is_zero() and q[4].is_zero()


def test_reorder_prefix_is_content_permutation():
    rows = mk_rows(RATIONAL, [{5: Fraction(2)}, {1: Fraction(3)}])
    perm, q = reorder_prefix(rows)
    assert sorted(map(str, q)) == sorted(map(str, rows))
    assert sorted(perm) == [0, 1]


def test_reorder_prefix_empty_and_duplicates():
    assert reorder_prefix([]) == ([], [])
    rows = mk_rows(RATIONAL, [{3: Fraction(1)}, {1: Fraction(2), 3: Fraction(5)}])
    with pytest.raises(DuplicateLength):
        reorder_prefix(rows)


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
    assert qhf_prefix_stability(rs, 0) == 0
    assert qhf_prefix_stability(rs, 3) == 5
    assert qhf_prefix_stability(rs, 6) == 9
    assert qhf_prefix_stability(rs, 9) == 9


def test_qhf_prefix_stability_on_stable_matrix():
    rs = extended_run(BUILTINS["bidiag"](), 8)
    # lengths arrive in increasing order: nothing ever moves
    assert rs.permutation == list(range(9))
    for k in range(9):
        assert qhf_prefix_stability(rs, k) == k


def test_qhf_prefix_stability_accepts_raw_history():
    history = [[3], [3, 5], [2, 5, 9]]  # prefix max dropped at stage 2
    assert qhf_prefix_stability(history, 0) == 2
    assert qhf_prefix_stability(history, 1) == 1
    history = [None, None, [2, 5, 9], [2, 5, 9], [1, 5, 9]]
    assert qhf_prefix_stability(history, 0) == 4
    assert qhf_prefix_stability(history, 1) == 2


def test_qhf_prefix_stability_bounds():
    rs = extended_run(BUILTINS["pde"](), 5)
    with pytest.raises(IndexOutOfRange):
        qhf_prefix_stability(rs, 6)
    with pytest.raises(IndexOutOfRange):
        qhf_prefix_stability(rs, -1)
    with pytest.raises(IndexOutOfRange):
        qhf_prefix_stability([[1]], 3)


@pytest.mark.parametrize("name", ["bidiag", "repeated", "fulkerson", "pde"])
def test_one_shot_state_agrees_with_staged_run(name):
    # the one-shot dense reference against both the plain and the seeded run
    rows, passage, history = dense_reduce(rows_dicts(BUILTINS[name]().top_submatrix(9)))
    staged = run_to(BUILTINS[name](), 9)
    seeded = extended_run(BUILTINS[name](), 9, oracle_stages=True).base
    for state in (staged, seeded):
        assert rows_dicts(state.rows) == rows
        assert rows_dicts(state.passage) == passage
        assert state.pivot_history == history
        assert state.pivots == {c: i for i, c in enumerate(history) if c is not None}
        assert state.stage == 9


@pytest.mark.parametrize("seed", [True, 0, 4, 9])
def test_seeded_run_reproduces_incremental_view(seed):
    plain = extended_run(BUILTINS["pde"](), 9)
    seeded = extended_run(BUILTINS["pde"](), 9, oracle_stages=seed)
    assert seeded.q_rows == plain.q_rows
    assert seeded.q_passage == plain.q_passage
    assert seeded.permutation == plain.permutation
    assert seeded.base.rows == plain.base.rows
    assert seeded.base.passage == plain.base.passage


def test_seeded_run_reports_conservative_stability():
    seeded = extended_run(BUILTINS["pde"](), 9, oracle_stages=True)
    # stages before the seed have no history: every candidate floors at 9
    assert [qhf_prefix_stability(seeded, k) for k in range(10)] == [9] * 10
    assert seeded.m_history[:9] == [None] * 9
    assert seeded.m_history[9] is not None


def test_seeded_run_validates_floor():
    m = BUILTINS["bidiag"]()
    m.certificate = PivotFloor.affine(1, 1)
    assert extended_run(m, 9, oracle_stages=True).base.validated_through == 9

    bad = BUILTINS["bidiag"]()
    bad.certificate = PivotFloor.affine(1, 5)
    with pytest.raises(CertificateViolation) as info:
        extended_run(bad, 9, oracle_stages=True)
    assert (info.value.stage, info.value.column, info.value.floor) == (1, 2, 5)


def test_extended_run_rejects_leftmost_strategy():
    # leftmost pivots need not produce distinct rightmost indices, so the
    # length reordering is undefined there
    with pytest.raises(ValueError):
        extended_run(BUILTINS["bidiag"](), 4, strategy="lps")
