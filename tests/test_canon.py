from fractions import Fraction

import pytest

from omegagj import (
    BUILTINS,
    EliminationState,
    RATIONAL,
    is_lref,
    is_lrrf,
    is_qhf,
    reorder_prefix,
    run_to,
    step,
    verify_row_equivalence,
)
from fixtures import FULKERSON_INPUT, FULKERSON_REDUCED, PDE_QHF
from oracles import (
    NonIncreasingLengths,
    dense_reduce,
    fulkerson_recurrence,
    is_hermite_basis,
    is_lref_dict,
    is_lrrf_dict,
    is_uref_dict,
    is_urrf_dict,
)
from util import mk_row, mk_rows, random_dict_rows, rows_dicts

F1 = Fraction(1)


def test_lrrf_accepts_reduced_prefixes():
    state = run_to(BUILTINS["fulkerson"](), 6)
    report = is_lrrf(state.rows)
    assert report and report.holds and report.witness is None
    assert report.form == "lrrf"


def test_lrrf_witness_points_at_offender():
    rows = mk_rows(RATIONAL, [{0: F1, 1: 2 * F1}])
    report = is_lrrf(rows)
    assert not report
    assert report.witness == (0, 1)  # rightmost coefficient is 2, not 1
    rows = mk_rows(RATIONAL, [{1: F1}, {1: 3 * F1, 2: F1}])
    report = is_lrrf(rows)
    assert not report and report.witness == (1, 1)


def test_lref_checks_strict_length_increase():
    rows = mk_rows(RATIONAL, [{1: F1}, {}, {0: F1, 3: F1}])
    assert is_lref(rows)
    rows = mk_rows(RATIONAL, [{3: F1}, {0: F1, 3: F1}])
    report = is_lref(rows)
    assert not report and report.witness == (1, 3)


def test_qhf_combines_both_conditions():
    q = mk_rows(RATIONAL, PDE_QHF)
    assert is_qhf(q)
    engine_order = run_to(BUILTINS["pde"](), 9).rows
    assert is_lrrf(engine_order)
    assert not is_lref(engine_order)
    assert not is_qhf(engine_order)


def test_upper_mirrors_on_leftmost_run():
    m = BUILTINS["bidiag"]()
    state = EliminationState(RATIONAL, "lps")
    for k in range(6):
        step(state, m.row_at(k))
    assert is_urrf_dict(rows_dicts(state.rows))
    assert is_uref_dict(rows_dicts(state.rows))
    assert not is_lrrf(state.rows)
    assert not is_urrf_dict([{0: 2 * F1}])
    assert not is_uref_dict([{1: F1}, {0: F1}])


def test_hermite_basis_predicate():
    nonzero = [d for d in PDE_QHF if d]
    assert is_hermite_basis(nonzero)
    # the engine order is reduced but not sorted by length
    assert not is_hermite_basis(rows_dicts(run_to(BUILTINS["pde"](), 9).rows))
    # swapped lengths break it
    assert not is_hermite_basis(list(reversed(nonzero)))
    # a later row with support on an earlier rightmost column breaks it
    assert not is_hermite_basis([{2: F1}, {2: F1, 5: F1}])
    # so does a rightmost coefficient other than one
    assert not is_hermite_basis([{2: F1}, {5: 2 * F1}])


def test_fulkerson_recurrence_rebuilds_basis():
    even = [FULKERSON_INPUT[0], FULKERSON_INPUT[2], FULKERSON_INPUT[4]]
    even.append({3: F1, 6: F1, 11: F1, 12: F1})  # next even input row
    built = fulkerson_recurrence(even)
    assert built == [d for d in FULKERSON_REDUCED if d]


def test_fulkerson_recurrence_rejects_bad_order():
    with pytest.raises(NonIncreasingLengths):
        fulkerson_recurrence([FULKERSON_INPUT[2], FULKERSON_INPUT[0]])
    with pytest.raises(NonIncreasingLengths):
        fulkerson_recurrence([{}])


def test_verify_row_equivalence_and_witnessed_failure():
    m = BUILTINS["fulkerson"]()
    state = run_to(m, 6)
    assert verify_row_equivalence(state.passage, m, state.rows, 6)
    tampered = list(state.rows)
    tampered[2] = mk_row(RATIONAL, {2: -F1, 5: F1, 6: F1, 7: F1})
    assert not verify_row_equivalence(state.passage, m, tampered, 6)


def test_verify_row_equivalence_needs_every_row_through_horizon():
    m = BUILTINS["pde"]()
    state = run_to(m, 9)
    assert verify_row_equivalence(passage=state.passage, matrix=m, out_rows=state.rows, horizon=9)
    # missing rows are not evidence: empty or short lists must not pass
    assert not verify_row_equivalence([], m, [], 9)
    assert not verify_row_equivalence(state.passage[:5], m, state.rows[:5], 9)
    assert not verify_row_equivalence(state.passage[:5], m, state.rows, 9)
    assert not verify_row_equivalence(state.passage, m, state.rows[:9], 9)
    assert verify_row_equivalence(state.passage, m, state.rows, 4)
    assert not verify_row_equivalence(state.passage, m, state.rows, 10)


def test_form_predicates_agree_with_dict_oracles(rng):
    for trial in range(60):
        p = 7 if trial % 2 else None
        dicts = random_dict_rows(rng, rng.randint(1, 8), 12, 4, p)
        reduced, _, _ = dense_reduce(dicts, p)
        field = RATIONAL if p is None else __import__("omegagj").Field.gf(7)
        as_rows = mk_rows(field, reduced)
        assert bool(is_lrrf(as_rows)) == is_lrrf_dict(reduced, p)
        assert bool(is_lref(as_rows)) == is_lref_dict(reduced)
        assert bool(is_qhf(as_rows)) == (
            is_lrrf_dict(reduced, p) and is_lref_dict(reduced)
        )
        perm, q = reorder_prefix(as_rows)
        assert is_qhf(q)
