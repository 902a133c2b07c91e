from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from omegagj import (
    BUILTINS,
    CertificateViolation,
    EliminationState,
    Field,
    IndexOutOfRange,
    PivotCollision,
    PivotFloor,
    RATIONAL,
    ReorderState,
    Row,
    certified_stable,
    extended_run,
    make_explicit,
    prefix_stability,
    run_to,
    step,
)
from omegagj.cli import parse_spec
from omegagj.engine import certified_floor
from omegagj.rows import ScaledRow
from fixtures import (
    FULKERSON_NULLSPACE,
    FULKERSON_PASSAGE,
    FULKERSON_REDUCED,
    PDE_REDUCED,
    bidiag_lps_row,
    bidiag_passage_row,
    bidiag_reduced_row,
)
from oracles import ReorderReference, dense_reduce
from util import (
    GF_PRIME,
    dict_matrices,
    field_for,
    gf_band_text,
    mk_row,
    mk_rows,
    row_dict,
    rows_dicts,
)

GF7 = Field.gf(7)


def test_state_stage_starts_before_first_row():
    state = EliminationState(RATIONAL)
    assert state.stage == -1
    with pytest.raises(ValueError):
        EliminationState(RATIONAL, "downhill")


def test_step_normalizes_and_registers_pivot():
    state = EliminationState(RATIONAL)
    step(state, mk_row(RATIONAL, {0: Fraction(2), 3: Fraction(4)}))
    assert row_dict(state.rows[0]) == {0: Fraction(1, 2), 3: Fraction(1)}
    assert state.pivots == {3: 0}
    assert state.pivot_history == [3]
    assert row_dict(state.passage[0]) == {0: Fraction(1, 4)}


def test_step_zero_row_keeps_passage_combination():
    rows = mk_rows(RATIONAL, [{0: Fraction(1)}, {0: Fraction(3)}])
    state = run_to(make_explicit(RATIONAL, rows), 1)
    assert state.rows[1].is_zero()
    assert state.pivot_history == [0, None]
    assert row_dict(state.passage[1]) == {0: Fraction(-3), 1: Fraction(1)}


def test_gaussian_reduce_uses_original_entries():
    state = run_to(BUILTINS["bidiag"](), 2)
    incoming = mk_row(RATIONAL, {1: Fraction(2), 3: Fraction(5)})
    step(state, incoming)
    # pivots 1, 2, 3 belong to rows 0, 1, 2, so the incoming row loses 2 * row 0
    # and 5 * row 2 = 2 * (e_0 + e_1) + 5 * (e_0 + e_3); -7 e_0 is left to pivot
    assert row_dict(state.rows[3]) == {0: Fraction(1)}
    assert row_dict(state.passage[3]) == {
        0: Fraction(1), 1: Fraction(-5, 7), 2: Fraction(5, 7), 3: Fraction(-1, 7)
    }


def test_bidiag_run_matches_closed_forms():
    state = run_to(BUILTINS["bidiag"](), 6)
    assert state.stage == 6
    for k in range(7):
        assert row_dict(state.rows[k]) == bidiag_reduced_row(k)
        assert row_dict(state.passage[k]) == bidiag_passage_row(k)
    assert state.pivots == {k + 1: k for k in range(7)}
    assert state.last_changed == list(range(7))


def test_fulkerson_stage_six_state():
    state = run_to(BUILTINS["fulkerson"](), 6)
    assert rows_dicts(state.rows) == FULKERSON_REDUCED
    assert rows_dicts(state.passage) == FULKERSON_PASSAGE
    assert [i for i, r in enumerate(state.rows) if r.is_zero()] == [1, 3, 5]
    # passage rows at the vanished rows: the left nullspace basis
    assert [row_dict(state.passage[w]) for w in (1, 3, 5)] == FULKERSON_NULLSPACE


def test_pde_run_matches_slot_order_and_change_log():
    state = run_to(BUILTINS["pde"](), 9)
    assert rows_dicts(state.rows) == PDE_REDUCED
    assert state.last_changed == [0, 1, 2, 3, 5, 5, 6, 9, 9, 9]
    assert prefix_stability(state, 6) == 6
    assert prefix_stability(state, 9) == 9


def test_jordan_steps_preserve_earlier_rightmost_indices():
    m = BUILTINS["pde"]()
    state = EliminationState(m.field)
    seen = []
    for k in range(12):
        step(state, m.row_at(k))
        for i, prev in enumerate(seen):
            cur = state.rows[i].maxs
            assert cur == prev, "row %d rightmost moved at stage %d" % (i, k)
        seen = [r.maxs for r in state.rows]


def test_lps_run_matches_drift_formula():
    m = BUILTINS["bidiag"]()
    state = EliminationState(RATIONAL, "lps")
    for k in range(5):
        step(state, m.row_at(k))
    n = 5
    for i in range(n):
        assert row_dict(state.rows[i]) == bidiag_lps_row(i, n)
    assert state.rows[0].maxs == n


def test_run_to_over_gf():
    rows = mk_rows(GF7, [{0: 3, 1: 5}, {0: 1, 1: 4}])
    state = run_to(make_explicit(GF7, rows), 1)
    # rightmost pivot: scale by 5^-1 = 3, so (3, 5) becomes (2, 1)
    assert row_dict(state.rows[0]) == {0: 2, 1: 1}
    assert row_dict(state.passage[0]) == {0: 3}
    # (1, 4) = 4 * (2, 1) mod 7, so row 1 vanishes
    assert state.rows[1].is_zero()
    assert row_dict(state.passage[1]) == {0: 2, 1: 1}


def test_prefix_stability_bounds():
    state = run_to(BUILTINS["bidiag"](), 3)
    assert prefix_stability(state, 0) == 0
    with pytest.raises(IndexOutOfRange):
        prefix_stability(state, 4)
    with pytest.raises(IndexOutOfRange):
        prefix_stability(state, -1)


# -- pivot-floor certificates -------------------------------------------------


def bidiag_with_floor(slope, intercept):
    m = BUILTINS["bidiag"]()
    m.certificate = PivotFloor.affine(slope, intercept)
    return m


def test_floor_validates_and_certifies():
    state = run_to(bidiag_with_floor(1, 1), 8)
    assert certified_stable(state, 7) == "certified"
    assert certified_stable(state, 5) == "certified"
    assert certified_stable(state, 8) == "certified"  # row 8 ends at the floor


def test_certification_arrives_with_the_row():
    # bidiag row k ends at column k + 1, its own pivot and the floor of stage k
    m = bidiag_with_floor(1, 1)
    state = EliminationState(m.field, certificate=m.certificate)
    for n in range(7):
        step(state, m.row_at(n))
        for k in range(n + 1):
            assert certified_stable(state, k) == "certified"


def test_row_ending_at_the_floor_is_certified():
    # floor(5) = 6 and row 5 is 0:-1 6:1; column 6 is row 5's own pivot, and
    # every later pivot is at least 6 and unpinned, so it lands right of row 5
    state = run_to(bidiag_with_floor(1, 1), 5)
    assert certified_floor(state) == 6
    assert str(state.rows[5]) == "0:-1 6:1"
    assert certified_stable(state, 5) == "certified"


def test_row_ending_past_the_floor_on_pinned_columns_is_certified():
    # floor(8) = 8 and row 8 is 0:1 9:1: column 9 is past the floor but is
    # row 8's own pivot, so no later pivot (unpinned, at least 8) meets row 8
    m = bidiag_with_floor(1, 0)
    state = run_to(m, 8)
    assert certified_floor(state) == 8
    assert str(state.rows[8]) == "0:1 9:1"
    assert certified_stable(state, 8) == "certified"
    for n in range(9, 41):
        step(state, m.row_at(n))
    assert state.last_changed[:9] == list(range(9))


@pytest.mark.parametrize("strategy, first", [
    ("rps", {1: 1, 2: 1}),  # ends past the floor 1
    ("lps", {0: 1, 1: 1}),  # ends at the floor 1, but pivots at 0
])
def test_row_with_an_unpinned_column_at_the_floor_is_provisional(strategy, first):
    # column 1 is the floor and unpinned, so the later pivot e_1 clears it
    state = EliminationState(RATIONAL, strategy, certificate=PivotFloor(lambda m: 1))
    step(state, mk_row(RATIONAL, first))
    assert certified_stable(state, 0) == "provisional"
    step(state, Row.unit(RATIONAL, 1))
    assert state.last_changed[0] == 1


def test_without_certificate_everything_is_provisional():
    state = run_to(BUILTINS["bidiag"](), 4)
    assert certified_stable(state, 0) == "provisional"


def test_overpromised_floor_raises_before_mutation():
    m = bidiag_with_floor(1, 5)
    state = EliminationState(m.field, certificate=m.certificate)
    step(state, m.row_at(0))
    rows_before = list(state.rows)
    with pytest.raises(CertificateViolation) as info:
        step(state, m.row_at(1))
    assert info.value.stage == 1
    assert info.value.column == 2
    assert info.value.floor == 5
    assert state.rows == rows_before


def test_floor_ignores_zero_rows():
    m = BUILTINS["fulkerson"]()
    m.certificate = PivotFloor.affine(1, 1)
    state = run_to(m, 6)  # zero rows at 1, 3, 5 yield no pivot to check
    assert certified_stable(state, 3) == "certified"
    # floor(6) = 7: rows 0 and 2 end below it; row 4 is 5:-1 8:1 9:1, whose
    # column 9 is its own pivot but whose column 8 is past the floor and
    # unpinned, so a later pivot may still clear it
    assert certified_stable(state, 2) == "certified"
    assert str(state.rows[4]) == "5:-1 8:1 9:1"
    assert 8 not in state.pivots
    assert certified_stable(state, 4) == "provisional"


def test_certified_stable_bounds():
    state = run_to(bidiag_with_floor(1, 1), 3)
    with pytest.raises(IndexOutOfRange):
        certified_stable(state, 4)


def test_certificate_state_is_not_shared_between_runs():
    m = bidiag_with_floor(1, 1)
    long_run = run_to(m, 20)
    assert certified_stable(long_run, 5) == "certified"
    run_to(m, 3)  # a shorter run over the same matrix and certificate
    assert certified_stable(long_run, 5) == "certified"
    assert certified_stable(long_run, 19) == "certified"


@pytest.mark.parametrize("slope", [-1, 0, 1])
@pytest.mark.parametrize("name", sorted(BUILTINS))
def test_certified_prefixes_stay_fixed(name, slope):
    stages, ahead = 20, 20
    # the highest intercept the first stages + ahead pivots keep: a pivot at
    # stage n must clear the promise of every stage m < n
    history = run_to(BUILTINS[name](), stages + ahead).pivot_history
    m = BUILTINS[name]()
    m.certificate = PivotFloor.affine(slope, min(
        (col - slope * k for n, col in enumerate(history) if col is not None
         for k in range(n)), default=stages))
    state = EliminationState(m.field, certificate=m.certificate)
    snapshots, certified = [], []
    for n in range(stages + ahead + 1):
        step(state, m.row_at(n))
        snapshots.append((list(state.rows), list(state.passage)))
        certified.append(sum(1 for k in range(n + 1)
                             if certified_stable(state, k) == "certified"))
    assert any(certified[: stages + 1])
    for n in range(stages + 1):
        k = certified[n]
        rows, passage = snapshots[n]
        for later_rows, later_passage in snapshots[n + 1 : n + ahead + 1]:
            assert later_rows[:k] == rows[:k]
            assert later_passage[:k] == passage[:k]


# -- atomic stages ------------------------------------------------------------


def _h_image(state):
    """The H side of a state: its results other than the passage rows."""
    return (
        list(state.rows),
        dict(state.pivots),
        list(state.pivot_history),
        list(state.last_changed),
        {c: set(ids) for c, ids in state.column_rows.items()},
    )


def _log_image(state):
    """The pending log entries, copied: jordan_update appends to the patch
    list of the last one."""
    return [(list(hits), inv, list(patches)) for hits, inv, patches in state._log]


def _assert_rejected(state, row, exc, match=None):
    """step(state, row) raises exc and leaves the state as it was: first
    with the log pending (H and the log unchanged), then once Q has been
    read and the log replayed (H and Q unchanged)."""
    before = _h_image(state) + (_log_image(state),)
    with pytest.raises(exc, match=match):
        step(state, row)
    assert _h_image(state) + (_log_image(state),) == before
    before = _h_image(state) + (list(state.passage),)
    assert state._log == []
    with pytest.raises(exc, match=match):
        step(state, row)
    assert _h_image(state) + (list(state.passage),) == before
    assert state._log == []


def test_pivot_collision_in_step_leaves_state_unchanged():
    state = run_to(BUILTINS["bidiag"](), 2)
    # a corrupted pivot table: column 5 claims row 0, which does not hold it,
    # so the incoming e_5 still ends at column 5 after reduction
    state.pivots[5] = 0
    _assert_rejected(state, Row.unit(RATIONAL, 5), PivotCollision)


def test_rejected_stage_with_several_hits_leaves_state_unchanged():
    # the incoming rows meet the pivot columns 1 and 2 (rows 0 and 1), so
    # the stage reduces through one combination, and the log entry is
    # appended only after the checks
    state = run_to(BUILTINS["bidiag"](), 3)
    state.pivots[6] = 0  # a corrupted pivot table, as above
    _assert_rejected(state, mk_row(RATIONAL, {1: 2, 2: -1, 6: 3}), PivotCollision)

    # floor 0 through stage 3, then 10: the reduced row ends at 6, below it
    state = EliminationState(RATIONAL, certificate=PivotFloor(lambda m: 0 if m < 3 else 10))
    for k in range(4):
        step(state, BUILTINS["bidiag"]().row_at(k))
    _assert_rejected(state, mk_row(RATIONAL, {1: 2, 2: -1, 6: 3}), CertificateViolation)
    assert certified_floor(state) == 10


def test_pivot_collision_over_gf_leaves_state_unchanged():
    # the replay reduces a packed source row only when a logged stage uses
    # it; a rejected stage logs nothing, so a passage row that is not
    # reduced mod p stays the very object it was
    F = Field.gf(GF_PRIME)
    state = run_to(parse_spec(gf_band_text()).build(), 20)
    i = next(i for i, q in enumerate(state.passage)
             if q.bound >= F.p and not state.rows[i].is_zero())
    stored = state.passage[i]
    col = 10**3
    state.pivots[col] = i
    _assert_rejected(state, Row.unit(F, col), PivotCollision)
    assert state.passage[i] is stored


# a Row with a non-canonical support cannot be built (see test_rows), so the
# one bad row step can still meet is a Row over another field
@pytest.mark.parametrize("bad", [Row.unit(GF7, 0)], ids=["foreign-field"])
def test_step_rejects_non_canonical_row_and_leaves_state_unchanged(bad):
    # checked at the boundary, before any reduction, on a fresh state and
    # after a pivot row 0:1 1:1 that the bad row would otherwise meet
    for seed in ([], [{0: Fraction(1), 1: Fraction(1)}]):
        state = EliminationState(RATIONAL)
        for d in seed:
            step(state, mk_row(RATIONAL, d))
        _assert_rejected(state, bad, ValueError, match="row %d" % len(seed))


# -- column index and oracle agreement ----------------------------------------


def _recomputed_index(rows):
    index = {}
    for i, r in enumerate(rows):
        for c, _ in r.support:
            index.setdefault(c, set()).add(i)
    return index


def _assert_matches_oracle(state, dicts, p, leftmost=False):
    rows, passage, history = dense_reduce(dicts, p, leftmost)
    assert rows_dicts(state.rows) == rows
    assert rows_dicts(state.passage) == passage
    assert state.pivot_history == history


@settings(max_examples=150, deadline=None)
@given(dict_matrices(), st.booleans())
def test_every_step_keeps_index_exact_and_matches_oracle(case, leftmost):
    p, dicts = case
    F = field_for(p)
    state = EliminationState(F, "lps" if leftmost else "rps")
    for k, d in enumerate(dicts):
        step(state, mk_row(F, d))
        assert state.column_rows == _recomputed_index(state.rows)
        _assert_matches_oracle(state, dicts[: k + 1], p, leftmost)
        # the kernels build rows unchecked; the checked constructor must accept them
        for r in state.rows + state.passage:
            Row(F, r.support)


@settings(max_examples=100, deadline=None)
@given(dict_matrices())
def test_seeded_runs_keep_index_exact_and_match_oracle(case):
    p, dicts = case
    F = field_for(p)
    rs = extended_run(make_explicit(F, mk_rows(F, dicts)), len(dicts) - 1)
    assert rs.base.column_rows == _recomputed_index(rs.base.rows)
    _assert_matches_oracle(rs.base, dicts, p)


# -- H over the rationals: ScaledRows with a unit pivot -------------------------


rational_matrices = st.lists(
    st.dictionaries(
        st.integers(0, 11),
        st.fractions(min_value=-5, max_value=5, max_denominator=6).filter(bool),
        max_size=5,
    ),
    min_size=1,
    max_size=10,
)


@settings(max_examples=150, deadline=None)
@given(rational_matrices, st.booleans(), st.none() | st.tuples(st.integers(0, 2), st.integers(-2, 4)))
def test_rational_h_rows_are_canonical_scaled_rows_with_a_unit_pivot(dicts, leftmost, floor):
    # zero rows, non-integral entries and rows a floor rejects all occur;
    # after each stage every H row is a canonical ScaledRow whose pivot
    # numerator is its denominator and equals the dense reference's row
    strategy = "lps" if leftmost else "rps"
    certificate = None if floor is None else PivotFloor.affine(*floor)
    state = EliminationState(RATIONAL, strategy, certificate=certificate)
    for k, d in enumerate(dicts):
        before = list(state.rows)
        try:
            step(state, mk_row(RATIONAL, d))
        except CertificateViolation:
            assert state.rows == before and state.stage == k - 1
            break
        want, _, history = dense_reduce(dicts[: k + 1], None, leftmost)
        assert state.pivot_history == history
        for i, (r, w) in enumerate(zip(state.rows, want)):
            assert type(r) is ScaledRow
            assert type(r.den) is int and r.den > 0
            assert all(type(v) is int and v for _, v in r.nums)
            cols = [c for c, _ in r.nums]
            assert cols == sorted(set(cols))
            assert gcd(r.den, *[v for _, v in r.nums]) == 1
            if history[i] is not None:
                assert dict(r.nums)[history[i]] == r.den
            row = mk_row(RATIONAL, w)
            assert r == row and row == r
        # the engine reads the numerators; the answer is the one the
        # Fraction support gives
        floor_now = certified_floor(state)
        for j in range(k + 1):
            open_cols = floor_now is None or any(
                c >= floor_now and c not in state.pivots for w in want[: j + 1] for c in w)
            assert certified_stable(state, j) == ("provisional" if open_cols else "certified")


# -- Q rebuilt from the stage log ----------------------------------------------


def _replay_matrix(name):
    return parse_spec(gf_band_text()).build() if name == "gf-band" else BUILTINS[name]()


# (matrix, strategy, whether a Jordan patch after stage 10 lands on a row of
# Q already replayed at stage 10); gf-band is over GF(32003)
@pytest.mark.parametrize(
    "name,strategy,patches_replayed",
    [("bidiag", "rps", False), ("pde", "rps", False), ("fulkerson", "lps", True),
     ("gf-band", "rps", False), ("gf-band", "lps", True)],
)
def test_q_read_midway_matches_q_read_once_and_the_oracle(name, strategy, patches_replayed):
    k, n = 10, 30
    m = _replay_matrix(name)
    leftmost = strategy == "lps"
    dicts = [dict(m.row_at(j).support) for j in range(n + 1)]
    state = EliminationState(m.field, strategy)
    for j in range(k + 1):
        step(state, m.row_at(j))
    assert rows_dicts(state.passage) == dense_reduce(dicts[: k + 1], m.field.p, leftmost)[1]
    assert state._log == []
    for j in range(k + 1, n + 1):
        step(state, m.row_at(j))
    assert len(state._log) == n - k
    patched = {i for _, _, patches in state._log for i, _ in patches}
    assert bool(patched & set(range(k + 1))) == patches_replayed
    once = run_to(m, n, strategy)
    assert len(once._log) == n + 1
    assert state.passage == once.passage
    assert rows_dicts(state.passage) == dense_reduce(dicts, m.field.p, leftmost)[1]
    assert state._log == once._log == []


# -- QHF change log -------------------------------------------------------------


@settings(max_examples=150, deadline=None)
@given(dict_matrices())
def test_change_log_matches_reference_after_every_stage(case):
    p, dicts = case
    F = field_for(p)
    state = EliminationState(F)
    rs = ReorderState(state)
    ref = ReorderReference()
    for n, d in enumerate(dicts):
        step(state, mk_row(F, d))
        rs.record()
        ref.record(n, rows_dicts(state.rows), rows_dicts(state.passage))
        assert rs.last_changed == ref.last_changed
        assert rs.permutation == ref.permutation
        assert rows_dicts(rs.q_rows) == ref.q_rows
        assert rows_dicts(rs.q_passage) == ref.q_passage
        for k in range(n + 1):
            assert prefix_stability(rs, k) == ref.drop_stability(k)


def test_record_runs_exactly_once_per_stage():
    state = EliminationState(RATIONAL)
    rs = ReorderState(state)
    step(state, Row.unit(RATIONAL, 3))
    rs.record()
    with pytest.raises(ValueError):
        rs.record()
    assert rs.last_changed == [0]
    step(state, Row.unit(RATIONAL, 1))
    step(state, Row.unit(RATIONAL, 2))
    with pytest.raises(ValueError):
        rs.record()  # stage 1 was never recorded
    with pytest.raises(ValueError):
        ReorderState(EliminationState(RATIONAL, "lps"))
