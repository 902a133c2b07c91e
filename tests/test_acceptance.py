"""End-to-end acceptance checks, one test per shipped guarantee.

Everything here is exact: equality of rational/GF(p) values, never approximate.
"""

from fractions import Fraction

import pytest

from omegagj import (
    BUILTINS,
    CertificateViolation,
    EliminationState,
    PivotFloor,
    certified_stable,
    extended_run,
    general_solution,
    is_lref,
    is_lrrf,
    is_qhf,
    make_explicit,
    prefix_stability,
    run_to,
    step,
    transform_rhs,
    verify_row_equivalence,
)
from omegagj.cli import main
from fixtures import (
    BIDIAG_GENERAL,
    BIDIAG_K,
    BIDIAG_XH,
    FULKERSON_CONSTRAINTS,
    FULKERSON_NULLSPACE,
    FULKERSON_PASSAGE,
    FULKERSON_REDUCED,
    FULKERSON_XP,
    bidiag_lps_row,
    bidiag_passage_row,
    bidiag_reduced_row,
    PDE_QHF,
)
from oracles import (
    dense_reduce,
    fulkerson_recurrence,
    homogeneous_solution,
    matmul_check,
    particular_solution,
    verify_solution,
)
from util import field_for, mk_rows, random_dict_rows, row_dict, rows_dicts

F1 = Fraction(1)


def tsv_section(stdout, label):
    lines = stdout.splitlines()
    body = []
    for line in lines[lines.index("# %s" % label) + 1:]:
        if line.startswith("#"):
            break
        body.append(line)
    return body


def test_1_band_reduction_reproduces_closed_forms(capsys):
    rv = main(
        ["reduce", "bidiag", "--stages", "6", "--strategy", "rps",
         "--emit", "rows,passage"]
    )
    assert rv == 0
    out = capsys.readouterr().out
    rows = tsv_section(out, "rows")
    passage = tsv_section(out, "passage")
    assert len(rows) == len(passage) == 7
    for k in range(7):
        h = bidiag_reduced_row(k)
        q = bidiag_passage_row(k)
        assert rows[k].split("\t") == [str(h.get(j, 0)) for j in range(8)]
        assert passage[k].split("\t") == [str(q.get(j, 0)) for j in range(7)]

    matrix = BUILTINS["bidiag"]()
    state = run_to(matrix, 6, "rps")
    assert rows_dicts(state.rows) == [bidiag_reduced_row(k) for k in range(7)]
    assert rows_dicts(state.passage) == [bidiag_passage_row(k) for k in range(7)]
    assert verify_row_equivalence(state.passage, matrix, state.rows, 6)


def test_2_leftmost_strategy_drifts_unboundedly():
    for n in range(2, 33):
        state = run_to(BUILTINS["bidiag"](), n - 1, "lps")
        assert rows_dicts(state.rows) == [bidiag_lps_row(i, n) for i in range(n)]
        assert state.rows[0].maxs == n


def test_3_fulkerson_prefix_nullspace_and_recurrence():
    matrix = BUILTINS["fulkerson"]()
    state = run_to(matrix, 6)
    assert [i for i, r in enumerate(state.rows[:6]) if r.is_zero()] == [1, 3, 5]
    assert rows_dicts(state.rows) == FULKERSON_REDUCED
    assert rows_dicts(state.passage) == FULKERSON_PASSAGE
    zero_rows = [w for w, r in enumerate(state.rows) if r.is_zero()]
    assert rows_dicts(state.passage[w] for w in zero_rows) == FULKERSON_NULLSPACE

    reps = [row_dict(matrix.row_at(k)) for k in (0, 2, 4)]
    rebuilt = fulkerson_recurrence(reps)
    expected = [d for d in FULKERSON_REDUCED if d]
    assert rebuilt == expected[: len(rebuilt)]
    assert len(rebuilt) == 3


def test_4_derivation_matrix_reorder_and_stability():
    matrix = BUILTINS["pde"]()
    rs = extended_run(matrix, 9)
    assert rows_dicts(rs.q_rows) == PDE_QHF
    assert verify_row_equivalence(rs.q_passage, matrix, rs.q_rows, 9)
    assert prefix_stability(rs, 6) == 9  # Delta_6 of the reordered prefix
    assert is_lrrf(rs.q_rows)
    assert sum(1 for r in rs.q_rows if r.is_zero()) == 2  # nullity 2, rank 8


def test_5_symbolic_solutions_and_residuals():
    # band matrix: transformed RHS, no constraints, alternating kernel,
    # and the closed-form general solution through index 3
    band = BUILTINS["bidiag"]()
    state = run_to(band, 6)
    k = transform_rhs(state.passage, "s")
    assert [dict(k[i].terms) for i in range(3)] == BIDIAG_K[:3]
    res = general_solution(state, k, 6)
    assert res.constraints == []
    xh = homogeneous_solution(state, 6)
    for j, expect in enumerate(BIDIAG_XH[:7]):
        assert dict(xh.entry(j).terms) == expect
    for j, expect in enumerate(BIDIAG_GENERAL):
        assert dict(res.general.entry(j).terms) == expect

    # fulkerson: the three stage-6 constraints and the particular solution
    fulk = BUILTINS["fulkerson"]()
    fstate6 = run_to(fulk, 6)
    cons = general_solution(fstate6, transform_rhs(fstate6.passage, "c"), 12).constraints
    assert [dict(f.terms) for f in cons] == FULKERSON_CONSTRAINTS
    fstate = run_to(fulk, 12)
    fk = transform_rhs(fstate.passage, "c")
    xp = particular_solution(fstate, fk, 12)
    for j in range(12):
        assert dict(xp.entry(j).terms) == FULKERSON_XP.get(j, {})
    assert xp.entry(11).is_zero()
    assert dict(xp.entry(12).terms) == FULKERSON_XP[12]

    # residual oracles
    wide = run_to(band, 40)
    wk = transform_rhs(wide.passage, "s")
    wres = general_solution(wide, wk, 41)
    assert verify_solution(band, wres.general, "s", 30, constraints=wres.constraints)

    fres = general_solution(fstate, fk, 21)
    assert verify_solution(fulk, fres.general, "c", 12, constraints=fres.constraints)

    pde = BUILTINS["pde"]()
    pstate = run_to(pde, 20)
    pxh = homogeneous_solution(pstate, 27)
    assert verify_solution(pde, pxh, [], 20)


def test_6_incremental_reduction_matches_dense_oracle(rng):
    sizes = [rng.randint(2, 10) for _ in range(165)]
    sizes += [rng.randint(11, 22) for _ in range(30)]
    sizes += [rng.randint(23, 40) for _ in range(5)]
    for trial, n in enumerate(sizes):
        p = None if trial % 2 == 0 else 7
        field = field_for(p)
        dicts = random_dict_rows(rng, n, 60, 12, p)
        matrix = make_explicit(field, mk_rows(field, dicts))
        state = EliminationState(field, "rps")
        born_maxs = []
        for stage in range(n):
            step(state, matrix.row_at(stage))
            born_maxs.append(state.rows[stage].maxs)
            ow, opass, ohist = dense_reduce(dicts[: stage + 1], p)
            assert rows_dicts(state.rows) == ow
            assert rows_dicts(state.passage) == opass
            assert state.pivot_history == ohist
            assert is_lrrf(state.rows)
            cols = [r.maxs for r in state.rows if not r.is_zero()]
            assert len(set(cols)) == len(cols)
            assert [r.maxs for r in state.rows] == born_maxs
            assert matmul_check(
                rows_dicts(state.passage), dicts, rows_dicts(state.rows), p
            )


def test_7_canonical_form_equivalence_and_reorder(rng):
    for trial in range(200):
        p = None if trial % 2 == 0 else 7
        field = field_for(p)
        n = rng.randint(2, 12)
        dicts = random_dict_rows(rng, n, 24, 6, p)
        rs = extended_run(make_explicit(field, mk_rows(field, dicts)), n - 1)
        rows = rs.base.rows
        shuffled = list(rows)
        rng.shuffle(shuffled)
        for variant in (rows, shuffled):
            assert bool(is_qhf(variant)) == (
                bool(is_lrrf(variant)) and bool(is_lref(variant))
            )
        assert is_lrrf(rows)
        assert sorted(rs.permutation) == list(range(n))
        assert is_qhf(rs.q_rows)
        for i, r in enumerate(rows):
            if r.is_zero():
                assert rs.q_rows[i].is_zero()
        assert sorted(
            map(sorted, map(dict.items, rows_dicts(rs.q_rows)))
        ) == sorted(map(sorted, map(dict.items, rows_dicts(rows))))


def test_8_pivot_floor_certifies_and_rejects(tmp_path, capsys):
    matrix = BUILTINS["bidiag"]()
    matrix.certificate = PivotFloor.affine(1, 1)
    state = EliminationState(matrix.field, "rps", certificate=matrix.certificate)
    reports = {}
    for stage in range(65):
        step(state, matrix.row_at(stage))
        for k in range(stage + 1):
            assert certified_stable(state, k) == "certified"
            reports.setdefault(k, stage)
    # every prefix is certified at the stage its last row arrives: row k ends
    # at column k + 1, its own pivot, which is the floor of stage k
    assert all(reports[k] == k for k in range(65))
    # and the certified rows indeed never changed afterwards
    assert state.last_changed == list(range(65))
    assert rows_dicts(state.rows) == [bidiag_reduced_row(k) for k in range(65)]

    over = BUILTINS["bidiag"]()
    over.certificate = PivotFloor.affine(1, 5)
    with pytest.raises(CertificateViolation):
        run_to(over, 6)

    spec = tmp_path / "overpromise.mat"
    spec.write_text("field rational\nkind builtin\nbuiltin bidiag\nfloor m*1+5\n")
    assert main(["reduce", str(spec), "--stages", "6"]) == 3
    assert "certificate violation" in capsys.readouterr().err
