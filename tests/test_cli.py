import hashlib
import io
import json
import os
import subprocess
import sys
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from omegagj import Field, RATIONAL, Row
from omegagj.matrices import BUILTINS
from omegagj import cli, engine
from omegagj.rows import PackedRow, ScaledRow
from omegagj.cli import (
    MatrixSpec,
    ParseError,
    main,
    parse_rhs,
    parse_spec,
    resolve_matrix,
    resolve_rhs,
)
from fixtures import bidiag_lps_row, bidiag_reduced_row
from oracles import format_value, render_spec
from util import gf_band_text, parse_row, row_dict, scaled_row

F1 = Fraction(1)

STENCIL_TEXT = """\
# band matrix
field rational
kind stencil
stencil 0:1 1:1/2
"""

EXPLICIT_TEXT = """\
field gf 7
kind explicit
row 0 0:3 2:10   # 10 folds to 3
row 2 1:6
tail zero
"""

BUILTIN_TEXT = """\
field rational
kind builtin
builtin bidiag
floor m*1+5
"""


# -- spec files ---------------------------------------------------------------


def test_parse_stencil_spec():
    spec = parse_spec(STENCIL_TEXT)
    assert spec.kind == "stencil"
    assert spec.field == RATIONAL
    assert spec.body == [(0, F1), (1, Fraction(1, 2))]
    assert spec.floor is None
    m = spec.build()
    assert row_dict(m.row_at(2)) == {2: F1, 3: Fraction(1, 2)}


def test_parse_explicit_spec_with_gap_rows():
    spec = parse_spec(EXPLICIT_TEXT)
    assert spec.field == Field.gf(7)
    assert spec.body == {0: [(0, 3), (2, 3)], 2: [(1, 6)]}
    m = spec.build()
    assert row_dict(m.row_at(0)) == {0: 3, 2: 3}
    assert m.row_at(1).is_zero()
    assert row_dict(m.row_at(2)) == {1: 6}
    assert m.row_at(9).is_zero()


def test_parse_builtin_spec_attaches_floor():
    spec = parse_spec(BUILTIN_TEXT)
    assert spec.body == "bidiag"
    assert spec.floor == (1, 5)
    m = spec.build()
    assert m.certificate is not None
    assert m.certificate.promise(0) == 5
    assert m.certificate.promise(3) == 8


def test_explicit_spec_builds_only_listed_rows(monkeypatch):
    calls = []
    from_pairs = Row.from_pairs.__func__

    def counting(cls, field, pairs):
        calls.append(field)
        return from_pairs(cls, field, pairs)

    monkeypatch.setattr(Row, "from_pairs", classmethod(counting))
    m = parse_spec("field rational\nkind explicit\nrow 100000 0:1\ntail zero\n").build()
    assert len(calls) == 1
    assert m.row_at(3).is_zero()
    assert row_dict(m.generator(100000)) == {0: F1}


@pytest.mark.parametrize("text", [STENCIL_TEXT, EXPLICIT_TEXT, BUILTIN_TEXT])
def test_render_round_trip(text):
    spec = parse_spec(text)
    assert vars(parse_spec(render_spec(spec))) == vars(spec)
    assert render_spec(parse_spec(render_spec(spec))) == render_spec(spec)


@st.composite
def specs(draw):
    """A MatrixSpec of any kind over the rationals or a GF(p), with or
    without a floor, in the form parse_spec gives: pairs sorted by index,
    GF values reduced, zero values and empty rows included."""
    p = draw(st.sampled_from([None, 2, 7, 32003, 2**61 - 1]))
    if p is None:
        field = RATIONAL
        values = st.fractions(min_value=-(10**6), max_value=10**6, max_denominator=10**4)
    else:
        field, values = Field.gf(p), st.integers(0, p - 1)

    def pairs(indices):
        return st.dictionaries(indices, values, max_size=6).map(lambda d: sorted(d.items()))

    kind = draw(st.sampled_from(["stencil", "explicit", "builtin"]))
    if kind == "stencil":
        body = draw(pairs(st.integers(-20, 20)))
    elif kind == "explicit":
        body = draw(st.dictionaries(st.integers(0, 10**6), pairs(st.integers(0, 10**6)), max_size=5))
    else:
        body = draw(st.sampled_from(sorted(BUILTINS)))
    floor = draw(st.one_of(st.none(), st.tuples(st.integers(-50, 50), st.integers(-50, 50))))
    return MatrixSpec(field, kind, body, floor)


@settings(deadline=None, max_examples=200)
@given(specs())
def test_render_round_trip_fuzz(spec):
    text = render_spec(spec)
    assert vars(parse_spec(text)) == vars(spec)
    assert render_spec(parse_spec(text)) == text


@pytest.mark.parametrize(
    "text,line,fragment",
    [
        ("kind stencil\n", None, "missing field"),
        ("field rational\n", None, "missing kind"),
        ("field rational\nkind wat\n", 2, "kind must be"),
        ("stencil 1:1\n", 1, "before field"),
        ("field gf 6\n", 1, "prime"),
        ("field gf 3825123056546413051\n", 1, "prime"),
        ("field gf 318665857834031151167461\n", 1, "below"),
        ("field rational\nkind stencil\nstencil 0:1 0:2\n", 3, "duplicate"),
        ("field rational\nkind stencil\n", None, "needs a stencil"),
        ("field rational\nkind explicit\nrow 0 1:x\ntail zero\n", 3, "bad entry"),
        ("field rational\nkind explicit\nrow -1 0:1\ntail zero\n", 3, "row index"),
        ("field rational\nkind explicit\nrow 0 0:1\n", None, "tail zero"),
        ("field rational\nkind explicit\ntail nonzero\n", 3, "tail zero"),
        ("field rational\nkind builtin\nbuiltin nope\n", 3, "unknown builtin"),
        ("field rational\nkind builtin\n", None, "needs a builtin"),
        ("field rational\nkind builtin\nbuiltin pde\nfloor m^2\n", 4, "floor"),
        ("wat 1\n", 1, "unknown directive"),
    ],
)
def test_parse_errors_carry_line_numbers(text, line, fragment):
    with pytest.raises(ParseError) as err:
        parse_spec(text)
    assert err.value.line == line
    assert fragment in err.value.reason


def test_parse_rhs_forms():
    assert parse_rhs("# c\nrhs symbolic c\n") == ("symbolic", "c")
    assert parse_rhs("rhs explicit 2 5 1/3\n") == ("explicit", ["2", "5", "1/3"])
    for text, line in [("rhs symbolic a b\n", 1), ("", None), ("rhs wat\n", 1)]:
        with pytest.raises(ParseError) as err:
            parse_rhs(text)
        assert err.value.line == line


def test_resolve_matrix_variants(tmp_path):
    assert row_dict(resolve_matrix("builtin:bidiag").row_at(0)) == {0: F1, 1: F1}
    assert row_dict(resolve_matrix("fulkerson").row_at(0)) == {2: F1, 3: F1}
    path = tmp_path / "band.mat"
    path.write_text(STENCIL_TEXT)
    assert row_dict(resolve_matrix(str(path)).row_at(0)) == {0: F1, 1: Fraction(1, 2)}
    for bad in ["builtin:nope", str(tmp_path / "missing.mat")]:
        with pytest.raises(ParseError):
            resolve_matrix(bad)


def test_resolve_rhs_variants(tmp_path):
    assert resolve_rhs("symbolic:c") == ("symbolic", "c")
    path = tmp_path / "rhs.txt"
    path.write_text("rhs explicit 2 5 1 0\n")
    assert resolve_rhs(str(path)) == ("explicit", ["2", "5", "1", "0"])
    with pytest.raises(ParseError):
        resolve_rhs("symbolic:not an identifier")


# -- reduce -------------------------------------------------------------------


def section(stdout, label):
    lines = stdout.splitlines()
    start = lines.index("# %s" % label) + 1
    body = []
    for line in lines[start:]:
        if line.startswith("#"):
            break
        body.append(line)
    return body


class _HashSink:
    def __init__(self):
        self.digest = hashlib.sha256()

    def write(self, text):
        self.digest.update(text.encode())


def test_wide_tsv_line_is_written_in_bounded_memory():
    # entries on both sides of window edges, and one far right
    cols = [0, 4095, 4096, 8191, 8192, 10**6]
    rows = [Row.unit(RATIONAL, 10**6), Row.from_pairs(RATIONAL, [(c, -c - 1) for c in cols])]
    sink = _HashSink()
    tracemalloc.start()
    try:
        cli._emit_rows(sink, "rows", rows)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 500_000
    expect = hashlib.sha256(b"# rows\n")
    for r in rows:
        cells = ["0"] * (10**6 + 1)
        for c, v in r.support:
            cells[c] = str(v)
        expect.update(("\t".join(cells) + "\n").encode())
    assert sink.digest.hexdigest() == expect.hexdigest()


def test_scaled_tsv_lines_equal_the_row_lines():
    # a ScaledRow line is written from its numerators, over a shared
    # denominator and over den 1; the wide rows put entries on both sides of
    # window edges and far right, the short ones fit one window
    cols = [0, 4095, 4096, 8191, 8192, 10**5]
    wide = [Row.from_pairs(RATIONAL, [(c, Fraction(c + 1, 6) - 3) for c in cols]),
            Row.from_pairs(RATIONAL, [(c, -c - 1) for c in cols])]
    short = [Row.from_pairs(RATIONAL, [(1, Fraction(-2, 3)), (3, 1)]), Row.unit(RATIONAL, 3)]
    for rows in (wide, short):
        scaled = [scaled_row(r) for r in rows]
        assert scaled[0].den > 1 and scaled[1].den == 1
        got, want = io.StringIO(), io.StringIO()
        cli._emit_rows(got, "passage", scaled)
        cli._emit_rows(want, "passage", rows)
        assert got.getvalue() == want.getvalue()


def test_reduce_band_rows_tsv(capsys):
    assert main(["reduce", "bidiag", "--stages", "6"]) == 0
    rows = section(capsys.readouterr().out, "rows")
    assert len(rows) == 7
    for k, line in enumerate(rows):
        expect = bidiag_reduced_row(k)
        dense = [str(expect.get(j, 0)) for j in range(8)]
        assert line.split("\t") == dense


def test_reduce_emits_selected_sections(capsys):
    rv = main(
        [
            "reduce",
            "--matrix",
            "fulkerson",
            "--stages",
            "3",
            "--emit",
            "passage,pivots,history,last_changed",
        ]
    )
    assert rv == 0
    out = capsys.readouterr().out
    assert section(out, "passage")[0] == "1\t0\t0\t0"
    assert section(out, "pivots") == ["3\t0", "6\t2"]
    assert section(out, "history") == ["0\t3", "1\t-1", "2\t6", "3\t-1"]
    assert [l.split("\t")[0] for l in section(out, "last_changed")] == ["0", "1", "2", "3"]


def test_reduce_json_matches_tsv_after_densify(capsys):
    argv = ["reduce", "fulkerson", "--stages", "6", "--emit", "rows,passage"]
    assert main(argv) == 0
    tsv = capsys.readouterr().out
    assert main(argv + ["--format", "json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["stage"] == 6
    assert doc["strategy"] == "rps"
    for label in ("rows", "passage"):
        dense_lines = section(tsv, label)
        width = len(dense_lines[0].split("\t"))
        for sparse, line in zip(doc[label], dense_lines):
            d = row_dict(parse_row(RATIONAL, sparse))
            assert [format_value(d.get(j, 0)) for j in range(width)] == line.split("\t")


def test_reduce_json_every_section(capsys):
    argv = ["reduce", "fulkerson", "--stages", "3", "--format", "json",
            "--emit", "rows,passage,pivots,history,last_changed"]
    assert main(argv) == 0
    doc = json.loads(capsys.readouterr().out)
    assert list(doc) == ["stage", "strategy", "rows", "passage", "pivots",
                         "pivot_history", "last_changed"]
    assert doc["stage"] == 3 and doc["strategy"] == "rps"
    assert [row_dict(parse_row(RATIONAL, r)) for r in doc["rows"]] == [
        {2: F1, 3: F1}, {}, {2: -F1, 5: F1, 6: F1}, {}
    ]
    assert doc["passage"] == ["0:1", "1:1", "0:-1 2:1", "0:-1 2:-2 3:1"]
    assert doc["pivot_history"] == [3, -1, 6, -1]
    assert doc["pivots"] == {"3": 0, "6": 2}
    assert doc["last_changed"] == [0, 1, 2, 3]


def test_reduce_json_pivots_formats_no_row(monkeypatch, capsys):
    def refuse(self):
        raise AssertionError("a Row was rendered")

    monkeypatch.setattr(Row, "__str__", refuse)
    assert main(["reduce", "bidiag", "--stages", "30", "--format", "json", "--emit", "pivots"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc == {"stage": 30, "strategy": "rps", "pivots": {str(k + 1): k for k in range(31)}}


# sha256 of `reduce pde --stages 20 --format json --emit SECTIONS`, recorded
# while every JSON section was still cut out of one full snapshot
JSON_SECTION_DIGESTS = {
    "rows": "60e4750d0123e805f153139bac2f5ebb94c0fad847b985b1bcf90b9e95495471",
    "passage": "d19e74134c762aa2008c860d0ca5f48bce768309cb8e14e8d750d0108ecb7e76",
    "pivots": "0fcae6a61d07c5deb11b6b06dd8d11ac18da3a81e4688a36643afdd3acf9ce00",
    "history": "a5bb86725fc2fe5ec8e9041b5b238cc7f9d9bd7ab5f8dbf6aaa8fbf00d782d86",
    "pivot_history": "a5bb86725fc2fe5ec8e9041b5b238cc7f9d9bd7ab5f8dbf6aaa8fbf00d782d86",
    "last_changed": "14b4ef6915f241e1d2aa494157fe25dc3bd56b1297b07d34663abff1ab74a4b6",
    "last_changed,pivots,rows": "a16bf232f11d4dc2c6a8193eb79b9782da19b6582000f2c0d10c0078ddf5b1a9",
}


@pytest.mark.parametrize("sections", sorted(JSON_SECTION_DIGESTS))
def test_reduce_json_sections_unchanged(sections, capsys):
    argv = ["reduce", "pde", "--stages", "20", "--format", "json", "--emit", sections]
    assert main(argv) == 0
    digest = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
    assert digest == JSON_SECTION_DIGESTS[sections]


@pytest.mark.parametrize("fmt", ["tsv", "json"])
def test_bad_emit_section_rejected_before_any_output(fmt, capsys):
    argv = ["reduce", "bidiag", "--stages", "2", "--emit", "rows,wat", "--format", fmt]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "error:" in captured.err


def test_reduce_leftmost_strategy_warns_about_drift(capsys):
    assert main(["reduce", "bidiag", "--stages", "2", "--strategy", "lps"]) == 0
    captured = capsys.readouterr()
    assert "drift" in captured.err
    rows = section(captured.out, "rows")
    for i, line in enumerate(rows):
        expect = bidiag_lps_row(i, 3)
        assert line.split("\t") == [str(expect.get(j, 0)) for j in range(4)]


def test_zero_matrix_stage_zero(tmp_path, capsys):
    path = tmp_path / "zero.mat"
    path.write_text("field rational\nkind explicit\ntail zero\n")
    rv = main(["reduce", str(path), "--stages", "0", "--emit", "rows,passage"])
    assert rv == 0
    out = capsys.readouterr().out
    assert section(out, "rows") == ["0"]
    assert section(out, "passage") == ["1"]


def test_reduce_over_a_61_bit_prime_field(tmp_path, capsys):
    path = tmp_path / "m61.mat"
    path.write_text("field gf 2305843009213693951\nkind explicit\nrow 0 0:2 1:-1\ntail zero\n")
    assert main(["reduce", str(path), "--stages", "0", "--emit", "rows"]) == 0
    assert capsys.readouterr().out == "# rows\n2305843009213693949\t1\n"


def test_reduce_gf_output_uses_residues(tmp_path, capsys):
    path = tmp_path / "g.mat"
    path.write_text("field gf 7\nkind explicit\nrow 0 0:3 1:10\ntail zero\n")
    assert main(["reduce", str(path), "--stages", "0"]) == 0
    assert section(capsys.readouterr().out, "rows") == ["1\t1"]


# -- qhf ----------------------------------------------------------------------


def test_qhf_reports_stability_indices(capsys):
    rv = main(["qhf", "pde", "--stages", "9", "--prefix", "6"])
    assert rv == 0
    out = capsys.readouterr().out
    assert "last_change_6 = 9" in out
    assert "delta_6 = 9" in out
    perm = section(out, "permutation")[0].split()
    assert sorted(int(i) for i in perm) == list(range(10))


def test_qhf_rejects_oracle_flag(capsys):
    # the reordered view is recorded at every stage; there is nothing to seed
    with pytest.raises(SystemExit) as err:
        main(["qhf", "pde", "--stages", "9", "--prefix", "6", "--oracle"])
    assert err.value.code == 2
    assert capsys.readouterr().out == ""


def test_qhf_json(capsys):
    assert main(["qhf", "pde", "--stages", "9", "--prefix", "3", "--format", "json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["stage"] == 9
    assert doc["prefix"] == 3
    assert doc["delta"] == 5
    assert len(doc["q_rows"]) == len(doc["q_passage"]) == 10
    assert sorted(doc["permutation"]) == list(range(10))


# -- passage tracking ---------------------------------------------------------


@pytest.mark.parametrize(
    "argv,units",
    [
        (["reduce", "pde", "--stages", "9", "--emit", "rows,pivots"], 0),
        (["reduce", "pde", "--stages", "9", "--emit", "rows,pivots", "--format", "json"], 0),
        (["qhf", "pde", "--stages", "9", "--prefix", "3"], 0),
        (["verify", "pde", "--stages", "9", "--check", "lrrf"], 0),
        (["verify", "pde", "--stages", "9", "--check", "qhf"], 0),
        (["stability", "pde", "--stages", "9", "--prefix", "3"], 0),
        # the commands that print or read Q start one passage row per stage,
        # a ScaledRow over the rationals
        (["reduce", "pde", "--stages", "9", "--emit", "pivots,passage"], 10),
        (["qhf", "pde", "--stages", "9", "--format", "json"], 10),
        (["verify", "pde", "--stages", "9", "--check", "roweq"], 10),
        (["verify", "pde", "--stages", "9", "--check", "oracle"], 10),
        (["solve", "pde", "--stages", "9"], 10),
        # over GF(p) the passage rows are packed
        (["qhf", "GF_BAND", "--stages", "40", "--prefix", "3"], 0),
        (["reduce", "GF_BAND", "--stages", "40", "--emit", "pivots,passage"], 41),
        (["solve", "GF_BAND", "--stages", "40"], 41),
    ],
    ids=["reduce-rows,pivots", "reduce-json", "qhf-tsv", "verify-lrrf", "verify-qhf",
         "stability", "reduce-passage", "qhf-json", "verify-roweq", "verify-oracle", "solve",
         "gf-band-qhf-tsv", "gf-band-reduce-passage", "gf-band-solve"],
)
def test_only_commands_that_read_q_build_passage_rows(argv, units, tmp_path, monkeypatch,
                                                      capsys):
    path = tmp_path / "band.txt"
    path.write_text(gf_band_text())
    argv = [str(path) if a == "GF_BAND" else a for a in argv]
    kind = PackedRow if str(path) in argv else ScaledRow
    calls = []
    passage_unit = engine.passage_unit

    def counting(field, col, lam):
        r = passage_unit(field, col, lam)
        calls.append(type(r))
        return r

    monkeypatch.setattr(engine, "passage_unit", counting)
    assert main(argv) == 0
    assert calls == [kind] * units


# -- scalar arithmetic --------------------------------------------------------


_FRACTION_OPERATORS = ("__add__", "__radd__", "__sub__", "__mul__", "__rmul__",
                       "__truediv__", "__rtruediv__", "__neg__")


@pytest.mark.parametrize("matrix", ["bidiag", "pde", "fulkerson"])
def test_no_command_runs_a_fraction_operator(matrix, tmp_path, monkeypatch, capsys):
    # the rational scalar operations, the row kernels and the solver work on
    # numerator/denominator ints; only canon.dense_reduce, the independent
    # reference behind --check oracle, computes with Fraction's operators
    rhs = tmp_path / "rhs.txt"
    rhs.write_text("rhs explicit 1/2 -3 5/7 0 2\n")
    calls = []
    for name in _FRACTION_OPERATORS:
        op = getattr(Fraction, name)

        def counting(*args, _name=name, _op=op):
            calls.append(_name)
            return _op(*args)

        monkeypatch.setattr(Fraction, name, counting)
    stages = ["--stages", "40"]
    for argv in (
        ["reduce", matrix, "--emit", "rows,passage,pivots"],
        ["qhf", matrix, "--prefix", "20"],
        ["solve", matrix, "--rhs", "symbolic:c"],
        ["solve", matrix, "--rhs", str(rhs)],
        ["stability", matrix, "--prefix", "20"],
        ["verify", matrix, "--check", "lrrf"],
        ["verify", matrix, "--check", "qhf"],
        ["verify", matrix, "--check", "roweq"],
    ):
        # an explicit rhs is inconsistent on some matrices, which exits 1
        assert main(argv + stages) in (0, 1)
        assert calls == [], argv
    capsys.readouterr()


# -- solve --------------------------------------------------------------------


def test_solve_fulkerson_constraints(capsys):
    rv = main(["solve", "fulkerson", "--stages", "12", "--horizon", "12"])
    assert rv == 0
    out = capsys.readouterr().out
    cons = section(out, "constraints")
    assert cons[:3] == [
        "c_1 = 0",
        "c_3 - c_0 - 2*c_2 = 0",
        "c_5 - c_0 - c_2 - 3*c_4 = 0",
    ]
    assert len(cons) == 6
    body = section(out, "general")
    assert body[0] == "x_0 = t_0\t[provisional at stage 12]"
    assert len(body) == 14  # x_0..x_12 plus the deficiency line
    assert body[-1] == "deficiency = 9"


def test_solve_explicit_rhs_file(tmp_path, capsys):
    rhs = tmp_path / "rhs.txt"
    rhs.write_text("rhs explicit 2 5 1 0\n")
    rv = main(["solve", "bidiag", "--stages", "3", "--rhs", str(rhs)])
    assert rv == 0
    body = section(capsys.readouterr().out, "general")
    assert body[0] == "x_0 = t_0\t[provisional at stage 3]"
    assert body[1].startswith("x_1 = -t_0 + 2\t")


INCONSISTENT_STDOUT = """\
# constraints
1 = 0
2 = 0
3 = 0
# general
x_0 = 1\t[provisional at stage 3]
x_1 = t_0\t[provisional at stage 3]
x_2 = t_1\t[provisional at stage 3]
x_3 = t_2\t[provisional at stage 3]
deficiency = 3
"""


@pytest.mark.parametrize("fmt", ["tsv", "json"])
def test_solve_inconsistent_explicit_rhs_exits_1(fmt, tmp_path, capsys):
    rhs = tmp_path / "rhs.txt"
    rhs.write_text("rhs explicit 1 2 3 4\n")
    rv = main(["solve", "repeated", "--stages", "3", "--rhs", str(rhs), "--format", fmt])
    assert rv == 1
    captured = capsys.readouterr()
    if fmt == "tsv":
        assert captured.out == INCONSISTENT_STDOUT
    else:
        assert json.loads(captured.out)["constraints"] == ["1 = 0", "2 = 0", "3 = 0"]
    # rows 1..3 of repeated reduce to zero; stage w holds row w
    assert captured.err.splitlines() == [
        "inconsistent: row %d reduces to zero but its right-hand side to %s" % (w, v)
        for w, v in ((1, 1), (2, 2), (3, 3))
    ]


def test_solve_consistent_explicit_rhs_on_zero_rows_exits_0(tmp_path, capsys):
    rhs = tmp_path / "rhs.txt"
    rhs.write_text("rhs explicit 1 1 1 1\n")
    assert main(["solve", "repeated", "--stages", "3", "--rhs", str(rhs)]) == 0
    captured = capsys.readouterr()
    assert section(captured.out, "constraints") == []
    assert captured.err == ""


def test_solve_json_agrees_with_tsv(capsys):
    argv = ["solve", "fulkerson", "--stages", "6", "--horizon", "6"]
    assert main(argv) == 0
    tsv = capsys.readouterr().out
    assert main(argv + ["--format", "json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["constraints"] == section(tsv, "constraints")
    assert doc["horizon"] == 6
    assert len(doc["general"]) == 7
    for j, cell in enumerate(doc["general"]):
        assert cell["column"] == j
        assert "x_%d = %s\t[%s]" % (j, cell["value"], cell["provenance"]) in tsv
    assert "deficiency = %d" % doc["deficiency"] in tsv


def test_solve_certified_entries_with_floor(tmp_path, capsys):
    path = tmp_path / "certified.mat"
    path.write_text("field rational\nkind builtin\nbuiltin bidiag\nfloor m*1+1\n")
    assert main(["solve", str(path), "--stages", "6", "--horizon", "6"]) == 0
    body = section(capsys.readouterr().out, "general")
    assert all(line.endswith("[certified]") for line in body[:7])


def test_solve_rejects_rhs_in_the_parameter_namespace(tmp_path, capsys):
    rhs = tmp_path / "rhs.txt"
    rhs.write_text("rhs symbolic t\n")
    for arg in ("symbolic:t", str(rhs)):
        assert main(["solve", "bidiag", "--stages", "2", "--rhs", arg]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "'t' is reserved for the solution parameters" in captured.err


# -- verify and stability -----------------------------------------------------


@pytest.mark.parametrize("check", ["lrrf", "qhf", "roweq", "oracle"])
def test_verify_checks_pass(check, capsys):
    assert main(["verify", "pde", "--stages", "9", "--check", check]) == 0
    assert capsys.readouterr().out == "check %s: ok\n" % check


@pytest.mark.parametrize(
    "name,stages,strategy", [("gf-band", 40, "rps"), ("gf-band", 40, "lps"), ("pde", 9, "lps")]
)
def test_verify_oracle_passes_over_gf_and_lps(name, stages, strategy, tmp_path, capsys):
    matrix = name
    if name == "gf-band":
        matrix = str(tmp_path / "band.txt")
        (tmp_path / "band.txt").write_text(gf_band_text())
    argv = ["verify", matrix, "--stages", str(stages), "--strategy", strategy]
    assert main(argv + ["--check", "oracle"]) == 0
    assert capsys.readouterr().out == "check oracle: ok\n"


@pytest.mark.parametrize("check", ["lrrf", "qhf"])
def test_verify_form_check_prints_its_witness(check, monkeypatch, capsys):
    # H row 3 scaled by 2 (as a Row: H over the rationals holds ScaledRows)
    # leads with 2, not 1, so the form predicate itself finds the offending
    # row (its place in rows or q_rows) and column
    built = []

    def tampering(build, base):
        def wrapper(*args):
            result = build(*args)
            rows = base(result).rows
            rows[3] = Row(RATIONAL, rows[3].support).scaled_raw(Fraction(2))
            built.append((result, rows[3]))
            return result
        return wrapper

    monkeypatch.setattr(cli, "run_to", tampering(cli.run_to, lambda state: state))
    monkeypatch.setattr(cli, "extended_run", tampering(cli.extended_run, lambda rs: rs.base))
    assert main(["verify", "pde", "--stages", "9", "--check", check]) == 1
    (result, bad), = built
    rows = result.rows if check == "lrrf" else result.q_rows
    (i,) = [k for k, r in enumerate(rows) if r is bad]
    assert capsys.readouterr().out == "check %s: failed at row %d, column %d\n" % (
        check, i, bad.maxs)


def test_verify_oracle_rejects_rows_with_explicit_zeros(monkeypatch, capsys):
    # H over the rationals is built by the ScaledRow kernel; bidiag's rows
    # are integral, so every denominator is one and the sum needs no lcm
    def keeps_cancelled_zeros(self, pairs, rows):
        out = dict(self.nums)
        for i, lam in pairs:
            x = rows[i]
            assert self.den == x.den == lam.denominator == 1
            for c, v in x.nums:
                out[c] = out.get(c, 0) + lam.numerator * v
        return ScaledRow(self.field, 1, tuple(sorted(out.items())))

    monkeypatch.setattr(ScaledRow, "_add_rows", keeps_cancelled_zeros)
    assert main(["verify", "bidiag", "--stages", "12", "--check", "oracle"]) == 1
    assert capsys.readouterr().out == "check oracle: failed\n"


def test_stability_reports_certified_prefix(tmp_path, capsys):
    path = tmp_path / "certified.mat"
    path.write_text("field rational\nkind builtin\nbuiltin bidiag\nfloor m*1+1\n")
    assert main(["stability", str(path), "--stages", "7", "--prefix", "6"]) == 0
    out = capsys.readouterr().out
    assert "prefix 6 last_change = 6" in out
    assert "prefix 6 status = certified" in out
    assert main(["stability", "bidiag", "--stages", "7", "--prefix", "6"]) == 0
    assert "prefix 6 status = provisional" in capsys.readouterr().out


def test_decreasing_floor_certifies_up_to_its_running_maximum(tmp_path, capsys):
    # floor(0) = 2 holds every later pivot at >= 2, and row 0 ends at column 1
    path = tmp_path / "decreasing.mat"
    path.write_text("field rational\nkind builtin\nbuiltin bidiag\nfloor m*-1+2\n")
    assert main(["stability", str(path), "--stages", "5", "--prefix", "0"]) == 0
    assert "prefix 0 status = certified" in capsys.readouterr().out
    assert main(["solve", str(path), "--stages", "5", "--horizon", "2"]) == 0
    body = section(capsys.readouterr().out, "general")
    assert [line.split("\t")[1] for line in body[:3]] == [
        "[certified]", "[certified]", "[provisional at stage 5]"]


# -- exit codes ---------------------------------------------------------------


@pytest.mark.parametrize(
    "argv",
    [
        ["reduce", "--stages", "3"],
        ["reduce", "builtin:nope", "--stages", "3"],
        ["reduce", "no-such-file.mat", "--stages", "3"],
        ["reduce", "bidiag", "--stages", "-1"],
        ["reduce", "bidiag", "--stages", "3", "--emit", "wat"],
        ["solve", "bidiag", "--stages", "3", "--horizon", "-5"],
        ["verify", "bidiag", "--stages", "3", "--strategy", "lps", "--check", "qhf"],
        ["verify", "bidiag", "--stages", "3", "--strategy", "lps", "--check", "roweq"],
        ["solve", "bidiag", "--stages", "3", "--rhs", "symbolic:not an id"],
        # leftmost pivots build the upper form, never the LRRF
        ["verify", "bidiag", "--stages", "2", "--strategy", "lps", "--check", "lrrf"],
        ["qhf", "pde", "--stages", "5", "--prefix", "9"],
        ["qhf", "pde", "--stages", "5", "--prefix", "9", "--format", "json"],
        ["stability", "pde", "--stages", "5", "--prefix", "-1"],
        # a horizon below column 0 would list no column at all
        ["solve", "bidiag", "--stages", "3", "--horizon", "-1"],
    ],
)
def test_exit_2_for_rejected_input(argv, capsys):
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    # a command-line argument has no line number to report
    assert captured.err.startswith("error: ") and "line" not in captured.err


def test_command_line_error_names_no_line(capsys):
    assert main(["solve", "bidiag", "--stages", "3", "--horizon", "-5"]) == 2
    assert capsys.readouterr().err == "error: --horizon must be >= 0\n"


def test_exit_2_for_bad_spec_file(tmp_path, capsys):
    path = tmp_path / "bad.mat"
    path.write_text("field rational\nkind stencil\nstencil 0:1 0:2\n")
    assert main(["reduce", str(path), "--stages", "3"]) == 2
    assert "line 3" in capsys.readouterr().err


def test_exit_2_for_bad_rhs_value(tmp_path, capsys):
    rhs = tmp_path / "rhs.txt"
    rhs.write_text("rhs explicit 1 x\n")
    assert main(["solve", "bidiag", "--stages", "3", "--rhs", str(rhs)]) == 2
    assert "rhs" in capsys.readouterr().err


@pytest.mark.parametrize("rhs", ["missing-file", "bad-value", "symbolic:t"])
def test_solve_rejects_rhs_before_the_elimination(rhs, tmp_path, monkeypatch, capsys):
    def refuse(*args, **kwargs):
        raise AssertionError("the elimination ran before the rhs was checked")

    monkeypatch.setattr(cli, "run_to", refuse)
    path = tmp_path / "rhs.txt"
    if rhs == "bad-value":
        path.write_text("rhs explicit 1 x\n")
    arg = rhs if rhs.startswith("symbolic:") else str(path)
    assert main(["solve", "bidiag", "--stages", "600", "--rhs", arg]) == 2
    assert "rhs" in capsys.readouterr().err


def test_bad_rhs_wins_over_a_violated_floor(tmp_path, capsys):
    path = tmp_path / "floor.mat"
    path.write_text(BUILTIN_TEXT)
    assert main(["solve", str(path), "--stages", "3", "--rhs", "symbolic:t"]) == 2
    assert "reserved" in capsys.readouterr().err


def test_exit_3_on_certificate_violation(tmp_path, capsys):
    path = tmp_path / "floor.mat"
    path.write_text(BUILTIN_TEXT)
    assert main(["reduce", str(path), "--stages", "3"]) == 3
    err = capsys.readouterr().err
    assert "certificate violation" in err
    assert "stage 1" in err


def test_cold_import_loads_no_dataclasses():
    # every command pays for a cold import of the CLI, and dataclasses
    # imports inspect; array is loaded only when a packed passage row is
    # reduced; -I keeps the environment and user site out
    src = os.path.dirname(os.path.dirname(cli.__file__))
    code = (
        "import sys; sys.path.insert(0, %r); import omegagj.cli; "
        "print(sorted(m for m in ('dataclasses', 'inspect', 'array') if m in sys.modules))" % src
    )
    out = subprocess.run(
        [sys.executable, "-I", "-c", code], capture_output=True, text=True, check=True
    ).stdout
    assert out.strip() == "[]"


@pytest.mark.parametrize("command", ["qhf", "solve"])
def test_strategy_is_not_an_option_of_rps_only_commands(command, capsys):
    # the reorder and the symbolic solution are defined for rightmost pivots
    with pytest.raises(SystemExit) as err:
        main([command, "bidiag", "--stages", "3", "--strategy", "lps"])
    assert err.value.code == 2
    assert capsys.readouterr().out == ""


def test_missing_required_flag_exits_2():
    with pytest.raises(SystemExit) as err:
        main(["reduce", "bidiag"])
    assert err.value.code == 2


@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "bidiag", "--stages", "3", "--check", "qhf"],
        ["stability", "bidiag", "--stages", "3"],
    ],
    ids=["verify", "stability"],
)
def test_format_is_not_an_option_of_plain_text_commands(argv):
    # verify and stability print one fixed text form
    with pytest.raises(SystemExit) as err:
        main(argv + ["--format", "json"])
    assert err.value.code == 2
