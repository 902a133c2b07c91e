"""The CLI runs each command with the cyclic garbage collector paused.

That is safe only while a command makes no reference cycles, or a fixed
number of them whatever the stage count: with the collector paused, garbage
that refcounting cannot free stays until the process ends. The first test
counts that garbage; the others check that main pauses the collector for the
handler alone and restores the caller's setting on every way out.
"""

import gc

import pytest

from omegagj import cli
from omegagj.cli import main
from omegagj.matrices import BUILTINS
from util import gf_band_text

COMMANDS = {
    "reduce-tsv": ["reduce", "--emit", "rows,passage,pivots,history,last_changed"],
    "reduce-json": ["reduce", "--emit", "rows,passage,pivots", "--format", "json"],
    "reduce-lps": ["reduce", "--strategy", "lps"],
    "qhf-tsv": ["qhf", "--prefix", "3"],
    "qhf-json": ["qhf", "--format", "json"],
    "solve-tsv": ["solve"],
    "solve-json": ["solve", "--format", "json"],
    "verify-oracle": ["verify", "--check", "oracle"],
    "verify-qhf": ["verify", "--check", "qhf"],
    "stability": ["stability", "--prefix", "3"],
}


def _cyclic_garbage(argv, capsys):
    """Run main with the collector paused; return what a collection then
    finds unreachable."""
    gc.collect()
    gc.disable()
    try:
        main(argv)
        return gc.collect()
    finally:
        gc.enable()
        capsys.readouterr()


@pytest.mark.parametrize("matrix", sorted(BUILTINS) + ["gf-band"])
@pytest.mark.parametrize("command", sorted(COMMANDS))
def test_a_command_leaves_no_cyclic_garbage_per_stage(command, matrix, tmp_path, capsys):
    if matrix == "gf-band":
        path = tmp_path / "band.mat"
        path.write_text(gf_band_text(40))
        matrix = str(path)
    head, *options = COMMANDS[command]

    def garbage(stages):
        argv = [head, matrix, "--stages", str(stages)] + options
        return _cyclic_garbage(argv, capsys)

    garbage(5)  # first-call caches (regexes, imports) settle here
    few, many = garbage(5), garbage(40)
    # what is left is argparse's parser, the same for every stage count
    assert few == many


@pytest.fixture
def handler_states(monkeypatch):
    """Record gc.isenabled() inside every command handler main calls."""
    seen = []
    for name in ("cmd_reduce", "cmd_qhf", "cmd_solve", "cmd_verify", "cmd_stability"):
        def recording(args, out, _fn=getattr(cli, name)):
            seen.append(gc.isenabled())
            return _fn(args, out)

        monkeypatch.setattr(cli, name, recording)
    return seen


def _fail_elimination(*args, **kwargs):
    raise RuntimeError("unexpected failure inside the handler")


@pytest.mark.parametrize("enabled", [True, False], ids=["enabled", "disabled"])
@pytest.mark.parametrize("case, expected", [
    ("ok", 0),
    ("inconsistent", 1),
    ("bad-matrix-file", 2),
    ("certificate-violation", 3),
    ("unexpected-exception", RuntimeError),
])
def test_main_restores_the_collector_on_every_exit(
    case, expected, enabled, handler_states, tmp_path, monkeypatch, capsys
):
    argv = ["reduce", "bidiag", "--stages", "3"]
    if case == "inconsistent":
        rhs = tmp_path / "rhs.txt"
        rhs.write_text("rhs explicit 1 2 3 4\n")
        argv = ["solve", "repeated", "--stages", "3", "--rhs", str(rhs)]
    elif case == "bad-matrix-file":
        path = tmp_path / "bad.mat"
        path.write_text("field rational\nkind stencil\nstencil 0:1 0:2\n")
        argv = ["reduce", str(path), "--stages", "3"]
    elif case == "certificate-violation":
        path = tmp_path / "floor.mat"
        path.write_text("field rational\nkind builtin\nbuiltin bidiag\nfloor m*1+5\n")
        argv = ["reduce", str(path), "--stages", "3"]
    elif case == "unexpected-exception":
        monkeypatch.setattr(cli, "run_to", _fail_elimination)

    if not enabled:
        gc.disable()
    try:
        if expected is RuntimeError:
            with pytest.raises(RuntimeError):
                main(argv)
        else:
            assert main(argv) == expected
        assert gc.isenabled() is enabled
    finally:
        gc.enable()
    assert handler_states == [False]


def test_argument_errors_leave_the_collector_alone(handler_states, capsys):
    # parsing runs before the pause, so an argparse exit never touches it
    with pytest.raises(SystemExit):
        main(["reduce", "bidiag"])
    assert main(["reduce", "bidiag", "--stages", "-1"]) == 2
    assert gc.isenabled()
    assert handler_states == []
