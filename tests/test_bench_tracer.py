"""The benchmark's tracer patches names in omegagj (bench/tracing.py); these
tests install it on the real modules, so renaming a patched name, or taking
it off the path a command runs, fails here and not only in bench/tests."""

import sys
from pathlib import Path

from omegagj import BUILTINS, cli, engine, reorder, rows

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "bench"))

import tracing  # noqa: E402

MODULES = {"cli": cli, "engine": engine, "reorder": reorder, "rows": rows}


def test_tracer_patches_and_restores_every_attribute(capsys):
    tracer = tracing.Tracer(MODULES)
    tracer.install()
    try:
        patched = list(tracer._saved)
        assert {(owner.__name__, attr) for owner, attr, _ in patched} >= {
            ("omegagj.reorder", "step"),
            ("omegagj.reorder", "axpy_raw"),
            ("ReorderState", "record"),
            ("omegagj.cli", "extended_run"),
        }
        for owner, attr, original in patched:
            assert getattr(owner, attr) is not original, (owner, attr)
        assert cli.main(["qhf", "pde", "--stages", "9"]) == 0
    finally:
        tracer.uninstall()
    capsys.readouterr()
    for owner, attr, original in patched:
        assert getattr(owner, attr) is original, (owner, attr)
    # the patched names sit on the path qhf runs
    assert tracer.counts["reorder.record_calls"] == 10
    assert tracer.counts["rows.axpy_calls"] > 0
    assert len(tracer.durations("engine.step")) == 10
    assert len(tracer.durations("reorder.run")) == 1


def test_state_counters_read_q_from_a_state_that_never_read_it():
    # Q is rebuilt from the stage log on first read, so a state whose
    # command printed no passage row still reports nnz(Q)
    state = engine.run_to(BUILTINS["bidiag"](), 5)
    assert len(state._log) == 6
    counters = tracing.state_counters(state)
    assert counters["engine.nnz_Q"] == 21  # Q is lower triangular, 1 + 2 + ... + 6
    assert counters["engine.nnz_H"] == 12
