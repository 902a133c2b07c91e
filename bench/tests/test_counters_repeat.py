"""Traced runs with the same seed give identical deterministic counters, and
the metrics the benchmark reports are the ones BENCHMARK.json declares.

Run with: python3 -m pytest bench/tests -q
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
import tracing  # noqa: E402


def _counters(metrics):
    return {k: metrics[k] for k in tracing.DETERMINISTIC}


@pytest.mark.parametrize("name", run.WORKLOADS)
def test_traced_rounds_repeat_counters(name, tmp_path):
    program = run.load_program()
    seen = []
    for _ in range(2):
        workload, arg = run.prepare(name, 7, stages=30, matrix_dir=tmp_path)
        session = run.Session(program, workload, arg)
        times, tracer = session.traced_round()
        assert session.failed == 0, session.problems
        seen.append(_counters(run.layer_metrics(times, tracer, 1.0)))
    assert seen[0] == seen[1]
    assert seen[0]["rows.axpy_calls"] > 0
    assert seen[0]["matrices.rows_generated"] == 3 * 31


def test_traced_processes_repeat_counters(tmp_path):
    lines = []
    for _ in range(2):
        child = subprocess.run(
            [sys.executable, str(BENCH / "run.py"), "--workload", "gfp-band", "--seed", "3",
             "--seconds", "1", "--trace", "1"],
            stdout=subprocess.PIPE, text=True, timeout=170, check=True)
        lines.append(json.loads(child.stdout.splitlines()[-1]))
    assert all(line["correct"] for line in lines)
    metrics = [{k: m["value"] for k, m in line["metrics"].items()} for line in lines]
    assert _counters(metrics[0]) == _counters(metrics[1])


def test_reported_metrics_match_declaration():
    declared = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in declared["workloads"]] == list(run.WORKLOADS)
    for section, units in (("end_to_end", run.END_TO_END_UNITS),
                           ("per_layer", run.PER_LAYER_UNITS)):
        assert {m["name"]: m["unit"] for m in declared[section]} == units
