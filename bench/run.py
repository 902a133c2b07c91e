#!/usr/bin/env python3
"""End-to-end benchmark of the omegagj command line, one workload per run.

    python3 bench/run.py --workload bidiag --seed 1 --seconds 25 --trace 0

Runs reduce, qhf and solve in turn through omegagj.cli.main(argv) in this
process, with stdout captured: a closed loop with one client and one thread.
Each command builds its matrix fresh, as a user's invocation does. The first
round is a warm-up whose outputs are checked in full; later rounds must
repeat them byte for byte. With --trace 1 the run alternates untraced and
traced rounds and reports per-layer metrics instead (see bench/README.md).

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics; a result file with the machine, seed, commit
and output digests is written to bench/out/. --workload all runs every
workload in its own process and prints one table.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import calibration
import checks
import tracing
import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"

WORKLOADS = ("bidiag", "pde", "gfp-band", "fulkerson")
SETUP_REPEATS = 15
CHILD_TIMEOUT_S = 150
MIN_STAGE_SAMPLES = 1000

# Each child puts the source tree first on its path and refuses any other copy.
_PRELUDE = (
    "import sys, time; sys.path.insert(0, sys.argv[1]); t = time.perf_counter(); "
    "import omegagj.cli as cli; d = time.perf_counter() - t; "
    "sys.exit(4) if not cli.__file__.startswith(sys.argv[1]) else None; "
)
IMPORT_CHILD = _PRELUDE + "print(repr(d))"
CLI_CHILD = _PRELUDE + "sys.exit(cli.main(sys.argv[2:]))"

END_TO_END_UNITS = {"reduce_s": "s", "qhf_s": "s", "solve_s": "s",
                    "setup_s": "s", "peak_rss_mb": "MB"}
PER_LAYER_UNITS = {
    "matrices.gen_s": "s", "matrices.rows_generated": "count",
    "matrices.entries_generated": "count",
    "engine.step_s": "s", "engine.jordan_s": "s", "engine.stage_ms_p50": "ms",
    "engine.stage_ms_p99": "ms", "engine.jordan_scanned": "count",
    "engine.jordan_touched": "count", "engine.jordan_hit_ratio": "ratio",
    "engine.zero_rows": "count", "engine.nnz_H": "count", "engine.nnz_Q": "count",
    "rows.axpy_calls": "count", "rows.axpy_entries": "count",
    "scalars.max_bits_H": "bits", "scalars.max_bits_Q": "bits",
    "scalars.nonintegral_share": "ratio",
    "reorder.record_s": "s", "reorder.record_calls": "count",
    "reorder.slots_changed": "count",
    "solver.transform_rhs_s": "s", "solver.general_solution_s": "s",
    "solver.rhs_terms": "count",
    "cli.parse_s": "s", "cli.self_s": "s", "cli.output_bytes": "count",
    "trace.untraced_s": "s", "trace.traced_s": "s", "trace.overhead_s": "s",
    "trace.overhead_share": "ratio",
}
# Span totals behind the timed per-layer metrics; ".self" excludes child spans.
SPAN_METRICS = {
    "matrices.gen_s": "matrices.gen", "engine.step_s": "engine.step.self",
    "engine.jordan_s": "engine.jordan", "reorder.record_s": "reorder.record",
    "solver.transform_rhs_s": "solver.transform_rhs",
    "solver.general_solution_s": "solver.general_solution",
    "cli.parse_s": "cli.parse", "cli.self_s": "cli.command.self",
}


class CannotRun(Exception):
    """No omegagj sources in this checkout, or a workload's process failed."""


def load_program() -> dict:
    """Import omegagj from this checkout's src/ and return its modules by name."""
    if not (SRC / "omegagj" / "cli.py").is_file():
        raise CannotRun("no omegagj sources under %s" % SRC)
    sys.path.insert(0, str(SRC))
    from omegagj import cli, engine, reorder, rows

    if not cli.__file__.startswith(str(SRC)):
        raise CannotRun("omegagj was imported from %s, not %s" % (cli.__file__, SRC))
    return {"cli": cli, "engine": engine, "reorder": reorder, "rows": rows}


def run_child(code: str, args) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "-I", "-c", code, str(SRC)] + list(args),
                          stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True,
                          timeout=CHILD_TIMEOUT_S, cwd=ROOT)


def measure_setup(name: str, seed: int, matrix_path: Path):
    """Cold import of omegagj.cli in a fresh interpreter, plus generating and
    writing the workload's input file where it has one.

    Returns SETUP_REPEATS (wall seconds, calibration scale) pairs."""
    samples = []
    for _ in range(SETUP_REPEATS):
        before = calibration.speed()
        child = run_child(IMPORT_CHILD, [])
        if child.returncode != 0:
            raise CannotRun("importing omegagj in a child failed")
        t0 = time.perf_counter()
        text = workloads.matrix_text(name, seed)
        if text is not None:
            matrix_path.write_text(text)
        wall = float(child.stdout) + time.perf_counter() - t0
        samples.append((wall, scale(before, calibration.speed())))
    return samples


def scale(before: float, after: float) -> float:
    """Factor from wall seconds to calibrated seconds for work timed between two calibrations."""
    return calibration.REFERENCE_S * 2.0 / (before + after)


def prepare(name: str, seed: int, stages=None, matrix_dir: Path = OUT):
    """The workload and the matrix argument the program is given."""
    workload = workloads.build(name, seed, stages)
    if workload.matrix_text is None:
        return workload, name
    matrix_dir.mkdir(parents=True, exist_ok=True)
    path = matrix_dir / ("%s-seed%d.txt" % (name, seed))
    path.write_text(workload.matrix_text)
    return workload, str(path)


class Session:
    """Runs rounds of the three commands on one workload and judges every output."""

    def __init__(self, program: dict, workload, matrix_arg: str):
        self.main = program["cli"].main
        self.program = program
        self.workload = workload
        self.argv = {c: workload.argv(c, matrix_arg) for c in workloads.COMMANDS}
        self.attempted = 0
        self.failed = 0
        self.problems = []
        self.digests = {}
        self.verdicts = {}
        self.reference = None

    def _judge(self, command: str, rc, error, text: str) -> bool:
        self.attempted += 1
        if error is not None or rc != 0:
            problem = error or "exit code %r" % rc
        else:
            digest = hashlib.sha256(text.encode()).hexdigest()
            if command not in self.digests:
                self.digests[command] = digest
                try:
                    found = self._check(command, text)
                except (ValueError, IndexError, KeyError, ZeroDivisionError) as exc:
                    found = ["output does not parse: %r" % exc]
                self.verdicts[command] = "; ".join(found[:5]) if found else None
            if digest != self.digests[command]:
                problem = "output differs from the first run of the same command"
            else:
                problem = self.verdicts[command]
            if problem is None:
                return True
        self.failed += 1
        if len(self.problems) < 20:
            self.problems.append("%s: %s" % (command, problem))
        return False

    def _check(self, command: str, text: str):
        w = self.workload
        if command == "reduce":
            found, self.reference = checks.check_reduce(text, w.rows, w.prime)
            return found
        if self.reference is None:
            return ["no checked reduce output to compare with"]
        if command == "qhf":
            return checks.check_qhf(text, self.reference, w.prefix, w.prime)
        return checks.check_solve(text, self.reference, w.stages)

    def round(self, tracer=None) -> dict:
        """One run of each command; returns (wall seconds, calibration scale) by command."""
        times = {}
        for command in workloads.COMMANDS:
            gc.collect()
            before = calibration.speed()
            out, err = io.StringIO(), io.StringIO()
            rc = error = None
            rec = tracer.begin("cli.command") if tracer else None
            t0 = time.perf_counter()
            try:
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                    rc = self.main(self.argv[command])
            except SystemExit as exc:
                rc = exc.code
            except Exception:
                error = traceback.format_exc(limit=3)
            wall = time.perf_counter() - t0
            if tracer:
                tracer.end(rec)
            times[command] = (wall, scale(before, calibration.speed()))
            text = out.getvalue()
            if tracer:
                tracer.count("cli.output_bytes", len(text.encode()))
            self._judge(command, rc, error, text)
        return times

    def traced_round(self):
        """One round under a fresh tracer; returns (round's times, tracer)."""
        tracer = tracing.Tracer(self.program)
        tracer.install()
        try:
            times = self.round(tracer)
        finally:
            tracer.uninstall()
        return times, tracer

    def peak_rss_mb(self) -> float:
        """Run each command once as its own process; the largest peak RSS.

        The output must match the in-process run byte for byte."""
        for command in workloads.COMMANDS:
            try:
                child = run_child(CLI_CHILD, self.argv[command])
            except subprocess.TimeoutExpired:
                self._judge(command, None, "no exit within %d s" % CHILD_TIMEOUT_S, "")
                continue
            self._judge(command, child.returncode, None, child.stdout)
        return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0


def layer_metrics(times: dict, tracer, k: float) -> dict:
    """Per-layer figures of one traced round; span seconds are scaled by k."""
    spans = tracer.totals()
    out = {name: spans.get(span, 0.0) * k for name, span in SPAN_METRICS.items()}
    for name in tracing.DETERMINISTIC:
        out[name] = tracer.counts.get(name, 0)
    if tracer.states:  # empty only when reduce failed, which is already counted
        out.update(tracing.state_counters(tracer.states[0]))
    scanned = out["engine.jordan_scanned"]
    out["engine.jordan_hit_ratio"] = out["engine.jordan_touched"] / scanned if scanned else 0.0
    out["trace.traced_s"] = sum(t * f for t, f in times.values())
    return out


def traced_figures(session: Session):
    """Per-layer figures of one traced round and its stage times in ms.

    The tracer, which holds the round's final states, is dropped on return:
    kept alive it would slow the next untraced round's garbage collection."""
    times, tracer = session.traced_round()
    k = statistics.median(f for _, f in times.values())
    stages = [d * 1000.0 * k for d in tracer.durations("engine.step")]
    return layer_metrics(times, tracer, k), stages


def percentile(samples, q: float) -> float:
    """Nearest-rank percentile, q in (0, 100)."""
    ordered = sorted(samples)
    return ordered[max(0, math.ceil(q / 100.0 * len(ordered)) - 1)]


def measure(name: str, seed: int, seconds: float, trace: bool) -> dict:
    program = load_program()
    OUT.mkdir(parents=True, exist_ok=True)
    setup = None
    if not trace:
        setup = measure_setup(name, seed, OUT / ("%s-seed%d.txt" % (name, seed)))
    workload, matrix_arg = prepare(name, seed)
    session = Session(program, workload, matrix_arg)
    session.round()  # warm-up; its outputs get the full check
    wall = {c: [] for c in workloads.COMMANDS}
    samples = {c: [] for c in workloads.COMMANDS}
    untraced, traced, stage_ms, layers = [], [], [], []
    deadline = time.perf_counter() + seconds
    while True:
        times = session.round()
        untraced.append(sum(t * f for t, f in times.values()))
        for c, (t, f) in times.items():
            wall[c].append(t)
            samples[c].append(t * f)
        if trace:
            figures, stages = traced_figures(session)
            layers.append(figures)
            traced.append(figures["trace.traced_s"])
            stage_ms += stages
        # p99 of stage time needs ten stages beyond it.
        enough_stages = not trace or len(stage_ms) >= MIN_STAGE_SAMPLES
        if time.perf_counter() >= deadline and enough_stages:
            break

    metrics, counts = {}, {}
    if trace:
        first = layers[0]
        for key in PER_LAYER_UNITS:
            if key in first:
                values = [m[key] for m in layers]
                metrics[key] = statistics.median(values) if key.endswith("_s") else values[0]
                counts[key] = len(values)
        repeats = all(m[k] == first[k] for m in layers for k in tracing.DETERMINISTIC)
        metrics["engine.stage_ms_p50"] = statistics.median(stage_ms)
        metrics["engine.stage_ms_p99"] = percentile(stage_ms, 99)
        counts["engine.stage_ms_p50"] = counts["engine.stage_ms_p99"] = len(stage_ms)
        metrics["trace.untraced_s"] = statistics.median(untraced)
        metrics["trace.overhead_s"] = metrics["trace.traced_s"] - metrics["trace.untraced_s"]
        metrics["trace.overhead_share"] = metrics["trace.overhead_s"] / metrics["trace.untraced_s"]
        counts["trace.untraced_s"] = len(untraced)
        for key in ("trace.overhead_s", "trace.overhead_share"):
            counts[key] = min(len(untraced), len(traced))
        units = PER_LAYER_UNITS
    else:
        for c in workloads.COMMANDS:
            metrics[c + "_s"] = statistics.median(samples[c])
            counts[c + "_s"] = len(samples[c])
        samples["setup"] = [t * f for t, f in setup]
        wall["setup"] = [t for t, _ in setup]
        metrics["setup_s"] = statistics.median(samples["setup"])
        counts["setup_s"] = len(setup)
        metrics["peak_rss_mb"] = session.peak_rss_mb()
        counts["peak_rss_mb"] = len(workloads.COMMANDS)
        units = END_TO_END_UNITS

    result = {
        "workload": name, "seed": seed, "seconds": seconds, "trace": int(trace),
        "stages": workload.stages, "argv": session.argv,
        "attempted": session.attempted, "failed": session.failed,
        "error_rate": session.failed / session.attempted,
        "problems": session.problems, "output_sha256": session.digests,
        "metrics": {k: {"value": metrics[k], "unit": units[k], "samples": counts[k]}
                    for k in units},
        "samples": {c + "_s": samples[c] for c in samples},
        "wall_samples": {c + "_s": wall[c] for c in wall},
    }
    if trace:
        result["counters_repeat"] = repeats
    result.update(environment())
    return result


def environment() -> dict:
    """Where and on what the run happened; reads nothing outside the checkout."""
    uname = os.uname()
    return {
        "python": sys.version.split()[0],
        "implementation": platform.python_implementation(),
        "nproc": len(os.sched_getaffinity(0)),
        "machine": uname.machine,
        "kernel": "%s %s" % (uname.sysname, uname.release),
        "commit": commit(),
        "source_sha256": source_digest(),
    }


def commit() -> str:
    """HEAD of the checkout's git directory, or 'unknown' outside git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = git / ref
        if loose.is_file():
            return loose.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def source_digest() -> str:
    """sha256 over the program's source files, to tell checkouts apart without git."""
    h = hashlib.sha256()
    for path in sorted((SRC / "omegagj").rglob("*.py")):
        h.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def print_table(rows) -> None:
    """rows: (workload, metric, value, unit, samples)."""
    print("%-10s %-28s %16s %-6s %s" % ("workload", "metric", "value", "unit", "samples"))
    for wl, name, value, unit, n in rows:
        print("%-10s %-28s %16.6g %-6s %s" % (wl, name, value, unit, n))


def report(result: dict) -> dict:
    """Print the table and write the result file; return the contract line."""
    name = result["workload"]
    print("omegagj benchmark: workload %s, seed %d, stages %d, %s seconds, trace %d"
          % (name, result["seed"], result["stages"], result["seconds"], result["trace"]))
    print("python %s, nproc %d, %s, commit %s"
          % (result["python"], result["nproc"], result["machine"], result["commit"][:12]))
    rows = [(name, k, m["value"], m["unit"], m["samples"]) for k, m in result["metrics"].items()]
    rows += [(name, k + " (wall)", statistics.median(v), "s", len(v))
             for k, v in result["wall_samples"].items()]
    rows.append((name, "error_rate", result["error_rate"], "ratio",
                 "%d ops, %d failed" % (result["attempted"], result["failed"])))
    print_table(rows)
    for problem in result["problems"]:
        print("FAILED %s" % problem)
    path = OUT / ("%s-seed%d-trace%d.json" % (name, result["seed"], result["trace"]))
    path.write_text(json.dumps(result, indent=1) + "\n")
    print("result file: %s" % path.relative_to(ROOT))
    return {
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {k: {"value": m["value"], "unit": m["unit"]}
                    for k, m in result["metrics"].items()},
    }


def run_all(args) -> dict:
    """Every workload in its own process; one combined table and line."""
    rows, combined = [], {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        child = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True, cwd=ROOT, timeout=args.seconds + 600)
        lines = child.stdout.splitlines()
        if child.returncode != 0 or not lines:
            raise CannotRun("workload %s exited with %d" % (name, child.returncode))
        line = json.loads(lines[-1])
        result = json.loads(
            (OUT / ("%s-seed%d-trace%d.json" % (name, args.seed, args.trace))).read_text())
        for key in ("attempted", "failed"):
            combined[key] += line[key]
        combined["correct"] = combined["correct"] and line["correct"]
        for key, m in result["metrics"].items():
            combined["metrics"]["%s.%s" % (name, key)] = line["metrics"][key]
            rows.append((name, key, m["value"], m["unit"], m["samples"]))
        rows.append((name, "error_rate", result["error_rate"], "ratio",
                     "%d ops, %d failed" % (result["attempted"], result["failed"])))
    print_table(rows)
    return combined


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    try:
        if args.workload == "all":
            line = run_all(args)
        else:
            line = report(measure(args.workload, args.seed, args.seconds, bool(args.trace)))
    except CannotRun as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
