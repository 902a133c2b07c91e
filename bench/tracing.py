"""Per-layer tracing from outside the program.

Tracer.install() replaces module attributes of omegagj with wrappers that
record spans and counts; uninstall() puts the originals back. Each wrapper
sits where its caller looks the name up at call time, for example
engine.step for run_to and reorder.step for extended_run. Spans are kept at
stage granularity or coarser; rows.axpy_raw is counted, never spanned.
"""

from __future__ import annotations

import time
from fractions import Fraction
from typing import Dict, List

# Counters that must repeat exactly for the same input.
DETERMINISTIC = (
    "matrices.rows_generated", "matrices.entries_generated",
    "engine.jordan_scanned", "engine.jordan_touched", "engine.zero_rows",
    "engine.nnz_H", "engine.nnz_Q", "rows.axpy_calls", "rows.axpy_entries",
    "scalars.max_bits_H", "scalars.max_bits_Q", "scalars.nonintegral_share",
    "reorder.record_calls", "reorder.slots_changed", "solver.rhs_terms",
    "cli.output_bytes",
)


class Tracer:
    """Spans as [name, parent index, start, end], and named counts.

    A span's self time is its duration minus the durations of its direct
    children, which is the part of its interval they do not cover.
    """

    def __init__(self, omegagj_modules: Dict[str, object]):
        self.mods = omegagj_modules
        self.spans: List[list] = []
        self.stack: List[int] = []
        self.counts: Dict[str, int] = {}
        self.states: List[object] = []
        self._saved: List[tuple] = []

    # -- recording -------------------------------------------------------------

    def count(self, name: str, n: int = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + n

    def begin(self, name: str) -> list:
        rec = [name, self.stack[-1] if self.stack else -1, 0.0, 0.0]
        self.stack.append(len(self.spans))
        self.spans.append(rec)
        rec[2] = time.perf_counter()
        return rec

    def end(self, rec: list) -> None:
        rec[3] = time.perf_counter()
        self.stack.pop()

    def spanned(self, name: str, fn, after=None):
        """fn wrapped in a span; after(args, result) runs once the span is closed."""
        tracer = self

        def wrapper(*args, **kwargs):
            rec = tracer.begin(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.end(rec)
            if after is not None:
                after(args, result)
            return result

        return wrapper

    # -- installation ----------------------------------------------------------

    def _patch(self, owner, attr: str, value) -> None:
        self._saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self) -> None:
        cli, engine, reorder, rows = (self.mods[k] for k in ("cli", "engine", "reorder", "rows"))
        self._patch(cli, "resolve_matrix",
                    self.spanned("cli.parse", cli.resolve_matrix, self._wrap_generator))
        self._patch(cli, "run_to",
                    self.spanned("engine.run", cli.run_to, lambda a, st: self.states.append(st)))
        self._patch(cli, "extended_run", self.spanned("reorder.run", cli.extended_run))
        step = self.spanned("engine.step", engine.step)
        self._patch(engine, "step", step)
        self._patch(reorder, "step", step)
        self._patch(engine, "jordan_update", self._jordan(engine.jordan_update))
        axpy = self._axpy(rows.axpy_raw)
        self._patch(rows, "axpy_raw", axpy)
        self._patch(reorder, "axpy_raw", axpy)
        self._patch(reorder.ReorderState, "record", self._record(reorder.ReorderState.record))
        self._patch(cli, "transform_rhs",
                    self.spanned("solver.transform_rhs", cli.transform_rhs,
                                 lambda a, k: self.count("solver.rhs_terms",
                                                         sum(len(f.terms) for f in k))))
        self._patch(cli, "general_solution",
                    self.spanned("solver.general_solution", cli.general_solution))

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, value = self._saved.pop()
            setattr(owner, attr, value)

    def _wrap_generator(self, args, matrix) -> None:
        gen = matrix.generator
        tracer = self

        def generator(k):
            rec = tracer.begin("matrices.gen")
            try:
                row = gen(k)
            finally:
                tracer.end(rec)
            tracer.count("matrices.rows_generated")
            tracer.count("matrices.entries_generated", len(row.support))
            return row

        matrix.generator = generator

    def _jordan(self, fn):
        tracer = self

        def jordan_update(state, g):
            n = len(state.rows) - 1
            before = state.rows[:n]
            rec = tracer.begin("engine.jordan")
            try:
                fn(state, g)
            finally:
                tracer.end(rec)
            tracer.count("engine.jordan_scanned", n)
            tracer.count("engine.jordan_touched",
                         sum(1 for a, b in zip(before, state.rows) if a is not b))

        return jordan_update

    def _axpy(self, fn):
        counts = self.counts

        def axpy_raw(lam, x, y):
            counts["rows.axpy_calls"] = counts.get("rows.axpy_calls", 0) + 1
            counts["rows.axpy_entries"] = (counts.get("rows.axpy_entries", 0)
                                           + len(x.support) + len(y.support))
            return fn(lam, x, y)

        return axpy_raw

    def _record(self, fn):
        tracer = self

        def record(rs):
            before = list(rs.last_changed)
            rec = tracer.begin("reorder.record")
            try:
                fn(rs)
            finally:
                tracer.end(rec)
            after = rs.last_changed
            tracer.count("reorder.record_calls")
            tracer.count("reorder.slots_changed",
                         len(after) - len(before)
                         + sum(1 for a, b in zip(before, after) if a != b))

        return record

    # -- summaries -------------------------------------------------------------

    def totals(self) -> Dict[str, float]:
        """Seconds per span name: 'name' is inclusive, 'name.self' excludes children."""
        child = [0.0] * len(self.spans)
        for name, parent, start, end in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: Dict[str, float] = {}
        for (name, _, start, end), c in zip(self.spans, child):
            out[name] = out.get(name, 0.0) + (end - start)
            out[name + ".self"] = out.get(name + ".self", 0.0) + (end - start - c)
        return out

    def durations(self, name: str) -> List[float]:
        return [end - start for n, _, start, end in self.spans if n == name]


def state_counters(state) -> Dict[str, float]:
    """Size and coefficient growth of a final elimination state.

    Bit size is that of the larger of numerator and denominator; GF(p)
    residues do not grow and count as 0 bits, and are never non-integral.
    """
    out: Dict[str, float] = {"engine.zero_rows": sum(1 for r in state.rows if r.is_zero())}
    nonintegral = total = 0
    for label, rows in (("H", state.rows), ("Q", state.passage)):
        nnz = bits = 0
        for r in rows:
            nnz += len(r.support)
            for _, v in r.support:
                if isinstance(v, Fraction):
                    b = max(v.numerator.bit_length(), v.denominator.bit_length())
                    if b > bits:
                        bits = b
                    if v.denominator != 1:
                        nonintegral += 1
        total += nnz
        out["engine.nnz_" + label] = nnz
        out["scalars.max_bits_" + label] = bits
    out["scalars.nonintegral_share"] = nonintegral / total if total else 0.0
    return out
