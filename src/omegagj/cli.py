"""Command-line front end: matrix/RHS files and the five subcommands."""

from __future__ import annotations

import argparse
import gc
import os
import re
import sys
from bisect import bisect_left
from typing import List, Optional, Tuple, Union

from .canon import dense_reduce, is_lrrf, is_qhf, verify_row_equivalence
from .engine import (
    CertificateViolation,
    PivotFloor,
    certified_stable,
    prefix_stability,
    run_to,
)
from .matrices import BUILTINS, RowFiniteMatrix, make_explicit, make_stencil
from .reorder import extended_run
from .rows import PackedRow, Row, dense_width
from .scalars import _INTEGER_TEXT, RATIONAL, Field
from .solver import PARAMETER_NAMESPACE, LinForm, general_solution, transform_rhs


class ParseError(Exception):
    """Rejected input: a matrix or RHS file the grammar rejects, with the
    number of the offending line, or None when the fault is in the file as
    a whole or in a command-line argument."""

    def __init__(self, line: Optional[int], reason: str):
        self.line = line
        self.reason = reason
        super().__init__(reason if line is None else "line %d: %s" % (line, reason))


class MatrixSpec:
    """Parsed matrix description: field, kind, body, optional pivot floor."""

    def __init__(self, field: Field, kind: str, body, floor: Optional[Tuple[int, int]] = None):
        self.field = field
        self.kind = kind
        self.body = body
        self.floor = floor

    def build(self) -> RowFiniteMatrix:
        if self.kind == "stencil":
            matrix = make_stencil(self.field, self.body)
        elif self.kind == "explicit":
            rows = {k: Row.from_pairs(self.field, pairs) for k, pairs in self.body.items()}
            matrix = make_explicit(self.field, rows)
        else:
            matrix = BUILTINS[self.body]()
            if matrix.field != self.field:
                raise ParseError(None, "builtin %s is over a different field" % self.body)
        if self.floor is not None:
            matrix.certificate = PivotFloor.affine(*self.floor)
        return matrix


_FLOOR_RE = re.compile(r"^m\*(-?[0-9]+)(?:([+-][0-9]+))?$")


def parse_spec(text: str) -> MatrixSpec:
    """Parse the line-oriented matrix grammar; '#' starts a comment.

    Integers are an optional sign and ASCII digits, so once a line's own
    checks pass, a '_' or a non-ASCII character in it (which int() reads
    in '1_0' and '٣') is rejected."""
    field: Optional[Field] = None
    kind: Optional[str] = None
    stencil: Optional[List[Tuple[int, object]]] = None
    rows: dict = {}
    tail: Optional[str] = None
    builtin: Optional[str] = None
    floor: Optional[Tuple[int, int]] = None

    for lineno, raw_line in enumerate(text.splitlines(), start=1):
        line = raw_line.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        head, rest = parts[0], parts[1:]
        if head == "field":
            field = _parse_field(lineno, rest)
        elif head == "kind":
            if len(rest) != 1 or rest[0] not in ("stencil", "explicit", "builtin"):
                raise ParseError(lineno, "kind must be stencil, explicit or builtin")
            kind = rest[0]
        elif head == "stencil":
            if field is None:
                raise ParseError(lineno, "stencil before field")
            stencil = []
            seen = set()
            for tok in rest:
                off, val = _parse_pair(lineno, field, tok)
                if off in seen:
                    raise ParseError(lineno, "duplicate stencil offset %d" % off)
                seen.add(off)
                stencil.append((off, val))
        elif head == "row":
            if field is None:
                raise ParseError(lineno, "row before field")
            if not rest:
                raise ParseError(lineno, "row needs an index")
            try:
                k = int(rest[0])
            except ValueError:
                raise ParseError(lineno, "bad row index %r" % rest[0])
            if k < 0 or k in rows:
                raise ParseError(lineno, "bad or repeated row index %d" % k)
            pairs = []
            seen = set()
            for tok in rest[1:]:
                col, val = _parse_pair(lineno, field, tok)
                if col < 0 or col in seen:
                    raise ParseError(lineno, "bad or repeated column %d" % col)
                seen.add(col)
                pairs.append((col, val))
            rows[k] = pairs
        elif head == "tail":
            if rest != ["zero"]:
                raise ParseError(lineno, "only 'tail zero' is supported")
            tail = "zero"
        elif head == "builtin":
            if len(rest) != 1 or rest[0] not in BUILTINS:
                raise ParseError(
                    lineno, "unknown builtin (have: %s)" % ", ".join(sorted(BUILTINS))
                )
            builtin = rest[0]
        elif head == "floor":
            if len(rest) != 1:
                raise ParseError(lineno, "floor needs one rule like m*1+1")
            m = _FLOOR_RE.match(rest[0])
            if not m:
                raise ParseError(lineno, "bad floor rule %r" % rest[0])
            floor = (int(m.group(1)), int(m.group(2) or 0))
        else:
            raise ParseError(lineno, "unknown directive %r" % head)
        if not line.isascii() or "_" in line:
            raise ParseError(lineno, "non-ASCII character or '_' in %r" % line)

    if field is None:
        raise ParseError(None, "missing field line")
    if kind is None:
        raise ParseError(None, "missing kind line")
    if kind == "stencil":
        if stencil is None:
            raise ParseError(None, "kind stencil needs a stencil line")
        return MatrixSpec(field, kind, stencil, floor)
    if kind == "explicit":
        if tail != "zero":
            raise ParseError(None, "kind explicit needs 'tail zero'")
        return MatrixSpec(field, kind, rows, floor)
    if builtin is None:
        raise ParseError(None, "kind builtin needs a builtin line")
    return MatrixSpec(field, kind, builtin, floor)


def _parse_field(lineno: int, rest: List[str]) -> Field:
    if rest == ["rational"]:
        return RATIONAL
    if len(rest) == 2 and rest[0] == "gf":
        try:
            return Field.gf(int(rest[1]))
        except (ValueError, TypeError) as exc:
            raise ParseError(lineno, str(exc))
    raise ParseError(lineno, "field must be 'rational' or 'gf P'")


def _parse_pair(lineno: int, field: Field, tok: str):
    idx, sep, val = tok.partition(":")
    if not sep:
        raise ParseError(lineno, "expected idx:value, got %r" % tok)
    try:
        return int(idx), field.parse(val)
    except (ValueError, ZeroDivisionError):
        raise ParseError(lineno, "bad entry %r" % tok)


def parse_rhs(text: str):
    """RHS file: one 'rhs symbolic NAME' or 'rhs explicit v0 v1 ...' line."""
    for lineno, raw_line in enumerate(text.splitlines(), start=1):
        line = raw_line.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if parts[0] != "rhs" or len(parts) < 2:
            raise ParseError(lineno, "expected an rhs line")
        if parts[1] == "symbolic":
            if len(parts) != 3 or not parts[2].isidentifier():
                raise ParseError(lineno, "rhs symbolic needs one symbol name")
            return ("symbolic", parts[2])
        if parts[1] == "explicit":
            return ("explicit", parts[2:])
        raise ParseError(lineno, "rhs must be symbolic or explicit")
    raise ParseError(None, "missing rhs line")


def resolve_matrix(arg: str) -> RowFiniteMatrix:
    if arg.startswith("builtin:"):
        name = arg[len("builtin:"):]
        if name not in BUILTINS:
            raise ParseError(None, "unknown builtin %r" % name)
        return BUILTINS[name]()
    if arg in BUILTINS and not os.path.exists(arg):
        return BUILTINS[arg]()
    return parse_spec(_read_text("matrix", arg)).build()


def resolve_rhs(arg: str):
    if arg.startswith("symbolic:"):
        name = arg[len("symbolic:"):]
        if not name.isidentifier():
            raise ParseError(None, "bad symbol name %r" % name)
        return ("symbolic", name)
    return parse_rhs(_read_text("rhs", arg))


def _read_text(what: str, path: str) -> str:
    """The text of a UTF-8 file, whatever the locale; a file that cannot
    be opened or is not UTF-8 raises ParseError."""
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise ParseError(None, "cannot read %s %r: %s" % (what, path, exc))


# Columns per write of a dense TSV line: a line is built and written one
# window at a time, so memory stays bounded however far right a row reaches.
_TSV_WINDOW = 4096


def _write_line(out, pairs, texts, width: int) -> None:
    """Tab-separated columns 0..width-1 and a newline: texts[k] in the
    column of pairs[k] (sorted (column, value) pairs), 0 elsewhere, one
    window at a time."""
    texts = iter(texts)
    lo = 0
    for start in range(0, width, _TSV_WINDOW):
        stop = min(start + _TSV_WINDOW, width)
        hi = bisect_left(pairs, (stop,), lo)  # first pair at column >= stop
        cells = ["0"] * (stop - start)
        for (c, _), text in zip(pairs[lo:hi], texts):
            cells[c - start] = text
        lo = hi
        out.write(("\t" if start else "") + "\t".join(cells))
    out.write("\n")


def _write_packed_line(out, row: PackedRow, width: int) -> None:
    """The dense line of a packed row, from its reduced slot values: columns
    lo..lo+len(slots)-1 are the slots, the rest 0."""
    slots = row.slot_values()
    lo, hi = row.lo, row.lo + len(slots)
    for start in range(0, width, _TSV_WINDOW):
        stop = min(start + _TSV_WINDOW, width)
        a, b = min(max(lo, start), stop), max(min(hi, stop), start)  # a <= b
        cells = ["0"] * (a - start)
        cells += [str(v) for v in slots[a - lo:b - lo]]  # faster than map(str, ...)
        cells += ["0"] * (stop - b)
        out.write(("\t" if start else "") + "\t".join(cells))
    out.write("\n")


def _emit_rows(out, label: str, rows: List[Union[Row, PackedRow]]) -> None:
    width = max(1, dense_width(rows))
    print("# %s" % label, file=out)
    for r in rows:
        if isinstance(r, PackedRow):
            _write_packed_line(out, r, width)
        else:
            _write_line(out, *r.entry_texts(), width)


def _emit_pairs(out, label: str, pairs) -> None:
    print("# %s" % label, file=out)
    for a, b in pairs:
        print("%d\t%d" % (a, b), file=out)


# --emit name -> (JSON key, its JSON value built from the state, TSV writer);
# sparse rows are 'col:val' text in JSON and dense lines in TSV
_REDUCE_SECTIONS = {
    "rows": ("rows", lambda st: [str(r) for r in st.rows],
             lambda out, st: _emit_rows(out, "rows", st.rows)),
    "passage": ("passage", lambda st: [str(p) for p in st.passage],
                lambda out, st: _emit_rows(out, "passage", st.passage)),
    "pivots": ("pivots", lambda st: {str(col): idx for col, idx in sorted(st.pivots.items())},
               lambda out, st: _emit_pairs(out, "pivots", sorted(st.pivots.items()))),
    "history": ("pivot_history", lambda st: [-1 if c is None else c for c in st.pivot_history],
                lambda out, st: _emit_pairs(out, "history", (
                    (n, -1 if c is None else c) for n, c in enumerate(st.pivot_history)))),
    "last_changed": ("last_changed", lambda st: list(st.last_changed),
                     lambda out, st: _emit_pairs(out, "last_changed", enumerate(st.last_changed))),
}
_REDUCE_SECTIONS["pivot_history"] = _REDUCE_SECTIONS["history"]


def cmd_reduce(args, out) -> int:
    sections = [s.strip() for s in args.emit.split(",") if s.strip()]
    for s in sections:
        if s not in _REDUCE_SECTIONS:
            raise ParseError(None, "unknown emit section %r" % s)
    matrix = resolve_matrix(args.matrix)
    if args.strategy == "lps":
        print(
            "warning: leftmost pivots let early rows drift; "
            "prefixes may never stabilize",
            file=sys.stderr,
        )
    state = run_to(matrix, args.stages, args.strategy)
    if args.format == "json":
        import json  # kept out of a cold import of the CLI

        doc = {"stage": state.stage, "strategy": state.strategy}
        for s in sections:
            key, value, _ = _REDUCE_SECTIONS[s]
            doc[key] = value(state)
        print(json.dumps(doc), file=out)
    else:
        for s in sections:
            _REDUCE_SECTIONS[s][2](out, state)
    return 0


def cmd_qhf(args, out) -> int:
    matrix = resolve_matrix(args.matrix)
    rs = extended_run(matrix, args.stages)
    # Delta_k and the slot-level change index are one number (see reorder)
    delta = None if args.prefix is None else prefix_stability(rs, args.prefix)
    if args.format == "json":
        import json  # kept out of a cold import of the CLI

        doc = {
            "stage": rs.stage,
            "permutation": rs.permutation,
            "q_rows": [str(r) for r in rs.q_rows],
            "q_passage": [str(r) for r in rs.q_passage],
        }
        if args.prefix is not None:
            doc["prefix"] = args.prefix
            doc["delta"] = delta
            doc["last_change"] = delta
        print(json.dumps(doc), file=out)
        return 0
    _emit_rows(out, "q_rows", rs.q_rows)
    print("# permutation", file=out)
    print(" ".join(str(i) for i in rs.permutation), file=out)
    if args.prefix is not None:
        print("last_change_%d = %d" % (args.prefix, delta), file=out)
        print("delta_%d = %d" % (args.prefix, delta), file=out)
    return 0


def cmd_solve(args, out) -> int:
    matrix = resolve_matrix(args.matrix)
    # the rhs is checked first, so a bad one exits 2 without an elimination
    kind, payload = resolve_rhs(args.rhs)
    if kind == "symbolic":
        if payload == PARAMETER_NAMESPACE:
            raise ParseError(
                None, "rhs symbol %r is reserved for the solution parameters" % payload
            )
        rhs = payload
    else:
        try:
            rhs = [matrix.field.parse(v) for v in payload]
        except (ValueError, ZeroDivisionError) as exc:
            raise ParseError(None, "bad rhs value: %s" % exc)
    state = run_to(matrix, args.stages)
    k = transform_rhs(state.passage, rhs)
    horizon = args.horizon if args.horizon is not None else args.stages
    result = general_solution(state, k, horizon)
    if args.format == "json":
        import json  # kept out of a cold import of the CLI

        doc = {
            "constraints": [_constraint_text(f) for f in result.constraints],
            "general": [
                {
                    "column": j,
                    "value": str(result.general.entry(j)),
                    "provenance": result.general.provenance(j),
                }
                for j in range(horizon + 1)
            ],
            "deficiency": result.deficiency_over_horizon,
            "horizon": result.horizon,
        }
        print(json.dumps(doc), file=out)
    else:
        print("# constraints", file=out)
        for f in result.constraints:
            print(_constraint_text(f), file=out)
        print("# general", file=out)
        for j in range(horizon + 1):
            print(
                "x_%d = %s\t[%s]"
                % (j, result.general.entry(j), result.general.provenance(j)),
                file=out,
            )
        print("deficiency = %d" % result.deficiency_over_horizon, file=out)
    # a zero row whose right-hand side is a nonzero constant has no solution
    inconsistent = [
        w for w, r in enumerate(state.rows) if r.is_zero() and not k[w].blocks and k[w].constant
    ]
    for w in inconsistent:
        print(
            "inconsistent: row %d reduces to zero but its right-hand side to %s" % (w, k[w]),
            file=sys.stderr,
        )
    return 1 if inconsistent else 0


def _constraint_text(f: LinForm) -> str:
    # the greatest symbol leads: the last of the greatest namespace's row
    lead = None
    if f.blocks:
        ns = max(f.blocks)
        lead = (ns, f.blocks[ns].maxs)
    return f.render(leading=lead) + " = 0"


def cmd_verify(args, out) -> int:
    matrix = resolve_matrix(args.matrix)
    if args.check != "oracle" and args.strategy != "rps":
        raise ParseError(None, "check %s is defined for the rps strategy only" % args.check)
    # a failed form check names its first offending entry
    report = None
    if args.check == "lrrf":
        report = is_lrrf(run_to(matrix, args.stages, args.strategy).rows)
        ok = report.holds
    elif args.check == "qhf":
        report = is_qhf(extended_run(matrix, args.stages).q_rows)
        ok = report.holds
    elif args.check == "roweq":
        rs = extended_run(matrix, args.stages)
        ok = verify_row_equivalence(rs.q_passage, matrix, rs.q_rows, args.stages)
    else:
        state = run_to(matrix, args.stages, args.strategy)
        rows, passage, history = dense_reduce(
            [dict(r.support) for r in matrix.top_submatrix(args.stages)],
            matrix.field.p,
            leftmost=args.strategy == "lps",
        )
        ok = (
            [r.support for r in state.rows + state.passage]
            == [tuple(sorted(d.items())) for d in rows + passage]
            and state.pivot_history == history
            and state.pivots == {c: i for i, c in enumerate(history) if c is not None}
        )
    status = "ok" if ok else "failed"
    if report is not None and not ok:
        status += " at row %d, column %d" % report.witness
    print("check %s: %s" % (args.check, status), file=out)
    return 0 if ok else 1


def cmd_stability(args, out) -> int:
    matrix = resolve_matrix(args.matrix)
    state = run_to(matrix, args.stages, args.strategy)
    _emit_pairs(out, "last_changed", enumerate(state.last_changed))
    if args.prefix is not None:
        print(
            "prefix %d last_change = %d"
            % (args.prefix, prefix_stability(state, args.prefix)),
            file=out,
        )
        print(
            "prefix %d status = %s"
            % (args.prefix, certified_stable(state, args.prefix)),
            file=out,
        )
    return 0


def _integer(text: str) -> int:
    """An integer option: an optional sign and ASCII digits, the integer
    rule of the file grammar (int() also reads '1_0', ' 3' and '٣'); any
    other text gets argparse's own invalid int value error."""
    if not _INTEGER_TEXT.fullmatch(text):
        raise argparse.ArgumentTypeError("invalid int value: %r" % text)
    return int(text)


def build_parser(command: Optional[str] = None) -> argparse.ArgumentParser:
    """The parser of the five subcommands, or, when command names one of
    them, of that one alone: each option costs a HelpFormatter, and the
    other four would show in no text that command can print. Its usage
    line still lists all five, so help, usage and error text are those of
    the full parser."""
    handlers = {
        "reduce": cmd_reduce,
        "qhf": cmd_qhf,
        "solve": cmd_solve,
        "verify": cmd_verify,
        "stability": cmd_stability,
    }
    parser = argparse.ArgumentParser(
        prog="omegagj",
        description="Staged rightmost-pivot elimination of row-finite matrices.",
    )
    metavar = None
    if command in handlers:
        # the metavar argparse builds from all five; the full parser keeps
        # its own, since this one would rename the argument in its
        # invalid-choice error
        metavar = "{%s}" % ",".join(handlers)
        handlers = {command: handlers[command]}
    sub = parser.add_subparsers(dest="command", required=True, metavar=metavar)
    for name, fn in handlers.items():
        p = sub.add_parser(name)
        p.set_defaults(handler=fn)
        p.add_argument("matrix_pos", nargs="?", metavar="MATRIX", default=None)
        p.add_argument("--matrix", help="spec file, builtin name, or builtin:NAME")
        p.add_argument("--stages", type=_integer, required=True, metavar="N")
        if name in ("reduce", "verify", "stability"):
            p.add_argument("--strategy", choices=("rps", "lps"), default="rps")
        if name in ("reduce", "qhf", "solve"):
            p.add_argument("--format", choices=("tsv", "json"), default="tsv")
        if name == "reduce":
            p.add_argument("--emit", default="rows")
        if name in ("qhf", "stability"):
            p.add_argument("--prefix", type=_integer, default=None, metavar="K")
        if name == "solve":
            p.add_argument("--rhs", default="symbolic:c")
            p.add_argument("--horizon", type=_integer, default=None, metavar="H")
        if name == "verify":
            p.add_argument(
                "--check", choices=("lrrf", "qhf", "roweq", "oracle"), required=True
            )
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    args = build_parser(argv[0] if argv else None).parse_args(argv)
    matrix = args.matrix or args.matrix_pos
    try:
        if matrix is None:
            raise ParseError(None, "no matrix given (use --matrix or a positional name)")
        if args.stages < 0:
            raise ParseError(None, "--stages must be >= 0")
        prefix = getattr(args, "prefix", None)
        if prefix is not None and not 0 <= prefix <= args.stages:
            raise ParseError(None, "--prefix must be in 0..%d" % args.stages)
        if getattr(args, "horizon", None) is not None and args.horizon < 0:
            raise ParseError(None, "--horizon must be >= 0")
        args.matrix = matrix
        # every stage allocates tracked tuples and Fractions, so the cyclic
        # collector would run young collections that rescan the growing
        # state; a command makes no reference cycles beyond argparse's
        # parser (tests/test_gc_pause.py counts them), so it runs with the
        # collector paused and refcounting frees the rest
        enabled = gc.isenabled()
        gc.disable()
        try:
            return args.handler(args, sys.stdout)
        finally:
            if enabled:
                gc.enable()
    except ParseError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2
    except CertificateViolation as exc:
        print("certificate violation: %s" % exc, file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
