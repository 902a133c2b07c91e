"""Output checks that do not use omegagj: they read the emitted TSV only.

reduce: Q·A = H exactly against the benchmark's own rows of A, H in LRRF,
and the pivots section matching H. qhf: the rows are H permuted with zero
slots fixed, in QHF, and the prefix indices lie in range. solve: the
constraint count equals the number of zero rows of H and the deficiency is
horizon + 1 minus the pivots at or below the horizon.

Each check returns a list of failure messages; an empty list means it passed.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Dict, List, Optional, Tuple

SparseRow = Dict[int, object]


class Reference:
    """What the reduce output established, for the qhf and solve checks."""

    def __init__(self, rows: List[SparseRow]):
        self.rows = rows
        self.pivots = {max(r): i for i, r in enumerate(rows) if r}
        self.zero_rows = [i for i, r in enumerate(rows) if not r]


def _value(prime: Optional[int], tok: str):
    if prime is None:
        return Fraction(tok)
    return int(tok) % prime


def _sparse(prime: Optional[int], line: str) -> SparseRow:
    return {c: _value(prime, t) for c, t in enumerate(line.split("\t")) if t != "0"}


def _sections(text: str) -> Dict[str, List[str]]:
    out: Dict[str, List[str]] = {}
    current = None
    for line in text.splitlines():
        if line.startswith("# "):
            current = line[2:]
            out[current] = []
        elif current is not None:
            out[current].append(line)
    return out


def _lrrf_problems(rows: List[SparseRow]) -> List[str]:
    problems = []
    owner: Dict[int, int] = {}
    for i, r in enumerate(rows):
        if not r:
            continue
        m = max(r)
        if r[m] != 1:
            problems.append("row %d is not monic at its rightmost column %d" % (i, m))
        if m in owner:
            problems.append("rows %d and %d share pivot column %d" % (owner[m], i, m))
        owner[m] = i
    for i, r in enumerate(rows):
        for c in r:
            if c in owner and owner[c] != i:
                problems.append("pivot column %d of row %d is nonzero in row %d"
                                % (c, owner[c], i))
                break
    return problems


def check_reduce(text: str, a_rows: List[SparseRow], prime: Optional[int]
                 ) -> Tuple[List[str], Optional[Reference]]:
    sec = _sections(text)
    n = len(a_rows)
    problems = []
    for name in ("rows", "passage", "pivots"):
        if name not in sec:
            return ["missing section %r" % name], None
    if len(sec["rows"]) != n or len(sec["passage"]) != n:
        return ["expected %d rows and passage rows, got %d and %d"
                % (n, len(sec["rows"]), len(sec["passage"]))], None
    h = [_sparse(prime, line) for line in sec["rows"]]
    for i, line in enumerate(sec["passage"]):
        q = _sparse(prime, line)
        if not q:
            problems.append("passage row %d is zero" % i)
        acc: Dict[int, object] = {}
        for j, qv in q.items():
            if j >= n:
                problems.append("passage row %d uses input row %d beyond the stage" % (i, j))
                break
            for c, av in a_rows[j].items():
                acc[c] = acc.get(c, 0) + qv * av
        if prime is not None:
            acc = {c: v % prime for c, v in acc.items()}
        if {c: v for c, v in acc.items() if v} != h[i]:
            problems.append("(Q·A)[%d] differs from H[%d]" % (i, i))
    problems += _lrrf_problems(h)
    ref = Reference(h)
    pivots = {}
    for line in sec["pivots"]:
        col, idx = line.split("\t")
        pivots[int(col)] = int(idx)
    if pivots != ref.pivots:
        problems.append("pivots section disagrees with the rightmost columns of H")
    return problems, ref


def check_qhf(text: str, ref: Reference, prefix: int, prime: Optional[int]) -> List[str]:
    sec = _sections(text)
    if "q_rows" not in sec or "permutation" not in sec:
        return ["missing q_rows or permutation section"]
    n = len(ref.rows)
    q = [_sparse(prime, line) for line in sec["q_rows"]]
    tail = sec["permutation"]
    perm = [int(t) for t in tail[0].split()] if tail else []
    problems = []
    if len(q) != n or sorted(perm) != list(range(n)):
        return ["expected %d q_rows and a permutation of 0..%d" % (n, n - 1)]
    for i in range(n):
        if q[i] != ref.rows[perm[i]]:
            problems.append("q_rows[%d] is not H[%d]" % (i, perm[i]))
            break
    for w in ref.zero_rows:
        if perm[w] != w:
            problems.append("zero slot %d moved" % w)
    problems += _lrrf_problems(q)
    lengths = [max(r) for r in q if r]
    if any(b <= a for a, b in zip(lengths, lengths[1:])):
        problems.append("rightmost columns of nonzero q_rows do not increase")
    found = {}
    for line in tail[1:]:
        key, _, val = line.partition(" = ")
        found[key] = int(val)
    for key in ("last_change_%d" % prefix, "delta_%d" % prefix):
        if not prefix <= found.get(key, -1) < n:
            problems.append("%s missing or outside [%d, %d]" % (key, prefix, n - 1))
    return problems


def check_solve(text: str, ref: Reference, horizon: int) -> List[str]:
    sec = _sections(text)
    if "constraints" not in sec or "general" not in sec:
        return ["missing constraints or general section"]
    problems = []
    constraints = sec["constraints"]
    if len(constraints) != len(ref.zero_rows):
        problems.append("%d constraints for %d zero rows"
                        % (len(constraints), len(ref.zero_rows)))
    if any(not line.endswith(" = 0") for line in constraints):
        problems.append("a constraint line does not end in ' = 0'")
    general = sec["general"]
    if not general or not general[-1].startswith("deficiency = "):
        return problems + ["missing deficiency line"]
    xs = general[:-1]
    if len(xs) != horizon + 1 or any(
        not line.startswith("x_%d = " % j) for j, line in enumerate(xs)
    ):
        problems.append("general solution does not list x_0..x_%d in order" % horizon)
    expected = horizon + 1 - sum(1 for c in ref.pivots if c <= horizon)
    got = int(general[-1][len("deficiency = "):])
    if got != expected:
        problems.append("deficiency %d, expected %d" % (got, expected))
    return problems
