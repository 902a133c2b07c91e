"""Benchmark workloads: one matrix each, with rows the benchmark builds itself.

Every workload names the argument the program receives (a builtin name or a
generated matrix file) and gives the benchmark its own copy of input rows
0..N, written from the documented definitions without importing omegagj, so
the output check never trusts the engine for the matrix it was asked to
reduce.
"""

from __future__ import annotations

import math
import random
from typing import Dict, List, Optional

GF_PRIME = 32003

# Stage counts keep one round of reduce, qhf and solve near 0.8 seconds on a
# 2-vCPU VM, so a 25-second run takes about thirty samples per command.
STAGES = {"bidiag": 190, "pde": 160, "gfp-band": 300, "fulkerson": 100}

# gfp-band shape: each row fills columns k..k+BAND-1 with random residues.
# Each block of BLOCK rows holds one omitted row (a zero input row) and one
# combination of two of the previous 2*BAND rows, at random places, so both
# kinds of zero reduced rows and their solve constraints appear at the same
# rate and with the same reach whatever the seed.
BAND = 6
BLOCK = 25


class Workload:
    """One benchmark input: how the program sees it and the rows it stands for.

    prime is None for the rationals. rows[k] maps column -> value (int for
    the rationals, residue for GF(p)) for input rows 0..stages.
    """

    def __init__(self, name: str, stages: int, prime: Optional[int],
                 rows: List[Dict[int, int]], matrix_text: Optional[str] = None):
        self.name = name
        self.stages = stages
        self.prime = prime
        self.rows = rows
        self.matrix_text = matrix_text

    def argv(self, command: str, matrix_arg: str) -> List[str]:
        n = str(self.stages)
        if command == "reduce":
            return ["reduce", matrix_arg, "--stages", n, "--emit", "rows,passage,pivots"]
        if command == "qhf":
            return ["qhf", matrix_arg, "--stages", n, "--prefix", str(self.prefix)]
        return ["solve", matrix_arg, "--stages", n, "--rhs", "symbolic:c", "--horizon", n]

    @property
    def prefix(self) -> int:
        return self.stages // 2


COMMANDS = ("reduce", "qhf", "solve")


def build(name: str, seed: int, stages: Optional[int] = None) -> Workload:
    """The workload called name; only gfp-band depends on the seed."""
    n = STAGES[name] if stages is None else stages
    if name == "bidiag":
        rows = [{k: 1, k + 1: 1} for k in range(n + 1)]
        return Workload(name, n, None, rows)
    if name == "pde":
        return Workload(name, n, None, [_pde_row(k) for k in range(n + 1)])
    if name == "fulkerson":
        return Workload(name, n, None, _fulkerson_rows(n))
    if name == "gfp-band":
        rows = _band_rows(n, seed)
        return Workload(name, n, GF_PRIME, rows, _explicit_text(GF_PRIME, rows))
    raise ValueError("unknown workload %r" % name)


def matrix_text(name: str, seed: int):
    """The matrix file a user would write for this workload; None for a builtin."""
    if name != "gfp-band":
        return None
    return _explicit_text(GF_PRIME, _band_rows(STAGES[name], seed))


def _pde_row(k: int) -> Dict[int, int]:
    """Image of the k-th domain monomial under the derivation operator.

    Domain monomials x^i y^j are listed by degree, ties broken by ascending i
    in odd degrees and ascending j in even ones; image coordinates are listed
    by degree with ties broken by ascending j. x^i y^j maps to
    ij x^{i+1}y^{j-1} + ij x^i y^j + ij x^{i-1}y^{j+1} + j x^{i+1}y^j + i x^i y^{j+1}.
    """
    d = (math.isqrt(8 * k + 1) - 1) // 2
    r = k - d * (d + 1) // 2
    i, j = (r, d - r) if d % 2 else (d - r, r)
    out: Dict[int, int] = {}
    for coeff, a, b in ((i * j, i + 1, j - 1), (i * j, i, j), (i * j, i - 1, j + 1),
                        (j, i + 1, j), (i, i, j + 1)):
        if coeff and a >= 0 and b >= 0:
            e = a + b
            col = e * (e + 1) // 2 + b
            out[col] = out.get(col, 0) + coeff
    return {c: v for c, v in out.items() if v}


def _fulkerson_even(m: int) -> Dict[int, int]:
    if m == 0:
        return {2: 1, 3: 1}
    if m == 1:
        return {3: 1, 5: 1, 6: 1}
    return {3: 1, 6: 1, 3 * m + 2: 1, 3 * (m + 1): 1}


def _fulkerson_rows(n: int) -> List[Dict[int, int]]:
    """Row 2m is given directly; row 2m+1 = (m+1)*row 2m + sum of rows 0, 2, .., 2(m-1),
    and row 1 is zero. The running sum of even rows keeps this linear."""
    rows: List[Dict[int, int]] = []
    even_sum: Dict[int, int] = {}
    m = 0
    while len(rows) <= n:
        even = _fulkerson_even(m)
        rows.append(even)
        if m == 0:
            odd: Dict[int, int] = {}
        else:
            odd = dict(even_sum)
            for c, v in even.items():
                odd[c] = odd.get(c, 0) + (m + 1) * v
        rows.append(odd)
        for c, v in even.items():
            even_sum[c] = even_sum.get(c, 0) + v
        m += 1
    return rows[: n + 1]


def _band_rows(n: int, seed: int) -> List[Dict[int, int]]:
    rng = random.Random(seed)
    zero, combined = set(), set()
    for start in range(2 * BAND, n + 1 - BLOCK, BLOCK):
        z, c = rng.sample(range(start, start + BLOCK), 2)
        zero.add(z)
        combined.add(c)
    rows: List[Dict[int, int]] = []
    for k in range(n + 1):
        if k in zero:
            rows.append({})
        elif k in combined:
            i, j = rng.sample([t for t in range(k - 2 * BAND, k) if rows[t]], 2)
            a, b = rng.randrange(1, GF_PRIME), rng.randrange(1, GF_PRIME)
            acc: Dict[int, int] = {}
            for lam, src in ((a, rows[i]), (b, rows[j])):
                for c, v in src.items():
                    acc[c] = (acc.get(c, 0) + lam * v) % GF_PRIME
            rows.append({c: v for c, v in acc.items() if v})
        else:
            rows.append({k + o: rng.randrange(1, GF_PRIME) for o in range(BAND)})
    return rows


def _explicit_text(prime: int, rows: List[Dict[int, int]]) -> str:
    lines = ["field gf %d" % prime, "kind explicit"]
    for k, row in enumerate(rows):
        if row:
            lines.append("row %d %s" % (k, " ".join("%d:%d" % cv for cv in sorted(row.items()))))
    lines.append("tail zero")
    return "\n".join(lines) + "\n"
