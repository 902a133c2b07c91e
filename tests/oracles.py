"""Independent reference implementations used to check the library.

Everything here is deliberately written in a different style from the
engine: rows are plain {column: value} dicts, and orderings are realized by
sorting with explicit comparison keys. The dense reduction itself is the
package's omegagj.canon.dense_reduce (the classic one-shot sweep with eager
column clearing, over dicts, sharing no code with the engine), which
`verify --check oracle` uses too. Agreement between these and the
incremental engine is one of the main test properties.
"""

from fractions import Fraction

from omegagj.canon import _dict_sub_scaled as _sub_scaled
from omegagj.canon import dense_reduce  # noqa: F401  (re-exported for the tests)


def matmul_check(passage, inputs, outputs, p=None):
    """Does passage . inputs == outputs? All rows as dicts."""
    for i, q in enumerate(passage):
        acc = {}
        for j, coeff in q.items():
            _sub_scaled(acc, -coeff if p is None else (-coeff) % p, inputs[j], p)
        if acc != outputs[i]:
            return False
    return True


def is_lrrf_dict(rows, p=None, lead=max):
    """Direct scan: every pivot (rightmost, or lead) coefficient is one and
    its column is zero in all other rows."""
    one = Fraction(1) if p is None else 1 % p
    cols = {}
    for i, r in enumerate(rows):
        if not r:
            continue
        col = lead(r)
        if r[col] != one:
            return False
        cols[col] = i
    for col, owner in cols.items():
        for i, r in enumerate(rows):
            if i != owner and r.get(col):
                return False
    return True


def is_lref_dict(rows, lead=max):
    prev = -1
    for r in rows:
        if not r:
            continue
        col = lead(r)
        if col <= prev:
            return False
        prev = col
    return True


def is_urrf_dict(rows, p=None):
    """The upper mirror of LRRF, which leftmost pivots build."""
    return is_lrrf_dict(rows, p, lead=min)


def is_uref_dict(rows):
    """The upper mirror of LREF: leftmost indices strictly increase."""
    return is_lref_dict(rows, lead=min)


def is_hermite_basis(rows):
    """The paper's Hermite basis: strictly increasing lengths, monic
    rightmost entries, and zeros below each rightmost one."""
    prev = -1
    for j, r in enumerate(rows):
        if not r:
            continue
        col = max(r)
        if col <= prev or r[col] != 1:
            return False
        prev = col
        if any(later.get(col) for later in rows[j + 1:]):
            return False
    return True


class NonIncreasingLengths(Exception):
    """Raised when representative rows are not strictly increasing in length."""


def fulkerson_recurrence(reps):
    """The paper's length recurrence: rebuild the monic basis from one
    representative row of each length.

    Representative j is reduced by the already-built rows using its own
    original coefficients at their pivot columns, then divided by its own
    rightmost coefficient. Rows are {column: Fraction} dicts.
    """
    out, pivots, prev = [], [], -1
    for j, a in enumerate(reps):
        if not a or max(a) <= prev:
            raise NonIncreasingLengths("representative %d breaks the order" % j)
        prev = max(a)
        acc = dict(a)
        for col, built in zip(pivots, out):
            if a.get(col):
                _sub_scaled(acc, a[col], built)
        pivots.append(prev)
        out.append({c: v / a[prev] for c, v in acc.items()})
    return out


def prec1_key(pair):
    i, j = pair
    return (i + j, j)


def prec2_key(pair):
    i, j = pair
    d = i + j
    return (d, i if d % 2 else j)


def enumerate_pairs(key, max_degree):
    """All exponent pairs of degree <= max_degree, listed in order."""
    pairs = [
        (i, d - i)
        for d in range(max_degree + 1)
        for i in range(d + 1)
    ]
    return sorted(pairs, key=key)


def fulkerson_row(k):
    """The k-th row of the Fulkerson example, re-derived from its formulas."""
    if k == 1:
        return {}
    if k % 2 == 0:
        n = k // 2
        if n == 0:
            return {2: Fraction(1), 3: Fraction(1)}
        if n == 1:
            return {3: Fraction(1), 5: Fraction(1), 6: Fraction(1)}
        return {3: Fraction(1), 6: Fraction(1), 3 * n + 2: Fraction(1),
                3 * n + 3: Fraction(1)}
    n = k // 2
    acc = {}
    _sub_scaled(acc, Fraction(-(n + 1)), fulkerson_row(2 * n))
    for i in range(n):
        _sub_scaled(acc, Fraction(-1), fulkerson_row(2 * i))
    return acc


class ReorderReference:
    """The reorder pass recomputed from scratch after every stage.

    record() re-sorts every nonzero row by rightmost index, compares every
    slot of the new view with the previous one, and appends the running
    maximum of the rightmost indices over each prefix to m_history; rows are
    {column: value} dicts. drop_stability(k) scans that history for Delta_k.
    """

    def __init__(self):
        self.permutation = []
        self.q_rows = []
        self.q_passage = []
        self.last_changed = []
        self.m_history = []

    def record(self, stage, rows, passage):
        nonzero = [i for i, r in enumerate(rows) if r]
        perm = list(range(len(rows)))
        for slot, src in zip(nonzero, sorted(nonzero, key=lambda i: max(rows[i]))):
            perm[slot] = src
        q = [rows[i] for i in perm]
        for i, r in enumerate(q):
            if i >= len(self.last_changed):
                self.last_changed.append(stage)
            elif self.q_rows[i] != r:
                self.last_changed[i] = stage
        self.permutation = perm
        self.q_rows = q
        self.q_passage = [passage[i] for i in perm]
        running, cur = [], -1
        for r in q:
            if r and max(r) > cur:
                cur = max(r)
            running.append(cur)
        self.m_history.append(running)

    def drop_stability(self, k):
        """Last stage at which the running maximum of prefix 0..k strictly
        dropped, and at least k."""
        delta = k
        for s in range(k + 1, len(self.m_history)):
            if self.m_history[s][k] < self.m_history[s - 1][k]:
                delta = s
        return delta
