"""Independent reference implementations used to check the library.

Everything here is deliberately written in a different style from the
engine: rows are plain {column: value} dicts, and orderings are realized by
sorting with explicit comparison keys. The dense reduction itself is the
package's omegagj.canon.dense_reduce (the classic one-shot sweep with eager
column clearing, over dicts, sharing no code with the engine), which
`verify --check oracle` uses too. Agreement between these and the
incremental engine is one of the main test properties.

The exact residual verifier of symbolic solutions (verify_solution, with
its form arithmetic form_combination) and the spec renderer of the
round-trip tests (render_spec) are here too: no command needs them.
"""

from fractions import Fraction

from omegagj import IndexOutOfRange, LinForm, SymbolicSequence
from omegagj.canon import _dict_sub_scaled as _sub_scaled
from omegagj.canon import dense_reduce  # noqa: F401  (re-exported for the tests)
from omegagj.engine import certified_floor
from omegagj.scalars import check_same_field
from omegagj.solver import PARAMETER_NAMESPACE


def matmul_check(passage, inputs, outputs, p=None):
    """Does passage . inputs == outputs? All rows as dicts."""
    for i, q in enumerate(passage):
        acc = {}
        for j, coeff in q.items():
            _sub_scaled(acc, -coeff if p is None else (-coeff) % p, inputs[j], p)
        if acc != outputs[i]:
            return False
    return True


def combination_dict(ys, pairs, p=None):
    """ys plus the sum of lam * xs over (lam, xs) pairs of (column, value)
    supports, as a {column: value} dict built with Fraction operators (or
    int arithmetic mod p), one entry at a time, zeros dropped."""
    acc = dict(ys)
    for lam, xs in pairs:
        for c, v in xs:
            nv = acc.get(c, 0) + lam * v
            if p is not None:
                nv %= p
            if nv:
                acc[c] = nv
            else:
                del acc[c]
    return acc


def is_lrrf_dict(rows, p=None, lead=max, witness=False):
    """Direct scan: every pivot (rightmost, or lead) coefficient is one and
    its column is zero in all other rows. With witness, the first offending
    (row, column) instead, or None: the first row whose pivot is not one,
    else the least (row, column) of a pivot column held by another row."""
    one = Fraction(1) if p is None else 1 % p
    cols = {}
    for i, r in enumerate(rows):
        if not r:
            continue
        col = lead(r)
        if r[col] != one:
            return (i, col) if witness else False
        cols[col] = i
    held = [(i, col) for col, owner in cols.items()
            for i, r in enumerate(rows) if i != owner and r.get(col)]
    return min(held, default=None) if witness else not held


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


def render_form(form, leading=None):
    """A LinForm's text built one signed term at a time, reading each sign
    from the value's str (so rationals show it and residues, never
    negative, do not): terms sorted by symbol, leading pulled to the front,
    the constant last when it is nonzero or there are no terms."""

    def signed(c, sym, first):
        body = str(c)
        negative = body[0] == "-"
        if negative:
            body = body[1:]
        if sym is not None:
            body = sym if body == "1" else "%s*%s" % (body, sym)
        if first:
            return "-" + body if negative else body
        return (" - " if negative else " + ") + body

    items = sorted(form.terms.items())
    if leading is not None and leading in form.terms:
        items = [(leading, form.terms[leading])] + [it for it in items if it[0] != leading]
    parts = []
    for (ns, idx), c in items:
        parts.append(signed(c, "%s_%d" % (ns, idx), first=not parts))
    if form.constant or not parts:
        parts.append(signed(form.constant, None, first=not parts))
    return "".join(parts)


def render_fraction_blocks(constant, blocks, leading=None):
    """The text of constant + sum of v * ns_i over {ns: [(i, v)]} blocks of
    nonzero Fractions, written from each value's numerator and denominator
    in lowest terms: a sign joins each term (a leading '-' on the first),
    a magnitude of one is left out, terms follow (ns, i) order with leading
    pulled to the front, and the constant comes last when it is nonzero or
    there is no term."""

    def magnitude(v):
        v = Fraction(v)
        n, d = abs(v.numerator), v.denominator
        return "%d" % n if d == 1 else "%d/%d" % (n, d)

    coeffs = {(ns, i): v for ns, support in blocks.items() for i, v in support}
    order = sorted(coeffs)
    if leading in coeffs:
        order.remove(leading)
        order.insert(0, leading)
    parts = []
    for ns, i in order:
        v = coeffs[(ns, i)]
        body = magnitude(v)
        sym = "%s_%d" % (ns, i)
        parts.append((v < 0, sym if body == "1" else "%s*%s" % (body, sym)))
    if constant or not parts:
        parts.append((constant < 0, magnitude(constant)))
    out = []
    for k, (negative, text) in enumerate(parts):
        if k == 0:
            out.append("-" + text if negative else text)
        else:
            out.append((" - " if negative else " + ") + text)
    return "".join(out)


def format_value(v):
    """The canonical text of a raw value, built from its parts: 'p/q' for a
    non-integral rational in lowest terms, otherwise the bare integer (an
    integral rational or a GF(p) residue)."""
    if isinstance(v, Fraction):
        n, d = v.numerator, v.denominator
        return "%d" % n if d == 1 else "%d/%d" % (n, d)
    return "%d" % v


def homogeneous_solution(state, horizon):
    """General solution of the homogeneous system through the horizon.

    The idx-th free column (one no pivot pins) holds the parameter t_idx;
    the pivot column col of row i holds minus each other entry of the row
    times its column's parameter. Under rightmost pivots those other
    columns are free and left of col; leftmost pivots raise ValueError.
    """
    if state.strategy != "rps":
        raise ValueError("symbolic solutions need rightmost pivots")
    F = state.field
    free = [j for j in range(horizon + 1) if j not in state.pivots]
    slot = {j: idx for idx, j in enumerate(free)}
    entries = {j: LinForm.symbol(F, "t", idx) for j, idx in slot.items()}
    for col, i in state.pivots.items():
        if col <= horizon:
            terms = {("t", slot[c]): F.neg(v) for c, v in state.rows[i].support if c != col}
            entries[col] = LinForm(F, terms=terms)
    return SymbolicSequence(F, entries, free, horizon, state.stage, certified_floor(state))


def particular_solution(state, k, horizon=None):
    """One solution: k[i] at the pivot column of each row i through the
    horizon (by default the largest pivot column), zero elsewhere."""
    if horizon is None:
        horizon = max(state.pivots) if state.pivots else -1
    entries = {col: k[i] for col, i in state.pivots.items() if col <= horizon}
    return SymbolicSequence(state.field, entries, [], horizon, state.stage, certified_floor(state))


def form_combination(field, pairs):
    """Sum of lam * form over (lam, form) pairs of LinForms, built in one
    dict through the field's add and mul."""
    add, mul = field.add, field.mul
    zero = field.zero()
    constant = zero
    terms = {}
    for lam, form in pairs:
        if not lam:
            continue
        check_same_field(field, form.field)
        if form.constant:
            constant = add(constant, mul(lam, form.constant))
        for s, c in form.terms.items():
            v = add(terms.get(s, zero), mul(lam, c))
            if v:
                terms[s] = v
            else:
                terms.pop(s, None)
    return LinForm(field, constant, terms)


def substitute(form, values, p=None):
    """The value of a form over one namespace once each symbol ns_j is
    replaced by values[j] (zero past the end of the sequence), with
    Fraction operators (or int arithmetic mod p)."""
    acc = form.constant
    for (_, j), coeff in form.terms.items():
        if j < len(values):
            acc = acc + coeff * values[j]
    return acc if p is None else acc % p


def _leads(constraints):
    """Constraints spanning the same forms as the given ones, keyed by
    their distinct leading (largest) symbols.

    Each constraint is reduced by the ones kept before it, so its lead is
    new; one that reduces to a constant has no lead and is dropped.
    """
    leads = {}
    for c in constraints:
        c = _reduce_modulo(c, leads)
        if c.terms:
            leads[max(c.terms)] = c
    return leads


def _reduce_modulo(form, leads):
    """Subtract from the form the multiple of leads[s] that clears s, for
    each lead s, largest first; a lead's constraint has no larger symbol,
    so no cleared symbol comes back."""
    F = form.field
    for sym in sorted(leads, reverse=True):
        coeff = form.terms.get(sym)
        if coeff is None:
            continue
        c = leads[sym]
        # form - (coeff / c[sym]) * c has no sym term
        lam = F.neg(F.mul(coeff, F.inv(c.terms[sym])))
        form = form_combination(F, ((F.one(), form), (lam, c)))
    return form


def _rhs_form(F, c, i):
    """Entry i of a right-hand side as a form: the symbol c_i for a
    namespace, c(i) for a callable, c[i] for a sequence (zero past its end)."""
    if isinstance(c, str):
        return LinForm.symbol(F, c, i)
    return LinForm.const(F, c(i) if callable(c) else c[i] if i < len(c) else F.zero())


def verify_solution(matrix, x, c, horizon, constraints=None):
    """Check rows 0..horizon of the system against a candidate solution.

    The residual of each row must vanish identically after reduction
    modulo the constraints, that is, lie in their span. A symbolic ``c`` in
    the parameter namespace raises ValueError, as in transform_rhs.
    """
    if c == PARAMETER_NAMESPACE:
        raise ValueError("rhs namespace %r is reserved for the solution parameters" % c)
    F = x.field
    minus_one = F.neg(F.one())
    leads = _leads(constraints or [])
    for i in range(horizon + 1):
        try:
            pairs = [(v, x.entry(j)) for j, v in matrix.row_at(i).support]
        except IndexOutOfRange:
            return False
        pairs.append((minus_one, _rhs_form(F, c, i)))
        if not _reduce_modulo(form_combination(F, pairs), leads).is_zero():
            return False
    return True


def pairs_text(pairs):
    """Space-separated 'index:value' tokens of (index, raw value) pairs."""
    return " ".join("%d:%s" % (i, format_value(v)) for i, v in pairs)


def render_spec(spec):
    """Canonical text for a cli.MatrixSpec: parse_spec(render_spec(s))
    has the attributes of s."""
    F = spec.field
    lines = [
        "field rational" if F.p is None else "field gf %d" % F.p,
        "kind %s" % spec.kind,
    ]
    if spec.kind == "stencil":
        lines.append("stencil " + pairs_text(sorted(spec.body)))
    elif spec.kind == "explicit":
        for k in sorted(spec.body):
            lines.append(("row %d " % k + pairs_text(sorted(spec.body[k]))).rstrip())
        lines.append("tail zero")
    else:
        lines.append("builtin %s" % spec.body)
    if spec.floor is not None:
        a, b = spec.floor
        lines.append("floor m*%d%s" % (a, "%+d" % b if b else ""))
    return "\n".join(lines) + "\n"
