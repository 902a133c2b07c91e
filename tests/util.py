"""Small conversion helpers shared by the test modules."""

from fractions import Fraction

from hypothesis import strategies as st

from omegagj import RATIONAL, Field, Row


def mk_row(field: Field, entries) -> Row:
    """Build a Row from a {col: value} dict (or pair iterable)."""
    if isinstance(entries, dict):
        entries = entries.items()
    return Row.from_pairs(field, entries)


def mk_rows(field: Field, dicts):
    return [mk_row(field, d) for d in dicts]


def parse_row(field: Field, text: str) -> Row:
    """Parse the sparse text form 'col:val col:val' that str(Row) prints;
    empty text is the zero row."""
    pairs = []
    for tok in text.split():
        col_s, _, val_s = tok.partition(":")
        pairs.append((int(col_s), field.parse(val_s)))
    return Row.from_pairs(field, pairs)


def row_dict(r: Row) -> dict:
    """Sparse {col: raw value} image of a Row."""
    return dict(r.support)


def rows_dicts(rows) -> list:
    return [row_dict(r) for r in rows]


def random_dict_rows(rng, n, max_cols, max_support, p=None):
    """Random sparse rows as dicts; zero rows appear with probability ~1/5."""
    rows = []
    for _ in range(n):
        if rng.random() < 0.2:
            rows.append({})
            continue
        support = rng.sample(range(max_cols), rng.randint(1, max_support))
        row = {}
        for c in support:
            if p is None:
                v = Fraction(rng.randint(-6, 6), rng.randint(1, 4))
            else:
                v = rng.randrange(p)
            if v:
                row[c] = v
        rows.append(row)
    return rows


def field_for(p=None) -> Field:
    return RATIONAL if p is None else Field.gf(p)


GF_PRIME = 32003


def gf_band_text(n=40):
    """A banded GF(32003) matrix file with empty rows and repeated
    combinations, so both kinds of zero reduced rows and solve constraints
    appear."""
    rows = []
    lines = ["field gf %d" % GF_PRIME, "kind explicit"]
    for k in range(n + 1):
        if k % 9 == 4:
            row = {}
        elif k % 7 == 6:
            row = {}
            for lam, src in ((3, rows[k - 2]), (GF_PRIME - 5, rows[k - 5])):
                for c, v in src.items():
                    row[c] = (row.get(c, 0) + lam * v) % GF_PRIME
            row = {c: v for c, v in row.items() if v}
        else:
            row = {k + o: (7919 * k * k + 104729 * o + 1) % GF_PRIME for o in range(4)}
            row = {c: v for c, v in row.items() if v}
        rows.append(row)
        if row:
            lines.append("row %d %s" % (k, " ".join("%d:%d" % cv for cv in sorted(row.items()))))
    lines.append("tail zero")
    return "\n".join(lines) + "\n"


@st.composite
def dict_matrices(draw):
    """(p, rows): p is None for the rationals, else a prime whose packed
    passage slots are 64 (2, 32003) or 192 (2^61 - 1, and the largest
    prime the field accepts) bits wide; rows are zero-free {column: value}
    dicts, empty ones included."""
    p = draw(st.sampled_from([None, 2, 32003, 2**61 - 1, 318665857834031151167441]))
    if p is None:
        values = st.fractions(min_value=-5, max_value=5, max_denominator=4)
    else:
        values = st.integers(0, p - 1)
    rows = draw(
        st.lists(
            st.dictionaries(st.integers(0, 11), values, max_size=5),
            min_size=1,
            max_size=10,
        )
    )
    return p, [{c: v for c, v in r.items() if v} for r in rows]
