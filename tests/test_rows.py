from decimal import Decimal
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from math import gcd

from omegagj import Field, FieldMismatch, RATIONAL, Row
from omegagj.engine import EliminationState, step
from omegagj.rows import axpy_raw, dense_width, passage_unit
from oracles import combination_dict
from util import mk_row, parse_row, row_dict

GF7 = Field.gf(7)

sparse_dicts = st.dictionaries(
    st.integers(0, 30),
    st.fractions(min_value=Fraction(-9), max_value=Fraction(9), max_denominator=6),
    max_size=8,
).map(lambda d: {c: v for c, v in d.items() if v})


def test_from_pairs_sorts_accumulates_and_drops_zeros():
    r = Row.from_pairs(
        RATIONAL,
        [(5, Fraction(2)), (1, Fraction(3)), (5, Fraction(-2)), (0, Fraction(1))],
    )
    assert r.support == ((0, Fraction(1)), (1, Fraction(3)))


@pytest.mark.parametrize("val", [0.5, "1/2", Decimal("0.5"), None], ids=repr)
def test_from_pairs_rejects_non_rational_values(val):
    with pytest.raises(ValueError, match="column 0"):
        Row.from_pairs(RATIONAL, [(0, val)])


@pytest.mark.parametrize("col", [-1, 1.0, True, "1"], ids=repr)
def test_from_pairs_rejects_non_natural_columns(col):
    # from_pairs checks each pair once and skips the constructor's check,
    # so it must reject what the constructor would
    with pytest.raises(ValueError, match="negative or non-integer column"):
        Row.from_pairs(RATIONAL, [(col, 1)])
    with pytest.raises(ValueError, match="negative or non-integer column"):
        Row.from_pairs(GF7, [(0, 1), (col, 1)])


def test_from_pairs_converts_ints_to_fractions():
    r = Row.from_pairs(RATIONAL, [(1, 3), (0, True)])
    assert [type(v) for _, v in r.support] == [Fraction, Fraction]
    assert r.support == ((0, Fraction(1)), (1, Fraction(3)))


@pytest.mark.parametrize(
    "support,reason",
    [(((3, Fraction(1)), (1, Fraction(2))), "increasing"), (((0, 1),), "Fraction")],
    ids=["unsorted", "q-int"],
)
def test_constructor_rejects_non_canonical_support(support, reason):
    with pytest.raises(ValueError, match=reason) as info:
        Row(RATIONAL, support)
    assert repr(support[-1]) in str(info.value)


@pytest.mark.parametrize(
    "support,reason",
    [([(0, Fraction(1))], "list, not a tuple"),
     (([0, Fraction(1)],), "not a \\(column, value\\) tuple"),
     (((0, Fraction(1), 2),), "not a \\(column, value\\) tuple")],
    ids=["list-support", "list-entry", "triple-entry"],
)
def test_constructor_rejects_non_tuple_containers(support, reason):
    # a list support once built a Row that compared unequal to the same
    # tuple support and could not be hashed
    with pytest.raises(ValueError, match=reason):
        Row(RATIONAL, support)


def test_axpy_operand_with_int_value_is_rejected_where_built():
    # once this failed only inside the kernel, as an AttributeError
    with pytest.raises(ValueError, match="entry"):
        axpy_raw(Fraction(2), Row(RATIONAL, ((0, 1),)), Row.unit(RATIONAL, 0))


def test_zero_and_unit_rows():
    z = Row.zero(RATIONAL)
    assert z.is_zero() and z.maxs is None
    e3 = Row.unit(RATIONAL, 3)
    assert row_dict(e3) == {3: Fraction(1)}
    assert e3.maxs == 3


def test_accessors():
    r = mk_row(RATIONAL, {2: Fraction(5), 7: Fraction(-1, 3)})
    assert r.maxs == 7
    assert r.raw(2) == 5
    assert r.raw(3) == 0
    assert r.raw(7) == Fraction(-1, 3)
    assert r.raw(99) == 0


def test_equality_hash_and_cross_field():
    a = mk_row(RATIONAL, {1: Fraction(2)})
    b = Row.from_pairs(RATIONAL, [(1, Fraction(4, 2))])
    assert a == b and hash(a) == hash(b)
    with pytest.raises(FieldMismatch):
        a == mk_row(GF7, {1: 2})


def test_add_combination_gathers_rows_by_index():
    y = mk_row(RATIONAL, {0: 1, 3: 2})
    rows = [mk_row(RATIONAL, d) for d in ({0: 1, 1: 1}, {3: 1}, {1: 1})]
    got = y.add_combination([(0, Fraction(-1)), (1, Fraction(-2)), (2, Fraction(1))], rows)
    assert got.is_zero()
    assert y.add_combination([], rows) is y
    assert row_dict(y.add_combination([(2, Fraction(1, 2))], rows)) == {
        0: 1, 1: Fraction(1, 2), 3: 2}
    with pytest.raises(FieldMismatch):
        y.add_combination([(0, Fraction(1)), (1, Fraction(1))], [rows[0], mk_row(GF7, {3: 1})])


def test_normalized_scales_by_the_inverse_lead():
    # a Row over GF(p) is divided by its lead entry, which returns the
    # inverse; a lead of one returns the row itself. A row is scaled by
    # adding it, times lam, to the zero row
    r = mk_row(GF7, {0: 2, 4: 3})
    unit, inv = r.normalized(2)
    assert inv == 4 and row_dict(unit) == {0: 1, 4: 5}
    # built without the constructor's check, so it must pass it
    Row(GF7, unit.support)
    assert row_dict(r.normalized(3)[0]) == {0: 3, 4: 1}
    assert r.normalized(1) == (r, 1) and r.normalized(1)[0] is r
    s = mk_row(RATIONAL, {0: Fraction(2), 4: Fraction(-3)})
    zero = Row.zero(RATIONAL)
    half = zero.add_combination(((0, Fraction(1, 2)),), [s])
    assert row_dict(half) == {0: Fraction(1), 4: Fraction(-3, 2)}
    assert (half.den, half.nums) == (2, ((0, 2), (4, -3)))
    assert zero.add_combination(((0, Fraction(0)),), [s]).is_zero()


def test_axpy_cancellation():
    x = mk_row(RATIONAL, {0: Fraction(1), 2: Fraction(1)})
    y = mk_row(RATIONAL, {2: Fraction(3), 5: Fraction(1)})
    out = axpy_raw(Fraction(-3), x, y)
    assert row_dict(out) == {0: Fraction(-3), 5: Fraction(1)}
    assert axpy_raw(Fraction(0), x, y) is y


def test_axpy_gf_wraps():
    x = mk_row(GF7, {1: 3})
    y = mk_row(GF7, {1: 4})
    assert axpy_raw(1, x, y).is_zero()


@settings(deadline=None)
@given(sparse_dicts, sparse_dicts, st.fractions(max_denominator=6))
def test_axpy_matches_dict_arithmetic(dx, dy, lam):
    x, y = mk_row(RATIONAL, dx), mk_row(RATIONAL, dy)
    out = axpy_raw(lam, x, y)
    assert row_dict(out) == combination_dict(dy, [(lam, dx.items())] if lam else [])
    _assert_canonical(out)


def _field_dicts(p):
    values = (
        st.fractions(min_value=Fraction(-9), max_value=Fraction(9), max_denominator=6)
        if p is None
        else st.integers(0, p - 1)
    )
    return st.dictionaries(st.integers(0, 30), values, max_size=8).map(
        lambda d: {c: v for c, v in d.items() if v}
    )


@pytest.mark.parametrize("p", [None, 2, 32003], ids=["rational", "gf2", "gf32003"])
def test_field_kernels_match_dict_arithmetic(p):
    """axpy and scaling, including the lam = 1 and lam = -1 shortcuts, on
    each field's Rows; over GF(p) normalized by lam's inverse scales too."""
    field = RATIONAL if p is None else Field.gf(p)
    lams = st.sampled_from([1, -1, 2, Fraction(-7, 3)]) if p is None else st.integers(0, p - 1)

    def reduce(v):
        return v if p is None else v % p

    @settings(deadline=None)
    @given(_field_dicts(p), _field_dicts(p), lams)
    def check(dx, dy, lam):
        lam = field.from_int(lam) if isinstance(lam, int) else lam
        x, y = mk_row(field, dx), mk_row(field, dy)
        expect = dict(dy)
        for c, v in dx.items():
            nv = reduce(expect.get(c, 0) + lam * v)
            if nv:
                expect[c] = nv
            else:
                expect.pop(c, None)
        out = axpy_raw(lam, x, y)
        scaled_rows = [Row.zero(field).add_combination(((0, lam),), [x])]
        if p is not None and lam:
            scaled_rows.append(x.normalized(field.inv(lam))[0])
        assert row_dict(out) == expect
        scaled = {c: reduce(lam * v) for c, v in dx.items()} if lam else {}
        for r in [out] + scaled_rows:
            # built without the constructor's check, so it must pass it
            Row(field, r.support)
        assert all(row_dict(r) == scaled for r in scaled_rows)

    check()


def test_parse_and_str_round_trip():
    text = "0:1 3:-2/5 9:4"
    r = parse_row(RATIONAL, text)
    assert str(r) == text
    assert parse_row(RATIONAL, "").is_zero()
    assert str(Row.zero(RATIONAL)) == ""
    assert str(parse_row(GF7, "2:9")) == "2:2"


@settings(deadline=None)
@given(sparse_dicts)
def test_str_parse_identity(d):
    r = mk_row(RATIONAL, d)
    assert parse_row(RATIONAL, str(r)) == r


def test_dense_and_width():
    r = mk_row(RATIONAL, {1: Fraction(2), 3: Fraction(1)})
    rows = [Row.zero(RATIONAL), r, mk_row(RATIONAL, {6: Fraction(1)})]
    assert dense_width(rows) == 7
    assert dense_width([Row.zero(RATIONAL)]) == 0


# -- Rows over the rationals: int numerators over one denominator -------------


def _assert_canonical(r):
    assert type(r.den) is int and r.den > 0
    cols = [c for c, _ in r.nums]
    assert cols == sorted(set(cols))
    assert all(type(v) is int and v for _, v in r.nums)
    assert gcd(r.den, *[v for _, v in r.nums]) == 1


nonzero_fractions = st.fractions(
    min_value=Fraction(-9), max_value=Fraction(9), max_denominator=12
).filter(bool)


@settings(deadline=None)
@given(sparse_dicts, sparse_dicts, sparse_dicts, st.booleans(),
       st.fractions(min_value=Fraction(-9), max_value=Fraction(9), max_denominator=12),
       st.lists(st.tuples(st.integers(0, 2), nonzero_fractions), max_size=4))
def test_scaled_row_kernels_match_fraction_arithmetic(dy, dx, dz, right, lam, pairs):
    # with right, y lies wholly right of the sources, the one-source
    # concatenation of add_combination; pairs may repeat a source and the
    # third source is y itself, so columns cancel
    if right:
        dy = {c + 31: v for c, v in dy.items()}
    dicts = [dx, dz, dy]
    scaled_rows = [mk_row(RATIONAL, d) for d in dicts]
    sy = scaled_rows[2]

    def expect(pairs, ys=dy):
        # the Row of ys plus the pairs' sum, made with Fraction operators
        terms = [(mu, dicts[i].items()) for i, mu in pairs]
        return mk_row(RATIONAL, combination_dict(ys, terms))

    cases = [
        (sy.add_combination(pairs, scaled_rows), expect(pairs)),
        (sy.add_combination(pairs[:1], scaled_rows), expect(pairs[:1])),
    ]
    if lam:
        # a Jordan patch, lam times a row from zero, and a stage's first
        # passage row lam * e_5
        cases += [
            (sy.add_combination(((0, -lam),), scaled_rows), expect(((0, -lam),))),
            (Row.zero(RATIONAL).add_combination(((2, lam),), scaled_rows),
             expect(((2, lam),), {})),
            (passage_unit(RATIONAL, 5, lam), mk_row(RATIONAL, {5: lam})),
        ]
    for got, want in cases:
        assert got.support == want.support
        _assert_canonical(got)
        assert got == want and want == got and hash(got) == hash(want)
        assert str(got) == str(want) and got.maxs == want.maxs
        assert got.entry_texts() == (got.nums, want.entry_texts()[1])


def test_scaled_row_reads_like_the_row():
    # a rational Row is held scaled: int numerators over one denominator,
    # read back as the lowest-terms Fractions of its values
    r = mk_row(RATIONAL, {1: Fraction(-1, 6), 4: 2, 9: Fraction(3, 4)})
    assert (r.den, r.nums) == (12, ((1, -2), (4, 24), (9, 9)))
    assert r.support == ((1, Fraction(-1, 6)), (4, Fraction(2)), (9, Fraction(3, 4)))
    assert str(r) == "1:-1/6 4:2 9:3/4" and repr(r) == "Row(1:-1/6 4:2 9:3/4)"
    assert r.canonical() is r and r.add_combination((), [r]) is r
    zero = r.add_combination(((0, Fraction(-1)),), [r])
    assert zero.is_zero() and zero.maxs is None and (zero.den, zero.nums) == (1, ())
    assert zero == Row.zero(RATIONAL) and repr(zero) == "Row(0)"
    # an integral row (here r + 11 * r) is plain ints over den 1, read
    # back as Fractions over 1
    ints = r.add_combination(((0, Fraction(11)),), [r])
    assert (ints.den, ints.nums) == (1, ((1, -2), (4, 24), (9, 9)))
    (_, a), (_, b) = mk_row(RATIONAL, {0: -1, 2: -1}).support
    assert a == b == -1
    with pytest.raises(FieldMismatch):
        r == mk_row(GF7, {1: 2})


def test_zero_multiplier_adds_nothing_on_every_row_type():
    # a zero lam leaves the row's value unchanged, one pair or many, even
    # where the source holds columns the row does not
    y = mk_row(RATIONAL, {0: 1})
    x = mk_row(RATIONAL, {3: 1})
    zero = Fraction(0)
    assert y.add_combination(((0, zero),), [x]) is y
    assert axpy_raw(zero, x, y) is y
    two = y.add_combination(((0, zero), (1, Fraction(1, 2))), [x, x])
    assert two == mk_row(RATIONAL, {0: 1, 3: Fraction(1, 2)})
    _assert_canonical(two)
    p, q = mk_row(GF7, {0: 1}), mk_row(GF7, {3: 1})
    assert p.add_combination(((0, 0),), [q]) is p and axpy_raw(0, q, p) is p
    assert p.add_combination(((0, 0), (0, 0)), [q]) is p
    assert p.add_combination(((0, 0), (0, 2)), [q]).support == ((0, 1), (3, 2))
    packed = passage_unit(GF7, 0, 1)
    assert packed.add_combination(((0, 0),), [passage_unit(GF7, 3, 1)]) == p


def test_scaled_hits_raw_and_normalized():
    # a stage reduces den times the row it takes in, den the lcm of its
    # denominators, and logs the negated numerators at pivot columns,
    # keyed by their pivot rows: the int hits of den times the row, in
    # column order; an integral row stays over den 1
    row = mk_row(RATIONAL, {1: Fraction(-1, 6), 4: 2, 9: Fraction(3, 4)})
    assert (row.den, row.nums) == (12, ((1, -2), (4, 24), (9, 9)))
    state = EliminationState(RATIONAL, "rps")
    for col in (4, 5, 9, 2):
        step(state, mk_row(RATIONAL, {col: 1}))
    step(state, row)
    hits, den, _, _ = state._log[-1]
    assert (hits, den) == ([(0, -24), (2, -9)], 12)
    assert all(type(v) is int for _, v in hits)
    assert [Fraction(v, den) for _, v in hits] == [-row.raw(4), -row.raw(9)]
    step(state, mk_row(RATIONAL, {2: 3, 5: -1, 7: 1}))
    hits, den, _, _ = state._log[-1]
    assert (hits, den) == ([(3, -3), (1, 1)], 1)
    assert all(type(v) is int for _, v in hits)
    # raw reads one lowest-terms Fraction
    assert [row.raw(c) for c in (0, 1, 4, 9, 10)] == [0, Fraction(-1, 6), 2, Fraction(3, 4), 0]
    assert type(row.raw(0)) is Fraction and type(row.raw(4)) is Fraction
    # normalized: the pivot numerator becomes the denominator, also for a
    # negative lead, and the inverse of the pivot entry comes back
    for col in (1, 4, 9):
        unit, inv = row.normalized(dict(row.nums)[col])
        _assert_canonical(unit)
        assert dict(unit.nums)[col] == unit.den
        assert inv == 1 / row.raw(col)
        assert unit == mk_row(RATIONAL, {c: v * inv for c, v in row.support})
    ones = mk_row(RATIONAL, {0: 2, 3: 1})
    assert ones.normalized(1) == (ones, 1) and ones.normalized(1)[0] is ones


rational_supports = sparse_dicts.map(lambda d: tuple(sorted(d.items())))


@settings(deadline=None)
@given(rational_supports, rational_supports, st.randoms(use_true_random=False))
def test_rational_constructor_is_canonical(s1, s2, rng):
    # the public constructor and from_pairs bring a support of Fractions
    # over one denominator: canonical, with the support given back as it
    # was, and equal and hashed alike exactly when the supports are equal
    pairs = list(s1)
    rng.shuffle(pairs)
    a = Row(RATIONAL, s1)
    rows = [a, Row.from_pairs(RATIONAL, pairs), Row.from_pairs(RATIONAL, s1)]
    for r in rows:
        _assert_canonical(r)
        assert r.support == s1
        assert r == a and hash(r) == hash(a)
    b = Row(RATIONAL, s2)
    assert (a == b) == (s1 == s2)
    if s1 == s2:
        assert hash(a) == hash(b)


@settings(deadline=None)
@given(sparse_dicts, st.lists(sparse_dicts, min_size=1, max_size=3),
       st.lists(st.tuples(st.integers(0, 2), st.fractions(min_value=-9, max_value=9,
                                                         max_denominator=12)),
                max_size=4))
def test_rational_add_combination_and_normalized_match_the_oracle(dy, dxs, pairs):
    # the rational field's kernels on the numerators against the same sums
    # made one entry at a time with Fraction operators
    y = mk_row(RATIONAL, dy)
    xs = [mk_row(RATIONAL, d) for d in dxs]
    pairs = [(i % len(xs), lam) for i, lam in pairs]
    got = y.add_combination(pairs, xs)
    _assert_canonical(got)
    assert row_dict(got) == combination_dict(dy, [(lam, dxs[i].items()) for i, lam in pairs
                                                  if lam])
    for col, lead in got.nums:
        unit, inv = got.normalized(lead)
        _assert_canonical(unit)
        assert inv == 1 / got.raw(col)
        assert row_dict(unit) == combination_dict({}, [(inv, row_dict(got).items())])
