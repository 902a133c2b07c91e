from decimal import Decimal
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from omegagj import Field, FieldMismatch, RATIONAL, Row
from omegagj.rows import axpy_raw, dense_width
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


def test_axpy_operand_with_int_value_is_rejected_where_built():
    # once this failed only inside the kernel, as an AttributeError
    with pytest.raises(ValueError, match="entry"):
        axpy_raw(Fraction(2), Row(RATIONAL, ((0, 1),)), Row.unit(RATIONAL, 0))


def test_zero_and_unit_rows():
    z = Row.zero(RATIONAL)
    assert z.is_zero() and z.maxs is None and z.zeta is None
    e3 = Row.unit(RATIONAL, 3)
    assert row_dict(e3) == {3: Fraction(1)}
    assert e3.maxs == e3.zeta == 3


def test_accessors():
    r = mk_row(RATIONAL, {2: Fraction(5), 7: Fraction(-1, 3)})
    assert r.maxs == 7 and r.zeta == 2
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


def test_scaled_raw():
    r = mk_row(RATIONAL, {0: Fraction(2), 4: Fraction(-3)})
    assert row_dict(r.scaled_raw(Fraction(1, 2))) == {0: Fraction(1), 4: Fraction(-3, 2)}
    assert r.scaled_raw(Fraction(0)).is_zero()


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
    expect = dict(dy)
    for c, v in dx.items():
        nv = expect.get(c, Fraction(0)) + lam * v
        if nv:
            expect[c] = nv
        else:
            expect.pop(c, None)
    assert row_dict(axpy_raw(lam, x, y)) == expect


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
    """axpy and scaling, including the lam = 1 and lam = -1 shortcuts."""
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
        out, scaled_row = axpy_raw(lam, x, y), x.scaled_raw(lam)
        assert row_dict(out) == expect
        scaled = {c: reduce(lam * v) for c, v in dx.items()} if lam else {}
        assert row_dict(scaled_row) == scaled
        # built without the constructor's check, so it must pass it
        Row(field, out.support), Row(field, scaled_row.support)

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
