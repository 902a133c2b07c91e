import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from omegagj import (
    RATIONAL,
    DivisionByZero,
    Field,
    FieldMismatch,
    LinForm,
    Scalar,
)

GF7 = Field.gf(7)

rationals = st.fractions(
    min_value=Fraction(-50), max_value=Fraction(50), max_denominator=12
)
residues = st.integers(min_value=0, max_value=6)


def value_strategy(field):
    return rationals if field is RATIONAL else residues


# -- fields -------------------------------------------------------------------


def test_gf_requires_prime():
    with pytest.raises(ValueError):
        Field("gf", 6)
    with pytest.raises(ValueError):
        Field.gf(1)
    assert Field.gf(2).p == 2


def test_gf_cache_returns_same_object():
    assert Field.gf(7) is Field.gf(7)
    assert Field.gf(7) == Field("gf", 7)
    assert Field.gf(7) != Field.gf(5)
    assert RATIONAL != GF7


def test_unknown_kind_rejected():
    with pytest.raises(ValueError):
        Field("real")


def test_field_kinds_build_specialised_subclasses():
    import pickle

    from omegagj import PrimeField, RationalField

    assert isinstance(RATIONAL, RationalField) and RATIONAL.kind == "rational"
    assert Field("rational") == RATIONAL and RATIONAL.p is None
    gf = Field("gf", 7)
    assert isinstance(gf, PrimeField) and gf.kind == "gf" and gf.p == 7
    assert gf == GF7 and hash(gf) == hash(GF7)
    with pytest.raises(ValueError):
        RationalField("gf", 7)
    with pytest.raises(ValueError):
        PrimeField("gf", 9)
    for field in (RATIONAL, GF7):
        assert pickle.loads(pickle.dumps(field)) == field


@pytest.mark.parametrize("field", [RATIONAL, GF7], ids=["rational", "gf7"])
def test_parse_format_round_trip(field):
    for raw in [field.zero(), field.one(), field.from_int(5), field.from_int(-3)]:
        assert field.parse(field.format(raw)) == raw


def test_rational_parse_fraction_text():
    assert RATIONAL.parse("3/4") == Fraction(3, 4)
    assert RATIONAL.format(Fraction(-2, 6)) == "-1/3"
    assert GF7.parse("9") == 2


@pytest.mark.parametrize("field", [RATIONAL, GF7], ids=["rational", "gf7"])
def test_field_axioms(field):
    @settings(deadline=None)
    @given(value_strategy(field), value_strategy(field), value_strategy(field))
    def check(a, b, c):
        assert field.add(a, b) == field.add(b, a)
        assert field.mul(a, b) == field.mul(b, a)
        assert field.add(field.add(a, b), c) == field.add(a, field.add(b, c))
        assert field.mul(field.mul(a, b), c) == field.mul(a, field.mul(b, c))
        assert field.mul(a, field.add(b, c)) == field.add(
            field.mul(a, b), field.mul(a, c)
        )
        assert field.add(a, field.neg(a)) == field.zero()
        assert field.sub(a, b) == field.add(a, field.neg(b))
        if b:
            assert field.mul(b, field.inv(b)) == field.one()
            assert field.div(a, b) == field.mul(a, field.inv(b))

    check()


# numerators and denominators up to ~200 bits, plus small values whose sums
# and products have common factors to divide out
_BIG = 2 ** 200
kernel_values = st.one_of(
    st.builds(Fraction, st.integers(-_BIG, _BIG), st.integers(1, _BIG)),
    st.fractions(min_value=-12, max_value=12, max_denominator=12),
).filter(bool)
kernel_lams = st.one_of(
    st.sampled_from([1, -1]),
    st.integers(-(2 ** 70), 2 ** 70).filter(bool),
    kernel_values,
)


@st.composite
def kernel_inputs(draw):
    """lam and two sorted supports xs, ys: some columns only in one of them,
    some shared, and some where ys holds -lam * xs so the sum cancels."""
    lam = draw(kernel_lams)
    xs = draw(st.dictionaries(st.integers(0, 40), kernel_values, max_size=10))
    ys = draw(st.dictionaries(st.integers(0, 40), kernel_values, max_size=10))
    for c in draw(st.sets(st.sampled_from(sorted(xs)), max_size=4) if xs else st.just(())):
        ys[c] = -lam * xs[c]
    return lam, tuple(sorted(xs.items())), tuple(sorted(ys.items()))


def _assert_lowest_term_fractions(support):
    for _, v in support:
        n, d = v.numerator, v.denominator
        assert type(v) is Fraction and n != 0 and d > 0 and math.gcd(n, d) == 1
        ref = Fraction(n, d)
        assert v == ref and hash(v) == hash(ref) and str(v) == str(ref)


@settings(deadline=None, max_examples=150)
@given(kernel_inputs())
def test_rational_kernels_match_fraction_arithmetic(inputs):
    lam, xs, ys = inputs
    expect = dict(ys)
    for c, v in xs:
        nv = expect.get(c, Fraction(0)) + lam * v
        if nv:
            expect[c] = nv
        else:
            expect.pop(c, None)
    got = RATIONAL.axpy_support(lam, xs, ys)
    assert got == tuple(sorted(expect.items()))
    _assert_lowest_term_fractions(got)
    if lam != 1:
        scaled = RATIONAL.scale_support(lam, xs)
        assert scaled == tuple((c, lam * v) for c, v in xs)
        _assert_lowest_term_fractions(scaled)


@pytest.mark.parametrize("field", [RATIONAL, GF7], ids=["rational", "gf7"])
def test_zero_division_raises(field):
    with pytest.raises(DivisionByZero):
        field.inv(field.zero())
    with pytest.raises(DivisionByZero):
        field.div(field.one(), field.zero())


# -- scalars ------------------------------------------------------------------


def test_scalar_arithmetic_and_dispatch():
    a = Scalar.of(RATIONAL, 3)
    b = Scalar.of(RATIONAL, 2)
    assert (a + b).value == 5
    assert (a - b).value == 1
    assert (a * b).value == 6
    assert (a / b).value == Fraction(3, 2)
    assert (-a).value == -3
    assert b.inv().value == Fraction(1, 2)


def test_scalar_gf_wraps_modulus():
    a = Scalar.of(GF7, 5)
    b = Scalar.of(GF7, 4)
    assert (a + b).value == 2
    assert (a * b).value == 6
    assert (a / b).value == 3  # 5 * 4^-1 = 5 * 2 = 10 = 3 (mod 7)


def test_cross_field_operations_raise():
    a = Scalar.of(RATIONAL, 1)
    b = Scalar.of(GF7, 1)
    with pytest.raises(FieldMismatch):
        a + b
    with pytest.raises(FieldMismatch):
        a == b


def test_scalar_truthiness_and_str():
    assert not Scalar.of(GF7, 7)
    assert Scalar.of(GF7, 8)
    assert str(Scalar.of(RATIONAL, -2) / Scalar.of(RATIONAL, 4)) == "-1/2"


# -- linear forms -------------------------------------------------------------


def sym(ns, i, field=RATIONAL):
    return LinForm.symbol(field, ns, i)


def test_linform_construction_and_canonical_terms():
    f = sym("c", 0) + sym("c", 1) - sym("c", 0)
    assert f.terms == {("c", 1): Fraction(1)}
    assert not f.is_zero()
    assert (f - sym("c", 1)).is_zero()
    assert LinForm.zero(RATIONAL).is_zero()
    assert LinForm.const(RATIONAL, Fraction(3)).constant == 3


def test_linform_coeff_and_scaling():
    f = sym("s", 0).scaled_raw(Fraction(2)) + LinForm.const(RATIONAL, Fraction(5))
    assert f.coeff(("s", 0)).value == 2
    assert f.coeff(("s", 9)).value == 0
    g = f.scaled(Scalar.of(RATIONAL, -1))
    assert g.constant == -5 and g.terms == {("s", 0): Fraction(-2)}
    assert f.scaled_raw(Fraction(0)).is_zero()


def test_linform_substitute():
    # c_1 := c_0 + 2 inside (3*c_1 + c_2)
    f = sym("c", 1).scaled_raw(Fraction(3)) + sym("c", 2)
    g = f.substitute(("c", 1), sym("c", 0) + LinForm.const(RATIONAL, Fraction(2)))
    assert g.terms == {("c", 0): Fraction(3), ("c", 2): Fraction(1)}
    assert g.constant == 6
    assert f.substitute(("c", 9), sym("c", 0)) == f


def test_linform_render():
    assert str(LinForm.zero(RATIONAL)) == "0"
    assert str(LinForm.const(RATIONAL, Fraction(-3, 2))) == "-3/2"
    f = sym("s", 0) - sym("s", 1) + sym("s", 2)
    assert str(f) == "s_0 - s_1 + s_2"
    g = sym("c", 3) - sym("c", 0) - sym("c", 2).scaled_raw(Fraction(2))
    assert str(g) == "-c_0 - 2*c_2 + c_3"
    assert g.render(leading=("c", 3)) == "c_3 - c_0 - 2*c_2"
    h = sym("t", 0) + LinForm.const(RATIONAL, Fraction(1, 2))
    assert str(h) == "t_0 + 1/2"


def test_linform_render_gf():
    f = sym("c", 0, GF7).scaled_raw(6) + LinForm.const(GF7, 5)
    # gf residues carry no sign; 6 stays 6
    assert str(f) == "6*c_0 + 5"


def test_linform_namespace_ordering_in_render():
    f = sym("t", 0) + sym("s", 2)
    assert str(f) == "s_2 + t_0"


def test_linform_cross_field_raises():
    with pytest.raises(FieldMismatch):
        sym("c", 0) + sym("c", 0, GF7)


@settings(deadline=None)
@given(
    st.lists(
        st.tuples(st.sampled_from("cst"), st.integers(0, 5), rationals),
        max_size=8,
    ),
    st.lists(
        st.tuples(st.sampled_from("cst"), st.integers(0, 5), rationals),
        max_size=8,
    ),
)
def test_linform_group_laws(terms_a, terms_b):
    def build(terms):
        f = LinForm.zero(RATIONAL)
        for ns, i, v in terms:
            f = f + LinForm.symbol(RATIONAL, ns, i).scaled_raw(v)
        return f

    a, b = build(terms_a), build(terms_b)
    assert (a + b) - b == a
    assert a + b == b + a
    assert (a - a).is_zero()
    assert all(v != 0 for v in (a + b).terms.values())
