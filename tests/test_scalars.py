import math
import pickle
import random
import time
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
    PrimeField,
    RationalField,
)

GF7 = Field.gf(7)
F1 = Fraction(1)

rationals = st.fractions(
    min_value=Fraction(-50), max_value=Fraction(50), max_denominator=12
)
residues = st.integers(min_value=0, max_value=6)


def value_strategy(field):
    return rationals if field is RATIONAL else residues


# -- fields -------------------------------------------------------------------


def test_gf_requires_prime():
    with pytest.raises(ValueError):
        Field.gf(6)
    with pytest.raises(ValueError):
        Field.gf(1)
    with pytest.raises(ValueError):
        PrimeField(9)
    assert Field.gf(2).p == 2


def test_gf_cache_returns_same_object():
    assert Field.gf(7) is Field.gf(7)
    assert Field.gf(7) == PrimeField(7)
    assert Field.gf(7) != Field.gf(5)
    assert RATIONAL != GF7


def test_field_kinds_build_specialised_subclasses():
    assert isinstance(RATIONAL, RationalField) and RATIONAL.p is None
    assert RationalField() == RATIONAL and hash(RationalField()) == hash(RATIONAL)
    gf = PrimeField(7)
    assert isinstance(GF7, PrimeField) and GF7.p == 7
    assert gf == GF7 and hash(gf) == hash(GF7)
    for field in (RATIONAL, GF7):
        assert pickle.loads(pickle.dumps(field)) == field
    assert pickle.loads(pickle.dumps(GF7)) is GF7


def _is_prime_by_trial_division(n):
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


def test_primality_agrees_with_trial_division_below_1e5():
    from omegagj.scalars import _is_prime

    for n in range(10 ** 5):
        assert _is_prime(n) == _is_prime_by_trial_division(n), n


@pytest.mark.parametrize("n", [3215031751, 3825123056546413051])
def test_strong_pseudoprimes_are_rejected(n):
    # 3215031751 is a strong pseudoprime to bases 2, 3, 5 and 7; the second
    # passes every base from 2 to 23
    with pytest.raises(ValueError, match="prime"):
        Field.gf(n)


def test_large_prime_modulus_is_fast():
    start = time.perf_counter()
    assert Field.gf(2 ** 61 - 1).p == 2 ** 61 - 1
    assert time.perf_counter() - start < 0.5


def test_modulus_at_the_exactness_bound_is_rejected():
    bound = 318665857834031151167461
    for p in (bound, bound + 2):
        with pytest.raises(ValueError, match="below"):
            Field.gf(p)


@pytest.mark.parametrize("field", [RATIONAL, GF7], ids=["rational", "gf7"])
def test_random_value_is_a_field_value(field):
    rng = random.Random(3)
    for _ in range(50):
        v = field.random_value(rng)
        assert field.parse(field.format(v)) == v
        assert v == 0 or field.entry_error(v) is None


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
        if b:
            assert field.mul(b, field.inv(b)) == field.one()

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


# -- raw values ---------------------------------------------------------------


def test_scalar_arithmetic_and_dispatch():
    a, b = RATIONAL.from_int(3), RATIONAL.from_int(2)
    assert type(a) is Fraction
    assert RATIONAL.add(a, b) == 5
    assert RATIONAL.add(a, RATIONAL.neg(b)) == 1
    assert RATIONAL.mul(a, b) == 6
    assert RATIONAL.mul(a, RATIONAL.inv(b)) == Fraction(3, 2)
    assert RATIONAL.neg(a) == -3
    assert RATIONAL.inv(b) == Fraction(1, 2)


def test_scalar_gf_wraps_modulus():
    a, b = GF7.from_int(5), GF7.from_int(4)
    assert GF7.add(a, b) == 2
    assert GF7.mul(a, b) == 6
    assert GF7.mul(a, GF7.inv(b)) == 3  # 5 * 4^-1 = 5 * 2 = 10 = 3 (mod 7)
    assert GF7.neg(a) == 2 and GF7.from_int(-3) == 4


def test_cross_field_operations_raise():
    from omegagj.rows import Row, axpy_raw

    x, y = Row.unit(RATIONAL, 0), Row.unit(GF7, 0)
    with pytest.raises(FieldMismatch):
        axpy_raw(1, x, y)
    with pytest.raises(FieldMismatch):
        x == y
    with pytest.raises(FieldMismatch):
        LinForm.combination(RATIONAL, [(1, LinForm.symbol(GF7, "c", 0))])


def test_scalar_truthiness_and_str():
    assert not GF7.from_int(7)
    assert GF7.from_int(8)
    assert RATIONAL.format(RATIONAL.mul(RATIONAL.from_int(-2), RATIONAL.inv(Fraction(4)))) == "-1/2"
    assert GF7.format(GF7.from_int(-1)) == "6"


# -- linear forms -------------------------------------------------------------


def sym(ns, i, field=RATIONAL):
    return LinForm.symbol(field, ns, i)


def comb(*pairs, field=RATIONAL):
    return LinForm.combination(field, pairs)



def test_linform_construction_and_canonical_terms():
    f = comb((F1, sym("c", 0)), (F1, sym("c", 1)), (-F1, sym("c", 0)))
    assert f.terms == {("c", 1): Fraction(1)}
    assert not f.is_zero()
    assert comb((F1, f), (-F1, sym("c", 1))).is_zero()
    assert LinForm.zero(RATIONAL).is_zero()
    assert LinForm.const(RATIONAL, Fraction(3)).constant == 3


def test_linform_coeff_and_scaling():
    f = comb((Fraction(2), sym("s", 0))) + LinForm.const(RATIONAL, Fraction(5))
    assert f.terms.get(("s", 0)) == 2 and ("s", 9) not in f.terms
    g = comb((-F1, f))
    assert g.constant == -5 and g.terms == {("s", 0): Fraction(-2)}
    assert comb((Fraction(0), f)).is_zero()


def test_linform_substitute():
    # c_1 := c_0 + 2 inside 3*c_1 + c_2 is one combination with the
    # constraint c_1 - c_0 - 2: form - (3 / 1) * constraint
    f = comb((Fraction(3), sym("c", 1)), (F1, sym("c", 2)))
    con = comb((F1, sym("c", 1)), (-F1, sym("c", 0))) + LinForm.const(RATIONAL, Fraction(-2))
    g = comb((F1, f), (Fraction(-3), con))
    assert g.terms == {("c", 0): Fraction(3), ("c", 2): Fraction(1)}
    assert g.constant == 6


def test_linform_render():
    assert str(LinForm.zero(RATIONAL)) == "0"
    assert str(LinForm.const(RATIONAL, Fraction(-3, 2))) == "-3/2"
    f = comb((F1, sym("s", 0)), (-F1, sym("s", 1)), (F1, sym("s", 2)))
    assert str(f) == "s_0 - s_1 + s_2"
    g = comb((F1, sym("c", 3)), (-F1, sym("c", 0)), (Fraction(-2), sym("c", 2)))
    assert str(g) == "-c_0 - 2*c_2 + c_3"
    assert g.render(leading=("c", 3)) == "c_3 - c_0 - 2*c_2"
    h = sym("t", 0) + LinForm.const(RATIONAL, Fraction(1, 2))
    assert str(h) == "t_0 + 1/2"


def test_linform_render_gf():
    f = comb((6, sym("c", 0, GF7)), field=GF7) + LinForm.const(GF7, 5)
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
        return comb(*((v, sym(ns, i)) for ns, i, v in terms))

    a, b = build(terms_a), build(terms_b)
    # one combination equals adding the scaled forms one by one
    one_by_one = LinForm.zero(RATIONAL)
    for ns, i, v in terms_a:
        one_by_one = one_by_one + comb((v, sym(ns, i)))
    assert one_by_one == a
    assert comb((F1, a + b), (-F1, b)) == a
    assert a + b == b + a
    assert comb((F1, a), (-F1, a)).is_zero()
    assert all(v != 0 for v in (a + b).terms.values())
