import math
import pickle
import re
import time
from decimal import Decimal
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oracles import (
    combination_dict,
    form_combination,
    format_value,
    render_form,
    render_fraction_blocks,
)
from omegagj import (
    RATIONAL,
    DivisionByZero,
    Field,
    FieldMismatch,
    LinForm,
    PrimeField,
    RationalField,
    Row,
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


@pytest.mark.parametrize("modulus", [7.0, "7", None, Fraction(7)], ids=repr)
def test_gf_rejects_a_modulus_that_is_not_an_int(modulus):
    # the check comes before the cache is read, so 7.0 fails the same way
    # whether or not GF(7) was made first
    for make in (Field.gf, PrimeField):
        with pytest.raises(ValueError, match="must be an int, got %s" % re.escape(repr(modulus))):
            make(modulus)
    assert Field.gf(7) is GF7
    with pytest.raises(ValueError, match="must be an int"):
        Field.gf(modulus)


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
def test_parse_format_round_trip(field):
    for raw in [field.zero(), field.one(), field.from_int(5), field.from_int(-3)]:
        assert field.parse(format_value(raw)) == raw
        assert str(LinForm.const(field, raw)) == format_value(raw)


def test_rational_parse_fraction_text():
    assert RATIONAL.parse("3/4") == Fraction(3, 4)
    assert str(LinForm.const(RATIONAL, Fraction(-2, 6))) == "-1/3"
    assert GF7.parse("9") == 2


@pytest.mark.parametrize(
    "text, value",
    [("3", 3), ("-3", -3), ("+3", 3), ("-0", 0), ("007", 7), ("6/4", Fraction(3, 2)),
     ("-6/4", Fraction(-3, 2)), ("+1/3", Fraction(1, 3)), ("0/5", 0)],
)
def test_rational_parse_reads_p_and_p_over_q(text, value):
    got = RATIONAL.parse(text)
    assert type(got) is Fraction and got == value


@pytest.mark.parametrize(
    "text",
    ["0.5", ".5", "5.", "1e3", "1E3", "2/4e1", "1_000", "1/1_0", "\u0663", "1/\u0663",
     " 3", "3 ", "3\n", "1 /2", "+-3", "1/-2", "1/+2", "", "-", "/2", "1/", "1/2/3",
     "inf", "nan", "0x10"],
)
def test_rational_parse_rejects_every_other_spelling(text):
    # decimals, exponents, digit separators, non-ASCII digits and spaces
    # are Fraction's grammar, not the documented one
    with pytest.raises(ValueError):
        RATIONAL.parse(text)


@pytest.mark.parametrize("text, value", [("3", 3), ("-3", 4), ("+3", 3), ("-0", 0), ("009", 2)])
def test_prime_parse_reads_signed_ascii_digits(text, value):
    assert GF7.parse(text) == value


@pytest.mark.parametrize(
    "text",
    ["1_0", "٣", "1٣", " 3", "3 ", "3\n", "+-3", "", "-", "1/2", "0.5", "1e3", "0x10"],
)
def test_prime_parse_rejects_every_other_spelling(text):
    # int() would read the separator, the Arabic-Indic digit and the spaces
    with pytest.raises(ValueError):
        GF7.parse(text)


def test_rational_parse_of_a_zero_denominator_divides_by_zero():
    with pytest.raises(ZeroDivisionError):
        RATIONAL.parse("1/0")


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


def _assert_lowest_terms(v):
    """v is a Fraction in lowest terms (zero is 0/1) that hashes and prints
    as the Fraction of its numerator and denominator does."""
    n, d = v.numerator, v.denominator
    assert type(v) is Fraction and type(n) is int and d > 0 and math.gcd(n, d) == 1
    ref = Fraction(n, d)
    assert v == ref and hash(v) == hash(ref) and str(v) == str(ref)


def _assert_lowest_term_fractions(support):
    for _, v in support:
        assert v != 0
        _assert_lowest_terms(v)


@settings(deadline=None, max_examples=150)
@given(kernel_inputs())
def test_rational_kernels_match_fraction_arithmetic(inputs):
    # over the rationals the field's kernel makes every row sum and row scale
    lam, xs, ys = inputs
    x, y = Row(RATIONAL, xs), Row(RATIONAL, ys)
    _assert_scaled_is(y.add_combination(((0, lam),), [x]), combination_dict(ys, [(lam, xs)]))
    scaled = Row.zero(RATIONAL).add_combination(((0, lam),), [x])
    _assert_scaled_is(scaled, {c: lam * v for c, v in xs})


def _assert_scaled_is(r, want):
    """r is the canonical Row of the {column: Fraction} dict want, and its
    support holds lowest-terms Fractions."""
    ref = Row(RATIONAL, tuple(sorted(want.items())))
    assert (r.den, r.nums) == (ref.den, ref.nums)
    _assert_lowest_term_fractions(r.support)


def _combination(field, ys, pairs):
    """The numerators the field's kernel makes of the support ys plus the
    sum of lam * xs over (lam, xs) pairs of supports (ys itself when no
    lam is nonzero)."""
    rows = [Row(field, xs) for _, xs in pairs]
    indexed = [(i, lam) for i, (lam, _) in enumerate(pairs)]
    summed = field.combination_support(1, ys, indexed, rows)
    return ys if summed is None else summed[1]


def _fold_one_pair_calls(field, ys, pairs):
    acc = ys
    for pair in pairs:
        acc = _combination(field, acc, [pair])
    return acc


@st.composite
def combination_inputs(draw, field):
    """ys and (lam, xs) pairs for one row sum: 200-bit values over
    the rationals, multipliers of 1 and -1 among others, maybe no pair,
    maybe one source used twice, and maybe one last pair that cancels some
    columns of the running sum, of ys and of the first source included."""
    if field is RATIONAL:
        lams, values = kernel_lams.map(Fraction), kernel_values
    else:
        lams = st.one_of(st.sampled_from([1, field.p - 1]), st.integers(1, field.p - 1))
        values = st.integers(1, field.p - 1)
    supports = st.dictionaries(st.integers(0, 30), values, max_size=8).map(
        lambda d: tuple(sorted(d.items())))
    ys = draw(supports)
    pairs = draw(st.lists(st.tuples(lams, supports), max_size=5))
    if pairs and draw(st.booleans()):
        pairs.append((draw(lams), draw(st.sampled_from(pairs))[1]))
    total = combination_dict(ys, pairs, field.p)
    if total and draw(st.booleans()):
        cols = draw(st.sets(st.sampled_from(sorted(total)), min_size=1))
        for src in [ys] + [xs for _, xs in pairs[:1]]:
            held = sorted(c for c, _ in src if c in total)
            if held:
                cols.add(draw(st.sampled_from(held)))
        lam = draw(lams)
        scale = field.neg(field.inv(lam))
        pairs.append((lam, tuple((c, field.mul(scale, total[c])) for c in sorted(cols))))
    return ys, pairs


@pytest.mark.parametrize("field", [GF7, Field.gf(32003)], ids=["gf7", "gf32003"])
def test_combination_support_is_the_fold_of_one_pair_calls(field):
    @settings(deadline=None, max_examples=150)
    @given(combination_inputs(field))
    def check(inputs):
        ys, pairs = inputs
        got = _combination(field, ys, pairs)
        assert got == _fold_one_pair_calls(field, ys, pairs)
        assert got == tuple(sorted(combination_dict(ys, pairs, field.p).items()))
        assert [c for c, _ in got] == sorted({c for c, _ in got})
        assert all(0 < v < field.p for _, v in got)
        if not pairs:
            assert got == ys

    check()
    assert field.combination_support(1, (), [], []) is None


@settings(deadline=None, max_examples=150)
@given(combination_inputs(RATIONAL))
def test_scaled_row_combination_is_the_fold_of_one_pair_calls(inputs):
    # the sum of many pairs at once on rows of numerators over one
    # denominator equals one pair at a time, and both equal the sum made
    # with Fraction operators
    ys, pairs = inputs
    y = Row(RATIONAL, ys)
    rows = [Row(RATIONAL, xs) for _, xs in pairs]
    indexed = [(i, lam) for i, (lam, _) in enumerate(pairs)]
    got = y.add_combination(indexed, rows)
    folded = y
    for pair in indexed:
        folded = folded.add_combination((pair,), rows)
    assert (got.den, got.nums) == (folded.den, folded.nums)
    _assert_scaled_is(got, combination_dict(ys, pairs))
    if not pairs:
        assert got is y


@st.composite
def scalar_operands(draw):
    """Two operands of the rational scalar operations: 200-bit Fractions,
    zero, plain ints, and pairs over one denominator."""
    operand = st.one_of(
        kernel_values,
        st.sampled_from([Fraction(0), 0, 1, -1]),
        st.integers(-_BIG, _BIG),
    )
    a = draw(operand)
    if draw(st.booleans()):
        b = Fraction(draw(st.integers(-_BIG, _BIG)), Fraction(a).denominator)
    else:
        b = draw(operand)
    return a, b


@settings(deadline=None, max_examples=300)
@given(scalar_operands())
def test_rational_scalar_operations_match_fraction_operators(operands):
    a, b = operands
    fa, fb = Fraction(a), Fraction(b)
    results = [
        (RATIONAL.add(a, b), fa + fb),
        (RATIONAL.add(b, a), fb + fa),
        (RATIONAL.mul(a, b), fa * fb),
        (RATIONAL.neg(a), -fa),
    ]
    if b:
        results.append((RATIONAL.inv(b), 1 / fb))
    for got, want in results:
        assert got == want
        _assert_lowest_terms(got)


def test_rational_scalar_operations_read_ints_as_fractions():
    # a plain int operand is a value of the field, as from_int reads it; the
    # result is a Fraction, never an int or a float
    for got, want in [
        (RATIONAL.inv(2), Fraction(1, 2)),
        (RATIONAL.inv(-3), Fraction(-1, 3)),
        (RATIONAL.add(1, 2), Fraction(3)),
        (RATIONAL.add(0, 5), Fraction(5)),
        (RATIONAL.mul(2, 3), Fraction(6)),
        (RATIONAL.mul(0, Fraction(1, 3)), Fraction(0)),
        (RATIONAL.neg(4), Fraction(-4)),
    ]:
        assert type(got) is Fraction and got == want
        _assert_lowest_terms(got)
    with pytest.raises(DivisionByZero):
        RATIONAL.inv(0)


@example(Fraction(3, 4), 0)
@example(Fraction(-5, 6), -4)
@example(Fraction(7, 10**30 + 1), -(10**30))
@example(Fraction(-(10**30), 9), 10**30)
@example(Fraction(0), -3)
@given(kernel_values, st.one_of(st.integers(-_BIG, _BIG), st.integers(-12, 12)))
def test_rational_mul_by_an_int_matches_fraction_mul(a, b):
    # an int b is read through its numerator and denominator 1, as the
    # replay folds a pivot inverse into an int hit
    got = RATIONAL.mul(a, b)
    assert got == a * b == Fraction.__mul__(a, b)
    _assert_lowest_terms(got)


def test_rational_mul_by_a_bool_goes_through_fraction():
    # a bool is read through its numerator and denominator, which are
    # ints: its product is the Fraction product, with plain int slots,
    # never True or False
    for a in (Fraction(3, 4), Fraction(-2), Fraction(0)):
        for b in (True, False):
            got = RATIONAL.mul(a, b)
            assert got == a * Fraction(b)
            assert type(got.numerator) is int and type(got.denominator) is int
            _assert_lowest_terms(got)


@example(True)
@example(False)
@example(0)
@example(-1)
@example(-(10**30))
@example(10**30)
@given(st.one_of(st.booleans(), st.integers()))
def test_rational_from_int_is_the_fraction_of_an_int(n):
    # from_int builds the Fraction n/1; a bool comes out with a plain int
    # numerator, never True or False
    got = RATIONAL.from_int(n)
    assert got == Fraction(n)
    assert type(got) is Fraction
    assert type(got.numerator) is int and type(got.denominator) is int
    _assert_lowest_terms(got)


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
    from omegagj.rows import axpy_raw

    x, y = Row.unit(RATIONAL, 0), Row.unit(GF7, 0)
    with pytest.raises(FieldMismatch):
        axpy_raw(1, x, y)
    with pytest.raises(FieldMismatch):
        x == y
    with pytest.raises(FieldMismatch):
        LinForm.zero(RATIONAL) == LinForm.zero(GF7)


def test_scalar_truthiness_and_str():
    assert not GF7.from_int(7)
    assert GF7.from_int(8)
    assert str(LinForm.const(
        RATIONAL, RATIONAL.mul(RATIONAL.from_int(-2), RATIONAL.inv(Fraction(4))))) == "-1/2"
    assert str(LinForm.const(GF7, GF7.from_int(-1))) == "6"


# -- linear forms -------------------------------------------------------------


def sym(ns, i, field=RATIONAL):
    return LinForm.symbol(field, ns, i)


def comb(*pairs, field=RATIONAL):
    return form_combination(field, pairs)



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


def test_linform_const_reads_plain_ints_through_the_field():
    three = LinForm.const(RATIONAL, 3)
    assert str(three) == "3" and three == LinForm.const(RATIONAL, Fraction(3))
    assert type(three.constant) is Fraction
    assert str(LinForm.const(GF7, 9)) == "2"
    assert LinForm.const(GF7, 9) == LinForm.const(GF7, 2)
    assert str(LinForm.const(GF7, -1)) == "6"


def test_linform_constructor_reads_values_as_const_does():
    three = LinForm(RATIONAL, 3)
    assert str(three) == "3" and three == LinForm.const(RATIONAL, 3)
    two_c = LinForm(RATIONAL, None, {("c", 0): 2})
    assert str(two_c) == "2*c_0" and type(two_c.terms[("c", 0)]) is Fraction
    nines = LinForm(GF7, 9, {("c", 0): 9, ("c", 1): 7})
    assert str(nines) == "2*c_0 + 2" and nines == LinForm(GF7, 2, {("c", 0): 2})
    for field, bad in [(RATIONAL, 0.5), (RATIONAL, "3"), (GF7, Fraction(1, 2))]:
        with pytest.raises(TypeError):
            LinForm(field, bad)
        with pytest.raises(TypeError):
            LinForm(field, None, {("c", 0): bad})
        with pytest.raises(TypeError):
            LinForm.const(field, bad)


@pytest.mark.parametrize(
    "key",
    [(1, 0), ("c", "x"), ("c", -1), ("c", True), ("c", 1.0), ("c",), ("c", 0, 1), "c_0"],
    ids=repr,
)
def test_linform_constructor_rejects_bad_symbol_keys(key):
    # a namespace is a str and an index a natural, as LinForm.symbol builds
    # them; another key would build a form that cannot be printed or fail
    # inside the constructor's sort
    for terms in ({key: 1}, {("c", 0): 1, key: 1}):
        with pytest.raises(ValueError, match=r"symbol %s" % re.escape(repr(key))):
            LinForm(RATIONAL, None, terms)
    assert str(LinForm(RATIONAL, None, {("c", 0): 1, ("c", 2): -1})) == "c_0 - c_2"


@pytest.mark.parametrize(
    "namespace,index",
    [(1, 0), (None, 0), ("c", -1), ("c", "x"), ("c", True), ("c", 1.0)],
    ids=repr,
)
def test_linform_symbol_and_block_reject_bad_symbols(namespace, index):
    # the constructor's check, at the boundary: a bad key would otherwise
    # fail inside rendering or print as c_-1
    match = r"symbol %s" % re.escape(repr((namespace, index)))
    with pytest.raises(ValueError, match=match):
        LinForm.symbol(RATIONAL, namespace, index)
    with pytest.raises(ValueError, match=match):
        LinForm(RATIONAL, None, {(namespace, index): Fraction(1), (namespace, 7): Fraction(2)})
    # the symbol of a zero coefficient is checked too, though no row holds it
    with pytest.raises(ValueError, match=match):
        LinForm(RATIONAL, None, {(namespace, index): 0})


def test_linform_symbol_and_block_accept_natural_symbols():
    assert str(LinForm.symbol(RATIONAL, "c", 0)) == "c_0"
    assert str(LinForm(RATIONAL, None, {("c", 0): F1, ("c", 2): Fraction(-3)})) == "c_0 - 3*c_2"
    assert str(LinForm(GF7, None, {("t", 1): 2})) == "2*t_1"


def test_linform_namespace_ordering_in_render():
    f = sym("t", 0) + sym("s", 2)
    assert str(f) == "s_2 + t_0"


def test_linform_cross_field_raises():
    with pytest.raises(FieldMismatch):
        sym("c", 0) + sym("c", 0, GF7)


def _form_terms(values):
    return st.lists(st.tuples(st.sampled_from("cst"), st.integers(0, 5), values), max_size=8)


@settings(deadline=None)
@given(st.sampled_from([RATIONAL, GF7]).flatmap(
    lambda F: st.tuples(
        st.just(F),
        *[_form_terms(rationals if F is RATIONAL else st.integers(0, 6))] * 2,
    )
))
def test_linform_group_laws(field_and_terms):
    F, terms_a, terms_b = field_and_terms
    one = F.one()
    minus_one = F.neg(one)

    def build(terms):
        return comb(*((v, sym(ns, i, F)) for ns, i, v in terms), field=F)

    def neg(f):
        return comb((minus_one, f), field=F)

    a, b = build(terms_a), build(terms_b)
    # one combination equals adding the scaled forms one by one
    one_by_one = LinForm.zero(F)
    for ns, i, v in terms_a:
        one_by_one = one_by_one + comb((v, sym(ns, i, F)), field=F)
    assert one_by_one == a
    assert a + b == comb((one, a), (one, b), field=F)
    assert comb((one, a + b), (minus_one, b), field=F) == a
    assert a + b == b + a
    assert comb((one, a), (minus_one, a), field=F).is_zero()
    # a + b and -b hold every namespace of b, so each of b's rows is
    # merged (and cancelled) through the rows' add_combination
    assert (a + b) + neg(b) == a
    assert (a + neg(a)).is_zero() and not (a + neg(a)).blocks
    for f in (a + b, (a + b) + neg(b)):
        for block in f.blocks.values():
            support = block.support
            assert support and all(v for _, v in support)
            assert [i for i, _ in support] == sorted({i for i, _ in support})
        # the flat view groups back into the same form
        assert LinForm(F, f.constant, f.terms) == f


# -- the field-level formatter against the one-term-at-a-time reference -------

FORMAT_PRIMES = [2, 32003, 2**61 - 1]

symbols = st.tuples(st.sampled_from(["c", "s", "t", "rhs"]), st.integers(0, 10**6))
# one and minus one (printed without a coefficient), small and large
# integers, non-integral values and large numerators over large denominators
nonzero_rationals = st.one_of(
    st.sampled_from([F1, -F1]),
    st.integers(-(10**40), 10**40).map(Fraction),
    st.fractions(min_value=-50, max_value=50, max_denominator=12),
    st.builds(Fraction, st.integers(-(10**30), 10**30), st.integers(1, 10**30)),
).filter(bool)


@st.composite
def forms(draw):
    """(form, leading): a LinForm over the rationals or a GF(p) of
    FORMAT_PRIMES, the empty form included, and None, one of its symbols
    or a symbol it lacks as the leading one."""
    p = draw(st.sampled_from([None] + FORMAT_PRIMES))
    if p is None:
        field, values = RATIONAL, nonzero_rationals
        constant = draw(st.one_of(st.just(Fraction(0)), nonzero_rationals))
    else:
        field, values = Field.gf(p), st.integers(1, p - 1)
        constant = draw(st.one_of(st.just(0), st.integers(0, p - 1)))
    terms = draw(st.dictionaries(symbols, values, max_size=8))
    leading = draw(st.one_of(st.none(), symbols, st.sampled_from(sorted(terms) or [None])))
    return LinForm(field, constant, terms), leading


@settings(deadline=None, max_examples=300)
@given(forms())
def test_render_matches_the_reference(form_and_leading):
    form, leading = form_and_leading
    assert form.render() == str(form) == render_form(form)
    assert form.render(leading=leading) == render_form(form, leading)


@st.composite
def scaled_blocks(draw):
    """(constant, {ns: [(i, Fraction)]}, leading): each block drawn as
    nonzero int numerators over one denominator (one, small or large), so a
    non-integral block holds entries of magnitude one, entries that are
    integral in lowest terms and negative ones; a namespace may be drawn
    with no entries (the zero form), and leading is None, a symbol of the
    form or one it lacks."""
    blocks = {}
    for ns in draw(st.sets(st.sampled_from(["c", "s", "t", "rhs"]), max_size=3)):
        den = draw(st.one_of(st.just(1), st.integers(2, 12), st.integers(2, 10**30)))
        numerators = st.one_of(
            st.sampled_from([den, -den]),
            st.integers(-4, 4).filter(bool).map(lambda m, d=den: m * d),
            st.integers(-(10**30), 10**30).filter(bool),
        )
        indices = sorted(draw(st.sets(st.integers(0, 10**6), max_size=6)))
        blocks[ns] = [(i, Fraction(draw(numerators), den)) for i in indices]
    constant = draw(st.one_of(st.just(Fraction(0)), nonzero_rationals))
    symbols_held = [(ns, i) for ns, support in blocks.items() for i, _ in support]
    leading = draw(st.one_of(st.none(), symbols, st.sampled_from(symbols_held or [None])))
    return constant, blocks, leading


@settings(deadline=None, max_examples=300)
@given(scaled_blocks())
def test_render_of_scaled_blocks_matches_the_fraction_reference(drawn):
    constant, blocks, leading = drawn
    form = LinForm.const(RATIONAL, constant)
    for ns, support in blocks.items():
        form = form + LinForm(RATIONAL, None, {(ns, i): v for i, v in support})
    assert form.render() == str(form) == render_fraction_blocks(constant, blocks)
    assert form.render(leading=leading) == render_fraction_blocks(constant, blocks, leading)
    # the flat view round-trips to the Fraction supports the blocks were built from
    expect = {(ns, i): v for ns, support in blocks.items() for i, v in support}
    assert form.terms == expect
    assert all(type(v) is Fraction for v in form.terms.values())
    assert LinForm(RATIONAL, constant, expect) == form
    assert form.is_zero() == (not expect and not constant)


@settings(deadline=None)
@given(st.sampled_from([None] + FORMAT_PRIMES).flatmap(
    lambda p: st.tuples(
        st.just(p),
        st.lists(st.one_of(st.just(Fraction(0)), nonzero_rationals) if p is None
                 else st.integers(0, p - 1)),
    )
))
def test_constant_form_text_is_str_of_the_value(p_and_values):
    # a constant is written through format_quotients, as a row's entries are
    p, values = p_and_values
    field = RATIONAL if p is None else Field.gf(p)
    texts = [str(LinForm.const(field, v)) for v in values]
    assert texts == [str(v) for v in values]
    assert texts == [format_value(v) for v in values]


# -- values past the int-to-text digit limit ----------------------------------
# Python 3.11 refuses str() and int() of an int past sys.get_int_max_str_digits()
# (default 4,300) decimal digits; Decimal holds an int exactly and writes it
# without that conversion, so it is the reference text here.


def _digits(n: int) -> str:
    return str(Decimal(n))


HUGE = [10**5000, -(10**5000) + 1, 7**20000, -(3**40000), 10**4300]


def test_huge_values_are_written_in_full():
    for n in HUGE:
        assert RATIONAL.format_quotients(1, ((0, n),)) == [_digits(n)]
        assert str(LinForm.const(RATIONAL, n)) == _digits(n)
        # over a denominator, in lowest terms, and reduced to an integer
        d = 2**20000
        assert RATIONAL.format_quotients(d, ((3, 2 * n + 1),)) == [
            "%s/%s" % (_digits(2 * n + 1), _digits(d))]
        assert RATIONAL.format_quotients(d, ((3, n * d),)) == [_digits(n)]
    assert str(LinForm.const(RATIONAL, 10**5000)) == "1" + "0" * 5000


def test_huge_coefficients_render_in_full():
    # render_terms, on an integral row and on one over a denominator
    n = 10**5000 + 7
    for scale, text in ((1, _digits(n)), (Fraction(1, 3), _digits(n) + "/3")):
        form = LinForm(RATIONAL, None, {("x", 0): -n * scale, ("x", 2): 1, ("x", 4): n * scale})
        assert str(form) == "-%s*x_0 + x_2 + %s*x_4" % (text, text)


def test_huge_values_parse_in_full():
    text = "9" * 4301
    assert RATIONAL.parse(text) == 10**4301 - 1
    assert RATIONAL.parse("-" + text + "/" + "3" * 4301) == Fraction(-(10**4301 - 1),
                                                                    (10**4301 - 1) // 3)
    assert GF7.parse("1" + "0" * 4300) == 10**4300 % 7
    assert GF7.parse("-" + text) == -(10**4301 - 1) % 7
    with pytest.raises(ZeroDivisionError):
        RATIONAL.parse(text + "/" + "0" * 4301)


@st.composite
def huge_fractions(draw):
    """A rational whose numerator and denominator each have up to about
    20,000 digits (66,000 bits), from a drawn seed: a value that long
    drawn digit by digit is past Hypothesis's input size. The long sizes
    start just under the 4,300-digit limit (14,284 bits)."""
    rng = draw(st.randoms(use_true_random=False))
    bits = st.one_of(st.integers(1, 200), st.integers(14_000, 66_000))
    n = rng.getrandbits(draw(bits)) * draw(st.sampled_from([1, -1]))
    return Fraction(n, rng.getrandbits(draw(bits)) or 1)


@settings(deadline=None, max_examples=25)
@given(huge_fractions())
def test_huge_values_round_trip_through_writer_and_parser(value):
    row = Row(RATIONAL, ((0, Fraction(1, 7)), (5, value))) if value else Row.zero(RATIONAL)
    texts = [t.split(":")[1] for t in str(row).split()]
    assert Row.from_pairs(RATIONAL, zip([c for c, _ in row.support],
                                        map(RATIONAL.parse, texts))) == row
    num, den = value.numerator, value.denominator
    want = _digits(num) if den == 1 else "%s/%s" % (_digits(num), _digits(den))
    assert str(LinForm.const(RATIONAL, value)) == want
