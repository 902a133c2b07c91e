import re
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from omegagj import (
    BUILTINS,
    DuplicateOffset,
    Field,
    MonomialOrdering,
    RATIONAL,
    Row,
    RowFiniteMatrix,
    make_explicit,
    make_stencil,
)
from fixtures import FULKERSON_INPUT, PDE_INPUT
from oracles import enumerate_pairs, fulkerson_row, prec1_key, prec2_key
from util import mk_rows, row_dict

GF7 = Field.gf(7)


def test_stencil_band_rows():
    m = make_stencil(RATIONAL, {0: Fraction(1), 1: Fraction(1)})
    assert row_dict(m.row_at(0)) == {0: Fraction(1), 1: Fraction(1)}
    assert row_dict(m.row_at(4)) == {4: Fraction(1), 5: Fraction(1)}


def test_stencil_negative_offsets_clip_at_zero():
    m = make_stencil(RATIONAL, [(-1, Fraction(2)), (0, Fraction(1))])
    assert row_dict(m.row_at(0)) == {0: Fraction(1)}
    assert row_dict(m.row_at(3)) == {2: Fraction(2), 3: Fraction(1)}


def test_stencil_duplicate_offset_rejected():
    with pytest.raises(DuplicateOffset):
        make_stencil(RATIONAL, [(0, Fraction(1)), (0, Fraction(2))])


def test_stencil_zero_values_dropped():
    m = make_stencil(RATIONAL, {0: Fraction(0), 2: Fraction(1)})
    assert row_dict(m.row_at(1)) == {3: Fraction(1)}


def test_explicit_prefix_and_zero_tail():
    rows = mk_rows(RATIONAL, [{2: Fraction(1)}, {}, {0: Fraction(5)}])
    for given in (rows, {0: rows[0], 2: rows[2]}):
        m = make_explicit(RATIONAL, given)
        assert m.row_at(0) == rows[0]
        assert m.row_at(1).is_zero()
        assert m.row_at(2) == rows[2]
        assert m.row_at(7).is_zero()


def test_row_memoization_is_stable():
    calls = []

    def gen(k):
        calls.append(k)
        return Row.unit(RATIONAL, k)

    m = RowFiniteMatrix(RATIONAL, gen)
    r5a = m.row_at(5)
    r5b = m.row_at(5)
    assert r5a is r5b
    assert calls == [0, 1, 2, 3, 4, 5]


@pytest.mark.parametrize(
    "field,support,reason",
    [
        (RATIONAL, ((3, Fraction(1)), (1, Fraction(2))), "increasing"),
        (RATIONAL, ((1, Fraction(1)), (1, Fraction(2))), "increasing"),
        (RATIONAL, ((-1, Fraction(1)),), "negative"),
        (RATIONAL, ((0, Fraction(0)),), "zero"),
        (RATIONAL, ((0, 1),), "Fraction"),
        (RATIONAL, ((0, 0.5),), "Fraction"),
        (GF7, ((0, 0),), "zero"),
        (GF7, ((0, 7),), r"\[0, 7\)"),
        (GF7, ((0, -1),), r"\[0, 7\)"),
        (GF7, ((0, Fraction(1)),), r"\[0, 7\)"),
    ],
    ids=["unsorted", "repeated", "negative", "q-zero", "q-int", "q-float",
         "gf-zero", "gf-p", "gf-negative", "gf-fraction"],
)
def test_row_at_rejects_non_canonical_generator_rows(field, support, reason):
    m = RowFiniteMatrix(field, lambda k: Row(field, support if k == 2 else ()))
    assert m.row_at(1).is_zero()
    with pytest.raises(ValueError, match="row 2") as info:
        m.row_at(2)
    assert re.search(reason, str(info.value))
    assert repr(support[-1]) in str(info.value)


def test_row_at_rejects_generator_output_that_is_not_a_row():
    m = RowFiniteMatrix(RATIONAL, lambda k: ((3, 1), (1, 2)))
    with pytest.raises(ValueError, match="row 0"):
        m.row_at(0)


def test_top_submatrix():
    m = make_stencil(RATIONAL, {0: Fraction(1)})
    top = m.top_submatrix(3)
    assert len(top) == 4
    assert top[3] == Row.unit(RATIONAL, 3)


# -- monomial orderings -------------------------------------------------------


@pytest.mark.parametrize(
    "kind,key", [("prec1", prec1_key), ("prec2", prec2_key)]
)
def test_ordering_matches_sorted_oracle(kind, key):
    order = MonomialOrdering(kind)
    pairs = enumerate_pairs(key, 7)
    for n, pair in enumerate(pairs):
        assert order.rank(*pair) == n
        assert order.unrank(n) == pair


def test_ordering_specific_ranks():
    codomain = MonomialOrdering("prec1")
    assert [codomain.rank(*p) for p in [(0, 0), (1, 0), (0, 1), (1, 1), (2, 1)]] == [
        0,
        1,
        2,
        4,
        7,
    ]
    domain = MonomialOrdering("prec2")
    assert [domain.rank(*p) for p in [(0, 1), (1, 0), (2, 0), (0, 3), (3, 0)]] == [
        1,
        2,
        3,
        6,
        9,
    ]


def test_ordering_rejects_unknown_kind():
    with pytest.raises(ValueError):
        MonomialOrdering("lex")


@settings(deadline=None)
@given(st.integers(0, 400), st.sampled_from(["prec1", "prec2"]))
def test_rank_unrank_round_trip(n, kind):
    order = MonomialOrdering(kind)
    i, j = order.unrank(n)
    assert i >= 0 and j >= 0
    assert order.rank(i, j) == n


# -- builtin matrices ---------------------------------------------------------


def test_builtin_names():
    assert set(BUILTINS) == {"bidiag", "repeated", "fulkerson", "pde"}


def test_builtin_bidiag_rows():
    m = BUILTINS["bidiag"]()
    assert row_dict(m.row_at(3)) == {3: Fraction(1), 4: Fraction(1)}


def test_builtin_repeated_rows():
    m = BUILTINS["repeated"]()
    for k in (0, 1, 9):
        assert row_dict(m.row_at(k)) == {0: Fraction(1)}


def test_builtin_fulkerson_first_rows():
    m = BUILTINS["fulkerson"]()
    for k, expect in enumerate(FULKERSON_INPUT):
        assert row_dict(m.row_at(k)) == expect


def test_builtin_fulkerson_matches_recurrence_oracle():
    m = BUILTINS["fulkerson"]()
    for k in range(16):
        assert row_dict(m.row_at(k)) == fulkerson_row(k)


def _fulkerson_even_row(n):
    """Row 2n of Fulkerson's matrix, as documented: e_2 + e_3 for n = 0,
    e_3 + e_5 + e_6 for n = 1, and e_3 + e_6 + e_{3n+2} + e_{3n+3} after."""
    if n == 0:
        cols = (2, 3)
    elif n == 1:
        cols = (3, 5, 6)
    else:
        cols = (3, 6, 3 * n + 2, 3 * n + 3)
    return Row.from_pairs(RATIONAL, [(c, 1) for c in cols])


def _cubic_fulkerson_row(k):
    """The odd-row recurrence as first written: rebuild (n+1) * row 2n plus
    every earlier even row, re-sorting the running row after each one."""
    if k % 2 == 0:
        return _fulkerson_even_row(k // 2)
    n = k // 2
    if n == 0:
        return Row.zero(RATIONAL)
    acc = Row.from_pairs(RATIONAL, [(c, (n + 1) * v) for c, v in _fulkerson_even_row(n).support])
    for i in range(n):
        acc = Row.from_pairs(
            RATIONAL, list(acc.support) + list(_fulkerson_even_row(i).support)
        )
    return acc


def test_builtin_fulkerson_running_sum_matches_cubic_recurrence():
    m = BUILTINS["fulkerson"]()
    for k in range(61):
        assert m.row_at(k) == _cubic_fulkerson_row(k)
    # the generator also answers out of order, restarting its running sum
    fresh = BUILTINS["fulkerson"]()
    for k in (41, 7, 59, 59, 1, 13):
        assert fresh.generator(k) == _cubic_fulkerson_row(k)


def test_builtin_pde_first_rows():
    m = BUILTINS["pde"]()
    for k, expect in enumerate(PDE_INPUT):
        assert row_dict(m.row_at(k)) == expect


def test_builtin_pde_rows_are_finite_and_structured():
    m = BUILTINS["pde"]()
    # the image of a degree-d monomial lives in degrees d and d+1
    order_in = MonomialOrdering("prec2")
    order_out = MonomialOrdering("prec1")
    for k in range(1, 36):
        i, j = order_in.unrank(k)
        d = i + j
        for col, _ in m.row_at(k).support:
            oi, oj = order_out.unrank(col)
            assert oi + oj in (d, d + 1)


def _pde_rows(count):
    """Rows 0..count-1 of the pde operator, from its formula, with both
    monomial orders read off the oracle's sorted enumeration."""
    domain = enumerate_pairs(prec2_key, 30)[:count]
    codomain = {pair: n for n, pair in enumerate(enumerate_pairs(prec1_key, 31))}
    rows = []
    for i, j in domain:
        image = [(i * j, i + 1, j - 1), (i * j, i, j), (i * j, i - 1, j + 1),
                 (j, i + 1, j), (i, i, j + 1)]
        rows.append(Row.from_pairs(RATIONAL, [
            (codomain[(a, b)], coeff) for coeff, a, b in image
            if coeff and a >= 0 and b >= 0]))
    return rows


@pytest.mark.parametrize("name", ["bidiag", "pde", "fulkerson", "repeated"])
def test_builtin_rows_are_canonical_and_match_their_definitions(name):
    # the builtins build their rows without the checking constructor, so
    # each row must still be one it accepts: sorted natural columns and
    # nonzero lowest-terms Fractions whose numerators are ints, never bools
    count = 301
    if name == "bidiag":
        want = [Row.from_pairs(RATIONAL, [(k, 1), (k + 1, 1)]) for k in range(count)]
    elif name == "pde":
        want = _pde_rows(count)
    elif name == "fulkerson":
        want = [_cubic_fulkerson_row(k) for k in range(count)]
    else:
        want = [Row.from_pairs(RATIONAL, [(0, 1)])] * count
    m = BUILTINS[name]()
    for k in range(count):
        r = m.row_at(k)
        assert Row(RATIONAL, r.support).support == r.support
        for _, v in r.support:
            assert type(v) is Fraction
            assert type(v.numerator) is int and type(v.denominator) is int
        assert r == want[k], k
    first = {"pde": PDE_INPUT, "fulkerson": FULKERSON_INPUT}.get(name, [])
    for k, expect in enumerate(first):
        assert row_dict(want[k]) == expect


def test_stencil_checks_and_converts_its_values_once():
    # a value the field does not accept fails when the stencil is made,
    # naming its offset, not at the first row_at
    for bad in (0.5, "1"):
        with pytest.raises(ValueError, match="offset -2") as info:
            make_stencil(RATIONAL, [(0, 1), (-2, bad)])
        assert repr(bad) in str(info.value)
    with pytest.raises(ValueError, match="offset 1"):
        make_stencil(GF7, {0: 1, 1: Fraction(1, 2)})
    with pytest.raises(ValueError, match="offset 0.5"):
        make_stencil(RATIONAL, {0: 1, 0.5: 1})
    # ints over the rationals become Fractions with int numerators
    m = make_stencil(RATIONAL, {1: 3, -1: -2, 0: Fraction(4, 6)})
    assert m.row_at(0).support == ((0, Fraction(2, 3)), (1, Fraction(3)))
    assert m.row_at(3).support == (
        (2, Fraction(-2)), (3, Fraction(2, 3)), (4, Fraction(3)))
    for _, v in m.row_at(3).support:
        assert type(v) is Fraction and type(v.numerator) is int
    # every row is held canonical, also a row cut at column 0 that loses
    # the entry which set the band's denominator
    h = make_stencil(RATIONAL, {-1: Fraction(1, 2), 0: 2, 2: Fraction(1, 3)})
    assert [h.row_at(k).den for k in range(3)] == [3, 6, 6]
    for k in range(3):
        assert h.row_at(k) == Row(RATIONAL, h.row_at(k).support)
    # values over GF(7) are reduced, and a multiple of 7 is dropped
    g = make_stencil(GF7, [(2, 7), (-1, -3), (0, 1)])
    assert g.row_at(0).support == ((0, 1),)
    assert g.row_at(5).support == ((4, 4), (5, 1))
    for k in range(6):
        r = g.row_at(k)
        assert Row(GF7, r.support).support == r.support
