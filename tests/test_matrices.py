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


def _cubic_fulkerson_row(k):
    """The odd-row recurrence as first written: rebuild (n+1) * row 2n plus
    every earlier even row, re-sorting the running row after each one."""
    from omegagj.matrices import _fulkerson_even

    if k % 2 == 0:
        return _fulkerson_even(k // 2)
    n = k // 2
    if n == 0:
        return Row.zero(RATIONAL)
    acc = _fulkerson_even(n).scaled_raw(Fraction(n + 1))
    for i in range(n):
        acc = Row.from_pairs(
            RATIONAL, list(acc.support) + list(_fulkerson_even(i).support)
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
