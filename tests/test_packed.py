"""Packed GF(p) passage rows: slot arithmetic, delayed reduction, span and
the Row read interface."""

import io
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from omegagj import RATIONAL, Field, FieldMismatch, Row, make_explicit, run_to
from omegagj import cli
from omegagj.rows import PackedRow, passage_unit
from omegagj.scalars import PrimeField
from util import mk_row

# one prime per slot width, 64, 128 and 192 bits; the first two leave the
# 16 bits of headroom exactly, so an axpy chain exhausts it quickly
HEADROOM_PRIMES = [16777213, 2**56 - 5]
PRIMES = [2, 32003] + HEADROOM_PRIMES + [2**61 - 1, 318665857834031151167441]


def _packed(F, lo, values):
    return PackedRow(F, lo, F.pack(values), max(values))


def _copy(r):
    return PackedRow(r.field, r.lo, r.bits, r.bound)


def _slot_count(r):
    w = r.field.slot_bits
    return (r.bits.bit_length() + w - 1) // w


@pytest.mark.parametrize("p", PRIMES)
def test_slots_pack_and_reduce_round_trip(p):
    F = Field.gf(p)
    w = F.slot_bits
    assert w % 64 == 0 and 2 * p.bit_length() + 16 <= w < 2 * p.bit_length() + 16 + 64
    rng = random.Random(p)
    values = [rng.randrange(2**w) for _ in range(37)] + [1]
    bits = F.pack(values)
    assert list(F.slots(bits)) == values
    assert list(F.slots(F.reduce_slots(bits))) == [v % p for v in values]


@pytest.mark.parametrize("p", HEADROOM_PRIMES)
def test_axpy_chain_past_the_headroom_matches_the_sparse_kernel(p):
    # each step adds (p - 1) * (p - 1) to a slot, so about 2^16 steps fill
    # one; the chain runs past that and must reduce on the way
    F = Field.gf(p)
    sources = [_packed(F, 3, [p - 1, 1, p - 1, p - 2]), _packed(F, 9, [p - 1, 0, 5])]
    y = passage_unit(F, 5, 1)
    ref = Row(F, y.support)
    reductions = 0
    for k in range(70_000):
        before = y.bound
        y = y.add_combination(((k % 2, F.neg(1)),), sources)
        assert y.bound < 2**F.slot_bits
        reductions += y.bound < before
        ref = ref.add_combination(((0, F.neg(1)),), [Row(F, sources[k % 2].support)])
        # a read reduces a packed row in place, so read a copy: y itself
        # must carry its unreduced slots on to the next sum
        if k % 4096 == 0:
            assert _copy(y) == ref
    assert reductions >= 1
    assert _copy(y) == ref
    # an unreduced source whose multiple could carry out of a slot
    assert y.bound * (p - 1) >> F.slot_bits
    scaled = PackedRow(F, 0, 0, 0).add_combination(((0, p - 1),), [y])
    assert scaled == ref.normalized(F.inv(p - 1))[0]


def test_star_passage_rows_cost_their_span():
    # row k = e_0 + e_k makes Q_k = e_k - e_0: two nonzeros over k + 1 slots
    F = Field.gf(32003)
    n = 50
    rows = [mk_row(F, {0: 1})] + [mk_row(F, {0: 1, k: 1}) for k in range(1, n + 1)]
    state = run_to(make_explicit(F, rows), n)
    assert _slot_count(passage_unit(F, 10**6, 1)) == 1
    assert _slot_count(state.passage[0]) == 1
    for k in range(1, n + 1):
        q = state.passage[k]
        assert q.lo == 0 and _slot_count(q) == k + 1
        assert q.support == ((0, 32002), (k, 1))


@pytest.mark.parametrize("p", PRIMES)
def test_packed_row_reads_like_the_row(p):
    F = Field.gf(p)
    values = [0, p - 1, 2, 0, 1]
    r = _packed(F, 4, [v + p for v in values])  # congruent, not reduced
    row = mk_row(F, {4 + i: v for i, v in enumerate(values)})
    assert r.bound >= p
    assert r.support == row.support
    assert r.bound < p  # the read reduced the slots in place
    assert r == row and row == r
    assert str(r) == str(row) and r.maxs == row.maxs == 8
    assert not r.is_zero()
    zero = _packed(F, 2, [p, 2 * p])
    assert zero.is_zero() and zero.maxs is None and zero == Row.zero(F)
    assert repr(zero) == "PackedRow(0)"
    assert r.add_combination((), [r]) is r
    # r plus (p - 1) times itself cancels every column
    cancelled = r.add_combination(((0, p - 1),), [r])
    assert cancelled.is_zero() and cancelled == Row.zero(F)


@pytest.mark.parametrize("p", [32003, 2**61 - 1])
def test_packed_row_reduces_itself_once(p, monkeypatch):
    # an unreduced row reduces its slots in place the first time it is used
    # as a source or read, and never again; every read gives its value
    F = Field.gf(p)
    values = [3, 0, p - 1, 1]
    r = _packed(F, 2, [v + p for v in values])  # congruent, not reduced
    row = mk_row(F, {2 + i: v for i, v in enumerate(values) if v})
    calls = []
    reduce_slots = PrimeField.reduce_slots

    def counting(self, bits):
        calls.append(bits)
        return reduce_slots(self, bits)

    monkeypatch.setattr(PrimeField, "reduce_slots", counting)
    sums = [passage_unit(F, 0, 1).add_combination(((0, lam),), [r]) for lam in (2, p - 1)]
    assert r.nums == row.nums == ((2, 3), (4, p - 1), (5, 1))
    assert r.maxs == row.maxs == 5 and not r.is_zero()
    assert str(r) == str(row) == "2:3 4:%d 5:1" % (p - 1)
    assert r == row and r.entry_texts() == row.entry_texts()
    assert len(calls) == 1
    for got, lam in zip(sums, (2, p - 1)):
        assert got == Row.unit(F, 0).add_combination(((0, lam),), [row])


@pytest.mark.parametrize("p", [7, 2**61 - 1])
def test_row_and_packed_row_share_one_read_interface(p):
    # GF(2^61 - 1) slots are 192 bits wide, wider than one 64-bit word
    F = Field.gf(p)
    values = [3, 0, p - 1, 1]
    packed = _packed(F, 2, [v + p for v in values])  # congruent, not reduced
    row = mk_row(F, {2 + i: v for i, v in enumerate(values) if v})
    assert packed.den == row.den == 1
    assert packed.nums == row.nums == ((2, 3), (4, p - 1), (5, 1))
    assert packed.support == packed.nums
    assert packed == row and row == packed and not packed != row
    assert packed.entry_texts() == row.entry_texts()
    assert repr(packed) == "PackedRow(2:3 4:%d 5:1)" % (p - 1)
    assert repr(row) == "Row(2:3 4:%d 5:1)" % (p - 1)
    assert repr(Row.zero(F)) == "Row(0)"
    # one residue changed, on either side
    other = _packed(F, 2, [3, 0, p - 2, 1])
    assert other != row and row != other and other != packed
    assert row != mk_row(F, {2: 3, 4: p - 1, 5: 2})
    assert packed != mk_row(F, {2: 3, 4: p - 1})


def test_rows_over_different_fields_do_not_compare():
    packed = passage_unit(Field.gf(7), 0, 1)
    for row in (Row.unit(Field.gf(11), 0), Row.unit(RATIONAL, 0)):
        with pytest.raises(FieldMismatch):
            packed == row
        with pytest.raises(FieldMismatch):
            row == packed
    with pytest.raises(FieldMismatch):
        packed == passage_unit(Field.gf(11), 0, 1)
    assert packed != "1" and packed != 1


def test_passage_unit_is_packed_over_gf_only():
    F = Field.gf(7)
    for lam in (1, 5):
        unit = passage_unit(F, 3, lam)
        assert type(unit) is PackedRow and unit == mk_row(F, {3: lam})
        assert (unit.lo, unit.bits, unit.bound) == (3, lam, lam)
    for lam in (Fraction(1), Fraction(-2, 3)):
        unit = passage_unit(RATIONAL, 3, lam)
        assert type(unit) is Row and unit == mk_row(RATIONAL, {3: lam})
        assert (unit.den, unit.nums) == (lam.denominator, ((3, lam.numerator),))


def test_packed_tsv_lines_equal_the_row_lines():
    # slots on both sides of window edges, one row far right
    F = Field.gf(32003)
    rng = random.Random(5)
    packed = [
        passage_unit(F, 10**5, 1),
        _packed(F, 4090, [rng.randrange(32003) for _ in range(4200)]),
        _packed(F, 0, [0, 7, 0]),
    ]
    rows = [Row(F, r.support) for r in packed]
    got, want = io.StringIO(), io.StringIO()
    cli._emit_rows(got, "passage", packed)
    cli._emit_rows(want, "passage", rows)
    assert got.getvalue() == want.getvalue()


@st.composite
def _packed_combinations(draw, p):
    """A packed row y, two packed sources, one left of y's lo and one
    right of it (so both shift signs), every slot drawn unreduced up to the
    slot width, and (i, lam) pairs over [source, source, y]: a source may
    repeat, and y as its own source cancels columns. Slots near the top
    of the width make most sums reduce first."""
    F = Field.gf(p)
    w = F.slot_bits
    slot = st.one_of(st.integers(0, p - 1), st.integers(0, 2**w - 1),
                     st.integers(2 ** (w - 1), 2**w - 1))

    def packed(lo):
        return _packed(F, lo, draw(st.lists(slot, min_size=1, max_size=6)))

    ylo = draw(st.integers(0, 6))
    rows = [packed(draw(st.integers(0, ylo))), packed(draw(st.integers(ylo, 12))), packed(ylo)]
    lams = st.one_of(st.sampled_from([1, p - 1]), st.integers(1, p - 1))
    pairs = draw(st.lists(st.tuples(st.integers(0, 2), lams), max_size=5))
    return F, rows, pairs


@pytest.mark.parametrize("p", PRIMES)
def test_packed_add_combination_matches_the_row(p):
    @settings(deadline=None, max_examples=60)
    @given(_packed_combinations(p))
    def check(case):
        F, rows, pairs = case
        y = rows[2]
        got = y.add_combination(pairs, rows)
        want = Row(F, y.support).add_combination(pairs, [Row(F, r.support) for r in rows])
        assert got.support == want.support and got == want
        assert 0 <= got.bits and got.bound < 2**F.slot_bits
        assert all(v <= got.bound for v in F.slots(got.bits))

    check()
