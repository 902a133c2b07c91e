"""Packed GF(p) passage rows: slot arithmetic, delayed reduction, span and
the Row read interface."""

import io
import random

import pytest

from omegagj import RATIONAL, Field, Row, make_explicit, run_to
from omegagj import cli
from omegagj.rows import PackedRow, ScaledRow, passage_unit
from util import mk_row

# one prime per slot width, 64, 128 and 192 bits; the first two leave the
# 16 bits of headroom exactly, so an axpy chain exhausts it quickly
HEADROOM_PRIMES = [16777213, 2**56 - 5]
PRIMES = [2, 32003] + HEADROOM_PRIMES + [2**61 - 1, 318665857834031151167441]


def _packed(F, lo, values):
    return PackedRow(F, lo, F.pack(values), max(values))


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
    y = PackedRow.unit(F, 5)
    ref = y.support
    reductions = 0
    for k in range(70_000):
        x = sources[k % 2]
        before = y.bound
        y = y.sub_scaled(1, x)
        assert y.bound < 2**F.slot_bits
        reductions += y.bound < before
        ref = F.combination_support(ref, ((F.neg(1), x.support),))
        if k % 4096 == 0:
            assert y.support == ref
    assert reductions >= 1
    assert y.support == ref
    assert y.scaled_raw(p - 1).support == F.scale_support(p - 1, ref)


def test_star_passage_rows_cost_their_span():
    # row k = e_0 + e_k makes Q_k = e_k - e_0: two nonzeros over k + 1 slots
    F = Field.gf(32003)
    n = 50
    rows = [mk_row(F, {0: 1})] + [mk_row(F, {0: 1, k: 1}) for k in range(1, n + 1)]
    state = run_to(make_explicit(F, rows), n)
    assert _slot_count(PackedRow.unit(F, 10**6)) == 1
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
    assert r.bound >= p and r.canonical().bound < p
    assert r.support == row.support
    assert r == row and row == r
    assert str(r) == str(row) and r.maxs == row.maxs == 8
    assert not r.is_zero()
    zero = _packed(F, 2, [p, 2 * p])
    assert zero.is_zero() and zero.maxs is None and zero == Row.zero(F)
    assert repr(zero) == "PackedRow(0)"
    assert r.sub_scaled(0, r) is r and r.scaled_raw(1) is r
    assert r.scaled_raw(0).is_zero()


def test_passage_unit_is_packed_over_gf_only():
    assert PackedRow.unit(Field.gf(7), 3) == passage_unit(Field.gf(7), 3)
    assert type(passage_unit(Field.gf(7), 3)) is PackedRow
    assert type(passage_unit(RATIONAL, 3)) is ScaledRow


def test_packed_tsv_lines_equal_the_row_lines():
    # slots on both sides of window edges, one row far right
    F = Field.gf(32003)
    rng = random.Random(5)
    packed = [
        PackedRow.unit(F, 10**5),
        _packed(F, 4090, [rng.randrange(32003) for _ in range(4200)]),
        _packed(F, 0, [0, 7, 0]),
    ]
    rows = [Row(F, r.support) for r in packed]
    got, want = io.StringIO(), io.StringIO()
    cli._emit_rows(got, "passage", packed)
    cli._emit_rows(want, "passage", rows)
    assert got.getvalue() == want.getvalue()
