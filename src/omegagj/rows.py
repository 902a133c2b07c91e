"""Finitely supported rows: sorted (column, value) support lists over a
field (input rows, and H over GF(p)); scaled integer rows, in which the
engine holds H and Q over the rationals; packed passage rows over GF(p);
and working_row and passage_unit, which pick each field's row type."""

from __future__ import annotations

from bisect import bisect_left
from math import gcd, lcm
from typing import Iterable, Optional, Tuple

from .scalars import Field, check_same_field


class Row:
    """An immutable finitely supported sequence indexed by naturals.

    support is a tuple of (column, raw value) pairs with strictly increasing
    natural columns and no zero values, so equal rows have equal supports.
    Raw values are lowest-terms Fractions over the rationals and ints in
    [1, p) over GF(p); from_pairs converts ints. The constructor rejects,
    with a ValueError naming the entry, a support that breaks any of this or
    is not a tuple of 2-tuples; the field kernels' results are canonical
    already and skip the check. Its arithmetic (normalized, add_combination)
    is over GF(p) only; over the rationals a Row holds input rows, text and
    equality, its arithmetic raises a TypeError from the field, and
    working_row makes the ScaledRow.
    """

    __slots__ = ("field", "support")

    def __init__(self, field: Field, support: Tuple[Tuple[int, object], ...] = ()):
        if not isinstance(support, tuple):
            raise ValueError("support is a %s, not a tuple" % type(support).__name__)
        prev = -1
        for entry in support:
            if not (isinstance(entry, tuple) and len(entry) == 2):
                raise ValueError("entry %r: not a (column, value) tuple" % (entry,))
            c, v = entry
            if type(c) is not int or c < 0:
                reason = "negative or non-integer column"
            elif c <= prev:
                reason = "columns not strictly increasing"
            else:
                reason = field.entry_error(v)
            if reason is not None:
                raise ValueError("entry %r: %s" % (entry, reason))
            prev = c
        self.field = field
        self.support = support

    @classmethod
    def from_pairs(cls, field: Field, pairs: Iterable[Tuple[int, object]]) -> "Row":
        """Build from (column, value) pairs in any order; repeats accumulate.

        Each pair is checked once, its column a natural and its value one
        the field accepts; field.add makes every sum a stored value, so the
        result is built without the constructor's second check.
        """
        acc: dict = {}
        add, accepts, zero = field.add, field.accepts, field.zero()
        for col, val in pairs:
            if type(col) is not int or col < 0:
                raise ValueError("column %r: negative or non-integer column" % (col,))
            if not accepts(val):
                raise ValueError("column %d: %r is not a value of %r" % (col, val, field))
            v = add(acc.get(col, zero), val)
            if v:
                acc[col] = v
            else:
                acc.pop(col, None)
        return _row(field, tuple(sorted(acc.items())))

    @classmethod
    def zero(cls, field: Field) -> "Row":
        return cls(field, ())

    @classmethod
    def unit(cls, field: Field, col: int) -> "Row":
        return cls(field, ((col, field.one()),))

    def is_zero(self) -> bool:
        return not self.support

    @property
    def maxs(self) -> Optional[int]:
        """Rightmost support index; None for the zero row."""
        return self.support[-1][0] if self.support else None

    def raw(self, col: int):
        """Raw value at a column (field zero when absent).

        A linear scan that stops at the first column past col. Supports are
        not always short (passage rows can be dense lower-triangular), so
        the engine's column clear does not probe every row with this: it
        reads only the rows its column index lists for the column.
        """
        for c, v in self.support:
            if c == col:
                return v
            if c > col:
                break
        return self.field.zero()

    def normalized(self, lead) -> tuple:
        """This row over GF(p) divided by its entry lead, so that entry
        becomes one, and lead's inverse; a lead of one returns the row
        itself."""
        F = self.field
        inv = F.inv(lead)
        if inv == 1:
            return self, inv
        return _row(F, F.scale_support(inv, self.support)), inv

    def add_combination(self, pairs, rows) -> "Row":
        """This row plus the sum of lam * rows[i] over a list of (i, lam)
        pairs, made by the row's own kernel, _add_rows; a zero lam adds
        nothing. ScaledRow shares this method; for a Row it is over GF(p).
        """
        # one pair goes through axpy_raw, which calls the same _add_rows,
        # only so that the benchmark's tracer, which wraps rows.axpy_raw,
        # counts it in rows.axpy_calls (until it reads a per-stage record:
        # ROADMAP.md, items 1 and 4); axpy_raw is looked up on the module at
        # call time, so a wrapper installed there sees every engine call
        if len(pairs) == 1:
            (i, lam), = pairs
            return axpy_raw(lam, rows[i], self)
        return self._add_rows(pairs, rows)

    def _add_rows(self, pairs, rows) -> "Row":
        """This row plus the sum of lam * rows[i] over (i, lam) pairs of
        residues, in one sparse accumulator seeded with this row
        (PrimeField.combination_support), so the entries a pair does not
        reach are not copied once per pair."""
        F = self.field
        terms = []
        for i, lam in pairs:
            x = rows[i]
            if x.field is not F:
                check_same_field(F, x.field)
            if lam:
                terms.append((lam, x.support))
        if not terms:
            return self
        return _row(F, F.combination_support(self.support, terms))

    def canonical(self) -> "Row":
        """The row itself: a Row is canonical by construction (see PackedRow)."""
        return self

    def __eq__(self, other):
        if not isinstance(other, Row):
            return NotImplemented
        check_same_field(self.field, other.field)
        return self.support == other.support

    def __hash__(self):
        return hash((self.field, self.support))

    def entry_texts(self) -> tuple:
        """The sorted (column, value) pairs of the row and the canonical
        text of each value, formatted in one call: what a writer needs."""
        support = self.support
        return support, self.field.format_values([v for _, v in support])

    def __str__(self):
        pairs, texts = self.entry_texts()
        return " ".join(["%d:%s" % (i, t) for (i, _), t in zip(pairs, texts)])

    def __repr__(self):
        return "Row(%s)" % (self if self.support else "0")


def _row(field: Field, support: tuple) -> Row:
    """A Row whose support a field kernel built canonical: sets the slots only."""
    r = object.__new__(Row)
    r.field = field
    r.support = support
    return r


def check_row(field: Field, k: int, r) -> None:
    """Raise ValueError, naming row k, unless r is a Row (canonical) over field."""
    if not isinstance(r, Row):
        raise ValueError("row %d is %r, not a Row" % (k, r))
    if r.field != field:
        raise ValueError("row %d is over %r, not %r" % (k, r.field, field))


def axpy_raw(lam, x, y):
    """Return y + lam * x for two Rows over GF(p) or two ScaledRows: the
    one-pair row update, which y's own kernel (_add_rows) makes."""
    return y._add_rows(((0, lam),), (x,))


class PackedRow:
    """A passage row over GF(p), packed into one int with delayed reduction.

    Slot i of bits, field.slot_bits wide with the lowest column in the
    lowest bits, holds the entry at column lo + i as a nonnegative integer
    that is congruent to it mod p but not always reduced; bound is an
    upper bound on every slot. Its one row operation, add_combination, is
    then a few big-int operations in C per source rather than a Python loop
    over entries. A row is reduced mod p only before a sum that could carry
    out of a slot, and before it is used as a source (canonical): the
    delayed modular reduction of Dumas, Giorgi and Pernet (ACM TOMS 35(3),
    2008). A row costs slot_bits / 8 bytes per column from lo to its last
    slot, zero or not; passage_unit builds the first one of each stage.

    It reads like a Row: field, support, is_zero, maxs, str, and equality
    with a Row, built on demand from the reduced slots.
    """

    __slots__ = ("field", "lo", "bits", "bound")

    def __init__(self, field: Field, lo: int, bits: int, bound: int):
        self.field = field
        self.lo = lo
        self.bits = bits
        self.bound = bound

    def canonical(self) -> "PackedRow":
        """This row with every slot reduced mod p; itself if it is already."""
        F = self.field
        if self.bound < F.p:
            return self
        return PackedRow(F, self.lo, F.reduce_slots(self.bits), F.p - 1)

    def add_combination(self, pairs, rows) -> "PackedRow":
        """This row plus the sum of lam * rows[i] over (i, lam) pairs of
        indices into packed rows and residues, one multiply-add of packed
        ints each: a residue is nonnegative, so no slot goes negative, and
        when a sum could carry out of a slot both rows are reduced first.
        """
        F = self.field
        w = F.slot_bits
        y = self
        for i, lam in pairs:
            x = rows[i]
            if x.field is not F:
                check_same_field(F, x.field)
            bound = y.bound + lam * x.bound
            if bound >> w:
                y, x = y.canonical(), x.canonical()
                bound = y.bound + lam * x.bound
            shift = (x.lo - y.lo) * w
            if shift >= 0:
                y = PackedRow(F, y.lo, y.bits + (lam * x.bits << shift), bound)
            else:
                y = PackedRow(F, x.lo, (y.bits << -shift) + lam * x.bits, bound)
        return y

    @property
    def support(self) -> tuple:
        """The (column, residue) pairs of the nonzero slots; built, not stored."""
        r = self.canonical()
        lo = r.lo
        return tuple([(lo + i, v) for i, v in enumerate(r.field.slots(r.bits)) if v])

    def is_zero(self) -> bool:
        return not self.canonical().bits

    @property
    def maxs(self) -> Optional[int]:
        """Rightmost nonzero column; None for the zero row."""
        r = self.canonical()
        return r.lo + (r.bits.bit_length() - 1) // r.field.slot_bits if r.bits else None

    def __eq__(self, other):
        if not isinstance(other, (Row, PackedRow)):
            return NotImplemented
        check_same_field(self.field, other.field)
        return self.support == other.support

    entry_texts = Row.entry_texts
    __str__ = Row.__str__

    def __repr__(self):
        return "PackedRow(%s)" % (str(self) or "0")


class ScaledRow:
    """A row over the rationals: integer numerators over one row
    denominator (the common-denominator rows of Bareiss, Math. Comp. 22,
    1968). The engine holds both H and Q over the rationals this way, and
    a symbolic form (solver.LinForm) holds one ScaledRow per namespace: Q[i]
    itself for a symbolic k[i], and H[i]'s negated numerators for its
    homogeneous part.

    nums is a tuple of (column, int numerator) pairs with strictly
    increasing columns and no zero numerator, and den is a positive int
    with gcd(den, *numerators) == 1, so equal rows have equal den and nums,
    and an integral row holds plain ints over den 1. Its one row operation,
    add_combination, brings the rows to one common denominator and
    multiply-adds ints, with one multi-argument gcd per result row, not a
    gcd per entry; it is the only row sum and row scale over the rationals.
    RationalField.scaled_hits converts an incoming Row, working_row any
    other, normalized makes a pivot entry one, and passage_unit builds the
    first passage row of each stage.

    It reads like a Row: field, support (lowest-terms Fractions, built on
    demand), raw, entry_texts (read off the numerators), is_zero, maxs,
    str, and equality with a Row.
    """

    __slots__ = ("field", "den", "nums")

    def __init__(self, field: Field, den: int, nums: Tuple[Tuple[int, int], ...]):
        self.field = field
        self.den = den
        self.nums = nums

    def canonical(self) -> "ScaledRow":
        """The row itself: a ScaledRow is canonical by construction (see PackedRow)."""
        return self

    def normalized(self, lead: int) -> tuple:
        """This row divided by its entry of numerator lead, so that entry
        becomes one, and that entry's inverse den / lead in lowest terms.

        The result is the same numerators over lead, divided by their
        common factor (one multi-argument gcd, which lead's own numerator
        is in), so its pivot numerator equals its denominator.
        """
        den, nums = self.den, self.nums
        F = self.field
        if lead == den:
            return self, F.one()
        g = gcd(*[v for _, v in nums])
        if lead < 0:
            g = -g
        if g != 1:
            nums = tuple([(c, v // g) for c, v in nums])
        return ScaledRow(F, lead // g, nums), F.quotient(den, lead)

    add_combination = Row.add_combination

    def _add_rows(self, pairs, rows) -> "ScaledRow":
        """This row plus the sum of lam * rows[i] over (i, lam) pairs, each
        lam a Fraction or a plain int (the hits of engine.step).

        Over the common denominator L of the row and every lam * x, each
        row contributes its numerators times one int factor, summed in one
        dict; one gcd then brings the result to lowest terms, none over L 1.
        A zero lam adds nothing. A single source that lies wholly left of
        the row's entries (the passage row of a one-hit stage, whose own
        entry e_n is right of every earlier passage column) is concatenated
        instead.
        """
        F = self.field
        den = self.den
        parts = []
        L = den
        for i, lam in pairs:
            x = rows[i]
            if x.field is not F:
                check_same_field(F, x.field)
            a = lam.numerator
            if not a:
                continue
            d = lam.denominator * x.den
            if L % d:
                L = lcm(L, d)
            parts.append((a, d, x.nums))
        if not parts:
            return self
        f = L // den
        ys = self.nums
        if len(parts) == 1:
            (a, d, xs), = parts
            if xs and ys and xs[-1][0] < ys[0][0]:
                g = a * (L // d)
                left = xs if g == 1 else [(c, g * v) for c, v in xs]
                right = ys if f == 1 else [(c, f * v) for c, v in ys]
                return _scaled(F, L, tuple(left) + tuple(right))
        acc = dict(ys) if f == 1 else {c: f * v for c, v in ys}
        get = acc.get
        for a, d, xs in parts:
            g = a * (L // d)
            for c, v in xs:
                s = get(c, 0) + g * v
                if s:
                    acc[c] = s
                else:
                    del acc[c]
        return _scaled(F, L, tuple(sorted(acc.items())))

    @property
    def support(self) -> tuple:
        """The (column, lowest-terms Fraction) pairs; built, not stored."""
        return self.field.scaled_support(self.den, self.nums)

    def raw(self, col: int):
        """The lowest-terms Fraction at a column (field zero when absent),
        found by bisection on the numerators."""
        nums = self.nums
        k = bisect_left(nums, (col,))
        if k < len(nums) and nums[k][0] == col:
            return self.field.quotient(nums[k][1], self.den)
        return self.field.zero()

    def entry_texts(self) -> tuple:
        """The (column, numerator) pairs and the canonical text of each
        entry ('p/q' or 'p', as a Row's Fraction prints), read off the
        numerators without a Fraction (RationalField.format_quotients)."""
        return self.nums, self.field.format_quotients(self.den, self.nums)

    def is_zero(self) -> bool:
        return not self.nums

    @property
    def maxs(self) -> Optional[int]:
        """Rightmost support index; None for the zero row."""
        return self.nums[-1][0] if self.nums else None

    def __eq__(self, other):
        if isinstance(other, ScaledRow):
            check_same_field(self.field, other.field)
            return self.den == other.den and self.nums == other.nums
        if not isinstance(other, (Row, PackedRow)):
            return NotImplemented
        check_same_field(self.field, other.field)
        return self.support == other.support

    def __hash__(self):
        # equal to the Row of the same values, so hashed as that Row is
        return hash((self.field, self.support))

    __str__ = Row.__str__

    def __repr__(self):
        return "ScaledRow(%s)" % (str(self) or "0")


def _scaled(field: Field, den: int, nums: tuple) -> ScaledRow:
    """The ScaledRow of den over zero-free, sorted (column, numerator)
    pairs, with their common factor divided out: one gcd, none over den 1."""
    if den != 1:
        g = gcd(den, *[v for _, v in nums])
        if g != 1:
            den //= g
            nums = tuple([(c, v // g) for c, v in nums])
    return ScaledRow(field, den, nums)


def passage_unit(field: Field, col: int, lam):
    """lam times the passage row e_col, for a nonzero lam: a PackedRow over
    GF(p), where passage rows fill in densely and every value fits a fixed
    width, and a ScaledRow over the rationals, whose values have no fixed
    width but share one denominator per row."""
    if field.p is None:
        return ScaledRow(field, lam.denominator, ((col, lam.numerator),))
    return PackedRow(field, col, lam, lam)


def working_row(row):
    """row as the type that does its field's row arithmetic, the type of H:
    a ScaledRow over the rationals (a Row of Fractions brought over one
    denominator) and a Row over GF(p) (a packed row read out to its
    support); a row of that type is returned as it is."""
    F = row.field
    if F.p is None:
        if isinstance(row, ScaledRow):
            return row
        return ScaledRow(F, *F.over_common_denominator(row.support))
    return row if isinstance(row, Row) else _row(F, row.support)


def dense_width(rows: Iterable[Row]) -> int:
    """Running horizon: one past the largest rightmost index over the rows."""
    width = 0
    for r in rows:
        if r.maxs is not None and r.maxs + 1 > width:
            width = r.maxs + 1
    return width
