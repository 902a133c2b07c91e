"""Finitely supported rows: Row, one sparse row type over either field,
int numerators over one row denominator, in which the engine holds the
input rows, H, Q over the rationals and the rows of symbolic forms;
PackedRow, the passage row over GF(p), which reduces its own slots; and
passage_unit, which picks each field's passage row type."""

from __future__ import annotations

from bisect import bisect_left
from typing import Iterable, Optional, Tuple

from .scalars import Field, check_same_field


class Row:
    """An immutable finitely supported sequence indexed by naturals.

    nums is a tuple of (column, int numerator) pairs with strictly
    increasing natural columns and no zero numerator, over den, a positive
    int with gcd(den, *numerators) == 1, so equal rows have equal den and
    nums. Over the rationals den is the lcm of the values' denominators
    (the common-denominator rows of Bareiss, Math. Comp. 22, 1968), so an
    integral row holds plain ints over den 1; over GF(p) den is always 1
    and the numerators are residues in [1, p). support, the (column, raw
    value) pairs, is the read-only value view, built on demand from the
    numerators over the rationals.

    The constructor takes a support of raw values (lowest-terms Fractions
    over the rationals, ints in [1, p) over GF(p); from_pairs converts
    ints) and rejects, with a ValueError naming the entry, one that breaks
    any of this or is not a tuple of 2-tuples; the field kernels' results
    are canonical already and skip the check. Its arithmetic
    (add_combination, normalized) is the field's kernels on the numerators.
    """

    __slots__ = ("field", "den", "nums")

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
        self.den, self.nums = field.over_common_denominator(support)

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
        return _row(field, *field.over_common_denominator(tuple(sorted(acc.items()))))

    @classmethod
    def zero(cls, field: Field) -> "Row":
        return _row(field, 1, ())

    @classmethod
    def unit(cls, field: Field, col: int) -> "Row":
        return cls(field, ((col, field.one()),))

    @property
    def support(self) -> tuple:
        """The (column, raw value) pairs: the numerators over GF(p), and
        lowest-terms Fractions, built on demand, over the rationals."""
        return self.field.scaled_support(self.den, self.nums)

    def is_zero(self) -> bool:
        return not self.nums

    @property
    def maxs(self) -> Optional[int]:
        """Rightmost support index; None for the zero row."""
        return self.nums[-1][0] if self.nums else None

    def raw(self, col: int):
        """The raw value at a column (field zero when absent), found by
        bisection on the numerators."""
        nums = self.nums
        k = bisect_left(nums, (col,))
        if k < len(nums) and nums[k][0] == col:
            return self.field.quotient(nums[k][1], self.den)
        return self.field.zero()

    def normalized(self, lead) -> tuple:
        """This row divided by its entry of numerator lead, so that entry
        becomes one, and that entry's inverse (field.normalized_support);
        a row whose entry is one already is returned itself."""
        F = self.field
        den, nums, inv = F.normalized_support(self.den, self.nums, lead)
        if den == self.den and nums is self.nums:
            return self, inv
        return _row(F, den, nums), inv

    def add_combination(self, pairs, rows) -> "Row":
        """This row plus the sum of lam * rows[i] over a list of (i, lam)
        pairs, made by the row's own kernel, _add_rows; a zero lam adds
        nothing."""
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
        """This row plus the sum of lam * rows[i] over (i, lam) pairs, in
        one pass of the field's kernel (field.combination_support); the
        row itself when every lam is zero."""
        F = self.field
        summed = F.combination_support(self.den, self.nums, pairs, rows)
        return self if summed is None else _row(F, *summed)

    def __eq__(self, other):
        if not isinstance(other, (Row, PackedRow)):
            return NotImplemented
        check_same_field(self.field, other.field)
        return self.den == other.den and self.nums == other.nums

    def __hash__(self):
        return hash((self.field, self.den, self.nums))

    def entry_texts(self) -> tuple:
        """The (column, numerator) pairs of the row and the canonical text
        of each value ('p/q' or 'p' over the rationals, a bare residue
        over GF(p)), read off the numerators in one call
        (field.format_quotients): what a writer needs."""
        nums = self.nums
        return nums, self.field.format_quotients(self.den, nums)

    def __str__(self):
        pairs, texts = self.entry_texts()
        return " ".join(["%d:%s" % (i, t) for (i, _), t in zip(pairs, texts)])

    def __repr__(self):
        return "%s(%s)" % (type(self).__name__, str(self) or "0")


def _row(field: Field, den: int, nums: tuple) -> Row:
    """The Row of den over numerators a field kernel or a generator built
    canonical: sets the slots only."""
    r = object.__new__(Row)
    r.field = field
    r.den = den
    r.nums = nums
    return r


def check_row(field: Field, k: int, r) -> None:
    """Raise ValueError, naming row k, unless r is a Row (canonical) over field."""
    if not isinstance(r, Row):
        raise ValueError("row %d is %r, not a Row" % (k, r))
    if r.field != field:
        raise ValueError("row %d is over %r, not %r" % (k, r.field, field))


def axpy_raw(lam, x, y):
    """Return y + lam * x for two Rows: the one-pair row update, which y's
    own kernel (_add_rows) makes."""
    return y._add_rows(((0, lam),), (x,))


class PackedRow:
    """A passage row over GF(p), packed into one int with delayed reduction.

    Slot i of bits, field.slot_bits wide with the lowest column in the
    lowest bits, holds the entry at column lo + i as a nonnegative integer
    that is congruent to it mod p but not always reduced; bound is an
    upper bound on every slot. Its one row operation, add_combination, is
    then a few big-int operations in C per source rather than a Python loop
    over entries. A row reduces its slots mod p in place, once, when a sum
    could carry out of one, when it is used as a source, or when it is
    first read (its value never changes): the delayed modular reduction of
    Dumas, Giorgi and Pernet (ACM TOMS 35(3), 2008). A row costs slot_bits
    / 8 bytes per column from lo to its last slot, zero or not;
    passage_unit builds the first one of each stage.

    It reads like a Row, through den (1) and nums built on demand from the
    reduced slots, and takes Row's equality, entry_texts, str and repr;
    is_zero, maxs and slot_values read the slots without building pairs.
    """

    __slots__ = ("field", "lo", "bits", "bound")

    def __init__(self, field: Field, lo: int, bits: int, bound: int):
        self.field = field
        self.lo = lo
        self.bits = bits
        self.bound = bound

    def _reduced(self) -> int:
        """The slots, each reduced mod p in place first if it is not yet."""
        F = self.field
        if self.bound >= F.p:
            self.bits = F.reduce_slots(self.bits)
            self.bound = F.p - 1
        return self.bits

    def add_combination(self, pairs, rows) -> "PackedRow":
        """This row plus the sum of lam * rows[i] over (i, lam) pairs of
        indices into packed rows and residues, one multiply-add of packed
        ints each on the reduced source: a residue is nonnegative, so no
        slot goes negative, and the running row is reduced first when a sum
        could carry out of a slot."""
        F = self.field
        w = F.slot_bits
        y = self
        for i, lam in pairs:
            x = rows[i]
            if x.field is not F:
                check_same_field(F, x.field)
            xbits = x._reduced()
            bound = y.bound + lam * x.bound
            if bound >> w:
                y._reduced()
                bound = y.bound + lam * x.bound
            shift = (x.lo - y.lo) * w
            if shift >= 0:
                y = PackedRow(F, y.lo, y.bits + (lam * xbits << shift), bound)
            else:
                y = PackedRow(F, x.lo, (y.bits << -shift) + lam * xbits, bound)
        return y

    # a residue is its own numerator over 1, as in a Row over GF(p)
    den = 1

    def slot_values(self):
        """The reduced slots from column lo on, zeros included (field.slots)."""
        return self.field.slots(self._reduced())

    @property
    def nums(self) -> tuple:
        """The (column, residue) pairs of the nonzero slots; built, not stored."""
        lo = self.lo
        return tuple([(lo + i, v) for i, v in enumerate(self.slot_values()) if v])

    support = nums

    def is_zero(self) -> bool:
        return not self._reduced()

    @property
    def maxs(self) -> Optional[int]:
        """Rightmost nonzero column; None for the zero row."""
        bits = self._reduced()
        return self.lo + (bits.bit_length() - 1) // self.field.slot_bits if bits else None

    __eq__, entry_texts = Row.__eq__, Row.entry_texts
    __str__, __repr__ = Row.__str__, Row.__repr__


def passage_unit(field: Field, col: int, lam):
    """lam times the passage row e_col, for a nonzero lam: a PackedRow over
    GF(p), where passage rows fill in densely and every value fits a fixed
    width, and a Row over the rationals, whose values have no fixed width
    but share one denominator per row."""
    if field.p is None:
        return _row(field, lam.denominator, ((col, lam.numerator),))
    return PackedRow(field, col, lam, lam)


def dense_width(rows: Iterable[Row]) -> int:
    """Running horizon: one past the largest rightmost index over the rows."""
    width = 0
    for r in rows:
        m = r.maxs
        if m is not None and m >= width:
            width = m + 1
    return width
