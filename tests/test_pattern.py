"""Pattern shapes, bounds, criticality, weights, and enumeration."""

import random
import sys
import weakref
from dataclasses import dataclass
from functools import lru_cache, partial
from itertools import combinations_with_replacement, product
from operator import sub

import pytest

from dlocal import (
    HighestWeight,
    LittelmannPattern,
    build_root_system,
    count_patterns,
    critical_positions,
    enumerate_decorated,
    local_part,
    weight_vector,
    weyl_dimension,
)
from dlocal import pattern as pattern_module
from dlocal.decoration import _row_probes, strictness_counts
from dlocal.local_part import _strict_fills
from dlocal.pattern import (
    _below,
    _complete,
    _count_push,
    _every,
    _row_bases,
    _row_bucket,
    _row_fills,
    _state_walk,
    _sum_limits,
)

# The package re-exports the function ``local_part`` under the submodule's
# name, so the module is taken from sys.modules.
local_part_module = sys.modules["dlocal.local_part"]


def zero_pattern(r):
    return LittelmannPattern(r, tuple(tuple(0 for _ in range(2 * (r - i))) for i in range(1, r)))


def patterns(rs, hw, weight_filter=None):
    """The bounded patterns of ``enumerate_decorated``, without their critical sets."""
    return [T for T, _ in enumerate_decorated(rs, hw, weight_filter)]


# -- a test-only reference for the bounds ---------------------------------------
#
# The per-entry formulas of the ``dlocal.pattern`` docstring, transcribed
# entry by entry with their own cumulative column sums.  ``_row_fills`` and
# ``critical_positions`` share one per-row bound routine; the tests below
# compare both against this independent transcription.


@dataclass(frozen=True)
class PartialSums:
    """Cumulative column sums over rows 1..row (all zero for row = 0)."""

    rank: int
    row: int
    col_pairs: tuple[int, ...]  # index c-1 holds S(c, row) for c = 1..rank-2
    mid_top: int  # T1(row)
    mid_bot: int  # T2(row)

    @property
    def mid_sum(self) -> int:  # Sm(row)
        return self.mid_top + self.mid_bot

    def s(self, c: int) -> int:
        """S(c, row); S(0, .) = 0 by convention."""
        return self.col_pairs[c - 1] if c >= 1 else 0


def partial_sums(T, upto_row):
    r = T.rank
    if not 0 <= upto_row <= r - 1:
        raise ValueError(f"row must be in 0..{r - 1}, got {upto_row}")
    cols = [0] * (r - 2)
    t1 = t2 = 0
    for i in range(1, upto_row + 1):
        for c in range(i, r - 1):
            cols[c - 1] += T.entry(i, c) + T.bar(i, c)
        t1 += T.entry(i, r - 1)
        t2 += T.entry(i, r)
    return PartialSums(rank=r, row=upto_row, col_pairs=tuple(cols), mid_top=t1, mid_bot=t2)


def upper_bound(T, hw, position):
    """Right-hand side of the unique bound whose left side is this entry."""
    r = T.rank
    if hw.rank != r:
        raise ValueError(f"rank mismatch: pattern {r}, weight {hw.rank}")
    i, j = position
    if not (1 <= i <= r - 1 and i <= j <= 2 * r - 1 - i):
        raise ValueError(f"position {position} outside a rank-{r} pattern")
    m = hw.m
    ps = partial_sums(T, i - 1)

    def inrow_bar(c):
        return T.bar(i, c) if c >= i else 0

    if j <= r - 2:
        if j + 1 <= r - 2:
            right = ps.s(j + 1) + T.entry(i, j + 1) + T.bar(i, j + 1)
        else:
            right = ps.mid_sum + T.entry(i, r - 1) + T.entry(i, r)
        return (
            m[r - j]
            + right
            - 2 * (T.bar(i, j) + ps.s(j))
            + inrow_bar(j - 1)
            + ps.s(j - 1)
        )
    if j == r - 1:
        return m[1] + inrow_bar(r - 2) + ps.s(r - 2) - 2 * ps.mid_top
    if j == r:
        return m[0] + inrow_bar(r - 2) + ps.s(r - 2) - 2 * ps.mid_bot
    jb = 2 * r - 1 - j  # bar index, i <= jb <= r-2
    tail = ps.s(jb + 1) if jb + 1 <= r - 2 else ps.mid_sum
    return m[r - jb] + inrow_bar(jb - 1) + ps.s(jb - 1) - 2 * ps.s(jb) + tail


def reference_criticality(T, hw):
    """(critical set, first violation message or None) by the reference."""
    crit = set()
    for pos in T.positions():
        value, bound = T.entry(*pos), upper_bound(T, hw, pos)
        if value > bound:
            i, j = pos
            return None, f"entry {value} at row {i}, column {j} exceeds its bound {bound}"
        if value == bound:
            crit.add(pos)
    return frozenset(crit), None


def fill_states(T, hw):
    """The state (S, t1, t2) after each row of T, read off ``_row_fills``.

    The state below row i holds S(i..r-2, i), T1(i) and T2(i); the one above
    row 1 also holds S(0, 0) = 0.  T's weight is the fills' target, which
    keeps them few.
    """
    r = T.rank
    state = ((0,) * (r - 1), 0, 0)
    states = [state]
    for (i, row), limits in zip(enumerate(T.rows, start=1), _sum_limits(r, hw.m, weight_vector(T))):
        fills = _row_fills(r, i, *_row_bases(r, hw.m, i, *state, limits))
        (state,) = [st for f, st in zip(fills, _below(*state, fills)) if f[0] == row]
        states.append(state)
    return states


class TestShape:
    def test_row_lengths(self):
        T = zero_pattern(4)
        assert [len(row) for row in T.rows] == [6, 4, 2]

    def test_bad_row_length_rejected(self):
        with pytest.raises(ValueError):
            LittelmannPattern(3, ((0, 0, 0), (0, 0)))

    def test_negative_entry_rejected(self):
        with pytest.raises(ValueError):
            LittelmannPattern(2, ((0, -1),))

    def test_non_integer_entry_rejected_not_truncated(self):
        with pytest.raises(ValueError, match="non-integer entry"):
            LittelmannPattern(2, ((1.9, 0),))
        assert LittelmannPattern(2, ((2.0, 0),)).rows == ((2, 0),)

    @pytest.mark.parametrize("bad", [float("inf"), float("nan"), None, "1"])
    def test_non_integral_entry_raises_value_error(self, bad):
        with pytest.raises(ValueError, match="non-integer entry"):
            LittelmannPattern(2, ((bad, 0),))

    @pytest.mark.parametrize("bad", [2.5, float("inf"), None])
    def test_non_integral_rank_raises_value_error(self, bad):
        with pytest.raises(ValueError):
            LittelmannPattern(bad, ((0, 0),))

    def test_bar_accessor_reflects(self):
        T = LittelmannPattern.from_string("5,4,3,2,1,0;3,2,1,1;1,0")
        assert T.bar(1, 1) == T.entry(1, 6)
        assert T.bar(1, 2) == T.entry(1, 5)
        assert T.bar(2, 2) == T.entry(2, 5)
        # The bar involution swaps the two middle columns.
        assert T.bar(1, 3) == T.entry(1, 4)
        assert T.bar(1, 4) == T.entry(1, 3)

    def test_serialization_roundtrip(self):
        text = "1,1,0,0;1,0"
        T = LittelmannPattern.from_string(text)
        assert T.rank == 3
        assert T.to_string() == text
        assert LittelmannPattern.from_json_obj(T.to_json_obj()) == T

    @pytest.mark.parametrize(
        "obj",
        [{"rows": [[1, 1, 0, 0], [1, 0]]}, {"rank": 3}, {"rank": 3, "rows": 5}],
        ids=["no-rank", "no-rows", "rows-not-a-list"],
    )
    def test_malformed_json_rejected(self, obj):
        with pytest.raises(ValueError, match="malformed"):
            LittelmannPattern.from_json_obj(obj)

    def test_admissibility_middle_pair_not_compared(self):
        # a_{1,2} < a_{1,3} is fine: the middle pair is incomparable.
        T = LittelmannPattern.from_string("2,1,2,0;1,1")
        assert T.is_admissible()

    def test_admissibility_rejects_increase(self):
        T = LittelmannPattern.from_string("1,2,0,0;1,0")
        assert not T.is_admissible()

    def test_admissibility_rejects_middle_below_right(self):
        # Both middle entries must dominate the column to their right.
        T = LittelmannPattern.from_string("2,0,2,1;1,0")
        assert not T.is_admissible()


class TestPartialSums:
    def test_displayed_formulas(self):
        T = LittelmannPattern.from_string("3,2,2,1,1,1;2,1,1,1;1,0")
        states = fill_states(T, HighestWeight((9, 9, 9, 9)))
        (s1, _, _), (s2, t1, t2) = states[1], states[2]
        # S(c, i) sums a_{k,c} + bar(k,c) over rows k <= min(i, c); the state
        # below row i keeps the columns c >= i only.
        assert s1 == (T.entry(1, 1) + T.bar(1, 1), T.entry(1, 2) + T.bar(1, 2))
        assert s2 == (T.entry(1, 2) + T.bar(1, 2) + T.entry(2, 2) + T.bar(2, 2),)
        assert t1 == T.entry(1, 3) + T.entry(2, 3)
        assert t2 == T.entry(1, 4) + T.entry(2, 4)
        ps = partial_sums(T, 2)
        assert (ps.col_pairs[1:], ps.mid_top, ps.mid_bot) == (s2, t1, t2)

    def test_empty_prefix_is_zero(self):
        states = fill_states(zero_pattern(4), HighestWeight((1, 1, 1, 1)))
        assert states == [((0, 0, 0), 0, 0), ((0, 0), 0, 0), ((0,), 0, 0), ((), 0, 0)]


class TestUpperBound:
    """Hand-computed bounds from ``_row_bases``, the one bound routine."""

    def test_rank2_bounds_are_the_weights(self):
        _, top, bot, _ = _row_bases(2, (4, 7), 1, (0,), 0, 0)
        assert top == 7  # m_2 bounds the first middle column
        assert bot == 4  # m_1 bounds the second
        T = LittelmannPattern(2, ((7, 4),))
        assert critical_positions(T, HighestWeight((4, 7))) == {(1, 1), (1, 2)}

    def test_zero_pattern_first_column_bound(self):
        bases, _, _, _ = _row_bases(4, (1, 1, 1, 1), 1, (0, 0, 0), 0, 0)
        # a_{1,1} <= bases[0] - 2 bar(1,1) + a_{1,2} + bar(1,2): m_4 with empty sums
        assert bases[0] == 1
        assert upper_bound(zero_pattern(4), HighestWeight((1, 1, 1, 1)), (1, 1)) == 1

    def test_zero_pattern_bottom_middle_bound(self):
        _, _, bot, _ = _row_bases(4, (1, 1, 1, 1), 1, (0, 0, 0), 0, 0)
        assert bot == 1  # m_1 with empty sums

    def test_bounds_depend_on_previous_rows(self):
        T = LittelmannPattern.from_string("1,1,1,1;1,1")
        hw = HighestWeight((2, 2, 2))
        # Row 2 top-middle bound: m_2 + bar(2,1)->absent + S(1,1) - 2*T1(1).
        _, top, _, _ = _row_bases(3, hw.m, 2, *fill_states(T, hw)[1])
        assert top == 2 + (1 + 1) - 2 * 1
        assert upper_bound(T, hw, (2, 2)) == top


class TestThetaAdmissible:
    def test_rank2_corner_is_admissible_and_critical(self):
        hw = HighestWeight((3, 2))
        T = LittelmannPattern(2, ((2, 3),))  # (m_2, m_1)
        assert T.is_admissible()
        assert critical_positions(T, hw) == {(1, 1), (1, 2)}

    def test_zero_pattern_has_no_critical_entries(self):
        T = zero_pattern(4)
        hw = HighestWeight((1, 1, 1, 1))
        assert T.is_admissible()
        assert critical_positions(T, hw) == frozenset()

    def test_exceeding_bound_rejected(self):
        hw = HighestWeight((3, 2))
        T = LittelmannPattern(2, ((3, 0),))  # first middle bound is m_2 = 2
        assert T.is_admissible()
        with pytest.raises(ValueError):
            critical_positions(T, hw)

    def test_violation_message_names_the_first_entry(self):
        hw = HighestWeight((3, 2))
        T = LittelmannPattern(2, ((3, 9),))
        with pytest.raises(ValueError, match=r"^entry 3 at row 1, column 1 exceeds its bound 2$"):
            critical_positions(T, hw)

    def test_violation_below_the_first_row(self):
        # Row 1 is bounded; row 2's top-middle bound is 1 + 2 - 2*1 = 1.
        hw = HighestWeight((1, 1, 1))
        T = LittelmannPattern.from_string("1,1,1,1;3,0")
        assert reference_criticality(T, hw)[1] == "entry 3 at row 2, column 2 exceeds its bound 1"
        with pytest.raises(ValueError, match=r"^entry 3 at row 2, column 2 exceeds its bound 1$"):
            critical_positions(T, hw)

    def test_broken_row_chain_rejected(self):
        T = LittelmannPattern.from_string("1,2,0,0;1,0")
        with pytest.raises(ValueError, match=r"^pattern rows are not weakly decreasing$"):
            critical_positions(T, HighestWeight((5, 5, 5)))

    def test_rank_mismatch_rejected(self):
        with pytest.raises(ValueError, match="rank mismatch"):
            critical_positions(zero_pattern(3), HighestWeight((1, 1)))


class TestWeightVector:
    def test_zero_pattern(self):
        assert weight_vector(zero_pattern(5)) == (0, 0, 0, 0, 0)

    def test_rank2_reads_off_entries(self):
        assert weight_vector(LittelmannPattern(2, ((3, 5),))) == (3, 5)

    def test_constant_top_row_rank6(self):
        c = 2
        rows = [tuple(c for _ in range(10))]
        rows += [tuple(0 for _ in range(2 * (6 - i))) for i in range(2, 6)]
        T = LittelmannPattern(6, tuple(rows))
        assert weight_vector(T) == (c, c, 2 * c, 2 * c, 2 * c, 2 * c)


class TestEnumeration:
    def test_rank2_grid(self):
        rs = build_root_system(2)
        for m1, m2 in product(range(1, 4), repeat=2):
            pats = list(patterns(rs, HighestWeight((m1, m2))))
            assert len(pats) == (m1 + 1) * (m2 + 1)
            assert pats == sorted(pats, key=lambda T: T.rows)

    def test_d4_untwisted_count(self):
        rs = build_root_system(4)
        hw = HighestWeight((1, 1, 1, 1))
        assert sum(1 for _ in patterns(rs, hw)) == 4096

    def test_published_weight_class_size(self):
        rs = build_root_system(4)
        hw = HighestWeight.from_twist((0, 1, 2, 0))
        pats = list(patterns(rs, hw, (10, 10, 17, 10)))
        assert len(pats) == 27
        assert all(weight_vector(T) == (10, 10, 17, 10) for T in pats)

    def test_canonical_order_is_row_major_lex(self):
        rs = build_root_system(3)
        hw = HighestWeight((2, 1, 2))
        pats = [T.rows for T in patterns(rs, hw)]
        assert pats == sorted(pats)
        assert len(pats) == len(set(pats))

    @pytest.mark.parametrize(
        "r,twist",
        [(2, (2, 3)), (3, (0, 0, 0)), (3, (1, 0, 2)), (4, (0, 0, 0, 0)), (4, (1, 1, 0, 1))],
    )
    def test_count_matches_weyl_dimension(self, r, twist):
        rs = build_root_system(r)
        hw = HighestWeight.from_twist(twist)
        expected = weyl_dimension(rs, hw)
        assert count_patterns(rs, hw) == expected
        assert sum(1 for _ in patterns(rs, hw)) == expected

    @pytest.mark.parametrize("r", [4, 5, 6, 7])
    def test_untwisted_count_is_two_to_the_positive_roots(self, r):
        # dim V(rho) = 2^(number of positive roots) = 2^(r(r-1)).
        assert count_patterns(build_root_system(r), HighestWeight((1,) * r)) == 2 ** (r * (r - 1))

    def test_state_walk_drops_each_level(self):
        # The values a row's pushes consume are unreferenced once the level
        # below that row is built.  The start value stays with the caller.
        class Box:
            def __init__(self, count):
                self.count = count

        consumed = {}

        def push(i, fills, moves, below):
            assert all(ref() is None for ref in consumed.get(i - 1, ()) if i > 2)
            for (S, t1, t2), value in moves:
                consumed.setdefault(i, []).append(weakref.ref(value))
                for state in _below(S, t1, t2, fills):
                    below.setdefault(state, Box(0)).count += value.count

        hw = HighestWeight.from_twist((1, 0, 2, 0, 1))
        last = _state_walk(5, hw.m, None, Box(1), push)
        assert sorted(consumed) == [1, 2, 3, 4]
        assert all(ref() is None for ref in consumed[4])
        total = sum(box.count for box in last.values())
        assert total == count_patterns(build_root_system(5), hw)

    def test_d6_count_fills_each_group_once(self, monkeypatch):
        # Each group's total goes along the fills of one of its states, so
        # the count visits 1,652 states between rows, which share 365
        # distinct bounds; per-state pushes would visit 2,219.
        calls = {"_row_bases": 0, "_row_fills": 0}

        def counted(name):
            inner = getattr(pattern_module, name)

            def wrapper(*args):
                calls[name] += 1
                return inner(*args)

            return wrapper

        for name in calls:
            monkeypatch.setattr(pattern_module, name, counted(name))
        assert count_patterns(build_root_system(6), HighestWeight((1,) * 6)) == 2**30
        assert calls == {"_row_bases": 1652, "_row_fills": 365}

    def test_enumerated_criticality_matches_direct_bounds(self):
        rs = build_root_system(3)
        hw = HighestWeight((2, 1, 2))
        for T, crit in enumerate_decorated(rs, hw):
            assert crit == critical_positions(T, hw)

    def test_enumerated_criticality_matches_under_weight_filter(self):
        rs = build_root_system(4)
        hw = HighestWeight.from_twist((0, 1, 2, 0))
        seen = 0
        for T, crit in enumerate_decorated(rs, hw, (10, 10, 17, 10)):
            assert crit == critical_positions(T, hw)
            seen += 1
        assert seen == 27

    def test_weight_partition_refines_enumeration(self):
        # Untwisted D4 reaches the exact-target bounds on a_{i,i+1}, which
        # need i+1 <= r-2; D3 never does.
        for rank, hw in ((3, HighestWeight((1, 2, 1))), (4, HighestWeight((1, 1, 1, 1)))):
            rs = build_root_system(rank)
            by_weight = {}
            for T, crit in enumerate_decorated(rs, hw):
                by_weight.setdefault(weight_vector(T), []).append((T, crit))
            for lam, group in by_weight.items():
                assert list(enumerate_decorated(rs, hw, lam)) == group
            total = sum(len(group) for group in by_weight.values())
            assert total == weyl_dimension(rs, hw)

    def test_empty_weight_class_is_valid(self):
        rs = build_root_system(3)
        hw = HighestWeight((1, 1, 1))
        assert list(patterns(rs, hw, (50, 0, 0))) == []

    def test_bounds_monotone_in_weight(self):
        # Raising any m_k never removes a pattern.
        rs = build_root_system(3)
        base = HighestWeight((1, 2, 1))
        seen = set(T.rows for T in patterns(rs, base))
        for k in range(3):
            bigger = HighestWeight(tuple(m + (1 if idx == k else 0) for idx, m in enumerate(base.m)))
            superset = set(T.rows for T in patterns(rs, bigger))
            assert seen <= superset

    def test_work_units_cover_enumeration_exactly(self):
        # Completions of the first-row fills, taken in any grouping, form
        # the same multiset as enumeration.
        rs = build_root_system(3)
        hw = HighestWeight((2, 1, 2))
        sequential = sorted(T.rows for T in patterns(rs, hw))
        units = _row_fills(3, 1, *_row_bases(3, hw.m, 1, (0, 0), 0, 0))
        units = list(zip(units, _below((0, 0), 0, 0, units)))
        chunks = [units[k::3] for k in range(3)]
        sharded = []
        for chunk in chunks:
            for fill, state in chunk:
                for rest, _ in _complete(3, hw.m, _sum_limits(3, hw.m, None), 2, *state):
                    sharded.append((fill[0],) + rest)
        assert sorted(sharded) == sequential

    def test_rank_mismatch_rejected(self):
        with pytest.raises(ValueError):
            list(patterns(build_root_system(3), HighestWeight((1, 1))))

    def test_bad_weight_filter_rejected(self):
        rs = build_root_system(3)
        with pytest.raises(ValueError):
            list(patterns(rs, HighestWeight((1, 1, 1)), (1, 2)))

    @pytest.mark.parametrize("hw, weight", [((1, 1), None), ((1, 1, 1), (-1, 0, 0))])
    def test_arguments_are_checked_at_the_call(self, hw, weight):
        # Before the first pattern is asked for, so a streamed listing
        # fails before any of its text exists.
        with pytest.raises(ValueError):
            enumerate_decorated(build_root_system(3), HighestWeight(hw), weight)


def _chain_rows(r, i, box):
    """Every row i with entries in range(box) that satisfies the row chain.

    The left entries a_{i,i} >= ... >= a_{i,r-2} and the right ones
    a_{i,r+1} >= ... >= a_{i,2r-1-i} decrease, and both middle entries lie
    between a_{i,r+1} and a_{i,r-2}; the last row is the middle pair alone.
    """
    if i == r - 1:
        return list(product(range(box), repeat=2))
    chains = [c[::-1] for c in combinations_with_replacement(range(box), r - 1 - i)]
    return [
        left + (top, bot) + right
        for left in chains
        for right in chains
        if left[-1] >= right[0]
        for top in range(right[0], left[-1] + 1)
        for bot in range(right[0], left[-1] + 1)
    ]


class TestRowFillsAgainstBounds:
    """``_row_fills`` against admissibility and ``upper_bound`` alone.

    For each prefix (rows 1..i-1) of an enumerated pattern, every candidate
    row i inside a box is kept when the prefix plus the candidate is
    admissible and every entry of the row lies under its ``upper_bound``.
    The kept rows, their critical entries (those equal to their bound) and
    the column sums they lead to must be exactly the fills of the prefix's
    state.  At the last row each candidate makes a whole pattern:
    ``critical_positions`` must give the reference's critical set when it
    is kept, and raise the reference's first violation when it is not.
    ``step`` thins the prefixes of the largest case.
    """

    @pytest.mark.parametrize(
        "r,twist,box,step",
        [(3, (1, 0, 2), 8, 1), (3, (2, 1, 2), 10, 1), (4, (1, 1, 0, 1), 10, 23)],
    )
    def test_fills_are_the_bounded_admissible_rows(self, r, twist, box, step):
        hw = HighestWeight.from_twist(twist)
        prefixes = {i: set() for i in range(1, r)}
        for T in patterns(build_root_system(r), hw):
            for i in prefixes:
                prefixes[i].add(T.rows[: i - 1])
        for i in range(1, r):
            below = tuple((0,) * (2 * (r - k)) for k in range(i + 1, r))
            candidates = _chain_rows(r, i, box)
            for prefix in sorted(prefixes[i])[::step]:
                expected = []
                for row in candidates:
                    T = LittelmannPattern(r, prefix + (row,) + below)
                    assert T.is_admissible()
                    crit = []
                    for pos in T.positions():
                        if pos[0] != i:
                            continue
                        bound = upper_bound(T, hw, pos)
                        if T.entry(*pos) > bound:
                            break
                        if T.entry(*pos) == bound:
                            crit.append(pos)
                    else:
                        assert max(row) < box - 1, "the box is too small"
                        ps = partial_sums(T, i)
                        expected.append(
                            (row, crit, (ps.col_pairs[i - 1 :], ps.mid_top, ps.mid_bot))
                        )
                    if i == r - 1:
                        try:
                            actual = critical_positions(T, hw)
                        except ValueError as exc:
                            actual = str(exc)
                        reference, violation = reference_criticality(T, hw)
                        assert actual == (reference if violation is None else violation)
                ps = partial_sums(T, i - 1)
                state = ((0,) + ps.col_pairs)[i - 1 :], ps.mid_top, ps.mid_bot
                fills = _row_fills(r, i, *_row_bases(r, hw.m, i, *state))
                states = _below(*state, fills)
                actual = sorted((f[0], sorted(f[1]), st) for f, st in zip(fills, states))
                assert actual == sorted(expected), (i, prefix)


# -- a test-only reference for the fills ---------------------------------------
#
# The per-state fills of the earlier backward walk, transcribed: the state
# above row i is the whole tuple s (s[c-1] = S(c, i-1) for c = 1..r-2), and
# each fill carries the whole tuple after the row.  The grouped fills must
# give the same rows and critical tuples, and ``_below`` must step the state
# to the same sums.  Under a target, the walk's caps are the limits below
# the row, from ``_sum_limits``, minus the state.

_NO_CAP = 1 << 62


def per_state_row_fills(r, m, i, s, t1, t2, limits):
    """(row, crit, new_s, new_t1, new_t2) for every valid fill of row i.

    ``limits`` is None, or (cols, t1_max, t2_max): the new S(i..r-2), T1
    and T2 may not exceed them, and S(i) must equal cols[0] (at the last
    row, T1 and T2 must equal t1_max and t2_max).
    """
    last = r - 2
    S = (0,) + s
    base = [0] * (last + 1)
    for j in range(i, last + 1):
        base[j] = m[r - j] + S[j - 1] - 2 * S[j] + (S[j + 1] if j < last else t1 + t2)
    top_base, bot_base = m[1] + S[last] - 2 * t1, m[0] + S[last] - 2 * t2
    out = []
    exact = limits is not None
    if exact:
        cols, t1_max, t2_max = limits
    if i > last:
        if not exact:
            tops, bots = range(top_base + 1), range(bot_base + 1)
        else:
            top, bot = t1_max - t1, t2_max - t2
            tops = (top,) if 0 <= top <= top_base else ()
            bots = (bot,) if 0 <= bot <= bot_base else ()
        for top in tops:
            top_crit = ((i, r - 1),) if top == top_base else ()
            for bot in bots:
                crit = top_crit + ((i, r),) if bot == bot_base else top_crit
                out.append(((top, bot), crit, s, t1 + top, t2 + bot))
        return out

    cap = [_NO_CAP] * (last + 1)
    if exact:
        for j in range(i, last + 1):
            cap[j] = cols[j - i] - S[j]
    top_cap = t1_max - t1 if exact else _NO_CAP
    bot_cap = t2_max - t2 if exact else _NO_CAP
    flip = 2 * r - 1 - i
    mid = r - 1 - i
    vals = [0] * (2 * (r - i))
    sums = list(s)
    crit = []

    def fill_bars(j, prev):
        if j > last:
            fill_mid(prev)
            return
        bound = base[j] + prev
        high = cap[j] if cap[j] < bound else bound
        k = flip - j
        for v in range(prev, high + 1 if high < bound else bound):
            vals[k] = v
            fill_bars(j + 1, v)
        if high == bound >= prev:
            vals[k] = bound
            crit.append((i, k + i))
            fill_bars(j + 1, bound)
            crit.pop()

    def fill_mid(low):
        top_bound = top_base + low
        bot_bound = bot_base + low
        for top in range(low, min(top_bound, top_cap) + 1):
            vals[mid] = top
            if top == top_bound:
                crit.append((i, r - 1))
            for bot in range(low, min(bot_bound, bot_cap) + 1):
                vals[mid + 1] = bot
                floor = top if top > bot else bot
                if bot == bot_bound:
                    crit.append((i, r))
                    fill_left(last, floor, top + bot)
                    crit.pop()
                else:
                    fill_left(last, floor, top + bot)
            if top == top_bound:
                crit.pop()

    def fill_left(j, low, inner):
        b = vals[flip - j]
        if j > i:
            bound = base[j] + inner - 2 * b + vals[flip - j + 1]
            high = min(cap[j] - b, bound)
            if exact and j == i + 1:
                bi = vals[flip - i]
                v0 = cap[i] - bi
                high = min(high, v0)
                low = max(low, v0 + 2 * bi - base[i] - b)
            for v in range(low, high + 1 if high < bound else bound):
                vals[j - i] = v
                sums[j - 1] = S[j] + b + v
                fill_left(j - 1, v, v + b)
            if high == bound >= low:
                vals[j - i] = bound
                sums[j - 1] = S[j] + b + bound
                crit.append((i, j))
                fill_left(j - 1, bound, bound + b)
                crit.pop()
            return
        bound = base[i] + inner - 2 * b
        if exact:
            v = cap[i] - b
            if not low <= v <= bound:
                return
            values = (v,)
        else:
            values = range(low, bound + 1)
        row_crit = tuple(crit)
        for v in values:
            vals[0] = v
            sums[i - 1] = S[i] + b + v
            out.append((
                tuple(vals),
                row_crit + ((i, i),) if v == bound else row_crit,
                tuple(sums),
                t1 + vals[mid],
                t2 + vals[mid + 1],
            ))

    fill_bars(i, 0)
    return out


class TestGroupedFillsAgainstPerStateFills:
    """On every state of D4 that the per-state fills reach, with and without
    a target, the fills of the state's group and the states ``_below`` steps
    them to give the per-state 5-tuples, in the same order.  The targets are
    every weight of the untwisted patterns, and every tenth weight of the
    twisted n = 2 local part's support.  Twist (3, 0, 2, 1) has the widest
    boxes of steps: its bar and middle boxes reach width 13, against 10 for
    (0, 1, 2, 0) and 5 untwisted.
    """

    @pytest.mark.parametrize("twist", [(0, 0, 0, 0), (0, 1, 2, 0), (3, 0, 2, 1)])
    @pytest.mark.parametrize("targeted", [False, True], ids=["full", "targets"])
    def test_grouped_fills_reproduce_per_state_fills(self, twist, targeted):
        r = 4
        hw = HighestWeight.from_twist(twist)
        lams = [None]
        if targeted and any(twist):
            lams = local_part(build_root_system(r), hw, 2).support()[::10]
        elif targeted:
            lams = sorted({weight_vector(T) for T in patterns(build_root_system(r), hw)})
        groups = {}
        states = 0
        for lam in lams:
            level = {((0,) * (r - 2), 0, 0)}
            for i, limits in enumerate(_sum_limits(r, hw.m, lam), start=1):
                below = set()
                for s, t1, t2 in sorted(level):
                    states += 1
                    expected = per_state_row_fills(r, hw.m, i, s, t1, t2, limits)
                    state = ((0,) + s)[i - 1 :], t1, t2
                    bounds = _row_bases(r, hw.m, i, *state, limits)
                    if bounds not in groups:
                        groups[bounds] = _row_fills(r, i, *bounds)
                    fills = groups[bounds]
                    actual = [
                        (row, crit, s[: i - 1] + below_s, below_t1, below_t2)
                        for (row, crit), (below_s, below_t1, below_t2) in zip(
                            fills, _below(*state, fills)
                        )
                    ]
                    assert actual == expected, (lam, i, s, t1, t2)
                    below.update(fill[2:] for fill in expected)
                level = below
        assert len(groups) < states if lam is None else len(groups) <= states


def row_sums(row):
    """(ds, d1, d2): what row i adds to S(i..r-2, .), T1 and T2.

    Read off the entries directly, not through ``_below``: ds[k] =
    a_{i,i+k} + bar(i,i+k), then the middle pair a_{i,r-1}, a_{i,r}.
    """
    mid = len(row) // 2 - 1
    return tuple(row[k] + row[-1 - k] for k in range(mid)), row[mid], row[mid + 1]


def column_sum(row):
    """What a fill adds to the column its row closes: ds[0], or (d1, d2) at the last row."""
    ds, d1, d2 = row_sums(row)
    return ds[0] if ds else (d1, d2)


def slice_caps(r, i, s):
    """Caps that ask row i's group for column sum ``s`` and cap nothing else."""
    mid, big = r - 1 - i, 10**6
    return ((s,) + (big,) * (mid - 1), big, big) if mid else ((),) + s


def walked_groups(r, m):
    """(i, bounds) of every group of states that the untargeted walk fills, once each."""
    groups = {}

    def push(i, fills, moves, below):
        moves = list(moves)
        groups[i, _row_bases(r, m, i, *moves[0][0])[:3]] = None
        _count_push(i, fills, iter(moves), below)

    _state_walk(r, m, None, 1, push)
    return list(groups)


def child_bounds(bounds, fill, limits=None, child_limits=None):
    """The bounds below ``fill`` from its group's bounds, by the rule in ``_state_walk``.

    A cap is a limit minus the state, so below the fill it drops by what
    the fill adds and moves by the change from row i's ``limits`` to the
    next row's ``child_limits``.
    """
    bases, top, bot, caps = bounds
    ds, d1, d2 = row_sums(fill[0])
    dd = ds + (d1 + d2,)
    below = tuple(bases[k + 1] + dd[k] - 2 * dd[k + 1] + dd[k + 2] for k in range(len(ds) - 1))
    if caps is not None:
        (cap, top_cap, bot_cap), (cols, t1_max, t2_max) = caps, limits
        child_cols, child_t1_max, child_t2_max = child_limits
        moved = map(sub, map(sub, cap[1:], ds[1:]), map(sub, cols[1:], child_cols))
        caps = (
            tuple(moved),
            top_cap - d1 + child_t1_max - t1_max,
            bot_cap - d2 + child_t2_max - t2_max,
        )
    return below, top + ds[-1] - 2 * d1, bot + ds[-1] - 2 * d2, caps


class TestGroupChildrenShareBounds:
    """The premise of the counting pushes: along one fill, every state of a
    group leads to a state with the same bounds, the group's bounds moved
    by the fill.  Checked on every group and fill of whole walks, each
    state pushed on its own, and of one targeted walk.
    """

    @pytest.mark.parametrize(
        "twist, lam",
        [((1, 0, 2, 0, 1), None), ((0,) * 6, None), ((1, 0, 2, 1, 0), (3, 3, 5, 6, 4))],
    )
    def test_children_bounds_follow_from_group_bounds(self, twist, lam):
        r = len(twist)
        m = HighestWeight.from_twist(twist).m
        limits = _sum_limits(r, m, lam)
        checked = 0

        def push(i, fills, moves, below):
            nonlocal checked
            moves = list(moves)
            bounds = _row_bases(r, m, i, *moves[0][0], limits[i - 1])
            for state, _ in moves:
                children = _below(*state, fills)
                if i < r - 1:
                    for fill, child in zip(fills, children):
                        expected = child_bounds(bounds, fill, limits[i - 1], limits[i])
                        assert _row_bases(r, m, i + 1, *child, limits[i]) == expected
                        checked += 1
                below.update(dict.fromkeys(children, 0))

        _state_walk(r, m, lam, 0, push)
        assert checked > 100


def walk_weights(r, m):
    """Every weight of the bounded patterns, from a walk that carries the
    column sums each state has finished."""

    def push(i, fills, moves, below):
        for (S, t1, t2), keys in moves:
            done = {key + (S[0],) for key in keys}
            for state in _below(S, t1, t2, fills):
                below.setdefault(state, set()).update(done)

    last = _state_walk(r, m, None, {()}, push)
    return sorted({(t1, t2) + key[:0:-1] for (_, t1, t2), keys in last.items() for key in keys})


class TestTargetedFillsAreFilteredFills:
    """Under a target, a row's fills are its untargeted fills filtered by
    the caps of ``_row_bases`` (``_sum_limits`` minus the state), in the
    same order with the same critical tuples.  A fill is kept when its row adds at most cap[k] to each column
    and exactly cap[0] to column i, which no later row reaches; its middle
    pair adds at most the middle caps, and exactly them at the last row.
    Checked on every state of the targeted walks: all weights of every
    twist in {0,1,2}^3, every 40th weight of every twist in {0,1}^4, and
    three weights of untwisted D5.
    """

    @staticmethod
    def kept(fill, caps, last):
        cap, top_cap, bot_cap = caps
        ds, d1, d2 = row_sums(fill[0])
        if last:
            return (d1, d2) == (top_cap, bot_cap)
        below_caps = all(d <= c for d, c in zip(ds, cap)) and d1 <= top_cap and d2 <= bot_cap
        return below_caps and ds[0] == cap[0]

    def check_walks(self, r, twist, lams):
        m = HighestWeight.from_twist(twist).m
        untargeted = {}
        checked = 0

        def push(limits, i, fills, moves, below):
            nonlocal checked
            for state, _ in moves:
                bases, top, bot, caps = _row_bases(r, m, i, *state, limits[i - 1])
                key = bases, top, bot
                if key not in untargeted:
                    untargeted[key] = _row_fills(r, i, *key)
                expected = [f for f in untargeted[key] if self.kept(f, caps, i == r - 1)]
                assert fills == expected, (limits, i, state)
                below.update(dict.fromkeys(_below(*state, fills), 0))
                checked += 1

        for lam in lams:
            _state_walk(r, m, lam, 0, partial(push, _sum_limits(r, m, lam)))
        return checked

    @pytest.mark.parametrize("twist", list(product(range(3), repeat=3)))
    def test_rank3_every_weight(self, twist):
        lams = walk_weights(3, HighestWeight.from_twist(twist).m)
        assert self.check_walks(3, twist, lams) >= 2 * len(lams)

    @pytest.mark.parametrize("twist", list(product(range(2), repeat=4)))
    def test_rank4_weights(self, twist):
        lams = walk_weights(4, HighestWeight.from_twist(twist).m)[::40]
        assert self.check_walks(4, twist, lams) >= 3 * len(lams)

    def test_untwisted_rank5(self):
        lams = walk_weights(5, (1,) * 5)
        lams = [lams[len(lams) // 4], lams[len(lams) // 2], lams[3 * len(lams) // 4]]
        assert self.check_walks(5, (0,) * 5, lams) > 30


class TestTargetedFillsShareBuckets:
    """Targeted row fills come from cached buckets that no caller can change."""

    def test_repeated_query_runs_no_kernel(self, monkeypatch):
        calls = []
        kernel = pattern_module._fill_row

        def counted(*args):
            calls.append(args)
            return kernel(*args)

        monkeypatch.setattr(pattern_module, "_fill_row", counted)
        rs, hw, lam = build_root_system(5), HighestWeight((1,) * 5), (3, 3, 5, 6, 4)
        _row_bucket.cache_clear()
        first = local_part(rs, hw, 1, weight=lam).coefficients
        assert calls
        calls.clear()
        assert local_part(rs, hw, 1, weight=lam).coefficients == first
        assert calls == []

    def test_returned_fills_are_a_fresh_list(self):
        hw = HighestWeight((1,) * 4)
        bounds = _row_bases(4, hw.m, 1, (0, 0, 0), 0, 0, _sum_limits(4, hw.m, (4, 4, 6, 4))[0])
        fills = _row_fills(4, 1, *bounds)
        kept = list(fills)
        assert kept
        fills.clear()
        again = _row_fills(4, 1, *bounds)
        assert again == kept and again is not fills

    def test_bucket_entries_are_tuples(self):
        # Buckets of D4 (0,1,2,0) groups made whole by two column sums, at
        # row 1 and at the last row: {column sum: entries}, plain entries
        # holding (row, crit), kept ones (row, factor terms).
        hw = HighestWeight.from_twist((0, 1, 2, 0))
        _row_bucket.cache_clear()
        for i, state in ((1, ((0, 0, 0), 0, 0)), (3, ((4,), 2, 2))):
            bounds = _row_bases(4, hw.m, i, *state)[:3]
            sums = sorted({column_sum(row) for row, _ in pattern_module._fill_row(4, i, *bounds)})
            assert len(sums) > 2
            for keep in (_every, _strict_fills(2)):
                _row_fills(4, i, *bounds, slice_caps(4, i, sums[0]), keep)
                assert list(_row_bucket(keep, 4, i, *bounds)) == [sums[0]]
                _row_fills(4, i, *bounds, slice_caps(4, i, sums[-1]), keep)
            plain = _row_bucket(_every, 4, i, *bounds)
            kept = _row_bucket(_strict_fills(2), 4, i, *bounds)
            assert set(plain) == set(sums) and set(kept) <= set(plain) and any(kept.values())
            for s, entries in plain.items():
                items = [item for _, item in kept.get(s, ())]
                assert items == _strict_fills(2)(4, i, [item for _, item in entries])
            for slices, rest_type in ((plain, tuple), (kept, dict)):
                for s, entries in slices.items():
                    assert type(entries) is tuple
                    for entry in entries:
                        adds, (row, rest) = entry
                        assert all(type(x) is tuple for x in (entry, adds, entry[1], row))
                        assert type(rest) is rest_type
                        ds, d1, d2 = row_sums(row)
                        assert column_sum(row) == s and adds == ds[1:] + (d1, d2)

    @pytest.mark.parametrize(
        "twist", list(product(range(2), repeat=4)) + [(0, 1, 2, 0), (0,) * 5, (1, 0, 1, 0, 0)]
    )
    def test_whole_group_slices_are_kernel_slices(self, twist):
        # Every group of the untargeted walk, asked for its largest column
        # sum and then its smallest (or one it lacks): each slice of the
        # whole group is the kernel's fills of that column sum, in order,
        # and a column sum the group lacks reads as empty.
        r, m = len(twist), HighestWeight.from_twist(twist).m
        kernel = pattern_module._fill_row
        _row_bucket.cache_clear()
        for i, bounds in walked_groups(r, m):
            sums = sorted({column_sum(row) for row, _ in kernel(r, i, *bounds)})
            lacked = sums[-1] + 1 if r - 1 - i else (sums[-1][0] + 1, 0)
            for s in (sums[-1], sums[0] if len(sums) > 1 else lacked, lacked):
                _row_fills(r, i, *bounds, slice_caps(r, i, s))
            slices = _row_bucket(_every, r, i, *bounds)
            assert set(slices) == set(sums) | ({lacked} if len(sums) == 1 else set())
            for s in sums:
                assert [item for _, item in slices[s]] == kernel(r, i, *bounds, s)
            assert slices.get(lacked, ()) == () and kernel(r, i, *bounds, lacked) == []

    def test_cold_single_query_fills_only_its_slices(self, monkeypatch):
        # One target asks each group for one column sum (see ``_row_fills``),
        # so a query from a cleared cache never runs the kernel without
        # ``first``: not for a coefficient, a count or a listing.
        calls = []
        kernel = pattern_module._fill_row

        def counted(*args):
            calls.append(args)
            return kernel(*args)

        monkeypatch.setattr(pattern_module, "_fill_row", counted)
        d5 = random.Random(27).sample(sorted(untwisted_d5_part(1)), 15)
        d4 = random.Random(27).sample(walk_weights(4, HighestWeight.from_twist((0, 1, 2, 0)).m), 15) + [(10, 10, 17, 10)]
        for twist, n, lams in (((0,) * 5, 1, d5), ((0, 1, 2, 0), 2, d4)):
            rs, hw = build_root_system(len(twist)), HighestWeight.from_twist(twist)
            queries = (
                lambda lam: local_part(rs, hw, n, weight=lam),
                lambda lam: strictness_counts(rs, hw, lam),
                lambda lam: list(enumerate_decorated(rs, hw, lam)),
            )
            for lam in lams:
                for query in queries:
                    _row_bucket.cache_clear()
                    calls.clear()
                    query(lam)
                    assert calls and all(len(args) == 6 and args[5] is not None for args in calls)

    def test_second_column_sum_fills_a_group_whole_once(self, monkeypatch):
        # Untwisted D5 queries at n = 1 whose targets differ in the last
        # coordinate, the column sum of row 1's one group.  The first
        # fills that slice, the second fills the group whole, and then no
        # query runs the kernel for it; no group is filled whole twice.
        firsts = {}  # group: the ``first`` of each kernel call, None for a whole pass
        kernel = pattern_module._fill_row

        def counted(*args):
            firsts.setdefault(args[:5], []).append(args[5] if len(args) > 5 else None)
            return kernel(*args)

        monkeypatch.setattr(pattern_module, "_fill_row", counted)
        rs, hw, full = build_root_system(5), HighestWeight((1,) * 5), untwisted_d5_part(1)
        by_last = {lam[-1]: lam for lam in random.Random(27).sample(sorted(full), 40)}
        lams = list(by_last.values())[:3]
        assert len(lams) == 3
        _row_bucket.cache_clear()
        for lam in lams + lams:
            assert local_part(rs, hw, 1, weight=lam).coefficients == {lam: full[lam]}
        top = (5, 1) + _row_bases(5, hw.m, 1, (0,) * 4, 0, 0)[:3]
        assert firsts[top] == [lams[0][-1], None]
        assert all(f[0] is not None and f[1:] in ([], [None]) for f in firsts.values())
        assert sum(f[1:] == [None] for f in firsts.values()) > 1

    def test_one_cache_keeps_walks_apart(self):
        # Targeted counts, listings and parts at n = 1, 2, 3, interleaved on
        # a seeded sample of weights, forward then reversed, from a cleared
        # cache: plain and kept buckets, and those of different n, never mix.
        rs, hw = build_root_system(4), HighestWeight.from_twist((0, 1, 2, 0))
        counts = per_weight_strictness_counts(4, hw.m)
        lams = random.Random(26).sample(sorted(counts), 40) + [(30, 30, 30, 30)]
        listing = {lam: [] for lam in lams}
        for T, crit in enumerate_decorated(rs, hw):
            listing.get(weight_vector(T), []).append((T, crit))
        parts = {n: local_part(rs, hw, n).coefficients for n in (1, 2, 3)}
        _row_bucket.cache_clear()
        for lam in lams + lams[::-1]:
            assert strictness_counts(rs, hw, lam) == counts.get(lam, (0, 0)), lam
            assert list(enumerate_decorated(rs, hw, lam)) == listing[lam], lam
            for n, full in parts.items():
                expected = {lam: full[lam]} if lam in full else {}
                assert local_part(rs, hw, n, weight=lam).coefficients == expected, (lam, n)
        assert _row_bucket.cache_info().hits


def per_weight_strictness_counts(r, m):
    """{weight: (total, nonstrict)} from one untargeted walk.

    Each state carries {finished column sums: (total, strict)}, pushed along
    every fill of every state; with no target the walk has no
    ``_sum_limits`` to cap its fills by.
    """

    def push(i, fills, moves, below):
        passes = [_row_probes(r, i, row)[1].isdisjoint(crit) for row, crit in fills]
        for (S, t1, t2), counts in moves:
            done = [(key + (S[0],), value) for key, value in counts.items()]
            for passed, state in zip(passes, _below(S, t1, t2, fills)):
                out = below.setdefault(state, {})
                for key, (total, strict) in done:
                    t, s = out.get(key, (0, 0))
                    out[key] = t + total, s + strict if passed else s

    by_weight = {}
    for (_, t1, t2), counts in _state_walk(r, m, None, {(): (1, 1)}, push).items():
        for key, (total, strict) in counts.items():
            lam = (t1, t2) + key[:0:-1]
            t, s = by_weight.get(lam, (0, 0))
            by_weight[lam] = t + total, s + strict
    return {lam: (t, t - s) for lam, (t, s) in by_weight.items()}


def strictness_count_mismatches(twist, count=None, seed=0, n=None):
    """Weights where the targeted ``strictness_counts`` differ from the untargeted walk's.

    Every weight of the patterns is checked, or ``count`` of them sampled
    with ``seed``, and one weight outside them.  With a cover degree ``n``,
    a weight whose single-coefficient query differs from the full part at
    n is yielded too; the two kinds of query alternate.
    """
    rs, hw = build_root_system(len(twist)), HighestWeight.from_twist(twist)
    expected = per_weight_strictness_counts(rs.rank, hw.m)
    lams = sorted(expected)
    if count is not None:
        lams = random.Random(seed).sample(lams, count)
    outside = tuple(v + 1 for v in max(expected))
    expected[outside] = (0, 0)
    full = None if n is None else local_part(rs, hw, n).coefficients

    def differs(lam):
        if strictness_counts(rs, hw, lam) != expected[lam]:
            return True
        coefficient = {lam: full[lam]} if lam in (full or ()) else {}
        return full is not None and local_part(rs, hw, n, weight=lam).coefficients != coefficient

    return (lam for lam in lams + [outside] if differs(lam))


@lru_cache(maxsize=None)
def untwisted_d5_part(n):
    return local_part(build_root_system(5), HighestWeight((1,) * 5), n).coefficients


def query_mismatches(n, count=300, seed=20):
    """Of ``count`` seeded support weights of untwisted D5 and one weight
    outside the support, those whose single-coefficient query differs from
    the full part."""
    rs, hw, full = build_root_system(5), HighestWeight((1,) * 5), untwisted_d5_part(n)
    lams = random.Random(seed).sample(sorted(full), count) + [tuple(v + 1 for v in max(full))]
    return (
        lam
        for lam in lams
        if local_part(rs, hw, n, weight=lam).coefficients != ({lam: full[lam]} if lam in full else {})
    )


class TestSumLimits:
    """A targeted walk caps its fills by ``_sum_limits``, and so drops no
    state that can complete: per-weight counts and single coefficients
    still match walks and parts computed with no target, and lowering any
    one limit by 1 is seen by both checks.
    """

    @pytest.mark.parametrize(
        "twist",
        list(product(range(3), repeat=3)) + list(product(range(2), repeat=4)) + [(0, 1, 2, 0)],
    )
    def test_targeted_counts_match_untargeted_walk(self, twist):
        assert next(strictness_count_mismatches(twist), None) is None

    @pytest.mark.parametrize("n", [1, 2])
    def test_queries_match_full_part(self, n):
        assert next(query_mismatches(n), None) is None

    @pytest.mark.parametrize("which", ["t1", "t2", 1, 2, 3])
    def test_lowered_limit_is_seen(self, which, monkeypatch):
        limits_of = pattern_module._sum_limits

        def lowered(r, m, lam):
            rows = limits_of(r, m, lam)
            if lam is None:
                return rows
            last = rows.pop()  # T1 and T2 must equal lam's there
            if which in ("t1", "t2"):
                rows = [(cols, t1 - (which == "t1"), t2 - (which == "t2")) for cols, t1, t2 in rows]
            else:
                # Row i's cols[k] bounds column i+k, and at k = 0 it is the exact
                # sum of the column that row i finishes.  The limits of column c
                # lie at k > 0; column 1 has none, so its exact sum is lowered.
                rows = [
                    (tuple(v - (i + k == which and (k > 0 or i == 1)) for k, v in enumerate(cols)), t1, t2)
                    for i, (cols, t1, t2) in enumerate(rows, start=1)
                ]
            return rows + [last]

        monkeypatch.setattr(pattern_module, "_sum_limits", lowered)
        assert next(query_mismatches(1), None) is not None
        if which != 3:  # D4 has columns 1 and 2 only
            assert next(strictness_count_mismatches((0, 1, 2, 0)), None) is not None
