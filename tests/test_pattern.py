"""Pattern shapes, bounds, criticality, weights, and enumeration."""

from itertools import combinations_with_replacement, product

import pytest

from dlocal import (
    HighestWeight,
    LittelmannPattern,
    build_root_system,
    count_patterns,
    critical_positions,
    enumerate_decorated,
    enumerate_patterns,
    is_theta_admissible,
    partial_sums,
    upper_bound,
    weight_vector,
    weyl_dimension,
)
from dlocal.pattern import _row_fills


def zero_pattern(r):
    return LittelmannPattern(r, tuple(tuple(0 for _ in range(2 * (r - i))) for i in range(1, r)))


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
        ps = partial_sums(T, 2)
        # S(c, 2) sums a_{k,c} + bar(k,c) over rows k <= min(2, c).
        assert ps.s(1) == T.entry(1, 1) + T.bar(1, 1)
        assert ps.s(2) == (
            T.entry(1, 2) + T.bar(1, 2) + T.entry(2, 2) + T.bar(2, 2)
        )
        assert ps.mid_top == T.entry(1, 3) + T.entry(2, 3)
        assert ps.mid_bot == T.entry(1, 4) + T.entry(2, 4)
        assert ps.mid_sum == ps.mid_top + ps.mid_bot

    def test_empty_prefix_is_zero(self):
        ps = partial_sums(zero_pattern(4), 0)
        assert ps.s(1) == ps.s(2) == ps.mid_top == ps.mid_bot == 0


class TestUpperBound:
    def test_rank2_bounds_are_the_weights(self):
        T = zero_pattern(2)
        hw = HighestWeight((4, 7))
        assert upper_bound(T, hw, (1, 1)) == 7  # m_2 bounds the first middle column
        assert upper_bound(T, hw, (1, 2)) == 4  # m_1 bounds the second

    def test_zero_pattern_first_column_bound(self):
        T = zero_pattern(4)
        hw = HighestWeight((1, 1, 1, 1))
        assert upper_bound(T, hw, (1, 1)) == 1  # m_4 with empty sums

    def test_zero_pattern_bottom_middle_bound(self):
        T = zero_pattern(4)
        hw = HighestWeight((1, 1, 1, 1))
        assert upper_bound(T, hw, (1, 4)) == 1  # m_1 with empty sums

    def test_out_of_range_position(self):
        T = zero_pattern(3)
        with pytest.raises(ValueError):
            upper_bound(T, HighestWeight((1, 1, 1)), (2, 1))

    def test_bounds_depend_on_previous_rows(self):
        T = LittelmannPattern.from_string("1,1,1,1;1,1")
        hw = HighestWeight((2, 2, 2))
        # Row 2 top-middle bound: m_2 + bar(2,1)->absent + S(1,1) - 2*T1(1).
        assert upper_bound(T, hw, (2, 2)) == 2 + (1 + 1) - 2 * 1


class TestThetaAdmissible:
    def test_rank2_corner_is_admissible_and_critical(self):
        hw = HighestWeight((3, 2))
        T = LittelmannPattern(2, ((2, 3),))  # (m_2, m_1)
        assert is_theta_admissible(T, hw)
        assert critical_positions(T, hw) == {(1, 1), (1, 2)}

    def test_zero_pattern_has_no_critical_entries(self):
        T = zero_pattern(4)
        hw = HighestWeight((1, 1, 1, 1))
        assert is_theta_admissible(T, hw)
        assert critical_positions(T, hw) == frozenset()

    def test_exceeding_bound_rejected(self):
        hw = HighestWeight((3, 2))
        T = LittelmannPattern(2, ((3, 0),))  # first middle bound is m_2 = 2
        assert not is_theta_admissible(T, hw)
        with pytest.raises(ValueError):
            critical_positions(T, hw)


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
            pats = list(enumerate_patterns(rs, HighestWeight((m1, m2))))
            assert len(pats) == (m1 + 1) * (m2 + 1)
            assert pats == sorted(pats, key=lambda T: T.rows)

    def test_d4_untwisted_count(self):
        rs = build_root_system(4)
        hw = HighestWeight((1, 1, 1, 1))
        assert sum(1 for _ in enumerate_patterns(rs, hw)) == 4096

    def test_published_weight_class_size(self):
        rs = build_root_system(4)
        hw = HighestWeight.from_twist((0, 1, 2, 0))
        pats = list(enumerate_patterns(rs, hw, (10, 10, 17, 10)))
        assert len(pats) == 27
        assert all(weight_vector(T) == (10, 10, 17, 10) for T in pats)

    def test_canonical_order_is_row_major_lex(self):
        rs = build_root_system(3)
        hw = HighestWeight((2, 1, 2))
        pats = [T.rows for T in enumerate_patterns(rs, hw)]
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
        assert sum(1 for _ in enumerate_patterns(rs, hw)) == expected

    def test_enumerated_criticality_matches_direct_bounds(self):
        rs = build_root_system(3)
        hw = HighestWeight((2, 1, 2))
        for T, crit in enumerate_decorated(rs, hw):
            assert crit == critical_positions(T, hw)
            assert is_theta_admissible(T, hw)

    def test_enumerated_criticality_matches_under_weight_filter(self):
        rs = build_root_system(4)
        hw = HighestWeight.from_twist((0, 1, 2, 0))
        seen = 0
        for T, crit in enumerate_decorated(rs, hw, (10, 10, 17, 10)):
            assert crit == critical_positions(T, hw)
            seen += 1
        assert seen == 27

    def test_weight_partition_refines_enumeration(self):
        rs = build_root_system(3)
        hw = HighestWeight((1, 2, 1))
        by_weight = {}
        for T in enumerate_patterns(rs, hw):
            by_weight.setdefault(weight_vector(T), []).append(T)
        for lam, group in by_weight.items():
            assert list(enumerate_patterns(rs, hw, lam)) == group
        total = sum(len(group) for group in by_weight.values())
        assert total == weyl_dimension(rs, hw)

    def test_empty_weight_class_is_valid(self):
        rs = build_root_system(3)
        hw = HighestWeight((1, 1, 1))
        assert list(enumerate_patterns(rs, hw, (50, 0, 0))) == []

    def test_bounds_monotone_in_weight(self):
        # Raising any m_k never removes a pattern.
        rs = build_root_system(3)
        base = HighestWeight((1, 2, 1))
        seen = set(T.rows for T in enumerate_patterns(rs, base))
        for k in range(3):
            bigger = HighestWeight(tuple(m + (1 if idx == k else 0) for idx, m in enumerate(base.m)))
            superset = set(T.rows for T in enumerate_patterns(rs, bigger))
            assert seen <= superset

    def test_work_units_cover_enumeration_exactly(self):
        # Completions of the first-row fills (the parallel work units) form
        # the same multiset as sequential enumeration.
        from dlocal.pattern import _complete, _row_fills

        rs = build_root_system(3)
        hw = HighestWeight((2, 1, 2))
        sequential = sorted(T.rows for T in enumerate_patterns(rs, hw))
        units = _row_fills(3, hw.m, 1, (0,), 0, 0, None)
        chunks = [units[k::3] for k in range(3)]
        sharded = []
        for chunk in chunks:
            for row, _, s, t1, t2 in chunk:
                for rest, _ in _complete(3, hw.m, None, 2, s, t1, t2):
                    sharded.append((row,) + rest)
        assert sorted(sharded) == sequential

    def test_rank_mismatch_rejected(self):
        with pytest.raises(ValueError):
            list(enumerate_patterns(build_root_system(3), HighestWeight((1, 1))))

    def test_bad_weight_filter_rejected(self):
        rs = build_root_system(3)
        with pytest.raises(ValueError):
            list(enumerate_patterns(rs, HighestWeight((1, 1, 1)), (1, 2)))


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
    state.  ``step`` thins the prefixes of the largest case.
    """

    @pytest.mark.parametrize(
        "r,twist,box,step",
        [(3, (1, 0, 2), 8, 1), (3, (2, 1, 2), 10, 1), (4, (1, 1, 0, 1), 10, 23)],
    )
    def test_fills_are_the_bounded_admissible_rows(self, r, twist, box, step):
        hw = HighestWeight.from_twist(twist)
        prefixes = {i: set() for i in range(1, r)}
        for T in enumerate_patterns(build_root_system(r), hw):
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
                        expected.append((row, crit, ps.col_pairs, ps.mid_top, ps.mid_bot))
                ps = partial_sums(T, i - 1)
                fills = _row_fills(r, hw.m, i, ps.col_pairs, ps.mid_top, ps.mid_bot, None)
                actual = sorted((row, sorted(crit), s, t1, t2) for row, crit, s, t1, t2 in fills)
                assert actual == sorted(expected), (i, prefix)
