"""Graph components, leaner classification, and strictness."""

import random
from itertools import product

import pytest

from dlocal import (
    HighestWeight,
    LittelmannPattern,
    build_root_system,
    component_structure,
    critical_positions,
    enumerate_decorated,
    render_decorated,
    row_chain_pairs,
)
from dlocal.decoration import (
    ML_ASYMMETRIC,
    ML_SYMMETRIC,
    ORDINARY,
    _row_analysis,
    _row_probes,
    _strictness_failure,
    strictness_counts,
)
from dlocal.local_part import row_term
from dlocal.pattern import (
    _below,
    _complete,
    _count_push,
    _row_bases,
    _row_fills,
    _state_walk,
    _sum_limits,
    count_patterns,
    weight_vector,
)


def make_pattern(*rows):
    rows = tuple(tuple(row) for row in rows)
    return LittelmannPattern(rank=len(rows) + 1, rows=rows)


def big_weight(r):
    return HighestWeight((40,) * r)


class TestChainPairs:
    def test_rank4_row1(self):
        assert row_chain_pairs(4, 1) == (
            (1, 2),
            (2, 3),
            (2, 4),
            (3, 5),
            (4, 5),
            (5, 6),
        )

    def test_last_row_has_no_pairs(self):
        assert row_chain_pairs(4, 3) == ()
        assert row_chain_pairs(2, 1) == ()

    @pytest.mark.parametrize("i", [3, 7])
    def test_rows_past_the_last_rejected(self, i):
        assert row_chain_pairs(3, 2) == ()
        with pytest.raises(ValueError, match="at most 2"):
            row_chain_pairs(3, i)


class TestComponents:
    def test_constant_top_row_rank6_is_length5_leaner(self):
        rows = [
            (3,) * 10,
            (8, 7, 6, 5, 4, 3, 2, 1),
            (6, 5, 4, 3, 2, 1),
            (4, 3, 2, 1),
            (2, 1),
        ]
        T = make_pattern(*rows)
        comps = [c for c in component_structure(T) if c.row == 1]
        assert len(comps) == 1
        comp = comps[0]
        assert comp.kind == ML_SYMMETRIC
        assert len(comp.columns) == 10
        assert comp.length == 5
        # Everything below the top row is strictly decreasing: all isolated.
        others = [c for c in component_structure(T) if c.row > 1]
        assert all(len(c.columns) == 1 for c in others)

    def test_strictly_decreasing_row_is_isolated(self):
        T = make_pattern((5, 4, 3, 2, 1, 0), (4, 3, 2, 1), (1, 0))
        assert all(len(c.columns) == 1 for c in component_structure(T))

    def test_equal_middle_pair_stays_disconnected(self):
        T = make_pattern((5, 2, 2, 1), (1, 0))
        comps = {c.columns: c for c in component_structure(T) if c.row == 1}
        assert (2,) in comps and (3,) in comps  # two isolated middle vertices

    def test_minimal_symmetric_leaner(self):
        # Columns r-2, r-1, r, r+1 equal, neighbors differ.
        T = make_pattern((5, 2, 2, 2, 2, 0), (3, 2, 2, 1), (1, 0))
        comp = next(c for c in component_structure(T) if c.row == 1 and len(c.columns) > 1)
        assert comp.kind == ML_SYMMETRIC
        assert comp.columns == (2, 3, 4, 5)
        assert comp.length == 2
        assert comp.rightmost == (1, 5)

    def test_longer_left_leg_is_asymmetric(self):
        # Columns r-3..r+1 equal: left leg has two vertices, right leg one.
        T = make_pattern((2, 2, 2, 2, 2, 0), (3, 2, 2, 1), (1, 0))
        comp = next(c for c in component_structure(T) if c.row == 1 and len(c.columns) > 1)
        assert comp.kind == ML_ASYMMETRIC
        assert comp.columns == (1, 2, 3, 4, 5)
        assert comp.length is None

    def test_longer_right_leg_shorter_endpoint_is_leftmost(self):
        T = make_pattern((3, 2, 2, 2, 2, 2), (3, 2, 2, 1), (1, 0))
        comp = next(c for c in component_structure(T) if c.row == 1 and len(c.columns) > 1)
        assert comp.kind == ML_ASYMMETRIC
        assert comp.columns == (2, 3, 4, 5, 6)

    def test_two_rightmost_vertices_resolve_to_upper(self):
        # a_{1,2} = a_{1,3} = a_{1,4} != a_{1,5}: ordinary with a middle tie.
        T = make_pattern((5, 2, 2, 2, 1, 0), (3, 2, 2, 1), (1, 0))
        comp = next(c for c in component_structure(T) if c.row == 1 and len(c.columns) > 1)
        assert comp.kind == ORDINARY
        assert comp.columns == (2, 3, 4)
        assert comp.rightmost == (1, 3)  # upper middle vertex

    def test_component_values_constant_and_single_row(self):
        rs = build_root_system(3)
        hw = HighestWeight((2, 2, 2))
        for T, _ in enumerate_decorated(rs, hw):
            for comp in component_structure(T):
                values = {T.entry(comp.row, c) for c in comp.columns}
                assert len(values) == 1

    def test_multiple_leaners_contain_both_middles(self):
        rs = build_root_system(3)
        hw = HighestWeight((2, 2, 2))
        for T, _ in enumerate_decorated(rs, hw):
            for comp in component_structure(T):
                if comp.kind != ORDINARY:
                    assert T.rank - 1 in comp.columns
                    assert T.rank in comp.columns

    def test_symmetric_iff_equal_legs(self):
        rs = build_root_system(4)
        hw = HighestWeight((2, 1, 1, 2))
        seen = set()
        for T, _ in enumerate_decorated(rs, hw):
            for comp in component_structure(T):
                r = T.rank
                left = sum(1 for c in comp.columns if c <= r - 2)
                right = sum(1 for c in comp.columns if c >= r + 1)
                if comp.kind == ORDINARY:
                    assert left == 0 or right == 0
                else:
                    seen.add(comp.kind)
                    assert left >= 1 and right >= 1
                    assert (comp.kind == ML_SYMMETRIC) == (left == right)
                    if comp.kind == ML_SYMMETRIC:
                        assert len(comp.columns) == 2 * comp.length
        assert seen == {ML_SYMMETRIC, ML_ASYMMETRIC}

    def test_no_leaners_in_rank2_some_in_rank3(self):
        rs2, hw2 = build_root_system(2), HighestWeight((3, 3))
        for T, _ in enumerate_decorated(rs2, hw2):
            assert all(c.kind == ORDINARY for c in component_structure(T))
        rs3, hw3 = build_root_system(3), HighestWeight((2, 2, 2))
        kinds = {
            c.kind
            for T, _ in enumerate_decorated(rs3, hw3)
            for c in component_structure(T)
        }
        assert ML_SYMMETRIC in kinds


class TestDecorate:
    """A pattern's decoration: its circled set and its components."""

    def test_circles_match_critical_positions(self):
        rs = build_root_system(3)
        hw = HighestWeight((2, 1, 2))
        for T, crit in list(enumerate_decorated(rs, hw))[:50]:
            assert crit == critical_positions(T, hw)

    def test_edges_join_equal_comparable_neighbors(self):
        T = make_pattern((2, 2, 1, 2, 1, 0), (3, 2, 2, 1), (1, 0))
        columns = {(c.row, c.columns) for c in component_structure(T)}
        # a_{1,1} = a_{1,2} along the chain, a_{1,2} = a_{1,4} from the left
        # chain end to the lower middle; a_{1,2} and a_{1,3} differ.
        assert (1, (1, 2, 4)) in columns
        assert (1, (3, 5)) in columns
        # The equal middle pair of row 2 is never joined.
        assert (2, (3,)) in columns and (2, (4,)) in columns

    def test_rejects_bound_violation(self):
        T = LittelmannPattern(2, ((5, 0),))
        with pytest.raises(ValueError, match="exceeds its bound"):
            critical_positions(T, HighestWeight((1, 1)))

    def test_component_structure_of_decorated_pattern(self):
        T = make_pattern((2, 2, 2, 2), (1, 0))
        critical_positions(T, big_weight(3))  # within its bounds
        comps = component_structure(T)
        assert [c.kind for c in comps if c.row == 1] == [ML_SYMMETRIC]


class TestStrictness:
    def test_zero_pattern_is_strict(self):
        rs = build_root_system(4)
        hw = HighestWeight((1, 1, 1, 1))
        T = LittelmannPattern(4, ((0,) * 6, (0,) * 4, (0,) * 2))
        assert _strictness_failure(T, critical_positions(T, hw)) is None

    def test_first_circled_zero_in_row_order_is_reported(self):
        hw = HighestWeight((1, 1, 1))
        T = make_pattern((1, 1, 1, 0), (0, 0))
        assert {(2, 2), (2, 3)} <= critical_positions(T, hw)
        failure = _strictness_failure(T, critical_positions(T, hw))
        assert failure == "circled zero at row 2, column 2"

    def test_circled_zero_is_nonstrict(self):
        # The first row pushes the bound of a_{2,2} down to 0, so the zero
        # there is critical, which makes the pattern nonstrict.
        hw = HighestWeight((1, 1, 1))
        T = make_pattern((1, 1, 0, 0), (0, 0))
        assert (2, 2) in critical_positions(T, hw)
        assert T.entry(2, 2) == 0
        assert _strictness_failure(T, critical_positions(T, hw)) is not None

    def test_leaning_circled_left_endpoint_is_nonstrict(self):
        hw = HighestWeight((3, 2))
        rs = build_root_system(3)
        found = False
        for T, crit in enumerate_decorated(rs, HighestWeight((2, 1, 2))):
            for comp in component_structure(T):
                if comp.kind != ORDINARY or len(comp.columns) < 2:
                    continue
                colset = set(comp.columns)
                for a, b in row_chain_pairs(T.rank, comp.row):
                    if a in colset and b in colset and (comp.row, a) in crit:
                        circled = critical_positions(T, HighestWeight((2, 1, 2)))
                        assert _strictness_failure(T, circled) is not None
                        found = True
        assert found

    def test_leaners_are_exempt_from_leaning_rule(self):
        # A fully circled symmetric leaner with nonzero value stays strict.
        rs = build_root_system(3)
        hw = HighestWeight((1, 1, 1))
        T = make_pattern((1, 1, 1, 1), (0, 0))
        crit = critical_positions(T, hw)
        comp = next(c for c in component_structure(T) if c.row == 1)
        assert comp.kind == ML_SYMMETRIC
        assert (1, 1) in crit  # the leaner contains circled vertices
        assert _strictness_failure(T, critical_positions(T, hw)) is None

    def test_published_nonstrict_counts(self):
        rs = build_root_system(4)
        hw = HighestWeight((1, 1, 1, 1))
        nonstrict = sum(
            1
            for T, crit in enumerate_decorated(rs, hw)
            if _strictness_failure(T, crit) is not None
        )
        assert nonstrict == 2216

    def test_strictness_ignores_isolated_uncircled_zeros(self):
        # Dropping zero-valued isolated uncircled components never changes
        # the verdict: they carry no circles and no probed edges.
        rs = build_root_system(3)
        hw = HighestWeight((2, 1, 2))
        for T, crit in enumerate_decorated(rs, hw):
            verdict = _strictness_failure(T, crit) is None
            comps = [
                c
                for c in component_structure(T)
                if not (
                    T.entry(c.row, c.columns[0]) == 0
                    and len(c.columns) == 1
                    and c.rightmost not in crit
                )
            ]
            kept = verdict
            circled_zero = any(T.entry(i, j) == 0 for i, j in crit)
            probe_hit = False
            for c in comps:
                if c.kind == ML_SYMMETRIC:
                    continue
                colset = set(c.columns)
                for a, b in row_chain_pairs(T.rank, c.row):
                    if a in colset and b in colset and (c.row, a) in crit:
                        probe_hit = True
            assert kept == (not circled_zero and not probe_hit)


def reference_strictness_counts(rs, hw, weight=None):
    """(total, nonstrict) by walking every pattern, the way the counts once ran.

    Under ``weight`` the untargeted enumeration is filtered by
    ``weight_vector``, so no target's limits reach the reference.  A
    pattern's entries sum to the entries of its weight, which skips most
    patterns before they are built.
    """
    r = rs.rank
    decorated = enumerate_decorated(rs, hw)
    if weight is not None:
        rows_crit = _complete(r, hw.m, _sum_limits(r, hw.m, None), 1, (0,) * (r - 1), 0, 0)
        patterns = (
            (LittelmannPattern(r, rows), frozenset(pos for row_crit in crit for pos in row_crit))
            for rows, crit in rows_crit
            if sum(map(sum, rows)) == sum(weight)
        )
        decorated = (item for item in patterns if weight_vector(item[0]) == weight)
    total = nonstrict = 0
    for T, crit in decorated:
        total += 1
        if _strictness_failure(T, crit) is not None:
            nonstrict += 1
    return total, nonstrict


class TestStrictnessCounts:
    @pytest.mark.parametrize(
        "twist",
        [(1, 2), (1, 0, 2), (2, 1, 2), (0, 0, 0, 0), (1, 1, 0, 1)],
    )
    def test_state_counts_match_pattern_walk(self, twist):
        rs = build_root_system(len(twist))
        hw = HighestWeight.from_twist(twist)
        assert strictness_counts(rs, hw) == reference_strictness_counts(rs, hw)

    @pytest.mark.parametrize(
        "weight,expected",
        [((10, 10, 17, 10), (27, 6)), ((1, 0, 0, 0), (1, 0)), ((99, 0, 0, 0), (0, 0))],
    )
    def test_weight_classes_match_pattern_walk(self, weight, expected):
        rs = build_root_system(4)
        hw = HighestWeight.from_twist((0, 1, 2, 0))
        assert strictness_counts(rs, hw, weight) == expected
        assert reference_strictness_counts(rs, hw, weight) == expected

    def test_untwisted_rank5_is_pinned(self):
        # The pattern walk gave this value too, in about 22 s.
        rs = build_root_system(5)
        assert strictness_counts(rs, HighestWeight.from_twist((0,) * 5)) == (
            1048576,
            841140,
        )


def per_state_count(rs, hw):
    """``count_patterns`` pushing every state along every fill, as it once did."""

    def push(i, fills, moves, below):
        for (S, t1, t2), value in moves:
            for state in _below(S, t1, t2, fills):
                below[state] = below.get(state, 0) + value

    return sum(_state_walk(rs.rank, hw.m, None, 1, push).values())


def per_state_strictness_counts(rs, hw, weight=None):
    """``strictness_counts`` pushing every state along every fill, as it once did."""
    r = rs.rank

    def push(i, fills, moves, below):
        passes = [_row_probes(r, i, row)[1].isdisjoint(crit) for row, crit in fills]
        for (S, t1, t2), (total, strict) in moves:
            for passed, state in zip(passes, _below(S, t1, t2, fills)):
                t, s = below.get(state, (0, 0))
                below[state] = t + total, s + strict if passed else s

    counts = _state_walk(r, hw.m, weight, (1, 1), push).values()
    total = sum(c[0] for c in counts)
    return total, total - sum(c[1] for c in counts)


def middle_weight(r, m):
    """The weight of the pattern that takes the middle fill of every row."""
    state, rows = ((0,) * (r - 1), 0, 0), []
    for i in range(1, r):
        fills = _row_fills(r, i, *_row_bases(r, m, i, *state))
        k = len(fills) // 2
        rows.append(fills[k][0])
        state = _below(*state, fills)[k]
    return weight_vector(LittelmannPattern(r, tuple(rows)))


class TestGroupTotalsAgainstPerStatePushes:
    """The counting pushes carry one total per group of states with equal
    bounds.  They must give what pushing every state gave.  Whole walks
    run on every twist in {0,1,2}^r at ranks 2 and 3 and {0,1}^4, on two
    D5 twists and on untwisted D6; a per-state walk over all of
    {0,1,2}^4 or {0,1}^5 takes 17 s or 35 s.  Targeted walks, which are
    cheap, run at the middle weight of every twist in {0,1,2}^r for
    r = 2..4 and {0,1}^5.
    """

    @pytest.mark.parametrize(
        "twists",
        [
            list(product(range(3), repeat=2)),
            list(product(range(3), repeat=3)),
            list(product(range(2), repeat=4)),
            [(0, 0, 0, 0, 0), (1, 0, 2, 0, 1)],
            [(0,) * 6],
        ],
        ids=["D2", "D3", "D4", "D5", "D6"],
    )
    def test_whole_walks(self, twists):
        for twist in twists:
            rs, hw = build_root_system(len(twist)), HighestWeight.from_twist(twist)
            assert count_patterns(rs, hw) == per_state_count(rs, hw), twist
            assert strictness_counts(rs, hw) == per_state_strictness_counts(rs, hw), twist

    @pytest.mark.parametrize("rank, values", [(2, 3), (3, 3), (4, 3), (5, 2)])
    def test_targeted_walks(self, rank, values):
        rs = build_root_system(rank)
        for twist in product(range(values), repeat=rank):
            hw = HighestWeight.from_twist(twist)
            weight = middle_weight(rank, hw.m)
            counts = strictness_counts(rs, hw, weight)
            assert counts[0] > 0
            assert counts == per_state_strictness_counts(rs, hw, weight), twist

    @pytest.mark.parametrize(
        "twist, weight, expected",
        [
            ((0,) * 7, None, (2**42, 4_336_836_505_774)),
            ((1, 0, 1, 0, 1, 0), None, (1_334_018_400_000, 1_090_239_045_116)),
            ((1, 0, 2, 1, 0), (3, 3, 5, 6, 4), (2196, 1177)),
        ],
    )
    def test_pinned_counts(self, twist, weight, expected):
        rs, hw = build_root_system(len(twist)), HighestWeight.from_twist(twist)
        assert strictness_counts(rs, hw, weight) == expected


def per_value_row_analysis(rank, i, row):
    """(components, probes) of one row of values, the way rows were once classified.

    A component is a dict of its value and the fields of ``Component``; the
    probes are the row's zero entries, then the earlier endpoints of every
    edge inside a component that is not a symmetric multiple leaner.
    """
    r = rank
    cols = list(range(i, 2 * r - i))
    parent = {c: c for c in cols}

    def find(c):
        while parent[c] != c:
            c = parent[c]
        return c

    for a, b in row_chain_pairs(rank, i):
        if row[a - i] == row[b - i]:
            parent[find(a)] = find(b)
    groups = {}
    for c in cols:
        groups.setdefault(find(c), []).append(c)
    components = []
    for columns in sorted(groups.values()):
        left = sum(1 for c in columns if c <= r - 2)
        right = sum(1 for c in columns if c >= r + 1)
        maxcol = columns[-1]
        comp = {
            "value": row[columns[0] - i],
            "columns": tuple(columns),
            "kind": ORDINARY,
            "rightmost": (i, r - 1) if maxcol == r and r - 1 in columns else (i, maxcol),
            "length": None,
        }
        if left and right and left == right:
            comp.update(kind=ML_SYMMETRIC, length=left + 1)
        elif left and right:
            comp.update(kind=ML_ASYMMETRIC)
        components.append(comp)
    probes = [(i, c) for c in cols if row[c - i] == 0]
    for comp in components:
        if comp["kind"] != ML_SYMMETRIC:
            for a, b in row_chain_pairs(rank, i):
                if a in comp["columns"] and b in comp["columns"]:
                    probes.append((i, a))
    return components, probes


def per_value_strictness_failure(T, circled):
    """``_strictness_failure`` over the per-value probes: zeros before leaners."""
    failing = [
        pos
        for i, row in enumerate(T.rows, start=1)
        for pos in per_value_row_analysis(T.rank, i, row)[1]
        if pos in circled
    ]
    if not failing:
        return None
    i, j = min(failing, key=lambda pos: T.entry(*pos) > 0)
    if T.entry(i, j) == 0:
        return f"circled zero at row {i}, column {j}"
    return f"circled entry at row {i}, column {j} leans on its equal right neighbor"


def walked_rows(twist):
    """Every (row index, row, circled positions) of the patterns under ``twist``."""
    hw = HighestWeight.from_twist(twist)
    seen = set()

    def push(i, fills, moves, below):
        seen.update((i, row, crit) for row, crit, *_ in fills)
        _count_push(i, fills, moves, below)

    _state_walk(len(twist), hw.m, None, 1, push)
    return seen


def random_rows(rank, count, seed):
    """``count`` seeded (row index, admissible row, circled subset) at ``rank``.

    Each entry is the least entry before it in the row chain, lowered by 0
    or 1 at random and kept at 0 or above, so rows have many equal
    neighbours and zeros.
    """
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        i = rng.randrange(1, rank)
        above = {}
        for a, b in row_chain_pairs(rank, i):
            above.setdefault(b, []).append(a)
        values = {}
        for c in range(i, 2 * rank - i):
            top = min((values[a] for a in above.get(c, [])), default=rng.randrange(5))
            values[c] = max(0, top - rng.choice((0, 0, 1)))
        row = tuple(values[c] for c in sorted(values))
        crit = tuple((i, c) for c in sorted(values) if rng.random() < 0.3)
        out.append((i, row, crit))
    return out


def one_row_pattern(rank, i, row):
    rows = tuple(row if k == i else (0,) * (2 * (rank - k)) for k in range(1, rank))
    return LittelmannPattern(rank, rows)


class TestShapeTableAgainstPerValueRows:
    """The shape table against a transcription of the former per-value classification."""

    FIELDS = ("columns", "kind", "rightmost", "length")

    def check_row(self, rank, i, row, crit):
        ref_components, ref_probes = per_value_row_analysis(rank, i, row)
        components, probes = _row_probes(rank, i, row)
        assert [{f: getattr(c, f) for f in self.FIELDS} for c in components] == [
            {f: c[f] for f in self.FIELDS} for c in ref_components
        ]
        assert [row[c.columns[0] - i] for c in components] == [
            c["value"] for c in ref_components
        ]
        assert probes == set(ref_probes)
        nonstrict = any(pos in ref_probes for pos in crit)
        assert (not probes.isdisjoint(crit)) == nonstrict
        assert (row_term(rank, i, row, crit, 2) is None) == nonstrict
        T = one_row_pattern(rank, i, row)
        assert _strictness_failure(T, set(crit)) == per_value_strictness_failure(T, set(crit))

    @pytest.mark.parametrize("twist", [(0, 1, 2, 0), (0, 0, 0, 0)])
    def test_every_walked_row_of_rank4(self, twist):
        rows = walked_rows(twist)
        assert len(rows) > 100
        for i, row, crit in rows:
            self.check_row(4, i, row, crit)

    @pytest.mark.parametrize("rank", [2, 3, 4, 5, 6, 7])
    def test_seeded_random_rows(self, rank):
        for i, row, crit in random_rows(rank, 400, seed=rank):
            self.check_row(rank, i, row, crit)

    @pytest.mark.parametrize(
        "twist, weight", [((0, 0, 0, 0), None), ((0, 1, 2, 0), (10, 10, 17, 10))]
    )
    def test_failure_text_of_whole_patterns(self, twist, weight):
        # Across rows, a circled zero in a later row is reported before a
        # leaning vertex in an earlier one.
        rs, hw = build_root_system(len(twist)), HighestWeight.from_twist(twist)
        for T, crit in enumerate_decorated(rs, hw, weight):
            assert _strictness_failure(T, crit) == per_value_strictness_failure(T, crit)


def test_d6_counts_classify_511_row_shapes():
    _row_probes.cache_clear()
    _row_analysis.cache_clear()
    strictness_counts(build_root_system(6), HighestWeight.from_twist((0,) * 6))
    assert _row_analysis.cache_info().currsize == 511


class TestRender:
    def test_golden_rank3(self):
        # Circles at both chain ends and at a_{2,2}; the whole first row is
        # one (exempt) symmetric leaner, edges drawn toward both middles.
        T = LittelmannPattern.from_string("1,1,1,1;1,0")
        circled = critical_positions(T, HighestWeight((1, 1, 1)))
        expected = "\n".join(
            [
                "    — 1 —",
                "(1)       (1)",
                "    — 1 —",
                "   (1)",
                "",
                "    0",
            ]
        )
        assert render_decorated(T, circled) == expected

    def test_render_marks_circles(self):
        T = LittelmannPattern(2, ((2, 1),))
        text = render_decorated(T, critical_positions(T, HighestWeight((3, 2))))
        assert "(2)" in text and "(1)" not in text
