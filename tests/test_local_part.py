"""Standard contributions and assembly of local parts."""

import hashlib
import json
from functools import lru_cache

import pytest

from dlocal import (
    HighestWeight,
    LittelmannPattern,
    RingElem,
    build_root_system,
    enumerate_decorated,
    gauss_symbol,
    local_part,
    pattern_contribution,
    sigma_entry,
    tokuyama_product,
    weight_vector,
)
from dlocal.decoration import (
    ML_ASYMMETRIC,
    ML_SYMMETRIC,
    ORDINARY,
    _row_probes,
    _strictness_failure,
    component_structure,
)
from dlocal.local_part import _strict_bucket, component_rule, row_term
from dlocal.pattern import _complete, _count_push, _row_bucket, _state_walk, _sum_limits


def p(e, n=2):
    return RingElem.p_power(e, n)


def one(n=2):
    return RingElem.one(n)


class TestSigmaEntry:
    def test_uncircled_divisible(self):
        assert sigma_entry(4, False, 2) == one() - p(-1)

    def test_circled_odd(self):
        assert sigma_entry(7, True, 2) == gauss_symbol(1, 2) * p(-1)

    def test_circled_even_uses_g0(self):
        assert sigma_entry(4, True, 2) == -p(-1)

    def test_uncircled_indivisible_vanishes(self):
        assert sigma_entry(3, False, 2) == RingElem.zero(2)

    def test_uncircled_zero_is_unit(self):
        assert sigma_entry(0, False, 2) == one()

    def test_circled_zero_rejected(self):
        with pytest.raises(ValueError):
            sigma_entry(0, True, 2)

    def test_negative_value_rejected(self):
        with pytest.raises(ValueError):
            sigma_entry(-1, False, 2)

    @pytest.mark.parametrize(
        "value, circled, n", [(1.5, True, 2), (1.5, False, 1), (2, False, 1.5), (None, False, 2)]
    )
    def test_non_integers_rejected_not_truncated(self, value, circled, n):
        with pytest.raises(ValueError):
            sigma_entry(value, circled, n)


def _symmetric_leaner(value):
    # Row 1 of a rank-4 pattern with columns 2..5 equal: length-2 leaner.
    T = LittelmannPattern(4, ((value + 1, value, value, value, value, 0), (1, 1, 1, 1), (1, 0)))
    comp = next(
        c for c in component_structure(T) if c.row == 1 and c.kind == ML_SYMMETRIC
    )
    assert comp.length == 2
    return comp


class TestSigmaComponent:
    def test_symmetric_circled_rightmost(self):
        comp = _symmetric_leaner(4)
        circled = {comp.rightmost}
        expected = (-p(-1)) * (one() - p(-1)) * p(-1)
        assert component_rule(comp, 4, circled, 2)[0] == expected
        # upsilon, (1, 4), is read as uncircled: no strict pattern circles it
        # beside a circled rightmost vertex (tests/test_unreached_rules.py).
        assert component_rule(comp, 4, circled | {(1, 4)}, 2)[0] == expected

    def test_symmetric_uncircled_rightmost(self):
        comp = _symmetric_leaner(4)
        value = component_rule(comp, 4, set(), 2)[0]
        assert value == (one() - p(-1)) * (one() - p(-2))

    def test_symmetric_uncircled_length3(self):
        T = LittelmannPattern(4, ((2, 2, 2, 2, 2, 2), (1, 1, 1, 1), (1, 0)))
        comp = next(c for c in component_structure(T) if c.row == 1)
        assert comp.kind == ML_SYMMETRIC and comp.length == 3
        assert component_rule(comp, 2, set(), 2)[0] == (one() - p(-1)) * (one() - p(-3))

    def test_zero_component_is_unit(self):
        T = LittelmannPattern(2, ((0, 0),))
        for comp in component_structure(T):
            assert component_rule(comp, 0, set(), 3)[0] == RingElem.one(3)

    def test_asymmetric_is_sigma_uncircled_whatever_is_circled(self):
        # Columns 1..5 equal: the shorter leg ends at (1, 5).  No strict
        # pattern circles that endpoint (tests/test_unreached_rules.py).
        T = LittelmannPattern(4, ((2, 2, 2, 2, 2, 0), (1, 1, 1, 1), (1, 0)))
        comp = next(c for c in component_structure(T) if c.row == 1 and len(c.columns) > 1)
        assert comp.kind == ML_ASYMMETRIC
        for circled in (set(), {(1, 5)}, {(1, 1)}, {(1, c) for c in comp.columns}):
            assert component_rule(comp, 2, circled, 2)[0] == one() - p(-1)
            assert component_rule(comp, 3, circled, 2)[0] == RingElem.zero(2)


class TestPatternContribution:
    def test_all_zero_pattern_is_unit(self):
        T = LittelmannPattern(4, ((0,) * 6, (0,) * 4, (0,) * 2))
        hw = HighestWeight((1, 1, 1, 1))
        assert pattern_contribution(T, hw, 2) == one()

    def test_rank2_corner(self):
        hw = HighestWeight((2, 3))
        T = LittelmannPattern(2, ((3, 2),))
        value = pattern_contribution(T, hw, 2)
        assert value == p(5) * (gauss_symbol(1, 2) * p(-1)) * (-p(-1))

    def test_nonstrict_rejected(self):
        hw = HighestWeight((1, 1, 1))
        T = LittelmannPattern.from_string("1,1,0,0;0,0")
        with pytest.raises(ValueError, match="nonstrict"):
            pattern_contribution(T, hw, 2)

    def test_published_weight_class_contributions(self):
        # The 21 strict patterns of the published weight class: exactly the
        # two displayed products are nonzero, the other 19 vanish.
        rs = build_root_system(4)
        hw = HighestWeight.from_twist((0, 1, 2, 0))
        lam = (10, 10, 17, 10)
        g1 = gauss_symbol(1, 2)
        displayed = [
            p(47) * (one() - p(-1)) ** 3 * (-p(-1)) ** 5 * (g1 * p(-1)) ** 3,
            p(47) * (-p(-1)) ** 4 * (g1 * p(-1)) ** 3 * (-p(-1)) * (one() - p(-1)) * p(-1),
        ]
        nonzero = []
        zeros = 0
        for T, crit in enumerate_decorated(rs, hw, lam):
            if _strictness_failure(T, crit) is not None:
                continue
            value = pattern_contribution(T, hw, 2)
            if value.is_zero:
                zeros += 1
            else:
                nonzero.append(value)
        assert zeros == 19
        assert sorted(map(str, nonzero)) == sorted(map(str, displayed))


@lru_cache(maxsize=None)
def _untargeted_decorated(r, m, lams):
    """{lam: [(T, crit)]} for each weight of ``lams``, in enumeration order.

    One pass over the untargeted enumeration, filtered by ``weight_vector``,
    so no target's limits reach the reference.  A pattern's entries sum to
    the entries of its weight, which skips most patterns before they are
    built.
    """
    found = {lam: [] for lam in lams}
    sums = set(map(sum, lams))
    for rows, crit in _complete(r, m, _sum_limits(r, m, None), 1, (0,) * (r - 1), 0, 0):
        if sum(map(sum, rows)) in sums:
            T = LittelmannPattern(r, rows)
            if (lam := weight_vector(T)) in found:
                found[lam].append((T, frozenset(pos for row_crit in crit for pos in row_crit)))
    return found


def _strict_pattern_sum(decorated, hw, n):
    """Sum of pattern_contribution over the strict ``decorated`` (T, crit), by weight."""
    total = {}
    for T, crit in decorated:
        if _strictness_failure(T, crit) is None:
            lam = weight_vector(T)
            total[lam] = total.get(lam, RingElem.zero(n)) + pattern_contribution(T, hw, n)
    return {lam: value for lam, value in total.items() if not value.is_zero}


class TestRowRule:
    @pytest.mark.parametrize(
        "twist, n",
        [((1, 0, 2), n) for n in (1, 2, 3)]
        + [((2, 1, 2), n) for n in (1, 2, 3)]
        + [((0, 0, 0, 0), 2)],
        ids=lambda v: ",".join(map(str, v)) if isinstance(v, tuple) else f"n{v}",
    )
    def test_local_part_is_sum_of_pattern_contributions(self, twist, n):
        rs = build_root_system(len(twist))
        hw = HighestWeight.from_twist(twist)
        expected = _strict_pattern_sum(enumerate_decorated(rs, hw), hw, n)
        assert local_part(rs, hw, n).coefficients == expected

    def test_row_term_is_row_power_times_component_rules(self):
        # rank 2, hw (2, 3): a_{1,1} = 3 and a_{1,2} = 2 are both circled.
        assert row_term(2, 1, (3, 2), ((1, 1), (1, 2)), 2) == (
            p(5) * (gauss_symbol(1, 2) * p(-1)) * (-p(-1))
        )
        # Row 2 of 1,1,0,0;0,0 under hw (1, 1, 1) circles a zero.
        assert row_term(3, 2, (0, 0), ((2, 2), (2, 3)), 2) is None
        rs = build_root_system(3)
        hw = HighestWeight((2, 1, 2))
        for T, crit in enumerate_decorated(rs, hw):
            factors = []
            for i, row in enumerate(T.rows, start=1):
                row_crit = tuple(sorted(pos for pos in crit if pos[0] == i))
                factor = row_term(3, i, row, row_crit, 3)
                factors.append(factor)
                if factor is not None:
                    expected = p(sum(row), 3)
                    for comp in component_structure(T):
                        if comp.row == i:
                            value = T.entry(i, comp.columns[0])
                            expected = expected * component_rule(comp, value, row_crit, 3)[0]
                    assert factor == expected
            assert (None in factors) == (_strictness_failure(T, crit) is not None)


def _walked_row_fills(twist):
    """Every (i, row, crit) that the full walk of a D4 twist meets, once each."""
    met = {}

    def push(i, fills, moves, below):
        met.update(((i,) + fill, None) for fill in fills)
        _count_push(i, fills, moves, below)

    _state_walk(4, HighestWeight.from_twist(twist).m, None, 1, push)
    return list(met)


def _ring_sigma(y, circled, n):
    """The entry rule, transcribed with ring products."""
    if y == 0:
        return one(n)
    if circled:
        return gauss_symbol(y, n) * p(-1, n)
    return one(n) - p(-1, n) if y % n == 0 else RingElem.zero(n)


def _ring_component_rule(comp, value, crit, n):
    """The component rule, transcribed with ring products."""
    if value == 0:
        return one(n)
    if comp.kind == ML_ASYMMETRIC:
        return _ring_sigma(value, False, n)
    if comp.kind != ML_SYMMETRIC:
        return _ring_sigma(value, comp.rightmost in crit, n)
    if comp.rightmost in crit:
        return _ring_sigma(value, True, n) * _ring_sigma(value, False, n) * p(1 - comp.length, n)
    return _ring_sigma(value, False, n) * (one(n) - p(-comp.length, n))


class TestRowTermAgainstRingProducts:
    """``row_term`` forms a row factor without ring products; ring products agree."""

    TWISTS = [(0, 1, 2, 0), (1, 0, 0, 1), (2, 2, 0, 0), (0, 0, 2, 1)]

    def test_every_walked_row_at_n_1_to_4(self):
        branches = set()
        for twist in self.TWISTS:
            for i, row, crit in _walked_row_fills(twist):
                components, probes = _row_probes(4, i, row)
                nonstrict = not probes.isdisjoint(crit)
                for n in (1, 2, 3, 4):
                    factor = row_term(4, i, row, crit, n)
                    if nonstrict:
                        assert factor is None
                        continue
                    expected = p(sum(row), n)
                    for comp in components:
                        value = row[comp.columns[0] - i]
                        rule = component_rule(comp, value, crit, n)[0]
                        assert rule == _ring_component_rule(comp, value, crit, n)
                        expected = expected * rule
                        if value and not rule.is_zero:
                            circ = comp.rightmost in crit
                            if comp.kind == ML_SYMMETRIC and comp.length >= 2:
                                branches.add(("symmetric", circ))
                            if comp.kind == ML_ASYMMETRIC:
                                branches.add("asymmetric")
                            if circ and value % n == 0 and comp.kind == ORDINARY:
                                branches.add("sign")
                    assert factor == expected
                    if factor.is_zero:
                        branches.add("zero")
        assert branches == {
            ("symmetric", True), ("symmetric", False), "asymmetric", "sign", "zero"
        }


class TestAssembly:
    """The state-by-state assembly against the pattern-by-pattern sum."""

    @pytest.mark.parametrize("jobs", [0, 2])
    def test_twisted_rank4_json_is_pinned(self, jobs):
        # sha256 of the JSON that summing pattern by pattern produced.
        rs = build_root_system(4)
        hw = HighestWeight.from_twist((0, 1, 2, 0))
        text = local_part(rs, hw, n=2, jobs=jobs).to_json_str()
        assert hashlib.sha256(text.encode()).hexdigest() == (
            "266ef385423f334de462d779d4e1383c5096e00c26ef9515b93f1df744aa2840"
        )

    def test_untwisted_rank5_json_is_pinned(self):
        rs = build_root_system(5)
        text = local_part(rs, HighestWeight.from_twist((0,) * 5), n=3).to_json_str()
        assert hashlib.sha256(text.encode()).hexdigest() == (
            "f34c66d9f7b3d704c2da990b5b61449bb1efc151ccee0258d91c68c05c70b8cd"
        )

    @pytest.mark.parametrize(
        "n,digest",
        [
            (1, "321aed3619096cd8ab192bf0cfee8ba54712eaff839efc99e0b370a98284e0cb"),
            (2, "75c3b95c74df04691507ace6df38a2e0e03503394b50fc12c674bcfeca4b3344"),
        ],
    )
    def test_untwisted_rank5_json_is_pinned_at_low_n(self, n, digest):
        # sha256 of the JSON that the backward memoized walk produced.
        rs = build_root_system(5)
        text = local_part(rs, HighestWeight.from_twist((0,) * 5), n=n).to_json_str()
        assert hashlib.sha256(text.encode()).hexdigest() == digest

    RANK5_WEIGHTS = (
        (0, 0, 0, 0, 0),
        (1, 1, 3, 4, 2),  # the first weight where n = 1 misses the root product
        (4, 4, 8, 9, 5),
        (7, 7, 14, 10, 7),
        (4, 6, 9, 7, 3),
        (10, 10, 18, 14, 8),
    )

    @pytest.mark.parametrize("n", [1, 3])
    @pytest.mark.parametrize("lam", RANK5_WEIGHTS, ids=lambda lam: ",".join(map(str, lam)))
    def test_rank5_weight_equals_pattern_sum(self, lam, n):
        rs = build_root_system(5)
        hw = HighestWeight.from_twist((0,) * 5)
        decorated = _untargeted_decorated(5, hw.m, self.RANK5_WEIGHTS)[lam]
        expected = _strict_pattern_sum(decorated, hw, n)
        if (lam, n) == ((7, 7, 14, 10, 7), 3):
            # Pinned: the strict patterns of this class sum to 0 at n = 3
            # since asymmetric leaners are probed.  Observed, not verified:
            # no oracle judges n > 1 at rank 5 yet.
            assert expected == {}
        else:
            assert expected  # every other chosen weight has a nonzero coefficient
        assert local_part(rs, hw, n, weight=lam).coefficients == expected


class TestLocalPart:
    def test_published_twisted_coefficient(self):
        rs = build_root_system(4)
        hw = HighestWeight.from_twist((0, 1, 2, 0))
        part = local_part(rs, hw, n=2, weight=(10, 10, 17, 10))
        expected = -(p(36) * (p(3) - 2 * p(2) + 2 * p(1) - one())) * gauss_symbol(1, 2) ** 3
        assert part.coefficient_at((10, 10, 17, 10)) == expected

    def test_untwisted_rank4_equals_root_product(self):
        rs = build_root_system(4)
        hw = HighestWeight((1, 1, 1, 1))
        part = local_part(rs, hw, n=1)
        assert part.coefficients == tokuyama_product(rs).coefficients
        assert len(part.coefficients) == 601

    def test_unit_normalization_across_grid(self):
        for r, twist, n in [(2, (0, 0), 1), (2, (1, 2), 3), (3, (0, 1, 0), 2), (4, (0, 1, 2, 0), 2)]:
            rs = build_root_system(r)
            hw = HighestWeight.from_twist(twist)
            part = local_part(rs, hw, n=n, weight=(0,) * r)
            assert part.coefficient_at((0,) * r) == RingElem.one(n)

    def test_degree_one_cover_has_no_g_symbols(self):
        rs = build_root_system(3)
        part = local_part(rs, HighestWeight((2, 1, 2)), n=1)
        for value in part.coefficients.values():
            assert all(g == () for g in value.terms)

    def test_missing_coefficient_is_zero(self):
        rs = build_root_system(2)
        part = local_part(rs, HighestWeight((1, 1)), n=1)
        assert part.coefficient_at((9, 9)) == RingElem.zero(1)

    def test_coefficient_at_builds_zero_only_when_missing(self, monkeypatch):
        part = local_part(build_root_system(2), HighestWeight((1, 1)), n=1)
        built = []
        init = RingElem.__init__

        def counted(self, *args, **kwargs):
            built.append(args)
            init(self, *args, **kwargs)

        monkeypatch.setattr(RingElem, "__init__", counted)
        lam = part.support()[0]
        assert part.coefficient_at(lam) is part.coefficients[lam]
        assert built == []
        assert part.coefficient_at((9, 9)).is_zero
        assert len(built) == 1

    def test_support_bounded_by_column_capacity(self):
        rs = build_root_system(3)
        hw = HighestWeight((2, 2, 2))
        part = local_part(rs, hw, n=1)
        lam_max = [0] * 3
        for T, _ in enumerate_decorated(rs, hw):
            for k, v in enumerate(weight_vector(T)):
                lam_max[k] = max(lam_max[k], v)
        for lam in part.coefficients:
            assert all(v <= mx for v, mx in zip(lam, lam_max))

    def test_weight_filter_matches_full_assembly(self):
        # Every weight of the support, and one outside it, where it is zero.
        rs = build_root_system(3)
        for twist in ((1, 0, 1), (1, 0, 2), (2, 1, 2)):
            hw = HighestWeight.from_twist(twist)
            for n in (1, 2, 3):
                full = local_part(rs, hw, n)
                for lam, value in full.coefficients.items():
                    assert local_part(rs, hw, n, weight=lam).coefficients == {lam: value}
                outside = tuple(v + 1 for v in max(full.coefficients))
                assert local_part(rs, hw, n, weight=outside).coefficients == {}

    def test_every_d4_weight_cold_then_warm(self):
        # Each of the 2,438 support weights of D4 (0,1,2,0) n=2, and one
        # outside it: sorted from cold row buckets, then reversed from warm.
        rs, hw = build_root_system(4), HighestWeight.from_twist((0, 1, 2, 0))
        full = local_part(rs, hw, 2).coefficients
        lams = sorted(full) + [tuple(v + 1 for v in max(full))]
        assert len(lams) == 2439
        _row_bucket.cache_clear()
        _strict_bucket.cache_clear()
        for lam in lams + lams[::-1]:
            expected = {lam: full[lam]} if lam in full else {}
            assert local_part(rs, hw, 2, weight=lam).coefficients == expected, lam

    def test_non_integer_weight_rejected_not_truncated(self):
        rs, hw = build_root_system(3), HighestWeight((1, 1, 1))
        with pytest.raises(ValueError):
            local_part(rs, hw, 1, weight=(1.5, 1, 1))

    def test_coefficient_at_rejects_wrong_length(self):
        part = local_part(build_root_system(3), HighestWeight((1, 1, 1)), 1)
        for lam in ((1, 1), (1, 1, 1, 0)):
            with pytest.raises(ValueError):
                part.coefficient_at(lam)

    def test_rejects_bad_cover_degree(self):
        rs = build_root_system(2)
        with pytest.raises(ValueError):
            local_part(rs, HighestWeight((1, 1)), n=0)

    @pytest.mark.parametrize("bad", [1.5, float("inf"), float("nan"), None, "2"])
    def test_non_integral_cover_degree_raises_value_error(self, bad):
        with pytest.raises(ValueError):
            local_part(build_root_system(2), HighestWeight((1, 1)), n=bad)

    @pytest.mark.parametrize("bad", [float("inf"), float("nan"), None, "1"])
    def test_non_integral_weight_raises_value_error(self, bad):
        rs, hw = build_root_system(3), HighestWeight((1, 1, 1))
        with pytest.raises(ValueError):
            local_part(rs, hw, 1, weight=(bad, 1, 1))

    def test_integral_float_cover_degree_is_an_int(self):
        rs, hw = build_root_system(3), HighestWeight((1, 2, 1))
        part = local_part(rs, hw, 2.0)
        assert type(part.n) is int
        assert part.to_json_str() == local_part(rs, hw, 2).to_json_str()


def _reference_json_obj(part):
    """The object whose ``json.dumps`` the JSON writer must reproduce (test-only)."""
    return {
        "rank": part.rank,
        "n": part.n,
        "twist": list(part.twist),
        "coefficients": [
            {"lambda": list(lam), "value": part.coefficients[lam].to_json_obj()}
            for lam in part.support()
        ],
    }


class TestJsonWriter:
    @pytest.mark.parametrize(
        "twist, n, weight",
        [
            ((0, 0), 1, None),  # n = 1: every g-monomial is empty
            ((1, 0, 2), 3, None),
            ((2, 1, 2), 5, None),
            ((0, 1, 2, 0), 2, None),
            ((0, 1, 2, 0), 2, (10, 10, 17, 10)),  # a single coefficient
            ((0, 1, 2, 0), 2, (1, 0, 0, 0)),  # off the support: no coefficients
        ],
        ids=["D2-n1", "D3-102-n3", "D3-212-n5", "D4-0120-n2", "D4-single", "D4-empty"],
    )
    def test_writer_matches_json_dumps(self, twist, n, weight):
        rs = build_root_system(len(twist))
        part = local_part(rs, HighestWeight.from_twist(twist), n, weight=weight)
        expected = json.dumps(_reference_json_obj(part), separators=(",", ":"))
        assert part.to_json_str() == expected


class TestDeterminism:
    def test_parallel_equals_sequential(self):
        for m in ((3, 2), (2, 2, 2)):
            rs = build_root_system(len(m))
            hw = HighestWeight(m)
            seq = local_part(rs, hw, n=2)
            for jobs in (2, 3):
                par = local_part(rs, hw, n=2, jobs=jobs)
                assert par.to_json_str() == seq.to_json_str()

    def test_json_is_canonical(self):
        rs = build_root_system(2)
        part = local_part(rs, HighestWeight((2, 2)), n=2)
        obj = json.loads(part.to_json_str())
        lams = [tuple(c["lambda"]) for c in obj["coefficients"]]
        assert lams == sorted(lams)
        assert obj["rank"] == 2 and obj["n"] == 2 and obj["twist"] == [1, 1]
