"""Acceptance gate: one test per criterion, each printing PASS or FAIL.

Run with ``pytest tests/test_acceptance.py -s`` (or ``-rA``) to see the
per-criterion lines.  All comparisons are exact canonical-form equality;
the only tolerances are the stated wall-clock budgets.
"""

import time
from contextlib import contextmanager
from itertools import product

from dlocal import (
    HighestWeight,
    RingElem,
    build_root_system,
    check_dimension,
    check_rank2,
    enumerate_decorated,
    gauss_symbol,
    local_part,
    tokuyama_product,
)
from dlocal.decoration import (
    ML_SYMMETRIC,
    ORDINARY,
    _strictness_failure,
    component_structure,
)


@contextmanager
def criterion(label):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {label}: FAIL")
        raise
    print(f"ACCEPTANCE {label}: PASS")


def test_criterion_1_published_twisted_regression():
    with criterion("1 twisted rank-4 regression"):
        rs = build_root_system(4)
        hw = HighestWeight.from_twist((0, 1, 2, 0))
        lam = (10, 10, 17, 10)
        start = time.perf_counter()
        total = nonstrict = nonzero = 0
        from dlocal import pattern_contribution

        coeff = RingElem.zero(2)
        for T, crit in enumerate_decorated(rs, hw, lam):
            total += 1
            if _strictness_failure(T, crit) is not None:
                nonstrict += 1
                continue
            value = pattern_contribution(T, hw, 2)
            if not value.is_zero:
                nonzero += 1
                coeff = coeff + value
        elapsed = time.perf_counter() - start
        p = lambda e: RingElem.p_power(e, 2)  # noqa: E731
        expected = -(p(36) * (p(3) - 2 * p(2) + 2 * p(1) - RingElem.one(2)))
        expected = expected * gauss_symbol(1, 2) ** 3
        assert total == 27
        assert nonstrict == 6
        assert nonzero == 2
        assert coeff == expected
        assert elapsed < 5.0, f"weight-filtered computation took {elapsed:.2f}s"


def test_criterion_2_tokuyama_identity():
    with criterion("2 deformed product identity at n=1"):
        start = time.perf_counter()
        rs = build_root_system(4)
        hw = HighestWeight((1, 1, 1, 1))
        part = local_part(rs, hw, n=1)
        elapsed = time.perf_counter() - start
        assert part.coefficients == tokuyama_product(rs).coefficients
        assert len(part.coefficients) == 601
        total = nonstrict = 0
        for T, crit in enumerate_decorated(rs, hw):
            total += 1
            if _strictness_failure(T, crit) is not None:
                nonstrict += 1
        assert total == 4096
        assert nonstrict == 2216
        for r in (2, 3):
            rs_small = build_root_system(r)
            hw_small = HighestWeight((1,) * r)
            assert (
                local_part(rs_small, hw_small, n=1).coefficients
                == tokuyama_product(rs_small).coefficients
            )
        assert elapsed < 5.0, f"rank-4 assembly took {elapsed:.2f}s"


def test_criterion_3_dimension_grid():
    with criterion("3 dimension grid (boundary-convention validator)"):
        start = time.perf_counter()
        report = check_dimension(max_rank=4, max_twist=2)
        elapsed = time.perf_counter() - start
        failing = [case.description for case in report.cases if not case.passed]
        assert report.passed, f"failing cases: {failing}"
        assert report.counts[1] == 9 + 27 + 81 + 1
        assert elapsed < 120.0, f"grid took {elapsed:.1f}s"


def test_criterion_4_rank2_factorization():
    with criterion("4 rank-2 Kubota factorization"):
        report = check_rank2(max_twist=3, max_n=4)
        failing = [case.description for case in report.cases if not case.passed]
        assert report.passed, f"failing cases: {failing}"


def test_criterion_5_unit_normalization():
    with criterion("5 coefficient at zero weight is 1"):
        grids = [
            (r, twist, n)
            for r in (2, 3, 4)
            for twist in product(range(3), repeat=r)
            for n in (1, 2, 3, 4)
        ]
        grids += [(5, (0,) * 5, n) for n in (1, 2, 3, 4)]
        for r, twist, n in grids:
            rs = build_root_system(r)
            hw = HighestWeight.from_twist(twist)
            part = local_part(rs, hw, n=n, weight=(0,) * r)
            assert part.coefficient_at((0,) * r) == RingElem.one(n), (r, twist, n)


def test_criterion_6_parallel_determinism():
    with criterion("6 byte-identical JSON across parallelism degrees"):
        rs = build_root_system(4)
        hw = HighestWeight.from_twist((0, 1, 2, 0))
        sequential = local_part(rs, hw, n=2, jobs=0).to_json_str()
        for jobs in (2, 3):
            parallel = local_part(rs, hw, n=2, jobs=jobs).to_json_str()
            assert parallel == sequential, f"jobs={jobs} output differs"


def test_criterion_7_property_suites():
    with criterion("7 structural and ring properties"):
        # A component's entries are all equal, leaner middle-pair containment, and
        # the symmetric <=> equal-legs equivalence over a mixed grid.
        for r, twist in [(3, (1, 1, 1)), (4, (1, 0, 0, 1))]:
            rs = build_root_system(r)
            hw = HighestWeight.from_twist(twist)
            for T, _ in enumerate_decorated(rs, hw):
                for comp in component_structure(T):
                    values = {T.entry(comp.row, c) for c in comp.columns}
                    assert len(values) == 1
                    left = sum(1 for c in comp.columns if c <= r - 2)
                    right = sum(1 for c in comp.columns if c >= r + 1)
                    if comp.kind == ORDINARY:
                        assert left == 0 or right == 0
                    else:
                        assert r - 1 in comp.columns and r in comp.columns
                        assert (comp.kind == ML_SYMMETRIC) == (left == right)
        # Ring axioms and canonicalization idempotence on a fixed sample.
        g1, g2 = gauss_symbol(1, 3), gauss_symbol(2, 3)
        sample = [
            RingElem.zero(3),
            RingElem.one(3),
            RingElem.p_power(-2, 3) - 3 * RingElem.one(3),
            g1 * RingElem.p_power(1, 3) + g2**2,
            (RingElem.one(3) - RingElem.p_power(-1, 3)) * g1,
        ]
        for a in sample:
            assert RingElem(a.n, a.terms) == a
            for b in sample:
                assert a + b == b + a
                assert a * b == b * a
                for c in sample:
                    assert (a + b) + c == a + (b + c)
                    assert (a * b) * c == a * (b * c)
                    assert a * (b + c) == a * b + a * c
