"""The verification suites and their reports."""

import pytest

from dlocal import (
    RingElem,
    check_dimension,
    check_example2,
    check_rank2,
    check_tokuyama,
    gauss_symbol,
    kubota_local,
)
from dlocal.oracle import Case, VerificationReport, kubota_brute


def p(e, n):
    return RingElem.p_power(e, n)


class TestKubota:
    def test_zero_twist_any_cover(self):
        for n in (2, 3, 5):
            part = kubota_local(0, n)
            assert part.coefficients == {
                (0,): RingElem.one(n),
                (1,): gauss_symbol(1, n),
            }

    def test_zero_twist_degree_one(self):
        part = kubota_local(0, 1)
        assert part.coefficients == {(0,): RingElem.one(1), (1,): -RingElem.one(1)}

    def test_twist_one_cover_two(self):
        part = kubota_local(1, 2)
        assert part.coefficients == {(0,): RingElem.one(2), (2,): -p(1, 2)}

    def test_twist_two_cover_two(self):
        part = kubota_local(2, 2)
        assert part.coefficients == {
            (0,): RingElem.one(2),
            (2,): p(2, 2) - p(1, 2),
            (3,): gauss_symbol(1, 2) * p(2, 2),
        }

    @pytest.mark.parametrize("n", range(1, 7))
    def test_matches_brute_force(self, n):
        for l in range(11):
            assert kubota_local(l, n).coefficients == kubota_brute(l, n).coefficients

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            kubota_local(-1, 2)
        with pytest.raises(ValueError):
            kubota_local(0, 0)

    @pytest.mark.parametrize("l, n", [(1.5, 2), (None, 2), (1, None), (1, 1.5)], ids=repr)
    def test_non_integers_rejected_not_truncated(self, l, n):
        with pytest.raises(ValueError):
            kubota_local(l, n)

    def test_integral_arguments_are_taken_as_ints(self):
        part = kubota_local(2.0, 2.0)
        assert part.coefficients == kubota_local(2, 2).coefficients
        assert part.twist == (2,) and part.n == 2


class TestSuites:
    def test_dimension_small_grid(self):
        report = check_dimension(max_rank=3, max_twist=1)
        assert report.passed
        assert report.counts == (12, 12)  # 4 rank-2 twists + 8 rank-3 twists

    def test_tokuyama(self):
        report = check_tokuyama()
        assert report.passed
        descriptions = [case.description for case in report.cases]
        assert any("601" in case.expected for case in report.cases)
        assert any("support" in d for d in descriptions)

    def test_tokuyama_rank5(self):
        report = check_tokuyama(max_rank=5)
        assert report.passed, report.to_text()
        assert "D5 untwisted n=1: local part == root product" in [
            case.description for case in report.cases
        ]

    def test_rank2(self):
        report = check_rank2(max_twist=2, max_n=3)
        assert report.passed

    @pytest.mark.parametrize(
        "check, args",
        [
            (check_dimension, (2.5, 0)),
            (check_dimension, (2, 0.5)),
            (check_tokuyama, (2.5,)),
            (check_tokuyama, (None,)),
            (check_rank2, (0.5, 1)),
            (check_rank2, (0, 1.5)),
        ],
        ids=lambda v: v.__name__ if callable(v) else repr(v),
    )
    def test_non_integral_grid_bounds_rejected(self, check, args):
        with pytest.raises(ValueError):
            check(*args)

    def test_integral_float_grid_bounds_are_taken_as_ints(self):
        assert check_dimension(2.0, 0.0).counts == check_dimension(2, 0).counts == (1, 1)
        assert check_tokuyama(2.0).counts == check_tokuyama(2).counts
        assert check_rank2(0.0, 1.0).counts == check_rank2(0, 1).counts

    def test_example2(self):
        report = check_example2()
        assert report.passed
        assert [case.expected for case in report.cases[:3]] == ["27", "6", "2"]


class TestReport:
    def test_failing_case_marks_report(self):
        report = VerificationReport("demo")
        report.add("good", 1, 1)
        report.add("bad", 2, 3)
        assert not report.passed
        assert report.counts == (1, 2)
        text = report.to_text()
        assert "[PASS] good" in text
        assert "[FAIL] bad: 3 (expected 2)" in text
        assert "1/2 cases passed" in text

    def test_json_shape(self):
        report = VerificationReport("demo")
        report.add("case", "x", "x")
        obj = report.to_json_obj()
        assert obj["suite"] == "demo"
        assert obj["passed"] is True
        assert obj["cases"][0] == {
            "description": "case",
            "expected": "x",
            "actual": "x",
            "passed": True,
        }

    def test_case_equality_is_string_exact(self):
        assert Case("d", "10", "10").passed
        assert not Case("d", "10", "10 ").passed
