"""Self-verification suites built from independent oracles.

Four suites, each comparing canonical forms exactly (never numerically):

  dimension  -- the number of bounded patterns must equal the Weyl
                dimension of the highest-weight module, over a grid of
                ranks and twists.  This is the decisive validator of the
                boundary conventions in the bound formulas.
  tokuyama   -- at n = 1 and zero twist the local part must equal the
                product over positive roots of (1 - p^(d(alpha)-1) x^alpha).
  rank2      -- D_2 local parts must factor into two rank-one Kubota
                polynomials (the x1 factor carries the second twist
                coordinate: the bound of the column feeding x1 is m_2);
                the closed Kubota form is itself checked against direct
                rank-one summation.
  example2   -- regression of the published twisted rank-4 coefficient;
                the weight class has 27 patterns, 6 of them nonstrict,
                exactly 2 contributing, with
                a_lambda = -p^36 (p^3 - 2p^2 + 2p - 1) g_1^3.
"""

from __future__ import annotations

from itertools import product
from operator import add
from typing import NamedTuple

from .coeff_ring import RingElem, _degree, gauss_symbol
from .decoration import _strictness_failure, strictness_counts
from .local_part import LocalPart, local_part, pattern_contribution, sigma_entry
from .pattern import count_patterns, enumerate_decorated, weight_vector
from .root_data import (
    HighestWeight,
    RootSystemD,
    _at_least,
    _Record,
    build_root_system,
    weyl_dimension,
)


class Case(NamedTuple):
    description: str
    expected: str
    actual: str

    @property
    def passed(self) -> bool:
        return self.expected == self.actual


class VerificationReport(_Record):
    """The cases of one suite, in the order they were added."""

    __slots__ = ("suite", "cases")

    def __init__(self, suite: str, cases=None):
        self.suite = suite
        self.cases = [] if cases is None else cases

    def add(self, description: str, expected, actual) -> None:
        self.cases.append(Case(description, str(expected), str(actual)))

    @property
    def passed(self) -> bool:
        return all(case.passed for case in self.cases)

    @property
    def counts(self) -> tuple[int, int]:
        ok = sum(1 for case in self.cases if case.passed)
        return ok, len(self.cases)

    def to_json_obj(self):
        ok, total = self.counts
        return {
            "suite": self.suite,
            "passed": self.passed,
            "cases_passed": ok,
            "cases_total": total,
            "cases": [
                {
                    "description": case.description,
                    "expected": case.expected,
                    "actual": case.actual,
                    "passed": case.passed,
                }
                for case in self.cases
            ],
        }

    def to_text(self) -> str:
        lines = []
        for case in self.cases:
            mark = "PASS" if case.passed else "FAIL"
            line = f"[{mark}] {case.description}: {case.actual}"
            if not case.passed:
                line += f" (expected {case.expected})"
            lines.append(line)
        ok, total = self.counts
        lines.append(f"suite {self.suite}: {ok}/{total} cases passed")
        return "\n".join(lines)


def kubota_local(l: int, n: int) -> LocalPart:
    """Closed form of the rank-one local part with twist l.

    1 + sum over 0 < k <= l with n | k of (p^k - p^(k-1)) x^k, plus the
    top term g_{(l+1) mod n} p^l x^(l+1).
    """
    l, n = _at_least(l, 0, "twist"), _degree(n)
    coeffs = {(0,): RingElem.one(n)}
    for k in range(1, l + 1):
        if k % n == 0:
            coeffs[(k,)] = RingElem.p_power(k, n) - RingElem.p_power(k - 1, n)
    coeffs[(l + 1,)] = gauss_symbol(l + 1, n) * RingElem.p_power(l, n)
    return LocalPart(rank=1, n=n, twist=(l,), coefficients=coeffs)


def kubota_brute(l: int, n: int) -> LocalPart:
    """Rank-one local part by direct summation over the l+2 patterns.

    A single entry a ranges over 0..l+1, is circled exactly at its bound
    l+1, and contributes p^a sigma(a).
    """
    l, n = _at_least(l, 0, "twist"), _degree(n)
    coeffs = {}
    for a in range(l + 2):
        value = RingElem.p_power(a, n) * sigma_entry(a, a == l + 1, n)
        if not value.is_zero:
            coeffs[(a,)] = value
    return LocalPart(rank=1, n=n, twist=(l,), coefficients=coeffs)


def tokuyama_product(rs: RootSystemD) -> LocalPart:
    """Expand prod over positive roots of (1 - p^(d(alpha)-1) x^alpha).

    Returns the untwisted n = 1 generating function as a LocalPart of plain
    Laurent polynomials in p, multiplied out one root at a time on
    {weight: {p-exponent: coefficient}} dicts, apart from the ring's code.
    """
    r = rs.rank
    coeffs: dict[tuple[int, ...], dict[int, int]] = {(0,) * r: {0: 1}}
    for root in rs.positive_roots:
        shift = sum(root) - 1
        updated = dict(coeffs)
        for lam, poly in coeffs.items():
            shifted = tuple(map(add, lam, root))
            acc = dict(updated.get(shifted, ()))
            for e, c in poly.items():
                c = acc.pop(e + shift, 0) - c
                if c:
                    acc[e + shift] = c
            updated[shifted] = acc
            if not acc:
                del updated[shifted]
        coeffs = updated
    wrapped = {lam: RingElem._wrap(1, {(): poly}) for lam, poly in coeffs.items()}
    return LocalPart(r, 1, (0,) * r, wrapped)


def check_dimension(max_rank: int = 4, max_twist: int = 2) -> VerificationReport:
    """Pattern count == Weyl dimension over the whole twist grid.

    From ``max_rank`` 4 up, untwisted D5 is checked too: at 4 it is added
    past the grid, above 4 the grid holds it.
    """
    max_rank, max_twist = _at_least(max_rank, 2, "max rank"), _at_least(max_twist, 0, "max twist")
    report = VerificationReport("dimension")
    grid = [
        (r, twist)
        for r in range(2, max_rank + 1)
        for twist in product(range(max_twist + 1), repeat=r)
    ]
    if max_rank == 4:
        grid.append((5, (0,) * 5))
    for r, twist in grid:
        rs = build_root_system(r)
        hw = HighestWeight.from_twist(twist)
        expected = weyl_dimension(rs, hw)
        actual = count_patterns(rs, hw)
        report.add(f"D{r} twist {twist}: pattern count", expected, actual)
    return report


def check_tokuyama(max_rank: int = 4) -> VerificationReport:
    """Untwisted n = 1 local part == deformed product over positive roots."""
    max_rank = _at_least(max_rank, 2, "max rank")
    report = VerificationReport("tokuyama")
    for r in range(2, max_rank + 1):
        rs = build_root_system(r)
        hw = HighestWeight.from_twist((0,) * r)
        computed = local_part(rs, hw, n=1)
        expected = tokuyama_product(rs)
        report.add(
            f"D{r} untwisted n=1: local part == root product",
            "equal",
            "equal" if computed.coefficients == expected.coefficients else _first_diff(computed, expected),
        )
        if r == 4:
            report.add("D4 untwisted n=1: support size", 601, len(computed.coefficients))
            total, nonstrict = strictness_counts(rs, hw)
            report.add("D4 untwisted: total patterns", 4096, total)
            report.add("D4 untwisted: nonstrict patterns", 2216, nonstrict)
    return report


def _first_diff(a: LocalPart, b: LocalPart) -> str:
    keys = sorted(set(a.coefficients) | set(b.coefficients))
    for lam in keys:
        va, vb = a.coefficient_at(lam), b.coefficient_at(lam)
        if va != vb:
            return f"differs at {lam}: {va} vs {vb}"
    return "equal"


def check_rank2(max_twist: int = 3, max_n: int = 4) -> VerificationReport:
    """D_2 local parts factor into Kubota polynomials, twists crossed; the
    rank-one closed form is checked on twists up to max(10, max_twist) and
    n up to max(6, max_n), so the flags only widen that grid."""
    max_twist, max_n = _at_least(max_twist, 0, "max twist"), _at_least(max_n, 1, "max n")
    report = VerificationReport("rank2")
    rs = build_root_system(2)
    for l1, l2, n in product(range(max_twist + 1), range(max_twist + 1), range(1, max_n + 1)):
        hw = HighestWeight.from_twist((l1, l2))
        computed = local_part(rs, hw, n=n)
        factor_x1 = kubota_local(l2, n)  # the column feeding x1 is bounded by m_2
        factor_x2 = kubota_local(l1, n)
        expected = {}
        for (a,), va in factor_x1.coefficients.items():
            for (b,), vb in factor_x2.coefficients.items():
                value = va * vb
                if not value.is_zero:
                    expected[(a, b)] = value
        product_part = LocalPart(rank=2, n=n, twist=(l1, l2), coefficients=expected)
        report.add(
            f"D2 twist ({l1},{l2}) n={n}: factorization",
            "equal",
            "equal" if computed.coefficients == expected else _first_diff(computed, product_part),
        )
    for l, n in product(range(max(10, max_twist) + 1), range(1, max(6, max_n) + 1)):
        closed = kubota_local(l, n)
        brute = kubota_brute(l, n)
        report.add(
            f"rank-1 twist {l} n={n}: closed form == brute force",
            "equal",
            "equal" if closed.coefficients == brute.coefficients else _first_diff(closed, brute),
        )
    return report


def check_example2() -> VerificationReport:
    """Published twisted rank-4 regression at n = 2."""
    report = VerificationReport("example2")
    rs = build_root_system(4)
    hw = HighestWeight.from_twist((0, 1, 2, 0))
    lam = (10, 10, 17, 10)
    n = 2

    total = nonstrict = nonzero = 0
    coeff = RingElem.zero(n)
    for T, crit in enumerate_decorated(rs, hw, lam):
        total += 1
        assert weight_vector(T) == lam
        if _strictness_failure(T, crit) is not None:
            nonstrict += 1
            continue
        value = pattern_contribution(T, hw, n)
        if not value.is_zero:
            nonzero += 1
            coeff = coeff + value

    report.add("weight class size", 27, total)
    report.add("nonstrict patterns", 6, nonstrict)
    report.add("nonzero contributions", 2, nonzero)
    p = lambda e: RingElem.p_power(e, n)  # noqa: E731
    expected = -(p(36) * (p(3) - 2 * p(2) + 2 * p(1) - RingElem.one(n))) * gauss_symbol(1, n) ** 3
    report.add("coefficient at (10,10,17,10)", expected, coeff)
    return report


def check_all() -> list[VerificationReport]:
    return [check_dimension(), check_tokuyama(max_rank=5), check_rank2(), check_example2()]
