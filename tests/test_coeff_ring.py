"""Exact ring arithmetic, canonical forms, and the Gauss-sum symbols."""

import json
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dlocal import RingElem, gauss_symbol
from dlocal.coeff_ring import _mul_add


def p(e, n=2):
    return RingElem.p_power(e, n)


def one(n=2):
    return RingElem.one(n)


class TestGaussSymbol:
    def test_index_zero_is_minus_one(self):
        assert gauss_symbol(0, 3) == RingElem.integer(-1, 3)

    def test_index_reduces_mod_n(self):
        assert gauss_symbol(5, 3) == gauss_symbol(2, 3)

    def test_degree_one_cover_collapses(self):
        assert gauss_symbol(7, 1) == RingElem.integer(-1, 1)

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            gauss_symbol(1, 0)
        with pytest.raises(ValueError):
            gauss_symbol(-1, 2)

    @pytest.mark.parametrize(
        "k, n", [(1.5, 2), (1, 1.5), (None, 2), (1, None), ("1", 2)], ids=repr
    )
    def test_non_integers_rejected_not_truncated(self, k, n):
        with pytest.raises(ValueError):
            gauss_symbol(k, n)

    def test_integral_arguments_are_taken_as_ints(self):
        assert gauss_symbol(2.0, 3.0) == gauss_symbol(2, 3)

    def test_exponent_vector_marks_index_mod_n(self):
        assert gauss_symbol(2, 4).terms == {(0, 1, 0): {0: 1}}
        assert gauss_symbol(7, 4).terms == {(0, 0, 1): {0: 1}}

    def test_cover_degree_too_large_to_allocate_fails_at_once(self):
        # As in RingElem.integer, (0,) * (n - 1) raises before allocating.
        with pytest.raises(MemoryError):
            gauss_symbol(1, 2 * 10**18)


@pytest.mark.parametrize(
    "build, args",
    [
        (RingElem.one, (None,)),
        (RingElem.one, (1.5,)),
        (RingElem.integer, (1, 1.5)),
        (RingElem.p_power, (1, 1.5)),
        (RingElem.p_power, (1, 0)),
        (RingElem.zero, (1.5,)),
    ],
    ids=lambda v: v.__name__ if callable(v) else repr(v),
)
def test_constructors_reject_a_non_integral_cover_degree(build, args):
    with pytest.raises(ValueError, match="cover degree"):
        build(*args)


class TestArithmetic:
    def test_geometric_cancellation(self):
        assert (one() - p(-1)) * p(1) == p(1) - one()

    def test_sign_bookkeeping(self):
        lhs = (-p(-1)) ** 4 * (gauss_symbol(1, 2) * p(-1)) ** 3
        rhs = gauss_symbol(1, 2) ** 3 * p(-7)
        assert lhs == rhs

    def test_published_two_term_sum(self):
        # The two displayed contributions combine to -p^36 (p^3-2p^2+2p-1) g1^3.
        g1 = gauss_symbol(1, 2)
        t1 = p(47) * (one() - p(-1)) ** 3 * (-p(-1)) ** 5 * (g1 * p(-1)) ** 3
        t2 = p(47) * (-p(-1)) ** 4 * (g1 * p(-1)) ** 3 * (-p(-1)) * (one() - p(-1)) * p(-1)
        expected = -(p(36) * (p(3) - 2 * p(2) + 2 * p(1) - one())) * g1**3
        assert t1 + t2 == expected

    def test_modulus_mismatch_rejected(self):
        with pytest.raises(ValueError):
            RingElem.one(2) + RingElem.one(3)

    def test_int_coercion(self):
        assert 2 * one() - 1 == one()
        assert (1 - p(-1)) == one() - p(-1)

    @pytest.mark.parametrize(
        "op",
        [
            lambda x: one() + x,
            lambda x: x + one(),
            lambda x: one() - x,
            lambda x: x - one(),
            lambda x: one() * x,
            lambda x: x * one(),
        ],
        ids=["add", "radd", "sub", "rsub", "mul", "rmul"],
    )
    def test_scalar_operands(self, op):
        # An integral float is its int; a non-integral one raises ValueError,
        # and any other type is left to Python, which raises TypeError.
        assert op(2.0) == op(2) and op(-1.0) == op(-1) and op(True) == op(1)
        for bad in (2.5, float("inf"), float("nan")):
            with pytest.raises(ValueError, match="ring scalar"):
                op(bad)
        for other in ("2", None, 1j):
            with pytest.raises(TypeError):
                op(other)


class TestEvaluate:
    def test_plain_laurent(self):
        assert (p(1, n=1) - 1).evaluate(3) == 2

    def test_with_g_values(self):
        elem = gauss_symbol(1, 2) ** 3 * p(-1)
        assert elem.evaluate(2, [5]) == Fraction(125, 2)

    def test_published_sum_vanishes_at_one(self):
        g1 = gauss_symbol(1, 2)
        elem = -(p(36) * (p(3) - 2 * p(2) + 2 * p(1) - one())) * g1**3
        assert elem.evaluate(1, [7]) == 0

    def test_rejects_zero_p(self):
        with pytest.raises(ValueError):
            one().evaluate(0)

    def test_eval_p_keeps_g_formal(self):
        elem = gauss_symbol(1, 2) * p(-1) + p(2)
        values = elem.eval_p(2)
        assert values[(0,)] == 4
        assert values[(1,)] == Fraction(1, 2)


class TestCanonicalForm:
    def test_no_zero_terms_stored(self):
        elem = p(3) - p(3)
        assert elem.terms == {}
        assert elem.is_zero

    def test_g_vector_length_enforced(self):
        with pytest.raises(ValueError):
            RingElem(2, {(1, 1): {0: 1}})

    @pytest.mark.parametrize(
        "n, terms",
        [
            (1, {(): {0: 1.5}}),  # a coefficient
            (1, {(): {0.5: 1}}),  # a p-exponent
            (2, {(1.5,): {0: 1}}),  # a g-exponent
            (2, {(-1,): {0: 1}}),  # the ring is polynomial in g
            (1, {(): {float("inf"): 1}}),
            (1, {(): {0: float("nan")}}),
            (1, {(): {None: 1}}),
            (2, {(None,): {0: 1}}),
            (2, {("1",): {0: 1}}),
            (1.5, {}),  # the cover degree
            (float("inf"), {}),
            (None, {}),
        ],
    )
    def test_non_integers_rejected_not_truncated(self, n, terms):
        with pytest.raises(ValueError):
            RingElem(n, terms)

    def test_p_power_exponent_not_truncated(self):
        with pytest.raises(ValueError):
            RingElem.p_power(1.5, 1)
        assert RingElem.p_power(2.0, 1) == p(2, n=1)

    def test_json_non_integer_coefficient_rejected(self):
        with pytest.raises(ValueError):
            RingElem.from_json_obj({"n": 1, "terms": [{"g": [], "p": [[2.9, 0]]}]})

    def test_integral_values_are_stored_as_ints(self):
        elem = RingElem(2, {(1.0,): {2.0: 3.0}})
        assert elem == gauss_symbol(1, 2) * p(2, n=2) * 3
        assert all(type(e) is int for g in elem.terms for e in g)
        assert str(elem) == "3*p^2*g1"

    def test_g_vector_length_matches_cover(self):
        elem = gauss_symbol(2, 4) * gauss_symbol(3, 4) * p(5, n=4)
        assert all(len(g) == 3 for g in elem.terms)

    def test_json_roundtrip_and_order(self):
        elem = gauss_symbol(1, 3) * p(2, n=3) - p(-1, n=3) + gauss_symbol(2, 3) ** 2
        obj = elem.to_json_obj()
        assert obj["n"] == 3
        gkeys = [tuple(t["g"]) for t in obj["terms"]]
        assert gkeys == sorted(gkeys)
        for term in obj["terms"]:
            exps = [e for _, e in term["p"]]
            assert exps == sorted(exps)
        assert RingElem.from_json_obj(obj) == elem
        for value in (elem, RingElem.zero(3)):
            assert value.to_json_str() == json.dumps(value.to_json_obj(), separators=(",", ":"))

    def test_str_forms(self):
        assert str(RingElem.zero(2)) == "0"
        assert str(one() - p(-1)) == "1-p^-1"
        assert str(-(p(36) * (p(3) - 2 * p(2) + 2 * p(1) - one())) * gauss_symbol(1, 2) ** 3) == (
            "(-p^39+2*p^38-2*p^37+p^36)*g1^3"
        )


# Small random elements for the algebraic laws.
_coeff = st.integers(min_value=-4, max_value=4)
_exp = st.integers(min_value=-3, max_value=3)
_gvec = st.tuples(st.integers(min_value=0, max_value=2), st.integers(min_value=0, max_value=2))


@st.composite
def ring_elems(draw, n=3):
    terms = {}
    for _ in range(draw(st.integers(min_value=0, max_value=3))):
        g = draw(_gvec)
        poly = terms.setdefault(g, {})
        poly[draw(_exp)] = draw(_coeff)
    return RingElem(n, terms)


@settings(deadline=None, max_examples=120)
@given(ring_elems(), ring_elems(), ring_elems())
def test_ring_axioms(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert a + b == b + a
    assert a * b == b * a
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a + RingElem.zero(3) == a
    assert a * RingElem.one(3) == a
    assert a - a == RingElem.zero(3)


@settings(deadline=None, max_examples=80)
@given(ring_elems())
def test_canonicalization_idempotent(a):
    again = RingElem(a.n, a.terms)
    assert again == a
    assert again.terms == a.terms


def _assert_canonical(x):
    assert all(poly and all(c != 0 for c in poly.values()) for poly in x.terms.values())
    assert x.terms == RingElem(x.n, x.terms).terms


@settings(deadline=None, max_examples=120)
@given(ring_elems(), ring_elems())
def test_results_stay_canonical(a, b):
    for result in (a + b, a - b, a * b, a - a, a * (b - b)):
        _assert_canonical(result)


def test_explicit_cancellations_are_zero():
    g1 = gauss_symbol(1, 3)
    for zero in (
        (one() - p(-1)) * (one() + p(-1)) + p(-2) - one(),
        (g1 + p(1, n=3)) * (g1 - p(1, n=3)) - g1 * g1 + p(2, n=3),
        gauss_symbol(1, 2) * p(-1) - p(-1) * gauss_symbol(3, 2),
    ):
        assert zero.is_zero
        assert zero.terms == {}


@settings(deadline=None, max_examples=80)
@given(st.lists(st.tuples(ring_elems(), ring_elems()), max_size=6))
def test_multiply_accumulate_equals_sum_of_products(pairs):
    out = {}
    total = RingElem.zero(3)
    for a, b in pairs:
        _mul_add(out, a.terms, b.terms)
        total = total + a * b
    acc = RingElem(3, out)
    assert acc.terms == out
    assert acc == total


@settings(deadline=None, max_examples=80)
@given(ring_elems(), ring_elems(), st.randoms(use_true_random=False))
def test_equality_matches_random_evaluation(a, b, rng):
    points = [
        (
            Fraction(rng.randint(1, 60), rng.randint(1, 60)),
            [Fraction(rng.randint(-60, 60)), Fraction(rng.randint(-60, 60))],
        )
        for _ in range(3)
    ]
    agree = all(a.evaluate(pv, gv) == b.evaluate(pv, gv) for pv, gv in points)
    if a == b:
        assert agree
    elif agree:
        # Should essentially never happen for distinct canonical forms.
        diff = a - b
        assert all(diff.evaluate(pv, gv) == 0 for pv, gv in points)
