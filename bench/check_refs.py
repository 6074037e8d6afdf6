"""Tests of the benchmark's references on cases known by hand.

    python3 -m pytest -q bench/check_refs.py

Nothing here imports dlocal.
"""

from __future__ import annotations

import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import pytest  # noqa: E402

import refs  # noqa: E402


def poly_mul(a: dict, b: dict) -> dict:
    out = {}
    for e1, c1 in a.items():
        for e2, c2 in b.items():
            out[e1 + e2] = out.get(e1 + e2, 0) + c1 * c2
    return {e: c for e, c in out.items() if c}


@pytest.mark.parametrize("r", range(2, 9))
def test_root_count_and_positivity(r):
    roots = refs.positive_roots(r)
    assert len(roots) == len(set(roots)) == r * (r - 1)
    assert all(min(a) >= 0 and len(a) == r for a in roots)
    for k in range(r):
        assert tuple(int(i == k) for i in range(r)) in roots


def test_d2_is_a1_times_a1():
    assert set(refs.positive_roots(2)) == {(1, 0), (0, 1)}
    assert refs.root_product(2) == {
        (0, 0): {0: 1}, (1, 0): {0: -1}, (0, 1): {0: -1}, (1, 1): {0: 1}
    }


def test_d3_is_a3_with_the_elbow_in_the_middle():
    # A3 as the chain 1 - 3 - 2: the positive roots are the connected runs.
    assert set(refs.positive_roots(3)) == {
        (1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 0, 1), (0, 1, 1), (1, 1, 1)
    }


def test_d4_highest_root():
    assert refs.positive_roots(4)[-1] == (1, 1, 2, 1)


def test_d3_product_coefficient_at_the_highest_root():
    # Sets of roots summing to (1,1,1): {a1+a2+a3}, {a1+a3, a2}, {a2+a3, a1},
    # {a1, a2, a3}, giving -p^2 + p + p - 1.
    product = refs.root_product(3)
    assert product[(1, 1, 1)] == {2: -1, 1: 2, 0: -1}
    assert product[(0, 0, 0)] == {0: 1}


def test_product_at_p_one_has_support_in_subset_sums():
    for r in (2, 3, 4):
        product = refs.root_product(r)
        sums = refs.subset_sums(r)
        assert set(product) <= set(sums)
        assert sum(sums.values()) == 2 ** (r * (r - 1))


@pytest.mark.parametrize("m1,m2", [(1, 1), (2, 3), (4, 1), (5, 5)])
def test_d2_dimension_is_m1_m2(m1, m2):
    # Labels m - 1, i.e. <theta + rho, alpha_k> = m_k.
    assert refs.weyl_dimension(2, (m1 - 1, m2 - 1)) == m1 * m2


def test_d3_untwisted_dimension():
    assert refs.weyl_dimension(3, (1, 1, 1)) == 64


@pytest.mark.parametrize("r,labels,dim", [
    (4, (0, 0, 0, 1), 8),  # vector representation of so(8)
    (4, (1, 0, 0, 0), 8),  # a half-spin representation
    (4, (0, 0, 1, 0), 28),  # adjoint
    (5, (0, 0, 0, 0, 1), 10),
    (5, (0, 1, 0, 0, 0), 16),
    (6, (1,) * 6, 2**30),
    (7, (1,) * 7, 2**42),
])
def test_known_dimensions(r, labels, dim):
    assert refs.weyl_dimension(r, labels) == dim


def test_published_d4_coefficient():
    # -p^36 (p^3 - 2p^2 + 2p - 1) g_1^3
    expected = poly_mul({36: -1}, {3: 1, 2: -2, 1: 2, 0: -1})
    assert refs.PUBLISHED_D4["value"] == {(3,): expected}
    assert refs.PUBLISHED_D4["weight"] == (10, 10, 17, 10)


def test_ring_value_reads_the_json_form():
    obj = {"n": 2, "terms": [{"g": [0], "p": [[1, 0]]}, {"g": [3], "p": [[-1, 39], [1, 36]]}]}
    assert refs.ring_value(obj) == {(0,): {0: 1}, (3,): {39: -1, 36: 1}}
    assert refs.ring_value({"n": 1, "terms": []}) == {}
