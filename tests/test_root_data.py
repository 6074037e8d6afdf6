"""Root system construction, Weyl dimensions, and the deformed product."""

from fractions import Fraction

import pytest

from dlocal import (
    HighestWeight,
    RingElem,
    bourbaki_permutation,
    build_root_system,
    tokuyama_product,
    weyl_dimension,
)


def _solve_exact(matrix, rhs):
    """Gaussian elimination over Fractions; matrix is square and invertible."""
    size = len(matrix)
    aug = [[Fraction(v) for v in row] + [Fraction(rhs[i])] for i, row in enumerate(matrix)]
    for col in range(size):
        pivot = next(row for row in range(col, size) if aug[row][col] != 0)
        aug[col], aug[pivot] = aug[pivot], aug[col]
        scale = aug[col][col]
        aug[col] = [v / scale for v in aug[col]]
        for row in range(size):
            if row != col and aug[row][col] != 0:
                factor = aug[row][col]
                aug[row] = [a - factor * b for a, b in zip(aug[row], aug[col])]
    return [aug[row][size] for row in range(size)]


def _positive_roots_from_coordinates(r):
    """Independent oracle: D_r positive roots in the +-e_i model.

    Expands e_i - e_j and e_i + e_j (i < j) over the Bourbaki simple roots
    by exact linear algebra, then permutes indices into the fork-first
    labeling.
    """
    simples = []
    for i in range(r - 1):
        v = [0] * r
        v[i], v[i + 1] = 1, -1
        simples.append(v)
    v = [0] * r
    v[r - 2] = v[r - 1] = 1
    simples.append(v)
    matrix = [[simples[col][row] for col in range(r)] for row in range(r)]

    roots = []
    for i in range(r):
        for j in range(i + 1, r):
            for sign in (-1, 1):
                vec = [0] * r
                vec[i], vec[j] = 1, sign
                coeffs = _solve_exact(matrix, vec)
                assert all(c.denominator == 1 and c >= 0 for c in coeffs)
                roots.append(tuple(int(c) for c in coeffs))

    perm = bourbaki_permutation(r)
    relabeled = set()
    for root in roots:
        relabeled.add(tuple(root[perm[node] - 1] for node in range(r)))
    return relabeled


@pytest.mark.parametrize("r", range(2, 9))
def test_positive_root_count(r):
    rs = build_root_system(r)
    assert len(rs.positive_roots) == r * (r - 1)
    assert len(set(rs.positive_roots)) == r * (r - 1)


@pytest.mark.parametrize("r", range(2, 7))
def test_roots_match_coordinate_model(r):
    rs = build_root_system(r)
    assert set(rs.positive_roots) == _positive_roots_from_coordinates(r)


def test_rank2_roots_are_the_two_simples():
    rs = build_root_system(2)
    assert rs.positive_roots == ((0, 1), (1, 0))


@pytest.mark.parametrize("r", range(3, 9))
def test_height_range(r):
    rs = build_root_system(r)
    heights = [sum(root) for root in rs.positive_roots]
    assert max(heights) == 2 * r - 3
    assert set(heights) == set(range(1, 2 * r - 2))


def test_simple_roots_are_unit_vectors():
    rs = build_root_system(5)
    units = {tuple(1 if k == i else 0 for k in range(5)) for i in range(5)}
    assert units <= set(rs.positive_roots)


def test_cartan_matches_fork_first_diagram():
    rs = build_root_system(6)
    cartan = rs.cartan
    for i in range(6):
        assert cartan[i][i] == 2
    neighbors = {
        frozenset((a, b))
        for a in range(1, 7)
        for b in range(1, 7)
        if a != b and cartan[a - 1][b - 1] == -1
    }
    assert neighbors == {
        frozenset((1, 3)),
        frozenset((2, 3)),
        frozenset((3, 4)),
        frozenset((4, 5)),
        frozenset((5, 6)),
    }


def test_highest_root_d4():
    rs = build_root_system(4)
    top = max(rs.positive_roots, key=sum)
    assert top == (1, 1, 2, 1)
    assert sum(top) == 5


def test_bourbaki_permutation_preserves_adjacency():
    for r in range(3, 8):
        perm = bourbaki_permutation(r)
        assert sorted(perm) == list(range(1, r + 1))
        fork_first_edges = {(1, 3), (2, 3)} | {(j, j + 1) for j in range(3, r)}
        bourbaki_edges = {frozenset((i, i + 1)) for i in range(1, r - 1)}
        bourbaki_edges.add(frozenset((r - 2, r)))
        mapped = {frozenset((perm[a - 1], perm[b - 1])) for a, b in fork_first_edges}
        assert mapped == bourbaki_edges


def test_rejects_rank_below_two():
    with pytest.raises(ValueError):
        build_root_system(1)


class TestHighestWeight:
    def test_twist_roundtrip(self):
        hw = HighestWeight.from_twist((0, 1, 2, 0))
        assert hw.m == (1, 2, 3, 1)
        assert hw.twist == (0, 1, 2, 0)

    def test_rejects_zero_coefficient(self):
        with pytest.raises(ValueError):
            HighestWeight((1, 0, 1))

    def test_rejects_negative_twist(self):
        with pytest.raises(ValueError):
            HighestWeight.from_twist((0, -1))

    @pytest.mark.parametrize("bad", [1.5, float("inf"), float("nan"), None, "2"])
    def test_non_integral_coefficient_raises_value_error(self, bad):
        with pytest.raises(ValueError):
            HighestWeight((1, bad))

    @pytest.mark.parametrize("bad", [1.5, float("inf"), float("nan"), None, "1"])
    def test_non_integral_twist_raises_value_error_not_truncated(self, bad):
        with pytest.raises(ValueError):
            HighestWeight.from_twist((bad, 0))

    def test_integral_floats_are_stored_as_ints(self):
        for hw in (HighestWeight((2.0, 1)), HighestWeight.from_twist((1.0, 0))):
            assert hw.m == (2, 1)
            assert all(type(mk) is int for mk in hw.m)


class TestWeylDimension:
    def test_d4_minimal_twist(self):
        rs = build_root_system(4)
        assert weyl_dimension(rs, HighestWeight((1, 1, 1, 1))) == 4096

    def test_d3_minimal_twist(self):
        rs = build_root_system(3)
        assert weyl_dimension(rs, HighestWeight((1, 1, 1))) == 64

    def test_d2_product_formula(self):
        rs = build_root_system(2)
        assert weyl_dimension(rs, HighestWeight((2, 3))) == 12

    @pytest.mark.parametrize("r", range(2, 7))
    def test_minimal_twist_power_of_two(self, r):
        rs = build_root_system(r)
        assert weyl_dimension(rs, HighestWeight((1,) * r)) == 2 ** (r * (r - 1))

    def test_rank_mismatch(self):
        with pytest.raises(ValueError):
            weyl_dimension(build_root_system(3), HighestWeight((1, 1)))


class TestTokuyamaProduct:
    def test_d2_expansion(self):
        part = tokuyama_product(build_root_system(2))
        one = RingElem.one(1)
        assert part.coefficients == {
            (0, 0): one,
            (1, 0): -one,
            (0, 1): -one,
            (1, 1): one,
        }

    def test_d4_support_size(self):
        part = tokuyama_product(build_root_system(4))
        assert len(part.coefficients) == 601

    def test_constant_term_is_one(self):
        for r in (2, 3, 4):
            part = tokuyama_product(build_root_system(r))
            assert part.coefficient_at((0,) * r) == RingElem.one(1)

    def test_evaluation_at_p_equal_one(self):
        # Independent expansion of prod (1 - x^alpha) with integer coefficients.
        rs = build_root_system(3)
        expected = {(0, 0, 0): 1}
        for root in rs.positive_roots:
            updated = dict(expected)
            for lam, c in expected.items():
                shifted = tuple(a + b for a, b in zip(lam, root))
                updated[shifted] = updated.get(shifted, 0) - c
                if updated[shifted] == 0:
                    del updated[shifted]
            expected = updated
        part = tokuyama_product(rs)
        evaluated = {
            lam: value.evaluate(1) for lam, value in part.coefficients.items()
        }
        evaluated = {lam: v for lam, v in evaluated.items() if v != 0}
        assert evaluated == expected
