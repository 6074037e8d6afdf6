"""Reference values for the benchmark, computed without importing dlocal.

Roots are written over the simple roots in dlocal's fork-first labeling:
node 1 is the upper prong, node 2 the lower prong, node 3 the elbow, and
nodes 4..r continue along the chain.  The positive roots come from the
orthonormal description e_i - e_j, e_i + e_j (i < j) of D_r, not from a
reflection closure, so they check the program's root data rather than
repeat it.

Laurent polynomials in p are dicts {exponent: coefficient}; a ring value
of dlocal is compared through ``ring_value``, which reads the documented
JSON form of a coefficient.
"""

from __future__ import annotations

from math import prod

# a_(10,10,17,10) of the D4 local part with twist (0,1,2,0) at n = 2 is
# -p^36 (p^3 - 2p^2 + 2p - 1) g_1^3, the published value.
PUBLISHED_D4 = {
    "twist": (0, 1, 2, 0),
    "n": 2,
    "weight": (10, 10, 17, 10),
    "value": {(3,): {36: 1, 37: -2, 38: 2, 39: -1}},
}


def _simple_coords(v: list[int]) -> tuple[int, ...]:
    """Coordinates of a vector of the D_r lattice over the Bourbaki simple roots.

    Bourbaki: alpha_k = e_k - e_(k+1) for k < r and alpha_r = e_(r-1) + e_r.
    """
    r = len(v)
    c = [0] * (r + 1)  # c[0] stands for the absent alpha_0
    for k in range(1, r - 1):
        c[k] = v[k - 1] + c[k - 1]
    both = v[r - 2] + c[r - 2]  # c_(r-1) + c_r
    c[r] = (both + v[r - 1]) // 2
    c[r - 1] = (both - v[r - 1]) // 2
    return tuple(c[1:])


def positive_roots(r: int) -> list[tuple[int, ...]]:
    """The r(r-1) positive roots of D_r in fork-first simple-root coordinates."""
    if r < 2:
        raise ValueError(f"rank must be >= 2, got {r}")
    # Fork-first node 1, 2 are Bourbaki r-1, r; node j >= 3 is Bourbaki r+1-j.
    bourbaki_of = [r - 1, r] + [r + 1 - j for j in range(3, r + 1)]
    roots = []
    for i in range(r):
        for j in range(i + 1, r):
            for sign in (-1, 1):
                v = [0] * r
                v[i], v[j] = 1, sign
                c = _simple_coords(v)
                roots.append(tuple(c[b - 1] for b in bourbaki_of))
    return sorted(roots, key=lambda a: (sum(a), a))


def _add_poly(acc: dict[int, int], poly: dict[int, int], sign: int, shift: int) -> None:
    for e, c in poly.items():
        total = acc.get(e + shift, 0) + sign * c
        if total:
            acc[e + shift] = total
        else:
            acc.pop(e + shift, None)


def root_product(r: int) -> dict[tuple[int, ...], dict[int, int]]:
    """Expand prod over positive roots of (1 - p^(d(alpha)-1) x^alpha).

    This is the untwisted n = 1 local part of D_r; zero coefficients are
    dropped, so the keys are its support.
    """
    coeffs: dict[tuple[int, ...], dict[int, int]] = {(0,) * r: {0: 1}}
    for root in positive_roots(r):
        shift = sum(root) - 1
        out = {lam: dict(poly) for lam, poly in coeffs.items()}
        for lam, poly in coeffs.items():
            key = tuple(a + b for a, b in zip(lam, root))
            acc = out.setdefault(key, {})
            _add_poly(acc, poly, -1, shift)
            if not acc:
                del out[key]
        coeffs = out
    return coeffs


def subset_sums(r: int) -> dict[tuple[int, ...], int]:
    """Coefficients of prod over positive roots of (1 + x^alpha).

    Entry lambda counts the sets of positive roots summing to lambda; the
    benchmark uses it only to stratify its sample of weights by size.
    """
    counts: dict[tuple[int, ...], int] = {(0,) * r: 1}
    for root in positive_roots(r):
        out = dict(counts)
        for lam, c in counts.items():
            key = tuple(a + b for a, b in zip(lam, root))
            out[key] = out.get(key, 0) + c
        counts = out
    return counts


def weyl_dimension(r: int, labels) -> int:
    """Dimension of the irreducible D_r module with these Dynkin labels.

    Weyl's formula prod <theta+rho, alpha>/<rho, alpha> over positive roots;
    D_r is simply laced, so a root is its own coroot and <theta+rho, alpha>
    is the sum of (label_k + 1) times the k-th coordinate of alpha.
    """
    if len(labels) != r:
        raise ValueError(f"expected {r} labels, got {len(labels)}")
    roots = positive_roots(r)
    num = prod(sum((l + 1) * a for l, a in zip(labels, root)) for root in roots)
    den = prod(sum(root) for root in roots)
    if num % den:
        raise ArithmeticError("Weyl dimension is not an integer")
    return num // den


def ring_value(obj) -> dict[tuple[int, ...], dict[int, int]]:
    """{g-exponents: {p-exponent: coefficient}} from a ring element's JSON form."""
    out = {}
    for term in obj["terms"]:
        poly = {e: c for c, e in term["p"] if c}
        if poly:
            out[tuple(term["g"])] = poly
    return out
