"""Root data for the even orthogonal Lie algebras, fork-first node labeling.

The Dynkin diagram of D_r is labeled with the fork first: node 1 is the
upper prong, node 2 the lower prong, node 3 the elbow where the prongs
meet, and nodes 4..r continue leftward along the chain.  This is not the
Bourbaki order (which starts at the far end of the chain); use
``bourbaki_permutation`` to translate when comparing against standard
tables.

Roots are stored as integer coefficient vectors over the simple roots in
this labeling, so the simple roots are the r unit vectors and the height
d(alpha) of a root is the sum of its coefficients.  For r = 2 the diagram
degenerates to two disconnected nodes (A1 x A1).
"""

from __future__ import annotations

from typing import NamedTuple


def _int(value):
    """``value`` as an int when it is integral, else None; nothing is truncated.

    Integral floats and other integral numbers give ints.  A value that
    ``int`` cannot take (None, an infinite or NaN float, a string) is not
    integral either, so every caller can turn each bad value into one
    ValueError.
    """
    try:
        as_int = int(value)
    except (TypeError, ValueError, OverflowError):
        return None
    return as_int if as_int == value else None


def _at_least(value, low: int, name: str) -> int:
    """``value`` as an int >= ``low``; anything else raises ValueError.

    The one check of a scalar integer argument: a rank, a cover degree, a
    twist, an index, a grid bound or a job count.
    """
    as_int = _int(value)
    if as_int is None or as_int < low:
        raise ValueError(f"{name} must be an integer >= {low}, got {value!r}")
    return as_int


class RootSystemD(NamedTuple):
    """Positive roots of D_r, each a coefficient vector over the simple roots.

    ``positive_roots`` is sorted by (height, lexicographic), which fixes the
    order of every downstream product and listing.
    """

    rank: int
    positive_roots: tuple[tuple[int, ...], ...]
    cartan: tuple[tuple[int, ...], ...]


class _Record:
    """Base of the record classes: fields in ``__slots__``, set in ``__init__``.

    Instances of one class compare, print and pickle by their field values,
    as a dataclass would.  A mutable record is unhashable.
    """

    __slots__ = ()

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    __hash__ = None

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__name__}({fields})"

    def __reduce__(self):
        return type(self), self._values()


class _Frozen(_Record):
    """An immutable, hashable record; ``__init__`` sets it with ``object.__setattr__``."""

    __slots__ = ()

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __hash__(self):
        return hash(self._values())


class HighestWeight(_Frozen):
    """A strictly dominant weight, stored through its coefficients m_k >= 1.

    The twist vector l with l_i = m_i - 1 determines and is determined by m.
    """

    __slots__ = ("m",)

    def __init__(self, m):
        m = tuple(m)
        ints = tuple(map(_int, m))
        if not ints:
            raise ValueError("empty highest weight")
        if None in ints or min(ints) < 1:
            raise ValueError(f"all m_k must be integers >= 1, got {m}")
        object.__setattr__(self, "m", ints)

    @classmethod
    def from_twist(cls, twist) -> "HighestWeight":
        twist = tuple(twist)
        ints = tuple(map(_int, twist))
        if None in ints or any(l < 0 for l in ints):
            raise ValueError(f"twist entries must be integers >= 0, got {twist}")
        return cls(tuple(l + 1 for l in ints))

    @property
    def rank(self) -> int:
        return len(self.m)

    @property
    def twist(self) -> tuple[int, ...]:
        return tuple(mk - 1 for mk in self.m)


def _adjacency(r: int) -> set[frozenset[int]]:
    # Nodes 1 and 2 attach only to the elbow node 3; the chain is 3-4-...-r.
    edges: set[frozenset[int]] = set()
    if r >= 3:
        edges.add(frozenset((1, 3)))
        edges.add(frozenset((2, 3)))
        for j in range(3, r):
            edges.add(frozenset((j, j + 1)))
    return edges


def build_root_system(r: int) -> RootSystemD:
    """Construct the positive roots of D_r by reflection closure.

    Starting from the simple roots, apply all simple reflections until the
    orbit is closed, then keep the vectors with nonnegative coefficients.
    """
    r = _at_least(r, 2, "rank")
    edges = _adjacency(r)
    cartan = tuple(
        tuple(
            2 if i == j else (-1 if frozenset((i + 1, j + 1)) in edges else 0)
            for j in range(r)
        )
        for i in range(r)
    )

    simples = [tuple(1 if k == i else 0 for k in range(r)) for i in range(r)]
    roots: set[tuple[int, ...]] = set(simples)
    frontier = list(simples)
    while frontier:
        root = frontier.pop()
        for i in range(r):
            pairing = sum(cartan[i][j] * root[j] for j in range(r))
            new = list(root)
            new[i] -= pairing
            refl = tuple(new)
            if refl not in roots:
                roots.add(refl)
                frontier.append(refl)

    positive = sorted(
        (root for root in roots if all(k >= 0 for k in root)),
        key=lambda root: (sum(root), root),
    )
    assert len(positive) == r * (r - 1), "positive root count must be r(r-1)"
    return RootSystemD(rank=r, positive_roots=tuple(positive), cartan=cartan)


def bourbaki_permutation(r: int) -> tuple[int, ...]:
    """Map each fork-first node label to its Bourbaki label.

    Entry i-1 is the Bourbaki label of node i.  Bourbaki puts the chain
    first (1 at the far end) and the prongs last (r-1, r); our node 1 maps
    to r-1, node 2 to r, and node j >= 3 to r+1-j.  For r = 2 both
    labelings are the two-node pair, returned unchanged.
    """
    r = _at_least(r, 2, "rank")
    if r == 2:
        return (1, 2)
    return (r - 1, r) + tuple(r + 1 - j for j in range(3, r + 1))


def weyl_dimension(rs: RootSystemD, hw: HighestWeight) -> int:
    """Dimension of the irreducible module with highest weight hw.

    Product over positive roots of <theta+rho, alpha_check>/<rho, alpha_check>,
    evaluated with exact integers; the division is asserted exact.
    """
    if hw.rank != rs.rank:
        raise ValueError(f"rank mismatch: root system {rs.rank}, weight {hw.rank}")
    num = 1
    den = 1
    for root in rs.positive_roots:
        num *= sum((mk + 1) * k for mk, k in zip(hw.m, root))
        den *= sum(root)
    assert num % den == 0, "Weyl dimension must be an integer"
    return num // den

