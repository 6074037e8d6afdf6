"""Standard contributions and assembly of the local part N(x; l).

Every entry y > 0 of a strict pattern gets a standard contribution
sigma(y): 1 - 1/p when its vertex is uncircled and n divides y, 0 when it
is uncircled otherwise, and g_k / p with k = y mod n (g_0 = -1) when it is
circled.  sigma(0) = 1; strictness removes the patterns that circle a 0.

Within a component only one distinguished vertex counts.  In the paper's
rule it is the rightmost vertex y of an ordinary component and the
endpoint of the shorter leg of an asymmetric multiple leaner; a symmetric
multiple leaner of length l contributes sigma(y)(1 - p^-l) when its
rightmost vertex y is uncircled and sigma(y) sigma(upsilon) p^-(l-1) when
it is circled, upsilon being the vertex just left of y.  Zero-valued
components contribute 1.  ``_reading`` codes the rule, only as far as
strict patterns reach it (see ``component_rule``).

A pattern of weight lambda contributes p^|lambda| times the product of its
component contributions, and the coefficient a_lambda of the local part is
the sum over strict patterns of weight lambda.  |lambda| is the sum of the
entries and components never cross rows, so this splits into row factors:
p^(sum of the row) times the row's component contributions.  ``row_term``
is the only code that forms a row factor; the assembly and
``pattern_contribution`` (which ``explain`` prints) both multiply its
factors.  It forms one without ring products, from the row's shape and
probes (``decoration._row_probes``): 0 when a component reads sigma(y)
uncircled with n not dividing y, else one signed g-monomial (the circled
vertices' g_k) times a p-power times the cached (1 - 1/p)^a prod(1 - p^-l),
as the components' readings (``_reading``) give them.  It is memoized per
(rank, row index, row values, circled positions, n), so the rule runs
once per distinct row.

A row's fills and its term depend only on the row and the state above
it, so the assembly never visits a single pattern: ``_extend`` is the push
of ``pattern._state_walk``, and ``_strict_fills`` its filter, which keeps
the strict fills with nonzero factors.  A target weight only narrows the
fills, so a single coefficient and the full local part run the same code;
a query's kept fills are one slice of a bucket of ``pattern._row_bucket``,
the one cache of buckets, which a query fills a slice at a time and two
queries that meet one group of bounds fill whole.  The row terms,
buckets and Laurent polynomials are cached and shared; a bucket gains
slices, but nothing mutates a slice, a RingElem, a term dict or a
polynomial once formed, so sharing is safe.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Optional

from .coeff_ring import RingElem, _degree, _mul_add, _unit_terms
from .decoration import (
    ML_ASYMMETRIC,
    ML_SYMMETRIC,
    ORDINARY,
    Component,
    _row_probes,
    _strictness_failure,
)
from .pattern import (
    LittelmannPattern,
    Position,
    _below,
    _check_args,
    _state_walk,
    critical_positions,
)
from .root_data import HighestWeight, RootSystemD, _at_least, _Record, _int


class LocalPart(_Record):
    """Finite map from weight vectors to exact coefficients a_lambda."""

    __slots__ = ("rank", "n", "twist", "coefficients")

    def __init__(self, rank: int, n: int, twist: tuple[int, ...], coefficients=None):
        self.rank = rank
        self.n = n
        self.twist = twist
        self.coefficients = {} if coefficients is None else coefficients

    def coefficient_at(self, lam) -> RingElem:
        lam = tuple(lam)
        key = tuple(map(_int, lam))
        if len(key) != self.rank:
            raise ValueError(f"weight must have {self.rank} entries, got {len(key)}")
        if None in key:
            raise ValueError(f"weight entries must be integers, got {lam}")
        return self.coefficients.get(key) or RingElem.zero(self.n)

    def support(self) -> list[tuple[int, ...]]:
        return sorted(self.coefficients)

    def to_json_str(self) -> str:
        """Compact JSON text, produced in pieces, one coefficient each.

        The text is what ``json.dumps`` gives, with separators (",", ":"),
        for {"rank", "n", "twist", "coefficients": [{"lambda", "value"}, ...]}
        with the coefficients in support order and each value in
        ``RingElem.to_json_obj`` form.  The CLI writes the pieces as they
        come, holding neither the whole part's object tree nor its text.
        """
        return "".join(self._json_pieces())

    def _json_pieces(self):
        twist = ",".join(map(str, self.twist))
        yield f'{{"rank":{self.rank},"n":{self.n},"twist":[{twist}],"coefficients":['
        for i, lam in enumerate(self.support()):
            value = self.coefficients[lam].to_json_str()
            yield f'{"," if i else ""}{{"lambda":[{",".join(map(str, lam))}],"value":{value}}}'
        yield "]}"


def _reading(kind: str, length, value: int, circ: bool, n: int):
    """(reading, rule tag) of a component of ``kind``, ``length`` and entries ``value``.

    ``circ`` tells whether its rightmost vertex is circled.  The reading is
    None for a contribution 0, else (k, shift, a, l) for g_k p^shift
    (1 - 1/p)^a (1 - p^-l), with no g when k is None, no last factor when l is 0.
    """
    if value == 0:
        return (None, 0, 0, 0), "zero component -> 1"
    if kind == ORDINARY and circ:
        return (value, -1, 0, 0), "rightmost circled -> g/p"
    sigma = (None, 0, 1, 0) if value % n == 0 else None  # sigma(y) uncircled, or 0
    if kind == ORDINARY:
        tag = "n | value -> 1 - 1/p" if sigma else "n does not divide value -> 0"
        return sigma, "rightmost uncircled, " + tag
    if kind == ML_ASYMMETRIC:
        return sigma, "asymmetric leaner -> sigma(y) uncircled"
    if kind != ML_SYMMETRIC:
        raise ValueError(f"unclassified component kind {kind!r}")
    lean = f"symmetric leaner of length {length}, rightmost "
    if circ:
        tag = lean + "circled -> sigma(y) sigma(upsilon) / p^(length-1)"
        return sigma and (value, -length, 1, 0), tag
    return sigma and (None, 0, 1, length), lean + "uncircled -> sigma(y) (1 - 1/p^length)"


@lru_cache(maxsize=None)
def _laurent(a: int, ls: tuple[int, ...]) -> dict[int, int]:
    """(1 - 1/p)^a times the (1 - p^-l) over ``ls``: {p exponent: coefficient}, shared."""
    poly = {0: 1}
    for l in (1,) * a + ls:
        out = dict(poly)
        for e, c in poly.items():
            out[e - l] = out.get(e - l, 0) - c
        poly = {e: c for e, c in out.items() if c}
    return poly


def _combine(n: int, readings, shift: int = 0) -> RingElem:
    """p^shift times the contributions ``readings``: a signed g-monomial times ``_laurent``."""
    if None in readings:
        return RingElem._wrap(n, {})
    g, a, ls = [0] * n, 0, []  # g[0] counts the factors g_0 = -1
    for k, s, da, l in readings:
        if k is not None:
            g[k % n] += 1
        shift, a = shift + s, a + da
        if l:
            ls.append(l)
    sign = -1 if g[0] % 2 else 1
    poly = {shift + e: sign * c for e, c in _laurent(a, tuple(sorted(ls))).items()}
    return RingElem._wrap(n, {tuple(g[1:]): poly})


def sigma_entry(value: int, circled: bool, n: int) -> RingElem:
    """Standard contribution of a single entry: an ordinary component's rule."""
    n, y = _degree(n), _at_least(value, 0, "entry value")
    if y == 0 and circled:
        raise ValueError("circled zero reached sigma; strictness must filter it")
    return _combine(n, [_reading(ORDINARY, None, y, circled, n)[0]])


def component_rule(comp: Component, value: int, circled, n: int) -> tuple[RingElem, str]:
    """Standard contribution of a component of entries ``value``, and its rule's name.

    The contribution is ``_combine`` of the component's ``_reading``, the
    reading that ``row_term`` combines over a row, so it is formed without
    ring products.  No strict pattern circles an asymmetric leaner's
    shorter-leg endpoint, or a symmetric leaner's upsilon beside its
    circled rightmost vertex, so neither is read: an asymmetric leaner
    gives sigma(y) uncircled, and upsilon counts as uncircled.
    ``tests/test_unreached_rules.py`` finds 0 strict patterns in either
    case on its grids (up to D7 in CI); no proof from the bounds is known.
    """
    n = _degree(n)
    reading, tag = _reading(comp.kind, comp.length, value, comp.rightmost in circled, n)
    return _combine(n, [reading]), tag


@lru_cache(maxsize=None)
def row_term(
    rank: int, i: int, row: tuple[int, ...], crit: tuple[Position, ...], n: int
) -> Optional[RingElem]:
    """Factor of row i with the positions in ``crit`` circled.

    The factor is p^(sum of the row) times the product of the row's
    component contributions, or None when a circled position is a
    strictness probe: the row makes the pattern nonstrict.  It is 0 when a
    component reads 0, and otherwise ``_combine`` of the readings.
    """
    components, probes = _row_probes(rank, i, row)
    if not probes.isdisjoint(crit):
        return None
    return _combine(n, [
        _reading(c.kind, c.length, row[c.columns[0] - i], c.rightmost in crit, n)[0]
        for c in components
    ], sum(row))


def pattern_contribution(T: LittelmannPattern, hw: HighestWeight, n: int) -> RingElem:
    """Product of T's row factors: p^|lambda(T)| times its component factors.

    Rejects patterns that are not strict (their contribution is excluded
    from the local part, not zero).
    """
    circled = critical_positions(T, hw)
    failure = _strictness_failure(T, circled)
    if failure is not None:
        raise ValueError(f"nonstrict pattern: {failure}")
    value = RingElem.one(n)
    for i, row in enumerate(T.rows, start=1):
        crit = tuple(sorted(pos for pos in circled if pos[0] == i))
        value = value * row_term(T.rank, i, row, crit, n)
    return value


@lru_cache(maxsize=None)
def _strict_fills(n):
    """The keep-filter of ``local_part`` at cover degree n, one object per n.

    It keeps the (row, crit) fills of row i that are strict with a nonzero
    factor, as (row, factor terms).  ``pattern._row_bucket`` keys its
    buckets by the filter, so queries at one n share them, and ``row_term``
    runs once per fill of a bucket, when its slice, or its whole group, is
    filled.
    """
    def keep(r, i, fills):
        return [(row, f.terms) for row, crit in fills if (f := row_term(r, i, row, crit, n)) and f.terms]
    return keep


def _extend(i, kept, moves, below):
    """Push each state's sums along ``kept``, (row, factor terms) of row i.

    Nonstrict and zero-factor fills are never kept.  With none kept the
    group's sums are never formed (half the states of a single-coefficient
    query end so); else each state's sums, S[0] appended to each key, go
    with each fill's factor to the state the fill leads to.
    """
    if not kept:
        return
    for (S, t1, t2), pushed in moves:
        items = [(key + (S[0],), terms) for key, terms in _sums(pushed).items() if terms]
        for state, (_, factor) in zip(_below(S, t1, t2, kept), kept):
            below.setdefault(state, []).append((items, factor))


def _sums(pushed):
    """A state's {finished column sums: terms} from the (items, factor) pushed in.

    A key lists the column sums that left the walk above the state, S(0) = 0
    first; its terms, built privately by the ring's multiply-add kernel, sum
    the rows' factor products.  Callers drop entries that cancelled.
    """
    value: dict = {}
    for items, factor in pushed:
        for key, terms in items:
            out = value.get(key)
            if out is None:
                out = value[key] = {}
            _mul_add(out, terms, factor)
    return value


def local_part(
    rs: RootSystemD, hw: HighestWeight, n: int, weight=None, jobs: int = 0
) -> LocalPart:
    """Assemble the local part: the sum over strict patterns, state by state.

    ``weight`` restricts the computation to a single coefficient; the
    state sums are ``_state_walk`` with ``_extend`` as its push and
    ``_strict_fills(n)`` as its filter, with or without a target, and the
    weight of a sum is (T1, T2, S(r-2), ..., S(1)).  ``jobs`` changes
    nothing; it is kept, and checked as an integer >= 0, only because
    ``bench/child.py`` and ``bench/check_bench.py`` pass it.
    """
    n = _degree(n)
    _at_least(jobs, 0, "jobs")
    lam = _check_args(rs, hw, weight)
    r = rs.rank
    unit = _unit_terms(n)
    pushed = _state_walk(r, hw.m, lam, [([((), unit)], unit)], _extend, _strict_fills(n))
    coeffs = {}
    for (_, t1, t2), value in pushed.items():
        for key, terms in _sums(value).items():
            if terms:
                coeffs[(t1, t2) + key[:0:-1]] = RingElem._wrap(n, terms)
    return LocalPart(rank=r, n=n, twist=hw.twist, coefficients=coeffs)
