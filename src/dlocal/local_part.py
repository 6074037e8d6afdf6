"""Standard contributions and assembly of the local part N(x; l).

Every entry y of a strict pattern gets a standard contribution depending
on n and on whether its vertex is circled:

    y > 0 uncircled: 1 - 1/p when n divides y, else 0
    y > 0 circled:   g_k / p with k = y mod n  (g_0 = -1)
    y = 0 uncircled: 1
    y = 0 circled:   never reached (strictness removes these patterns)

Within a component only one distinguished vertex counts.  In the paper's
rule it is the rightmost vertex y of an ordinary component and the
endpoint of the shorter leg of an asymmetric multiple leaner; a symmetric
multiple leaner of length l contributes sigma(y)(1 - p^-l) when its
rightmost vertex y is uncircled and sigma(y) sigma(upsilon) p^-(l-1) when
it is circled, upsilon being the vertex just left of y.  Zero-valued
components contribute 1.  ``component_rule`` codes the rule only as far
as strict patterns reach it.

A pattern of weight lambda contributes p^|lambda| times the product of its
component contributions, and the coefficient a_lambda of the local part is
the sum over strict patterns of weight lambda.  |lambda| is the sum of the
entries and components never cross rows, so this splits into row factors:
p^(sum of the row) times the row's component contributions.  ``row_term``
is the only code that forms a row factor; the assembly and
``pattern_contribution`` (which ``explain`` prints) both multiply its
factors.  It looks the row's shape up once, asks
``decoration._circled_probes`` whether the row is strict, and reads the
value of each component of the shape from the row.  It is memoized per
(rank, row index, row values, circled positions, n), so the rule runs
once per distinct row.

A row's fills and its term depend only on the row and the state above
it, so the assembly never visits a single pattern: ``_extend`` is the push
of ``pattern._state_walk``.  A target weight only narrows the fills, so a
single coefficient and the full local part run the same code; a query's
fills come from ``_strict_bucket``, which keeps a shared bucket's strict
fills with their factors.  The row terms, buckets, sigma values and small
p-powers are cached and shared; nothing mutates a RingElem or a term dict
once formed, so sharing is safe.
"""

from __future__ import annotations

from functools import lru_cache, partial
from typing import Optional

from .coeff_ring import RingElem, _degree, _mul_add, gauss_symbol
from .decoration import (
    ML_ASYMMETRIC,
    ML_SYMMETRIC,
    ORDINARY,
    Component,
    _circled_probes,
    _row_shape,
    _strictness_failure,
)
from .pattern import (
    LittelmannPattern,
    Position,
    _below,
    _check_args,
    _row_bucket,
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
        return self.coefficients.get(key, RingElem.zero(self.n))

    def support(self) -> list[tuple[int, ...]]:
        return sorted(self.coefficients)

    def to_json_str(self) -> str:
        """Compact JSON text, written one coefficient at a time.

        The text is what ``json.dumps`` gives, with separators (",", ":"),
        for {"rank", "n", "twist", "coefficients": [{"lambda", "value"}, ...]}
        with the coefficients in support order and each value in
        ``RingElem.to_json_obj`` form; the object tree of the whole part
        is never built.
        """
        coeffs = ",".join(
            f'{{"lambda":[{",".join(map(str, lam))}],'
            f'"value":{self.coefficients[lam].to_json_str()}}}'
            for lam in self.support()
        )
        return (
            f'{{"rank":{self.rank},"n":{self.n},"twist":[{",".join(map(str, self.twist))}],'
            f'"coefficients":[{coeffs}]}}'
        )


@lru_cache(maxsize=None)
def _one(n: int) -> RingElem:
    return RingElem.one(n)


@lru_cache(maxsize=None)
def _p_pow(e: int, n: int) -> RingElem:
    return RingElem.p_power(e, n)


@lru_cache(maxsize=None)
def sigma_entry(value: int, circled: bool, n: int) -> RingElem:
    """Standard contribution of a single entry."""
    n, y = _degree(n), _at_least(value, 0, "entry value")
    if y == 0:
        if circled:
            raise ValueError("circled zero reached sigma; strictness must filter it")
        return _one(n)
    if circled:
        return gauss_symbol(y, n) * _p_pow(-1, n)
    if y % n == 0:
        return _one(n) - _p_pow(-1, n)
    return RingElem.zero(n)


def component_rule(comp: Component, value: int, circled, n: int) -> tuple[RingElem, str]:
    """Standard contribution of a component of entries ``value``, and its rule's name.

    No strict pattern circles an asymmetric leaner's shorter-leg endpoint,
    or a symmetric leaner's upsilon beside its circled rightmost vertex, so
    neither is read: an asymmetric leaner gives sigma(y) uncircled, and
    upsilon counts as uncircled.  ``tests/test_unreached_rules.py`` counts
    the strict patterns in either case and asserts 0, in tier-1 on D4
    {0,1,2}^4 and D5 {0,1}^5, and in CI also on D5 (2,2,2,2,2), (2,0,1,2,1),
    (0,2,2,1,0), D6 (0)^6, (1,0,1,0,1,0), (2,1,0,1,2,0), (1,1,0,0,0,0) and
    D7 (0)^7.  No proof from the bounds is known, so beyond those grids the
    shorter rule rests on that observation.
    """
    if value == 0:
        return _one(n), "zero component -> 1"
    if comp.kind == ORDINARY:
        circ = comp.rightmost in circled
        factor = sigma_entry(value, circ, n)
        if circ:
            return factor, "rightmost circled -> g/p"
        if value % n == 0:
            return factor, "rightmost uncircled, n | value -> 1 - 1/p"
        return factor, "rightmost uncircled, n does not divide value -> 0"
    if comp.kind == ML_ASYMMETRIC:
        return sigma_entry(value, False, n), "asymmetric leaner -> sigma(y) uncircled"
    if comp.kind == ML_SYMMETRIC:
        if comp.rightmost in circled:
            factor = (
                sigma_entry(value, True, n)
                * sigma_entry(value, False, n)
                * _p_pow(-(comp.length - 1), n)
            )
            return factor, (
                f"symmetric leaner of length {comp.length}, rightmost circled -> "
                "sigma(y) sigma(upsilon) / p^(length-1)"
            )
        factor = sigma_entry(value, False, n) * (_one(n) - _p_pow(-comp.length, n))
        return factor, (
            f"symmetric leaner of length {comp.length}, rightmost uncircled -> "
            "sigma(y) (1 - 1/p^length)"
        )
    raise ValueError(f"unclassified component kind {comp.kind!r}")


@lru_cache(maxsize=None)
def row_term(
    rank: int, i: int, row: tuple[int, ...], crit: tuple[Position, ...], n: int
) -> Optional[RingElem]:
    """Factor of row i with the positions in ``crit`` circled.

    The factor is p^(sum of the row) times the product of the row's
    component contributions, or None when a circled position is a
    strictness probe: the row makes the pattern nonstrict.
    """
    components, edges = _row_shape(rank, i, row)
    if _circled_probes(edges, i, row, crit):
        return None
    unit = _one(n)
    factor = _p_pow(sum(row), n)
    for comp in components:
        value = component_rule(comp, row[comp.columns[0] - i], crit, n)[0]
        if value.is_zero:
            return value
        if value is not unit:
            factor = factor * value
    return factor


def pattern_contribution(T: LittelmannPattern, hw: HighestWeight, n: int) -> RingElem:
    """Product of T's row factors: p^|lambda(T)| times its component factors.

    Rejects patterns that are not strict (their contribution is excluded
    from the local part, not zero).
    """
    circled = critical_positions(T, hw)
    failure = _strictness_failure(T, circled)
    if failure is not None:
        raise ValueError(f"nonstrict pattern: {failure}")
    value = _one(n)
    for i, row in enumerate(T.rows, start=1):
        crit = tuple(sorted(pos for pos in circled if pos[0] == i))
        value = value * row_term(T.rank, i, row, crit, n)
    return value


def _factor_terms(r, n, i, row, crit):
    """The terms of row i's factor, empty or None when the fill adds nothing."""
    factor = row_term(r, i, row, crit, n)
    return None if factor is None else factor.terms


@lru_cache(maxsize=None)
def _strict_bucket(n, r, i, bases, top_base, bot_base, first):
    """``pattern._row_bucket`` kept to its strict, nonzero fills, with factors.

    The entries are (adds, (row, factor terms)): a query's ``_row_fills``
    filters them by its caps and ``_extend`` reads the factors, so
    ``row_term`` runs once per entry, when the bucket is built, not once
    per fill of each query.  Only this bucket is kept: the whole one is
    built uncached, so the fills no query can use are dropped once read.
    """
    return tuple(
        (adds, (row, terms))
        for adds, (row, crit) in _row_bucket.__wrapped__(r, i, bases, top_base, bot_base, first)
        if (terms := _factor_terms(r, n, i, row, crit))
    )


def _extend_fills(r, n, i, fills, moves, below):
    """``_extend`` along the strict, nonzero (row, crit) fills of row i."""
    kept = [(row, terms) for row, crit in fills if (terms := _factor_terms(r, n, i, row, crit))]
    _extend(i, kept, moves, below)


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
    rs: RootSystemD,
    hw: HighestWeight,
    n: int,
    weight=None,
    jobs: int = 0,
) -> LocalPart:
    """Assemble the local part: the sum over strict patterns, state by state.

    ``weight`` restricts the computation to a single coefficient; the
    state sums are ``_state_walk`` with ``_extend`` as its push (through
    ``_extend_fills`` without a target, through ``_strict_bucket`` with
    one), and the weight of a sum is (T1, T2, S(r-2), ..., S(1)).  ``jobs`` changes
    nothing; it is kept, and checked as an integer >= 0, only because
    ``bench/child.py`` and ``bench/check_bench.py`` pass it.
    """
    n = _degree(n)
    _at_least(jobs, 0, "jobs")
    lam = _check_args(rs, hw, weight)
    r = rs.rank
    unit = _one(n).terms
    push = partial(_extend_fills, r, n) if lam is None else _extend
    pushed = _state_walk(r, hw.m, lam, [([((), unit)], unit)], push, partial(_strict_bucket, n))
    coeffs = {}
    for (_, t1, t2), value in pushed.items():
        for key, terms in _sums(value).items():
            if terms:
                coeffs[(t1, t2) + key[:0:-1]] = RingElem._wrap(n, terms)
    return LocalPart(rank=r, n=n, twist=hw.twist, coefficients=coeffs)
