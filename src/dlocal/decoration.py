"""Decorated graphs of patterns: components, leaners, and strictness.

Each entry of a pattern is a vertex.  Two vertices are joined when their
entries are consecutive and comparable in the row chain and equal; the two
middle entries of a row are never joined with each other.  Every component
therefore sits inside one row and all its vertices share one value.
Criticality circles a vertex.

A component containing a mirrored pair a_{i,j} = bar(i,j) with j outside
the two middle columns is a multiple leaner; equivalently, both of its
legs (the vertices in columns <= r-2 and >= r+1) are nonempty.  It is
symmetric exactly when the legs have the same number of vertices, and its
length is then half the vertex count.

A pattern is strict unless some circled vertex carries the value 0, or
some component that is not a symmetric multiple leaner has an edge whose
earlier endpoint (in the row-chain order) is circled.  Only symmetric
leaners are exempt: an asymmetric leaner is probed like an ordinary
component, and exempting it too breaks the n = 1 identity with the
product over positive roots from rank 5 on (first at (1,1,3,4,2) in D5).
Both kinds of vertex are the row's strictness probes, so the rule reads:
a pattern is nonstrict exactly when one of its circled vertices is a
probe.

A row's components and edge probes depend only on its shape: which
row-chain neighbours are equal, not what the entries are.  So
``_row_analysis`` memoizes them per (rank, row index, equality mask); a
component carries no value, and its callers read the shared value from
the row.  ``_row_probes`` is the one strictness test: it keeps per row
the shape's components and probes, the edge probes with the row's zero
entries, and ``local_part.row_term``, the push of ``strictness_counts``,
``_strictness_failure`` and ``component_structure`` read them there.
"""

from __future__ import annotations

from functools import lru_cache
from typing import NamedTuple, Optional

from .pattern import (
    LittelmannPattern,
    Position,
    _below,
    _check_args,
    _group_total,
    _row_chain_pairs,
    _state_walk,
)
from .root_data import HighestWeight, RootSystemD

ORDINARY = "ordinary"
ML_ASYMMETRIC = "ml_asymmetric"
ML_SYMMETRIC = "ml_symmetric"


class Component(NamedTuple):
    """One connected component of a row shape; its vertices share one value."""

    row: int
    columns: tuple[int, ...]
    kind: str
    rightmost: Position
    length: Optional[int] = None  # ml_symmetric only


def _classify(rank: int, i: int, columns: list[int]) -> Component:
    r = rank
    left = sum(1 for c in columns if c <= r - 2)
    right = sum(1 for c in columns if c >= r + 1)
    maxcol = columns[-1]

    # Both middle vertices are rightmost when a component ends at r: take the upper.
    rightmost = (i, r - 1) if maxcol == r and r - 1 in columns else (i, maxcol)

    kind, length = ORDINARY, None
    if left >= 1 and right >= 1:
        assert r - 1 in columns and r in columns, "a leaner spans both middle columns"
        kind, length = (ML_SYMMETRIC, left + 1) if left == right else (ML_ASYMMETRIC, None)
    return Component(
        row=i, columns=tuple(columns), kind=kind, rightmost=rightmost, length=length
    )


@lru_cache(maxsize=None)
def _row_analysis(
    rank: int, i: int, eq: tuple[bool, ...]
) -> tuple[tuple[Component, ...], frozenset[Position]]:
    """Shape of row i whose equality mask is ``eq``: (components, edge probes).

    ``eq`` tells, pair by pair of ``row_chain_pairs(rank, i)``, whether the
    two entries are equal.  The edge probes are the earlier endpoints of
    the equal pairs inside components that are not symmetric multiple
    leaners.
    """
    pairs = _row_chain_pairs(rank, i)
    label = {c: c for c in range(i, 2 * rank - i)}
    for (a, b), equal in zip(pairs, eq):
        if equal:
            old, new = label[b], label[a]
            label = {c: new if k == old else k for c, k in label.items()}
    groups: dict[int, list[int]] = {}
    for c, k in label.items():
        groups.setdefault(k, []).append(c)

    components = tuple(_classify(rank, i, group) for group in sorted(groups.values()))
    exempt = {c for comp in components if comp.kind == ML_SYMMETRIC for c in comp.columns}
    probes = frozenset((i, a) for (a, _), equal in zip(pairs, eq) if equal and a not in exempt)
    return components, probes


# Bounded: keeping all 38,889 distinct rows of untwisted D7 doubles its count's peak RSS.
@lru_cache(maxsize=4096)
def _row_probes(rank: int, i: int, row: tuple[int, ...]):
    """(components, probes) of row i with entries ``row``.

    A circled entry makes the pattern nonstrict exactly when it is a probe:
    an entry 0, or an edge probe of the row's shape (``_row_analysis``).
    """
    eq = tuple(row[a - i] == row[b - i] for a, b in _row_chain_pairs(rank, i))
    components, edges = _row_analysis(rank, i, eq)
    return components, edges | {(i, j) for j, v in enumerate(row, start=i) if v == 0}


def component_structure(T: LittelmannPattern) -> tuple[Component, ...]:
    """All components of the (undecorated) graph, row by row."""
    rows = enumerate(T.rows, start=1)
    return tuple(comp for i, row in rows for comp in _row_probes(T.rank, i, row)[0])


def _strictness_failure(T: LittelmannPattern, circled) -> Optional[str]:
    """Why the circled positions make T nonstrict, or None when T is strict.

    The first circled zero in row order is reported before any circled
    vertex that leans.
    """
    probes = set().union(*(_row_probes(T.rank, i, row)[1] for i, row in enumerate(T.rows, 1)))
    failing = [pos for pos in sorted(circled) if pos in probes]
    if not failing:
        return None
    i, j = min(failing, key=lambda pos: T.entry(*pos) > 0)
    if T.entry(i, j) == 0:
        return f"circled zero at row {i}, column {j}"
    return f"circled entry at row {i}, column {j} leans on its equal right neighbor"


def _add_counts(a, b):
    return a[0] + b[0], a[1] + b[1]


def strictness_counts(rs: RootSystemD, hw: HighestWeight, weight=None) -> tuple[int, int]:
    """(total, nonstrict) over the bounded patterns, optionally of one weight.

    The walk carries (total, strict) per group of states with equal bounds,
    along the fills of one of them (``pattern._group_total``).  A fill
    passes the strict count on only when it circles no probe of its row.
    """
    lam = _check_args(rs, hw, weight)
    r = rs.rank

    def push(i, fills, moves, below):
        (S, t1, t2), (total, strict) = _group_total(moves, _add_counts)
        for (row, crit), state in zip(fills, _below(S, t1, t2, fills)):
            t, s = below.get(state, (0, 0))
            below[state] = t + total, s + strict if _row_probes(r, i, row)[1].isdisjoint(crit) else s

    counts = _state_walk(r, hw.m, lam, (1, 1), push).values()
    total = sum(c[0] for c in counts)
    return total, total - sum(c[1] for c in counts)


# -- rendering ----------------------------------------------------------------


def _cell(value: int, circled: bool) -> str:
    return f"({value})" if circled else str(value)


def render_decorated(T: LittelmannPattern, circled) -> str:
    """ASCII picture of T, ``circled`` in parentheses, three text lines per row.

    The chains run along the middle line with " — " marking edges and three
    spaces otherwise; the two middle entries sit stacked above and below
    the gap between the chains, flanked by "—" marks exactly where edges
    toward column r-2 (left) and column r+1 (right) exist.
    """
    r = T.rank
    blocks = []
    for i in range(1, r):
        def cell(c):
            return _cell(T.entry(i, c), (i, c) in circled)

        def eq(a, b):
            return T.entry(i, a) == T.entry(i, b)

        def chain(columns):
            text = ""
            for idx, c in enumerate(columns):
                if idx:
                    text += " — " if eq(columns[idx - 1], c) else "   "
                text += cell(c)
            return text

        left = chain(list(range(i, r - 1)))
        right = chain(list(range(r + 1, 2 * r - i)))
        top_cell, bot_cell = cell(r - 1), cell(r)
        width = max(len(top_cell), len(bot_cell))

        def mid_line(text, col):
            lead = " — " if left and eq(r - 2, col) else "   "
            trail = " — " if right and eq(col, r + 1) else "   "
            return " " * len(left) + lead + text.center(width) + trail

        gap = " " * (width + 6)
        lines = [
            mid_line(top_cell, r - 1),
            left + gap + right,
            mid_line(bot_cell, r),
        ]
        blocks.append("\n".join(line.rstrip() for line in lines))
    return "\n".join(blocks)
