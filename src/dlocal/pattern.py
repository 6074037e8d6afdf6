"""Littelmann patterns for D_r: shape, bounds, weights, and enumeration.

A pattern is a triangular array of nonnegative integers a_{i,j} with rows
i = 1..r-1; row i holds the columns j = i..2r-1-i, so the first row has
2r-2 boxes and the last row 2.  The reflected accessor is
bar(i, j) = a_{i, 2r-1-j}; in particular bar(i, r-1) and bar(i, r) swap
the two middle columns.

Admissibility asks each row to decrease weakly left to right except that
the two middle entries a_{i,r-1}, a_{i,r} are never compared with each
other (both are <= a_{i,r-2} and >= a_{i,r+1}).

A highest weight with coefficients m_k adds one upper bound per entry.
With the cumulative column sums

    S(c, i)  = sum over k <= i of (a_{k,c} + bar(k,c))        for c <= r-2,
    Sm(i)    = sum over k <= i of (a_{k,r-1} + a_{k,r}),
    T1(i)    = sum over k <= i of a_{k,r-1},    T2(i) likewise for a_{k,r},

the bounds for row i are

    bar(i,j) <= m_{r-j+1} + [bar(i,j-1)] + S(j-1,i-1) - 2 S(j,i-1)
                + (S(j+1,i-1) if j+1 <= r-2 else Sm(i-1))          (j <= r-2)
    a_{i,j}  <= m_{r-j+1} + (S(j+1,i) if j+1 <= r-2 else Sm(i))
                - 2 (bar(i,j) + S(j,i-1)) + [bar(i,j-1)] + S(j-1,i-1)
    a_{i,r-1} <= m_2 + [bar(i,r-2)] + S(r-2,i-1) - 2 T1(i-1)
    a_{i,r}   <= m_1 + [bar(i,r-2)] + S(r-2,i-1) - 2 T2(i-1)

Boundary conventions: sums over an empty row range are 0 (so everything
with i = 1 sees zeros), S(0, .) = 0, and a bracketed in-row term [bar(i,c)]
with c < i refers to a box that does not exist in row i and is taken as 0
while the cumulative part of its column sum is kept.  An entry is critical
when it equals its own bound.  These conventions are validated by the
dimension suite: the number of bounded patterns must equal the Weyl
dimension for every tested highest weight.

The bounds are computed per row in one place: ``_row_bases`` maps the
state above row i, (S(i-1..r-2, i-1), T1(i-1), T2(i-1)), to the row's
bounds without their in-row terms.  ``_fill_row`` turns them into boxes
of steps, and ``critical_positions`` adds the in-row terms as it replays
a pattern.  A fill is just (row, crit), and ``_below`` alone steps a state
past a row: for the walk, for ``critical_positions`` and for
``weight_vector``.

Enumeration fills rows top to bottom.  Within a row each entry steps up
from its neighbour on the row chain, and the bounds put each step in a box
[0, width] whose width depends only on the row's bar and middle steps: the
bar steps bar(i, j) - bar(i, j-1) for j = i..r-2 (boxes from the right end
inward), the middle pair's excesses over bar(i, r-2), then the left steps
from column r-2 back to column i.  A row's fills are the points of these
nested boxes, so the search never backtracks over infeasible prefixes, and
an entry is critical when its step fills its box.  Row candidates are
sorted before recursing, which restores the canonical row-major
lexicographic order of the emitted patterns.

Sums over patterns never list them: ``_state_walk`` pushes values down
the states between rows one row at a time, and ``count_patterns``,
``local_part`` and ``decoration.strictness_counts`` each supply its push,
and ``local_part`` a filter of the fills (``_row_fills``).  It fills a row
once per group of states with equal bounds, and a counting push carries
the group's total along the fills of one state.  A target weight enters
only through ``_sum_limits``: a row's caps are its limits less the state,
and its fills are one slice of the one cache of buckets, which queries
share: a bucket holds the fills of one group of bounds by what they add
to the column the row closes, the one slice asked until a second column
sum is asked of it (which one target never does), and then all of them.
A group is then one state, and no state above the limits is pushed.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import accumulate, compress, product
from operator import add, eq, le, sub
from typing import Iterator

from .root_data import HighestWeight, RootSystemD, _at_least, _Frozen, _int

Position = tuple[int, int]


class LittelmannPattern(_Frozen):
    """Immutable pattern; rows[i-1][j-i] stores a_{i,j}."""

    __slots__ = ("rank", "rows")

    def __init__(self, rank: int, rows):
        r = _at_least(rank, 2, "rank")
        rows = tuple(tuple(row) for row in rows)
        if len(rows) != r - 1:
            raise ValueError(f"expected {r - 1} rows, got {len(rows)}")
        ints = []
        for i, row in enumerate(rows, start=1):
            if len(row) != 2 * (r - i):
                raise ValueError(
                    f"row {i} must have {2 * (r - i)} entries, got {len(row)}"
                )
            values = tuple(map(_int, row))
            if None in values:
                raise ValueError(f"row {i} has a non-integer entry: {row}")
            if any(v < 0 for v in values):
                raise ValueError(f"row {i} has a negative entry: {row}")
            ints.append(values)
        object.__setattr__(self, "rank", r)
        object.__setattr__(self, "rows", tuple(ints))

    @classmethod
    def _wrap(cls, rank: int, rows) -> "LittelmannPattern":
        """A pattern owning ``rows``, int tuples from the fill kernel; no checks, no copy."""
        T = object.__new__(cls)
        object.__setattr__(T, "rank", rank)
        object.__setattr__(T, "rows", rows)
        return T

    # -- access -------------------------------------------------------------

    def entry(self, i: int, j: int) -> int:
        """a_{i,j} for i <= j <= 2r-1-i."""
        return self.rows[i - 1][j - i]

    def bar(self, i: int, j: int) -> int:
        """bar(i,j) = a_{i, 2r-1-j}."""
        return self.rows[i - 1][2 * self.rank - 1 - j - i]

    def positions(self) -> Iterator[Position]:
        for i in range(1, self.rank):
            for j in range(i, 2 * self.rank - i):
                yield (i, j)

    def is_admissible(self) -> bool:
        """Every row decreases weakly along its row chain."""
        return all(
            self.entry(i, a) >= self.entry(i, b)
            for i in range(1, self.rank)
            for a, b in _row_chain_pairs(self.rank, i)
        )

    # -- serialization --------------------------------------------------------

    def to_string(self) -> str:
        return ";".join(",".join(str(v) for v in row) for row in self.rows)

    @classmethod
    def from_string(cls, text: str) -> "LittelmannPattern":
        try:
            rows = tuple(
                tuple(int(v) for v in chunk.split(",")) for chunk in text.split(";")
            )
        except ValueError as exc:
            raise ValueError(f"cannot parse pattern literal {text!r}") from exc
        return cls(rank=len(rows) + 1, rows=rows)

    def to_json_obj(self):
        return {"rank": self.rank, "rows": [list(row) for row in self.rows]}

    @classmethod
    def from_json_obj(cls, obj) -> "LittelmannPattern":
        """Read ``to_json_obj``'s form; a missing key or a value of the wrong shape raises ValueError."""
        try:
            rank, rows = obj["rank"], tuple(tuple(row) for row in obj["rows"])
        except (KeyError, TypeError) as exc:
            raise ValueError(f"malformed pattern JSON: {type(exc).__name__}: {exc}") from exc
        return cls(rank=rank, rows=rows)


# -- bounds and criticality ---------------------------------------------------


def _row_bases(r, m, i, S, t1, t2, limits=None):
    """Row i's bounds without their in-row terms, from the state above it.

    ``S[k]`` is S(i-1+k, i-1) for k = 0..r-1-i (S(0, .) = 0), ``t1``, ``t2``
    are T1(i-1), T2(i-1).  Returns (bases, top_base, bot_base, caps), the
    arguments of ``_row_fills`` after (r, i): for j = i+k <= r-2, bases[k] +
    bar(i, j-1) bounds bar(i, j), and bases[k] - 2 bar(i, j) + bar(i, j-1) +
    (a_{i,j+1} + bar(i, j+1), or the middle pair for j = r-2) bounds a_{i,j};
    top_base and bot_base plus bar(i, r-2) bound a_{i,r-1} and a_{i,r}, an
    in-row term outside row i being 0.  caps is None without ``limits``
    (row i's ``_sum_limits``), else those limits minus the state.
    """
    ext = S + (t1 + t2,)
    bases = tuple(m[r - i - k] + ext[k] - 2 * ext[k + 1] + ext[k + 2] for k in range(r - 1 - i))
    caps = None
    if limits is not None:
        cols, t1_max, t2_max = limits
        caps = tuple(map(sub, cols, S[1:])), t1_max - t1, t2_max - t2
    return bases, m[1] + S[-1] - 2 * t1, m[0] + S[-1] - 2 * t2, caps


def row_chain_pairs(rank: int, i: int) -> tuple[tuple[int, int], ...]:
    """Consecutive comparable column pairs of row i, earlier column first."""
    r, i = _at_least(rank, 2, "rank"), _at_least(i, 1, "row index")
    if i > r - 1:
        raise ValueError(f"row index must be at most {r - 1}, got {i}")
    return _row_chain_pairs(r, i)


@lru_cache(maxsize=None)
def _row_chain_pairs(r, i):
    """``row_chain_pairs`` of checked ints, cached for the strictness tests."""
    pairs = [(j, j + 1) for j in range(i, r - 2)]
    if i <= r - 2:
        pairs += [(r - 2, r - 1), (r - 2, r), (r - 1, r + 1), (r, r + 1)]
    pairs += [(j, j + 1) for j in range(r + 1, 2 * r - 1 - i)]
    return tuple(pairs)


def critical_positions(T: LittelmannPattern, hw: HighestWeight) -> frozenset[Position]:
    """Positions whose entry meets its bound.

    Replays T down its rows with the walk's own state: ``_row_bases`` of
    the state above row i bounds the row, and ``_below`` steps past it.
    Raises ValueError when a row breaks the row chain or an entry exceeds
    its bound (the first such entry in row-major order).
    """
    r = T.rank
    if hw.rank != r:
        raise ValueError(f"rank mismatch: pattern {r}, weight {hw.rank}")
    if not T.is_admissible():
        raise ValueError("pattern rows are not weakly decreasing")
    last = r - 2
    state = ((0,) * (r - 1), 0, 0)
    crit = []
    for i, row in enumerate(T.rows, start=1):
        bases, top_base, bot_base, _ = _row_bases(r, hw.m, i, *state)
        cols = range(i, last + 1)
        # bars[k] bounds bar(i, i+k), lefts[k] bounds a_{i,i+k}; bar(i, r-1)
        # is a_{i,r}, so a_{i,j+1} + bar(i, j+1) is the middle pair at j = r-2.
        bars = [bases[j - i] + (T.bar(i, j - 1) if j > i else 0) for j in cols]
        lefts = [
            bars[j - i] - 2 * T.bar(i, j) + T.entry(i, j + 1) + T.bar(i, j + 1)
            for j in cols
        ]
        mid = T.bar(i, last) if i <= last else 0  # the middle pair's in-row term
        bounds = lefts + [top_base + mid, bot_base + mid] + bars[::-1]
        for c, (value, bound) in enumerate(zip(row, bounds), start=i):
            if value > bound:
                raise ValueError(
                    f"entry {value} at row {i}, column {c} exceeds its bound {bound}"
                )
            if value == bound:
                crit.append((i, c))
        (state,) = _below(*state, ((row, ()),))
    return frozenset(crit)


def weight_vector(T: LittelmannPattern) -> tuple[int, ...]:
    """The exponent vector this pattern contributes to.

    Coordinates 1 and 2 are the column sums of the two middle columns; the
    k-th coordinate for k >= 3 is the paired sum of column r+1-k.  Column
    i ends at row i, so S(i, i), first in the state below it, is final.
    """
    S, t1, t2 = (0,) * (T.rank - 1), 0, 0
    finished = []  # S(i-1, i-1) for i = 1..r-1, S(0, 0) = 0 first
    for row in T.rows:
        finished.append(S[0])
        ((S, t1, t2),) = _below(S, t1, t2, ((row, ()),))
    return (t1, t2) + tuple(finished[:0:-1])


# -- enumeration --------------------------------------------------------------


def _every(r, i, fills):
    """The keep-filter of the counts and listings: every fill, as (row, crit)."""
    return fills


def _row_fills(r, i, bases, top_base, bot_base, caps=None, keep=_every):
    """A fresh list of ``keep(r, i, fills)`` for the valid fills of row i.

    The one place where bounds become a walk's fills: the arguments after
    (r, i) are ``_row_bases`` of a state above row i, and ``keep`` maps the
    (row, crit) fills to the items a push reads, each starting with its
    row.  Under caps a fill adds exactly cap[0] to column i (at the last
    row the middle caps) and at most the other caps: the slice of that
    column sum in the group's ``_row_bucket``, filtered by the other caps.

    The first column sum asked of a group is filled alone (``_fill_row``
    with ``first``) and stored, even when empty.  A second fills the group
    whole, in one kernel pass without ``first``, and from then on a column
    sum the group lacks has no fills.  The walk of one target never asks a
    group for two column sums, so it fills only the slices it reads: at
    row i, S(i-1, i-1) is final, so between two states with equal
    ``bases`` S(i-1+k, i-1) differs by k D for some D; equal top and
    bottom bases make T1 + T2 differ by (r-i-1) D, the last base by
    (r-i) D, so D = 0 and the two ask for the same column sum.
    """
    if caps is None:
        return keep(r, i, _fill_row(r, i, bases, top_base, bot_base))
    cap, top_cap, bot_cap = caps
    first = cap[0] if cap else (top_cap, bot_cap)
    rest = cap[1:] + (top_cap, bot_cap)
    slices = _row_bucket(keep, r, i, bases, top_base, bot_base)
    if first not in slices and len(slices) < 2:
        items = keep(r, i, _fill_row(r, i, bases, top_base, bot_base, None if slices else first))
        filled: dict = {first: []}
        for (ds, d1, d2), item in zip(_below((0,) * (r - i), 0, 0, items), items):
            filled.setdefault(ds[0] if ds else (d1, d2), []).append((ds[1:] + (d1, d2), item))
        slices.update((s, tuple(entries)) for s, entries in filled.items())
    return [item for adds, item in slices.get(first, ()) if all(map(le, adds, rest))]


@lru_cache(maxsize=None)
def _row_bucket(keep, r, i, bases, top_base, bot_base):
    """{column sum: entries} of ``keep`` for row i's group of states with these bounds.

    A column sum is what a fill adds to column i, (d1, d2) at the last row,
    and its entries are (adds, item) in fill order, adds = (ds[1..mid-1],
    d1, d2), read off by ``_below``, being what the fill adds under the
    caps after the first.  ``_row_fills`` alone fills the dict: holding one
    column sum, the group was asked that one; holding two or more, it is
    whole.  The key holds the filter, so two filters' buckets never mix,
    and the walks of one filter object share its buckets, which are
    unbounded like ``row_term``'s.
    """
    return {}


def _fill_row(r, i, bases, top_base, bot_base, first=None):
    """(row, crit) for the fills of row i: all, or those adding ``first``.

    With mid = r-1-i and bar(i, i-1) = 0, the fills are the points of nested
    boxes of steps, in lexicographic order of the steps: the bar steps ds[k]
    = bar(i, i+k) - bar(i, i+k-1) in [0, bases[k]], the excesses x, y of
    a_{i,r-1}, a_{i,r} over bar(i, r-2) in [0, top_base] x [0, bot_base],
    then the left steps a_{i,i+k} - a_{i,i+k+1} for k = mid-1 down to 0 (at
    k = mid-1, a_{i,r-2} - bar(i, r-2) - max(x, y)) in [0, bases[k] + ds[k+1]
    - ds[k]] with ds[mid] = min(x, y).  An entry is critical when its step
    fills its box; ``crit`` lists those positions in step order.  ``first``,
    the column sum a fill adds to column i, fixes a_{i,i} = first - ds[0],
    or at the last row the middle pair (x, y).  The fills adding ``first``
    keep their order among all fills, so the slices of a group filled whole
    (``_row_fills``) equal the fills of each ``first``.
    """
    mid = r - 1 - i  # a_{i,r-1} sits at vals[mid], a_{i,r} at vals[mid + 1]
    tops, bots = range(top_base + 1), range(bot_base + 1)
    if not mid:  # the last row holds only the middle pair, which ``first`` fixes
        if first is not None:
            x, y = first
            tops, bots = (x,) if x in tops else (), (y,) if y in bots else ()
        out = []
        for x in tops:
            top_crit = ((i, r - 1),) if x == top_base else ()
            for y in bots:
                out.append(((x, y), top_crit + ((i, r),) if y == bot_base else top_crit))
        return out
    vals = [0] * (2 * mid + 2)  # vals[k] = a_{i,i+k}, bar(i,i+k) at vals[-1-k]
    out = []

    def fill_left(k, low, high, crit):
        # a_{i,i+k} runs from low, the entry after it on the row chain, to high
        if k:
            w = bases[k - 1] + ds[k] - ds[k - 1]
            for v in range(low, high + 1):
                vals[k] = v
                fill_left(k - 1, v, v + w, crit + ((i, i + k),) if v == high else crit)
            return
        if first is None:
            for v in range(low, high + 1):
                vals[0] = v
                out.append((tuple(vals), crit + ((i, i),) if v == high else crit))
        elif low <= fixed <= high:
            vals[0] = fixed
            out.append((tuple(vals), crit + ((i, i),) if fixed == high else crit))

    spots = [(i, 2 * r - 1 - i - k) for k in range(mid)]  # where bar(i, i+k) sits
    for ds in product(*[range(b + 1) for b in bases]):
        vals[: mid + 1 : -1] = accumulate(ds)  # bar(i, i..r-2)
        low = vals[mid + 2]
        bar_crit = tuple(compress(spots, map(eq, ds, bases)))
        left_top = low + bases[-1] - ds[-1]  # a_{i,r-2} <= left_top + x + y
        if first is not None:
            fixed = first - ds[0]  # a_{i,i}
        for x in tops:
            vals[mid] = low + x
            top_crit = bar_crit + ((i, r - 1),) if x == top_base else bar_crit
            for y in bots:
                vals[mid + 1] = low + y
                crit = top_crit + ((i, r),) if y == bot_base else top_crit
                fill_left(mid - 1, low + (x if x > y else y), left_top + x + y, crit)
    return out


def _below(S, t1, t2, fills):
    """The states below row i that ``fills``, items (row, ...), lead to from the state (S, t1, t2).

    The one place where a row becomes column sums: with mid = len(S) - 1, it
    adds ds[k] = row[k] + row[-1-k] = a_{i,i+k} + bar(i,i+k) to S(i+k, .) for
    k < mid, d1 = row[mid] to T1 and d2 = row[mid+1] to T2; S[0] leaves.
    """
    tail, mid = S[1:], len(S) - 1
    return [
        (tuple(map(add, tail, map(add, row, reversed(row)))), t1 + row[mid], t2 + row[mid + 1])
        for row, _ in fills
    ]


def _sum_limits(r, m, lam):
    """Per row i = 1..r-1, limits on the states below it that can complete to ``lam``.

    Row i's entry is (cols, t1_max, t2_max): a state (S, t1, t2) below row i
    with an S[k] > cols[k], t1 > t1_max or t2 > t2_max has no completion of
    weight lam; with no target every entry is None.  Let col(c) = lam[r-c]
    be the final S(c, c) for 1 <= c <= r-2, with col(0) = 0 and col(r-1) =
    lam[0] + lam[1] (the final T1 + T2).

    * cols = (col(i), L_{i+1}, ..., L_{r-2}): S[0] = S(i, i) is final, and
      for k < c, S(c, k) <= L_c = min(col(c), (m[r-c] + col(c-1) +
      col(c+1)) // 2, 2 (m[r-c] + ... + m[2]) + m[0] + m[1] + 2 col(c-1) -
      col(c)).  L_1 would bound only the top state, where row 1's cap implies it.
    * Below the last row T1 = lam[0]; below the others T1 <= min(lam[0],
      (m[1] + col(r-2)) // 2, m[1] + col(r-2) - lam[0]).  T2 likewise with
      m[0] and lam[1].

    Why: a row has fills only when every box of steps is nonempty, so its
    bases, top_base and bot_base are >= 0, and column sums only grow.  So at
    each row i <= c, 2 S(c) <= m[r-c] + S(c-1) + S(c+1) <= m[r-c] + col(c-1)
    + col(c+1), and 2 T1 <= m[1] + S(r-2) <= m[1] + col(r-2) (T2 likewise).
    The last row adds exactly lam[0] - T1 to T1, at most its top_base m[1] +
    col(r-2) - 2 T1.  Row c adds col(c) - S(c, c-1) to column c, at most 2
    sum(bases) + top_base + bot_base of row c, and that sum telescopes to
    2 (m[r-c] + ... + m[2]) + m[0] + m[1] + 2 col(c-1) - 2 S(c, c-1).
    """
    if lam is None:
        return [None] * (r - 1)
    col = (0,) + lam[:1:-1] + (lam[0] + lam[1],)
    tail, limits = m[0] + m[1], []
    for c in range(r - 2, 1, -1):
        tail += 2 * m[r - c]
        limits.append(min(
            col[c], (m[r - c] + col[c - 1] + col[c + 1]) // 2, tail + 2 * col[c - 1] - col[c]
        ))
    limits.reverse()  # L_2 .. L_{r-2}
    t1_max = min(lam[0], (m[1] + col[r - 2]) // 2, m[1] + col[r - 2] - lam[0])
    t2_max = min(lam[1], (m[0] + col[r - 2]) // 2, m[0] + col[r - 2] - lam[1])
    rows = [((col[i],) + tuple(limits[i - 1 :]), t1_max, t2_max) for i in range(1, r - 1)]
    return rows + [((), lam[0], lam[1])]


def _state_walk(r, m, lam, start, push, keep=_every):
    """{state below the last row: value}, pushed down from {top state: start}.

    The state (S, t1, t2) above row i holds S(i-1..r-2, i-1), T1(i-1) and
    T2(i-1), all that the bounds of rows i.. read.  At row i ``_row_fills``
    runs once per group of states with equal ``_row_bases``, giving the
    caller's ``keep``-filtered fills, and ``push(i, fills, moves, below)``
    adds the value of each (state, value) move of the group, passed along
    each fill (``_below``), into ``below`` {state below row i: value}; S[0]
    = S(i-1, i-1) leaves the state there.  Two levels are held at once; a
    value is dropped once pushed, or with its level.

    The bounds below a fill depend only on the bounds above it and on the
    fill, never on the state: with ds, d1, d2 what ``_below`` reads off the
    fill's row and dd = ds + (d1 + d2,), the child's bases are bases[k+1] +
    dd[k] - 2 dd[k+1] + dd[k+2], its top and bottom bases top + ds[-1] -
    2 d1 and bot + ds[-1] - 2 d2.  So the children of a group's states
    along one fill share one group, and a push whose values are sums over
    patterns, as the counts are, may carry a group's total along the fills
    of one state (``_group_total``); the final keys are then representatives.

    Under ``lam`` the bounds carry caps, row i's ``_sum_limits`` minus the
    state, so a group is one state (the caps fix S(i..r-2), T1 and T2, and
    S[0] is final), and no fill leads to a state above the limits.  Its
    fills are the slice of its column sum in the ``_row_bucket`` of its
    bounds, which one walk fills a slice at a time and the walks of two
    targets fill whole.  The limits see sums only: on coeff-queries round
    0 (seed 1) 3,662 states are filled, from 198 kernel calls over 103
    buckets; 1,593 reach lam through strict nonzero fills and 2,491
    through bounded fills: 1,171 are arithmetic dead ends, and 898 die of
    strictness (one of them of a zero factor).
    """
    level = {((0,) * (r - 1), 0, 0): start}
    for i, limits in enumerate(_sum_limits(r, m, lam), start=1):
        groups: dict = {}
        for state in level:
            groups.setdefault(_row_bases(r, m, i, *state, limits), []).append(state)
        below: dict = {}
        for bounds, states in groups.items():
            push(i, _row_fills(r, i, *bounds, keep), ((s, level.pop(s)) for s in states), below)
        level = below
    return level


def _complete(r, m, limits, i, S, t1, t2):
    """Yield (rows, per-row crit tuples) of the completions from row i under ``limits``, sorted."""
    if i == r:
        yield (), ()
        return
    fills = sorted(_row_fills(r, i, *_row_bases(r, m, i, S, t1, t2, limits[i - 1])))
    for (row, crit), state in zip(fills, _below(S, t1, t2, fills)):
        for rest_rows, rest_crit in _complete(r, m, limits, i + 1, *state):
            yield (row,) + rest_rows, (crit,) + rest_crit


def _check_args(rs: RootSystemD, hw: HighestWeight, weight_filter):
    if hw.rank != rs.rank:
        raise ValueError(f"rank mismatch: root system {rs.rank}, weight {hw.rank}")
    if weight_filter is not None:
        lam = tuple(map(_int, weight_filter))
        if len(lam) != rs.rank or None in lam or any(v < 0 for v in lam):
            raise ValueError(f"weight filter must be {rs.rank} nonnegative integers")
        weight_filter = lam
    return weight_filter


def enumerate_decorated(
    rs: RootSystemD, hw: HighestWeight, weight_filter=None
) -> Iterator[tuple[LittelmannPattern, frozenset[Position]]]:
    """Yield (pattern, critical positions) in canonical row-major lex order.

    Criticality falls out of the fill bounds, so consumers that need the
    decorations avoid a second bound pass.  The arguments are checked at the call.
    """
    r, m = rs.rank, hw.m
    limits = _sum_limits(r, m, _check_args(rs, hw, weight_filter))
    return (
        (LittelmannPattern._wrap(r, rows), frozenset(pos for row_crit in crit for pos in row_crit))
        for rows, crit in _complete(r, m, limits, 1, (0,) * (r - 1), 0, 0)
    )


def count_patterns(rs: RootSystemD, hw: HighestWeight) -> int:
    """Number of bounded patterns, counted per group of states by ``_state_walk``."""
    _check_args(rs, hw, None)
    return sum(_state_walk(rs.rank, hw.m, None, 1, _count_push).values())


def _group_total(moves, add):
    """(first state, sum of all values) of the moves iterator of one group.

    The values are summed by ``add``.  What lies below a state depends only
    on its bounds, so the group's total, pushed along the fills of its
    first state, counts what pushing every state would (see
    ``_state_walk``); taking the first keeps the walk deterministic.
    """
    state, total = next(moves)
    for _, value in moves:
        total = add(total, value)
    return state, total


def _count_push(i, fills, moves, below):
    (S, t1, t2), total = _group_total(moves, add)
    for state in _below(S, t1, t2, fills):
        below[state] = below.get(state, 0) + total
