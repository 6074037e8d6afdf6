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
state above row i, (S(., i-1), T1(i-1), T2(i-1)), to the row's bounds
without their in-row terms.  ``_row_fills`` adds those terms as it places
the entries, and ``critical_positions`` as it replays a given pattern.

Enumeration fills rows top to bottom.  Within a row the only order in
which every bound is available as soon as its entry is placed is right to
left: the right half first (bar indices j = i..r-2, i.e. boxes from the
right end inward), then the middle pair, then the left half from column
r-2 back to column i.  Filled this way each entry has a known lower bound
from the row chain and its exact upper bound, so the search never
backtracks over infeasible prefixes.  Row candidates are sorted before
recursing, which restores the canonical row-major lexicographic order of
the emitted patterns.

Sums over patterns never list them: ``_state_walk`` is the one memoized
recursion over the states between rows, and ``count_patterns``,
``local_part`` and ``decoration.strictness_counts`` each supply its fold.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import lru_cache
from operator import add
from typing import Iterator

from .root_data import HighestWeight, RootSystemD

Position = tuple[int, int]


@dataclass(frozen=True)
class LittelmannPattern:
    """Immutable pattern; rows[i-1][j-i] stores a_{i,j}."""

    rank: int
    rows: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        r = self.rank
        if r < 2:
            raise ValueError(f"rank must be >= 2, got {r}")
        rows = tuple(tuple(int(v) for v in row) for row in self.rows)
        if len(rows) != r - 1:
            raise ValueError(f"expected {r - 1} rows, got {len(rows)}")
        for i, row in enumerate(rows, start=1):
            if len(row) != 2 * (r - i):
                raise ValueError(
                    f"row {i} must have {2 * (r - i)} entries, got {len(row)}"
                )
            if any(v < 0 for v in row):
                raise ValueError(f"row {i} has a negative entry: {row}")
        object.__setattr__(self, "rows", rows)

    # -- access -------------------------------------------------------------

    def entry(self, i: int, j: int) -> int:
        """a_{i,j} for i <= j <= 2r-1-i."""
        return self.rows[i - 1][j - i]

    def bar(self, i: int, j: int) -> int:
        """bar(i,j) = a_{i, 2r-1-j}."""
        return self.rows[i - 1][2 * self.rank - 1 - j - i]

    def row_columns(self, i: int) -> range:
        return range(i, 2 * self.rank - i)

    def positions(self) -> Iterator[Position]:
        for i in range(1, self.rank):
            for j in self.row_columns(i):
                yield (i, j)

    def is_admissible(self) -> bool:
        """Every row decreases weakly along its row chain."""
        return all(
            self.entry(i, a) >= self.entry(i, b)
            for i in range(1, self.rank)
            for a, b in row_chain_pairs(self.rank, i)
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
        return cls(rank=obj["rank"], rows=tuple(tuple(row) for row in obj["rows"]))

    def to_json_str(self) -> str:
        return json.dumps(self.to_json_obj(), separators=(",", ":"))


# -- bounds and criticality ---------------------------------------------------


def _row_bases(r, m, i, S, t1, t2):
    """Row i's bounds without their in-row terms, from the state above it.

    ``S[c]`` is S(c, i-1) for c = 1..r-2 and ``S[0]`` = 0; ``t1``, ``t2`` are
    T1(i-1), T2(i-1).  Returns (base, top_base, bot_base): for j = i..r-2,
    base[j] + bar(i, j-1) bounds bar(i, j), and base[j] - 2 bar(i, j)
    + bar(i, j-1) + (a_{i,j+1} + bar(i, j+1), or the middle pair for
    j = r-2) bounds a_{i,j}; top_base and bot_base plus bar(i, r-2) bound
    a_{i,r-1} and a_{i,r}.  An in-row term outside row i is 0.
    """
    last = r - 2
    smid = t1 + t2
    base = [0] * (last + 1)
    for j in range(i, last + 1):
        base[j] = m[r - j] + S[j - 1] - 2 * S[j] + (S[j + 1] if j < last else smid)
    return base, m[1] + S[last] - 2 * t1, m[0] + S[last] - 2 * t2


@lru_cache(maxsize=None)
def row_chain_pairs(rank: int, i: int) -> tuple[tuple[int, int], ...]:
    """Consecutive comparable column pairs of row i, earlier column first."""
    r = rank
    pairs = [(j, j + 1) for j in range(i, r - 2)]
    if i <= r - 2:
        pairs += [(r - 2, r - 1), (r - 2, r), (r - 1, r + 1), (r, r + 1)]
    pairs += [(j, j + 1) for j in range(r + 1, 2 * r - 1 - i)]
    return tuple(pairs)


def critical_positions(T: LittelmannPattern, hw: HighestWeight) -> frozenset[Position]:
    """Positions whose entry meets its bound.

    Replays T down its rows through ``_row_bases``, the bound routine of
    the fills; the state above row i is the sum of ``row_weight`` over the
    rows before it.  Raises ValueError when a row breaks the row chain or
    an entry exceeds its bound (the first such entry in row-major order).
    """
    r = T.rank
    if hw.rank != r:
        raise ValueError(f"rank mismatch: pattern {r}, weight {hw.rank}")
    if not T.is_admissible():
        raise ValueError("pattern rows are not weakly decreasing")
    last = r - 2
    w = (0,) * r  # weight of the rows above row i
    crit = []
    for i, row in enumerate(T.rows, start=1):
        S = (0,) + tuple(w[r - c] for c in range(1, r - 1))
        base, top_base, bot_base = _row_bases(r, hw.m, i, S, w[0], w[1])
        cols = range(i, last + 1)
        # bars[k] bounds bar(i, i+k), lefts[k] bounds a_{i,i+k}; bar(i, r-1)
        # is a_{i,r}, so a_{i,j+1} + bar(i, j+1) is the middle pair at j = r-2.
        bars = [base[j] + (T.bar(i, j - 1) if j > i else 0) for j in cols]
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
        w = tuple(map(add, w, row_weight(r, i, row)))
    return frozenset(crit)


def row_weight(rank: int, i: int, row: tuple[int, ...]) -> tuple[int, ...]:
    """Row i's share of ``weight_vector``."""
    r = rank
    delta = [0] * r
    delta[0], delta[1] = row[r - 1 - i], row[r - i]
    for c in range(i, r - 1):  # column c feeds coordinate k = r+1-c
        delta[r - c] = row[c - i] + row[2 * r - 1 - c - i]
    return tuple(delta)


def weight_vector(T: LittelmannPattern) -> tuple[int, ...]:
    """The exponent vector this pattern contributes to.

    Coordinates 1 and 2 are the column sums of the two middle columns; the
    k-th coordinate for k >= 3 is the paired sum of column r+1-k.
    """
    deltas = (row_weight(T.rank, i, row) for i, row in enumerate(T.rows, start=1))
    return tuple(map(sum, zip(*deltas)))


# -- enumeration --------------------------------------------------------------


_NO_CAP = 1 << 62  # the cap of every column when no target weight is given


def _row_fills(r, m, i, s, t1, t2, lam):
    """Return (row, crit, new_s, new_t1, new_t2) for every valid fill of row i.

    ``s`` carries S(c, i-1) at index c-1; entries for columns c < i-1 are
    never read.  ``lam`` is an optional target weight: when set, column
    capacities prune the fill and the last row contributing to a column is
    forced to land exactly on the target.

    Entries are placed right to left as the module docstring describes,
    into ``vals`` (vals[c-i] = a_{i,c}); ``crit`` lists the critical
    positions in placement order.  A bound is met only by the largest value
    of its range, so each loop runs the uncritical values and then the
    critical one.
    """
    last = r - 2  # index of the innermost bar, and column of the first left entry
    S = (0,) + s  # S[c] = S(c, i-1)
    base, top_base, bot_base = _row_bases(r, m, i, S, t1, t2)
    out = []
    if i > last:  # the last row holds only the middle pair
        if lam is None:
            tops, bots = range(top_base + 1), range(bot_base + 1)
        else:
            top, bot = lam[0] - t1, lam[1] - t2
            tops = (top,) if 0 <= top <= top_base else ()
            bots = (bot,) if 0 <= bot <= bot_base else ()
        for top in tops:
            top_crit = ((i, r - 1),) if top == top_base else ()
            for bot in bots:
                crit = top_crit + ((i, r),) if bot == bot_base else top_crit
                out.append(((top, bot), crit, s, t1 + top, t2 + bot))
        return out

    exact = lam is not None
    # cap[j] is what the target leaves for column j: it caps bar(i, j), and
    # cap[j] - bar(i, j) caps a_{i,j}.
    cap = [_NO_CAP] * (last + 1)
    if exact:
        for j in range(i, last + 1):
            cap[j] = lam[r - j] - S[j]
    top_cap = lam[0] - t1 if exact else _NO_CAP
    bot_cap = lam[1] - t2 if exact else _NO_CAP
    flip = 2 * r - 1 - i  # bar(i, j) sits at vals[flip - j]
    mid = r - 1 - i  # a_{i,r-1} sits at vals[mid], a_{i,r} at vals[mid + 1]
    vals = [0] * (2 * (r - i))
    sums = list(s)  # sums[c-1] = S(c, i) once column c of this row is placed
    crit = []

    def fill_bars(j, prev):
        if j > last:
            fill_mid(prev)
            return
        bound = base[j] + prev
        high = cap[j] if cap[j] < bound else bound
        k = flip - j
        for v in range(prev, high + 1 if high < bound else bound):
            vals[k] = v
            fill_bars(j + 1, v)
        if high == bound >= prev:
            vals[k] = bound
            crit.append((i, k + i))
            fill_bars(j + 1, bound)
            crit.pop()

    def fill_mid(low):
        top_bound = top_base + low
        bot_bound = bot_base + low
        top_high = min(top_bound, top_cap)
        bot_high = min(bot_bound, bot_cap)
        for top in range(low, top_high + 1):
            vals[mid] = top
            if top == top_bound:
                crit.append((i, r - 1))
            for bot in range(low, bot_high + 1):
                vals[mid + 1] = bot
                floor = top if top > bot else bot
                if bot == bot_bound:
                    crit.append((i, r))
                    fill_left(last, floor, top + bot)
                    crit.pop()
                else:
                    fill_left(last, floor, top + bot)
            if top == top_bound:
                crit.pop()

    def fill_left(j, low, inner):
        # inner: a_{i,j+1} + bar(i, j+1), or the middle pair's sum for j = last
        b = vals[flip - j]
        if j > i:
            bound = base[j] + inner - 2 * b + vals[flip - j + 1]
            high = cap[j] - b
            if high > bound:
                high = bound
            if exact and j == i + 1:
                # a_{i,i} will be forced to v0 = cap[i] - bar(i, i), which must
                # lie in [a_{i,i+1}, base[i] + a_{i,i+1} + bar(i, i+1) - 2 bar(i, i)].
                bi = vals[flip - i]
                v0 = cap[i] - bi
                high = min(high, v0)
                low = max(low, v0 + 2 * bi - base[i] - b)
            k = j - i
            sj = S[j] + b
            for v in range(low, high + 1 if high < bound else bound):
                vals[k] = v
                sums[j - 1] = sj + v
                fill_left(j - 1, v, v + b)
            if high == bound >= low:
                vals[k] = bound
                sums[j - 1] = sj + bound
                crit.append((i, j))
                fill_left(j - 1, bound, bound + b)
                crit.pop()
            return
        bound = base[i] + inner - 2 * b
        if exact:
            v = cap[i] - b
            if not low <= v <= bound:
                return
            values = (v,)
        else:
            values = range(low, bound + 1)
        row_crit = tuple(crit)
        new_t1, new_t2 = t1 + vals[mid], t2 + vals[mid + 1]
        si = S[i] + b
        for v in values:
            vals[0] = v
            sums[i - 1] = si + v
            out.append((
                tuple(vals),
                row_crit + ((i, i),) if v == bound else row_crit,
                tuple(sums),
                new_t1,
                new_t2,
            ))

    fill_bars(i, 0)
    return out


def _state_walk(r, m, lam, leaf, fold):
    """Value of the top state of the memoized walk over the states between rows.

    A state (i, s, t1, t2) holds the column and middle-column sums of rows
    1..i-1.  Its value is ``leaf`` at i == r, else ``fold(i, fills,
    completions)`` over row i's ``_row_fills`` under ``lam``, where
    ``completions(i + 1, s, t1, t2)`` is the value of the state a fill leads
    to.  The key drops the sums left of column i-1: no later bound reads them.
    """
    memo: dict = {}

    def completions(i, s, t1, t2):
        if i == r:
            return leaf
        key = (i, s[max(i - 2, 0) :], t1, t2)
        value = memo.get(key)
        if value is None:
            value = memo[key] = fold(i, _row_fills(r, m, i, s, t1, t2, lam), completions)
        return value

    try:
        return completions(1, (0,) * (r - 2), 0, 0)
    finally:
        # completions refers to itself: free the memo now, not at the next cyclic GC.
        memo.clear()


def _complete(r, m, lam, i, s, t1, t2):
    """Yield (rows, per-row crit tuples) over all completions from row i, sorted."""
    if i == r:
        yield (), ()
        return
    fills = _row_fills(r, m, i, s, t1, t2, lam)
    fills.sort(key=lambda f: f[0])
    for row, crit, s2, t1n, t2n in fills:
        for rest_rows, rest_crit in _complete(r, m, lam, i + 1, s2, t1n, t2n):
            yield (row,) + rest_rows, (crit,) + rest_crit


def _check_args(rs: RootSystemD, hw: HighestWeight, weight_filter):
    if hw.rank != rs.rank:
        raise ValueError(f"rank mismatch: root system {rs.rank}, weight {hw.rank}")
    if weight_filter is not None:
        weight_filter = tuple(int(v) for v in weight_filter)
        if len(weight_filter) != rs.rank or any(v < 0 for v in weight_filter):
            raise ValueError(f"weight filter must be {rs.rank} nonnegative integers")
    return weight_filter


def enumerate_decorated(
    rs: RootSystemD, hw: HighestWeight, weight_filter=None
) -> Iterator[tuple[LittelmannPattern, frozenset[Position]]]:
    """Yield (pattern, critical positions) in canonical row-major lex order.

    Criticality falls out of the fill bounds, so consumers that need the
    decorations avoid a second bound pass.
    """
    weight_filter = _check_args(rs, hw, weight_filter)
    r = rs.rank
    for rows, crit in _complete(r, hw.m, weight_filter, 1, (0,) * (r - 2), 0, 0):
        circled = frozenset(pos for row_crit in crit for pos in row_crit)
        yield LittelmannPattern(rank=r, rows=rows), circled


def count_patterns(rs: RootSystemD, hw: HighestWeight) -> int:
    """Number of bounded patterns, counted per state by ``_state_walk``."""
    _check_args(rs, hw, None)
    return _state_walk(rs.rank, hw.m, None, 1, _count_fold)


def _count_fold(i, fills, completions):
    total = 0
    for _, _, s, t1, t2 in fills:
        total += completions(i + 1, s, t1, t2)
    return total
