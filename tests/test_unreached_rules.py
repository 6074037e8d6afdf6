"""Two branches of the component rule that no strict pattern reaches.

The paper's component rule has two cases that no strict pattern has
reached on any grid tried, and ``local_part.component_rule`` does not code
them:

  - an asymmetric multiple leaner whose shorter-leg endpoint is circled;
  - a symmetric multiple leaner whose rightmost vertex and upsilon are
    both circled.

``unreached_rule_counts`` counts the strict patterns with a row in either
case by a walk built like the push of ``decoration.strictness_counts``,
and the tests assert 0; this is what makes the shorter rule exact on
these grids.  Its total and strict counts must equal
``strictness_counts``, so a 0 means every strict pattern was looked at.
CI runs the same walk on a larger grid (D5 on three more twists, D6 on
four and untwisted D7) by importing ``unreached_rule_counts`` from this
module.
"""

from functools import lru_cache
from itertools import product
from operator import add

import pytest

from dlocal import HighestWeight, build_root_system, decoration
from dlocal.decoration import (
    ML_ASYMMETRIC,
    ML_SYMMETRIC,
    _row_probes,
    strictness_counts,
)
from dlocal.pattern import _below, _group_total, _state_walk


def fill_kind(r: int, i: int, row: tuple, crit: tuple) -> str:
    """Classify a fill of row i: "nonstrict", "reached" (strict, in either case) or "strict".

    The shorter-leg endpoint of an asymmetric leaner is its first column
    when its left leg (columns <= r-2) is the shorter, else its last; the
    upsilon of a symmetric leaner is the column just left of its last.
    """
    components, probes = _row_probes(r, i, row)
    if not probes.isdisjoint(crit):
        return "nonstrict"
    for comp in components:
        columns = comp.columns
        if comp.kind == ML_ASYMMETRIC:
            left = sum(1 for c in columns if c <= r - 2)
            right = sum(1 for c in columns if c >= r + 1)
            if (i, columns[0] if left < right else columns[-1]) in crit:
                return "reached"
        if comp.kind == ML_SYMMETRIC and comp.rightmost in crit and (i, columns[-1] - 1) in crit:
            return "reached"
    return "strict"


def _add3(a, b):
    return tuple(map(add, a, b))


def unreached_rule_counts(rs, hw) -> tuple[int, int, int]:
    """(total, strict, reached) over the bounded patterns of ``hw``.

    ``reached`` counts the strict patterns with at least one row in either
    case of the module docstring.  Each group of states with equal bounds
    pushes one (total, strict, reached) triple along the fills of its
    first state, as ``strictness_counts`` does with its pairs.
    """
    r = rs.rank

    def push(i, fills, moves, below):
        (S, t1, t2), (total, strict, reached) = _group_total(moves, _add3)
        for (row, crit), state in zip(fills, _below(S, t1, t2, fills)):
            kind = fill_kind(r, i, row, crit)
            t, s, u = below.get(state, (0, 0, 0))
            if kind == "nonstrict":
                below[state] = t + total, s, u
            else:
                below[state] = t + total, s + strict, u + (strict if kind == "reached" else reached)

    counts = _state_walk(r, hw.m, None, (1, 1, 0), push).values()
    return tuple(sum(c[k] for c in counts) for k in range(3))


TWISTS = list(product(range(3), repeat=4)) + list(product(range(2), repeat=5))


@pytest.mark.parametrize("twist", TWISTS, ids=lambda t: "".join(map(str, t)))
def test_no_strict_pattern_reaches_either_branch(twist):
    rs, hw = build_root_system(len(twist)), HighestWeight.from_twist(twist)
    total, strict, reached = unreached_rule_counts(rs, hw)
    expected_total, nonstrict = strictness_counts(rs, hw)
    assert (total, strict) == (expected_total, expected_total - nonstrict)
    assert reached == 0


def test_walk_sees_a_reached_branch():
    # With asymmetric leaners exempt from the edge probes, as before the
    # rank-5 fix, strict patterns with a circled shorter-leg endpoint exist.
    original = decoration._row_analysis

    @lru_cache(maxsize=None)
    def exempting(rank, i, eq):
        components, probes = original(rank, i, eq)
        exempt = {
            (i, c) for comp in components if comp.kind == ML_ASYMMETRIC for c in comp.columns
        }
        return components, probes - exempt

    # _row_probes caches what it read from _row_analysis, so it is cleared
    # on both sides of the patch: the mutant is neither hidden nor kept.
    rs, hw = build_root_system(5), HighestWeight.from_twist((0,) * 5)
    with pytest.MonkeyPatch.context() as patch:
        _row_probes.cache_clear()
        patch.setattr(decoration, "_row_analysis", exempting)
        try:
            total, strict, reached = unreached_rule_counts(rs, hw)
        finally:
            _row_probes.cache_clear()
    assert total == 2**20
    assert reached > 0
