"""Every scalar integer argument of the public API goes through one check.

An integral float is read as its int; any other non-integer value raises
ValueError, never TypeError and never a silent result.
"""

import pytest

from dlocal import (
    HighestWeight,
    LittelmannPattern,
    RingElem,
    bourbaki_permutation,
    build_root_system,
    gauss_symbol,
    local_part,
    row_chain_pairs,
    sigma_entry,
)
from dlocal.oracle import kubota_brute, kubota_local

_D2 = build_root_system(2)
_UNTWISTED_D2 = local_part(_D2, HighestWeight.from_twist((0, 0)), n=1)

# (name, call of one integer argument x, an accepted value of x, an int below
# the least accepted value or None when every int is accepted)
ENTRY_POINTS = [
    ("build_root_system rank", build_root_system, 3, 1),
    ("bourbaki_permutation rank", bourbaki_permutation, 4, 1),
    ("row_chain_pairs rank", lambda x: row_chain_pairs(x, 1), 3, 1),
    ("row_chain_pairs row", lambda x: row_chain_pairs(4, x), 2, 0),
    ("LittelmannPattern rank", lambda x: LittelmannPattern(x, ((1, 0, 0, 0), (0, 0))), 3, 1),
    ("RingElem cover degree", lambda x: RingElem.p_power(1, x), 2, 0),
    ("RingElem power", lambda x: (gauss_symbol(1, 3) + 1) ** x, 2, -1),
    ("gauss_symbol index", lambda x: gauss_symbol(x, 3), 5, -1),
    ("gauss_symbol cover degree", lambda x: gauss_symbol(5, x), 3, 0),
    ("sigma_entry value", lambda x: sigma_entry(x, True, 2), 3, -1),
    ("sigma_entry cover degree", lambda x: sigma_entry(3, False, x), 3, 0),
    ("local_part cover degree", lambda x: local_part(_D2, HighestWeight((1, 2)), n=x), 2, 0),
    ("local_part jobs", lambda x: local_part(_D2, HighestWeight((1, 2)), n=2, jobs=x), 2, -1),
    ("kubota_local twist", lambda x: kubota_local(x, 2), 3, -1),
    ("kubota_brute twist", lambda x: kubota_brute(x, 2), 3, -1),
    ("kubota_brute cover degree", lambda x: kubota_brute(3, x), 2, 0),
    ("coefficient_at key", lambda x: _UNTWISTED_D2.coefficient_at((x, 0)), 1, None),
]


@pytest.mark.parametrize(
    "call, good, below", [row[1:] for row in ENTRY_POINTS], ids=[row[0] for row in ENTRY_POINTS]
)
def test_integer_argument(call, good, below):
    for bad in (2.5, None, float("inf"), "1") + (() if below is None else (below,)):
        with pytest.raises(ValueError, match=repr(bad).replace(".", r"\.")):
            call(bad)
    assert call(float(good)) == call(good)


def test_coefficient_at_reads_zero_off_the_support():
    assert _UNTWISTED_D2.coefficient_at((1, 0)) == -RingElem.one(1)
    assert _UNTWISTED_D2.coefficient_at((-1, 0)) == RingElem.zero(1)
