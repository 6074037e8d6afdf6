"""Exact local parts of type-D Weyl group multiple Dirichlet series.

The pipeline: build the D_r root system in the fork-first labeling,
enumerate the Littelmann patterns bounded by a highest weight, decorate
each pattern's graph, discard nonstrict patterns, and sum the Gauss-sum
valued contributions into the generating function N(x; l).  All
arithmetic is exact; nothing here uses floating point.

The verification suites (``check_all`` and the other names of
``dlocal.oracle``) load on first use, so ``import dlocal`` loads only the
code that computing runs.
"""

from .coeff_ring import RingElem, gauss_symbol
from .decoration import (
    Component,
    component_structure,
    render_decorated,
)
from .local_part import (
    LocalPart,
    local_part,
    pattern_contribution,
    sigma_entry,
)
from .pattern import (
    LittelmannPattern,
    count_patterns,
    critical_positions,
    enumerate_decorated,
    row_chain_pairs,
    weight_vector,
)
from .root_data import (
    HighestWeight,
    RootSystemD,
    bourbaki_permutation,
    build_root_system,
    weyl_dimension,
)

__version__ = "0.1.0"

_ORACLE_NAMES = {
    "VerificationReport",
    "check_all",
    "check_dimension",
    "check_example2",
    "check_rank2",
    "check_tokuyama",
    "kubota_local",
    "tokuyama_product",
}


def __getattr__(name):
    """Load ``dlocal.oracle`` the first time one of its names is asked for."""
    if name in _ORACLE_NAMES:
        from . import oracle

        return getattr(oracle, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")

__all__ = [
    "Component",
    "HighestWeight",
    "LittelmannPattern",
    "LocalPart",
    "RingElem",
    "RootSystemD",
    "VerificationReport",
    "bourbaki_permutation",
    "build_root_system",
    "check_all",
    "check_dimension",
    "check_example2",
    "check_rank2",
    "check_tokuyama",
    "component_structure",
    "count_patterns",
    "critical_positions",
    "enumerate_decorated",
    "gauss_symbol",
    "kubota_local",
    "local_part",
    "pattern_contribution",
    "render_decorated",
    "row_chain_pairs",
    "sigma_entry",
    "tokuyama_product",
    "weight_vector",
    "weyl_dimension",
]
