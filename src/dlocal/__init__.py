"""Exact local parts of type-D Weyl group multiple Dirichlet series.

The pipeline: build the D_r root system in the fork-first labeling,
enumerate the Littelmann patterns bounded by a highest weight, decorate
each pattern's graph, discard nonstrict patterns, and sum the Gauss-sum
valued contributions into the generating function N(x; l).  All
arithmetic is exact; nothing here uses floating point.
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
from .oracle import (
    VerificationReport,
    check_all,
    check_dimension,
    check_example2,
    check_rank2,
    check_tokuyama,
    kubota_local,
    tokuyama_product,
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
