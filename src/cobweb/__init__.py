"""Exact combinatorics of cobweb posets.

Sequences index the posets; F-nomial coefficients, incidence algebra,
Whitney and Bell-like numbers, chain tilings and the classical Bell /
Dobinski pair sit on top.  Everything numeric is exact big-integer
arithmetic unless a function says otherwise.
"""

from .sequences import (
    AdmissibleSequence,
    AdmissibilityVerdict,
    GcdMorphismVerdict,
    SequenceSpecError,
    gcd_morphism_failures,
    is_cobweb_admissible,
    is_gcd_morphic,
    parse_sequence,
)
from .fnomial import NonIntegralError, fnomial_coefficient
from .poset import (
    BudgetError,
    CobwebPoset,
    IncidenceMatrix,
    DEFAULT_ENUMERATION_BUDGET,
)
from .layer_grid import (
    bell_like,
    count_grid_max_chains,
    grid_size,
    whitney_first,
    whitney_second,
)
from .diagonal import bell_sequence, whitney
from .tiling import (
    Block,
    TilingCountResult,
    TilingInstance,
    TilingSearchResult,
    build_instance,
    count_partitions,
    exists_partition,
    instance_from_json,
    instance_to_json,
    verify_partition,
    witness_to_json,
)
from .dobinski import bell_dobinski, bell_exact, stirling2

__version__ = "0.1.0"

__all__ = [
    "AdmissibleSequence",
    "AdmissibilityVerdict",
    "GcdMorphismVerdict",
    "SequenceSpecError",
    "gcd_morphism_failures",
    "is_cobweb_admissible",
    "is_gcd_morphic",
    "parse_sequence",
    "NonIntegralError",
    "fnomial_coefficient",
    "BudgetError",
    "CobwebPoset",
    "IncidenceMatrix",
    "DEFAULT_ENUMERATION_BUDGET",
    "bell_like",
    "count_grid_max_chains",
    "grid_size",
    "whitney_first",
    "whitney_second",
    "bell_sequence",
    "whitney",
    "Block",
    "TilingCountResult",
    "TilingInstance",
    "TilingSearchResult",
    "build_instance",
    "count_partitions",
    "exists_partition",
    "instance_from_json",
    "instance_to_json",
    "verify_partition",
    "witness_to_json",
    "bell_dobinski",
    "bell_exact",
    "stirling2",
]
