"""cyclepack: vertex-disjoint long even cycles in bipartite graphs.

Library + CLI for constructing packings of disjoint even cycles under a
minimum-degree hypothesis, verifying them independently, and certifying small
instances with an exact oracle.
"""

from .graphs import (
    BipartiteGraph,
    GraphError,
    ParseError,
    gen_complete,
    gen_random_mindeg,
    gen_sharpness,
    parse_graph,
    serialize_graph,
)
from .packer import (
    INFEASIBLE,
    PACKED,
    UNKNOWN,
    OracleLimitError,
    PackResult,
    brute_force_pack,
    pack,
)
from .profiles import CycleProfile, ProfileError, make_profile
from .verify import VerificationReport, check_hypotheses, verify_packing

__version__ = "0.1.0"

__all__ = [
    "BipartiteGraph",
    "GraphError",
    "ParseError",
    "parse_graph",
    "serialize_graph",
    "gen_complete",
    "gen_random_mindeg",
    "gen_sharpness",
    "CycleProfile",
    "ProfileError",
    "make_profile",
    "PackResult",
    "OracleLimitError",
    "pack",
    "brute_force_pack",
    "PACKED",
    "INFEASIBLE",
    "UNKNOWN",
    "VerificationReport",
    "verify_packing",
    "check_hypotheses",
    "__version__",
]
