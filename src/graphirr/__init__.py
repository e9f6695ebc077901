"""Exact-arithmetic graph irregularity toolkit.

Computes degree-based irregularity measures of simple graphs in exact
rational arithmetic, provides generators for the relevant graph families,
enumerates small graphs up to isomorphism, and machine-checks a suite of
inequalities, identities, equality conditions and conjectured bounds over
exhaustive populations.
"""

__version__ = "0.1.0"

from .canon import CANONICAL_CAP, canonical_code
from .enumeration import EnumerationSpec, enumerate_codes_cached, enumerate_range
from .errors import CapabilityError, InputError
from .families import (
    complete,
    complete_multipartite,
    complete_split,
    cycle,
    named,
    path,
    recognize,
    star,
    wheel,
)
from .graph import (
    Classification,
    DegreeStats,
    Graph,
    classify,
    degree_stats,
    from_edge_list,
    is_connected,
)
from .io import (
    format_edge_list,
    parse_edge_list,
    parse_graph,
    parse_graph6,
    to_graph6,
)
from .measures import (
    BoundRecord,
    MeasureSet,
    bound_report,
    cyclic_formulas,
    measure_set,
    tree_formulas,
)
from .spectral import (
    TwoWalkParams,
    two_walk_params,
    two_walk_radius_test,
    variance_spectral_identity,
)
from .verify import (
    ExtremalResult,
    VerificationReport,
    check_deviation_conjecture,
    check_omega_conjecture,
    extremal_search,
    max_deviation_split_k,
    run_all_suites,
    run_conjectures,
    run_suite,
    split_deviation_argmax,
)

__all__ = [name for name in dir() if not name.startswith("_")]
