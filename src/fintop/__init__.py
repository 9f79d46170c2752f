"""fintop: executable finite point-set topology over bitmask carriers.

Spaces live on carriers {0, ..., n-1} with n <= 24; subsets are bitmasks,
topologies are validated open-set families, and every classical notion
(operators, maps, covers, connectivity, separation, compactness) is
evaluated from its literal definition or from an equivalent
characterization, the two cross-checked, and regression-swept over the
exhaustive enumeration of all small topologies.

The package attribute ``space`` is the function :func:`space`, which
shadows the submodule of the same name: ``import fintop.space as m`` and
``from fintop import space`` both bind the function.  The module is
reached only through ``from fintop.space import ...`` or
``importlib.import_module("fintop.space")``; patch it there, not through
the package attribute.
"""

from .carrier import (
    MAX_CARRIER,
    Family,
    Partition,
    PointSet,
    check_carrier,
    family_intersection,
    family_union,
    same_carrier,
    subsets_iter,
)
from .compact import (
    CompactnessReport,
    compactness_report,
    hausdorff_compact_checks,
    is_compact,
    is_compact_set,
    is_locally_compact,
)
from .connect import (
    component_partition,
    components,
    connected_set_masks,
    is_connected,
    is_connected_set,
    is_locally_connected,
    is_locally_connected_at,
    is_totally_disconnected,
    mcp,
)
from .construct import (
    BaseProblem,
    MetricTable,
    PairEncoding,
    alexandroff,
    base_generates_same,
    check_base_conditions,
    is_base_for,
    is_metrizable,
    metric_topology,
    product,
    quotient,
    subspace,
    topology_from_base,
    topology_from_subbase,
)
from .covers import (
    CoverReport,
    classify_cover,
    is_refinement,
    is_subcover,
    minimal_subcover,
    relative_opens,
    verify_pasting,
)
from .docio import (
    DocumentError,
    canonical_json,
    emit_family,
    emit_map,
    emit_space,
    parse_family,
    parse_map,
    parse_metric,
    parse_space,
)
from .enumeration import (
    PREDICATES,
    EnumConfig,
    all_spaces,
    canonical_form,
    count_topologies,
    enumerate_topologies,
    topologies_minopen,
    topologies_naive,
)
from .errors import (
    CarrierMismatch,
    CarrierTooLarge,
    CodomainNotHausdorff,
    CrossCheckFailure,
    EmptyFamilyIntersection,
    EmptyList,
    FintopError,
    InvalidBase,
    InvalidMetric,
    InvalidTopology,
    NotACover,
    NotALimitPoint,
    NotAPartition,
    NotFundamental,
    SubbaseDoesNotCover,
)
from .maps import (
    FiniteMap,
    MapReport,
    check_map,
    embeddings_equivalent,
    find_homeomorphism,
    homeomorphic,
    is_continuous_at,
    limits_at,
    restrict,
)
from .operators import (
    DensityReport,
    RoleFlags,
    boundary,
    closure,
    density_report,
    exterior,
    interior,
    is_dense_in,
    isolated_set,
    limit_set,
    pair_relation,
    point_roles,
)
from .separation import (
    PairClass,
    SeparationReport,
    classify_pair,
    separation_report,
    t1_minimum,
)
from .space import (
    VIOLATION_KINDS,
    AxiomViolation,
    TopSpace,
    clopen_sets,
    closed_sets,
    compare,
    discrete,
    indiscrete,
    is_finer,
    meet_topologies,
    minimal_open,
    neighborhoods,
    one_point_extension,
    space,
    validate_topology,
)

__version__ = "1.0.0"

#: Names of :mod:`fintop.cli` that the package exports without importing
#: the CLI, so ``python -m fintop.cli`` runs ``cli.py`` once, as ``__main__``.
_CLI_NAMES = ("COVERAGE", "cli_dispatch", "main")


def __getattr__(name: str):
    """Resolve the CLI exports and ``sweep_theorems`` on first use (PEP 562),
    so a process that sweeps nothing never compiles :mod:`fintop.theorems`."""
    if name in _CLI_NAMES:
        from . import cli

        return getattr(cli, name)
    if name == "sweep_theorems":
        from .theorems import sweep_theorems

        return sweep_theorems
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")

#: Spec-level operations of the library (the CLI coverage map in
#: :data:`fintop.cli.COVERAGE` must reach every one of these but
#: ``family_intersection`` and ``subsets_iter``).
OPERATIONS = (
    "family_union",
    "family_intersection",
    "subsets_iter",
    "validate_topology",
    "space",
    "discrete",
    "indiscrete",
    "closed_sets",
    "clopen_sets",
    "neighborhoods",
    "minimal_open",
    "compare",
    "is_finer",
    "meet_topologies",
    "one_point_extension",
    "check_base_conditions",
    "topology_from_base",
    "is_base_for",
    "base_generates_same",
    "topology_from_subbase",
    "subspace",
    "product",
    "quotient",
    "metric_topology",
    "is_metrizable",
    "alexandroff",
    "interior",
    "closure",
    "exterior",
    "boundary",
    "point_roles",
    "limit_set",
    "isolated_set",
    "density_report",
    "pair_relation",
    "is_dense_in",
    "check_map",
    "is_continuous_at",
    "limits_at",
    "find_homeomorphism",
    "homeomorphic",
    "embeddings_equivalent",
    "restrict",
    "classify_cover",
    "relative_opens",
    "is_subcover",
    "is_refinement",
    "verify_pasting",
    "minimal_subcover",
    "is_connected",
    "is_connected_set",
    "connected_set_masks",
    "components",
    "component_partition",
    "mcp",
    "is_totally_disconnected",
    "is_locally_connected",
    "is_locally_connected_at",
    "classify_pair",
    "separation_report",
    "t1_minimum",
    "is_compact",
    "is_compact_set",
    "compactness_report",
    "hausdorff_compact_checks",
    "is_locally_compact",
    "enumerate_topologies",
    "count_topologies",
    "sweep_theorems",
    "parse_space",
    "emit_space",
    "parse_map",
    "emit_map",
    "parse_family",
    "emit_family",
    "parse_metric",
    "cli_dispatch",
)
