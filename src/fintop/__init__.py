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

Adding an operation is one row of :data:`OPERATION_TABLE`: the package
binds it from the module the row names, lists it in :data:`OPERATIONS`,
and files it under the row's subcommand in :data:`fintop.cli.COVERAGE`.
"""

import importlib as _importlib

from .carrier import (
    MAX_CARRIER,
    Family,
    Partition,
    PointSet,
    check_carrier,
    same_carrier,
)
from .compact import CompactnessReport
from .construct import BaseProblem, MetricTable, PairEncoding
from .covers import CoverReport
from .docio import DocumentError, canonical_json
from .enumeration import (
    PREDICATES,
    EnumConfig,
    all_spaces,
    canonical_form,
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
from .maps import FiniteMap, MapReport
from .operators import DensityReport, RoleFlags
from .separation import PairClass, SeparationReport
from .space import VIOLATION_KINDS, AxiomViolation, TopSpace

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


#: The spec-level operations of the library, one row each: the operation's
#: name, the module that defines it, and the subcommand that reaches it
#: (``-`` where none does).
OPERATION_TABLE = tuple(
    tuple(row.split())
    for row in """
family_union             carrier     cover
family_intersection      carrier     -
subsets_iter             carrier     -
validate_topology        space       validate
space                    space       sweep
discrete                 space       generate
indiscrete               space       generate
closed_sets              space       ops
clopen_sets              space       ops
neighborhoods            space       ops
minimal_open             space       ops
compare                  space       validate
is_finer                 space       validate
meet_topologies          space       check
one_point_extension      space       alexandroff
check_base_conditions    construct   generate
topology_from_base       construct   generate
is_base_for              construct   generate
base_generates_same      construct   generate
topology_from_subbase    construct   generate
subspace                 construct   subspace
product                  construct   product
quotient                 construct   quotient
metric_topology          construct   generate
is_metrizable            construct   check
alexandroff              construct   alexandroff
interior                 operators   ops
closure                  operators   ops
exterior                 operators   ops
boundary                 operators   ops
point_roles              operators   ops
limit_set                operators   ops
isolated_set             operators   ops
density_report           operators   ops
pair_relation            operators   ops
is_dense_in              operators   ops
check_map                maps        homeo
is_continuous_at         maps        homeo
limits_at                maps        homeo
find_homeomorphism       maps        homeo
homeomorphic             maps        homeo
embeddings_equivalent    maps        homeo
restrict                 maps        homeo
classify_cover           covers      cover
relative_opens           covers      sweep
is_subcover              covers      cover
is_refinement            covers      cover
verify_pasting           covers      cover
minimal_subcover         covers      cover
is_connected             connect     check
is_connected_set         connect     check
connected_set_masks      connect     sweep
components               connect     components
component_partition      connect     components
mcp                      connect     components
is_totally_disconnected  connect     check
is_locally_connected     connect     check
is_locally_connected_at  connect     sweep
classify_pair            separation  sweep
separation_report        separation  check
t1_minimum               separation  check
is_compact               compact     check
is_compact_set           compact     check
compactness_report       compact     check
hausdorff_compact_checks compact     sweep
is_locally_compact       compact     check
enumerate_topologies     enumeration enumerate
count_topologies         enumeration enumerate
sweep_theorems           theorems    sweep
parse_space              docio       validate
emit_space               docio       validate
parse_map                docio       cover
emit_map                 docio       homeo
parse_family             docio       generate
emit_family              docio       generate
parse_metric             docio       generate
cli_dispatch             cli         -
""".strip().splitlines()
)
OPERATIONS = tuple(name for name, _, _ in OPERATION_TABLE)

# Bind each operation from its module; the rows of ``cli`` and ``theorems``
# are resolved by ``__getattr__`` on first use.
globals().update(
    (name, getattr(_importlib.import_module(f".{module}", __name__), name))
    for name, module, _ in OPERATION_TABLE
    if module not in ("cli", "theorems")
)
