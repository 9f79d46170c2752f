"""Correctness gate: the answers each workload must produce.

The expected values are written down here, not computed by fintop:
the sweep's 47 theorem ids, and the OEIS counts at n = 5.
"""

from __future__ import annotations

SINGLE_SPACE_THEOREMS = (
    "interior_idempotent",
    "closure_idempotent",
    "interior_closure_extensivity",
    "open_closed_fixpoints",
    "interior_of_intersection",
    "closure_of_union",
    "exterior_of_union",
    "operator_monotonicity",
    "frontier_identities",
    "frontier_power",
    "interior_of_frontier",
    "open_meets_closure",
    "dense_laws",
    "nowhere_dense_laws",
    "dense_only_full_iff_discrete",
    "point_roles_match_operators",
    "neighborhood_intersection",
    "connectedness_equivalences",
    "connected_set_laws",
    "components_structure",
    "coarser_operator_comparison",
    "subspace_operator_comparison",
    "indistinguishability_equivalences",
    "t0_closure_injective",
    "finite_t1_rigidity",
    "separation_hereditary",
    "compactness_facts",
    "alexandroff_facts",
    "metric_topology_discrete",
    "locally_connected_equivalence",
    "base_laws",
    "fundamental_cover_laws",
    "constructor_laws",
    "product_quotient_preservation",
)

MAP_THEOREMS = (
    "continuity_equivalences",
    "local_vs_global_continuity",
    "base_continuity_criterion",
    "open_closed_map_characterizations",
    "pasting_open_covers",
    "pasting_closed_covers",
    "image_of_connected",
    "image_of_compact",
    "image_of_dense",
    "homeomorphism_transport",
    "hausdorff_limit_uniqueness",
    "t1_pullback_and_indiscrete_maps",
    "hausdorff_codomain_implications",
)

SWEEP3_THEOREMS = SINGLE_SPACE_THEOREMS + MAP_THEOREMS

#: Labeled topologies (OEIS A000798), homeomorphism classes (A001930) and
#: labeled T0 topologies (A001035) on 5 points.
ENUM5 = {"labeled": 6942, "classes": 139, "t0": 4231}


def check_sweep3(report: dict) -> list[str]:
    """One failure per theorem id that is missing, unexpected or not ok."""
    failures = []
    for name in SWEEP3_THEOREMS:
        entry = report.get(name)
        if entry is None:
            failures.append(f"{name}: missing from the sweep report")
        elif entry.get("ok") is not True or entry.get("counterexample") is not None:
            failures.append(f"{name}: {entry.get('counterexample')}")
    for name in sorted(set(report) - set(SWEEP3_THEOREMS)):
        failures.append(f"{name}: unexpected theorem id")
    return failures


def check_enum5(counts: dict) -> list[str]:
    """One failure per count that differs from its OEIS value."""
    return [
        f"{key}: got {counts.get(key)}, expected {want}"
        for key, want in ENUM5.items()
        if counts.get(key) != want
    ]
