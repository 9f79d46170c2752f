"""Cover-based compactness and its Hausdorff interactions.

Every point p of a finite space has a smallest open set U_p, the
intersection of the finitely many opens containing p (Alexandroff 1937).
`is_compact_set(s, A)` checks the witness family {U_p : p in A}: each U_p
must contain p and be a member of the opens, so together they cover A.
That suffices: given any open cover C of A, each p lies in some member of
C, which contains U_p; one such member per point is a subcover of at most
|A| members.  The check reads the space's minimal-open table, so a
corrupted table makes it fail.
"""

from __future__ import annotations

from . import separation as separation_mod
from .carrier import PointSet, _Record, same_carrier
from .errors import CodomainNotHausdorff
from .maps import FiniteMap, check_map
from .space import TopSpace


def is_compact(s: TopSpace) -> bool:
    """Every open covering of the carrier includes a finite subcover."""
    return is_compact_set(s, PointSet.full(s.n))


def is_compact_set(s: TopSpace, A: PointSet) -> bool:
    """Every relative open covering of A (by opens of the space) includes a
    finite subcover, witnessed by the minimal opens {U_p : p in A}."""
    same_carrier(s.n, A.n)
    opens = s.opens.mask_set
    return all(s.ups[p] >> p & 1 and s.ups[p] in opens for p in A.points())


class CompactnessReport(_Record):
    __slots__ = ("compact", "locally_compact")


def compactness_report(s: TopSpace) -> CompactnessReport:
    """The compactness and local compactness flags."""
    return CompactnessReport(is_compact(s), is_locally_compact(s))


def is_locally_compact(s: TopSpace) -> bool:
    """Every point p has a compact neighborhood, witnessed by U_p: it must
    contain p, and compactness of U_p then also checks that it is open."""
    return all(
        u >> p & 1 and is_compact_set(s, PointSet(u, s.n)) for p, u in enumerate(s.ups)
    )


def hausdorff_compact_checks(s1: TopSpace, s2: TopSpace, f: FiniteMap) -> dict:
    """Evaluate the compact-domain / Hausdorff-codomain map implications.

    Returns the truth values of: continuous => closed map, continuous
    bijection => homeomorphism, continuous injection => embedding.
    """
    if not separation_mod.is_t2(s2):
        raise CodomainNotHausdorff("codomain must be Hausdorff")
    rep = check_map(f, s1, s2)
    return {
        "continuous_implies_closed": (not rep.continuous) or rep.closed_map,
        "continuous_bijection_implies_homeomorphism": (
            not (rep.continuous and rep.injective and rep.surjective)
        )
        or rep.homeomorphism,
        "continuous_injection_implies_embedding": (
            not (rep.continuous and rep.injective)
        )
        or rep.embedding,
    }
