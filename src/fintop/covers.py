"""Cover classification, subcover/refinement relations, pasting-lemma
verification, and exact minimal subcovers.

Fundamentality is decided from the specialization preorder.  The theorem
sweep checks it against the literal criterion over all 2**n candidate
subsets, and checks the open-cover and closed-cover sufficient conditions.
"""

from __future__ import annotations

from typing import Optional

from .carrier import Family, PointSet, _Record, _join_bits, family_union, reach_bits, same_carrier
from .construct import subspace
from .errors import NotACover, NotFundamental
from .maps import FiniteMap, check_map, restrict
from .space import TopSpace


class CoverReport(_Record):
    """is_cover/open/closed/locally-finite flags; fundamental is None when
    the target is not the whole carrier (fundamentality is only defined for
    covers of the space)."""

    __slots__ = ("is_cover", "open_cover", "closed_cover", "locally_finite", "fundamental")


def relative_opens(s: TopSpace, S: int) -> frozenset[int]:
    """Masks of the subspace-opens of S, in original indexing."""
    return frozenset(S & m for m in s.opens.masks)


def _is_fundamental(s: TopSpace, members) -> bool:
    """True iff the topology coherent with the members is that of s.

    Let p ≤ q iff q ∈ U_p.  The opens of a subspace S are the up-sets of
    ≤|S, so U is coherent (U ∩ S open in S for every member S) iff U is an
    up-set of R*, the reflexive-transitive closure of the union R of the
    ≤|S.  Preorders with the same up-sets are equal (the least up-set
    holding p is p's reach), and R* ⊆ ≤ as ≤ is transitive, so the members
    are fundamental iff every p's R*-reach is all of U_p: O(|C|·n + n²) mask
    operations in place of the definition's 2**n candidate sets.
    """
    mins = s.ups
    step = [0] * s.n
    for S in members:
        for p in range(s.n):
            if S >> p & 1:
                step[p] |= mins[p] & S
    full = (1 << s.n) - 1
    return all(reach_bits(step, 1 << p, full) == u for p, u in enumerate(mins))


def classify_cover(
    s: TopSpace, C: Family, target: Optional[PointSet] = None
) -> CoverReport:
    """Classify C as a cover of `target` (default: the whole carrier)."""
    same_carrier(s.n, C.n)
    full = (1 << s.n) - 1
    tgt = full if target is None else target.bits
    if target is not None:
        same_carrier(target.n, s.n)
    is_cover = tgt & ~family_union(C).bits == 0
    opens = s.opens.mask_set
    closeds = s.closeds.mask_set
    open_cover = is_cover and all(m in opens for m in C.masks)
    closed_cover = is_cover and all(m in closeds for m in C.masks)
    # C is a finite family, so any neighborhood meets finitely many members.
    locally_finite = is_cover
    fundamental = None
    if tgt == full:
        fundamental = is_cover and _is_fundamental(s, C.masks)
    return CoverReport(is_cover, open_cover, closed_cover, locally_finite, fundamental)


def is_subcover(C_sub: Family, C: Family, target: PointSet, s: TopSpace) -> bool:
    """C_sub is a subfamily of C that still covers the target."""
    same_carrier(C_sub.n, C.n, target.n, s.n)
    pool = C.mask_set
    if any(m not in pool for m in C_sub.masks):
        return False
    return target.bits & ~family_union(C_sub).bits == 0


def is_refinement(C_ref: Family, C: Family, s: TopSpace) -> bool:
    """C_ref covers the carrier and every member sits inside some member of C."""
    same_carrier(C_ref.n, C.n, s.n)
    full = (1 << s.n) - 1
    if _join_bits(C_ref.masks, full) != full:
        return False
    return all(any(m & ~big == 0 for big in C.masks) for m in C_ref.masks)


def verify_pasting(s1: TopSpace, s2: TopSpace, f: FiniteMap, C: Family) -> bool:
    """Truth of: (every domain restriction of f to a member is continuous)
    implies (f is continuous).  C must be a fundamental cover of s1."""
    if not classify_cover(s1, C).fundamental:
        raise NotFundamental("pasting requires a fundamental cover of the domain")
    for member in C.members:
        sub, _ = subspace(s1, member)
        if not check_map(restrict(f, s1, s2, member), sub, s2).continuous:
            return True  # the antecedent fails, so the implication holds
    return check_map(f, s1, s2).continuous


def minimal_subcover(s: TopSpace, C: Family, target: Optional[PointSet] = None) -> Family:
    """Exact minimum-cardinality subcover, ties broken lexicographically by
    member bitmasks (branch-and-bound over members in ascending order)."""
    same_carrier(s.n, C.n)
    full = (1 << s.n) - 1
    tgt = full if target is None else target.bits
    if target is not None:
        same_carrier(target.n, s.n)
    masks = list(C.masks)
    if tgt & ~family_union(C).bits:
        raise NotACover(f"family does not cover target {tgt:#x}")
    best: Optional[tuple[int, ...]] = None

    def bound(uncovered: int) -> int:
        # Each further member covers at most `biggest` uncovered points; some
        # member holds each point of the target, so biggest > 0.
        biggest = max((m & uncovered).bit_count() for m in masks)
        return -(-uncovered.bit_count() // biggest)

    def search(chosen: list[int], uncovered: int) -> None:
        nonlocal best
        if not uncovered:
            cand = tuple(sorted(chosen))
            if best is None or (len(cand), cand) < (len(best), best):
                best = cand
            return
        if best is not None and len(chosen) + bound(uncovered) > len(best):
            return
        # Branch on the lowest uncovered point: some chosen member must hold it.
        pivot = uncovered & -uncovered
        for m in masks:
            if m & pivot and m not in chosen:
                chosen.append(m)
                search(chosen, uncovered & ~m)
                chosen.pop()

    search([], tgt)
    assert best is not None
    return Family.of(C.n, best)
