"""Interior, closure, exterior, boundary, point roles, and density notions.

Interior/closure/exterior/boundary are computed from the open/closed
families; the per-point role flags are computed from raw neighborhood
quantifiers instead, so the identities between the two routes stay
checkable rather than being true by construction.
"""

from __future__ import annotations

from .carrier import PointSet, _Record, _check_point, _join_bits, _meet_bits, same_carrier
from .space import TopSpace


def interior(s: TopSpace, A: PointSet) -> PointSet:
    """Union of all opens contained in A (the largest open inside A)."""
    same_carrier(s.n, A.n)
    return PointSet(_join_bits(s.opens.masks, A.bits), s.n)


def closure(s: TopSpace, A: PointSet) -> PointSet:
    """Intersection of all closeds containing A (the smallest closed over A)."""
    same_carrier(s.n, A.n)
    return PointSet(_meet_bits(s.closeds.masks, A.bits, (1 << s.n) - 1), s.n)


def exterior(s: TopSpace, A: PointSet) -> PointSet:
    """Interior of the complement of A."""
    return interior(s, A.complement())


def boundary(s: TopSpace, A: PointSet) -> PointSet:
    """Closure minus interior."""
    return closure(s, A) - interior(s, A)


class RoleFlags(_Record):
    """Classification of one point relative to one set."""

    __slots__ = ("interior", "exterior", "boundary", "adherent", "limit", "isolated")


def point_roles(s: TopSpace, A: PointSet, p: int) -> RoleFlags:
    """Classify p against A from the neighborhood definitions directly."""
    same_carrier(s.n, A.n)
    _check_point(s.n, p)
    pbit = 1 << p
    neis = [m for m in s.opens.masks if m & pbit]
    interior_pt = any(m & ~A.bits == 0 for m in neis)
    exterior_pt = any(m & A.bits == 0 for m in neis)
    boundary_pt = not interior_pt and not exterior_pt
    adherent = all(m & A.bits for m in neis)
    limit = all(m & A.bits & ~pbit for m in neis)
    isolated = any(m & A.bits == pbit for m in neis)
    return RoleFlags(interior_pt, exterior_pt, boundary_pt, adherent, limit, isolated)


def limit_set(s: TopSpace, A: PointSet) -> PointSet:
    """Points whose every neighborhood meets A off the point itself."""
    same_carrier(s.n, A.n)
    bits = 0
    for p in range(s.n):
        pbit = 1 << p
        if all(m & A.bits & ~pbit for m in s.opens.masks if m & pbit):
            bits |= pbit
    return PointSet(bits, s.n)


def isolated_set(s: TopSpace, A: PointSet) -> PointSet:
    """Points of A having a neighborhood meeting A exactly in themselves."""
    same_carrier(s.n, A.n)
    bits = 0
    for p in A.points():
        pbit = 1 << p
        if any(m & pbit and m & A.bits == pbit for m in s.opens.masks):
            bits |= pbit
    return PointSet(bits, s.n)


class DensityReport(_Record):
    __slots__ = ("dense", "dense_in_itself", "nowhere_dense", "perfect")


def density_report(s: TopSpace, A: PointSet) -> DensityReport:
    same_carrier(s.n, A.n)
    full = (1 << s.n) - 1
    cl = closure(s, A)
    dense = cl.bits == full
    nowhere_dense = interior(s, cl).bits == 0
    dense_in_itself = isolated_set(s, A).bits == 0
    perfect = dense_in_itself and A.bits in s.closeds
    return DensityReport(dense, dense_in_itself, nowhere_dense, perfect)


def pair_relation(s: TopSpace, A: PointSet, B: PointSet) -> str:
    """Classify the pair as "glued", "free", or "neither".

    Glued: each set meets the other's closure; free: neither does.
    """
    a_meets = (A & closure(s, B)).bits != 0
    b_meets = (B & closure(s, A)).bits != 0
    if a_meets and b_meets:
        return "glued"
    if not a_meets and not b_meets:
        return "free"
    return "neither"


def is_dense_in(s: TopSpace, A_prime: PointSet, A: PointSet) -> bool:
    """True iff the closure of A_prime includes A."""
    return A <= closure(s, A_prime)

