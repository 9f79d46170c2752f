"""Constructors: bases, sub-bases, subspaces, binary products, quotients,
metric topologies, and the Alexandroff (one-point) extension.

A finite topology is the family of unions of its minimal opens U_p, the
intersection of the opens holding p (Alexandroff 1937, "Diskrete Räume";
Stong 1966, "Finite topological spaces").  One kernel, :func:`_unions`,
builds every generated topology from its U_p.  With M_p the intersection
of the generator's members holding p:

- *Base.*  A covering family B is a base iff every M_p is a member.  If
  so, members a, b holding p give p ∈ M_p ⊆ a ∩ b.  Conversely, applying
  the base condition to one member holding p at a time gives a member c
  with p ∈ c ⊆ M_p, and M_p ⊆ c as c holds p.  Every member b is the union
  of the M_p with p ∈ b, so B and {M_p} have the same unions: U_p = M_p.
  So when some M_p is not a member, some pair a, b holding p has no member
  holding p inside a ∩ b: the base condition fails at a pair.
- *Sub-base.*  The base it generates is the intersections of its nonempty
  finite subfamilies, and the least of them holding p is M_p: U_p = M_p,
  with no intersection closure and no base check.
- *Product.*  The rectangles U × V of opens are a base, and the least one
  holding (i, j) is U_i × U_j, the meet of the preimages of U_i and U_j
  under the two projections.

Every constructor's family is a topology by the proof in its docstring, so
it is built without validation, which is kept for families from outside.
"""

from __future__ import annotations

from typing import Optional, Sequence

from . import compact as compact_mod
from .carrier import (
    MAX_CARRIER,
    Family,
    Partition,
    PointSet,
    _Record,
    _set,
    check_carrier,
    family_union,
    reach_bits,
    same_carrier,
)
from .errors import (
    CarrierTooLarge,
    CrossCheckFailure,
    InvalidBase,
    InvalidMetric,
    SubbaseDoesNotCover,
)
from .maps import FiniteMap, image_bits, preimage_bits
from .space import MAX_OPENS_LOG2, TopSpace, _build, _point_meets


class BaseProblem(_Record):
    """Why a family is not a base: it fails to cover ("NotCovering"), or
    some pairwise intersection is not a union of members
    ("IntersectionNotUnion", witnessed by the pair)."""

    __slots__ = ("kind", "witness")

    def __init__(self, kind: str, witness: tuple[PointSet, ...] = ()) -> None:
        _set(self, "kind", kind)
        _set(self, "witness", witness)


def check_base_conditions(n: int, B: Family) -> Optional[BaseProblem]:
    """None iff B covers the carrier and every pairwise intersection is a
    union of members.

    A covering B is accepted when the meet of the members holding p is a
    member for every point p (the module docstring proves this equivalent).
    Only a rejected B is scanned pair by pair, point by point, for the
    least pair whose intersection some point cannot be resolved in.
    """
    check_carrier(n)
    same_carrier(B.n, n)
    if family_union(B).bits != (1 << n) - 1:
        return BaseProblem("NotCovering")
    masks = B.masks
    if B.mask_set.issuperset(_point_meets(n, masks)):
        return None
    # Some M_p is not a member, so some pair fails (module docstring): the
    # scan always finds one.
    a, b = next(
        (a, b)
        for i, a in enumerate(masks)
        for b in masks[i:]
        if any(
            (a & b) >> p & 1 and not any(m >> p & 1 and m & ~(a & b) == 0 for m in masks)
            for p in range(n)
        )
    )
    return BaseProblem("IntersectionNotUnion", (PointSet(a, n), PointSet(b, n)))


def _unions(n: int, ups: Sequence[int]) -> TopSpace:
    """The space whose opens are the unions of subfamilies of ``ups``,
    ``ups[p]`` being U_p of a generated topology (see the module
    docstring): O(n·|opens|).

    Raises :class:`CarrierTooLarge` as soon as more than 2**MAX_OPENS_LOG2
    opens are found, the bound ``discrete`` keeps.
    """
    opens = {0}
    for u in set(ups):
        opens.update([m | u for m in opens])
        if len(opens) > 1 << MAX_OPENS_LOG2:
            raise CarrierTooLarge(
                f"generated topology on {n} points has over 2**{MAX_OPENS_LOG2} opens"
            )
    return _build(n, sorted(opens), ups)


def topology_from_base(n: int, B: Family) -> TopSpace:
    """The coarsest topology containing B: all unions of subfamilies."""
    problem = check_base_conditions(n, B)
    if problem is not None:
        raise InvalidBase(problem)
    return _unions(n, _point_meets(n, B.masks))


def is_base_for(s: TopSpace, B: Family) -> bool:
    """True iff B consists of opens and every open is a union of members."""
    same_carrier(s.n, B.n)
    opens = s.opens.mask_set
    if any(m not in opens for m in B.masks):
        return False
    for u in s.opens.masks:
        bits = 0
        for m in B.masks:
            if m & ~u == 0:
                bits |= m
        if bits != u:
            return False
    return True


def base_generates_same(n: int, B1: Family, B2: Family) -> str:
    """Compare the topologies generated by two bases.

    Returns "equal", "t1_coarser", "t2_coarser", or "incomparable".  The
    subset test on generated topologies is cross-asserted against the
    pointwise refinement criterion on the bases themselves.
    """
    t1 = topology_from_base(n, B1)
    t2 = topology_from_base(n, B2)

    def pointwise_coarser(coarse: Family, fine: Family) -> bool:
        # Every member of `coarse` is resolvable pointwise by `fine`.
        for b in coarse.masks:
            for p in range(n):
                if not b >> p & 1:
                    continue
                if not any(m >> p & 1 and m & ~b == 0 for m in fine.masks):
                    return False
        return True

    one_sub_two = t1.opens.mask_set <= t2.opens.mask_set
    two_sub_one = t2.opens.mask_set <= t1.opens.mask_set
    if one_sub_two != pointwise_coarser(B1, B2) or two_sub_one != pointwise_coarser(
        B2, B1
    ):
        raise CrossCheckFailure("base comparison criteria disagree")
    if one_sub_two and two_sub_one:
        return "equal"
    if one_sub_two:
        return "t1_coarser"
    if two_sub_one:
        return "t2_coarser"
    return "incomparable"


def topology_from_subbase(n: int, S: Family) -> TopSpace:
    """Intersections of nonempty finite subfamilies form a base; generate.

    The sub-base must cover the carrier, otherwise the generated family
    would miss the carrier itself.
    """
    check_carrier(n)
    same_carrier(S.n, n)
    full = (1 << n) - 1
    union = family_union(S).bits
    if union != full:
        raise SubbaseDoesNotCover(f"sub-base covers {union:#x}, carrier is {full:#x}")
    return _unions(n, _point_meets(n, S.masks))


def subspace(s: TopSpace, Y: PointSet) -> tuple[TopSpace, FiniteMap]:
    """The induced topology on Y, with points re-indexed 0..|Y|-1 in
    ascending original order: the preimages of the opens under the
    inclusion map, which is also returned.

    Preimages preserve unions and intersections, so they form a topology,
    and the least one holding p is the trace U_p ∩ Y."""
    same_carrier(s.n, Y.n)
    points = Y.points()
    opens = sorted({preimage_bits(points, m) for m in s.opens.masks})
    ups = [preimage_bits(points, s.ups[p]) for p in points]
    return _build(len(points), opens, ups), FiniteMap(len(points), s.n, points)


class PairEncoding(_Record):
    """Bijection {0..n1-1} x {0..n2-1} -> {0..n1*n2-1} via (i, j) -> i*n2 + j."""

    __slots__ = ("n1", "n2")

    def __init__(self, n1: int, n2: int) -> None:
        _set(self, "n1", n1)
        _set(self, "n2", n2)

    def encode(self, i: int, j: int) -> int:
        if not (0 <= i < self.n1 and 0 <= j < self.n2):
            raise ValueError(f"pair ({i},{j}) outside {self.n1}x{self.n2}")
        return i * self.n2 + j

    def decode(self, k: int) -> tuple[int, int]:
        if not 0 <= k < self.n1 * self.n2:
            raise ValueError(f"index {k} outside product carrier")
        return divmod(k, self.n2)

    def projection1(self) -> FiniteMap:
        return FiniteMap(self.n1 * self.n2, self.n1, tuple(i for i in range(self.n1) for _ in range(self.n2)))

    def projection2(self) -> FiniteMap:
        return FiniteMap(self.n1 * self.n2, self.n2, tuple(j for _ in range(self.n1) for j in range(self.n2)))


def product(s1: TopSpace, s2: TopSpace) -> tuple[TopSpace, PairEncoding]:
    """Binary product: the topology generated by the base {U x V}, from
    its minimal opens U_i x U_j (see the module docstring)."""
    n = s1.n * s2.n
    if n > MAX_CARRIER:
        raise CarrierTooLarge(f"product carrier {s1.n}*{s2.n} exceeds {MAX_CARRIER}")
    enc = PairEncoding(s1.n, s2.n)
    proj1, proj2 = enc.projection1().table, enc.projection2().table
    pre2 = [preimage_bits(proj2, v) for v in s2.ups]
    ups = [preimage_bits(proj1, u) & v for u in s1.ups for v in pre2]
    return _unions(n, ups), enc


def quotient(s: TopSpace, P: Partition) -> tuple[TopSpace, FiniteMap]:
    """Quotient by a partition: a set of blocks is open iff its preimage
    under the projection (the union of its blocks) is open; blocks are
    indexed by smallest member.

    Such a set is the image of its preimage, an open that is a union of
    blocks; so the quotient opens are the images of the opens u with
    Pre(Img(u)) = u, found in O(|opens|·n) without the 2**k sets of blocks.
    Preimages preserve unions and intersections, so these form a topology.
    Opens are up-sets, so U_b is what b reaches by its points' Img(U_p).
    """
    same_carrier(s.n, P.n)
    k = len(P.blocks)
    index = P.block_index()
    opens = set()
    for u in s.opens.masks:
        q = image_bits(index, u)
        if preimage_bits(index, q) == u:  # u is a union of blocks
            opens.add(q)
    step = [0] * k
    for p, u in enumerate(s.ups):
        step[index[p]] |= image_bits(index, u)
    ups = [reach_bits(step, 1 << b, (1 << k) - 1) for b in range(k)]
    return _build(k, sorted(opens), ups), FiniteMap(s.n, k, index)


class MetricTable(_Record):
    """Exact integer distances between carrier points."""

    __slots__ = ("n", "d")

    def __init__(self, n: int, d: tuple[tuple[int, ...], ...]) -> None:
        check_carrier(n)
        if len(d) != n or any(len(row) != n for row in d):
            raise InvalidMetric("shape", (n,))
        for i in range(n):
            if d[i][i] != 0:
                raise InvalidMetric("diagonal", (i,))
            for j in range(n):
                if d[i][j] < 0 or (i != j and d[i][j] == 0):
                    raise InvalidMetric("positivity", (i, j))
                if d[i][j] != d[j][i]:
                    raise InvalidMetric("symmetry", (i, j))
        for i in range(n):
            for j in range(n):
                for k in range(n):
                    if d[i][k] > d[i][j] + d[j][k]:
                        raise InvalidMetric("triangle", (i, j, k))
        _set(self, "n", n)
        _set(self, "d", d)

    @classmethod
    def of(cls, rows: Sequence[Sequence[int]]) -> "MetricTable":
        return cls(len(rows), tuple(tuple(row) for row in rows))


def metric_topology(m: MetricTable) -> TopSpace:
    """Topology generated by the open balls of the metric.

    Ball membership changes only at the distinct distance values, so radii
    are sampled there (plus one value past the maximum).
    """
    n = m.n
    values = sorted({v for row in m.d for v in row if v > 0})
    radii = values + [(values[-1] if values else 0) + 1]
    balls = set()
    for p in range(n):
        for r in radii:
            bits = 0
            for x in range(n):
                if m.d[p][x] < r:
                    bits |= 1 << x
            balls.add(bits)
    return topology_from_base(n, Family.of(n, balls))


def is_metrizable(s: TopSpace) -> bool:
    """A finite space is metrizable iff it is discrete (every metric on a
    finite carrier induces the discrete topology)."""
    return len(s.opens) == 1 << s.n


def alexandroff(s: TopSpace) -> TopSpace:
    """One-point compactification: adjoin a point at infinity whose
    neighborhoods are complements of closed compact sets.

    The complement of an open is closed and, being finite, compact, so the
    opens are τ ∪ {U ∪ {∞} : U ∈ τ}: a topology, with U_∞ = {∞}."""
    n = s.n
    check_carrier(n + 1)
    inf = 1 << n
    closed = s.closeds.mask_set
    at_inf = []
    for u in s.opens.masks:
        k = (1 << n) - 1 & ~u
        # The complement of an open is always closed and compact; both halves
        # are checked against the space's closed-set and minimal-open tables.
        if k in closed and compact_mod.is_compact_set(s, PointSet(k, n)):
            at_inf.append(u | inf)
    return _build(n + 1, s.opens.masks + tuple(at_inf), (*s.ups, inf))
