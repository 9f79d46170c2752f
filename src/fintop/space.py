"""Validated topological spaces over finite carriers.

A topology is a canonical family of "open" bitmasks containing the empty
set and the carrier and closed under pairwise intersection and union
(pairwise union closure is equivalent to arbitrary-union closure for
finite families).  A space stores its opens (a ``Family``) and ``ups``,
the mask of each point's minimal open U_p, which encodes the
specialization preorder.  The closed-set family and the down-sets cl{p}
(``downs``) are built on first read and cached.

A family is accepted by counting.  Let F hold ∅ and the carrier X and no
member outside X, let U_p be the intersection of the members that contain
p (so p ∈ U_p, as X ∈ F), and let p ≤ q mean q ∈ U_p, the specialization
preorder.  Every member m is an up-set of ≤ (p ∈ m gives U_p ⊆ m), and the
up-sets of a preorder on a finite set form a topology (Alexandroff): they
are closed under union and intersection.  If F is a topology it holds
each U_p (a finite intersection of opens) and so every up-set R, the union
of the U_p with p ∈ R.  So F is a topology iff it holds every up-set of
≤, and as its members are among them, iff F has as many members as ≤ has
up-sets.

- The preorder comes from one column per point: the int with byte i set
  to 1 when member i holds p, sliced from the masks packed 4 bytes each.
  Then q ∈ U_p iff column p ⊆ column q, and the n² tests give every U_p
  and every cl{p} = {q : p ∈ U_q}.
- The up-sets inside R number N(R) = N(R∖↓x) + N(R∖↑x), with x the least
  point of R (an up-set either misses x, and with it ↓x = cl{x}, or holds
  x and ↑x = U_x) and N(∅) = 1, memoized on R.  The count stops as soon
  as it passes |F|.  A subproblem it visits is either memoized, and adds
  at least 1 to the count, or split in two, except the at most n on the
  path where it stops; so a check visits at most 2|F| + n + 1
  subproblems, whether F is accepted or not.

The check is O(n² + |F|) interpreted steps and O(n²·|F|) byte operations
inside big-int tests.

A family already known to be a topology (one the generator or a
constructor yields) is built with its U_p, not validated again.
Construction and the map sweep read U_p from the same column kernel,
:func:`_column_preorder`, and ``validate_topology`` runs it once per call.

A rejected family is reported with the lexicographically least pair of
members whose intersection, and whose union, is not a member.  Let G be
the family with ∅ and X added.  If G fails the check above, the pairs are
scanned in order, but once |F|² reaches n·2^n (and n ≤ 20, which bounds
the 2^n table) the scan for one kind of pair runs only after an
O(2^n·n) subset-OR transform has shown that such a pair exists: F is
closed under union iff, for every set S, the union J(S) of the members
inside S is ∅ or a member, and closed under intersection iff the
complements are closed under union.  If G is a topology, every a ∩ b and
a ∪ b lies in G, so the only missing ones are ∅ (when ∅ ∉ F) and X (when
X ∉ F), and both witnesses take O(|F|·n) with U_p the minimal opens of G:

- the members disjoint from a are the opens inside
  I_a = ⋃{U_p : U_p ∩ a = ∅}, which is itself a member when I_a > a; so
  a pair (a, b > a) exists iff I_a > a, and b is the least member after a
  that misses it;
- the members a with a ∪ b = X are the opens holding X∖b, the least of
  which is V_b = ⋃{U_p : p ∉ b}; so the least pair is the least (V_b, b)
  with V_b < b.
"""

from __future__ import annotations

import sys
from array import array
from operator import and_, or_
from typing import Iterable, Sequence, Union

from .carrier import (
    MAX_CARRIER,
    Family,
    PointSet,
    _Record,
    _check_point,
    _join_bits,
    check_carrier,
    mask_points,
    reach_bits,
    same_carrier,
)
from .errors import CarrierTooLarge, EmptyList, InvalidTopology

#: ``discrete`` is capped at MAX_OPENS_LOG2 points and a generated topology
#: at 2**MAX_OPENS_LOG2 opens, to bound the opens held in memory.
MAX_OPENS_LOG2 = 20

# validate_topology reports one violation per kind, with the
# lexicographically smallest witness masks, so goldens are deterministic.
VIOLATION_KINDS = (
    "MissingEmpty",
    "MissingCarrier",
    "NotIntersectionClosed",
    "NotUnionClosed",
    "MemberOutOfCarrier",
)


class AxiomViolation(_Record):
    __slots__ = ("kind", "witness")

    def __init__(self, kind: str, witness: tuple[PointSet, ...] = ()) -> None:
        if kind not in VIOLATION_KINDS:
            raise ValueError(f"unknown violation kind {kind!r}")
        _Record.__init__(self, kind, witness)


class TopSpace(_Record):
    """A validated topological space.

    Construct via :func:`validate_topology` or :func:`space`.  A space is
    ``n``, its ``opens`` and ``ups``, the mask of each point's minimal open
    set U_p.  ``closeds`` and ``downs`` (the cl{p} masks) are built on
    first read and cached; the caches are not constructor arguments.
    Equality, hashing and repr use ``n`` and ``opens`` only.
    """

    __slots__ = ("n", "opens", "ups", "_closeds", "_downs")
    _compared = ("n", "opens")

    def __init__(self, n: int, opens: Family, ups: tuple[int, ...]) -> None:
        _set_n(self, n)
        _set_opens(self, opens)
        _set_ups(self, ups)
        _set_closeds(self, None)
        _set_downs(self, None)

    @property
    def closeds(self) -> Family:
        closeds = self._closeds
        if closeds is None:
            full = (1 << self.n) - 1
            closeds = Family._from_masks(self.n, [full ^ m for m in reversed(self.opens.masks)])
            _set_closeds(self, closeds)
        return closeds

    @property
    def downs(self) -> tuple[int, ...]:
        """cl{p} for every point p: the mask of the q with p ∈ U_q."""
        downs = self._downs
        if downs is None:
            cl = [0] * self.n
            for q, u in enumerate(self.ups):
                for p in mask_points(u):
                    cl[p] |= 1 << q
            downs = tuple(cl)
            _set_downs(self, downs)
        return downs


_set_n, _set_opens, _set_ups, _set_closeds, _set_downs = TopSpace._setters


def _canonical_masks(n: int, fam) -> tuple[list[int], list[AxiomViolation]]:
    """Normalize the input family to a sorted list of masks, flagging
    out-of-carrier members."""
    full = (1 << n) - 1
    raw = []
    if isinstance(fam, Family):
        same_carrier(fam.n, n)
        raw = list(fam.masks)
    else:
        for m in fam:
            if isinstance(m, int):
                raw.append(m)
            elif isinstance(m, PointSet):
                same_carrier(m.n, n)
                raw.append(m.bits)
            else:
                bits = 0
                for p in m:
                    if p < 0:
                        raise ValueError(f"negative point index {p}")
                    # Any p >= MAX_CARRIER lies outside every carrier: clamp
                    # it so that no int of p bits is built.
                    bits |= 1 << min(p, MAX_CARRIER)
                raw.append(bits)
    violations = []
    if raw and (min(raw) < 0 or max(raw) > full):
        bad = next(m for m in sorted(raw) if m < 0 or m & ~full)
        # Witness the stray member over the smallest carrier that holds it;
        # a negative member, or one wider than every carrier, has none.
        wide = max(n, bad.bit_length())
        witness = (PointSet(bad, wide),) if bad >= 0 and wide <= MAX_CARRIER else ()
        violations.append(AxiomViolation("MemberOutOfCarrier", witness))
        raw = [m for m in raw if 0 <= m <= full]
    return sorted(set(raw)), violations


#: Bit k of a byte moved to bit 0, for each k: a column's byte lane.
_LANE_BIT = tuple(bytes(b >> k & 1 for b in range(256)) for k in range(8))


def _column_preorder(n: int, masks: Iterable[int]) -> tuple[list[int], list[int]]:
    """U_p and cl{p} for every point p of any family of masks inside carrier
    n: q ∈ U_p iff every member that holds p holds q, read from one column
    per point, the int with byte i set to 1 when member i holds p."""
    packed = array("I", masks)
    if sys.byteorder == "big":
        packed.byteswap()
    raw = packed.tobytes()
    width = packed.itemsize
    cols = [
        int.from_bytes(raw[p >> 3 :: width].translate(_LANE_BIT[p & 7]), "little")
        for p in range(n)
    ]
    ups = [0] * n
    downs = [0] * n
    for p, a in enumerate(cols):
        for q, b in enumerate(cols):
            if a & b == a:
                ups[p] |= 1 << q
                downs[q] |= 1 << p
    return ups, downs


def _up_set_count(ups: Sequence[int], downs: Sequence[int], limit: int, memo: dict) -> int:
    """The number of up-sets of the preorder in which point p has up-set
    ``ups[p]`` and down-set ``downs[p]``, or, once that number is known to
    pass `limit`, some number above it.  N(R) = N(R∖↓x) + N(R∖↑x) for x the
    least point of R, and N(∅) = 1; `memo` keeps every exact N(R) on R."""
    memo[0] = 1

    def count(r: int, room: int) -> int:
        # N(r) for an r not in `memo`, or a number above `room` once N(r)
        # passes it; every N in `memo` is at least 1.
        p = (r & -r).bit_length() - 1
        rest = r & ~downs[p]
        got = memo.get(rest) or count(rest, room)
        if got <= room:
            rest = r & ~ups[p]
            got += memo.get(rest) or count(rest, room - got)
            if got <= room:
                memo[r] = got
        return got

    full = (1 << len(ups)) - 1
    return memo.get(full) or count(full, limit)


def _minimal_opens(n: int, masks: list[int]) -> list[int] | None:
    """The per-point minimal opens U_p of a sorted, deduplicated family that
    holds ∅ and the carrier, or None unless the family has as many members
    as the preorder of the U_p has up-sets (see the module docstring: then
    and only then is the family a topology)."""
    ups, downs = _column_preorder(n, masks)
    if _up_set_count(ups, downs, len(masks), {}) != len(masks):
        return None
    return ups


def _pair_violations(
    n: int, masks: list[int], mask_set: set[int], mins: list[int] | None
) -> list[AxiomViolation]:
    """The lexicographically least pair whose intersection, and the least
    pair whose union, is not a member: in O(|F|·n) from ``mins``, the
    minimal opens of the family with ∅ and the carrier added, when that is
    a topology (see the module docstring), else (``mins`` None) by
    :func:`_least_witness`."""
    full = (1 << n) - 1
    if mins is None:
        inter_witness = _least_witness(n, masks, mask_set, and_, [full ^ m for m in masks])
        union_witness = _least_witness(n, masks, mask_set, or_, masks)
    else:
        inter_witness = None if 0 in mask_set else _disjoint_witness(n, masks, mins)
        union_witness = None if full in mask_set else _covering_witness(n, masks, mins)
    violations = []
    for kind, witness in (
        ("NotIntersectionClosed", inter_witness),
        ("NotUnionClosed", union_witness),
    ):
        if witness is not None:
            a, b = witness
            violations.append(AxiomViolation(kind, (PointSet(a, n), PointSet(b, n))))
    return violations


def _least_witness(
    n: int, masks: list[int], mask_set: set[int], op, dual: list[int]
) -> tuple[int, int] | None:
    """The least pair a < b of members with ``op(a, b)`` not a member, or
    None.  The pairs are scanned in order, but once |F|² reaches n·2^n
    that scan runs only after :func:`_union_closed` of `dual` (the members
    for ∪, their complements for ∩) has shown that some pair fails."""
    if n <= MAX_OPENS_LOG2 and len(masks) ** 2 >= n << n and _union_closed(n, dual):
        return None
    for i, a in enumerate(masks):
        for b in masks[i + 1 :]:
            if op(a, b) not in mask_set:
                return a, b
    return None


def _union_closed(n: int, family: list[int]) -> bool:
    """Whether the union of any two members of `family` is a member, in
    O(2^n·n): J(S), the union of the members inside S, must be ∅ or a
    member for every S (S = a ∪ b gives J(S) = a ∪ b, and every J(S) is a
    union of members), and J is one subset-OR transform."""
    size = 1 << n
    joins = [0] * size
    for m in family:
        joins[m] = m
    step = 1
    while step < size:
        for lo in range(0, size, 2 * step):
            hi = lo + step
            joins[hi : hi + step] = map(or_, joins[hi : hi + step], joins[lo:hi])
        step <<= 1
    return set(joins).issubset([0, *family])


def _disjoint_witness(n: int, masks: list[int], mins: list[int]) -> tuple[int, int] | None:
    """The least disjoint pair a < b of members of a family whose union with
    {∅, X} is a topology with minimal opens ``mins``."""
    full = (1 << n) - 1
    for i, a in enumerate(masks):
        # Is the largest open disjoint from a past a?
        if _join_bits(mins, full ^ a) > a:
            return a, next(b for b in masks[i + 1 :] if not a & b)
    return None


def _covering_witness(n: int, masks: list[int], mins: list[int]) -> tuple[int, int] | None:
    """The least pair a < b of members with union X, for a family whose
    union with {∅, X} is a topology with minimal opens ``mins``."""
    best = None
    for b in masks:
        hull = 0  # the least open holding X \ b
        for p in range(n):
            if not b >> p & 1:
                hull |= mins[p]
        if hull < b and (best is None or hull < best[0]):
            best = (hull, b)
    return best


def validate_topology(
    n: int, fam: Union[Family, Iterable]
) -> Union[TopSpace, list[AxiomViolation]]:
    """Check the topology axioms for a family of subsets of {0..n-1}.

    Returns a :class:`TopSpace` on success, otherwise the list of every
    violation found (one per kind, minimal witnesses).  Violations are
    returned rather than raised so enumeration filters can count failures.

    A family holding ∅ and the carrier, with no member outside it, is
    accepted when it has as many members as the preorder of its U_p has
    up-sets, U_p being the intersection of the members that contain p
    (the module docstring proves this equivalent to the axioms); the U_p
    become ``ups``.  The preorder costs n² tests on |F|-byte ints, and the
    memoized count stops once it passes |F|, after at most 2|F| + n + 1
    subproblems.  Every other family gets the least intersection
    and union witnesses, found by a scan over pairs only when the family
    with ∅ and the carrier added is still not a topology; for a large
    family that scan waits until a subset-OR transform has shown that a
    pair of its kind fails.
    """
    check_carrier(n)
    full = (1 << n) - 1
    masks, violations = _canonical_masks(n, fam)
    mask_set = set(masks)
    if 0 not in mask_set:
        violations.append(AxiomViolation("MissingEmpty"))
    if full not in mask_set:
        violations.append(AxiomViolation("MissingCarrier"))
    # One column pass, over the family with ∅ and the carrier added (the
    # family itself when it holds both), accepts it or feeds the witnesses.
    mins = _minimal_opens(n, sorted(mask_set | {0, full}) if violations else masks)
    if violations or mins is None:
        return violations + _pair_violations(n, masks, mask_set, mins)
    return _build(n, masks, mins)


def _build(n: int, masks: Sequence[int], mins: Sequence[int]) -> TopSpace:
    """The space of a sorted, deduplicated topology ``masks`` with minimal
    opens ``mins``; neither is checked."""
    return TopSpace(n, Family._from_masks(n, masks), tuple(mins))


def space(n: int, fam: Union[Family, Iterable]) -> TopSpace:
    """Like :func:`validate_topology` but raises :class:`InvalidTopology`."""
    result = validate_topology(n, fam)
    if isinstance(result, list):
        raise InvalidTopology(result)
    return result


def discrete(n: int) -> TopSpace:
    """The topology of all subsets, capped at MAX_OPENS_LOG2 points.

    The power set is closed under union and intersection, and U_p = {p}."""
    check_carrier(n)
    if n > MAX_OPENS_LOG2:
        raise CarrierTooLarge(f"discrete topology on {n} points has 2**{n} opens")
    return _build(n, range(1 << n), [1 << p for p in range(n)])


def indiscrete(n: int) -> TopSpace:
    """The topology {empty, carrier} (a single open when n = 0): a chain,
    so closed under union and intersection, with U_p = X."""
    check_carrier(n)
    full = (1 << n) - 1
    return _build(n, sorted({0, full}), [full] * n)


def closed_sets(s: TopSpace) -> Family:
    return s.closeds


def clopen_sets(s: TopSpace) -> Family:
    """Sets that are simultaneously open and closed."""
    closed = s.closeds.mask_set
    return Family._from_masks(s.n, [m for m in s.opens.masks if m in closed])


def neighborhoods(s: TopSpace, A: PointSet, kind: str = "open") -> Family:
    """All opens (kind="open") or closeds (kind="closed") containing A."""
    same_carrier(s.n, A.n)
    if kind == "open":
        pool = s.opens
    elif kind == "closed":
        pool = s.closeds
    else:
        raise ValueError(f"kind must be 'open' or 'closed', got {kind!r}")
    return Family._from_masks(s.n, [m for m in pool.masks if A.bits & ~m == 0])


def minimal_open(s: TopSpace, p: int) -> PointSet:
    """Intersection of all open neighborhoods of {p}; itself open."""
    _check_point(s.n, p)
    return PointSet(s.ups[p], s.n)


#: Possible results of :func:`compare` (mutually exclusive).
EQUAL = "equal"
STRICTLY_FINER = "strictly_finer"
STRICTLY_COARSER = "strictly_coarser"
INCOMPARABLE = "incomparable"


def is_finer(t1: TopSpace, t2: TopSpace) -> bool:
    """True iff every open of t2 is an open of t1 (t1 at least as fine)."""
    same_carrier(t1.n, t2.n)
    return t1.opens.mask_set >= t2.opens.mask_set


def compare(t1: TopSpace, t2: TopSpace) -> str:
    """Classify t1 against t2 by inclusion of their opens families."""
    same_carrier(t1.n, t2.n)
    finer = is_finer(t1, t2)
    coarser = is_finer(t2, t1)
    if finer and coarser:
        return EQUAL
    if finer:
        return STRICTLY_FINER
    if coarser:
        return STRICTLY_COARSER
    return INCOMPARABLE


def meet_topologies(spaces: Sequence[TopSpace]) -> TopSpace:
    """Intersection of the opens families: a union or intersection of
    members lies in every family, so in their intersection.  These are the
    up-sets of every preorder, so U_p is what p reaches by every space's U_q."""
    if not spaces:
        raise EmptyList("meet of an empty list of topologies")
    n = same_carrier(*(s.n for s in spaces))
    common, step = set(spaces[0].opens.masks), spaces[0].ups
    for s in spaces[1:]:
        common &= s.opens.mask_set
        step = [u | v for u, v in zip(step, s.ups)]
    ups = [reach_bits(step, 1 << p, (1 << n) - 1) for p in range(n)]
    return _build(n, sorted(common), ups)


def one_point_extension(s: TopSpace) -> TopSpace:
    """Adjoin a new point (index n) open-dense in every old open.

    The new topology is {{a} | U : U open} plus the empty set, over n+1
    points: U ↦ {a} | U preserves unions and intersections, so U_p becomes
    {a} | U_p, and U_a = {a}.
    """
    n = s.n
    check_carrier(n + 1)
    a = 1 << n
    return _build(n + 1, (0, *(a | m for m in s.opens.masks)), (*(a | u for u in s.ups), a))
