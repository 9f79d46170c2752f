"""Point-pair distinguishability and the separation ladder T0-T4.

Every question is decided from the specialization preorder: p ≤ q iff
q ∈ U_p, where U_p is the minimal open of p (``TopSpace.ups``), and
cl{p} = {q : p ∈ U_q} is the closure of the point p.  On a finite space
each axiom is a property of that preorder (Stong 1966, "Finite topological
spaces", Trans. AMS 123; Barmak 2011, LNM 2032, ch. 1), because the least
open holding a set A is the union of the U_a, a ∈ A, and the least closed
set holding p is cl{p}:

- T0 iff ≤ is antisymmetric, i.e. the U_p are pairwise distinct;
  equivalently U_p ∩ cl{p} = {p} for every p.
- T1 iff every U_p = {p}; equivalently every cl{p} = {p}.
- T2 iff the U_p are pairwise disjoint; equivalently every U_p = {p}.
- T3 (a closed set and a point outside it have disjoint neighborhoods) iff
  ≤ is symmetric: a closed C missing p has ⋃{U_c : c ∈ C} ∩ U_p = ∅ when
  the U_p are the blocks of a partition, while q ∈ U_p with p ∉ U_q makes
  C = cl{p} and q a failing pair.  Equivalently U_p = cl{p} for every p.
- T4 (disjoint closed sets have disjoint neighborhoods) iff points with a
  common upper bound have a common lower bound: U_p ∩ U_q ≠ ∅ implies
  cl{p} ∩ cl{q} ≠ ∅ (cl{p} and cl{q} are closed, and any failing pair of
  closed sets holds such p and q).  Equivalently, for every r, any two
  points of cl{r} have meeting closures.
- Points p, q are indistinguishable iff U_p = U_q, distinguishable iff
  q ∉ U_p and p ∉ U_q, and separated iff U_p ∩ U_q = ∅.

Each predicate decides its axiom by the first criterion above, read from
the U_p: T0 is one set of the n masks, T1 and T2 are O(n) mask tests, T3
is O(n²) bit tests, and T4 is O(n²) mask pairs on the cached cl{p}
(``TopSpace.downs``).  None reads the opens family, so every flag
answers at the 24-point cap.  The criteria of T0-T3 and regularity read
the U_p alone: each is one function of the U_p in point order, listed in
:data:`UPS_CRITERIA`, which ``is_t0`` etc. apply to ``TopSpace.ups`` and
``enumeration.count_topologies`` to the U_p of each minimal-open code.
The second criteria (all but T2's read the cl{p}) and the literal
definitions, which compare neighborhood families and closed-set families
at a cost that grows with the number of opens, run only as cross-checks
(:func:`_literal_cross_check`, through :func:`_second_criteria`,
:func:`_literal_report` and :func:`_literal_classify`): the theorem sweep
compares them with the predicates on every space it visits
(``separation_hereditary``, ``indistinguishability_equivalences``), and
the tests on every space with n ≤ 5.
"""

from __future__ import annotations

from functools import reduce
from operator import and_, or_
from typing import Sequence

from .carrier import PointSet, _Record, _check_point
from .errors import CarrierTooLarge, CrossCheckFailure
from .operators import closure
from .space import TopSpace, meet_topologies


class PairClass(_Record):
    __slots__ = ("indistinguishable", "partially_distinguishable", "distinguishable", "separated")


def classify_pair(s: TopSpace, p: int, q: int) -> PairClass:
    """Classify an ordered pair of points by their minimal opens."""
    _check_point(s.n, p)
    _check_point(s.n, q)
    up, uq = s.ups[p], s.ups[q]
    indist = up == uq
    dist = not up >> q & 1 and not uq >> p & 1
    return PairClass(indist, not indist, dist, up & uq == 0)


class SeparationReport(_Record):
    __slots__ = ("t0", "t1", "t2", "t3", "t4", "regular", "normal")


def _cross(name: str, first: bool, second: bool) -> bool:
    if first != second:
        raise CrossCheckFailure(f"{name}: criteria disagree ({first} vs {second})")
    return first


def _t0(ups: Sequence[int]) -> bool:
    return len(set(ups)) == len(ups)


def _t1(ups: Sequence[int]) -> bool:
    return all(u == 1 << p for p, u in enumerate(ups))


def _t2(ups: Sequence[int]) -> bool:
    """The U_p are pairwise disjoint: their sizes add up to their union's."""
    return sum(u.bit_count() for u in ups) == reduce(or_, ups, 0).bit_count()


def _t3(ups: Sequence[int]) -> bool:
    """The preorder is symmetric: q in U_p implies p in U_q."""
    return all(
        ups[q] >> p & 1 for p, u in enumerate(ups) for q in range(len(ups)) if u >> q & 1
    )


def _regular(ups: Sequence[int]) -> bool:
    return _t2(ups) and _t3(ups)


#: The axioms decided from the U_p alone, by predicate name, each a test of
#: the U_p in point order: ``enumeration.count_topologies`` runs them on the
#: U_p unpacked from each minimal-open code, without building a space.
UPS_CRITERIA = {"t0": _t0, "t1": _t1, "t2": _t2, "t3": _t3, "regular": _regular}


def is_t0(s: TopSpace) -> bool:
    """T0: distinct points are partially distinguishable."""
    return _t0(s.ups)


def is_t1(s: TopSpace) -> bool:
    """T1: distinct points are distinguishable."""
    return _t1(s.ups)


def is_t2(s: TopSpace) -> bool:
    """T2 (Hausdorff): distinct points are separated."""
    return _t2(s.ups)


def is_t3(s: TopSpace) -> bool:
    """T3: every closed set and outside point have disjoint neighborhoods."""
    return _t3(s.ups)


def is_t4(s: TopSpace) -> bool:
    """T4: disjoint closed sets have disjoint neighborhoods."""
    ups, downs, n = s.ups, s.downs, s.n
    return all(
        downs[p] & downs[q] or not ups[p] & ups[q]
        for p in range(n)
        for q in range(p + 1, n)
    )


def is_regular(s: TopSpace) -> bool:
    """Regular: T2 and T3."""
    return _regular(s.ups)


def is_normal(s: TopSpace) -> bool:
    """Normal: T2 and T4."""
    return is_t2(s) and is_t4(s)


def _report(t0: bool, t1: bool, t2: bool, t3: bool, t4: bool) -> SeparationReport:
    if (t2 and not t1) or (t1 and not t0):
        raise CrossCheckFailure("separation ladder T2 => T1 => T0 broken")
    return SeparationReport(t0, t1, t2, t3, t4, t2 and t3, t2 and t4)


def separation_report(s: TopSpace) -> SeparationReport:
    """Every axiom, plus the ladder check."""
    return _report(is_t0(s), is_t1(s), is_t2(s), is_t3(s), is_t4(s))


# -- the literal neighborhood-family criteria, kept as cross-checks -----------


def _nei_masks(s: TopSpace, p: int) -> frozenset[int]:
    return frozenset(m for m in s.opens.masks if m >> p & 1)


def _disjoint_pair(neis_a, neis_b) -> bool:
    return any(a & b == 0 for a in neis_a for b in neis_b)


def _literal_classify(np_: frozenset[int], nq: frozenset[int]) -> PairClass:
    """:func:`classify_pair` from the neighborhood families of the pair."""
    indist = np_ == nq
    dist = not (np_ <= nq) and not (nq <= np_)
    return PairClass(indist, not indist, dist, _disjoint_pair(np_, nq))


def _literal_report(s: TopSpace) -> SeparationReport:
    """:func:`separation_report` from the definitions over neighborhood
    families, each crossed with a characterization through closed sets or
    the closure operator; none reads ``ups``."""
    n, full = s.n, (1 << s.n) - 1
    opens, closeds = s.opens.masks, s.closeds.masks
    nei = [_nei_masks(s, p) for p in range(n)]
    pairs = [(nei[p], nei[q]) for p in range(n) for q in range(p + 1, n)]
    over = {c: [u for u in opens if c & ~u == 0] for c in closeds}
    cl = {u: closure(s, PointSet(u, n)).bits for u in opens}
    # T0: distinct points have distinct neighborhood intersections.
    t0 = _cross(
        "T0", all(a != b for a, b in pairs), len({reduce(and_, nb, full) for nb in nei}) == n
    )
    # T1: every singleton is closed.
    t1 = _cross(
        "T1",
        all(not a <= b and not b <= a for a, b in pairs),
        all(1 << p in s.closeds for p in range(n)),
    )
    # T2: every singleton is the intersection of its closed supersets.
    t2 = _cross(
        "T2",
        all(_disjoint_pair(a, b) for a, b in pairs),
        all(
            reduce(and_, (m for m in closeds if m >> p & 1), full) == 1 << p
            for p in range(n)
        ),
    )
    # T3 and T4: every neighborhood of a point, and of a closed set,
    # includes the closure of a smaller neighborhood.
    t3 = _cross(
        "T3",
        all(
            _disjoint_pair(over[c], nei[p])
            for c in closeds
            for p in range(n)
            if not c >> p & 1
        ),
        all(any(cl[v] & ~u == 0 for v in nei[p]) for p in range(n) for u in nei[p]),
    )
    t4 = _cross(
        "T4",
        all(
            _disjoint_pair(over[a], over[b])
            for a in closeds
            for b in closeds
            if a & b == 0
        ),
        all(any(cl[v] & ~u == 0 for v in over[c]) for c in closeds for u in over[c]),
    )
    return _report(t0, t1, t2, t3, t4)


def _second_criteria(s: TopSpace) -> tuple[bool, bool, bool, bool, bool]:
    """T0..T4 by the second criterion of the module docstring:
    U_p ∩ cl{p} = {p}, every cl{p} = {p}, every U_p = {p}, U_p = cl{p},
    and any two points of a cl{r} have meeting closures."""
    ups, downs, n = s.ups, s.downs, s.n
    per_point = all(
        downs[p] & downs[q]
        for d in downs
        for p in range(n)
        if d >> p & 1
        for q in range(p + 1, n)
        if d >> q & 1
    )
    return (
        all(u & d == 1 << p for p, (u, d) in enumerate(zip(ups, downs))),
        all(d == 1 << p for p, d in enumerate(downs)),
        all(u == 1 << p for p, u in enumerate(ups)),
        ups == downs,
        per_point,
    )


def _literal_cross_check(s: TopSpace) -> SeparationReport:
    """:func:`separation_report`, after checking it against
    :func:`_literal_report` and :func:`_second_criteria`, and
    :func:`classify_pair` against :func:`_literal_classify` on every pair of
    points; raises :class:`CrossCheckFailure` naming each axiom and pair
    that disagree."""
    rep, lit = separation_report(s), _literal_report(s)
    bad = [
        f"{name.upper()}: preorder={getattr(rep, name)} literal={getattr(lit, name)}"
        for name in SeparationReport.__slots__
        if getattr(rep, name) != getattr(lit, name)
    ]
    for name, second in zip(("t0", "t1", "t2", "t3", "t4"), _second_criteria(s)):
        try:
            _cross(name.upper(), getattr(rep, name), second)
        except CrossCheckFailure as exc:
            bad.append(str(exc))
    nei = [_nei_masks(s, p) for p in range(s.n)]
    for p in range(s.n):
        for q in range(p, s.n):  # every flag is symmetric in the pair
            got, want = classify_pair(s, p, q), _literal_classify(nei[p], nei[q])
            if got != want:
                bad.append(f"pair ({p}, {q}): preorder={got} literal={want}")
    if bad:
        raise CrossCheckFailure("; ".join(bad))
    return rep


def t1_minimum(n: int) -> TopSpace:
    """Meet of all T1 topologies on n points (equals the discrete topology
    on finite carriers).  Enumerates all topologies, so n <= 3."""
    if n > 3:
        raise CarrierTooLarge("t1_minimum enumerates all topologies; n <= 3")
    from .enumeration import EnumConfig, enumerate_topologies

    t1_spaces = [s for s in enumerate_topologies(EnumConfig(n)) if is_t1(s)]
    return meet_topologies(t1_spaces)
