"""Point-pair distinguishability and the separation ladder T0-T4.

Every axiom is evaluated twice: once from its literal definition and once
through an equivalent characterization, and the two results are required
to agree.  This turns the equivalence theorems into permanent cross-checks
inside the report itself.
"""

from __future__ import annotations

from dataclasses import dataclass

from .carrier import PointSet
from .errors import CarrierTooLarge, CrossCheckFailure
from .operators import closure
from .space import TopSpace, meet_topologies


@dataclass(frozen=True, slots=True)
class PairClass:
    indistinguishable: bool
    partially_distinguishable: bool
    distinguishable: bool
    separated: bool


def _nei_masks(s: TopSpace, p: int) -> frozenset[int]:
    return frozenset(m for m in s.opens.masks if m >> p & 1)


def _classify(np_: frozenset[int], nq: frozenset[int]) -> PairClass:
    indist = np_ == nq
    partially = not indist
    dist = not (np_ <= nq) and not (nq <= np_)
    separated = any(a & b == 0 for a in np_ for b in nq)
    return PairClass(indist, partially, dist, separated)


def classify_pair(s: TopSpace, p: int, q: int) -> PairClass:
    """Classify an ordered pair of points by their neighborhood families."""
    for x in (p, q):
        if not 0 <= x < s.n:
            raise ValueError(f"point {x} outside carrier of size {s.n}")
    return _classify(_nei_masks(s, p), _nei_masks(s, q))


@dataclass(frozen=True, slots=True)
class SeparationReport:
    t0: bool
    t1: bool
    t2: bool
    t3: bool
    t4: bool
    regular: bool
    normal: bool


def _cross(name: str, literal: bool, alt: bool) -> bool:
    if literal != alt:
        raise CrossCheckFailure(f"{name}: literal={literal} equivalent={alt}")
    return literal


class _Tables:
    """What the axioms of one space read, each computed once: the pair
    classes, the open neighborhoods of every point and of every closed set,
    and the closure of every open."""

    __slots__ = ("pairs", "nei", "over", "cl")

    def __init__(self, s: TopSpace) -> None:
        opens = s.opens.masks
        self.nei = [_nei_masks(s, p) for p in range(s.n)]
        # Every flag of a pair class is symmetric in the pair, so the
        # unordered pairs of distinct points stand for the ordered ones.
        self.pairs = [
            _classify(self.nei[p], self.nei[q])
            for p in range(s.n)
            for q in range(p + 1, s.n)
        ]
        self.over = {c: [u for u in opens if c & ~u == 0] for c in s.closeds.masks}
        self.cl = {u: closure(s, PointSet(u, s.n)).bits for u in opens}


def _t0(s: TopSpace, t: _Tables) -> bool:
    literal = all(pc.partially_distinguishable for pc in t.pairs)
    # Equivalent: distinct points have distinct minimal open sets.
    alt = all(
        s.min_open[p] != s.min_open[q]
        for p in range(s.n)
        for q in range(p + 1, s.n)
    )
    return _cross("T0", literal, alt)


def _t1(s: TopSpace, t: _Tables) -> bool:
    literal = all(pc.distinguishable for pc in t.pairs)
    # Equivalent: every singleton is closed.
    alt = all(1 << p in s.closeds for p in range(s.n))
    return _cross("T1", literal, alt)


def _t2(s: TopSpace, t: _Tables) -> bool:
    literal = all(pc.separated for pc in t.pairs)
    # Equivalent: every singleton is the intersection of its closed
    # neighborhoods (here: its closed supersets).
    alt = True
    for p in range(s.n):
        meet = (1 << s.n) - 1
        for m in s.closeds.masks:
            if m >> p & 1:
                meet &= m
        if meet != 1 << p:
            alt = False
            break
    return _cross("T2", literal, alt)


def _disjoint_pair(neis_a, neis_b) -> bool:
    return any(a & b == 0 for a in neis_a for b in neis_b)


def _t3(s: TopSpace, t: _Tables) -> bool:
    # Literal: every closed set and outside point have disjoint neighborhoods.
    literal = all(
        _disjoint_pair(t.over[c], t.nei[p])
        for c in s.closeds.masks
        for p in range(s.n)
        if not c >> p & 1
    )
    # Equivalent: every neighborhood of a point includes the closure of a
    # smaller neighborhood of that point.
    alt = all(
        any(t.cl[v] & ~u == 0 for v in t.nei[p])
        for p in range(s.n)
        for u in t.nei[p]
    )
    return _cross("T3", literal, alt)


def _t4(s: TopSpace, t: _Tables) -> bool:
    literal = all(
        _disjoint_pair(t.over[a], t.over[b])
        for a in s.closeds.masks
        for b in s.closeds.masks
        if a & b == 0
    )
    # Equivalent: every neighborhood of a closed set includes the closure of
    # a smaller neighborhood of that set.
    alt = all(
        any(t.cl[v] & ~u == 0 for v in t.over[c])
        for c in s.closeds.masks
        for u in t.over[c]
    )
    return _cross("T4", literal, alt)


def separation_report(s: TopSpace) -> SeparationReport:
    t = _Tables(s)
    t0, t1, t2, t3, t4 = _t0(s, t), _t1(s, t), _t2(s, t), _t3(s, t), _t4(s, t)
    if (t2 and not t1) or (t1 and not t0):
        raise CrossCheckFailure("separation ladder T2 => T1 => T0 broken")
    return SeparationReport(t0, t1, t2, t3, t4, t2 and t3, t2 and t4)


def t1_minimum(n: int) -> TopSpace:
    """Meet of all T1 topologies on n points (equals the discrete topology
    on finite carriers).  Enumerates all topologies, so n <= 3."""
    if n > 3:
        raise CarrierTooLarge("t1_minimum enumerates all topologies; n <= 3")
    from .enumeration import EnumConfig, enumerate_topologies

    t1_spaces = [
        s for s in enumerate_topologies(EnumConfig(n)) if separation_report(s).t1
    ]
    return meet_topologies(t1_spaces)
