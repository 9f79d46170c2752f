"""Point-pair distinguishability and the separation ladder T0-T4.

Every axiom is evaluated twice: once from its literal definition and once
through an equivalent characterization, and the two results are required
to agree.  This turns the equivalence theorems into permanent cross-checks
inside the report itself.

Each axiom is its own function (``is_t0`` .. ``is_t4``, ``is_regular``,
``is_normal``) that reads only the tables its two criteria need: T0 and T1
compare the open-neighborhood families of points and never build the
closures or the closed-set neighborhoods.  :func:`separation_report` runs
all of them over one shared table object.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Optional

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


def _disjoint_pair(neis_a, neis_b) -> bool:
    return any(a & b == 0 for a in neis_a for b in neis_b)


def _classify(np_: frozenset[int], nq: frozenset[int]) -> PairClass:
    indist = np_ == nq
    partially = not indist
    dist = not (np_ <= nq) and not (nq <= np_)
    return PairClass(indist, partially, dist, _disjoint_pair(np_, nq))


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
    """What the axioms of one space read, each computed on first use and
    then shared: the open neighborhoods of every point and of every closed
    set, and the closure of every open."""

    def __init__(self, s: TopSpace) -> None:
        self.s = s

    @cached_property
    def nei(self) -> list[frozenset[int]]:
        return [_nei_masks(self.s, p) for p in range(self.s.n)]

    @cached_property
    def over(self) -> dict[int, list[int]]:
        opens = self.s.opens.masks
        return {c: [u for u in opens if c & ~u == 0] for c in self.s.closeds.masks}

    @cached_property
    def cl(self) -> dict[int, int]:
        s = self.s
        return {u: closure(s, PointSet(u, s.n)).bits for u in s.opens.masks}

    def pairs(self):
        """The neighborhood families of each unordered pair of distinct
        points; every pair-class flag is symmetric in the pair, so these
        stand for the ordered pairs."""
        nei, n = self.nei, self.s.n
        return ((nei[p], nei[q]) for p in range(n) for q in range(p + 1, n))


def is_t0(s: TopSpace, t: Optional[_Tables] = None) -> bool:
    """T0: distinct points are partially distinguishable."""
    t = t or _Tables(s)
    literal = all(np_ != nq for np_, nq in t.pairs())
    # Equivalent: distinct points have distinct minimal open sets.
    alt = all(
        s.min_open[p] != s.min_open[q]
        for p in range(s.n)
        for q in range(p + 1, s.n)
    )
    return _cross("T0", literal, alt)


def is_t1(s: TopSpace, t: Optional[_Tables] = None) -> bool:
    """T1: distinct points are distinguishable."""
    t = t or _Tables(s)
    literal = all(not np_ <= nq and not nq <= np_ for np_, nq in t.pairs())
    # Equivalent: every singleton is closed.
    alt = all(1 << p in s.closeds for p in range(s.n))
    return _cross("T1", literal, alt)


def is_t2(s: TopSpace, t: Optional[_Tables] = None) -> bool:
    """T2 (Hausdorff): distinct points are separated."""
    t = t or _Tables(s)
    literal = all(_disjoint_pair(np_, nq) for np_, nq in t.pairs())
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


def is_t3(s: TopSpace, t: Optional[_Tables] = None) -> bool:
    """T3: every closed set and outside point have disjoint neighborhoods."""
    t = t or _Tables(s)
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


def is_t4(s: TopSpace, t: Optional[_Tables] = None) -> bool:
    """T4: disjoint closed sets have disjoint neighborhoods."""
    t = t or _Tables(s)
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


def is_regular(s: TopSpace, t: Optional[_Tables] = None) -> bool:
    """Regular: T2 and T3."""
    t = t or _Tables(s)
    return is_t2(s, t) and is_t3(s, t)


def is_normal(s: TopSpace, t: Optional[_Tables] = None) -> bool:
    """Normal: T2 and T4."""
    t = t or _Tables(s)
    return is_t2(s, t) and is_t4(s, t)


def separation_report(s: TopSpace) -> SeparationReport:
    """Every axiom over one shared table object, plus the ladder check."""
    t = _Tables(s)
    t0, t1, t2 = is_t0(s, t), is_t1(s, t), is_t2(s, t)
    t3, t4 = is_t3(s, t), is_t4(s, t)
    if (t2 and not t1) or (t1 and not t0):
        raise CrossCheckFailure("separation ladder T2 => T1 => T0 broken")
    return SeparationReport(t0, t1, t2, t3, t4, t2 and t3, t2 and t4)


def t1_minimum(n: int) -> TopSpace:
    """Meet of all T1 topologies on n points (equals the discrete topology
    on finite carriers).  Enumerates all topologies, so n <= 3."""
    if n > 3:
        raise CarrierTooLarge("t1_minimum enumerates all topologies; n <= 3")
    from .enumeration import EnumConfig, enumerate_topologies

    t1_spaces = [s for s in enumerate_topologies(EnumConfig(n)) if is_t1(s)]
    return meet_topologies(t1_spaces)
