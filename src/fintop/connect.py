"""Connectedness, components, total disconnectedness, local connectedness.

With p ≤ q iff q ∈ U_p (``TopSpace.ups``) and comparable points
adjacent, three facts (Alexandroff 1937, "Diskrete Räume"; Barmak 2011,
*Algebraic Topology of Finite Topological Spaces*, LNM 2032, ch. 1) settle
each question in O(n²) mask operations (breadth-first search for sets):

- A is connected iff adjacency within A connects it (the subspace A has the
  minimal opens U_p ∩ A, so its clopens are the sets closed under it).
- Each U_p is connected and the U_p form a base: every finite space is
  locally connected.
- A finite space is totally disconnected iff it is discrete (each U_p = {p}).

The sweep checks :func:`connected_set_masks` against :func:`is_connected`,
the literal clopen definition, on every subspace.  Its memo is keyed on
the adjacency U_p ∪ cl{p}, which ``ups`` determines, so it is never stale.
"""

from __future__ import annotations

from functools import lru_cache

from .carrier import Partition, PointSet, _check_point, reach_bits, same_carrier
from .errors import CarrierTooLarge
from .space import MAX_OPENS_LOG2, TopSpace, clopen_sets


def is_connected(s: TopSpace) -> bool:
    """The only clopen sets are the empty set and the carrier."""
    return clopen_sets(s).mask_set == {0, (1 << s.n) - 1}


def _adjacency(s: TopSpace) -> tuple[int, ...]:
    """Per point p, the mask of the points comparable to p: U_p ∪ cl{p}."""
    return tuple(u | d for u, d in zip(s.ups, s.downs))


def is_connected_set(s: TopSpace, A: PointSet) -> bool:
    """A (the empty set included) is connected as a subspace."""
    same_carrier(s.n, A.n)
    return reach_bits(_adjacency(s), A.bits & -A.bits, A.bits) == A.bits


def connected_set_masks(s: TopSpace) -> frozenset[int]:
    """Bitmasks of all connected subsets of the space, memoized on its
    adjacency (see the module docstring).  Capped, like ``discrete``, at
    MAX_OPENS_LOG2 points: up to 2**n masks are held."""
    if s.n > MAX_OPENS_LOG2:
        raise CarrierTooLarge(f"connected sets of {s.n} points: up to 2**{s.n} masks")
    return _connected_masks(_adjacency(s))


@lru_cache(maxsize=None)
def _connected_masks(adj: tuple[int, ...]) -> frozenset[int]:
    return frozenset(m for m in range(1 << len(adj)) if reach_bits(adj, m & -m, m) == m)


# The memo's statistics and reset, under the public name.
connected_set_masks.cache_info = _connected_masks.cache_info
connected_set_masks.cache_clear = _connected_masks.cache_clear


def mcp(s: TopSpace, A: PointSet) -> PointSet:
    """Union of all connected supersets of A (the connected class of A): the
    carrier if A is empty, else the component holding A, or empty if none."""
    same_carrier(s.n, A.n)
    full = (1 << s.n) - 1
    block = reach_bits(_adjacency(s), A.bits & -A.bits, full) if A.bits else full
    return PointSet(block if A.bits & ~block == 0 else 0, s.n)


def components(s: TopSpace) -> Partition:
    """The maximal connected sets, which are closed: the components of the
    adjacency graph, as the carrier's partition (no blocks when n = 0)."""
    adj = _adjacency(s)
    full = (1 << s.n) - 1
    blocks: list[int] = []
    left = full
    while left:
        blocks.append(reach_bits(adj, left & -left, full))
        left &= ~blocks[-1]
    return Partition(tuple(PointSet(b, s.n) for b in blocks), s.n)


def component_partition(s: TopSpace) -> Partition:
    return components(s)


def is_totally_disconnected(s: TopSpace) -> bool:
    """The only connected sets are ∅ and the singletons: every U_p is {p}."""
    return all(u == 1 << p for p, u in enumerate(s.ups))


def is_locally_connected_at(s: TopSpace, p: int) -> bool:
    """Every neighborhood of p contains a connected one; the witness is U_p,
    the least open set holding p, which must hold p, be open and connected."""
    _check_point(s.n, p)
    u = s.ups[p]
    return bool(u >> p & 1) and u in s.opens and is_connected_set(s, PointSet(u, s.n))


def is_locally_connected(s: TopSpace) -> bool:
    """There is a base of connected sets: the minimal opens are one."""
    return all(is_locally_connected_at(s, p) for p in range(s.n))
