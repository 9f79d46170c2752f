"""Connectedness, components, total disconnectedness, local connectedness."""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .carrier import Partition, PointSet, same_carrier
from .construct import subspace
from .space import TopSpace, clopen_sets


def is_connected(s: TopSpace) -> bool:
    """The only clopen sets are the empty set and the carrier."""
    full = (1 << s.n) - 1
    return clopen_sets(s).mask_set == {0, full}


def is_connected_set(s: TopSpace, A: PointSet) -> bool:
    """A set is connected iff its subspace is a connected space."""
    same_carrier(s.n, A.n)
    sub, _ = subspace(s, A)
    return is_connected(sub)


@lru_cache(maxsize=None)
def connected_set_masks(s: TopSpace) -> frozenset[int]:
    """Bitmasks of all connected subsets of the space (memoized)."""
    return frozenset(
        m for m in range(1 << s.n) if is_connected_set(s, PointSet(m, s.n))
    )


def mcp(s: TopSpace, A: PointSet) -> PointSet:
    """Union of all connected supersets of A (the connected class of A)."""
    same_carrier(s.n, A.n)
    bits = 0
    for m in connected_set_masks(s):
        if A.bits & ~m == 0:
            bits |= m
    return PointSet(bits, s.n)


@dataclass(frozen=True, slots=True)
class ComponentDecomposition:
    """Maximal connected sets; they partition the carrier (no blocks for
    the empty space) and every block is closed."""

    blocks: tuple[PointSet, ...]
    index: tuple[int, ...]  # per-point block index

    def __len__(self) -> int:
        return len(self.blocks)


def components(s: TopSpace) -> ComponentDecomposition:
    """Components as the connected classes of the points, deduplicated and
    ordered by smallest member."""
    if s.n == 0:
        return ComponentDecomposition((), ())
    seen: dict[int, PointSet] = {}
    index = [0] * s.n
    order: list[PointSet] = []
    for p in range(s.n):
        block = mcp(s, PointSet(1 << p, s.n))
        if block.bits not in seen:
            seen[block.bits] = block
            order.append(block)
        index[p] = order.index(seen[block.bits])
    return ComponentDecomposition(tuple(order), tuple(index))


def component_partition(s: TopSpace) -> Partition:
    return Partition.of(s.n, components(s).blocks)


def is_totally_disconnected(s: TopSpace) -> bool:
    """The connected sets are exactly the empty set and the singletons."""
    expected = {0} | {1 << p for p in range(s.n)}
    return connected_set_masks(s) == frozenset(expected)


def is_locally_connected_at(s: TopSpace, p: int) -> bool:
    """Every neighborhood of p contains a connected neighborhood of p."""
    if not 0 <= p < s.n:
        raise ValueError(f"point {p} outside carrier of size {s.n}")
    connected = connected_set_masks(s)
    pbit = 1 << p
    for u in s.opens.masks:
        if not u & pbit:
            continue
        if not any(
            v & pbit and v & ~u == 0 and v in connected for v in s.opens.masks
        ):
            return False
    return True


def is_locally_connected(s: TopSpace) -> bool:
    """There is a base of connected sets; decided via the equivalence that
    the components of every open subspace are open in the whole space."""
    for u in s.opens.masks:
        sub, inclusion = subspace(s, PointSet(u, s.n))
        for block in components(sub).blocks:
            original = inclusion.image(block)
            if original.bits not in s.opens:
                return False
    return True
