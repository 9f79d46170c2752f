"""Set algebra over a finite carrier {0..n-1}.

Subsets are stored as bitmasks (bit i set iff point i is a member), so all
set operations are single machine-word operations.  Families of subsets are
canonicalized on construction (sorted ascending by bitmask, deduplicated),
which makes family equality plain sequence equality.  A family stores its
canonical masks; its ``PointSet`` members are built on each read, and its
set of masks on first read and cached.

Every record class of the package derives from :class:`_Record`, defined
here.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Sequence

from .errors import (
    CarrierMismatch,
    CarrierTooLarge,
    EmptyFamilyIntersection,
    NotAPartition,
)

#: Largest supported carrier: a subset fits one machine word and a full
#: power-set scan stays at most 2**24 iterations.
MAX_CARRIER = 24


def _rebuild(cls: type, values: tuple) -> "_Record":
    obj = object.__new__(cls)
    _Record.__init__(obj, *values)
    return obj


class _Record:
    """An immutable record over the fields in ``__slots__``.

    ``cls._setters`` holds each subclass's slot setters, in ``__slots__``
    order; they set a field past the frozen ``__setattr__``.  The
    constructor takes one value per field, positionally and in
    ``__slots__`` order.  A class that checks its arguments ends its own
    ``__init__`` with ``_Record.__init__(self, ...)``; a hot class calls
    its setters instead.  Equality (between instances of one class only),
    hashing and repr read the fields named in ``_compared``: all of
    ``__slots__`` unless the class names fewer.  The hash is the hash of
    the tuple of those fields, and the repr is ``Cls(field=value, ...)``.
    """

    __slots__ = ()

    def __init_subclass__(cls) -> None:
        cls._compared = vars(cls).get("_compared", cls.__slots__)
        cls._setters = tuple(vars(cls)[name].__set__ for name in cls.__slots__)

    def __init__(self, *values: object) -> None:
        setters = self._setters
        if len(values) != len(setters):
            raise TypeError(
                f"{self.__class__.__qualname__} takes {len(setters)} fields, got {len(values)}"
            )
        for set_field, value in zip(setters, values):
            set_field(self, value)

    def _key(self) -> tuple:
        return tuple([getattr(self, name) for name in self._compared])

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self) -> int:
        return hash(self._key())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._compared)
        return f"{self.__class__.__qualname__}({fields})"

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self) -> tuple:
        # copy and pickle rebuild the fields, caches included, past __init__.
        return _rebuild, (self.__class__, tuple(getattr(self, name) for name in self.__slots__))


def check_carrier(n: int) -> None:
    if not 0 <= n <= MAX_CARRIER:
        raise CarrierTooLarge(f"carrier size {n} outside 0..{MAX_CARRIER}")


def same_carrier(*sizes: int) -> int:
    first = sizes[0]
    for n in sizes[1:]:
        if n != first:
            raise CarrierMismatch(f"carrier sizes differ: {sizes}")
    return first


def _check_point(n: int, p: int) -> None:
    if not 0 <= p < n:
        raise ValueError(f"point {p} outside carrier of size {n}")


def _check_bits(n: int, bits: int) -> None:
    if bits < 0 or bits >> n:
        raise ValueError(f"bits {bits:#x} outside carrier of size {n}")


#: The points of each byte value, ascending.
_BYTE_POINTS = tuple(bytes(p for p in range(8) if b >> p & 1) for b in range(256))


def _points_bits(n: int, points: Iterable[int]) -> int:
    """The mask of the points, each checked to lie in carrier n."""
    bits = 0
    for p in points:
        _check_point(n, p)
        bits |= 1 << p
    return bits


def mask_points(mask: int) -> list[int]:
    """The points of a mask, ascending, one table lookup per byte."""
    points = list(_BYTE_POINTS[mask & 255])
    mask >>= 8
    base = 8
    while mask:
        points += map(base.__add__, _BYTE_POINTS[mask & 255])
        mask >>= 8
        base += 8
    return points


class PointSet(_Record):
    """A subset of the carrier {0..n-1}, stored as a bitmask."""

    __slots__ = ("bits", "n")

    def __init__(self, bits: int, n: int) -> None:
        _set_bits(self, bits)
        _set_n(self, n)
        self.__post_init__()

    def __post_init__(self) -> None:
        check_carrier(self.n)
        _check_bits(self.n, self.bits)

    @classmethod
    def of(cls, n: int, points: Iterable[int] = ()) -> "PointSet":
        return cls(_points_bits(n, points), n)

    @classmethod
    def empty(cls, n: int) -> "PointSet":
        return cls(0, n)

    @classmethod
    def full(cls, n: int) -> "PointSet":
        return cls((1 << n) - 1, n)

    def points(self) -> tuple[int, ...]:
        return tuple(mask_points(self.bits))

    def __iter__(self) -> Iterator[int]:
        return iter(self.points())

    def __len__(self) -> int:
        return self.bits.bit_count()

    def __contains__(self, p: int) -> bool:
        return 0 <= p < self.n and bool(self.bits >> p & 1)

    def __or__(self, other: "PointSet") -> "PointSet":
        same_carrier(self.n, other.n)
        return PointSet(self.bits | other.bits, self.n)

    def __and__(self, other: "PointSet") -> "PointSet":
        same_carrier(self.n, other.n)
        return PointSet(self.bits & other.bits, self.n)

    def __sub__(self, other: "PointSet") -> "PointSet":
        same_carrier(self.n, other.n)
        return PointSet(self.bits & ~other.bits, self.n)

    def __le__(self, other: "PointSet") -> bool:
        same_carrier(self.n, other.n)
        return self.bits & ~other.bits == 0

    def __lt__(self, other: "PointSet") -> bool:
        return self <= other and self.bits != other.bits

    def issubset(self, other: "PointSet") -> bool:
        return self <= other

    def isdisjoint(self, other: "PointSet") -> bool:
        same_carrier(self.n, other.n)
        return self.bits & other.bits == 0

    def complement(self) -> "PointSet":
        return PointSet(~self.bits & (1 << self.n) - 1, self.n)

    def __repr__(self) -> str:
        return f"PointSet({{{','.join(map(str, self.points()))}}}, n={self.n})"


_set_bits, _set_n = PointSet._setters


def _member_bits(n: int, m: PointSet | int | Iterable[int]) -> int:
    """The mask of a family member over carrier n: a PointSet, a bitmask,
    or an iterable of point indices."""
    if isinstance(m, PointSet):
        same_carrier(m.n, n)
        return m.bits
    if isinstance(m, int):
        _check_bits(n, m)
        return m
    return _points_bits(n, m)


class Family(_Record):
    """A canonical (sorted, deduplicated) sequence of subsets of one carrier.

    The family is its ascending masks.  ``members`` (the masks as
    PointSets) is built on each read; ``mask_set`` is built on first read,
    cached, and excluded from equality, hashing and repr.
    """

    __slots__ = ("n", "_masks", "_mask_set")
    _compared = ("n", "_masks")

    def __init__(self, members: Iterable[PointSet], n: int) -> None:
        check_carrier(n)
        members = tuple(members)
        prev = -1
        for m in members:
            if m.n != n:
                raise CarrierMismatch(f"member over carrier {m.n} in family over carrier {n}")
            if m.bits <= prev:
                raise ValueError("family members must be strictly increasing by bitmask")
            prev = m.bits
        self._fill(n, tuple(m.bits for m in members))

    def _fill(self, n: int, masks: tuple[int, ...]) -> None:
        _fam_set_n(self, n)
        _fam_set_masks(self, masks)
        _fam_set_mask_set(self, None)

    @classmethod
    def _from_masks(cls, n: int, masks: Sequence[int]) -> "Family":
        """The family of strictly ascending masks inside carrier ``n``;
        neither fact is checked."""
        fam = object.__new__(cls)
        fam._fill(n, tuple(masks))
        return fam

    @classmethod
    def of(cls, n: int, members: Iterable[PointSet | int | Iterable[int]]) -> "Family":
        """Build a canonical family; members may be PointSets, bitmasks, or
        iterables of point indices."""
        check_carrier(n)
        return cls._from_masks(n, sorted({_member_bits(n, m) for m in members}))

    @property
    def members(self) -> tuple[PointSet, ...]:
        return tuple(PointSet(m, self.n) for m in self._masks)

    @property
    def masks(self) -> tuple[int, ...]:
        return self._masks

    @property
    def mask_set(self) -> frozenset[int]:
        """The members' masks as a read-only set, built on first read."""
        mask_set = self._mask_set
        if mask_set is None:
            mask_set = frozenset(self._masks)
            _fam_set_mask_set(self, mask_set)
        return mask_set

    def __iter__(self) -> Iterator[PointSet]:
        return iter(self.members)

    def __len__(self) -> int:
        return len(self._masks)

    def __contains__(self, item: PointSet | int) -> bool:
        if isinstance(item, PointSet):
            same_carrier(item.n, self.n)
            item = item.bits
        return item in self.mask_set

    def __repr__(self) -> str:
        inner = ",".join(
            "{%s}" % ",".join(str(p) for p in range(self.n) if m >> p & 1)
            for m in self._masks
        )
        return f"Family([{inner}], n={self.n})"


_fam_set_n, _fam_set_masks, _fam_set_mask_set = Family._setters


def family_union(fam: Family) -> PointSet:
    """Union of all members; the empty family yields the empty set."""
    return PointSet(_join_bits(fam.masks, (1 << fam.n) - 1), fam.n)


def family_intersection(fam: Family) -> PointSet:
    """Intersection of all members; undefined (raises) for the empty family."""
    if not fam.masks:
        raise EmptyFamilyIntersection("intersection of an empty family is undefined")
    return PointSet(_meet_bits(fam.masks, 0, (1 << fam.n) - 1), fam.n)


def _join_bits(masks: Iterable[int], within: int) -> int:
    """The union of the masks inside `within` (0 when none is)."""
    bits = 0
    for m in masks:
        if m | within == within:
            bits |= m
    return bits


def _meet_bits(masks: Iterable[int], over: int, full: int) -> int:
    """The intersection of the masks that hold `over`, or `full` (the
    identity of the empty meet) when none does."""
    bits = full
    for m in masks:
        if m & over == over:
            bits &= m
    return bits


def reach_bits(step: Sequence[int], seed: int, within: int) -> int:
    """Mask of the points that paths inside `within` join to `seed`, where
    one step leads from point p to the points of ``step[p]``; `seed` is
    included (breadth-first, each point expanded once)."""
    seen = frontier = seed
    while frontier:
        nxt = 0
        while frontier:
            low = frontier & -frontier
            nxt |= step[low.bit_length() - 1]
            frontier ^= low
        frontier = nxt & within & ~seen
        seen |= frontier
    return seen


def subsets_iter(n: int) -> Iterator[PointSet]:
    """All 2**n subsets of the carrier, exactly once, ascending by bitmask."""
    check_carrier(n)
    for bits in range(1 << n):
        yield PointSet(bits, n)


class Partition(_Record):
    """Pairwise-disjoint nonempty blocks covering the carrier.

    Blocks are ordered by their smallest member, which fixes the block
    indexing used by quotients and by components.
    """

    __slots__ = ("blocks", "n")

    def __init__(self, blocks: tuple[PointSet, ...], n: int) -> None:
        check_carrier(n)
        seen = 0
        for b in blocks:
            if b.n != n:
                raise CarrierMismatch("block carrier mismatch")
            if b.bits == 0:
                raise NotAPartition("empty block")
            if seen & b.bits:
                raise NotAPartition("blocks overlap")
            seen |= b.bits
        if seen != (1 << n) - 1:
            raise NotAPartition("blocks do not cover the carrier")
        lows = [(b.bits & -b.bits) for b in blocks]
        if lows != sorted(lows):
            raise NotAPartition("blocks must be ordered by smallest member")
        _Record.__init__(self, blocks, n)

    @classmethod
    def of(cls, n: int, blocks: Iterable[PointSet | int | Iterable[int]]) -> "Partition":
        check_carrier(n)
        masks = sorted((_member_bits(n, b) for b in blocks), key=lambda b: b & -b if b else -1)
        return cls(tuple(PointSet(b, n) for b in masks), n)

    def block_index(self) -> tuple[int, ...]:
        """Per-point index of the containing block."""
        idx = [0] * self.n
        for i, b in enumerate(self.blocks):
            for p in b.points():
                idx[p] = i
        return tuple(idx)

    def __len__(self) -> int:
        return len(self.blocks)

    def __iter__(self) -> Iterator[PointSet]:
        return iter(self.blocks)
