import itertools
import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from fintop import (
    CarrierMismatch,
    CarrierTooLarge,
    EmptyFamilyIntersection,
    Family,
    Partition,
    PointSet,
    family_intersection,
    family_union,
    subsets_iter,
)
from fintop.carrier import _join_bits, _meet_bits
from fintop.errors import NotAPartition
from fintop.maps import FiniteMap


class TestPointSet:
    def test_of_and_points(self):
        A = PointSet.of(3, [2, 0])
        assert A.bits == 0b101
        assert A.points() == (0, 2)
        assert list(A) == [0, 2]
        assert len(A) == 2
        assert 0 in A and 1 not in A

    def test_carrier_bounds(self):
        with pytest.raises(ValueError):
            PointSet(0b100, 2)
        with pytest.raises(CarrierTooLarge):
            PointSet.of(25, [0])
        with pytest.raises(ValueError):
            PointSet.of(2, [-1])

    def test_set_algebra(self):
        a = PointSet.of(3, [0, 1])
        b = PointSet.of(3, [1, 2])
        assert (a | b).points() == (0, 1, 2)
        assert (a & b).points() == (1,)
        assert (a - b).points() == (0,)
        assert a.complement().points() == (2,)
        assert not a <= b
        assert (a & b) <= a

    def test_strict_subset_and_disjointness(self):
        a = PointSet.of(3, [0, 1])
        b = PointSet.of(3, [1])
        assert b < a and not a < a and not a < b
        assert b.issubset(a) and a.issubset(a) and not a.issubset(b)
        assert a.isdisjoint(PointSet.of(3, [2])) and not a.isdisjoint(b)
        with pytest.raises(CarrierMismatch):
            a.isdisjoint(PointSet.of(2, [0]))

    def test_complement_involution(self):
        for n in range(9):
            for m in range(1 << n):
                A = PointSet(m, n)
                assert A.complement().complement() == A

    def test_carrier_mismatch(self):
        with pytest.raises(CarrierMismatch):
            PointSet.of(2, [0]) | PointSet.of(3, [0])

    def test_post_init_runs_once_per_pointset_built(self, monkeypatch):
        # The benchmark's carrier.pointset_built counter wraps
        # PointSet.__dict__["__post_init__"]; every route that builds a
        # PointSet must call it exactly once, or the counter reads short.
        count = [0]
        post_init = PointSet.__dict__["__post_init__"]

        def counting(obj):
            count[0] += 1
            return post_init(obj)

        monkeypatch.setattr(PointSet, "__post_init__", counting)
        fam = Family.of(3, [0b001, 0b011, 0b111])
        f = FiniteMap(2, 3, (0, 2))
        A = PointSet.of(2, [0, 1])
        routes = [
            (lambda: (PointSet(0b101, 3),), 1),
            (lambda: (PointSet.of(3, [0, 2]),), 1),
            (lambda: fam.members, 3),
            (lambda: (f.image(A),), 1),
        ]
        for build, expected in routes:
            count[0] = 0
            built = build()
            assert count[0] == len(built) == expected
            assert all(type(b) is PointSet for b in built)
        # The carrier check itself is what runs there.
        count[0] = 0
        with pytest.raises(ValueError):
            PointSet(0b100, 2)
        assert count[0] == 1


class TestFamily:
    def test_canonicalization(self):
        fam = Family.of(2, [0b11, 0b01, 0b01, 0b00])
        assert fam.masks == (0b00, 0b01, 0b11)
        assert len(fam) == 3
        assert PointSet(0b01, 2) in fam
        assert 0b11 in fam

    def test_cached_masks_and_membership(self):
        fam = Family.of(3, [0b111, 0b001, 0b000])
        assert fam.masks is fam.masks
        assert fam.masks == (0b000, 0b001, 0b111)
        assert fam.mask_set is fam.mask_set
        assert fam.mask_set == frozenset(fam.masks)
        assert 0b001 in fam and PointSet(0b111, 3) in fam
        assert 0b010 not in fam and PointSet(0b010, 3) not in fam
        assert 0b1000 not in fam and -1 not in fam
        same = Family(tuple(PointSet(m, 3) for m in (0b000, 0b001, 0b111)), 3)
        assert same == fam and hash(same) == hash(fam)
        # The PointSet members are a view of the masks, built on each read.
        assert fam.members == fam.members
        assert all(isinstance(m, PointSet) and m.n == 3 for m in fam.members)
        assert [m.bits for m in fam.members] == [0b000, 0b001, 0b111]
        assert same == fam and hash(same) == hash(fam)
        assert repr(same) == repr(fam) == "Family([{},{0},{0,1,2}], n=3)"

    def test_constructor_checks_members(self):
        with pytest.raises(ValueError, match="strictly increasing"):
            Family((PointSet(0b01, 2), PointSet(0b00, 2)), 2)
        with pytest.raises(ValueError, match="strictly increasing"):
            Family((PointSet(0b01, 2), PointSet(0b01, 2)), 2)
        with pytest.raises(CarrierMismatch):
            Family((PointSet(0b01, 3),), 2)
        with pytest.raises(CarrierTooLarge):
            Family((), 25)
        with pytest.raises(ValueError, match=r"^bits 0x4 outside carrier of size 2$"):
            Family.of(2, [0b01, 0b100])
        with pytest.raises(ValueError, match=r"^bits -0x1 outside carrier of size 2$"):
            Family.of(2, [-1])

    def test_membership_checks_the_carrier_of_a_point_set(self):
        fam = Family.of(2, [[0]])
        with pytest.raises(CarrierMismatch):
            PointSet(0b1, 5) in fam
        assert PointSet(0b1, 2) in fam
        assert 0b1 in fam and 0b10 not in fam

    def test_accepts_point_iterables(self):
        fam = Family.of(3, [[0, 1], [2]])
        assert fam.masks == (0b011, 0b100)

    def test_union(self):
        assert family_union(Family.of(3, [])).bits == 0
        assert family_union(Family.of(3, [[0], [1, 2]])).points() == (0, 1, 2)
        assert family_union(Family.of(3, [[0, 1], [1, 2]])).points() == (0, 1, 2)

    def test_intersection(self):
        assert family_intersection(Family.of(3, [[0, 1, 2]])).points() == (0, 1, 2)
        assert family_intersection(Family.of(3, [[0, 1], [1, 2]])).points() == (1,)
        with pytest.raises(EmptyFamilyIntersection):
            family_intersection(Family.of(3, []))

    @given(st.integers(0, 4), st.lists(st.integers(0, 15)))
    def test_union_intersection_bounds(self, n, raw):
        masks = [m & ((1 << n) - 1) for m in raw]
        fam = Family.of(n, masks)
        u = family_union(fam)
        for m in fam:
            assert m <= u
        if len(fam):
            i = family_intersection(fam)
            for m in fam:
                assert i <= m


def _points(n, mask):
    return frozenset(p for p in range(n) if mask >> p & 1)


def _mask(points):
    return sum(1 << p for p in points)


def _join_by_definition(n, masks, within):
    inside = _points(n, within)
    members = [_points(n, m) for m in masks]
    return _mask(frozenset().union(*[m for m in members if m <= inside]))


def _meet_by_definition(n, masks, over):
    held = _points(n, over)
    members = [_points(n, m) for m in masks]
    return _mask(frozenset(range(n)).intersection(*[m for m in members if held <= m]))


class TestFoldKernels:
    """``_join_bits`` and ``_meet_bits`` against their set definitions."""

    def test_every_family_on_at_most_three_points(self):
        for n in range(4):
            full = (1 << n) - 1
            subsets = range(1 << n)
            for size in range(len(subsets) + 1):
                for masks in itertools.combinations(subsets, size):
                    for x in subsets:
                        assert _join_bits(masks, x) == _join_by_definition(n, masks, x)
                        assert _meet_bits(masks, x, full) == _meet_by_definition(n, masks, x)

    def test_seeded_random_families_on_24_points(self):
        n, full = 24, (1 << 24) - 1
        rng = random.Random(24)
        for _ in range(300):
            masks = [rng.getrandbits(n) & rng.getrandbits(n) for _ in range(rng.randrange(1, 40))]
            a, b = rng.choice(masks), rng.choice(masks)
            # a | b holds two members and a & r sits inside one, so both folds
            # keep some member; a random mask alone rarely makes them.
            for x in (rng.getrandbits(n), a | b, a & rng.getrandbits(n)):
                assert _join_bits(masks, x) == _join_by_definition(n, masks, x)
                assert _meet_bits(masks, x, full) == _meet_by_definition(n, masks, x)

    def test_any_iterable_of_masks(self):
        masks = (0b0011, 0b0110, 0b0111, 0b1000)
        for shape in (tuple, list, frozenset):
            assert _join_bits(shape(masks), 0b0111) == 0b0111
            assert _join_bits(shape(masks), 0b1101) == 0b1000
            assert _meet_bits(shape(masks), 0b0010, 0b1111) == 0b0010
            assert _meet_bits(shape(masks), 0b1001, 0b1111) == 0b1111
            assert _join_bits(shape(()), 0b1111) == 0
            assert _meet_bits(shape(()), 0, 0b1111) == 0b1111


class TestSubsetsIter:
    def test_small(self):
        assert [s.bits for s in subsets_iter(0)] == [0]
        assert [s.bits for s in subsets_iter(1)] == [0, 1]
        assert [s.bits for s in subsets_iter(2)] == [0, 1, 2, 3]

    def test_counts_and_order(self):
        for n in range(7):
            seen = [s.bits for s in subsets_iter(n)]
            assert seen == sorted(set(seen))
            assert len(seen) == 1 << n

    def test_cap(self):
        with pytest.raises(CarrierTooLarge):
            next(subsets_iter(25))


class TestPartition:
    def test_block_order_and_index(self):
        P = Partition.of(4, [[3, 1], [0, 2]])
        assert [b.points() for b in P.blocks] == [(0, 2), (1, 3)]
        assert P.block_index() == (0, 1, 0, 1)

    def test_rejects_non_partitions(self):
        with pytest.raises(NotAPartition):
            Partition.of(3, [[0, 1], [1, 2]])
        with pytest.raises(NotAPartition):
            Partition.of(3, [[0, 1]])
        with pytest.raises(NotAPartition):
            Partition.of(2, [[0, 1], []])

    def test_length_is_the_block_count(self):
        assert len(Partition.of(4, [[3, 1], [0, 2]])) == 2
        assert len(Partition.of(0, [])) == 0

    @pytest.mark.parametrize(
        "member, error, message",
        [
            (PointSet.of(3, [0]), CarrierMismatch, "carrier sizes differ: (3, 2)"),
            (4, ValueError, "bits 0x4 outside carrier of size 2"),
            (-1, ValueError, "bits -0x1 outside carrier of size 2"),
            ([0, 2], ValueError, "point 2 outside carrier of size 2"),
        ],
        ids=["pointset", "mask", "negative_mask", "points"],
    )
    def test_members_are_refused_as_in_family_of(self, member, error, message):
        for build in (Family.of, Partition.of):
            with pytest.raises(ValueError) as info:
                build(2, [member])
            assert (type(info.value), str(info.value)) == (error, message)

    def test_blocks_built_directly_are_checked(self):
        # The constructor, not only Partition.of, checks carriers and order.
        with pytest.raises(CarrierMismatch, match="block carrier mismatch"):
            Partition((PointSet.of(3, [0, 1]), PointSet.of(2, [0])), 3)
        with pytest.raises(NotAPartition, match="ordered by smallest member"):
            Partition((PointSet.of(2, [1]), PointSet.of(2, [0])), 2)
