import itertools

import pytest

from conftest import replace
from fintop import (
    CarrierTooLarge,
    Partition,
    PointSet,
    boundary,
    connected_set_masks,
    check_map,
    closure,
    component_partition,
    components,
    discrete,
    find_homeomorphism,
    indiscrete,
    is_connected,
    is_connected_set,
    is_finer,
    is_locally_connected,
    is_locally_connected_at,
    is_totally_disconnected,
    mcp,
    product,
    quotient,
    space,
    subspace,
)
from fintop.carrier import mask_points
from fintop.enumeration import all_spaces
from fintop.maps import FiniteMap


class TestIsConnected:
    def test_examples(self, sierpinski):
        for n in range(5):
            assert is_connected(indiscrete(n))
        assert not is_connected(discrete(2))
        assert is_connected(sierpinski)

    def test_clopen_characterization(self):
        from fintop import clopen_sets

        for s in all_spaces(3):
            trivial = set(clopen_sets(s).masks) == {0, 0b111}
            assert is_connected(s) == trivial


class TestConnectedSets:
    def test_empty_and_singletons(self, sierpinski):
        for s in all_spaces(3):
            assert is_connected_set(s, PointSet.empty(3))
            for p in range(3):
                assert is_connected_set(s, PointSet.of(3, [p]))

    def test_matches_subspace(self):
        # Every subset of every space with n <= 4 against the definition:
        # A is connected iff its subspace is a connected space.
        for n in range(5):
            for s in all_spaces(n):
                literal = {
                    m
                    for m in range(1 << n)
                    if is_connected(subspace(s, PointSet(m, n))[0])
                }
                assert connected_set_masks(s) == literal
                for m in range(1 << n):
                    A = PointSet(m, n)
                    assert is_connected_set(s, A) == (m in literal)
                    union = 0
                    for c in literal:
                        if m & ~c == 0:
                            union |= c
                    assert mcp(s, A).bits == union
                maximal = [
                    c
                    for c in literal
                    if c and not any(c != d and c & ~d == 0 for d in literal)
                ]
                maximal.sort(key=lambda c: c & -c)
                d = components(s)
                assert [b.bits for b in d.blocks] == maximal
                assert d.block_index() == tuple(
                    next(i for i, c in enumerate(maximal) if c >> p & 1) for p in range(n)
                )

    def test_masks_are_refused_above_the_opens_cap(self):
        # 2**21 masks are refused before the memo is read or filled.
        before = connected_set_masks.cache_info()
        with pytest.raises(CarrierTooLarge, match="21 points"):
            connected_set_masks(indiscrete(21))
        assert connected_set_masks.cache_info() == before

    def test_union_laws(self):
        for s in all_spaces(3):
            conn = [m for m in range(8) if is_connected_set(s, PointSet(m, 3))]
            for a in conn:
                for b in conn:
                    A, B = PointSet(a, 3), PointSet(b, 3)
                    if A & closure(s, B) or B & closure(s, A):
                        assert is_connected_set(s, A | B)

    def test_between_set_and_closure(self):
        for s in all_spaces(3):
            for a in range(8):
                A = PointSet(a, 3)
                if not is_connected_set(s, A):
                    continue
                cl = closure(s, A)
                for b in range(8):
                    B = PointSet(b, 3)
                    if A <= B and B <= cl:
                        assert is_connected_set(s, B)

    def test_boundary_characterization(self):
        # space connected iff only the trivial subsets have empty boundary
        for s in all_spaces(3):
            trivial_only = all(
                boundary(s, PointSet(m, 3)) or m in (0, 0b111) for m in range(8)
            )
            assert is_connected(s) == trivial_only

    def test_coarsening_preserves_connectedness(self):
        for s1 in all_spaces(3):
            for s2 in all_spaces(3):
                if is_finer(s1, s2) and is_connected(s1):
                    assert is_connected(s2)


class TestComponents:
    def test_empty_space(self):
        assert components(space(0, [0])).blocks == ()

    def test_discrete(self):
        d = components(discrete(3))
        assert [b.points() for b in d.blocks] == [(0,), (1,), (2,)]
        assert d.block_index() == (0, 1, 2)

    def test_sierpinski(self, sierpinski):
        d = components(sierpinski)
        assert [b.points() for b in d.blocks] == [(0, 1)]

    def test_structure(self):
        for s in all_spaces(3):
            d = components(s)
            seen = PointSet.empty(3)
            for b in d.blocks:
                assert is_connected_set(s, b)
                assert b.bits in s.closeds
                assert not (seen & b)
                seen = seen | b
            assert seen == PointSet.full(3)
            assert component_partition(s) == Partition.of(
                3, [b.points() for b in d.blocks]
            )

    def test_components_are_the_carrier_partition(self):
        # Each component is clopen, so the quotient by them is discrete.
        for n in range(5):
            for s in all_spaces(n):
                P = components(s)
                assert isinstance(P, Partition)
                assert P == component_partition(s)
                assert quotient(s, P)[0] == discrete(len(P))

    def test_homeomorphic_spaces_same_component_count(self):
        for s1 in all_spaces(3):
            for s2 in all_spaces(3):
                if find_homeomorphism(s1, s2) is not None:
                    assert len(components(s1).blocks) == len(components(s2).blocks)


class TestMcp:
    def test_examples(self, sierpinski):
        assert mcp(discrete(3), PointSet.of(3, [1])).points() == (1,)
        assert mcp(sierpinski, PointSet.of(2, [0])).points() == (0, 1)

    def test_empty_argument(self):
        # union of all connected supersets of the empty set is the carrier
        for s in all_spaces(3):
            assert mcp(s, PointSet.empty(3)) == PointSet.full(3)

    def test_singleton_gives_component(self):
        for s in all_spaces(3):
            d = components(s)
            for p in range(3):
                assert mcp(s, PointSet.of(3, [p])) == d.blocks[d.block_index()[p]]


class TestTotallyDisconnected:
    def test_examples(self):
        assert is_totally_disconnected(discrete(4))
        assert is_totally_disconnected(space(1, [0, 1]))
        assert not is_totally_disconnected(indiscrete(2))

    def test_characterization(self):
        for s in all_spaces(3):
            expected = all(
                len(PointSet(m, 3)) <= 1
                for m in range(8)
                if is_connected_set(s, PointSet(m, 3))
            )
            assert is_totally_disconnected(s) == expected


class TestLocallyConnected:
    def test_examples(self, sierpinski):
        assert is_locally_connected(discrete(4))
        assert is_locally_connected(indiscrete(3))
        assert is_locally_connected(sierpinski)

    def test_pointwise_equivalence(self):
        for s in all_spaces(3):
            assert is_locally_connected(s) == all(
                is_locally_connected_at(s, p) for p in range(3)
            )

    def test_point_outside_carrier(self, sierpinski):
        for p in (-1, 2):
            with pytest.raises(ValueError, match=rf"^point {p} outside carrier of size 2$"):
                is_locally_connected_at(sierpinski, p)


def _corrupt(s, p, u):
    """s with its minimal open U_p replaced by the mask u."""
    mins = list(s.ups)
    mins[p] = u
    return replace(s, ups=tuple(mins))


class TestMinimalOpenWitnesses:
    """The answers read the minimal opens ``ups``, so corrupting them must
    show."""

    def test_facts_on_every_small_space(self):
        for n in range(5):
            for s in all_spaces(n):
                assert is_locally_connected(s)
                assert is_totally_disconnected(s) == (len(s.opens) == 1 << n)

    def test_dropped_comparability_is_seen(self, sierpinski):
        # U_0 = {0, 1} holds the only comparability 0 <= 1.
        bad = _corrupt(sierpinski, 0, 0b01)
        assert len(components(bad)) == 2 != len(components(sierpinski))
        assert not is_locally_connected(bad)
        for n in range(4):
            for s in all_spaces(n):
                for p, u in enumerate(s.ups):
                    for q in mask_points(u):
                        if q != p:
                            bad = _corrupt(s, p, u & ~(1 << q))
                            assert not is_locally_connected_at(bad, p)

    def test_connected_set_memo_keyed_on_minimal_opens(self, sierpinski):
        # The corrupted copy compares equal to the clean space, so a memo
        # keyed on the space would hand it the clean answer.
        assert connected_set_masks(sierpinski) == {0b00, 0b01, 0b10, 0b11}
        bad = _corrupt(sierpinski, 0, 0b01)
        assert bad == sierpinski and hash(bad) == hash(sierpinski)
        assert connected_set_masks(bad) == {0b00, 0b01, 0b10}
        assert connected_set_masks(sierpinski) == {0b00, 0b01, 0b10, 0b11}

    def test_corrupted_minimal_open_breaks_discreteness_test(self, sierpinski):
        assert not is_totally_disconnected(_corrupt(discrete(3), 0, 0b011))
        assert is_totally_disconnected(_corrupt(sierpinski, 0, 0b01))


class TestTransport:
    def test_continuous_image_connected(self):
        for s1 in all_spaces(2):
            for s2 in all_spaces(2):
                for table in itertools.product(range(2), repeat=2):
                    f = FiniteMap.of(2, 2, table)
                    if not check_map(f, s1, s2).continuous:
                        continue
                    for m in range(4):
                        A = PointSet(m, 2)
                        if is_connected_set(s1, A):
                            assert is_connected_set(s2, f.image(A))

    def test_products_and_quotients_of_connected(self):
        for s1 in all_spaces(2):
            if not is_connected(s1):
                continue
            for s2 in all_spaces(2):
                if is_connected(s2):
                    p, _ = product(s1, s2)
                    assert is_connected(p)
            q, _ = quotient(s1, Partition.of(2, [[0, 1]]))
            assert is_connected(q)
            q, _ = quotient(s1, Partition.of(2, [[0], [1]]))
            assert is_connected(q)
