import itertools
import random
import time

import pytest

from fintop import (
    CarrierMismatch,
    FiniteMap,
    NotALimitPoint,
    PointSet,
    check_map,
    closure,
    discrete,
    embeddings_equivalent,
    find_homeomorphism,
    homeomorphic,
    indiscrete,
    is_continuous_at,
    limits_at,
    point_roles,
    restrict,
    space,
    subspace,
)
from fintop import maps
from fintop.enumeration import all_spaces
from fintop.maps import image_bits, preimage_bits
from test_construct import random_preorder_space


def all_maps(n1, n2):
    for table in itertools.product(range(n2), repeat=n1):
        yield FiniteMap.of(n1, n2, table)


class TestCheckMap:
    def test_identity(self, sierpinski):
        r = check_map(FiniteMap.identity(2), sierpinski, sierpinski)
        assert r.continuous and r.open_map and r.closed_map
        assert r.homeomorphism and r.embedding

    def test_constant(self, sierpinski, three_point):
        for v in range(3):
            r = check_map(FiniteMap.constant(2, 3, v), sierpinski, three_point)
            assert r.continuous

    def test_identity_between_topologies(self):
        ident = FiniteMap.identity(2)
        assert not check_map(ident, indiscrete(2), discrete(2)).continuous
        assert check_map(ident, discrete(2), indiscrete(2)).continuous

    def test_report_invariants(self):
        # homeomorphism <=> bijective + continuous + open <=> ... + closed
        for s1 in all_spaces(2):
            for s2 in all_spaces(2):
                for f in all_maps(2, 2):
                    r = check_map(f, s1, s2)
                    bij = r.injective and r.surjective
                    assert r.homeomorphism == (bij and r.continuous and r.open_map)
                    assert r.homeomorphism == (bij and r.continuous and r.closed_map)
                    if r.homeomorphism:
                        assert r.embedding

    def test_carrier_mismatch(self, sierpinski):
        with pytest.raises(CarrierMismatch):
            check_map(FiniteMap.identity(3), sierpinski, sierpinski)

    def test_table_is_checked(self):
        with pytest.raises(ValueError, match=r"^table length 1 != domain size 2$"):
            FiniteMap.of(2, 2, (0,))
        for v in (-1, 2):
            with pytest.raises(ValueError, match=rf"^table entry {v} outside codomain of size 2$"):
                FiniteMap.of(2, 2, (0, v))


def _literal_report(f, s1, s2):
    """(continuous, open, closed, embedding) from the definitions: every
    open's preimage is open, every open's image is open, every closed set's
    image is closed, and f is an embedding."""
    opens1, opens2 = s1.opens.mask_set, s2.opens.mask_set
    closeds2 = s2.closeds.mask_set
    return (
        all(preimage_bits(f.table, w) in opens1 for w in opens2),
        all(image_bits(f.table, u) in opens2 for u in opens1),
        all(image_bits(f.table, c) in closeds2 for c in s1.closeds.masks),
        _literal_embedding(f, s1, s2),
    )


def _literal_embedding(f, s1, s2):
    """f is injective and its corestriction onto the image subspace is
    continuous and open onto it."""
    if not f.is_injective():
        return False
    sub, inclusion = subspace(s2, f.image(PointSet.full(s1.n)))
    reindex = {orig: i for i, orig in enumerate(inclusion.table)}
    corestricted = tuple(reindex[v] for v in f.table)
    opens1, opens_sub = s1.opens.mask_set, sub.opens.mask_set
    return all(preimage_bits(corestricted, w) in opens1 for w in opens_sub) and all(
        image_bits(corestricted, u) in opens_sub for u in opens1
    )


def _literal_continuous_at(f, s1, s2, p):
    """Every open W around f(p) holds the image of some open U around p."""
    return all(
        any(u >> p & 1 and image_bits(f.table, u) & ~w == 0 for u in s1.opens.masks)
        for w in s2.opens.masks
        if w >> f(p) & 1
    )


def _flags(f, s1, s2):
    r = check_map(f, s1, s2)
    got = (r.continuous, r.open_map, r.closed_map, r.embedding)
    assert got == _literal_report(f, s1, s2), (s1, s2, f)
    local = [is_continuous_at(f, s1, s2, p) for p in range(s1.n)]
    assert local == [_literal_continuous_at(f, s1, s2, p) for p in range(s1.n)], (s1, s2, f)
    return got


class TestLiteralReference:
    """check_map and is_continuous_at decide every flag from the minimal
    opens; the definitions over the opens and closed families agree."""

    def test_every_triple_to_three_points(self):
        spaces = [s for n in range(4) for s in all_spaces(n)]
        seen = {
            _flags(f, s1, s2) for s1 in spaces for s2 in spaces for f in all_maps(s1.n, s2.n)
        }
        # Every combination of the four flags except a discontinuous embedding.
        assert len(seen) == 12

    def test_random_triples(self):
        # Per codomain: the inclusion of a random subspace (an embedding), a
        # random injection and a random table from a random domain, and the
        # quotient-like fold onto the first points.
        rng = random.Random(16)
        seen = set()
        for n in range(4, 9):
            for _ in range(60):
                s2 = random_preorder_space(rng, n)
                sub, inclusion = subspace(s2, PointSet(rng.randrange(1, 1 << n), n))
                s1 = random_preorder_space(rng, rng.randint(1, n))
                cases = [
                    (sub, inclusion),
                    (s1, FiniteMap.of(s1.n, n, rng.sample(range(n), s1.n))),
                    (s1, FiniteMap.of(s1.n, n, [rng.randrange(n) for _ in range(s1.n)])),
                    (s2, FiniteMap.of(n, n, [p % s1.n for p in range(n)])),
                ]
                seen |= {_flags(f, dom, s2) for dom, f in cases}
        for flag in range(4):
            assert {flags[flag] for flags in seen} == {False, True}


class TestLocalContinuity:
    def test_discrete_domain(self, sierpinski):
        for f in all_maps(2, 2):
            for p in range(2):
                assert is_continuous_at(f, discrete(2), sierpinski, p)

    def test_indiscrete_codomain(self, sierpinski):
        for f in all_maps(2, 2):
            for p in range(2):
                assert is_continuous_at(f, sierpinski, indiscrete(2), p)

    def test_sierpinski_swap(self, sierpinski):
        swap = FiniteMap.of(2, 2, (1, 0))
        # f(0)=1 has the open neighborhood {1}, but every neighborhood of 0
        # contains 1 and maps onto {0,1}
        assert not is_continuous_at(swap, sierpinski, sierpinski, 0)
        assert is_continuous_at(swap, sierpinski, sierpinski, 1)

    def test_local_equals_global(self):
        for s1 in all_spaces(2):
            for s2 in all_spaces(2):
                for f in all_maps(2, 2):
                    everywhere = all(
                        is_continuous_at(f, s1, s2, p) for p in range(2)
                    )
                    assert everywhere == check_map(f, s1, s2).continuous

    def test_point_outside_domain(self, sierpinski):
        for p in (-1, 2):
            with pytest.raises(ValueError, match=rf"^point {p} outside carrier of size 2$"):
                is_continuous_at(FiniteMap.identity(2), sierpinski, sierpinski, p)


class TestRestrict:
    def test_identity_full(self, sierpinski):
        g = restrict(FiniteMap.identity(2), sierpinski, sierpinski, PointSet.full(2))
        assert g.table == (0, 1)

    def test_empty(self, sierpinski):
        g = restrict(FiniteMap.identity(2), sierpinski, sierpinski, PointSet.empty(2))
        assert g.table == ()

    def test_restriction_of_continuous_is_continuous(self):
        for s1 in all_spaces(3):
            for s2 in all_spaces(2):
                for f in all_maps(3, 2):
                    if not check_map(f, s1, s2).continuous:
                        continue
                    for a in range(8):
                        A = PointSet(a, 3)
                        sub, _ = subspace(s1, A)
                        g = restrict(f, s1, s2, A)
                        assert check_map(g, sub, s2).continuous


class TestLimits:
    def test_indiscrete_codomain_full(self, sierpinski):
        A = PointSet.of(2, [1])
        f = FiniteMap.of(1, 3, (0,))
        out = limits_at(sierpinski, A, f, indiscrete(3), 0)
        assert out == PointSet.full(3)

    def test_discrete_codomain(self):
        A = PointSet.of(2, [1])
        f = FiniteMap.of(1, 2, (0,))
        out = limits_at(indiscrete(2), A, f, discrete(2), 0)
        assert out.points() == (0,)

    def test_not_a_limit_point(self):
        A = PointSet.of(2, [1])
        f = FiniteMap.of(1, 2, (0,))
        with pytest.raises(NotALimitPoint):
            limits_at(discrete(2), A, f, discrete(2), 0)

    def test_errors(self):
        A = PointSet.of(2, [1])
        f = FiniteMap.of(1, 2, (0,))
        for p in (-1, 2):
            with pytest.raises(ValueError, match=rf"^point {p} outside carrier of size 2$"):
                limits_at(discrete(2), A, f, discrete(2), p)
        # 1 is in A, but A holds no point of U_1 other than 1 itself.
        with pytest.raises(NotALimitPoint, match=r"^1 is not a limit point of the set$"):
            limits_at(space(2, [0, 1, 3]), A, f, discrete(2), 1)
        # f must be defined on A: one value per point of A.
        with pytest.raises(ValueError, match=r"^map domain must match \|A\|$"):
            limits_at(discrete(2), A, FiniteMap.of(2, 2, (0, 1)), discrete(2), 0)

    def test_hausdorff_uniqueness(self):
        from fintop import separation_report

        for s1 in all_spaces(3):
            for s2 in all_spaces(2):
                if not separation_report(s2).t2:
                    continue
                for a in range(8):
                    A = PointSet(a, 3)
                    for p in range(3):
                        if not point_roles(s1, A, p).limit:
                            continue
                        for f in all_maps(len(A), 2):
                            assert len(limits_at(s1, A, f, s2, p)) <= 1

    def test_matches_pointwise_reference(self):
        # y is a limit iff each open W around y holds f((U & A) - {p}) for
        # some open U around p; p itself may belong to A.
        for s1 in all_spaces(2) + all_spaces(3):
            for s2 in [s for n in range(1, 4) for s in all_spaces(n)]:
                for a in range(1 << s1.n):
                    A = PointSet(a, s1.n)
                    points = A.points()
                    for p in range(s1.n):
                        if not point_roles(s1, A, p).limit:
                            continue
                        for f in all_maps(len(points), s2.n):
                            images = [
                                {f(i) for i, q in enumerate(points) if q in U and q != p}
                                for U in s1.opens
                                if p in U
                            ]
                            expected = [
                                y
                                for y in range(s2.n)
                                if all(
                                    any(img <= set(W.points()) for img in images)
                                    for W in s2.opens
                                    if y in W
                                )
                            ]
                            assert limits_at(s1, A, f, s2, p).points() == tuple(expected)


class TestFindHomeomorphism:
    def test_self_identity(self, sierpinski, three_point):
        for s in (sierpinski, three_point, discrete(3)):
            w = find_homeomorphism(s, s)
            assert w is not None and w.table == tuple(range(s.n))

    def test_sierpinski_mirror(self, sierpinski, mirror_sierpinski):
        w = find_homeomorphism(sierpinski, mirror_sierpinski)
        assert w is not None and w.table == (1, 0)

    def test_none(self):
        assert find_homeomorphism(discrete(2), indiscrete(2)) is None
        assert not homeomorphic(discrete(2), indiscrete(2))

    def test_witness_is_homeomorphism(self):
        for s1 in all_spaces(3):
            for s2 in all_spaces(3):
                w = find_homeomorphism(s1, s2)
                if w is not None:
                    assert check_map(w, s1, s2).homeomorphism
                else:
                    for perm in itertools.permutations(range(3)):
                        f = FiniteMap.of(3, 3, perm)
                        assert not check_map(f, s1, s2).homeomorphism

    def test_equivalence_relation(self):
        spaces = all_spaces(3)
        for s1 in spaces:
            assert homeomorphic(s1, s1)
        for s1 in spaces:
            for s2 in spaces:
                assert homeomorphic(s1, s2) == homeomorphic(s2, s1)

    def test_witness_is_least_transporting_permutation(self):
        # Reference: the first permutation, in lexicographic order, that
        # carries the opens of s1 onto those of s2.
        spaces = [s for n in range(4) for s in all_spaces(n)]
        for s1 in spaces:
            for s2 in spaces:
                want = None
                if s1.n == s2.n:
                    want = next(
                        (
                            perm
                            for perm in itertools.permutations(range(s1.n))
                            if _transports(perm, s1, s2)
                        ),
                        None,
                    )
                w = find_homeomorphism(s1, s2)
                assert (w and w.table) == want, (s1, s2)


def _transports(perm, s1, s2):
    return {image_bits(perm, u) for u in s1.opens.masks} == s2.opens.mask_set


def _automorphisms_by_filter(s):
    """Every permutation of the carrier that fixes the opens."""
    return [p for p in itertools.permutations(range(s.n)) if _transports(p, s, s)]


class TestCompositionLaws:
    def test_composition(self):
        for s1 in all_spaces(2):
            for s2 in all_spaces(2):
                for s3 in all_spaces(2):
                    for f in all_maps(2, 2):
                        for g in all_maps(2, 2):
                            rf = check_map(f, s1, s2)
                            rg = check_map(g, s2, s3)
                            rc = check_map(g.compose(f), s1, s3)
                            if rf.continuous and rg.continuous:
                                assert rc.continuous
                            if rf.homeomorphism and rg.homeomorphism:
                                assert rc.homeomorphism

    def test_inverse_of_homeomorphism(self, sierpinski, mirror_sierpinski):
        w = find_homeomorphism(sierpinski, mirror_sierpinski)
        r = check_map(w.inverse(), mirror_sierpinski, sierpinski)
        assert r.homeomorphism

    def test_only_bijections_invert(self):
        for f in (FiniteMap.of(2, 2, (0, 0)), FiniteMap.of(1, 2, (0,)), FiniteMap.of(2, 1, (0, 0))):
            with pytest.raises(ValueError, match="only bijections have an inverse"):
                f.inverse()


class TestEmbeddings:
    def test_inclusion_is_embedding(self):
        for s in all_spaces(3):
            for y in range(1, 8):
                Y = PointSet(y, 3)
                sub, inc = subspace(s, Y)
                assert check_map(inc, sub, s).embedding

    def test_transport_by_homeomorphism(self, sierpinski, mirror_sierpinski):
        w = find_homeomorphism(sierpinski, mirror_sierpinski)
        for m in range(4):
            A = PointSet(m, 2)
            assert w.image(closure(sierpinski, A)) == closure(
                mirror_sierpinski, w.image(A)
            )

    def test_embeddings_equivalent(self, sierpinski):
        one = space(1, [0, 1])
        e0 = FiniteMap.of(1, 2, (0,))
        e1 = FiniteMap.of(1, 2, (1,))
        # Sierpinski has a trivial automorphism group, so the two point
        # inclusions are inequivalent; each is equivalent to itself.
        assert embeddings_equivalent(one, sierpinski, e0, e0)
        assert not embeddings_equivalent(one, sierpinski, e0, e1)
        assert embeddings_equivalent(one, discrete(2), e0, e1)

    def test_embeddings_equivalent_matches_filter(self):
        # Reference: both automorphism groups filtered from all n!
        # permutations, and every pair (h1, h2) tried.
        spaces = [s for n in range(4) for s in all_spaces(n)]
        for s1 in spaces:
            autos1 = _automorphisms_by_filter(s1)
            for s2 in spaces:
                if s1.n > s2.n:
                    continue
                autos2 = _automorphisms_by_filter(s2)
                tables = [
                    FiniteMap.of(s1.n, s2.n, t)
                    for t in itertools.permutations(range(s2.n), s1.n)
                ]
                for e1 in tables:
                    for e2 in tables:
                        want = any(
                            tuple(e1.table[v] for v in h1) == tuple(h2[v] for v in e2.table)
                            for h1 in autos1
                            for h2 in autos2
                        )
                        assert embeddings_equivalent(s1, s2, e1, e2) == want

    def test_every_table_transports_the_opens(self):
        # The search yields a table once it carries the specialization
        # preorder both ways; each such table maps opens onto opens.
        found = 0
        for n in range(5):
            pool = all_spaces(n)
            for s1 in pool:
                for s2 in pool:
                    for table in maps._homeomorphisms(s1, s2):
                        assert {image_bits(table, u) for u in s1.opens.masks} == s2.opens.mask_set
                        found += 1
        assert found == 8704

    def test_discrete_embeddings_budget(self):
        # 7! automorphisms per side, 0.38 s while every leaf transported
        # all 128 opens.
        identity = FiniteMap.identity(7)
        start = time.perf_counter()
        assert embeddings_equivalent(discrete(7), discrete(7), identity, identity)
        assert time.perf_counter() - start < 0.1

    def test_chain_embeddings_budget(self):
        # A chain has one automorphism: no search over the 12! permutations.
        chain = space(12, [(1 << k) - 1 for k in range(13)])
        identity = FiniteMap.identity(12)
        swap = FiniteMap.of(12, 12, (1, 0, *range(2, 12)))
        start = time.perf_counter()
        assert embeddings_equivalent(chain, chain, identity, identity)
        assert not embeddings_equivalent(chain, chain, identity, swap)
        assert time.perf_counter() - start < 1.0


class TestDenseImage:
    def test_surjective_continuous_image_of_dense_is_dense(self):
        from fintop import density_report

        for s1 in all_spaces(2):
            for s2 in all_spaces(2):
                for f in all_maps(2, 2):
                    r = check_map(f, s1, s2)
                    if not (r.continuous and r.surjective):
                        continue
                    for m in range(4):
                        A = PointSet(m, 2)
                        if density_report(s1, A).dense:
                            assert density_report(s2, f.image(A)).dense


class TestImagePreimageKernels:
    def test_pointwise_and_galois_laws(self):
        for n1 in range(4):
            for n2 in range(4):
                for table in itertools.product(range(n2), repeat=n1):
                    for a in range(1 << n1):
                        img = image_bits(table, a)
                        points = PointSet(a, n1).points()
                        assert img == PointSet.of(n2, {table[p] for p in points}).bits
                        assert a & ~preimage_bits(table, img) == 0
                    for b in range(1 << n2):
                        pre = preimage_bits(table, b)
                        points = [p for p in range(n1) if table[p] in PointSet(b, n2)]
                        assert pre == PointSet.of(n1, points).bits
                        assert image_bits(table, pre) & ~b == 0
