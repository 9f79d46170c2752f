import itertools
import random
import time

import pytest

from conftest import _point_meets
from fintop import (
    CarrierTooLarge,
    CrossCheckFailure,
    Family,
    InvalidBase,
    InvalidMetric,
    MetricTable,
    Partition,
    PointSet,
    SubbaseDoesNotCover,
    TopSpace,
    alexandroff,
    base_generates_same,
    check_base_conditions,
    discrete,
    find_homeomorphism,
    indiscrete,
    is_base_for,
    is_compact,
    is_finer,
    is_metrizable,
    meet_topologies,
    metric_topology,
    one_point_extension,
    product,
    quotient,
    space,
    subspace,
    topology_from_base,
    topology_from_subbase,
    validate_topology,
)
from fintop import construct as construct_mod
from fintop.carrier import family_union, mask_points
from fintop.enumeration import all_spaces
from fintop.space import MAX_OPENS_LOG2


def fam(n, *point_lists):
    return Family.of(n, point_lists)


def opens_as_point_sets(s):
    return {frozenset(m.points()) for m in s.opens}


def all_partitions(n):
    seen = set()
    for labels in itertools.product(range(n), repeat=n):
        blocks = frozenset(
            frozenset(p for p in range(n) if labels[p] == label) for label in labels
        )
        if blocks not in seen:
            seen.add(blocks)
            yield Partition.of(n, [sorted(b) for b in blocks])


class TestBaseConditions:
    def test_examples(self):
        assert check_base_conditions(2, fam(2, [0], [1])) is None
        assert check_base_conditions(2, fam(2, [0, 1])) is None
        result = check_base_conditions(3, fam(3, [0, 1], [1, 2]))
        assert result is not None
        assert result.kind == "IntersectionNotUnion"
        assert {w.bits for w in result.witness} == {0b011, 0b110}

    def test_not_covering(self):
        result = check_base_conditions(2, fam(2, [0]))
        assert result is not None and result.kind == "NotCovering"


class TestTopologyFromBase:
    def test_examples(self):
        assert topology_from_base(2, fam(2, [0], [1])) == discrete(2)
        assert topology_from_base(1, fam(1, [0])) == space(1, [0, 1])

    def test_topology_is_base_for_itself(self):
        for s in all_spaces(3):
            assert topology_from_base(3, s.opens) == s
            assert is_base_for(s, s.opens)

    def test_invalid_base(self):
        with pytest.raises(InvalidBase):
            topology_from_base(3, fam(3, [0, 1], [1, 2]))

    def test_least_topology_containing_base(self):
        # topology_from_base(B) is the coarsest topology containing B,
        # checked against the exhaustive enumeration at n <= 3.
        for n in range(4):
            spaces = all_spaces(n)
            for s in spaces:
                for size in range(min(len(s.opens), 4)):
                    B = Family.of(n, s.opens.masks[: size + 1])
                    if check_base_conditions(n, B) is not None:
                        continue
                    t = topology_from_base(n, B)
                    for other in spaces:
                        if all(m in other.opens for m in B.masks):
                            assert is_finer(other, t)


class TestIsBaseFor:
    def test_examples(self):
        assert is_base_for(discrete(3), fam(3, [0], [1], [2]))
        assert not is_base_for(indiscrete(2), fam(2, [0]))

    def test_min_open_base(self):
        for s in all_spaces(3):
            assert is_base_for(s, Family.of(3, s.ups))


class TestBaseGeneratesSame:
    def test_examples(self):
        singles = fam(2, [0], [1])
        allsubs = fam(2, [], [0], [1], [0, 1])
        assert base_generates_same(2, singles, allsubs) == "equal"
        assert base_generates_same(2, fam(2, [0, 1]), singles) == "t1_coarser"
        assert base_generates_same(2, singles, fam(2, [0, 1])) == "t2_coarser"
        assert base_generates_same(2, singles, singles) == "equal"

    def test_incomparable(self, sierpinski, mirror_sierpinski):
        assert (
            base_generates_same(2, sierpinski.opens, mirror_sierpinski.opens)
            == "incomparable"
        )

    def test_every_pair_of_bases_on_at_most_three_points(self):
        # Bases without ∅ (adding ∅ generates the same topology): 1, 1, 5
        # and 71 for n = 0..3, so 5,068 ordered pairs.
        pairs = 0
        for n in range(4):
            families = (
                Family.of(n, masks)
                for size in range(1 << n)
                for masks in itertools.combinations(range(1, 1 << n), size)
            )
            bases = [B for B in families if check_base_conditions(n, B) is None]
            opens = [topology_from_base(n, B).opens.mask_set for B in bases]
            for B1, o1 in zip(bases, opens):
                for B2, o2 in zip(bases, opens):
                    expected = {
                        (True, True): "equal",
                        (True, False): "t1_coarser",
                        (False, True): "t2_coarser",
                        (False, False): "incomparable",
                    }[o1 <= o2, o2 <= o1]
                    assert base_generates_same(n, B1, B2) == expected
                    pairs += 1
        assert pairs == 5068

    def test_criteria_disagreement_is_caught(self, monkeypatch):
        # With every generated topology indiscrete the subset test says
        # "equal", while the pointwise criterion on the bases says {0, 1}
        # is coarser than {{0}, {1}} and not finer.
        monkeypatch.setattr(construct_mod, "topology_from_base", lambda n, B: indiscrete(n))
        with pytest.raises(CrossCheckFailure, match="^base comparison criteria disagree"):
            base_generates_same(2, Family.of(2, [3]), Family.of(2, [1, 2]))


class TestSubbase:
    def test_examples(self):
        t = topology_from_subbase(3, fam(3, [0, 1], [1, 2]))
        assert t.opens.masks == (0b000, 0b010, 0b011, 0b110, 0b111)

    def test_regenerates_topology(self):
        for s in all_spaces(3):
            S = Family.of(3, (m for m in s.opens.masks if m != 0))
            if not S.masks:
                continue
            assert topology_from_subbase(3, S) == s

    def test_does_not_cover(self):
        with pytest.raises(SubbaseDoesNotCover):
            topology_from_subbase(2, fam(2, [0]))


# Every family of subsets of an n-point carrier, n <= 3.
SMALL_FAMILIES = [
    (n, Family.of(n, [m for m in range(1 << n) if f >> m & 1]))
    for n in range(4)
    for f in range(1 << (1 << n))
]


def closure_under(op, masks):
    """The least superset of ``masks`` closed under the binary ``op``."""
    out = set(masks)
    while True:
        new = {op(a, b) for a in out for b in out} - out
        if not new:
            return out
        out |= new


def reference_base_problem(n, masks):
    """The base definition, pair by pair: (kind, witness masks) or None."""
    union = 0
    for m in masks:
        union |= m
    if union != (1 << n) - 1:
        return ("NotCovering", ())
    for i, a in enumerate(masks):
        for b in masks[i:]:
            inside = 0
            for m in masks:
                if m & ~(a & b) == 0:
                    inside |= m
            if inside != a & b:
                return ("IntersectionNotUnion", (a, b))
    return None


def random_covering_families():
    """Seeded covering families on 4 to 8 points, per carrier: 20 of random
    members, 20 bases (a random space's minimal opens and some of its
    opens) and 20 of those bases with one member grown by a point."""
    rng = random.Random(37)
    out = []
    for n in range(4, 9):
        full = (1 << n) - 1
        for _ in range(20):
            members = {rng.randrange(1, full + 1) for _ in range(rng.randrange(1, 2 * n))}
            uncovered = full ^ family_union(Family.of(n, members)).bits
            if uncovered:
                members.add(uncovered)
            s = random_preorder_space(rng, n)
            base = {*s.ups, *rng.sample(s.opens.masks, min(4, len(s.opens)))}
            grown = sorted(base)
            grown[rng.randrange(len(grown))] |= 1 << rng.randrange(n)
            out += [(n, Family.of(n, f)) for f in (members, base, grown)]
    return out


def singletons(n):
    return Family.of(n, [[p] for p in range(n)])


def co_singletons(n):
    return Family.of(n, [[q for q in range(n) if q != p] for p in range(n)])


class TestGenerationKernel:
    """The minimal-open kernel against the literal definitions, exhaustively
    at n <= 3, and its time and size bounds."""

    def test_base_conditions_match_pairwise_reference(self):
        kinds = []
        for n, B in SMALL_FAMILIES + random_covering_families():
            got = check_base_conditions(n, B)
            if got is not None:
                got = (got.kind, tuple(w.bits for w in got.witness))
            assert got == reference_base_problem(n, B.masks), B
            kinds.append(got and got[0])
        # The random families on 4 to 8 points hold over 100 of each verdict.
        beyond = kinds[len(SMALL_FAMILIES) :]
        assert beyond.count(None) > 100 and beyond.count("IntersectionNotUnion") > 100

    def test_pair_scan_finds_every_meet_failure(self):
        # A covering family with some point meet M_p outside it always has a
        # failing pair (construct's module docstring), so the pair scan
        # behind the fast meet test returns a problem for each.
        failing = 0
        for n, B in SMALL_FAMILIES:
            if family_union(B).bits != (1 << n) - 1:
                continue
            if B.mask_set.issuperset(_point_meets(n, B.masks)):
                continue
            failing += 1
            assert check_base_conditions(n, B).kind == "IntersectionNotUnion", B
        assert failing == 76

    def test_base_generates_its_union_closure(self):
        for n, B in SMALL_FAMILIES:
            if reference_base_problem(n, B.masks) is not None:
                with pytest.raises(InvalidBase):
                    topology_from_base(n, B)
                continue
            expected = closure_under(int.__or__, {0, *B.masks})
            assert set(topology_from_base(n, B).opens.masks) == expected, B

    def test_subbase_generates_unions_of_intersections(self):
        for n, S in SMALL_FAMILIES:
            if reference_base_problem(n, S.masks) == ("NotCovering", ()):
                with pytest.raises(SubbaseDoesNotCover):
                    topology_from_subbase(n, S)
                continue
            base = closure_under(int.__and__, S.masks)
            expected = closure_under(int.__or__, {0, *base})
            assert set(topology_from_subbase(n, S).opens.masks) == expected, S

    @pytest.mark.parametrize(
        "build",
        [
            lambda: topology_from_base(16, singletons(16)),
            lambda: topology_from_subbase(16, co_singletons(16)),
            lambda: product(discrete(4), discrete(4))[0],
        ],
        ids=["singleton-base-16", "co-singleton-subbase-16", "product-discrete-4x4"],
    )
    def test_discrete_16_budget(self, build):
        start = time.perf_counter()
        s = build()
        elapsed = time.perf_counter() - start
        assert len(s.opens) == 1 << 16
        assert elapsed < 2.0, f"took {elapsed:.2f} s"

    @pytest.mark.parametrize(
        "build",
        [
            lambda: topology_from_base(24, singletons(24)),
            lambda: topology_from_subbase(24, co_singletons(24)),
            lambda: metric_topology(
                MetricTable.of([[int(i != j) for j in range(24)] for i in range(24)])
            ),
            lambda: product(discrete(4), discrete(6)),
        ],
        ids=["singleton-base", "co-singleton-subbase", "unit-metric", "product-4x6"],
    )
    def test_opens_cap_on_24_points(self, build):
        # 2**24 opens would not fit the bound discrete keeps (2**20).
        start = time.perf_counter()
        with pytest.raises(CarrierTooLarge):
            build()
        elapsed = time.perf_counter() - start
        assert elapsed < 5.0, f"took {elapsed:.2f} s"

    def test_opens_cap_admits_exactly_its_bound(self):
        # The singletons and the carrier of MAX_OPENS_LOG2 points generate
        # exactly 2**MAX_OPENS_LOG2 opens, which the cap admits; one point
        # more is refused.
        n = MAX_OPENS_LOG2
        base = Family.of(n, [[p] for p in range(n)] + [list(range(n))])
        assert len(topology_from_base(n, base).opens) == 1 << n
        wider = Family.of(n + 1, [[p] for p in range(n + 1)] + [list(range(n + 1))])
        with pytest.raises(CarrierTooLarge):
            topology_from_base(n + 1, wider)


class TestSubspace:
    def test_full_carrier(self, sierpinski):
        sub, inc = subspace(sierpinski, PointSet.full(2))
        assert sub == sierpinski
        assert inc.table == (0, 1)

    def test_singleton(self, three_point):
        sub, inc = subspace(three_point, PointSet.of(3, [2]))
        assert sub == space(1, [0, 1])
        assert inc.table == (2,)

    def test_discrete(self):
        sub, inc = subspace(discrete(3), PointSet.of(3, [0, 2]))
        assert sub == discrete(2)
        assert inc.table == (0, 2)

    def test_transitivity(self):
        # subspace of a subspace equals the direct subspace
        for s in all_spaces(3):
            for y in range(8):
                Y = PointSet(y, 3)
                sub1, inc1 = subspace(s, Y)
                for z_pts in range(1 << len(Y)):
                    Z = PointSet(z_pts, sub1.n)
                    sub2, inc2 = subspace(sub1, Z)
                    orig = PointSet.of(3, [inc1.table[p] for p in Z])
                    direct, inc3 = subspace(s, orig)
                    assert sub2 == direct
                    assert tuple(inc1.table[p] for p in inc2.table) == inc3.table

    def test_matches_pointwise_reference(self):
        # The opens of Y are the sets U & Y, renumbered by rank in Y.
        for n in range(4):
            for s in all_spaces(n):
                for y in range(1 << n):
                    points = PointSet(y, n).points()
                    sub, inc = subspace(s, PointSet(y, n))
                    expected = {
                        frozenset(i for i, p in enumerate(points) if p in U)
                        for U in s.opens
                    }
                    assert opens_as_point_sets(sub) == expected
                    assert inc.table == points

    def test_subspace_base(self, three_point):
        # {Y ∩ B} is a base for the subspace whenever B is a base for s
        B = three_point.opens
        for y in range(8):
            Y = PointSet(y, 3)
            sub, inc = subspace(three_point, Y)
            ordered = Y.points()
            restricted = []
            for m in B.masks:
                restricted.append(
                    [i for i, p in enumerate(ordered) if p in PointSet(m, 3)]
                )
            assert is_base_for(sub, Family.of(sub.n, restricted))


class TestProduct:
    def test_examples(self):
        p, enc = product(indiscrete(2), indiscrete(2))
        assert p == indiscrete(4)
        p, enc = product(discrete(2), discrete(2))
        assert p == discrete(4)

    def test_encoding(self):
        _, enc = product(discrete(2), discrete(3))
        seen = {enc.encode(i, j) for i in range(2) for j in range(3)}
        assert seen == set(range(6))
        for i in range(2):
            for j in range(3):
                assert enc.decode(enc.encode(i, j)) == (i, j)

    def test_encoding_rejects_out_of_range(self):
        _, enc = product(discrete(2), discrete(3))
        for i, j in ((2, 0), (0, 3), (-1, 0), (0, -1)):
            with pytest.raises(ValueError, match="outside 2x3"):
                enc.encode(i, j)
        for k in (-1, 6):
            with pytest.raises(ValueError, match="outside product carrier"):
                enc.decode(k)

    def test_unit_law(self, sierpinski):
        p, enc = product(sierpinski, space(1, [0, 1]))
        assert find_homeomorphism(p, sierpinski) is not None

    def test_projections_continuous_and_coarsest(self, sierpinski, three_point):
        from fintop import check_map

        s1, s2 = sierpinski, three_point
        p, enc = product(s1, s2)
        pr1, pr2 = enc.projection1(), enc.projection2()
        assert check_map(pr1, p, s1).continuous
        assert check_map(pr2, p, s2).continuous
        # coarsest: any topology making both projections continuous is finer
        for other in all_spaces(p.n) if p.n <= 4 else []:
            if check_map(pr1, other, s1).continuous and check_map(pr2, other, s2).continuous:
                assert is_finer(other, p)

    def test_matches_pointwise_reference(self):
        # W is open iff each of its pairs lies in some U x V inside W.
        spaces = [s for n in range(3) for s in all_spaces(n)]
        for s1 in spaces:
            for s2 in spaces:
                p, enc = product(s1, s2)
                for w in range(1 << p.n):
                    W = {enc.decode(k) for k in range(p.n) if w >> k & 1}
                    is_open = all(
                        any(
                            i in U
                            and j in V
                            and all((a, b) in W for a in U.points() for b in V.points())
                            for U in s1.opens
                            for V in s2.opens
                        )
                        for i, j in W
                    )
                    assert (w in p.opens) == is_open

    def test_too_large(self):
        with pytest.raises(CarrierTooLarge):
            product(discrete(5), discrete(5))


class TestQuotient:
    def test_singleton_blocks(self, sierpinski):
        q, proj = quotient(sierpinski, Partition.of(2, [[0], [1]]))
        assert find_homeomorphism(q, sierpinski) is not None
        assert proj.table == (0, 1)

    def test_discrete(self):
        q, proj = quotient(discrete(3), Partition.of(3, [[0, 1], [2]]))
        assert q == discrete(2)
        assert proj.table == (0, 0, 1)

    def test_collapse(self, sierpinski):
        q, proj = quotient(sierpinski, Partition.of(2, [[0, 1]]))
        assert q == space(1, [0, 1])

    def test_matches_pointwise_reference(self):
        # A set of blocks is open iff the points of those blocks form an open.
        for n in range(4):
            for s in all_spaces(n):
                for P in all_partitions(n):
                    q, proj = quotient(s, P)
                    blocks = [b.points() for b in P.blocks]
                    expected = set()
                    for r in range(len(blocks) + 1):
                        for Q in itertools.combinations(range(len(blocks)), r):
                            union = [p for i in Q for p in blocks[i]]
                            if PointSet.of(n, union) in s.opens:
                                expected.add(frozenset(Q))
                    assert opens_as_point_sets(q) == expected
                    assert all(p in P.blocks[proj.table[p]] for p in range(n))

    def test_finest_making_projection_continuous(self):
        from fintop import check_map

        for s in all_spaces(3):
            for P in (
                Partition.of(3, [[0, 1], [2]]),
                Partition.of(3, [[0], [1, 2]]),
                Partition.of(3, [[0, 2], [1]]),
            ):
                q, proj = quotient(s, P)
                assert check_map(proj, s, q).continuous
                for other in all_spaces(q.n):
                    if check_map(proj, s, other).continuous:
                        assert is_finer(q, other)


class TestMetric:
    def test_one_point(self):
        assert metric_topology(MetricTable.of([[0]])) == space(1, [0, 1])

    def test_always_discrete(self):
        rng = random.Random(17)
        for _ in range(200):
            n = rng.randint(1, 6)
            # unit-perturbed metric: d(i,j) in {big..2*big} keeps the
            # triangle inequality for off-diagonal entries
            big = 10
            d = [[0] * n for _ in range(n)]
            for i in range(n):
                for j in range(i + 1, n):
                    d[i][j] = d[j][i] = rng.randint(big, 2 * big)
            m = MetricTable.of(d)
            assert metric_topology(m) == discrete(n)

    def test_invalid(self):
        with pytest.raises(InvalidMetric):
            MetricTable.of([[0, 0], [0, 0]])  # positivity
        with pytest.raises(InvalidMetric):
            MetricTable.of([[0, 1], [2, 0]])  # symmetry
        with pytest.raises(InvalidMetric):
            MetricTable.of([[1]])  # d(i,i) != 0
        with pytest.raises(InvalidMetric):
            MetricTable.of([[0, 1, 5], [1, 0, 1], [5, 1, 0]])  # triangle

    def test_wrong_shape(self):
        for rows in ([[0, 1]], [[0, 1], [1]], [[0, 1, 2], [1, 0, 1]]):
            with pytest.raises(InvalidMetric) as info:
                MetricTable.of(rows)
            assert info.value.axiom == "shape"


class TestMetrizable:
    def test_examples(self):
        assert is_metrizable(discrete(4))
        assert not is_metrizable(indiscrete(2))
        assert is_metrizable(space(1, [0, 1]))
        assert is_metrizable(space(0, [0]))

    def test_matches_discreteness(self):
        for n in range(4):
            for s in all_spaces(n):
                assert is_metrizable(s) == (s == discrete(n))


class TestAlexandroff:
    def test_examples(self):
        assert alexandroff(discrete(1)) == discrete(2)
        ext = alexandroff(indiscrete(2))
        assert ext.opens.masks == (0b000, 0b011, 0b100, 0b111)

    def test_subspace_restitution(self):
        for n in range(4):
            for s in all_spaces(n):
                ext = alexandroff(s)
                sub, inc = subspace(ext, PointSet((1 << s.n) - 1, ext.n))
                assert sub.opens.masks == s.opens.masks

    def test_compact(self):
        for n in range(4):
            for s in all_spaces(n):
                ext = alexandroff(s)
                assert isinstance(ext, TopSpace)
                assert is_compact(ext)


class TestOpenClosedInSubspace:
    def test_open_in_open_subspace_is_open(self):
        # if Y is open in s and V is open in subspace(s, Y), then the
        # corresponding original-carrier set is open in s; closed analogue
        for s in all_spaces(3):
            for y in s.opens.masks:
                Y = PointSet(y, 3)
                sub, inc = subspace(s, Y)
                for v in sub.opens.masks:
                    orig = PointSet.of(3, [inc.table[p] for p in PointSet(v, sub.n)])
                    assert orig.bits in s.opens
            for y in s.closeds.masks:
                Y = PointSet(y, 3)
                sub, inc = subspace(s, Y)
                for v in sub.closeds.masks:
                    orig = PointSet.of(3, [inc.table[p] for p in PointSet(v, sub.n)])
                    assert orig.bits in s.closeds


def assert_validates_to(result):
    """``result`` is the space validate_topology builds from its opens,
    minimal opens included: the definition the constructors no longer run."""
    expected = validate_topology(result.n, result.opens.masks)
    assert isinstance(expected, TopSpace), expected
    assert result == expected
    assert result.ups == expected.ups


def random_preorder_space(rng, n):
    """The space of a seeded random preorder on n points, built through
    ``space`` (validated): U_p is the up-set of p, from about 0.8 random
    arrows per point, so the open counts spread from 4 to a few hundred."""
    ups = [1 << p | sum(1 << q for q in range(n) if rng.random() < 0.8 / n) for p in range(n)]
    changed = True
    while changed:  # transitive closure
        changed = False
        for p in range(n):
            u = ups[p]
            for q in mask_points(u):
                u |= ups[q]
            if u != ups[p]:
                ups[p], changed = u, True
    opens = {0}
    for u in set(ups):
        opens |= {m | u for m in opens}
    return space(n, opens)


def random_partition(rng, n):
    labels = [rng.randrange(n) for _ in range(n)]
    return Partition.of(n, [[p for p in range(n) if labels[p] == k] for k in set(labels)])


RANDOM_SPACES = [
    random_preorder_space(random.Random(1500 + i), n)
    for i, n in enumerate(n for n in range(4, 11) for _ in range(6))
]


class TestTrustedConstructors:
    """Every constructor builds its space without validating it; on every
    input with n <= 3, and on seeded random preorders up to 10 points, the
    result is what validate_topology makes of its opens."""

    def test_subspace(self):
        for n in range(4):
            for s in all_spaces(n):
                for y in range(1 << n):
                    assert_validates_to(subspace(s, PointSet(y, n))[0])

    def test_quotient(self):
        for n in range(4):
            for s in all_spaces(n):
                for P in all_partitions(n):
                    assert_validates_to(quotient(s, P)[0])

    def test_random_preorders(self):
        rng = random.Random(15)
        for s in RANDOM_SPACES:
            assert_validates_to(s)
            for _ in range(12):
                assert_validates_to(subspace(s, PointSet(rng.randrange(1 << s.n), s.n))[0])
                assert_validates_to(quotient(s, random_partition(rng, s.n))[0])

    def test_product(self):
        spaces = [s for n in range(4) for s in all_spaces(n)]
        for s1 in spaces:
            for s2 in spaces:
                if s1.n * s2.n <= 6:
                    assert_validates_to(product(s1, s2)[0])

    def test_extensions_and_meets(self):
        for n in range(4):
            pool = all_spaces(n)
            for s in pool:
                assert_validates_to(alexandroff(s))
                assert_validates_to(one_point_extension(s))
                for t in pool:
                    assert_validates_to(meet_topologies([s, t]))
                    # Three spaces: U_p reaches along the union of all U_q.
                    for u in pool:
                        assert_validates_to(meet_topologies([u, s, t]))

    def test_discrete_and_indiscrete(self):
        for n in range(11):
            assert_validates_to(discrete(n))
            assert_validates_to(indiscrete(n))

    def test_bases_subbases_and_metrics(self):
        for n, B in SMALL_FAMILIES:
            if reference_base_problem(n, B.masks) is None:
                assert_validates_to(topology_from_base(n, B))
            if B.masks and reference_base_problem(n, B.masks) != ("NotCovering", ()):
                assert_validates_to(topology_from_subbase(n, B))
        rng = random.Random(1515)
        for _ in range(60):
            n = rng.randint(0, 6)
            d = [[0] * n for _ in range(n)]
            for i in range(n):
                for j in range(i + 1, n):
                    d[i][j] = d[j][i] = rng.randint(3, 5)
            assert_validates_to(metric_topology(MetricTable.of(d)))

    @pytest.mark.parametrize(
        "build,budget",
        [
            (lambda: discrete(20), 0.5),
            (lambda: product(discrete(4), discrete(4))[0], 0.03),
        ],
        ids=["discrete-20", "product-discrete-4x4"],
    )
    def test_cap_budgets(self, build, budget):
        # They took 2.0 s and 0.07-0.11 s while every result was validated
        # again, and take about 0.06 s and 0.005 s without it.
        start = time.perf_counter()
        s = build()
        elapsed = time.perf_counter() - start
        assert len(s.opens) == 1 << s.n
        assert elapsed < budget, f"took {elapsed:.3f} s"
