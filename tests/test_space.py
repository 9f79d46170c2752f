import importlib
import inspect
import itertools
import random
import sys
import time
import tracemalloc

import pytest

from conftest import _point_meets, replace
from fintop import (
    MAX_CARRIER,
    AxiomViolation,
    CarrierMismatch,
    CarrierTooLarge,
    EmptyList,
    Family,
    InvalidTopology,
    Partition,
    PointSet,
    TopSpace,
    alexandroff,
    clopen_sets,
    closed_sets,
    closure,
    compare,
    count_topologies,
    discrete,
    family_intersection,
    indiscrete,
    is_finer,
    meet_topologies,
    minimal_open,
    neighborhoods,
    one_point_extension,
    product,
    quotient,
    space,
    subspace,
    validate_topology,
)
from fintop.space import _column_preorder, _minimal_opens, _up_set_count


class TestValidateTopology:
    def test_one_point(self):
        s = validate_topology(1, [0, 1])
        assert isinstance(s, TopSpace)
        assert s == discrete(1) == indiscrete(1)

    def test_discrete_two(self):
        s = validate_topology(2, [0, 1, 2, 3])
        assert isinstance(s, TopSpace)
        assert s == discrete(2)

    def test_missing_carrier_and_union(self):
        result = validate_topology(2, [0b00, 0b01, 0b10])
        kinds = {v.kind for v in result}
        assert kinds == {"MissingCarrier", "NotUnionClosed"}
        witness = next(v for v in result if v.kind == "NotUnionClosed").witness
        assert [w.bits for w in witness] == [0b01, 0b10]

    def test_missing_empty(self):
        result = validate_topology(1, [1])
        assert {v.kind for v in result} == {"MissingEmpty"}

    def test_intersection_violation(self):
        # {0,1} and {1,2} are open but {1} is not
        result = validate_topology(3, [0b000, 0b011, 0b110, 0b111])
        assert {v.kind for v in result} == {"NotIntersectionClosed"}

    def test_member_out_of_carrier(self):
        result = validate_topology(2, [0b100, 0b00, 0b11])
        assert "MemberOutOfCarrier" in {v.kind for v in result}
        # a PointSet over the wrong carrier is a usage error, not a violation
        with pytest.raises(CarrierMismatch):
            validate_topology(2, [PointSet.of(3, [2])])
        # the stray member is witnessed over the smallest carrier that holds
        # it, up to the cap; a wider or negative member has no witness
        assert validate_topology(2, [[], [0, 1], [3]]) == [
            AxiomViolation("MemberOutOfCarrier", (PointSet.of(4, [3]),))
        ]
        top = MAX_CARRIER - 1
        assert validate_topology(2, [0, 3, 1 << top]) == [
            AxiomViolation("MemberOutOfCarrier", (PointSet.of(MAX_CARRIER, [top]),))
        ]
        for member in (1 << MAX_CARRIER, 1 << 30, -4):
            assert validate_topology(2, [0, 3, member]) == [
                AxiomViolation("MemberOutOfCarrier")
            ]

    def test_large_point_index_allocates_nothing(self):
        # A point past every carrier is reported without building an int of
        # that many bits; point lists are witnessed as masks are.
        tracemalloc.start()
        try:
            result = validate_topology(2, [[], [0, 1], [10**8]])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert result == [AxiomViolation("MemberOutOfCarrier")]
        assert peak < 100_000
        top = MAX_CARRIER - 1
        assert validate_topology(2, [[], [0, 1], [0, top]]) == [
            AxiomViolation("MemberOutOfCarrier", (PointSet.of(MAX_CARRIER, [0, top]),))
        ]
        for point in (MAX_CARRIER, 40):
            assert validate_topology(2, [[], [0, 1], [0, point]]) == [
                AxiomViolation("MemberOutOfCarrier")
            ]

    def test_member_forms(self):
        # A Family, in-carrier PointSets and point lists are read as masks.
        s = discrete(2)
        assert validate_topology(2, s.opens) == s
        assert validate_topology(2, [PointSet(m, 2) for m in range(4)]) == s
        assert validate_topology(2, [[], [0], [1], [0, 1]]) == s
        with pytest.raises(CarrierMismatch):
            validate_topology(2, discrete(3).opens)
        with pytest.raises(ValueError, match="negative point index"):
            validate_topology(2, [[], [-1], [0, 1]])

    def test_space_raises(self):
        with pytest.raises(InvalidTopology) as err:
            space(2, [0])
        assert {v.kind for v in err.value.violations} == {"MissingCarrier"}

    def test_matches_brute_force_axioms(self):
        # Acceptance anchor: exact agreement with a direct quantifier over
        # all pairs, all subfamilies up to size 3, and the full union.
        n = 3
        full = (1 << n) - 1
        subsets = list(range(1 << n))
        for fam_bits in range(1 << len(subsets)):
            masks = {m for i, m in enumerate(subsets) if fam_bits >> i & 1}
            ok = 0 in masks and full in masks
            if ok:
                for pair in itertools.product(masks, repeat=2):
                    if pair[0] & pair[1] not in masks:
                        ok = False
                        break
            if ok:
                for size in (1, 2, 3):
                    for sub in itertools.combinations(masks, size):
                        u = 0
                        for m in sub:
                            u |= m
                        if u not in masks:
                            ok = False
                            break
                    if not ok:
                        break
            if ok:
                u = 0
                for m in masks:
                    u |= m
                ok = u in masks
            accepted = isinstance(validate_topology(n, sorted(masks)), TopSpace)
            assert accepted == ok, sorted(masks)

    def test_matches_pairwise_reference_exhaustively(self):
        # Every family of subsets with n <= 4 (65,814 families, 390 of them
        # topologies): the minimal-open check must give exactly what the
        # pairwise scan gives, down to the caches and the witnesses.
        topologies = 0
        for n in range(5):
            subsets = 1 << n
            for fam_bits in range(1 << subsets):
                masks = [m for m in range(subsets) if fam_bits >> m & 1]
                expected = _pairwise_reference(n, masks)
                got = validate_topology(n, masks)
                if isinstance(got, TopSpace):
                    topologies += 1
                    actual = (
                        "ok",
                        got.opens.masks,
                        got.closeds.masks,
                        got.ups,
                    )
                else:
                    actual = (
                        "bad",
                        [(v.kind, tuple((w.bits, w.n) for w in v.witness)) for v in got],
                    )
                assert actual == expected, (n, masks)
        assert topologies == 1 + 1 + 4 + 29 + 355

    def test_validation_is_linear_time(self):
        # The pairwise scan needs about 19 s here (about x4 per point).
        start = time.perf_counter()
        s = validate_topology(14, range(1 << 14))
        assert time.perf_counter() - start < 1.0
        assert len(s.opens) == 1 << 14
        assert s.ups == tuple(1 << p for p in range(14))

    @pytest.mark.parametrize(
        "members, expected",
        [
            (lambda n: range(1, 1 << n), [("MissingEmpty", ()), ("NotIntersectionClosed", (1, 2))]),
            (
                lambda n: range((1 << n) - 1),
                [("MissingCarrier", ()), ("NotUnionClosed", (1, (1 << 14) - 2))],
            ),
            (lambda n: range(1, 1 << n, 2), [("MissingEmpty", ())]),
            (lambda n: range(1 << (n - 1)), [("MissingCarrier", ())]),
            (
                lambda n: [m for m in range(1 << n) if m != 1],
                [("NotIntersectionClosed", (3, 5))],
            ),
            (
                lambda n: [m for m in range(1 << n) if m != (1 << n) - 2],
                [("NotUnionClosed", (2, (1 << 14) - 4))],
            ),
            (
                lambda n: range(2, 1 << n),
                [("MissingEmpty", ()), ("NotIntersectionClosed", (2, 4))],
            ),
        ],
        ids=[
            "no-empty",
            "no-carrier",
            "hold-0-no-empty",
            "miss-last-no-carrier",
            "no-{0}",
            "no-X-minus-{0}",
            "no-empty-no-{0}",
        ],
    )
    def test_rejection_witnesses_are_linear_time(self, members, expected):
        # The power set without the empty set or without the carrier, every
        # set holding point 0 without the empty set, and every set missing
        # the last point: the pairwise scan needs 1-3 s at n = 13.  The
        # power set without {0}, without X - {0}, or without both the empty
        # set and {0} is not a topology even with the empty set and the
        # carrier added, and has a witness of one kind only: the full
        # pairwise scan for the other kind took about 3 s at n = 13, x4 per
        # point.
        n = 14
        start = time.perf_counter()
        result = validate_topology(n, members(n))
        assert time.perf_counter() - start < 0.5
        assert [(v.kind, tuple(w.bits for w in v.witness)) for v in result] == expected


class TestUpSetCount:
    """The accept test counts the up-sets of the preorder read from the
    family's columns; it must agree with the ``m | U_p`` criterion it
    replaced, kept here as :func:`_replaced_minimal_opens`."""

    @pytest.mark.parametrize("n", [*range(5, 13), 24])
    def test_matches_the_replaced_criterion(self, n):
        rng = random.Random(n)
        full = (1 << n) - 1
        accepted = rejected = 0
        for _ in range(40):
            opens = _random_topology(rng, n)
            inner = [m for m in opens if 0 < m < full]
            families = [
                opens,
                [m for m in opens if m != rng.choice(inner or [0])],
                opens + [rng.getrandbits(n)],
                [0, full, *(rng.getrandbits(n) for _ in range(rng.randrange(1, 3 * n)))],
            ]
            for fam in families:
                masks = sorted({0, full, *fam})
                got = _minimal_opens(n, masks)
                assert got == _replaced_minimal_opens(n, masks), (n, masks)
                memo = _CountingMemo()
                _up_set_count(*_column_preorder(n, masks), len(masks), memo)
                assert memo.calls <= 2 * len(masks) + n + 1
                if got is None:
                    rejected += 1
                else:
                    accepted += 1
                    assert validate_topology(n, masks).ups == tuple(got)
        assert accepted >= 40 and rejected >= 40

    @pytest.mark.parametrize("n", [0, 1, 5, 9, 12, 24])
    def test_column_preorder_is_the_meets(self, n):
        rng = random.Random(100 + n)
        for size in (0, 1, 2, 5, 30):
            masks = sorted({rng.getrandbits(n) for _ in range(size)})
            ups, downs = _column_preorder(n, masks)
            assert ups == _point_meets(n, masks)
            assert downs == [
                sum(1 << q for q in range(n) if ups[q] >> p & 1) for p in range(n)
            ]

    @pytest.mark.parametrize(
        "masks, valid",
        [([0, 1, 3, 7], True), ([1, 3, 7], False), ([0, 1, 2, 7], False)],
    )
    def test_one_column_pass_per_validation(self, monkeypatch, masks, valid):
        # A rejected family that holds ∅ and the carrier gets its witnesses
        # from the same U_p that rejected it.
        module = importlib.import_module("fintop.space")
        calls = []
        real = module._minimal_opens

        def counting(n, masks):
            calls.append(masks)
            return real(n, masks)

        monkeypatch.setattr(module, "_minimal_opens", counting)
        assert isinstance(validate_topology(3, masks), TopSpace) == valid
        assert len(calls) == 1

    def test_count_is_exact_below_its_limit(self):
        # Twelve disjoint 2-chains have 3**12 up-sets.
        ups, downs = _column_preorder(24, _interleaved_chains())
        assert _up_set_count(ups, downs, 3**12, {}) == 3**12
        assert _up_set_count(ups, downs, 3**12 - 1, {}) > 3**12 - 1

    def test_count_stops_once_it_passes_the_family(self):
        # Without the cutoff the count makes 16,381 calls here.
        masks = _interleaved_chains()
        ups, downs = _column_preorder(24, masks)
        memo = _CountingMemo()
        assert _up_set_count(ups, downs, len(masks), memo) > len(masks)
        assert memo.calls <= 2 * (len(masks) + 1)
        assert _minimal_opens(24, masks) is None


class _CountingMemo(dict):
    """A memo that counts its lookups: one per call of the count."""

    calls = 0

    def get(self, key, default=None):
        self.calls += 1
        return super().get(key, default)


def _interleaved_chains():
    """∅, the carrier and the 24 minimal opens of twelve 2-chains on 24
    points, each chain pairing p with p + 12: 26 members, 3**12 up-sets."""
    ups = [1 << p | 1 << p + 12 for p in range(12)] + [1 << p for p in range(12, 24)]
    return sorted({0, (1 << 24) - 1, *ups})


def _random_topology(rng, n):
    """The opens of a random preorder on n points with at most 4096 of
    them: each U_p is p plus random points, mostly above p, closed under
    reach."""
    while True:
        rate = rng.uniform(0.5, 4) / n
        ups = [
            1 << p | sum(1 << q for q in range(n) if rng.random() < (rate if q > p else rate / 4))
            for p in range(n)
        ]
        changed = True
        while changed:
            changed = False
            for p in range(n):
                reach = ups[p]
                for q in range(n):
                    if ups[p] >> q & 1:
                        reach |= ups[q]
                changed |= reach != ups[p]
                ups[p] = reach
        opens = {0}
        for u in ups:
            opens |= {m | u for m in opens}
            if len(opens) > 4096:
                break
        else:
            return sorted(opens)


def _replaced_minimal_opens(n, masks):
    """The accept test the up-set count replaced: with U_p the meet of the
    members holding p, a family holding ∅ and the carrier is a topology iff
    every ``m | U_p`` is a member."""
    mins = _point_meets(n, masks)
    members = set(masks)
    for u in mins:
        if not members.issuperset([m | u for m in masks]):
            return None
    return mins


def _pairwise_reference(n, masks):
    """The axioms checked pair by pair over a sorted in-carrier family:
    ("ok", opens, closeds, minimal opens) or ("bad", [(kind, witness)])
    with the lexicographically least witness pair of each kind."""
    full = (1 << n) - 1
    members = set(masks)
    violations = []
    if 0 not in members:
        violations.append(("MissingEmpty", ()))
    if full not in members:
        violations.append(("MissingCarrier", ()))
    pairs = list(itertools.combinations(masks, 2))
    for kind, op in (
        ("NotIntersectionClosed", lambda a, b: a & b),
        ("NotUnionClosed", lambda a, b: a | b),
    ):
        bad = next(((a, b) for a, b in pairs if op(a, b) not in members), None)
        if bad is not None:
            violations.append((kind, ((bad[0], n), (bad[1], n))))
    if violations:
        return ("bad", violations)
    min_open = []
    for p in range(n):
        u = full
        for m in masks:
            if m >> p & 1:
                u &= m
        min_open.append(u)
    closeds = tuple(sorted(full & ~m for m in masks))
    return ("ok", tuple(masks), closeds, tuple(min_open))


class TestCanonicalSpaces:
    def test_discrete_indiscrete(self):
        assert len(discrete(2).opens) == 4
        assert indiscrete(3).opens.masks == (0, 0b111)
        assert indiscrete(0).opens.masks == (0,)
        with pytest.raises(CarrierTooLarge):
            discrete(21)

    def test_closed_sets(self, sierpinski):
        assert closed_sets(discrete(2)).masks == (0, 1, 2, 3)
        assert closed_sets(indiscrete(3)).masks == (0, 0b111)
        assert closed_sets(sierpinski).masks == (0b00, 0b01, 0b11)

    def test_closeds_complement_roundtrip(self):
        for s in (discrete(3), indiscrete(3)):
            again = Family.of(s.n, (PointSet(m, s.n).complement() for m in s.closeds.masks))
            assert again.masks == s.opens.masks

    def test_clopen_sets(self, sierpinski):
        assert clopen_sets(sierpinski).masks == (0b00, 0b11)
        assert clopen_sets(discrete(2)).masks == (0, 1, 2, 3)


class TestNeighborhoods:
    def test_empty_set(self, sierpinski):
        assert neighborhoods(sierpinski, PointSet.empty(2), "open") == sierpinski.opens

    def test_sierpinski(self, sierpinski):
        assert neighborhoods(sierpinski, PointSet.of(2, [0]), "open").masks == (0b11,)
        assert neighborhoods(sierpinski, PointSet.of(2, [1]), "closed").masks == (0b11,)

    def test_minimal_open(self, sierpinski):
        assert minimal_open(discrete(3), 1).points() == (1,)
        assert minimal_open(indiscrete(3), 1).points() == (0, 1, 2)
        assert minimal_open(sierpinski, 0).points() == (0, 1)
        assert sierpinski.ups[1] == 0b10

    def test_bad_arguments(self, sierpinski):
        for p in (-1, 2):
            with pytest.raises(ValueError, match=rf"^point {p} outside carrier of size 2$"):
                minimal_open(sierpinski, p)
        with pytest.raises(ValueError, match="kind must be 'open' or 'closed', got 'clopen'"):
            neighborhoods(sierpinski, PointSet.of(2, [0]), "clopen")
        with pytest.raises(ValueError, match="unknown violation kind 'NotClosed'"):
            AxiomViolation("NotClosed")

    def test_min_open_invariants(self):
        for s in _spaces_and_constructions():
            for p in range(s.n):
                mo = minimal_open(s, p)
                assert mo.bits in s.opens
                assert p in mo
                assert mo.bits == s.ups[p]
                assert s.downs[p] == closure(s, PointSet.of(s.n, [p])).bits

    def test_neighborhood_intersection_contains(self, sierpinski):
        for m in range(4):
            A = PointSet(m, 2)
            nei = neighborhoods(sierpinski, A, "open")
            assert A <= family_intersection(nei)


def _spaces_and_constructions():
    """Every space with n <= 4, and what each constructor makes of it."""
    from fintop.enumeration import all_spaces

    sierpinski = space(2, [0b00, 0b10, 0b11])
    for n in range(5):
        full = (1 << n) - 1
        merged = Partition.of(n, [b for b in (full & 0b11, *(1 << p for p in range(2, n))) if b])
        pool = all_spaces(n)
        for i, s in enumerate(pool):
            yield s
            yield subspace(s, PointSet(full & 0b1011, n))[0]
            yield product(s, sierpinski)[0]
            yield quotient(s, merged)[0]
            yield meet_topologies([s, pool[i - 1]])
            yield alexandroff(s)
            yield one_point_extension(s)


class TestCompare:
    def test_classifications(self, sierpinski, mirror_sierpinski):
        assert compare(discrete(2), indiscrete(2)) == "strictly_finer"
        assert compare(indiscrete(2), discrete(2)) == "strictly_coarser"
        assert compare(sierpinski, sierpinski) == "equal"
        assert compare(sierpinski, mirror_sierpinski) == "incomparable"
        assert is_finer(discrete(2), sierpinski)
        assert not is_finer(sierpinski, discrete(2))

    def test_carrier_mismatch(self):
        with pytest.raises(CarrierMismatch):
            compare(discrete(2), discrete(3))

    def test_finer_implies_more_closeds(self):
        from fintop.enumeration import all_spaces

        for s1 in all_spaces(3):
            for s2 in all_spaces(3):
                if is_finer(s1, s2):
                    assert set(s1.closeds.masks) >= set(s2.closeds.masks)


class TestMeet:
    def test_meet(self, sierpinski, mirror_sierpinski):
        assert meet_topologies([discrete(2), indiscrete(2)]) == indiscrete(2)
        assert meet_topologies([sierpinski, mirror_sierpinski]) == indiscrete(2)
        assert meet_topologies([sierpinski]) == sierpinski

    def test_errors(self):
        with pytest.raises(EmptyList):
            meet_topologies([])
        with pytest.raises(CarrierMismatch):
            meet_topologies([discrete(2), discrete(3)])


class TestOnePointExtension:
    def test_on_indiscrete_one(self):
        ext = one_point_extension(indiscrete(1))
        assert ext.n == 2
        assert ext.opens.masks == (0b00, 0b10, 0b11)

    def test_smallest(self):
        ext = one_point_extension(space(0, [0]))
        assert ext.n == 1
        assert ext.opens.masks == (0, 1)

    def test_always_contains_old_carrier_plus_point(self):
        from fintop.enumeration import all_spaces

        for n in range(4):
            for s in all_spaces(n):
                ext = one_point_extension(s)
                assert isinstance(ext, TopSpace)
                assert (1 << ext.n) - 1 in ext.opens
                assert 1 << s.n in ext.opens  # the new point alone is open


class TestMaskPrimary:
    """A space stores masks: validating or trusting one builds no PointSet,
    and its closeds and downs are views built on first read."""

    @pytest.fixture
    def built(self, monkeypatch):
        count = [0]
        post_init = PointSet.__post_init__

        def counting(self):
            count[0] += 1
            post_init(self)

        monkeypatch.setattr(PointSet, "__post_init__", counting)
        return count

    def test_validation_builds_no_pointset(self, built):
        s = space(12, range(1 << 12))
        assert len(s.opens) == len(s.closeds) == 1 << 12
        assert s.ups == tuple(1 << p for p in range(12))
        assert built[0] == 0

    def test_t0_count_builds_no_pointset(self, built):
        assert count_topologies(5, "t0") == 4231
        assert built[0] == 0

    def test_views_are_cached(self, sierpinski):
        assert sierpinski.closeds is sierpinski.closeds
        assert sierpinski.downs is sierpinski.downs

    def test_replaced_ups_reach_min_open(self, sierpinski):
        bad = replace(sierpinski, ups=(0b01, 0b10))
        assert bad == sierpinski and hash(bad) == hash(sierpinski)
        assert minimal_open(bad, 0).points() == (0,)
        assert sierpinski.downs == (0b01, 0b11) and bad.downs == (0b01, 0b10)
        # The caches are not constructor arguments, so no rebuilt space can
        # carry a stale one over.
        for cache in ("_closeds", "_downs"):
            with pytest.raises(TypeError, match=cache):
                TopSpace(2, sierpinski.opens, sierpinski.ups, **{cache: ()})
            with pytest.raises(TypeError, match=cache):
                replace(sierpinski, **{cache: ()})


def test_package_attribute_space_is_the_function_not_the_module():
    # fintop re-exports space() under its module's name, so both import
    # forms below bind the function; a test that patches the module by
    # package attribute would patch the function instead.
    import fintop
    import fintop.space as bound
    from fintop import space as imported

    module = importlib.import_module("fintop.space")
    assert inspect.isfunction(bound) and inspect.isfunction(imported)
    assert bound is imported is fintop.space is space is module.space
    assert inspect.ismodule(module) and module is sys.modules["fintop.space"]
    assert module.TopSpace is TopSpace
