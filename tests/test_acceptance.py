"""Acceptance suite: quantitative anchors, theorem sweeps, constructor laws,
cover optimality, CLI goldens, and fault injection.

Each timed criterion states its wall-clock budget inline; budgets are
generous for CI noise but tight enough to catch algorithmic regressions.
"""

import itertools
import math
import time

from fintop import (
    Family,
    Partition,
    PointSet,
    alexandroff,
    closure,
    count_topologies,
    discrete,
    find_homeomorphism,
    minimal_subcover,
    product,
    quotient,
    separation_report,
    space,
    subspace,
    sweep_theorems,
    t1_minimum,
)
from fintop.cli import cli_dispatch
from fintop.covers import classify_cover
from fintop.enumeration import (
    EnumConfig,
    all_spaces,
    canonical_form,
    enumerate_topologies,
    topologies_minopen,
    topologies_naive,
)
from fintop.mapsweep import MAP_SWEEP_CHECKS
from fintop.theorems import SINGLE_SPACE_THEOREMS, _sweep

EXPECTED_COUNTS = {0: 1, 1: 1, 2: 4, 3: 29, 4: 355}

#: The operator identities: theorem ids read from the operator tables alone.
OPERATOR_IDENTITY_CHECKS = [name for name, _, _ in SINGLE_SPACE_THEOREMS[:12]]

#: Theorem ids forming the timed single-space regression core.
SWEEP_CORE = OPERATOR_IDENTITY_CHECKS + [
    "dense_laws",
    "nowhere_dense_laws",
    "dense_only_full_iff_discrete",
    "connectedness_equivalences",
    "indistinguishability_equivalences",
    "t0_closure_injective",
    "finite_t1_rigidity",
    "compactness_facts",
    "alexandroff_facts",
    "metric_topology_discrete",
]


class TestCriterion1Counts:
    def test_small_counts_fast(self):
        # n <= 3: both generators agree with the known values, under 1 s.
        start = time.perf_counter()
        for n in range(4):
            assert count_topologies(n) == EXPECTED_COUNTS[n]
            assert len(topologies_naive(n)) == EXPECTED_COUNTS[n]
        assert time.perf_counter() - start < 1.0

    def test_n4_counts(self):
        # n = 4: both generators agree exactly, under 60 s.
        start = time.perf_counter()
        assert count_topologies(4) == EXPECTED_COUNTS[4]
        assert len(topologies_naive(4)) == EXPECTED_COUNTS[4]
        assert time.perf_counter() - start < 60.0

    def test_n5_oeis_counts(self):
        # n = 5: labeled (A000798), classes (A001930) and T0 (A001035)
        # counts, under 1 s.
        start = time.perf_counter()
        assert count_topologies(5) == 6942
        reps = enumerate_topologies(EnumConfig(5, "up_to_homeomorphism"))
        assert sum(1 for _ in reps) == 139
        assert count_topologies(5, "t0") == 4231
        assert time.perf_counter() - start < 1.0

    def test_classes_by_burnside(self):
        # Classes are relabeling orbits, so by Burnside's lemma their number
        # is the mean number of labeled topologies a permutation fixes.  The
        # fixed count depends only on the cycle type, and the relabeling
        # here shares no code with the orbit marking or canonical_form.
        for n, expected in enumerate((1, 1, 3, 9, 33, 139)):
            total = 0
            for cycles in _cycle_types(n):
                perm, start = [], 0
                for k in cycles:
                    perm += [start + (i + 1) % k for i in range(k)]
                    start += k
                fixed = 0
                for opens in topologies_minopen(n):
                    members = set(opens)
                    if all(
                        sum(1 << perm[p] for p in range(n) if m >> p & 1) in members
                        for m in opens
                    ):
                        fixed += 1
                total += _type_size(cycles) * fixed
            assert total == expected * math.factorial(n)
            reps = enumerate_topologies(EnumConfig(n, "up_to_homeomorphism"))
            assert sum(1 for _ in reps) == expected

    def test_labeled_counts_by_stirling(self):
        # A topology is a T0 topology on its classes of indistinguishable
        # points, so T(n) = sum over k of S(n, k) T0(k) (Erne & Stege 1991).
        stirling = [[1]]
        for n in range(1, 6):
            prev = stirling[-1] + [0]
            stirling.append([0] + [k * prev[k] + prev[k - 1] for k in range(1, n + 1)])
        t0 = [count_topologies(k, "t0") for k in range(6)]
        assert t0 == [1, 1, 3, 19, 219, 4231]
        for n in range(6):
            assert count_topologies(n) == sum(s * t for s, t in zip(stirling[n], t0))


def _cycle_types(n, largest=None):
    """The partitions of n, parts descending: the cycle types of the
    permutations of n points."""
    if n == 0:
        yield ()
        return
    for k in range(min(n, largest or n), 0, -1):
        for rest in _cycle_types(n - k, k):
            yield (k, *rest)


def _type_size(cycles):
    """How many permutations have the cycle type `cycles`."""
    size = math.factorial(sum(cycles))
    for k in cycles:
        size //= k
    for k in set(cycles):
        size //= math.factorial(cycles.count(k))
    return size


class TestCriterion2HomeoClasses:
    def test_two_methods_agree(self):
        # Partition the 29 labeled topologies on 3 points into classes via
        # find_homeomorphism, and independently count canonical-orbit
        # representatives; exact agreement, under 10 s.
        start = time.perf_counter()
        spaces = all_spaces(3)
        reps = []
        for s in spaces:
            for r in reps:
                if find_homeomorphism(s, r) is not None:
                    break
            else:
                reps.append(s)
        canonical = list(enumerate_topologies(EnumConfig(3, "up_to_homeomorphism")))
        assert len(reps) == len(canonical) == 9
        # every labeled topology is homeomorphic to exactly one representative
        for s in spaces:
            matches = [r for r in canonical if find_homeomorphism(s, r) is not None]
            assert len(matches) == 1
            assert canonical_form(3, s.opens.masks) == matches[0].opens.masks
        assert time.perf_counter() - start < 10.0


class TestCriterion3SingleSpaceSweep:
    def test_core_sweep_n3(self):
        # Zero violations over all 29 topologies x all 8 subsets; the timed
        # core (operator identities + density/connectedness/separation/
        # compactness/Alexandroff/metric facts) runs under 5 s.
        start = time.perf_counter()
        report = sweep_theorems(3, theorems=SWEEP_CORE, include_maps=False)
        elapsed = time.perf_counter() - start
        bad = {k: v for k, v in report.items() if not v["ok"]}
        assert not bad, bad
        assert elapsed < 5.0

    def test_full_single_space_sweep_n3(self):
        report = sweep_theorems(3, include_maps=False)
        bad = {k: v for k, v in report.items() if not v["ok"]}
        assert not bad, bad

    def test_full_single_space_sweep_n4(self):
        # All 34 single-space theorems over the 33 homeomorphism classes on
        # 4 points (coarser_operator_comparison against all 355 on its
        # second side), under 10 s.
        names = [name for name, _, _ in SINGLE_SPACE_THEOREMS]
        assert len(names) == 34
        start = time.perf_counter()
        report = sweep_theorems(4, theorems=names, include_maps=False)
        elapsed = time.perf_counter() - start
        assert sorted(report) == sorted(names)
        bad = {k: v for k, v in report.items() if not v["ok"]}
        assert not bad, bad
        assert elapsed < 10.0

    def test_registry_sets_the_report_order(self):
        # 34 unique ids; a default report lists them in registry order, then
        # the map theorems.  With theorems=[] (the call the sweep3 benchmark
        # workload makes for its map time) only the 13 map ids remain.
        names = [name for name, _, _ in SINGLE_SPACE_THEOREMS]
        assert len(set(names)) == len(names) == 34
        assert len(MAP_SWEEP_CHECKS) == 13
        assert list(sweep_theorems(2)) == names + MAP_SWEEP_CHECKS
        assert list(sweep_theorems(3, theorems=[], include_maps=True)) == MAP_SWEEP_CHECKS

    def test_spot_sweep_n4_operator_identities(self):
        # all 355 labeled topologies on 4 points, unreduced, operator
        # identities only
        report = _sweep(4, all_spaces(4), theorems=OPERATOR_IDENTITY_CHECKS, include_maps=False)
        assert len(report) == 12
        bad = {k: v for k, v in report.items() if not v["ok"]}
        assert not bad, bad


class TestCriterion4MapSweep:
    def test_map_quantified_sweep_n3(self):
        # All ordered pairs of 3-point topologies x all 27 map tables:
        # continuity equivalences, open/closed-map characterizations,
        # pasting, image-of-connected/compact/dense, homeomorphism
        # transport, Hausdorff limit uniqueness.  Under 5 s.
        start = time.perf_counter()
        report = sweep_theorems(3)
        elapsed = time.perf_counter() - start
        bad = {k: v for k, v in report.items() if not v["ok"]}
        assert not bad, bad
        assert elapsed < 5.0

    def test_full_sweep_n4(self):
        # All 47 theorems at n = 4 by default: the map theorems over the 33
        # class representatives on both sides (33 x 33 x 256 triples),
        # under 3 s.
        start = time.perf_counter()
        report = sweep_theorems(4)
        elapsed = time.perf_counter() - start
        assert len(report) == 47
        bad = {k: v for k, v in report.items() if not v["ok"]}
        assert not bad, bad
        assert elapsed < 3.0


class TestCriterion5T1Rigidity:
    def test_t1_iff_discrete(self):
        for n in range(4):
            for s in all_spaces(n):
                assert separation_report(s).t1 == (s == discrete(n))
            assert t1_minimum(n) == discrete(n)


class TestCriterion6ConstructorLaws:
    def test_laws(self):
        start = time.perf_counter()
        one = space(1, [0, 1])
        for n in range(4):
            for s in all_spaces(n):
                # product-unit homeomorphism
                p, _ = product(s, one)
                assert find_homeomorphism(p, s) is not None
                # quotient by singletons
                if n > 0:
                    q, _ = quotient(s, Partition.of(n, [[p_] for p_ in range(n)]))
                    assert find_homeomorphism(q, s) is not None
                # alexandroff restitution
                ext = alexandroff(s)
                sub, _ = subspace(ext, PointSet((1 << n) - 1, ext.n))
                assert sub.opens.masks == s.opens.masks
        # subspace transitivity over all chains Y' subset Y subset X at n = 3
        for s in all_spaces(3):
            for y in range(8):
                Y = PointSet(y, 3)
                sub1, inc1 = subspace(s, Y)
                for z in range(1 << len(Y)):
                    Z = PointSet(z, sub1.n)
                    sub2, inc2 = subspace(sub1, Z)
                    direct, inc3 = subspace(
                        s, PointSet.of(3, [inc1.table[p] for p in Z])
                    )
                    assert sub2 == direct
                    assert tuple(inc1.table[p] for p in inc2.table) == inc3.table
        assert time.perf_counter() - start < 10.0


class TestCriterion7MinimalSubcover:
    def test_optimal_vs_exhaustive(self):
        # All covers of size <= 4 over every n <= 3 space; under 10 s.
        start = time.perf_counter()
        for n in range(4):
            masks_pool = list(range(1, 1 << n)) or [0]
            for s in all_spaces(n):
                for size in range(1, 5):
                    for members in itertools.combinations(masks_pool, size):
                        C = Family.of(n, members)
                        if not classify_cover(s, C).is_cover:
                            continue
                        out = minimal_subcover(s, C)
                        best = min(
                            len(sub)
                            for k in range(len(C.masks) + 1)
                            for sub in itertools.combinations(C.masks, k)
                            if classify_cover(s, Family.of(n, sub)).is_cover
                        )
                        assert len(out) == best
        assert time.perf_counter() - start < 10.0


class TestCriterion8CliGoldens:
    def test_goldens_are_byte_identical(self, tmp_path, monkeypatch, capsys):
        # The 12 fixed transcripts live in test_cli.GOLDENS; here we assert
        # cross-run stability of all of them in one process.
        from test_cli import FILES, GOLDENS

        for name, text in FILES.items():
            (tmp_path / name).write_text(text)
        monkeypatch.chdir(tmp_path)
        assert len(GOLDENS) == 12
        for argv, expected, code in GOLDENS:
            for _ in range(2):
                got = cli_dispatch(argv)
                out = capsys.readouterr().out.rstrip("\n")
                assert out == expected, argv
                assert got == code, argv


class TestCriterion9FaultInjection:
    def test_corrupted_closure_surfaces_named_failure(self):
        def bad_closure(s, A):
            good = closure(s, A)
            full = (1 << s.n) - 1
            bits = (good.bits + 1) & full if good.bits != full else good.bits
            return PointSet(bits, s.n)

        report = sweep_theorems(
            3, overrides={"closure": bad_closure}, include_maps=False
        )
        failed = {k: v for k, v in report.items() if not v["ok"]}
        assert "closure_idempotent" in failed
        for name, rec in failed.items():
            assert rec["counterexample"], name
            # counterexamples serialize the offending space
            assert '"opens"' in rec["counterexample"]

    def test_corrupted_interior_surfaces_named_failure(self):
        def bad_interior(s, A):
            from fintop import interior

            good = interior(s, A)
            full = (1 << s.n) - 1
            bits = (good.bits + 1) & full if good.bits != full else good.bits
            return PointSet(bits, s.n)

        report = sweep_theorems(
            2, overrides={"interior": bad_interior}, include_maps=False
        )
        failed = {k for k, v in report.items() if not v["ok"]}
        assert "interior_idempotent" in failed
