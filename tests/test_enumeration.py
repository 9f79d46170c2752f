import itertools

import pytest

from fintop import (
    CarrierTooLarge,
    EnumConfig,
    PointSet,
    count_topologies,
    count_topologies_parallel,
    discrete,
    enumerate_topologies,
    indiscrete,
    sweep_theorems,
)
from fintop.enumeration import (
    CLASS_CAP,
    PREDICATES,
    _is_canonical,
    _minopen_scan,
    _perm_table,
    all_spaces,
    canonical_form,
    topologies_minopen,
    topologies_naive,
)

KNOWN_COUNTS = {0: 1, 1: 1, 2: 4, 3: 29, 4: 355}


class TestGenerators:
    def test_known_counts(self):
        for n, expected in KNOWN_COUNTS.items():
            assert count_topologies(n) == expected

    def test_generators_agree(self):
        for n in range(5):
            assert topologies_minopen(n) == topologies_naive(n)

    def test_yield_order_and_uniqueness(self):
        for n in range(4):
            seen = topologies_minopen(n)
            assert seen == tuple(sorted(set(seen)))

    def test_caps(self):
        with pytest.raises(CarrierTooLarge):
            EnumConfig(6)
        with pytest.raises(CarrierTooLarge):
            count_topologies_parallel(6)

    def test_scan_partitions_by_first_open(self):
        for n in (4, 5):
            parts = [list(_minopen_scan(n, first)) for first in range(1 << n) if first & 1]
            assert sum(map(len, parts)) == count_topologies(n)
            assert sorted(o for part in parts for o in part) == list(topologies_minopen(n))


class TestCanonicalForm:
    def test_idempotent_and_least(self):
        for n in range(4):
            for s in all_spaces(n):
                c = canonical_form(n, s.opens.masks)
                assert canonical_form(n, c) == c
                assert c <= s.opens.masks

    def test_matches_brute_force(self):
        def reference(n, opens):
            best = None
            for perm in itertools.permutations(range(n)):
                image = tuple(
                    sorted(sum(1 << perm[p] for p in range(n) if m >> p & 1) for m in opens)
                )
                best = image if best is None else min(best, image)
            return best

        for n in range(5):
            for opens in topologies_minopen(n):
                assert canonical_form(n, opens) == reference(n, opens)

    def test_early_exit_filter(self):
        for n in range(6):
            for opens in topologies_minopen(n):
                assert _is_canonical(n, opens) == (canonical_form(n, opens) == opens)

    def test_cap_before_table(self):
        misses = _perm_table.cache_info().misses
        for n in (CLASS_CAP + 1, 8, -1):
            with pytest.raises(CarrierTooLarge):
                canonical_form(n, (0, (1 << max(n, 0)) - 1))
        assert _perm_table.cache_info().misses == misses

    def test_class_counts(self):
        reps2 = list(enumerate_topologies(EnumConfig(2, mode="up_to_homeomorphism")))
        assert len(reps2) == 3
        reps3 = list(enumerate_topologies(EnumConfig(3, mode="up_to_homeomorphism")))
        assert len(reps3) == 9


class TestPredicates:
    def test_predicate_counts(self):
        # only the discrete topology is T1 on a finite carrier
        assert count_topologies(3, "t1") == 1
        assert count_topologies(3, "t2") == 1
        assert count_topologies(3, "compact") == 29
        assert count_topologies(3, "connected") == sum(
            1 for s in all_spaces(3) if PREDICATES["connected"](s)
        )

    def test_callable_predicate(self):
        assert count_topologies(2, lambda s: s == discrete(2)) == 1
        assert count_topologies(2, lambda s: s == indiscrete(2)) == 1

    def test_unknown_name(self):
        with pytest.raises(ValueError):
            count_topologies(2, "no_such_predicate")


class TestParallel:
    def test_matches_serial(self):
        for n in (1, 2, 3):
            assert count_topologies_parallel(n, processes=2) == KNOWN_COUNTS[n]

    def test_with_predicate(self):
        assert count_topologies_parallel(3, "t1", processes=2) == 1


class TestSweep:
    def test_all_pass_n2(self):
        out = sweep_theorems(2)
        assert all(rec["ok"] for rec in out.values())
        assert all(rec["counterexample"] is None for rec in out.values())

    def test_cap(self):
        with pytest.raises(CarrierTooLarge):
            sweep_theorems(5)

    def test_fault_injection_names_theorem(self):
        def bad_closure(s, A):
            from fintop import closure

            good = closure(s, A)
            full = (1 << s.n) - 1
            bits = (good.bits + 1) & full if good.bits != full else good.bits
            return PointSet(bits, s.n)

        out = sweep_theorems(
            2, overrides={"closure": bad_closure}, include_maps=False
        )
        failed = {name for name, rec in out.items() if not rec["ok"]}
        assert "closure_idempotent" in failed
        for name in failed:
            assert out[name]["counterexample"]
