import itertools

import pytest

from conftest import replace
from fintop import (
    CarrierTooLarge,
    EnumConfig,
    Family,
    PointSet,
    count_topologies,
    discrete,
    enumerate_topologies,
    indiscrete,
    separation_report,
    sweep_theorems,
    validate_topology,
)
from fintop import enumeration, separation
from fintop.enumeration import (
    CLASS_CAP,
    PREDICATES,
    _class_leaders,
    _minopen_index,
    _perm_table,
    all_spaces,
    canonical_form,
    topologies_minopen,
    topologies_naive,
)
from fintop.errors import CrossCheckFailure
from fintop.space import _build

KNOWN_COUNTS = {0: 1, 1: 1, 2: 4, 3: 29, 4: 355}

#: Labeled counts for n = 0..5 of each named predicate.  T0 is OEIS A001035
#: and T3 the Bell numbers (a finite T3 space is a partition of the carrier
#: into clopen blocks); the others pin the values the space path gives.
PREDICATE_COUNTS = {
    "t0": [1, 1, 3, 19, 219, 4231],
    "t1": [1, 1, 1, 1, 1, 1],
    "t2": [1, 1, 1, 1, 1, 1],
    "t3": [1, 1, 2, 5, 15, 52],
    "t4": [1, 1, 4, 26, 255, 3642],
    "regular": [1, 1, 1, 1, 1, 1],
    "normal": [1, 1, 1, 1, 1, 1],
    "connected": [1, 1, 3, 19, 233, 4851],
    "compact": [1, 1, 4, 29, 355, 6942],
    "metrizable": [1, 1, 1, 1, 1, 1],
    "locally_connected": [1, 1, 4, 29, 355, 6942],
    "totally_disconnected": [1, 1, 1, 1, 1, 1],
    "locally_compact": [1, 1, 4, 29, 355, 6942],
}


class TestGenerators:
    def test_known_counts(self):
        for n, expected in KNOWN_COUNTS.items():
            assert count_topologies(n) == expected

    def test_generators_agree(self):
        for n in range(5):
            assert topologies_minopen(n) == topologies_naive(n)

    def test_yield_order_and_uniqueness(self):
        for n in range(6):
            seen = topologies_minopen(n)
            assert seen == tuple(sorted(set(seen)))

    def test_codes_strictly_ascending(self):
        # _class_leaders finds a relabeled code by bisection.
        for n in range(6):
            codes = _minopen_index(n)[1]
            assert all(a < b for a, b in zip(codes, codes[1:]))
            assert len(codes) == len(topologies_minopen(n))

    def test_caps(self):
        with pytest.raises(CarrierTooLarge):
            EnumConfig(6)
        for n in (6, -1):
            with pytest.raises(CarrierTooLarge):
                count_topologies(n)
            # n = -1: not the ValueError of a negative shift count
            with pytest.raises(CarrierTooLarge, match="^enumeration capped at n <= 5$"):
                topologies_minopen(n)
        with pytest.raises(CarrierTooLarge, match="^naive filter capped at n <= 4$"):
            topologies_naive(5)
        with pytest.raises(ValueError, match="^unknown mode 'classes'$"):
            EnumConfig(3, "classes")

    def test_last_open_mutant_is_killed(self):
        assert _trusted_mismatch(_last_open_space) == (2, (0b00, 0b01, 0b10, 0b11))

    def test_enumerated_spaces_match_validation(self):
        # Every space both modes yield for n <= 5, built from the U_p code.
        spaces = (
            s
            for n in range(6)
            for mode in ("labeled", "up_to_homeomorphism")
            for s in enumerate_topologies(EnumConfig(n, mode))
        )
        assert _first_mismatch(spaces) is None

    def test_first_open_rule_needs_a_topology(self):
        # {∅, {0,1}, {0,2}, X} passes the m | U_p test with U_p the first
        # member holding p, yet {0,1} ∩ {0,2} = {0} is not a member.
        fam = (0b000, 0b011, 0b101, 0b111)
        firsts = [next(m for m in fam if m >> p & 1) for p in range(3)]
        assert all(m | u in fam for m in fam for u in firsts)
        (violation,) = validate_topology(3, fam)
        assert violation.kind == "NotIntersectionClosed"
        assert [w.bits for w in violation.witness] == [0b011, 0b101]


def _trusted_mismatch(build):
    """The first topology with n <= 5 (6942 at n = 5) whose space built by
    `build` from the generator's opens tuple differs from the validated one;
    None if there is none."""
    return _first_mismatch(
        build(n, opens) for n in range(6) for opens in topologies_minopen(n)
    )


def _first_mismatch(spaces):
    """(n, opens) of the first space that differs from ``validate_topology``
    of its opens in equality, hash, ups or closeds, or None."""
    for built in spaces:
        n, opens = built.n, built.opens.masks
        views = []
        for s in (built, validate_topology(n, opens)):
            views.append((s, hash(s), s.ups, s.closeds))
        if views[0] != views[1]:
            return n, opens
    return None


def _last_open_space(n, opens):
    """A faulty trusted build: U_p taken as the last open holding p."""
    ups = [next(m for m in reversed(opens) if m >> p & 1) for p in range(n)]
    return _build(n, opens, ups)


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

    def test_leaders_are_the_canonical_forms(self):
        for n in range(6):
            labeled = topologies_minopen(n)
            expected = [o for o in labeled if canonical_form(n, o) == o]
            assert [labeled[i] for i in _class_leaders(n)] == expected
            got = enumerate_topologies(EnumConfig(n, mode="up_to_homeomorphism"))
            assert [s.opens.masks for s in got] == expected

    def test_cap_before_table(self):
        misses = _perm_table.cache_info().misses
        for n in (CLASS_CAP + 1, 8, -1):
            with pytest.raises(CarrierTooLarge):
                canonical_form(n, (0, (1 << max(n, 0)) - 1))
        assert _perm_table.cache_info().misses == misses

    def test_masks_outside_the_carrier(self):
        for opens, text in (((0, -1), "-0x1"), ((0, 8), "0x8")):
            with pytest.raises(ValueError, match=rf"^bits {text} outside carrier of size 2$"):
                canonical_form(2, opens)

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
        assert {name: [count_topologies(n, name) for n in range(6)] for name in PREDICATES} == (
            PREDICATE_COUNTS
        )

    def test_callable_predicate(self):
        assert count_topologies(2, lambda s: s == discrete(2)) == 1
        assert count_topologies(2, lambda s: s == indiscrete(2)) == 1

    def test_unknown_name(self):
        with pytest.raises(ValueError):
            count_topologies(2, "no_such_predicate")

    def test_separation_entries_match_report(self):
        # All 390 spaces with n <= 4.
        names = ("t0", "t1", "t2", "t3", "t4", "regular", "normal")
        for n in range(5):
            for s in all_spaces(n):
                rep = separation_report(s)
                for name in names:
                    assert PREDICATES[name](s) == getattr(rep, name), (name, s)

    def test_code_counts_match_the_space_path(self, monkeypatch):
        # The predicates read from the U_p are counted from the codes with no
        # space built.  Each count equals the generated spaces passing the
        # predicate, and those passing its second criterion (the positions
        # in _second_criteria's tuple), which reads the cl{p} as well.
        seconds_at = {"t0": (0,), "t1": (1,), "t2": (2,), "t3": (3,), "regular": (2, 3)}
        assert set(separation.UPS_CRITERIA) == set(seconds_at)
        by_space, by_second = {}, {}
        for name, at in seconds_at.items():
            by_space[name] = [
                sum(1 for _ in enumerate_topologies(EnumConfig(n, predicate=name)))
                for n in range(6)
            ]
            by_second[name] = [
                sum(all(c[i] for i in at) for c in map(separation._second_criteria, all_spaces(n)))
                for n in range(6)
            ]

        def no_space(*args):
            raise AssertionError("a space was built")

        monkeypatch.setattr("fintop.enumeration._build", no_space)
        for name in seconds_at:
            counts = [count_topologies(n, name) for n in range(6)]
            assert counts == by_space[name] == by_second[name] == PREDICATE_COUNTS[name], name

    def test_callable_takes_the_space_path(self, monkeypatch):
        built = []
        build = enumeration._build
        monkeypatch.setattr(
            "fintop.enumeration._build", lambda *args: built.append(1) or build(*args)
        )
        assert count_topologies(5, separation.is_t0) == 4231
        assert len(built) == 6942

    def test_cap_and_name_checked_before_the_index(self, monkeypatch):
        def no_index(n):
            raise AssertionError("_minopen_index was called")

        monkeypatch.setattr("fintop.enumeration._minopen_index", no_index)
        for n in (6, -1):
            with pytest.raises(CarrierTooLarge, match="^enumeration capped at n <= 5$"):
                count_topologies(n, "t0")
        with pytest.raises(ValueError, match="^unknown predicate 'T0'$"):
            count_topologies(5, "T0")

    def test_t0_entry_cross_checks_min_open(self):
        # Give a second point the minimal open of point 0: the literal T0
        # criterion still holds, so the literal cross-check of the T0 entry
        # fails, naming T0 first.
        assert PREDICATES["t0"] is separation.is_t0
        corrupted = 0
        for n in (2, 3):
            for s in all_spaces(n):
                if not separation_report(s).t0:
                    continue
                bad = replace(s, ups=(s.ups[0],) * 2 + s.ups[2:])
                with pytest.raises(CrossCheckFailure, match="^T0:"):
                    separation._literal_cross_check(bad)
                corrupted += 1
        assert corrupted == 3 + 19


class TestSweep:
    def test_all_pass_n2(self):
        out = sweep_theorems(2)
        assert all(rec["ok"] for rec in out.values())
        assert all(rec["counterexample"] is None for rec in out.values())

    def test_cap(self):
        # n = -1 has the sweep's own message, not the enumeration's cap
        for n in (5, -1):
            with pytest.raises(CarrierTooLarge, match="^theorem sweep capped at n <= 4$"):
                sweep_theorems(n)

    def test_locally_connected_mutant_fails_sweep(self, monkeypatch):
        from fintop import connect

        def mutant(s, p):
            # a witness U_p is also required to be a singleton
            u = PointSet(s.ups[p], s.n)
            return p in u and u.bits in s.opens and len(u) == 1

        monkeypatch.setattr(connect, "is_locally_connected_at", mutant)
        out = sweep_theorems(
            2, theorems=["locally_connected_equivalence"], include_maps=False
        )
        assert not out["locally_connected_equivalence"]["ok"]

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

    def test_unknown_override_key_raises(self):
        # A misspelt operator name must not run the clean sweep unnoticed.
        from fintop import closure

        with pytest.raises(ValueError, match=r"^unknown operator overrides: \['clsoure'\]$"):
            sweep_theorems(1, overrides={"clsoure": closure, "interior": lambda s, A: A})



#: The sweep theorems that read a space's subspaces through its context.
_SUBSPACE_THEOREMS = [
    "connected_set_laws",
    "subspace_operator_comparison",
    "separation_hereditary",
    "locally_connected_equivalence",
    "constructor_laws",
]


class TestSweepSubspaces:
    def test_each_subspace_built_once_per_run(self, monkeypatch):
        # Only the subspace of a subspace, which the transitivity law
        # tests, is built again for each pair.
        from fintop import construct

        pool = all_spaces(3)
        real = construct.subspace
        calls = []

        def counted(s, Y):
            if any(s is t for t in pool):
                calls.append((id(s), Y.bits))
            return real(s, Y)

        monkeypatch.setattr(construct, "subspace", counted)
        out = sweep_theorems(3, theorems=_SUBSPACE_THEOREMS, include_maps=False)
        assert all(rec["ok"] for rec in out.values())
        assert len(calls) == len(set(calls)) == len(pool) * 8

    def test_patched_subspace_reaches_the_sweep(self, monkeypatch):
        # Every subspace indiscrete: each theorem that can see it fails.
        # (Every finite space is locally connected, so that law cannot.)
        from fintop import construct

        real = construct.subspace

        def indiscrete_sub(s, Y):
            sub, inc = real(s, Y)
            return indiscrete(sub.n), inc

        monkeypatch.setattr(construct, "subspace", indiscrete_sub)
        out = sweep_theorems(2, theorems=_SUBSPACE_THEOREMS, include_maps=False)
        failed = {name for name, rec in out.items() if not rec["ok"]}
        assert failed == set(_SUBSPACE_THEOREMS) - {"locally_connected_equivalence"}


def test_compact_set_fault_fails_alexandroff_facts(monkeypatch):
    # Singletons read as not compact: the extension drops each U | inf whose
    # complement is one point and, built without validation, is no topology.
    from fintop import compact

    real = compact.is_compact_set
    monkeypatch.setattr(compact, "is_compact_set", lambda s, A: real(s, A) and len(A) != 1)
    out = sweep_theorems(2, theorems=["alexandroff_facts"], include_maps=False)
    assert out["alexandroff_facts"]["counterexample"] == (
        '{"n": 2, "opens": [[], [0], [1], [0, 1]]} sets : '
        "Alexandroff extension does not add U | inf for every open U"
    )


_SIERPINSKI = '{"n": 2, "opens": [[], [0], [0, 1]]} sets : '
_DISCRETE2 = '{"n": 2, "opens": [[], [0], [1], [0, 1]]} sets : '
_CHAIN3 = '{"n": 3, "opens": [[], [0], [1], [0, 1], [0, 2], [0, 1, 2]]} sets : '
_DISCRETE3 = (
    '{"n": 3, "opens": [[], [0], [1], [0, 1], [2], [0, 2], [1, 2], [0, 1, 2]]} sets : '
)
# {0} and {1} open, 2 in the closure of both.
_V3 = '{"n": 3, "opens": [[], [0], [1], [0, 1], [0, 1, 2]]} sets : '

#: covers._is_fundamental faults and the fundamental_cover_laws
#: counterexample each gives at n = 2 and n = 3 (None: the theorem holds).
_FUNDAMENTAL_FAULTS = {
    "always_true": (
        lambda real, s, m: True,
        _SIERPINSKI + "FCOV2-set criterion mismatch: (1, 2)",
        _CHAIN3 + "FCOV2-set criterion mismatch: (1, 6)",
    ),
    "always_false": (
        lambda real, s, m: False,
        _DISCRETE2 + "open cover not fundamental: (3,)",
        _DISCRETE3 + "open cover not fundamental: (7,)",
    ),
    "false_for_three": (
        lambda real, s, m: False if len(m) == 3 else real(s, m),
        _DISCRETE2 + "open cover not fundamental: (1, 2, 3)",
        _DISCRETE3 + "open cover not fundamental: (1, 2, 4)",
    ),
    "true_for_two": (
        lambda real, s, m: True if len(m) == 2 else real(s, m),
        _SIERPINSKI + "FCOV2-set criterion mismatch: (1, 2)",
        _CHAIN3 + "FCOV2-set criterion mismatch: (1, 6)",
    ),
    "false_for_two": (
        lambda real, s, m: False if len(m) == 2 else real(s, m),
        _DISCRETE2 + "open cover not fundamental: (1, 2)",
        _DISCRETE3 + "open cover not fundamental: (1, 6)",
    ),
    "negated": (
        lambda real, s, m: not real(s, m),
        _DISCRETE2 + "open cover not fundamental: (3,)",
        _DISCRETE3 + "open cover not fundamental: (7,)",
    ),
    "only_open_covers": (
        lambda real, s, m: all(x in s.opens.mask_set for x in m) and real(s, m),
        _SIERPINSKI + "finite closed cover not fundamental: (2, 3)",
        _CHAIN3 + "finite closed cover not fundamental: (4, 7)",
    ),
    "ignores_non_open_members": (
        lambda real, s, m: real(s, [x for x in m if x in s.opens.mask_set]),
        None,
        _V3 + "finite closed cover not fundamental: (5, 6)",
    ),
}


def _cover_laws_cx(n):
    out = sweep_theorems(n, theorems=["fundamental_cover_laws"], include_maps=False)
    return out["fundamental_cover_laws"]["counterexample"]


class TestFundamentalCoverLawFaults:
    """Each fault must fail `fundamental_cover_laws` with the counterexample
    the literal (set-based) loops gave: the mask tests visit families and
    (fine, coarse) pairs in the same order."""

    @pytest.mark.parametrize("name", sorted(_FUNDAMENTAL_FAULTS))
    def test_is_fundamental_fault(self, monkeypatch, name):
        from fintop import covers

        fault, cx2, cx3 = _FUNDAMENTAL_FAULTS[name]
        real = covers._is_fundamental
        monkeypatch.setattr(covers, "_is_fundamental", lambda s, m: fault(real, s, m))
        assert _cover_laws_cx(2) == cx2
        assert _cover_laws_cx(3) == cx3

    def test_relative_opens_fault_reaches_the_sweep(self, monkeypatch):
        # Closed traces in place of open ones: coherence now ignores the opens.
        from fintop import covers

        monkeypatch.setattr(
            covers, "relative_opens", lambda s, S: frozenset(S & m for m in s.closeds.masks)
        )
        assert _cover_laws_cx(2) == _SIERPINSKI + "FCOV2-set criterion mismatch: (3,)"
        assert _cover_laws_cx(3) == _CHAIN3 + "FCOV2-set criterion mismatch: (7,)"

    def test_down_set_fault_is_named(self, monkeypatch):
        # Every mask below every member: the first mask hit is no refinement.
        from fintop import theorems

        monkeypatch.setattr(theorems, "_below", lambda N: [(1 << N) - 1] * N)
        disagree = "down-set test disagrees with is_refinement: "
        assert _cover_laws_cx(2) == _SIERPINSKI + disagree + "(3,) (1, 2)"
        assert _cover_laws_cx(3) == _CHAIN3 + disagree + "(7,) (1, 6)"

    def test_confirmed_refinement_is_named(self, monkeypatch):
        from fintop import covers, theorems

        monkeypatch.setattr(theorems, "_below", lambda N: [(1 << N) - 1] * N)
        monkeypatch.setattr(covers, "is_refinement", lambda C_ref, C, s: True)
        refines = "fundamental refinement (3,) of non-fundamental (1, 2)"
        assert _cover_laws_cx(2) == _SIERPINSKI + refines
        refines = "fundamental refinement (7,) of non-fundamental (1, 6)"
        assert _cover_laws_cx(3) == _CHAIN3 + refines

    def test_clean(self):
        for n in range(4):
            assert _cover_laws_cx(n) is None


def _failed_theorems(n=2):
    out = sweep_theorems(n, include_maps=False)
    return {name: rec["counterexample"] for name, rec in out.items() if not rec["ok"]}


class TestSweepLibraryFaults:
    """A fault in the library fails a named theorem: a library error raised
    inside a check is that theorem's counterexample, and each of the four
    theorems below is falsified by one fault at n = 2."""

    def test_cross_check_error_fails_its_theorems(self, monkeypatch):
        # separation_report's ladder check raises on the discrete space.
        monkeypatch.setattr(separation, "is_t1", lambda s: False)
        ladder = _DISCRETE2 + "separation ladder T2 => T1 => T0 broken"
        assert _failed_theorems() == {
            "neighborhood_intersection": _DISCRETE2 + "nei-intersection equality iff T1 broken",
            "finite_t1_rigidity": ladder,
            "separation_hereditary": ladder,
        }

    def test_invalid_base_fails_the_metric_theorem(self, monkeypatch):
        # Closed balls in place of open ones are not a base in general.
        from fintop import construct

        def closed_balls(m):
            radii = {v for row in m.d for v in row if v > 0}
            balls = {
                sum(1 << x for x in range(m.n) if m.d[p][x] <= r)
                for p in range(m.n)
                for r in radii
            }
            return construct.topology_from_base(m.n, Family.of(m.n, balls))

        monkeypatch.setattr(construct, "metric_topology", closed_balls)
        failed = _failed_theorems()
        assert list(failed) == ["metric_topology_discrete"]
        assert failed["metric_topology_discrete"].startswith(
            "not a base: BaseProblem(kind='IntersectionNotUnion'"
        )

    def test_cap_inside_a_check_still_raises(self, monkeypatch):
        from fintop import construct

        def capped(m):
            raise CarrierTooLarge("metric capped")

        monkeypatch.setattr(construct, "metric_topology", capped)
        with pytest.raises(CarrierTooLarge, match="^metric capped$"):
            sweep_theorems(2, theorems=["metric_topology_discrete"], include_maps=False)

    def test_t1_fault_fails_the_t1_theorems(self, monkeypatch):
        monkeypatch.setattr(separation, "is_t1", lambda s: True)
        failed = _failed_theorems()
        assert failed["neighborhood_intersection"] == (
            _SIERPINSKI + "nei-intersection equality iff T1 broken"
        )
        assert failed["finite_t1_rigidity"] == _SIERPINSKI + "finite T1/T2 iff discrete broken"

    def test_base_fault_fails_base_laws(self, monkeypatch):
        # A base that must hold every open.
        from fintop import construct

        monkeypatch.setattr(
            construct, "is_base_for", lambda s, B: set(s.opens.masks) <= set(B.masks)
        )
        assert _failed_theorems()["base_laws"] == (
            _DISCRETE2 + "minimal-open family not a base"
        )

    def test_metric_fault_fails_the_metric_theorem(self, monkeypatch):
        from fintop import construct

        monkeypatch.setattr(construct, "metric_topology", lambda m: indiscrete(m.n))
        cx = _failed_theorems()["metric_topology_discrete"]
        assert cx.startswith("metric table [[0, 6, 7, 5, 7, 9], ")
        assert cx.endswith("] induced a non-discrete topology")
