import itertools

import pytest

from conftest import replace
from fintop import (
    CarrierTooLarge,
    FiniteMap,
    PointSet,
    TopSpace,
    check_map,
    classify_pair,
    closure,
    discrete,
    indiscrete,
    minimal_open,
    neighborhoods,
    separation_report,
    space,
    subspace,
    sweep_theorems,
    t1_minimum,
)
from fintop import separation
from fintop.enumeration import all_spaces
from fintop.errors import CrossCheckFailure


class TestClassifyPair:
    def test_identical_points(self, sierpinski):
        for s in all_spaces(3):
            for p in range(3):
                assert classify_pair(s, p, p).indistinguishable

    def test_indiscrete(self):
        c = classify_pair(indiscrete(2), 0, 1)
        assert c.indistinguishable and not c.distinguishable

    def test_sierpinski(self, sierpinski):
        c = classify_pair(sierpinski, 0, 1)
        assert c.partially_distinguishable and not c.separated

    def test_point_outside_carrier(self, sierpinski):
        for p, q in ((2, 0), (0, 2), (-1, 1)):
            bad = p if not 0 <= p < 2 else q
            with pytest.raises(ValueError, match=rf"^point {bad} outside carrier of size 2$"):
                classify_pair(sierpinski, p, q)

    def test_flag_invariants(self):
        for s in all_spaces(3):
            for p in range(3):
                for q in range(3):
                    c = classify_pair(s, p, q)
                    assert c.partially_distinguishable == (not c.indistinguishable)
                    if c.separated:
                        assert c.distinguishable
                    if c.distinguishable:
                        assert c.partially_distinguishable

    def test_indistinguishability_equivalences(self):
        for s in all_spaces(3):
            for p in range(3):
                for q in range(3):
                    nei_eq = neighborhoods(
                        s, PointSet.of(3, [p]), "open"
                    ) == neighborhoods(s, PointSet.of(3, [q]), "open")
                    cnei_eq = neighborhoods(
                        s, PointSet.of(3, [p]), "closed"
                    ) == neighborhoods(s, PointSet.of(3, [q]), "closed")
                    mo_eq = minimal_open(s, p) == minimal_open(s, q)
                    cl_eq = closure(s, PointSet.of(3, [p])) == closure(
                        s, PointSet.of(3, [q])
                    )
                    ind = classify_pair(s, p, q).indistinguishable
                    assert ind == nei_eq == cnei_eq == mo_eq == cl_eq


class TestSeparationReport:
    def test_discrete(self):
        r = separation_report(discrete(3))
        assert r.t0 and r.t1 and r.t2 and r.t3 and r.t4
        assert r.regular and r.normal

    def test_indiscrete(self):
        r = separation_report(indiscrete(2))
        assert not r.t0
        assert r.t3 and r.t4
        assert not r.regular and not r.normal

    def test_sierpinski(self, sierpinski):
        r = separation_report(sierpinski)
        assert r.t0 and not r.t1

    def test_ladder(self):
        for n in range(4):
            for s in all_spaces(n):
                r = separation_report(s)
                if r.t2:
                    assert r.t1
                if r.t1:
                    assert r.t0
                assert r.regular == (r.t2 and r.t3)
                assert r.normal == (r.t2 and r.t4)

    def test_ladder_check_fires(self):
        # A discrete space whose U_p are swapped: no point is in its own
        # U_p, so T2 holds while T1 fails, and the ladder check must say so.
        s = replace(discrete(2), ups=(2, 1))
        with pytest.raises(CrossCheckFailure, match="^separation ladder"):
            separation_report(s)

    def test_identity_closure_breaks_cross_checks(self, monkeypatch):
        # With Cl(V) = V the T3/T4 equivalents hold on every space, so the
        # literal criteria must disagree with them somewhere.
        monkeypatch.setattr(separation, "closure", lambda s, A: A)
        failures = []
        for n in range(4):
            for s in all_spaces(n):
                try:
                    separation._literal_report(s)
                except CrossCheckFailure as exc:
                    failures.append(str(exc))
        assert failures
        assert all(f.startswith(("T3:", "T4:")) for f in failures)

    def test_t0_iff_closure_injective(self):
        for s in all_spaces(3):
            closures = [closure(s, PointSet.of(3, [p])).bits for p in range(3)]
            assert separation_report(s).t0 == (len(set(closures)) == 3)

    def test_finite_rigidity(self):
        # on finite carriers t1, t2, and discreteness coincide
        for n in range(4):
            for s in all_spaces(n):
                r = separation_report(s)
                assert r.t1 == r.t2 == (s == discrete(n))

    def test_t1_t3_hereditary(self):
        for s in all_spaces(3):
            r = separation_report(s)
            for y in range(8):
                sub, _ = subspace(s, PointSet(y, 3))
                rs = separation_report(sub)
                if r.t1:
                    assert rs.t1
                if r.t3:
                    assert rs.t3

    def test_closed_subspace_of_normal_is_normal(self):
        for s in all_spaces(3):
            if not separation_report(s).normal:
                continue
            for y in s.closeds.masks:
                sub, _ = subspace(s, PointSet(y, 3))
                assert separation_report(sub).normal

    def test_injective_continuous_into_t1(self):
        for s1 in all_spaces(3):
            for s2 in all_spaces(3):
                if not separation_report(s2).t1:
                    continue
                for perm in itertools.permutations(range(3)):
                    f = FiniteMap.of(3, 3, perm)
                    if check_map(f, s1, s2).continuous:
                        assert separation_report(s1).t1

    def test_indiscrete_to_t1_is_constant(self):
        for n1 in (1, 2, 3):
            s1 = indiscrete(n1)
            for s2 in all_spaces(3):
                if not separation_report(s2).t1:
                    continue
                for table in itertools.product(range(3), repeat=n1):
                    f = FiniteMap.of(n1, 3, table)
                    if check_map(f, s1, s2).continuous:
                        assert len(set(table)) == 1


def _with_ups(n, opens, ups):
    """The space of `opens` with its minimal opens replaced by `ups`."""
    return replace(space(n, opens), ups=tuple(ups))


# Corrupted minimal opens, each the minimal opens of another space on the
# same carrier, so the second preorder criterion of every axiom, which runs
# only in the literal cross-check (`separation._second_criteria`), still
# agrees with the predicate, and only the literal criteria kill them;
# (opens, corrupted U_p, what the literal cross-check must name).
MIN_OPEN_MUTANTS = {
    "t0": ([0, 1, 3, 7], [1, 7, 7], {"T0", "pair"}),
    "t1": ([0, 1, 2, 3], [1, 3], {"T1", "T2", "T3", "REGULAR", "NORMAL", "pair"}),
    "t2": ([0, 1, 2, 3], [3, 3], {"T0", "T1", "T2", "REGULAR", "NORMAL", "pair"}),
    "t3": ([0, 1, 7], [7, 7, 7], {"T3", "pair"}),
    "t4": ([0, 1, 3, 5, 7], [1, 3, 7], {"T4", "pair"}),
    "classify_pair": ([0, 1, 6, 7], [7, 7, 7], {"pair"}),
}


class TestLiteralCrossCheck:
    def test_preorder_agrees_with_literal_up_to_n5(self):
        # All 7,332 spaces with n <= 5: every axiom and every pair class.
        for n in range(6):
            for s in all_spaces(n):
                assert separation._literal_cross_check(s) == separation_report(s)

    @pytest.mark.parametrize("target", MIN_OPEN_MUTANTS)
    def test_min_open_mutant_is_killed(self, target):
        opens, ups, named = MIN_OPEN_MUTANTS[target]
        bad = _with_ups(len(ups), opens, ups)
        rep = separation_report(bad)  # neither preorder criterion sees it
        assert separation._second_criteria(bad) == (rep.t0, rep.t1, rep.t2, rep.t3, rep.t4)
        with pytest.raises(CrossCheckFailure) as exc:
            separation._literal_cross_check(bad)
        got = {part.split(":")[0].split(" (")[0] for part in str(exc.value).split("; ")}
        assert got == named
        if target != "classify_pair":
            assert target.upper() in got

    def test_faulty_transpose_is_caught(self, monkeypatch):
        # Drop the highest point of every cl{p}.  The predicates read the
        # down-sets only for T4, so the literal cross-check must name every
        # axiom whose second criterion reads them, and never T2, whose
        # second criterion reads only the U_p.
        downs = TopSpace.downs.fget
        monkeypatch.setattr(
            TopSpace,
            "downs",
            property(lambda s: tuple(d ^ (1 << (d.bit_length() - 1)) for d in downs(s))),
        )
        named = set()
        for n in range(4):
            for s in all_spaces(n):
                try:
                    separation._literal_cross_check(s)
                except CrossCheckFailure as exc:
                    named |= {
                        part.split(":")[0]
                        for part in str(exc).split("; ")
                        if "criteria disagree" in part
                    }
        assert named == {"T0", "T1", "T3", "T4"}

    @pytest.mark.parametrize(
        "attr, fault, named",
        [
            ("is_t4", lambda orig: lambda s: True, "T4: preorder=True literal=False"),
            (
                "classify_pair",
                lambda orig: lambda s, p, q: replace(
                    orig(s, p, q), separated=False
                ),
                "pair (0, 1): preorder=",
            ),
        ],
        ids=["t4-always", "never-separated"],
    )
    def test_sweep_fails_on_a_preorder_fault(self, monkeypatch, attr, fault, named):
        monkeypatch.setattr(separation, attr, fault(getattr(separation, attr)))
        report = sweep_theorems(3, theorems=["separation_hereditary"], include_maps=False)
        rec = report["separation_hereditary"]
        assert not rec["ok"] and named in rec["counterexample"]


class TestT1Minimum:
    def test_values(self):
        assert t1_minimum(1) == discrete(1)
        assert t1_minimum(2) == discrete(2)
        assert t1_minimum(3) == discrete(3)

    def test_is_t1(self):
        for n in (0, 1, 2, 3):
            assert separation_report(t1_minimum(n)).t1

    def test_cap(self):
        with pytest.raises(CarrierTooLarge):
            t1_minimum(4)
