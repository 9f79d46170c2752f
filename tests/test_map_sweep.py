"""The map-level sweep under injected faults.

`map_sweep_golden.json` holds the 13 map-theorem reports of
``sweep_theorems(n, overrides=..., theorems=[])`` for n = 3 and n = 2,
clean and under each fault below, as the literal per-triple loops produced
them.  The sweep over codomain bitsets must reproduce them byte for byte:
verdicts, and the first counterexample string of every failed theorem.
The operator faults go through ``overrides``; the others replace a
function the sweep reads for its per-space families.  The per-triple
sweep itself is kept in ``map_sweep_reference.py``, and the two must agree
on the class representatives at n = 4 too, and under faults injected into
the tables of each.
"""

import itertools
import json
from pathlib import Path

import pytest

import map_sweep_reference as reference
from test_enumeration import _FUNDAMENTAL_FAULTS
from conftest import replace
from fintop import (
    FiniteMap,
    PointSet,
    check_map,
    closure,
    interior,
    is_connected,
    subspace,
    sweep_theorems,
)
from fintop import compact as compact_mod
from fintop import connect as connect_mod
from fintop import covers as covers_mod
from fintop import enumeration as enum_mod
from fintop import mapsweep
from fintop import separation as separation_mod
from fintop import theorems as theorems_mod
from fintop.maps import image_bits

GOLDEN = Path(__file__).with_name("map_sweep_golden.json")


def _bump(op):
    """op with its answer incremented as a mask (the carrier left as is)."""

    def bad(s, A):
        good = op(s, A).bits
        full = (1 << s.n) - 1
        return PointSet((good + 1) & full if good != full else good, s.n)

    return bad


def _up_closure(s, A):
    # The union of the minimal opens: the specialization order reversed.
    bits = 0
    for p in A.points():
        bits |= s.ups[p]
    return PointSet(bits, s.n)


def _down_interior(s, A):
    # The points whose closure lies in A: the specialization order reversed.
    bits = 0
    for p in range(s.n):
        if closure(s, PointSet(1 << p, s.n)).bits & ~A.bits == 0:
            bits |= 1 << p
    return PointSet(bits, s.n)


def _interior_drops_last(s, A):
    return PointSet(interior(s, A).bits & ~(1 << s.n >> 1), s.n)


def _closure_of_empty_is_full(s, A):
    return PointSet.full(s.n) if not A.bits else closure(s, A)


FAULTS = {
    "clean": None,
    "closure_plus_one": {"closure": _bump(closure)},
    "interior_plus_one": {"interior": _bump(interior)},
    "closure_is_identity": {"closure": lambda s, A: A},
    "interior_is_identity": {"interior": lambda s, A: A},
    "closure_up_set": {"closure": _up_closure},
    "interior_down_set": {"interior": _down_interior},
    "interior_drops_last_point": {"interior": _interior_drops_last},
    "closure_of_empty_is_full": {"closure": _closure_of_empty_is_full},
}


def _discrete_sets_all_connected(orig):
    def fake(s):
        return frozenset(range(1 << s.n)) if len(s.opens) == 1 << s.n else orig(s)

    return fake


def _indiscrete_carrier_not_compact(orig):
    def fake(s, A):
        if s.n > 1 and len(s.opens) == 2 and A.bits == (1 << s.n) - 1:
            return False
        return orig(s, A)

    return fake


def _relative_opens_extra_member(orig):
    # S minus its lowest point is added as a relative open of S.
    def fake(s, S):
        return orig(s, S) | {S & (S - 1)}

    return fake


PATCHES = {
    "discrete_sets_all_connected": (
        connect_mod, "connected_set_masks", _discrete_sets_all_connected
    ),
    "indiscrete_carrier_not_compact": (
        compact_mod, "is_compact_set", _indiscrete_carrier_not_compact
    ),
    "relative_opens_extra_member": (
        covers_mod, "relative_opens", _relative_opens_extra_member
    ),
}


def _reports(overrides) -> dict:
    return {
        f"n{n}": sweep_theorems(n, overrides=overrides, theorems=[]) for n in (3, 2)
    }


def _under(name, run):
    """run(overrides) under the fault `name` of FAULTS or PATCHES."""
    if name in FAULTS:
        return run(FAULTS[name])
    module, attr, corrupt = PATCHES[name]
    orig = getattr(module, attr)
    setattr(module, attr, corrupt(orig))
    try:
        return run(None)
    finally:
        setattr(module, attr, orig)


def map_reports() -> dict:
    return {name: _under(name, _reports) for name in [*FAULTS, *PATCHES]}


def render(reports: dict) -> str:
    return json.dumps(reports, indent=1) + "\n"


class TestMapSweepGolden:
    def test_reports_are_byte_identical(self):
        assert render(map_reports()) == GOLDEN.read_text()

    def test_clean_run_passes_and_every_fault_is_caught(self):
        golden = json.loads(GOLDEN.read_text())
        for name, by_n in golden.items():
            failed = [k for k, rec in by_n["n3"].items() if not rec["ok"]]
            assert bool(failed) == (name != "clean"), name
            assert len(by_n["n3"]) == 13


def test_lenient_t1_fault_is_a_failed_theorem(monkeypatch):
    # The Hausdorff checks are gated on T2, so a T1 predicate that accepts
    # non-T1 codomains surfaces as a failed theorem rather than as the
    # CodomainNotHausdorff that hausdorff_compact_checks raises.
    is_t1 = separation_mod.is_t1
    monkeypatch.setattr(
        separation_mod, "is_t1", lambda s: len(s.opens) >= 3 or is_t1(s)
    )
    report = sweep_theorems(2, theorems=[])
    failed = [k for k, rec in report.items() if not rec["ok"]]
    assert failed == ["hausdorff_limit_uniqueness"]


def test_domain_image_families_are_literal_images():
    # Each image family of _Domain is the family of the images of the
    # literal family, for every domain space and table at n = 3.  Its
    # pasting bitsets hold codomain i2 iff the opens of i2 miss the union
    # of bad[S] over the members S of some fundamental cover.  loc_bad holds
    # the masks w with t[p] in w for some p such that no open u holding p
    # has its image inside w: every open u holding p is read, not only U_p.
    n, N = 3, 8
    tables, imgs, pres = mapsweep._map_tables(n)
    spaces = enum_mod.all_spaces(n)
    ctxs = [theorems_mod._Ctx(s, theorems_mod._default_ops(None)) for s in spaces]
    extras = [mapsweep._space_families(c) for c in ctxs]
    k = mapsweep._Codomains(n, ctxs, extras)
    codomain_opens = [mapsweep._family(s.opens.masks) for s in spaces]
    for s, c, e in zip(spaces, ctxs, extras):
        literal = {
            "img_opens": s.opens.masks,
            "img_closeds": s.closeds.masks,
            "img_conn": [
                a for a in range(N) if is_connected(subspace(s, PointSet(a, n))[0])
            ],
            "img_compact": range(N),  # every subset of a finite space is compact
            "img_dense": [a for a in range(N) if closure(s, PointSet(a, n)).bits == N - 1],
        }
        # Every fundamental cover, not only the minimal ones the sweep keeps.
        full_covers = reference._fundamental_covers(c)
        members = {S for covers in full_covers for fam in covers for S in fam}
        for ti, t in enumerate(tables):
            d = mapsweep._Domain(c, e, t, imgs[ti], pres[ti], k)
            for name, family in literal.items():
                expected = mapsweep._family(image_bits(t, a) for a in family)
                assert getattr(d, name) == expected, (name, s, t)
            loc_bad = mapsweep._family(
                w
                for w in range(N)
                if any(
                    w >> t[p] & 1
                    and not any(u >> p & 1 and imgs[ti][u] & ~w == 0 for u in s.opens.masks)
                    for p in range(n)
                )
            )
            assert d.loc_bad == loc_bad, (s, t)
            bad = {
                S: mapsweep._family(
                    u
                    for u in range(N)
                    if S & pres[ti][u] not in covers_mod.relative_opens(s, S)
                )
                for S in members
            }
            for covers, hit in zip(full_covers, d.paste):
                expected = sum(
                    1 << i2
                    for i2, opens2 in enumerate(codomain_opens)
                    if any(not any(opens2 & bad[S] for S in fam) for fam in covers)
                )
                assert hit == expected, (s, t)


def _both(n, spaces):
    """run(overrides): the map-theorem reports of the sweep and of the
    per-triple reference over `spaces`."""

    def run(overrides):
        ctxs = [theorems_mod._Ctx(s, theorems_mod._default_ops(overrides)) for s in spaces]
        return mapsweep._map_sweep(n, ctxs), reference._map_sweep(n, ctxs)

    return run


REPRESENTATIVES_4 = tuple(
    enum_mod.enumerate_topologies(enum_mod.EnumConfig(4, "up_to_homeomorphism"))
)


def _filtered_full_lists(c):
    """The cover lists as the sweep once built them: every fundamental
    cover (the reference's lists), less each cover holding another."""
    out = []
    for covers in reference._fundamental_covers(c):
        found = set(covers)
        out.append([
            fam
            for fam in covers
            if not any(
                sub in found for r in range(1, len(fam)) for sub in itertools.combinations(fam, r)
            )
        ])
    return tuple(out)


@pytest.mark.parametrize("fault", ["clean", *sorted(_FUNDAMENTAL_FAULTS)])
def test_cover_walk_matches_the_filtered_full_lists(monkeypatch, fault):
    # Every labeled space with n <= 3 and the 33 representatives at n = 4,
    # under each _is_fundamental fault too, the non-monotone ones included:
    # the walk skips families holding a listed cover before asking.
    if fault != "clean":
        real, wrong = covers_mod._is_fundamental, _FUNDAMENTAL_FAULTS[fault][0]
        monkeypatch.setattr(covers_mod, "_is_fundamental", lambda s, m: wrong(real, s, m))
    spaces = [*(s for n in range(4) for s in enum_mod.all_spaces(n)), *REPRESENTATIVES_4]
    for s in spaces:
        c = theorems_mod._Ctx(s, theorems_mod._default_ops(None))
        assert mapsweep._minimal_covers(c) == _filtered_full_lists(c), s


@pytest.mark.parametrize("name", [*FAULTS, *PATCHES])
def test_reports_match_the_per_triple_reference(name):
    # Every labeled space at n = 2 and 3 (the golden's inputs) and the 33
    # class representatives at n = 4, clean and under each fault.
    assert len(REPRESENTATIVES_4) == 33
    inputs = ((2, enum_mod.all_spaces(2)), (3, enum_mod.all_spaces(3)), (4, REPRESENTATIVES_4))
    for n, spaces in inputs:
        swept, literal = _under(name, _both(n, spaces))
        assert swept == literal, (name, n)


def _failed_as_reference(n, spaces, theorem):
    """Both sweeps over `spaces`: equal reports, `theorem` failed; its
    counterexample."""
    swept, literal = _both(n, spaces)(None)
    assert swept == literal
    assert swept[theorem] is not None, theorem
    return swept[theorem]


_SIERPINSKI_0 = '{"n": 2, "opens": [[], [0], [0, 1]]}'
_SIERPINSKI_1 = '{"n": 2, "opens": [[], [1], [0, 1]]}'
_DISCRETE_2 = '{"n": 2, "opens": [[], [0], [1], [0, 1]]}'


def test_local_continuity_fault_is_caught(monkeypatch):
    # loc_bad gains the carrier (mask 3), an open of every codomain:
    # pointwise continuity then never holds, and the first continuous
    # triple fails.  The sweep keeps mask m at bit 8*m, the reference at m.
    for module, width in ((mapsweep, 8), (reference, 1)):
        init = module._Domain.__init__

        def corrupt(self, *args, init=init, width=width):
            init(self, *args)
            self.loc_bad |= 1 << width * 3

        monkeypatch.setattr(module._Domain, "__init__", corrupt)
    cx = _failed_as_reference(2, enum_mod.all_spaces(2), "local_vs_global_continuity")
    assert cx == f"s1={_DISCRETE_2} s2={_DISCRETE_2} f=[0, 0]: pointwise=False global=True"


def test_base_criterion_reads_the_codomain_minimal_opens():
    # The Sierpinski space with U_1 replaced by the carrier: its minimal
    # opens no longer generate {1}, so the base criterion passes maps that
    # pull {1} back to a non-open.
    spaces = list(enum_mod.all_spaces(2))
    assert spaces[2].ups == (3, 2)
    spaces[2] = replace(spaces[2], ups=(3, 3))
    cx = _failed_as_reference(2, spaces, "base_continuity_criterion")
    assert cx == (
        f"s1={_SIERPINSKI_0} s2={_SIERPINSKI_1} f=[0, 1]: minimal-open-base criterion mismatch"
    )


def test_t1_pullback_reads_the_domain_t1_flag():
    # A copy of the discrete space whose U_0 is the carrier is not T1, yet
    # the identity from it into the discrete space is continuous.
    spaces = list(enum_mod.all_spaces(2))
    spaces.append(replace(spaces[0], ups=(3, 2)))
    assert not separation_mod.is_t1(spaces[-1])
    cx = _failed_as_reference(2, spaces, "t1_pullback_and_indiscrete_maps")
    assert cx == (
        f"s1={_DISCRETE_2} s2={_DISCRETE_2} f=[0, 1]: "
        "injective continuous map into T1, domain not T1"
    )


def test_t1_pullback_names_the_indiscrete_witness(monkeypatch):
    # Every codomain counts as T1, so the identity on the indiscrete space
    # is a non-constant continuous map from an indiscrete space into T1.
    monkeypatch.setattr(separation_mod, "is_t1", lambda s: True)
    _failed_as_reference(3, enum_mod.all_spaces(3), "t1_pullback_and_indiscrete_maps")
    cx = _failed_as_reference(2, enum_mod.all_spaces(2), "t1_pullback_and_indiscrete_maps")
    indiscrete_2 = '{"n": 2, "opens": [[], [0, 1]]}'
    assert cx == (
        f"s1={indiscrete_2} s2={indiscrete_2} f=[0, 1]: "
        "non-constant continuous map from indiscrete to T1"
    )


def test_hausdorff_implication_fault_is_caught(monkeypatch):
    # hausdorff_compact_checks answers False for the swap of the two points.
    checks = compact_mod.hausdorff_compact_checks

    def corrupt(s1, s2, f):
        got = checks(s1, s2, f)
        if f.table == (1, 0):
            got["continuous_implies_closed"] = False
        return got

    monkeypatch.setattr(compact_mod, "hausdorff_compact_checks", corrupt)
    cx = _failed_as_reference(2, enum_mod.all_spaces(2), "hausdorff_codomain_implications")
    assert cx == (
        f"s1={_DISCRETE_2} s2={_DISCRETE_2} f=[1, 0]: implications: "
        "{'continuous_implies_closed': False, "
        "'continuous_bijection_implies_homeomorphism': True, "
        "'continuous_injection_implies_embedding': True}"
    )


@pytest.mark.parametrize("n, calls", [(1, 1), (2, 10), (3, 165), (4, 612)])
def test_hausdorff_gate_skips_only_vacuous_pairs(monkeypatch, n, calls):
    # The sweep calls hausdorff_compact_checks only where f is continuous
    # into the T2 codomain.  Each of its clauses reads "continuous => ...",
    # so on every skipped triple the literal call answers all True.
    spaces = REPRESENTATIVES_4 if n == 4 else enum_mod.all_spaces(n)
    checks = compact_mod.hausdorff_compact_checks
    made = []

    def counted(s1, s2, f):
        made.append((id(s1), id(s2), f.table))
        return checks(s1, s2, f)

    monkeypatch.setattr(compact_mod, "hausdorff_compact_checks", counted)
    report = theorems_mod._sweep(n, spaces, theorems=[])
    assert all(rec["ok"] for rec in report.values())
    t2 = [s2 for s2 in spaces if separation_mod.is_t2(s2)]
    continuous = []
    for s1 in spaces:
        for t in itertools.product(range(n), repeat=n):
            f = FiniteMap.of(n, n, t)
            for s2 in t2:
                if check_map(f, s1, s2).continuous:
                    continuous.append((id(s1), id(s2), t))
                else:
                    assert all(checks(s1, s2, f).values()), (s1, s2, t)
    assert made == continuous
    assert len(made) == calls


#: The one fault whose verdicts change under relabeling: the interior
#: bumped as a mask.  connectedness_equivalences fails under it on some
#: labeled space but on no class representative.
LABELED_ONLY = {"interior_plus_one": {"connectedness_equivalences"}}


@pytest.mark.parametrize("n", [2, 3])
def test_class_representatives_catch_the_same_faults(n):
    # The soundness gate of the reduced sweep: all 47 theorems over one
    # representative per homeomorphism class against every labeled space.
    labeled = enum_mod.all_spaces(n)
    reps = tuple(
        enum_mod.enumerate_topologies(enum_mod.EnumConfig(n, "up_to_homeomorphism"))
    )
    assert len(reps) < len(labeled)
    clean = theorems_mod._sweep(n, reps)
    assert len(clean) == 47 and clean == theorems_mod._sweep(n, labeled)

    def failing(spaces):
        def run(overrides):
            report = theorems_mod._sweep(n, spaces, overrides)
            return {name for name, rec in report.items() if not rec["ok"]}

        return run

    for name in [*FAULTS, *PATCHES]:
        full = _under(name, failing(labeled))
        reduced = _under(name, failing(reps))
        assert reduced <= full, name
        assert full - reduced == LABELED_ONLY.get(name, set()), name
