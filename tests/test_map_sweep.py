"""The map-level sweep under injected faults.

`map_sweep_golden.json` holds the 13 map-theorem reports of
``sweep_theorems(n, overrides=..., theorems=[])`` for n = 3 and n = 2,
clean and under each fault below, as the literal per-triple loops produced
them.  The table-driven sweep must reproduce them byte for byte:
verdicts, and the first counterexample string of every failed theorem.
The operator faults go through ``overrides``; the others replace a
function the sweep reads for its per-space families.
"""

import json
from pathlib import Path

import pytest

from fintop import (
    PointSet,
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
        bits |= s.min_open[p].bits
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
    # Each image family of _Domain is the bitset of the images of the
    # literal family, for every domain space and table at n = 3.  Its
    # pasting bitsets hold codomain i2 iff the opens of i2 miss the union
    # of bad[S] over the members S of some fundamental cover.
    n, N = 3, 8
    tables, imgs, pres = mapsweep._map_tables(n)
    shifts = [n * m for m in range(N)]
    above = [mapsweep._bitset(w for w in range(N) if x & ~w == 0) for x in range(N)]
    holds = [mapsweep._bitset(w for w in range(N) if w >> q & 1) for q in range(n)]
    spaces = enum_mod.all_spaces(n)
    codomain_opens = [mapsweep._bitset(s.opens.masks) for s in spaces]
    missed = mapsweep._codomains_missing(codomain_opens)
    for s in spaces:
        c = enum_mod._Ctx(s, enum_mod._default_ops(None))
        e = mapsweep._space_families(c)
        literal = {
            "img_opens": s.opens.masks,
            "img_closeds": s.closeds.masks,
            "img_conn": [
                a for a in range(N) if is_connected(subspace(s, PointSet(a, n))[0])
            ],
            "img_compact": range(N),  # every subset of a finite space is compact
            "img_dense": [a for a in range(N) if closure(s, PointSet(a, n)).bits == N - 1],
        }
        for ti, t in enumerate(tables):
            d = mapsweep._Domain(c, e, t, imgs[ti], pres[ti], shifts, above, holds, missed)
            for name, family in literal.items():
                expected = mapsweep._bitset(image_bits(t, a) for a in family)
                assert getattr(d, name) == expected, (name, s, t)
            for covers, hit in zip(e["covers"], d.paste):
                expected = mapsweep._bitset(
                    i2
                    for i2, opens2 in enumerate(codomain_opens)
                    if any(not any(opens2 & d.bad[S] for S in fam) for fam in covers)
                )
                assert hit == expected, (s, t)


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
    clean = enum_mod._sweep(n, reps)
    assert len(clean) == 47 and clean == enum_mod._sweep(n, labeled)

    def failing(spaces):
        def run(overrides):
            report = enum_mod._sweep(n, spaces, overrides)
            return {name for name, rec in report.items() if not rec["ok"]}

        return run

    for name in [*FAULTS, *PATCHES]:
        full = _under(name, failing(labeled))
        reduced = _under(name, failing(reps))
        assert reduced <= full, name
        assert full - reduced == LABELED_ONLY.get(name, set()), name
