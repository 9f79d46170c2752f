"""The per-triple map sweep, kept as the reference for ``fintop.mapsweep``.

This is the map sweep as it stood before the sweep decided each theorem
for all codomains at once: it visits every triple (c1, c2, t) of domain,
codomain and function table in that order, and each check is one or two
mask operations on N-bit families and operator tables packed n bits per
mask.  ``tests/test_map_sweep.py`` requires ``fintop.mapsweep._map_sweep``
to give the same 13 reports as :func:`_map_sweep` here, clean and under
each injected fault.  Only the imports differ from the old module.
"""

from __future__ import annotations

import itertools
from typing import TYPE_CHECKING, Optional

from fintop import compact as compact_mod
from fintop import connect as connect_mod
from fintop import covers as covers_mod
from fintop import separation as separation_mod
from fintop.carrier import PointSet
from fintop.maps import FiniteMap, image_bits, preimage_bits

if TYPE_CHECKING:
    from fintop.theorems import _Ctx

MAP_SWEEP_CHECKS = [
    "continuity_equivalences",
    "local_vs_global_continuity",
    "base_continuity_criterion",
    "open_closed_map_characterizations",
    "pasting_open_covers",
    "pasting_closed_covers",
    "image_of_connected",
    "image_of_compact",
    "image_of_dense",
    "homeomorphism_transport",
    "hausdorff_limit_uniqueness",
    "t1_pullback_and_indiscrete_maps",
    "hausdorff_codomain_implications",
]


def _map_tables(n: int) -> tuple[list, list, list]:
    """All function tables n -> n with per-table image/preimage arrays."""
    tables = list(itertools.product(range(n), repeat=n))
    masks = range(1 << n)
    imgs = [[image_bits(t, m) for m in masks] for t in tables]
    pres = [[preimage_bits(t, m) for m in masks] for t in tables]
    return tables, imgs, pres


def _fundamental_covers(c: _Ctx) -> tuple[list, list]:
    """Fundamental covers of the carrier: open-member families of size <= 3
    and closed-member families of size <= 2."""
    open_covers, closed_covers = [], []
    for pool, sizes, out in (
        (sorted(c.opens), (1, 2, 3), open_covers),
        (sorted(c.closeds), (1, 2), closed_covers),
    ):
        for size in sizes:
            for fam in itertools.combinations(pool, size):
                union = 0
                for m in fam:
                    union |= m
                if union == c.full and covers_mod._is_fundamental(c.s, fam):
                    out.append(fam)
    return open_covers, closed_covers


def _bitset(masks) -> int:
    """A family of masks as one int with bit m set for each member m."""
    out = 0
    for m in masks:
        out |= 1 << m
    return out


def _pack(values, shifts) -> int:
    """One n-bit mask per m packed into one int, the mask for m at bit n*m."""
    return sum(v << sh for v, sh in zip(values, shifts))


def _space_families(c: _Ctx) -> dict:
    """The families of one space the map sweep reads: as the literal loops
    read them, and as bitsets."""
    conn = connect_mod.connected_set_masks(c.s)
    covers = _fundamental_covers(c)
    compact = frozenset(
        m for m in range(c.N) if compact_mod.is_compact_set(c.s, PointSet(m, c.n))
    )
    return {
        "opens": _bitset(c.opens),
        "closeds": _bitset(c.closeds),
        "conn": conn,
        "conn_bits": _bitset(conn),
        "compact": compact,
        "compact_bits": _bitset(compact),
        "dense_bits": _bitset(m for m in range(c.N) if c.cl[m] == c.full),
        "t1": separation_mod.is_t1(c.s),
        # hausdorff_compact_checks raises unless the codomain is T2.
        "t2": separation_mod.is_t2(c.s),
        "minbase": _bitset(c.s.ups),
        "covers": covers,
        # The relative opens of each cover member S, as a bitset over masks.
        "rel": {
            S: _bitset(covers_mod.relative_opens(c.s, S))
            for S in sorted({S for fams in covers for fam in fams for S in fam})
        },
    }


class _Domain:
    """The tables of one domain space and one function table: families of
    codomain masks as N-bit ints, operator tables packed n bits per mask."""

    __slots__ = (
        "pre_open", "pre_closed", "cl_pre", "img_cl", "it_pre", "img_it",
        "img_opens", "img_closeds", "img_conn", "img_compact", "img_dense",
        "loc_bad", "bad", "paste",
    )

    def __init__(self, c: _Ctx, e: dict, t, img, pre, shifts, above, holds, missed) -> None:
        masks = range(c.N)
        opens, closeds = e["opens"], e["closeds"]
        self.pre_open = _bitset(u for u in masks if opens >> pre[u] & 1)
        self.pre_closed = _bitset(m for m in masks if closeds >> pre[m] & 1)
        self.cl_pre = _pack((c.cl[pre[m]] for m in masks), shifts)
        self.img_cl = _pack((img[c.cl[m]] for m in masks), shifts)
        self.it_pre = _pack((c.it[pre[m]] for m in masks), shifts)
        self.img_it = _pack((img[c.it[m]] for m in masks), shifts)
        self.img_opens = _bitset(img[u] for u in c.opens)
        self.img_closeds = _bitset(img[m] for m in c.closeds)
        self.img_conn = _bitset(img[a] for a in e["conn"])
        self.img_compact = _bitset(img[a] for a in e["compact"])
        self.img_dense = _bitset(img[a] for a in masks if c.cl[a] == c.full)
        # near[p]: the masks w holding img[u] for some open u with p in u.
        # Every open w holding t[p] must be one, so f is continuous at each
        # p iff no open of the codomain is in loc_bad.
        near = [0] * c.n
        for u in c.opens:
            for p in range(c.n):
                if u >> p & 1:
                    near[p] |= above[img[u]]
        self.loc_bad = 0
        for p in range(c.n):
            self.loc_bad |= holds[t[p]] & ~near[p]
        # bad[S]: the masks u with S & pre[u] not open in S, so f is
        # continuous on S iff no open of the codomain is in bad[S], and on
        # every member of a cover iff none is in the union of their bad[S].
        # Per cover list, the codomains (bit i2) whose opens miss one of
        # those unions: missed(union) is that bitset for one union.
        self.bad = {
            S: _bitset(u for u in masks if not rel >> (S & pre[u]) & 1)
            for S, rel in e["rel"].items()
        }
        self.paste = []
        for covers in e["covers"]:
            hit = 0
            for fam in covers:
                union = 0
                for S in fam:
                    union |= self.bad[S]
                hit |= missed(union)
            self.paste.append(hit)


def _codomains_missing(opens_list):
    """missed(union): the bitset of the codomains i whose opens bitset
    ``opens_list[i]`` meets no mask of ``union``, memoized per union."""
    memo: dict[int, int] = {}

    def missed(union: int) -> int:
        got = memo.get(union)
        if got is None:
            got = memo[union] = _bitset(
                i for i, opens in enumerate(opens_list) if not opens & union
            )
        return got

    return missed


def _map_sweep(n: int, ctxs) -> dict:
    """Quantify the map-level theorems over all ordered pairs of spaces on n
    points and all n**n function tables between them.

    Each check is one or two mask operations on the N-bit families and
    packed operator tables of the module docstring, deciding what the
    literal quantifier over masks decides; a literal loop runs only to
    name the witness of a failed test.  The codomain tables are built once per (c2, t); the
    domain tables (:class:`_Domain`) at the top of each c1 iteration, so
    at most n**n of them are held.  Pasting is tested only when f is not
    continuous: its failure is "f continuous on every member of a
    fundamental cover, yet not continuous", and whether some cover has f
    continuous on every member is bit i2 of the domain table's ``paste``.
    """
    results: dict[str, Optional[str]] = {k: None for k in MAP_SWEEP_CHECKS}
    N = 1 << n
    masks = range(N)
    shifts = [n * m for m in masks]
    tables, imgs, pres = _map_tables(n)
    above = [_bitset(w for w in masks if x & ~w == 0) for x in masks]
    holds = [_bitset(w for w in masks if w >> q & 1) for q in range(n)]
    extras = [_space_families(c) for c in ctxs]
    missed = _codomains_missing([e["opens"] for e in extras])
    fmaps = [FiniteMap.of(n, n, t) for t in tables]
    # Per c2, four tables indexed by t: Pre(Cl2(m)), Cl2(Img(m)),
    # Pre(Int2(m)) and Int2(Img(m)) packed over m, equal ints shared.
    shared: dict[int, int] = {}

    def packed(values) -> int:
        v = _pack(values, shifts)
        return shared.setdefault(v, v)

    codomain = [
        (
            [packed(pre[c2.cl[m]] for m in masks) for pre in pres],
            [packed(c2.cl[img[m]] for m in masks) for img in imgs],
            [packed(pre[c2.it[m]] for m in masks) for pre in pres],
            [packed(c2.it[img[m]] for m in masks) for img in imgs],
        )
        for c2 in ctxs
    ]
    n_values = [len(set(t)) for t in tables]

    def fail(c1, c2, t, detail):
        return f"s1={c1.ser} s2={c2.ser} f={list(t)}: {detail}"

    for i1, c1 in enumerate(ctxs):
        e1 = extras[i1]
        indiscrete1 = c1.opens == {0, c1.full} and n >= 1
        doms = [
            _Domain(c1, e1, t, imgs[ti], pres[ti], shifts, above, holds, missed)
            for ti, t in enumerate(tables)
        ]
        # Per limit point p of A: the masks u & A - p, u open holding p.
        limit_args = [
            (a, p, [u & a & ~(1 << p) for u in c1.opens if u >> p & 1])
            for a in range(N)
            for p in range(n)
            if c1.cl[a & ~(1 << p)] >> p & 1
        ]
        for i2, c2 in enumerate(ctxs):
            e2 = extras[i2]
            opens2, closeds2 = e2["opens"], e2["closeds"]
            pre_cl2s, cl2_imgs, pre_it2s, it2_imgs = codomain[i2]
            for ti, t in enumerate(tables):
                img, d = imgs[ti], doms[ti]
                pre_cl2, cl2_img = pre_cl2s[ti], cl2_imgs[ti]
                pre_it2, it2_img = pre_it2s[ti], it2_imgs[ti]
                cont = not opens2 & ~d.pre_open

                if results["continuity_equivalences"] is None:
                    c_closed = not closeds2 & ~d.pre_closed
                    c_cl = not d.cl_pre & ~pre_cl2
                    c_img = not d.img_cl & ~cl2_img
                    c_it = not pre_it2 & ~d.it_pre
                    if not cont == c_closed == c_cl == c_img == c_it:
                        results["continuity_equivalences"] = fail(
                            c1,
                            c2,
                            t,
                            f"equivalences diverge: {cont},{c_closed},{c_cl},{c_img},{c_it}",
                        )

                if results["local_vs_global_continuity"] is None:
                    loc = not opens2 & d.loc_bad
                    if loc != cont:
                        results["local_vs_global_continuity"] = fail(
                            c1, c2, t, f"pointwise={loc} global={cont}"
                        )

                if results["base_continuity_criterion"] is None:
                    base_cont = not e2["minbase"] & ~d.pre_open
                    if base_cont != cont:
                        results["base_continuity_criterion"] = fail(
                            c1, c2, t, "minimal-open-base criterion mismatch"
                        )

                omap = not d.img_opens & ~opens2
                if results["open_closed_map_characterizations"] is None:
                    ochar = not d.img_it & ~it2_img
                    cmap = not d.img_closeds & ~closeds2
                    cchar = not cl2_img & ~d.img_cl
                    if omap != ochar or cmap != cchar:
                        results["open_closed_map_characterizations"] = fail(
                            c1,
                            c2,
                            t,
                            f"open {omap}/{ochar} closed {cmap}/{cchar}",
                        )

                # Pasting fails when f is discontinuous and continuous on
                # every member of a fundamental cover: the first such cover.
                if not cont:
                    for key, covers, hit in zip(
                        ("pasting_open_covers", "pasting_closed_covers"),
                        e1["covers"],
                        d.paste,
                    ):
                        if results[key] is None and hit >> i2 & 1:
                            for fam in covers:
                                if not any(opens2 & d.bad[S] for S in fam):
                                    results[key] = fail(
                                        c1, c2, t, f"pasting failed for cover {fam}"
                                    )
                                    break

                if cont:
                    if (
                        results["image_of_connected"] is None
                        and d.img_conn & ~e2["conn_bits"]
                    ):
                        for a in e1["conn"]:
                            if img[a] not in e2["conn"]:
                                results["image_of_connected"] = fail(
                                    c1, c2, t, f"image of connected {a:#x} disconnected"
                                )
                                break
                    if (
                        results["image_of_compact"] is None
                        and d.img_compact & ~e2["compact_bits"]
                    ):
                        for a in e1["compact"]:
                            if img[a] not in e2["compact"]:
                                results["image_of_compact"] = fail(
                                    c1, c2, t, f"image of compact {a:#x} not compact"
                                )
                                break
                    if (
                        results["image_of_dense"] is None
                        and img[c1.full] == c2.full
                        and d.img_dense & ~e2["dense_bits"]
                    ):
                        for a in range(N):
                            if c1.cl[a] == c1.full and c2.cl[img[a]] != c2.full:
                                results["image_of_dense"] = fail(
                                    c1, c2, t, f"image of dense {a:#x} not dense"
                                )
                                break
                    if (
                        n_values[ti] == n
                        and omap
                        and results["homeomorphism_transport"] is None
                    ):
                        if d.img_opens != opens2:
                            results["homeomorphism_transport"] = fail(
                                c1, c2, t, "opens not transported"
                            )
                        elif d.img_cl != cl2_img or d.img_it != it2_img:
                            for m in range(N):
                                if (
                                    img[c1.cl[m]] != c2.cl[img[m]]
                                    or img[c1.it[m]] != c2.it[img[m]]
                                ):
                                    results["homeomorphism_transport"] = fail(
                                        c1, c2, t, f"operators not transported at {m:#x}"
                                    )
                                    break

                if e2["t1"] and results["hausdorff_limit_uniqueness"] is None:
                    for a, p, traces in limit_args:
                        # y is a limit of f along A at p iff every open w
                        # holding y holds img[u & A - p] for some open u
                        # holding p: iff no open holding y is outside near.
                        near = 0
                        for m in traces:
                            near |= above[img[m]]
                        limits = [y for y in range(n) if not opens2 & holds[y] & ~near]
                        if len(limits) > 1:
                            results["hausdorff_limit_uniqueness"] = fail(
                                c1, c2, t, f"multiple limits along {a:#x} at p={p}"
                            )

                if results["t1_pullback_and_indiscrete_maps"] is None and e2["t1"]:
                    if cont and n_values[ti] == n and not e1["t1"]:
                        results["t1_pullback_and_indiscrete_maps"] = fail(
                            c1, c2, t, "injective continuous map into T1, domain not T1"
                        )
                    if cont and indiscrete1 and n_values[ti] > 1:
                        results["t1_pullback_and_indiscrete_maps"] = fail(
                            c1, c2, t, "non-constant continuous map from indiscrete to T1"
                        )

                if e2["t2"] and results["hausdorff_codomain_implications"] is None:
                    checks = compact_mod.hausdorff_compact_checks(c1.s, c2.s, fmaps[ti])
                    if not all(checks.values()):
                        results["hausdorff_codomain_implications"] = fail(
                            c1, c2, t, f"implications: {checks}"
                        )
    return results
