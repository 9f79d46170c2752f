"""The map-level theorem sweep: each criterion over every triple (c1, c2, t)
of domain space, codomain space and function table on n points.

The unit of work is one pair (c1, t): each check yields one int with bit
i2 set for each codomain ``ctxs[i2]`` that passes (or fails) it, so no
triple is visited on its own.  A family of masks of the codomain carrier
(the opens, the closeds, the connected, compact and dense sets, the masks
whose preimage is open) is one int with one byte lane per mask, bit 8*m
for member m, so a family read through a table is one ``int.from_bytes``
of ``bytes(map(flags.__getitem__, pre))``.  A check keyed by a family is
a memoized lookup over the codomains: ``missed(full ^ pre_open)`` is the
codomains whose opens all have an open preimage, those into which f is
continuous.  An operator comparison reads the codomain tables bit-sliced:
bit q of Pre(Cl2(m)) is t[q] in Cl2(m), and ``hold[m][y]`` is the AND over
the points of y of the codomains whose Cl2(m) holds that point, so
``Cl1(Pre(m)) <= Pre(Cl2(m))`` for every m is the AND over m of
``hold[m][Img(Cl1(Pre(m)))]``.  Each lookup reads the operator tables and
families the literal ``all``/``any`` over masks reads.

The literal loops visit (c1, c2, t) in that order, so a theorem's first
failure within c1 is on the least codomain index set for some t, and on
the least such t.  Only on that triple does a literal loop run, to name
the witness (a set, a mask, a cover).  The reports are those of the
per-triple sweep kept in ``tests/map_sweep_reference.py``;
``tests/map_sweep_golden.json`` pins them.
"""

from __future__ import annotations

import itertools
from functools import reduce
from operator import and_, getitem, or_
from typing import TYPE_CHECKING, Optional

from . import compact as compact_mod
from . import connect as connect_mod
from . import covers as covers_mod
from . import separation as separation_mod
from .carrier import PointSet
from .maps import FiniteMap, image_bits, preimage_bits
from .space import _point_meets

if TYPE_CHECKING:
    from .theorems import _Ctx

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


def _minimal_covers(c: _Ctx) -> tuple[list, list]:
    """The minimal fundamental covers of the carrier in (size, members)
    order: open-member families of size <= 3 and closed-member families of
    size <= 2 holding no other.  A family holding a listed cover is skipped
    before ``_is_fundamental`` runs; by induction on size, the list is the
    full one filtered, whatever ``_is_fundamental`` answers."""
    open_covers, closed_covers = [], []
    for pool, sizes, out in (
        (sorted(c.opens), (1, 2, 3), open_covers),
        (sorted(c.closeds), (1, 2), closed_covers),
    ):
        for size in sizes:
            for fam in itertools.combinations(pool, size):
                if reduce(or_, fam) != c.full or any(
                    sub in out for r in range(1, size) for sub in itertools.combinations(fam, r)
                ):
                    continue
                if covers_mod._is_fundamental(c.s, fam):
                    out.append(fam)
    return open_covers, closed_covers


def _family(masks) -> int:
    """A family of masks as one int, one byte lane per mask: bit 8*m set
    for each member m."""
    out = 0
    for m in masks:
        out |= 1 << 8 * m
    return out


def _flags(family, N: int) -> bytes:
    """One byte per mask m < N: 1 if m is in `family`, else 0."""
    return bytes(m in family for m in range(N))


def _space_families(c: _Ctx) -> dict:
    """The families of one space the map sweep reads: as the literal loops
    read them, as byte-lane families and as per-mask flags.  Of the
    fundamental covers only the minimal ones are kept (see :func:`_map_sweep`)."""
    conn = connect_mod.connected_set_masks(c.s)
    covers = _minimal_covers(c)
    compact = frozenset(
        m for m in range(c.N) if compact_mod.is_compact_set(c.s, PointSet(m, c.n))
    )
    dense = [m for m in range(c.N) if c.cl[m] == c.full]
    # U_p, the least open holding p.  The continuity and limit tests at p
    # take the union, over opens u holding p, of the masks above the image
    # of u (or of a trace of u); an open holding U_p adds nothing to it.
    # Met from the opens, not read from ``ups``: the sweep must agree with
    # the literal loops over the opens on a space whose ``ups`` is corrupted.
    least = _point_meets(c.n, c.opens)
    # Per limit point p of A: the trace U_p & A - p, each distinct one read
    # once, through a table over its image.
    traces = sorted({
        least[p] & a & ~(1 << p)
        for a in range(c.N)
        for p in range(c.n)
        if c.cl[a & ~(1 << p)] >> p & 1
    })
    not_rel = {
        S: _flags(set(range(c.N)) - covers_mod.relative_opens(c.s, S), c.N)
        for S in sorted({S for fams in covers for fam in fams for S in fam})
    }
    return {
        "opens": _family(c.opens),
        "closeds": _family(c.closeds),
        "open_flags": _flags(c.opens, c.N),
        "closed_flags": _flags(c.closeds, c.N),
        "least": least,
        "not_it": [c.full ^ m for m in c.it],
        "conn": conn,
        "conn_bits": _family(conn),
        "compact": compact,
        "compact_bits": _family(compact),
        "dense": dense,
        "dense_bits": _family(dense),
        "traces": traces,
        "t1": separation_mod.is_t1(c.s),
        # hausdorff_compact_checks raises unless the codomain is T2.
        "t2": separation_mod.is_t2(c.s),
        "minbase": _family(c.s.ups),
        "covers": covers,
        # Per cover member S, flag m is set iff m is not a relative open of S.
        "not_rel": not_rel,
    }


def _bad(S: int, not_rel: bytes, pre) -> int:
    """The family of the masks u with S & pre[u] not open in S."""
    return int.from_bytes(bytes(map(not_rel.__getitem__, map(S.__and__, pre))), "little")


def _codomains_missing(families):
    """missed(x): the bitset of the codomains i whose family
    ``families[i]`` meets no mask of `x`, memoized per x."""
    memo: dict[int, int] = {}

    def missed(x: int) -> int:
        got = memo.get(x)
        if got is None:
            got = memo[x] = sum(1 << i for i, fam in enumerate(families) if not fam & x)
        return got

    return missed


def _operator_lookups(tables, n: int, everyone: int) -> tuple[list, list]:
    """The bit-sliced transpose of one operator table per codomain:
    ``hold[m][y]`` is the codomains i with y <= tables[i][m], and
    ``miss[m][y]`` those with tables[i][m] & y == 0."""
    hold, miss = [], []
    for m in range(1 << n):
        at = [
            sum(1 << i for i, tbl in enumerate(tables) if tbl[m] >> q & 1)
            for q in range(n)
        ]
        h, meet = [everyone], [0]
        for y in range(1, 1 << n):
            rest, q = y & (y - 1), (y & -y).bit_length() - 1
            h.append(h[rest] & at[q])
            meet.append(meet[rest] | at[q])
        hold.append(h)
        miss.append([everyone ^ v for v in meet])
    return hold, miss


class _Codomains:
    """The codomain side of the sweep: carrier-wide tables and, for each
    criterion, a lookup answering with a bitset over codomain indices."""

    def __init__(self, n: int, ctxs, extras) -> None:
        N = 1 << n
        masks = range(N)
        everyone = (1 << len(ctxs)) - 1
        self.lane = [1 << 8 * m for m in masks]
        self.all_masks = _family(masks)
        self.comp = [N - 1 ^ m for m in masks]
        # above[x]: the masks holding x; holds[q]: the masks holding q.
        self.above = [_family(w for w in masks if x & ~w == 0) for x in masks]
        self.holds = [_family(w for w in masks if w >> q & 1) for q in range(n)]

        def within(key):
            return _codomains_missing([self.all_masks ^ e[key] for e in extras])

        self.missed = _codomains_missing([e["opens"] for e in extras])
        self.missed_closed = _codomains_missing([e["closeds"] for e in extras])
        self.missed_base = _codomains_missing([e["minbase"] for e in extras])
        self.within_open = within("opens")
        self.within_closed = within("closeds")
        self.within_conn = within("conn_bits")
        self.within_compact = within("compact_bits")
        self.within_dense = within("dense_bits")
        self.equal_open: dict[int, int] = {}
        for i, e in enumerate(extras):
            self.equal_open[e["opens"]] = self.equal_open.get(e["opens"], 0) | 1 << i
        self.hold_cl, self.miss_cl = _operator_lookups([c.cl for c in ctxs], n, everyone)
        self.hold_it, self.miss_it = _operator_lookups([c.it for c in ctxs], n, everyone)
        self.t1 = sum(1 << i for i, e in enumerate(extras) if e["t1"])
        self.t2 = [i for i, e in enumerate(extras) if e["t2"]]
        # Per image mask x: the T1 codomains with more than one point y
        # such that every open holding y holds x.
        t1_opens = [(i, e["opens"]) for i, e in enumerate(extras) if e["t1"]]
        self.multi_above = [
            sum(
                1 << i
                for i, opens in t1_opens
                if sum(not opens & h & ~near for h in self.holds) > 1
            )
            for near in self.above
        ]


class _Domain:
    """The tables of one domain space and one function table: families of
    codomain masks in byte lanes, and the codomains passing each mask
    test as bitsets over codomain indices."""

    __slots__ = (
        "img_opens", "img_closeds", "img_conn", "img_compact", "img_dense",
        "loc_bad", "bad", "paste", "cont", "c_closed", "c_cl", "c_img", "c_it",
        "base", "omap", "ochar", "cmap", "cchar",
    )

    def __init__(self, c: _Ctx, e: dict, t, img, pre, k: _Codomains) -> None:
        lane, above, comp = k.lane, k.above, k.comp
        at_img = img.__getitem__

        def images(family) -> int:
            return reduce(or_, map(lane.__getitem__, map(at_img, family)), 0)

        def preimages(flags: bytes) -> int:
            return int.from_bytes(bytes(map(flags.__getitem__, pre)), "little")

        def every_lane(rows, values) -> int:
            return reduce(and_, map(getitem, rows, values))

        pre_open = preimages(e["open_flags"])
        self.img_opens = images(c.opens)
        self.img_closeds = images(c.closeds)
        self.img_conn = images(e["conn"])
        self.img_compact = images(e["compact"])
        self.img_dense = images(e["dense"])
        # near: the masks w holding img[u] for some open u with p in u,
        # those above img[U_p].  Every open w holding t[p] must be one, so
        # f is continuous at each p iff no open of the codomain is in loc_bad.
        self.loc_bad = 0
        for p, u in enumerate(e["least"]):
            self.loc_bad |= k.holds[t[p]] & ~above[img[u]]
        # bad[S]: the masks u with S & pre[u] not open in S, so f is
        # continuous on S iff no open of the codomain is in bad[S], and on
        # every member of a cover iff none is in the union of their bad[S].
        # paste[j]: the codomains whose opens miss one such union of cover
        # list j (open covers, closed covers).
        self.bad = bad = {S: _bad(S, flags, pre) for S, flags in e["not_rel"].items()}
        self.paste = [
            reduce(
                or_,
                (k.missed(reduce(or_, map(bad.__getitem__, fam))) for fam in covers),
                0,
            )
            for covers in e["covers"]
        ]
        self.cont = k.missed(k.all_masks ^ pre_open)
        self.c_closed = k.missed_closed(k.all_masks ^ preimages(e["closed_flags"]))
        self.base = k.missed_base(k.all_masks ^ pre_open)
        self.omap = k.within_open(self.img_opens)
        self.cmap = k.within_closed(self.img_closeds)
        # Cl1(Pre(m)) <= Pre(Cl2(m)), Img(Cl1(m)) <= Cl2(Img(m)),
        # Pre(Int2(m)) <= Int1(Pre(m)), Img(Int1(m)) <= Int2(Img(m)) and
        # Cl2(Img(m)) <= Img(Cl1(m)) for every m, one lookup per mask m.
        img_cl = list(map(at_img, c.cl))
        self.c_cl = every_lane(k.hold_cl, map(at_img, map(c.cl.__getitem__, pre)))
        self.c_img = every_lane(map(k.hold_cl.__getitem__, img), img_cl)
        self.c_it = every_lane(k.miss_it, map(at_img, map(e["not_it"].__getitem__, pre)))
        self.ochar = every_lane(map(k.hold_it.__getitem__, img), map(at_img, c.it))
        self.cchar = every_lane(map(k.miss_cl.__getitem__, img), map(comp.__getitem__, img_cl))


def _map_sweep(n: int, ctxs) -> dict:
    """Quantify the map-level theorems over all ordered pairs of spaces on n
    points and all n**n function tables between them.

    Per pair (c1, t), :class:`_Domain` holds, for each mask test of the
    module docstring, the bitset of the codomains passing it; a theorem
    fails on codomain i2 where its tests disagree (or, for the image and
    Hausdorff theorems, where f is continuous and a test fails).  Pasting
    fails where f is not continuous yet continuous on every member of a
    fundamental cover: bit i2 of ``paste``.  Only the minimal covers are
    read: a cover holding a smaller cover G adds nothing, as f is continuous
    on G's members whenever it is on all of the cover's, and G comes first
    in (size, members) order, so the pasting witness is minimal too.  Each
    clause of
    ``compact.hausdorff_compact_checks`` reads "continuous => ...", so the
    literal call is made only on the T2 codomains in ``cont``: on the others
    it answers all True.  The gate is exact for valid spaces.  On a space
    whose ``ups`` disagree with its opens, ``cont`` (read from the opens) can
    differ from the continuity ``check_map`` reads from the ``ups``.
    Still-open theorems keep their first failing (i2, t) per c1, with its
    :class:`_Domain`; after c1, :func:`_witness` names the counterexample on
    that one triple.
    """
    results: dict[str, Optional[str]] = {k: None for k in MAP_SWEEP_CHECKS}
    tables, imgs, pres = _map_tables(n)
    extras = [_space_families(c) for c in ctxs]
    k = _Codomains(n, ctxs, extras)
    fmaps = [FiniteMap.of(n, n, t) for t in tables]
    n_values = [len(set(t)) for t in tables]

    for i1, c1 in enumerate(ctxs):
        e1 = extras[i1]
        indiscrete1 = c1.opens == {0, c1.full}
        first: dict[str, tuple[int, int, _Domain]] = {}
        for ti, t in enumerate(tables):
            img = imgs[ti]
            d = _Domain(c1, e1, t, img, pres[ti], k)
            cont = d.cont
            fails = {
                "continuity_equivalences": (
                    (cont ^ d.c_closed) | (cont ^ d.c_cl) | (cont ^ d.c_img) | (cont ^ d.c_it)
                ),
                "local_vs_global_continuity": k.missed(d.loc_bad) ^ cont,
                "base_continuity_criterion": d.base ^ cont,
                "open_closed_map_characterizations": (d.omap ^ d.ochar) | (d.cmap ^ d.cchar),
                "pasting_open_covers": d.paste[0] & ~cont,
                "pasting_closed_covers": d.paste[1] & ~cont,
                "image_of_connected": cont & ~k.within_conn(d.img_conn),
                "image_of_compact": cont & ~k.within_compact(d.img_compact),
            }
            if img[c1.full] == c1.full:
                fails["image_of_dense"] = cont & ~k.within_dense(d.img_dense)
            homeo = cont & d.omap if n_values[ti] == n else 0
            if homeo:
                same = k.equal_open.get(d.img_opens, 0) & d.c_img & d.cchar & d.ochar
                if same:
                    # Int2(Img(m)) <= Img(Int1(m)) too, for those codomains.
                    rows = map(k.miss_it.__getitem__, img)
                    same &= reduce(and_, map(getitem, rows, (k.comp[img[m]] for m in c1.it)))
                fails["homeomorphism_transport"] = homeo & ~same
            if k.t1 and results["hausdorff_limit_uniqueness"] is None:
                traces = map(img.__getitem__, e1["traces"])
                fails["hausdorff_limit_uniqueness"] = reduce(
                    or_, map(k.multi_above.__getitem__, traces), 0
                )
            if (n_values[ti] == n and not e1["t1"]) or (indiscrete1 and n_values[ti] > 1):
                fails["t1_pullback_and_indiscrete_maps"] = k.t1 & cont
            if k.t2 and results["hausdorff_codomain_implications"] is None:
                fails["hausdorff_codomain_implications"] = sum(
                    1 << i2
                    for i2 in k.t2
                    if cont >> i2 & 1
                    and not all(
                        compact_mod.hausdorff_compact_checks(c1.s, ctxs[i2].s, fmaps[ti]).values()
                    )
                )
            if not any(fails.values()):
                continue
            for name, bits in fails.items():
                if bits and results[name] is None:
                    i2 = (bits & -bits).bit_length() - 1
                    if name not in first or i2 < first[name][0]:
                        first[name] = (i2, ti, d)
        for name, (i2, ti, d) in first.items():
            c2, t = ctxs[i2], tables[ti]
            detail = _witness(name, c1, e1, c2, extras[i2], i2, t, imgs[ti], d, k, fmaps[ti])
            results[name] = f"s1={c1.ser} s2={c2.ser} f={list(t)}: {detail}"
    return results


def _witness(name, c1, e1, c2, e2, i2, t, img, d, k, fmap) -> str:
    """The counterexample detail of theorem `name` on the triple (c1, c2, t),
    named by the literal loops of the per-triple sweep."""

    def on(bits: int) -> bool:
        return bool(bits >> i2 & 1)

    opens2 = e2["opens"]
    if name == "continuity_equivalences":
        flags = (d.cont, d.c_closed, d.c_cl, d.c_img, d.c_it)
        return "equivalences diverge: " + ",".join(str(on(b)) for b in flags)
    if name == "local_vs_global_continuity":
        return f"pointwise={on(k.missed(d.loc_bad))} global={on(d.cont)}"
    if name == "base_continuity_criterion":
        return "minimal-open-base criterion mismatch"
    if name == "open_closed_map_characterizations":
        return f"open {on(d.omap)}/{on(d.ochar)} closed {on(d.cmap)}/{on(d.cchar)}"
    if name in ("pasting_open_covers", "pasting_closed_covers"):
        covers = e1["covers"][name == "pasting_closed_covers"]
        fam = next(f for f in covers if not any(opens2 & d.bad[S] for S in f))
        return f"pasting failed for cover {fam}"
    if name == "image_of_connected":
        a = next(a for a in e1["conn"] if img[a] not in e2["conn"])
        return f"image of connected {a:#x} disconnected"
    if name == "image_of_compact":
        a = next(a for a in e1["compact"] if img[a] not in e2["compact"])
        return f"image of compact {a:#x} not compact"
    if name == "image_of_dense":
        a = next(
            a for a in range(c1.N) if c1.cl[a] == c1.full and c2.cl[img[a]] != c2.full
        )
        return f"image of dense {a:#x} not dense"
    if name == "homeomorphism_transport":
        # A bijective f that is continuous and open maps the opens of c1
        # injectively into those of c2, and f^-1 maps those of c2 injectively
        # into those of c1: the families match, so an operator differs.
        m = next(
            m
            for m in range(c1.N)
            if img[c1.cl[m]] != c2.cl[img[m]] or img[c1.it[m]] != c2.it[img[m]]
        )
        return f"operators not transported at {m:#x}"
    if name == "hausdorff_limit_uniqueness":
        # The last (A, p) with more than one limit, as the literal loop
        # overwrote its report for each.
        detail = None
        for a in range(c1.N):
            for p in range(c1.n):
                if c1.cl[a & ~(1 << p)] >> p & 1:
                    near = 0
                    for u in c1.opens:
                        if u >> p & 1:
                            near |= k.above[img[u & a & ~(1 << p)]]
                    limits = [y for y, h in enumerate(k.holds) if not opens2 & h & ~near]
                    if len(limits) > 1:
                        detail = f"multiple limits along {a:#x} at p={p}"
        return detail
    if name == "t1_pullback_and_indiscrete_maps":
        if c1.opens == {0, c1.full} and len(set(t)) > 1:
            return "non-constant continuous map from indiscrete to T1"
        return "injective continuous map into T1, domain not T1"
    checks = compact_mod.hausdorff_compact_checks(c1.s, c2.s, fmap)
    return f"implications: {checks}"
