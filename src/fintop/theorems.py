"""The theorem-regression sweep: the library's laws quantified over every
topology on a small carrier.

Every theorem of the sweep is invariant under relabeling the carrier, so at
n = 4 it quantifies over the class representatives (33 of 355): one side
of each pair of spaces, both sides of each (space, space, table) triple of
the map theorems (:mod:`fintop.mapsweep`), with every table.  For n <= 3
it sweeps every labeled topology.

The 34 single-space theorems are registered in report order in
:data:`SINGLE_SPACE_THEOREMS`.  Most are checks on one space: the driver
visits the swept spaces in order and reports the first counterexample.
Three quantify over something else and take the whole run.
"""

from __future__ import annotations

import itertools
import json
import random
from functools import reduce
from operator import and_, or_
from typing import Optional

from . import compact as compact_mod
from . import connect as connect_mod
from . import construct as construct_mod
from . import covers as covers_mod
from . import docio
from . import maps as maps_mod
from . import operators as operators_mod
from . import separation as separation_mod
from .carrier import Family, Partition, PointSet, _meet_bits, mask_points
from .enumeration import EnumConfig, all_spaces, enumerate_topologies
from .errors import CarrierTooLarge, FintopError
from .space import TopSpace, space


def _ser_space(s: TopSpace) -> str:
    return json.dumps(docio.space_obj(s))


class _Ctx:
    """Per-space operator tables for one sweep run, and its subspaces."""

    __slots__ = ("s", "ser", "n", "N", "full", "cl", "it", "opens", "closeds", "_subs")

    def __init__(self, s: TopSpace, ops: dict) -> None:
        self.s = s
        self.ser = _ser_space(s)
        self.n = s.n
        self.N = 1 << s.n
        self.full = self.N - 1
        self.cl = [ops["closure"](s, PointSet(m, s.n)).bits for m in range(self.N)]
        self.it = [ops["interior"](s, PointSet(m, s.n)).bits for m in range(self.N)]
        self.opens = s.opens.mask_set
        self.closeds = s.closeds.mask_set
        self._subs = {}

    def sub(self, y: int) -> tuple[TopSpace, maps_mod.FiniteMap]:
        """The subspace on the mask y and its inclusion, built once per run
        through the ``construct`` module, so a patched constructor is seen."""
        got = self._subs.get(y)
        if got is None:
            got = self._subs[y] = construct_mod.subspace(self.s, PointSet(y, self.n))
        return got

    def ext(self, m: int) -> int:
        return self.it[self.full & ~m]

    def fr(self, m: int) -> int:
        return self.cl[m] & ~self.it[m]

    def cx(self, detail: str, *masks: int) -> str:
        sets = " ".join(str(mask_points(m)) for m in masks)
        return f"{self.ser} sets {sets}: {detail}"


def _default_ops(overrides: Optional[dict]) -> dict:
    ops = {
        "closure": operators_mod.closure,
        "interior": operators_mod.interior,
    }
    if overrides:
        unknown = [key for key in overrides if key not in ops]
        if unknown:
            raise ValueError(f"unknown operator overrides: {unknown}")
        ops.update(overrides)
    return ops


# A per-space check takes one space's context and returns its first
# counterexample, or None.  A per-run check takes (n, the contexts of the
# swept spaces, the operators) and returns the run's first counterexample.
# A library error that a check raises is its counterexample.


def _chk_interior_idempotent(c):
    for m in range(c.N):
        if c.it[c.it[m]] != c.it[m]:
            return c.cx("Int(Int(A)) != Int(A)", m)


def _chk_closure_idempotent(c):
    for m in range(c.N):
        if c.cl[c.cl[m]] != c.cl[m]:
            return c.cx("Cl(Cl(A)) != Cl(A)", m)


def _chk_extensivity(c):
    for m in range(c.N):
        if c.it[m] & ~m or m & ~c.cl[m]:
            return c.cx("Int(A) <= A <= Cl(A) broken", m)


def _chk_open_closed_fixpoints(c):
    for m in range(c.N):
        if (c.it[m] == m) != (m in c.opens):
            return c.cx("Int(A)=A iff A open broken", m)
        if (c.cl[m] == m) != (m in c.closeds):
            return c.cx("Cl(A)=A iff A closed broken", m)


def _chk_interior_of_intersection(c):
    for a in range(c.N):
        for b in range(c.N):
            if c.it[a & b] != c.it[a] & c.it[b]:
                return c.cx("Int(A&B) != Int(A)&Int(B)", a, b)


def _chk_closure_of_union(c):
    for a in range(c.N):
        for b in range(c.N):
            if c.cl[a | b] != c.cl[a] | c.cl[b]:
                return c.cx("Cl(A|B) != Cl(A)|Cl(B)", a, b)


def _chk_exterior_of_union(c):
    for a in range(c.N):
        for b in range(c.N):
            if c.ext(a | b) != c.ext(a) & c.ext(b):
                return c.cx("Ext(A|B) != Ext(A)&Ext(B)", a, b)


def _chk_monotonicity(c):
    for a in range(c.N):
        for b in range(c.N):
            if a & ~b:
                continue
            if c.it[a] & ~c.it[b] or c.cl[a] & ~c.cl[b] or c.ext(b) & ~c.ext(a):
                return c.cx("monotonicity broken for A <= B", a, b)


def _chk_frontier_identities(c):
    for m in range(c.N):
        fr = c.fr(m)
        if fr != c.cl[m] & c.cl[c.full & ~m]:
            return c.cx("Fr(A) != Cl(A)&Cl(X-A)", m)
        if c.fr(c.full & ~m) != fr:
            return c.cx("Fr(X-A) != Fr(A)", m)
        it, ext = c.it[m], c.ext(m)
        if it | fr | ext != c.full or it & ext or fr & ext:
            return c.cx("Int/Fr/Ext do not partition X", m)
        if c.cl[m] != it | fr or c.cl[m] != m | fr:
            return c.cx("Cl != Int|Fr or Cl != A|Fr", m)


def _chk_frontier_power(c):
    for m in range(c.N):
        f2 = c.fr(c.fr(m))
        if c.fr(f2) != f2:
            return c.cx("Fr^3(A) != Fr^2(A)", m)


def _chk_interior_of_frontier(c):
    for m in range(c.N):
        if (m in c.opens or m in c.closeds) and c.it[c.fr(m)]:
            return c.cx("Int(Fr(A)) != {} for open/closed A", m)
        if c.it[c.fr(c.cl[m])] or c.it[c.fr(c.it[m])]:
            return c.cx("Int(Fr(Cl(A))) or Int(Fr(Int(A))) nonempty", m)


def _chk_open_meets_closure(c):
    for u in sorted(c.opens):
        for a in range(c.N):
            if u & c.cl[a] and not u & a:
                return c.cx("open set meets Cl(A) but not A", u, a)


def _chk_dense_laws(c):
    dense = [c.cl[m] == c.full for m in range(c.N)]
    for a in range(c.N):
        # dense iff A meets every nonempty open
        meets = all(u & a for u in c.opens if u)
        if dense[a] != meets:
            return c.cx("dense criterion mismatch", a)
        for b in range(c.N):
            if dense[a] and not dense[a | b]:
                return c.cx("union of dense sets not dense", a, b)
            if dense[a] and dense[b] and a in c.opens and not dense[a & b]:
                return c.cx("open-dense & dense not dense", a, b)


def _chk_nowhere_dense_laws(c):
    nwd = [c.it[c.cl[m]] == 0 for m in range(c.N)]
    dense = [c.cl[m] == c.full for m in range(c.N)]
    for a in range(c.N):
        if nwd[a] != nwd[c.cl[a]]:
            return c.cx("A nwd iff Cl(A) nwd broken", a)
        if nwd[a] and not dense[c.full & ~a]:
            return c.cx("complement of nwd not dense", a)
        for b in range(c.N):
            if b & ~a == 0 and nwd[a] and not nwd[b]:
                return c.cx("subset of nwd not nwd", a, b)
            if nwd[a] and nwd[b] and not nwd[a | b]:
                return c.cx("union of nwd sets not nwd", a, b)


def _chk_dense_only_full_iff_discrete(c):
    only_full = all(
        (c.cl[m] == c.full) == (m == c.full) for m in range(c.N)
    )
    if only_full != (len(c.opens) == c.N):
        return c.cx("sole-dense-set-is-X iff discrete broken")


def _chk_point_roles_match_operators(c):
    # The role partition (exactly one of interior, exterior and boundary)
    # and the role invariants (adherent iff not exterior, never both limit
    # and isolated) are not checked.  point_roles's quantifiers meet both on
    # any family of opens, so only a fault inside it could break them.  The
    # operators and the limit and isolated sets are then the library's:
    # Int(A), Int(X - A) and Cl(A) - Int(A) partition X, Cl(A) is
    # X - Int(X - A), and the split clause has made the limit and isolated
    # sets disjoint.  The mismatch clause ties each flag to one of these,
    # so it returns first.
    s = c.s
    for m in range(c.N):
        A = PointSet(m, c.n)
        lim = operators_mod.limit_set(s, A).bits
        iso = operators_mod.isolated_set(s, A).bits
        if m | lim != c.cl[m]:
            return c.cx("Cl(A) != A | limit points", m)
        if (m & lim) & iso or ((m & lim) | iso) != m:
            return c.cx("limit/isolated split of A broken", m)
        for p in range(c.n):
            r = operators_mod.point_roles(s, A, p)
            pb = 1 << p
            if (
                r.interior != bool(c.it[m] & pb)
                or r.exterior != bool(c.ext(m) & pb)
                or r.boundary != bool(c.fr(m) & pb)
                or r.adherent != bool(c.cl[m] & pb)
                or r.limit != bool(lim & pb)
                or r.isolated != bool(iso & pb)
            ):
                return c.cx(f"point role mismatch at p={p}", m)


def _chk_neighborhood_intersection(c):
    eq_everywhere = all(_meet_bits(c.opens, m, c.full) == m for m in range(c.N))
    if eq_everywhere != separation_mod.is_t1(c.s):
        return c.cx("nei-intersection equality iff T1 broken")


def _two_partitions(full: int):
    # unordered pairs (a, b) of disjoint nonempty sets with union = full
    for a in range(1, full):
        if a < full ^ a:
            yield a, full ^ a


def _chk_connectedness_equivalences(c):
    conn = connect_mod.is_connected(c.s)
    no_open = not any(
        a in c.opens and b in c.opens for a, b in _two_partitions(c.full)
    )
    no_closed = not any(
        a in c.closeds and b in c.closeds for a, b in _two_partitions(c.full)
    )
    no_nonattached = not any(
        not (a & c.cl[b]) and not (b & c.cl[a])
        for a, b in _two_partitions(c.full)
    )
    only_trivial_empty_fr = all(
        (c.fr(m) == 0) == (m in (0, c.full)) for m in range(c.N)
    )
    if not (conn == no_open == no_closed == no_nonattached == only_trivial_empty_fr):
        return c.cx(
            f"connectedness equivalences diverge: {conn},{no_open},"
            f"{no_closed},{no_nonattached},{only_trivial_empty_fr}"
        )


def _chk_connected_set_laws(c):
    # That the empty set and each singleton are connected is not checked.
    # connected_set_masks holds them on any adjacency (reach_bits keeps its
    # seed), so only a fault in that route could drop one.  is_connected and
    # subspace share no routine with it, so they are then the library's:
    # the subspaces on the empty set and on {p} are connected, and the
    # first loop returns first.
    s = c.s
    conn = connect_mod.connected_set_masks(s)
    # the literal definition: A is connected iff its subspace is
    for m in range(c.N):
        if (m in conn) != connect_mod.is_connected(c.sub(m)[0]):
            return c.cx("connected set differs from connected subspace", m)
    for a in conn:
        for b in range(c.N):
            if a & ~b == 0 and b & ~c.cl[a] == 0 and b not in conn:
                return c.cx("A <= B <= Cl(A) with A connected, B not", a, b)
        for b in conn:
            if (a & c.cl[b] or b & c.cl[a]) and (a | b) not in conn:
                return c.cx("touching connected sets with disconnected union", a, b)
    for a in conn:
        for pa, pb in _two_partitions(c.full):
            if pa in c.opens and pb in c.opens:
                if a & pa and a & pb:
                    return c.cx("connected set split by open partition", a, pa)


def _chk_components(c):
    # Disjointness and cover are not checked: components returns a Partition,
    # whose constructor raises NotAPartition on overlapping or missing blocks,
    # and _first_counterexample makes that error this theorem's counterexample.
    s = c.s
    comp = connect_mod.components(s)
    conn = connect_mod.connected_set_masks(s)
    for block in comp.blocks:
        if block.bits not in conn:
            return c.cx("component not connected", block.bits)
        if block.bits not in c.closeds:
            return c.cx("component not closed", block.bits)
    # components = maximal connected sets
    maximal = {
        a for a in conn if a and not any(b != a and a & ~b == 0 for b in conn)
    }
    if maximal != {b.bits for b in comp.blocks}:
        return c.cx("components differ from maximal connected sets")


def _chk_coarser_operator_comparison(n, ctxs, ops):
    # Relabeling moves both topologies of a pair at once, so only tau1 may
    # be a class representative: tau2 ranges over every labeled topology.
    every = all_spaces(n)
    labeled = ctxs if tuple(c.s for c in ctxs) == every else [_Ctx(s, ops) for s in every]
    for c1 in ctxs:
        for c2 in labeled:
            if not c2.opens <= c1.opens:
                continue  # require tau2 coarser than tau1
            if not c2.closeds <= c1.closeds:
                return c1.cx("coarser topology lost closed sets")
            for m in range(c1.N):
                if c2.it[m] & ~c1.it[m] or c1.cl[m] & ~c2.cl[m] or c1.fr(m) & ~c2.fr(m):
                    return c1.cx("operator comparison vs coarser topology broken", m)


def _chk_subspace_operator_comparison(c):
    for y in range(c.N):
        sub, inc = c.sub(y)
        for m in range(c.N):
            if m & ~y:
                continue
            A_sub = inc.preimage(PointSet(m, c.n))
            it_y = inc.image(operators_mod.interior(sub, A_sub)).bits
            cl_y = inc.image(operators_mod.closure(sub, A_sub)).bits
            fr_y = inc.image(operators_mod.boundary(sub, A_sub)).bits
            ext_y = inc.image(operators_mod.exterior(sub, A_sub)).bits
            if c.it[m] & y & ~it_y:
                return c.cx("Int_X(A)&Y not inside Int_Y(A)", y, m)
            if cl_y != y & c.cl[m]:
                return c.cx("Cl_Y(A) != Y & Cl_X(A)", y, m)
            if fr_y & ~c.fr(m):
                return c.cx("Fr_Y(A) not inside Fr_X(A)", y, m)
            if y & c.ext(m) & ~ext_y:
                return c.cx("Y & Ext_X(A) not inside Ext_Y(A)", y, m)


def _chk_indistinguishability_equivalences(c):
    ups = c.s.ups
    nei = [frozenset(m for m in c.opens if m >> p & 1) for p in range(c.n)]
    cnei = [frozenset(m for m in c.closeds if m >> p & 1) for p in range(c.n)]
    for p in range(c.n):
        for q in range(c.n):
            min_eq = ups[p] == ups[q]
            cl_eq = c.cl[1 << p] == c.cl[1 << q]
            if not ((nei[p] == nei[q]) == (cnei[p] == cnei[q]) == min_eq == cl_eq):
                return c.cx(f"indistinguishability equivalences differ p={p} q={q}")


def _chk_t0_closure_injective(c):
    t0 = separation_mod.is_t0(c.s)
    closures = [c.cl[1 << p] for p in range(c.n)]
    inj = len(set(closures)) == c.n
    if t0 != inj:
        return c.cx("T0 iff singleton-closure injective broken")


def _chk_t1_rigidity(c):
    rep = separation_mod.separation_report(c.s)
    disc = len(c.opens) == c.N
    if rep.t1 != disc or rep.t2 != disc:
        return c.cx("finite T1/T2 iff discrete broken")


def _chk_separation_hereditary(c):
    rep = separation_mod._literal_cross_check(c.s)
    for y in range(c.N):
        sub_rep = separation_mod.separation_report(c.sub(y)[0])
        if rep.t1 and not sub_rep.t1:
            return c.cx("T1 not hereditary", y)
        if rep.t3 and not sub_rep.t3:
            return c.cx("T3 not hereditary", y)
        if rep.normal and y in c.closeds and not sub_rep.normal:
            return c.cx("closed subspace of normal space not normal", y)


def _chk_compactness_facts(c):
    s = c.s
    if not compact_mod.is_compact(s):
        return c.cx("finite space not compact")
    compacts = [m for m in range(c.N) if compact_mod.is_compact_set(s, PointSet(m, c.n))]
    if compacts != list(range(c.N)):
        return c.cx("some finite subset not compact")
    if not compact_mod.is_locally_compact(s):
        return c.cx("finite space not locally compact")


def _chk_alexandroff_facts(c):
    s = c.s
    ext = construct_mod.alexandroff(s)
    # Every complement of an open is closed and compact, so every U | ∞
    # is open; alexandroff builds its space without validating it.
    inf = 1 << c.n
    if ext.opens.masks != s.opens.masks + tuple(u | inf for u in s.opens.masks):
        return c.cx("Alexandroff extension does not add U | inf for every open U")
    if not compact_mod.is_compact(ext):
        return c.cx("Alexandroff extension not compact")
    sub, _ = construct_mod.subspace(ext, PointSet((1 << c.n) - 1, ext.n))
    if sub.opens.masks != s.opens.masks:
        return c.cx("Alexandroff restriction does not restore the space")


def _chk_metric_topology_discrete(n, ctxs, ops):
    # 200 seeded metric tables on 1..6 points; the swept spaces play no part.
    rng = random.Random(20260823)
    for _ in range(200):
        k = rng.randint(1, 6)
        lo, hi = rng.choice([(1, 2), (5, 9), (3, 5)])
        d = [[0] * k for _ in range(k)]
        for i in range(k):
            for j in range(i + 1, k):
                d[i][j] = d[j][i] = rng.randint(lo, hi)
        mt = construct_mod.metric_topology(construct_mod.MetricTable.of(d))
        if len(mt.opens) != 1 << k:
            return f"metric table {d} induced a non-discrete topology"


def _chk_locally_connected_equiv(c):
    s = c.s
    # The literal definition: every open w holding p contains an open v
    # holding p that is connected as a subspace.
    connected_opens = [
        v
        for v in c.opens
        if connect_mod.is_connected(c.sub(v)[0])
    ]
    literal = all(
        any(v >> p & 1 and v & ~w == 0 for v in connected_opens)
        for p in range(c.n)
        for w in c.opens
        if w >> p & 1
    )
    if connect_mod.is_locally_connected(s) != literal:
        return c.cx("locally connected differs from the open-neighborhood definition")


def _chk_base_laws(c):
    s = c.s
    if not construct_mod.is_base_for(s, s.opens):
        return c.cx("topology not a base for itself")
    regen = construct_mod.topology_from_base(c.n, s.opens)
    if regen.opens.masks != s.opens.masks:
        return c.cx("topology regenerated from itself differs")
    minbase = Family.of(c.n, s.ups)
    if not construct_mod.is_base_for(s, minbase):
        return c.cx("minimal-open family not a base")


def _below(N: int) -> list[int]:
    """below[m] has bit u set iff u ⊆ m."""
    return [sum(1 << u for u in range(N) if u & ~m == 0) for m in range(N)]


def _chk_fundamental_cover_laws(c):
    # Sets of masks are N-bit ints.  coh[m] has bit u set iff u ∩ m is open
    # in the subspace m, so a family's FCOV2 set is the AND of coh over its
    # members.  The j-th non-fundamental cover sets bit j of refines[m] for
    # every m inside one of its members, so the AND of refines over a
    # family's members holds the covers it refines.
    #
    # The closed FCOV2 set is not checked.  The closeds are the complements
    # of the opens, so v ∩ m is closed in m iff (full ^ v) ∩ m is open in m,
    # and that set equals the closeds exactly when the open FCOV2 set, read
    # from the opens, equals the opens.  Checked after the clause below, it
    # could fail only where relative_opens and _is_fundamental are both
    # wrong on one family.
    s = c.s
    opens_bits = sum(1 << u for u in c.opens)
    coh = [0] * c.N
    for m in range(1, c.N):
        rel = covers_mod.relative_opens(s, m)
        coh[m] = sum(1 << u for u in range(c.N) if u & m in rel)
    below = _below(c.N)
    refines = [0] * c.N
    fundamental, coarse = [], []
    for size in (1, 2, 3):
        for fam in itertools.combinations(range(1, c.N), size):
            if reduce(or_, fam) != c.full:
                continue
            fund = covers_mod._is_fundamental(s, fam)
            if not fund:
                if all(m in c.opens for m in fam):
                    return c.cx(f"open cover not fundamental: {fam}")
                if all(m in c.closeds for m in fam):
                    return c.cx(f"finite closed cover not fundamental: {fam}")
            # FCOV2-set equals tau exactly when fundamental
            if (reduce(and_, map(coh.__getitem__, fam)) == opens_bits) != fund:
                return c.cx(f"FCOV2-set criterion mismatch: {fam}")
            if fund:
                fundamental.append(fam)
            else:
                bit = 1 << len(coarse)
                coarse.append(fam)
                for m in mask_points(reduce(or_, map(below.__getitem__, fam))):
                    refines[m] |= bit
    # refinement theorem: no fundamental cover refines a non-fundamental one
    for fine in fundamental:
        hit = reduce(and_, map(refines.__getitem__, fine))
        if hit:
            big = coarse[(hit & -hit).bit_length() - 1]
            C_fine, C_big = Family._from_masks(c.n, fine), Family._from_masks(c.n, big)
            if covers_mod.is_refinement(C_fine, C_big, s):
                return c.cx(f"fundamental refinement {fine} of non-fundamental {big}")
            return c.cx(f"down-set test disagrees with is_refinement: {fine} {big}")


def _chk_constructor_laws(c):
    s = c.s
    # subspace transitivity
    for y in range(c.N):
        sub_y, inc_y = c.sub(y)
        for yp in range(c.N):
            if yp & ~y:
                continue
            inner_mask = inc_y.preimage(PointSet(yp, c.n))
            sub2, _ = construct_mod.subspace(sub_y, inner_mask)
            direct, _ = c.sub(yp)
            if sub2.opens.masks != direct.opens.masks:
                return c.cx("subspace transitivity broken", y, yp)
    # product with the one-point space is homeomorphic to s
    prod, _ = construct_mod.product(s, space(1, (0, 1)))
    if maps_mod.find_homeomorphism(prod, s) is None:
        return c.cx("product with one-point space not homeomorphic")
    # quotient by singletons is homeomorphic to s
    P = Partition.of(c.n, [[p] for p in range(c.n)])
    quot, _ = construct_mod.quotient(s, P)
    if maps_mod.find_homeomorphism(quot, s) is None:
        return c.cx("quotient by singletons not homeomorphic")
    # base for s induces base for subspaces
    for y in range(c.N):
        sub_y, inc_y = c.sub(y)
        traced = Family.of(
            sub_y.n,
            (inc_y.preimage(PointSet(y & u, c.n)).bits for u in c.opens),
        )
        if not construct_mod.is_base_for(sub_y, traced):
            return c.cx("traced base not a base for the subspace", y)
    # open subset of open subspace is open in the whole space (closed analogue)
    for y in sorted(c.opens):
        sub_y, inc_y = c.sub(y)
        for v in sub_y.opens.masks:
            if inc_y.image(PointSet(v, sub_y.n)).bits not in c.opens:
                return c.cx("open-in-open-subspace not open", y, v)
    for y in sorted(c.closeds):
        sub_y, inc_y = c.sub(y)
        for v in sub_y.closeds.masks:
            if inc_y.image(PointSet(v, sub_y.n)).bits not in c.closeds:
                return c.cx("closed-in-closed-subspace not closed", y, v)


def _chk_product_quotient_preservation(n, ctxs, ops):
    # Products over factor pairs with small product carriers; quotients
    # over all partitions of each space.
    pools = {k: all_spaces(k) for k in range(n + 1)}
    for k1 in range(n + 1):
        for k2 in range(n + 1):
            if k1 * k2 > 6:
                continue
            for s1 in pools[k1]:
                for s2 in pools[k2]:
                    prod, _ = construct_mod.product(s1, s2)
                    if connect_mod.is_connected(s1) and connect_mod.is_connected(s2):
                        if not connect_mod.is_connected(prod):
                            return (
                                "product of connected spaces disconnected: "
                                f"{_ser_space(s1)} x {_ser_space(s2)}"
                            )
                    if not compact_mod.is_compact(prod):
                        return f"product not compact: {_ser_space(s1)} x {_ser_space(s2)}"
    for c in ctxs:
        s = c.s
        for P in _partitions(c.n):
            quot, _ = construct_mod.quotient(s, P)
            if connect_mod.is_connected(s) and not connect_mod.is_connected(quot):
                return c.cx(f"quotient of connected space disconnected: {P}")
            if not compact_mod.is_compact(quot):
                return c.cx(f"quotient not compact: {P}")


def _partitions(n: int):
    if n == 0:
        yield Partition.of(0, [])
        return
    def rec(p, blocks):
        if p == n:
            yield [list(b) for b in blocks]
            return
        for b in blocks:
            b.append(p)
            yield from rec(p + 1, blocks)
            b.pop()
        blocks.append([p])
        yield from rec(p + 1, blocks)
        blocks.pop()
    for blocks in rec(0, []):
        yield Partition.of(n, blocks)


#: The single-space theorems in report order: (id, check, scope).  A check
#: of scope "space" is run on each swept space in turn; one of scope "run"
#: quantifies over something else and is run once.
SINGLE_SPACE_THEOREMS = [
    ("interior_idempotent", _chk_interior_idempotent, "space"),
    ("closure_idempotent", _chk_closure_idempotent, "space"),
    ("interior_closure_extensivity", _chk_extensivity, "space"),
    ("open_closed_fixpoints", _chk_open_closed_fixpoints, "space"),
    ("interior_of_intersection", _chk_interior_of_intersection, "space"),
    ("closure_of_union", _chk_closure_of_union, "space"),
    ("exterior_of_union", _chk_exterior_of_union, "space"),
    ("operator_monotonicity", _chk_monotonicity, "space"),
    ("frontier_identities", _chk_frontier_identities, "space"),
    ("frontier_power", _chk_frontier_power, "space"),
    ("interior_of_frontier", _chk_interior_of_frontier, "space"),
    ("open_meets_closure", _chk_open_meets_closure, "space"),
    ("dense_laws", _chk_dense_laws, "space"),
    ("nowhere_dense_laws", _chk_nowhere_dense_laws, "space"),
    ("dense_only_full_iff_discrete", _chk_dense_only_full_iff_discrete, "space"),
    ("point_roles_match_operators", _chk_point_roles_match_operators, "space"),
    ("neighborhood_intersection", _chk_neighborhood_intersection, "space"),
    ("connectedness_equivalences", _chk_connectedness_equivalences, "space"),
    ("connected_set_laws", _chk_connected_set_laws, "space"),
    ("components_structure", _chk_components, "space"),
    ("coarser_operator_comparison", _chk_coarser_operator_comparison, "run"),
    ("subspace_operator_comparison", _chk_subspace_operator_comparison, "space"),
    ("indistinguishability_equivalences", _chk_indistinguishability_equivalences, "space"),
    ("t0_closure_injective", _chk_t0_closure_injective, "space"),
    ("finite_t1_rigidity", _chk_t1_rigidity, "space"),
    ("separation_hereditary", _chk_separation_hereditary, "space"),
    ("compactness_facts", _chk_compactness_facts, "space"),
    ("alexandroff_facts", _chk_alexandroff_facts, "space"),
    ("metric_topology_discrete", _chk_metric_topology_discrete, "run"),
    ("locally_connected_equivalence", _chk_locally_connected_equiv, "space"),
    ("base_laws", _chk_base_laws, "space"),
    ("fundamental_cover_laws", _chk_fundamental_cover_laws, "space"),
    ("constructor_laws", _chk_constructor_laws, "space"),
    ("product_quotient_preservation", _chk_product_quotient_preservation, "run"),
]


def sweep_theorems(
    n: int,
    overrides: Optional[dict] = None,
    theorems: Optional[list] = None,
    include_maps: bool = True,
) -> dict:
    """Run the theorem regression over the topologies on n points, n <= 4.

    Returns {theorem id: {"ok": bool, "counterexample": Optional[str]}}:
    the single-space theorems named in `theorems` (all 34 by default), then
    the 13 map theorems unless `include_maps` is False.  `overrides` may
    replace the "interior"/"closure" operators used to build the per-space
    tables, so a deliberately corrupted operator surfaces as a named
    theorem failure with a serialized counterexample; any other key raises
    ValueError.  For n <= 3 every labeled topology is swept; at n = 4 the
    class representatives are, as the module docstring says.  A fault that
    is not itself invariant under relabeling can escape the reduced sweep:
    ``_sweep(4, all_spaces(4))`` is the unreduced run.
    """
    if not 0 <= n <= 4:
        raise CarrierTooLarge("theorem sweep capped at n <= 4")
    if n <= 3:
        spaces = all_spaces(n)
    else:
        spaces = tuple(enumerate_topologies(EnumConfig(n, "up_to_homeomorphism")))
    return _sweep(n, spaces, overrides, theorems, include_maps)


def _first_counterexample(check, scope: str, n: int, ctxs, ops) -> Optional[str]:
    """The first counterexample of one single-space theorem, or None.  A
    library error raised inside the check fails the theorem: a per-space
    check names the space it was checking.  A cap still raises."""
    try:
        if scope == "run":
            return check(n, ctxs, ops)
        for c in ctxs:
            cx = check(c)
            if cx is not None:
                return cx
    except CarrierTooLarge:
        raise
    except FintopError as exc:
        return str(exc) if scope == "run" else c.cx(str(exc))
    return None


def _sweep(
    n: int,
    spaces,
    overrides: Optional[dict] = None,
    theorems: Optional[list] = None,
    include_maps: bool = True,
) -> dict:
    """:func:`sweep_theorems` quantified over `spaces`: topologies on n
    points, at least one of each homeomorphism class."""
    if include_maps:
        # Imported here, so that a process that sweeps no maps never compiles
        # the module, and before the per-space tables are built, so that
        # compiling it does not add to the sweep's peak memory.
        from .mapsweep import _map_sweep
    ops = _default_ops(overrides)
    ctxs = [_Ctx(s, ops) for s in spaces]
    lookup = {name: (check, scope) for name, check, scope in SINGLE_SPACE_THEOREMS}
    names = lookup if theorems is None else theorems
    report = {}
    for name in names:
        cx = _first_counterexample(*lookup[name], n, ctxs, ops)
        report[name] = {"ok": cx is None, "counterexample": cx}
    if include_maps:
        for name, cx in _map_sweep(n, ctxs).items():
            report[name] = {"ok": cx is None, "counterexample": cx}
    return report
