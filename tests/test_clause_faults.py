"""One injected fault for each counterexample clause of the theorem sweep
that no other test reaches, with the exact counterexample it gives at
n = 2 and n = 3 (None: the theorem holds there).

Each fault is single: one ``overrides`` operator, or one library function
or method replaced through its module.  ``tests/trace_returns.py`` checks
that, with these, every counterexample return of ``fintop.theorems`` runs.
"""


import pytest

from conftest import replace
from fintop import (
    Family,
    PointSet,
    closure,
    compact,
    connect,
    construct,
    discrete,
    indiscrete,
    interior,
    operators,
    separation,
    space,
    sweep_theorems,
)
from fintop.maps import FiniteMap
from fintop.space import TopSpace

D2 = '{"n": 2, "opens": [[], [0], [1], [0, 1]]}'
S2 = '{"n": 2, "opens": [[], [0], [0, 1]]}'
I2 = '{"n": 2, "opens": [[], [0, 1]]}'
D3 = '{"n": 3, "opens": [[], [0], [1], [0, 1], [2], [0, 2], [1, 2], [0, 1, 2]]}'
# {0}, {1} and {0, 2} open, with their unions.
W3 = '{"n": 3, "opens": [[], [0], [1], [0, 1], [0, 2], [0, 1, 2]]}'
I3 = '{"n": 3, "opens": [[], [0, 1, 2]]}'


def _cx(space_ser, sets, detail):
    return f"{space_ser} sets {sets}: {detail}"


def _full(s):
    return (1 << s.n) - 1


# -- operator overrides --------------------------------------------------------


def _closure_is_frontier(mp):
    return {"closure": lambda s, A: closure(s, A) - interior(s, A)}


def _closure_of_carrier_drops_top(mp):
    # Off the discrete spaces, whose only dense set is the carrier.
    def bad(s, A):
        if A.bits == _full(s) and len(s.opens) < 1 << s.n:
            return PointSet(_full(s) >> 1, s.n)
        return closure(s, A)

    return {"closure": bad}


def _top_point_dense(mp):
    # The closure of {top} is the carrier where {top} is not open.
    def bad(s, A):
        top = 1 << s.n - 1
        if A.bits == top and top not in s.opens.mask_set:
            return PointSet.full(s.n)
        return closure(s, A)

    return {"closure": bad}


def _closed_sets_open(mp):
    # A nonempty closed set that is no point closure reads as open.
    def bad(s, A):
        if A.bits and A.bits in s.closeds.mask_set and A.bits not in s.downs:
            return A
        return interior(s, A)

    return {"interior": bad}


# -- library functions and methods ----------------------------------------------


def _patch(mp, target, name, make):
    mp.setattr(target, name, make(getattr(target, name)))


def _isolated_holds_limits(mp):
    _patch(mp, operators, "isolated_set", lambda real: (
        lambda s, A: real(s, A) | (A & operators.limit_set(s, A))
    ))


def _stale_mask_set(mp):
    # The mask set of {∅, {0, 1}, {2}, X} also answers {0} and {1, 2}: a
    # false open partition that splits the connected {0, 1}.  The subspace
    # on X reads the same mask set, so is_connected still calls X
    # disconnected, as connected_set_masks (which reads ups) does.
    real = Family.mask_set.fget

    def stale(fam):
        got = real(fam)
        return got | {0b001, 0b110} if fam.masks == (0, 3, 4, 7) else got

    mp.setattr(Family, "mask_set", property(stale))


def _components_edit(edit):
    """A connect.components fault: edit(s, blocks) in place of the blocks."""

    def install(mp):
        def make(real):
            def fake(s):
                got = real(s)
                blocks = edit(s, [b.bits for b in got.blocks])
                return replace(got, blocks=tuple(PointSet(b, s.n) for b in blocks))

            return fake

        _patch(mp, connect, "components", make)

    return install


def _indiscrete_closeds_gain_point(mp):
    real = TopSpace.closeds.fget

    def closeds(s):
        got = real(s)
        if s.n > 1 and len(s.opens) == 2:
            return Family._from_masks(s.n, sorted({*got.masks, 1}))
        return got

    mp.setattr(TopSpace, "closeds", property(closeds))


def _boundary_is_closure(mp):
    mp.setattr(operators, "boundary", closure)


def _subspace_edit(edit):
    """A construct.subspace fault: edit(s, Y, sub) in place of sub."""

    def install(mp):
        def make(real):
            def fake(s, Y):
                sub, inc = real(s, Y)
                return edit(s, Y, sub), inc

            return fake

        _patch(mp, construct, "subspace", make)

    return install


def _pairs_of_indiscrete_sierpinski(s, Y, sub):
    return space(2, [0, 1, 3]) if sub.n == 2 and len(s.opens) == 2 else sub


def _carrier_less_top_indiscrete(s, Y, sub):
    return indiscrete(sub.n) if Y.bits == (1 << s.n - 1) - 1 and sub.n > 1 else sub


def _small_spaces_indiscrete(s, Y, sub):
    return indiscrete(sub.n) if s.n < 3 else sub


def _closeds_stale(s, Y, sub):
    object.__setattr__(sub, "_closeds", discrete(sub.n).closeds)
    return sub


def _one_point_not_normal(mp):
    _patch(mp, separation, "separation_report", lambda real: (
        lambda s: replace(real(s), normal=False) if s.n == 1 else real(s)
    ))


def _never_locally_compact(mp):
    mp.setattr(compact, "is_locally_compact", lambda s: False)


def _singletons_not_compact(mp):
    _patch(mp, compact, "is_compact_set", lambda real: (
        lambda s, A: real(s, A) and (len(A) != 1 or s.n == 1)
    ))


def _infinity_without_open(mp):
    # U_inf = {} is no open holding inf, so the extension reads as not compact.
    def make(real):
        def fake(s):
            ext = real(s)
            return replace(ext, ups=(*ext.ups[:-1], 0))

        return fake

    _patch(mp, construct, "alexandroff", make)


def _opens_not_a_base(mp):
    _patch(mp, construct, "is_base_for", lambda real: (
        lambda s, B: real(s, B) and B.masks != s.opens.masks
    ))


def _regenerated_indiscrete(mp):
    mp.setattr(construct, "topology_from_base", lambda n, B: indiscrete(n))


def _product_is(make_space):
    def install(mp):
        _patch(mp, construct, "product", lambda real: (
            lambda a, b: (make_space(a.n * b.n), real(a, b)[1])
        ))

    return install


def _quotient_is(make_space):
    def install(mp):
        def make(real):
            def fake(s, P):
                quot, proj = real(s, P)
                return make_space(quot), proj

            return fake

        _patch(mp, construct, "quotient", make)

    return install


def _image_gains_last_point(mp):
    real = FiniteMap.image

    def image(f, A):
        got = real(f, A)
        return PointSet(got.bits | 1 << f.cod_n - 1, f.cod_n) if A.bits else got

    mp.setattr(FiniteMap, "image", image)


#: name -> (theorem, fault, counterexample at n = 2, at n = 3)
CLAUSE_FAULTS = {
    "closure_is_frontier": (
        "frontier_identities",
        _closure_is_frontier,
        _cx(D2, "[0]", "Cl != Int|Fr or Cl != A|Fr"),
        _cx(D3, "[0]", "Cl != Int|Fr or Cl != A|Fr"),
    ),
    "closure_of_carrier_drops_top": (
        "dense_laws",
        _closure_of_carrier_drops_top,
        _cx(S2, "[0] [1]", "union of dense sets not dense"),
        _cx(W3, "[0, 1] [2]", "union of dense sets not dense"),
    ),
    "top_point_dense": (
        "dense_laws",
        _top_point_dense,
        _cx(S2, "[0] [1]", "open-dense & dense not dense"),
        _cx(W3, "[0, 1] [2]", "open-dense & dense not dense"),
    ),
    "closed_sets_open": (
        "nowhere_dense_laws",
        _closed_sets_open,
        None,
        _cx(
            '{"n": 3, "opens": [[], [0], [0, 1], [0, 2], [0, 1, 2]]}',
            "[1] [2]",
            "union of nwd sets not nwd",
        ),
    ),
    "isolated_holds_limits": (
        "point_roles_match_operators",
        _isolated_holds_limits,
        _cx(S2, "[0, 1]", "limit/isolated split of A broken"),
        _cx(W3, "[0, 2]", "limit/isolated split of A broken"),
    ),
    "stale_mask_set": (
        "connected_set_laws",
        _stale_mask_set,
        None,
        _cx(
            '{"n": 3, "opens": [[], [0, 1], [2], [0, 1, 2]]}',
            "[0, 1] [0]",
            "connected set split by open partition",
        ),
    ),
    "components_merged": (
        "components_structure",
        _components_edit(lambda s, b: [b[0] | b[-1], *b[1:-1]] if len(b) > 1 else b),
        _cx(D2, "[0, 1]", "component not connected"),
        _cx(D3, "[0, 2]", "component not connected"),
    ),
    "components_are_singletons": (
        "components_structure",
        _components_edit(lambda s, b: [1 << p for p in range(s.n)]),
        _cx(S2, "[0]", "component not closed"),
        _cx(W3, "[0]", "component not closed"),
    ),
    "components_repeat_first": (
        "components_structure",
        _components_edit(lambda s, b: [*b, b[0]]),
        _cx(D2, "", "blocks overlap"),
        _cx(D3, "", "blocks overlap"),
    ),
    "components_drop_last": (
        "components_structure",
        _components_edit(lambda s, b: b[:-1] if len(b) > 1 else b),
        _cx(D2, "", "blocks do not cover the carrier"),
        _cx(D3, "", "blocks do not cover the carrier"),
    ),
    "indiscrete_closeds_gain_point": (
        "coarser_operator_comparison",
        _indiscrete_closeds_gain_point,
        _cx(S2, "", "coarser topology lost closed sets"),
        _cx(W3, "", "coarser topology lost closed sets"),
    ),
    "boundary_is_closure": (
        "subspace_operator_comparison",
        _boundary_is_closure,
        _cx(D2, "[0] [0]", "Fr_Y(A) not inside Fr_X(A)"),
        _cx(D3, "[0] [0]", "Fr_Y(A) not inside Fr_X(A)"),
    ),
    "pairs_of_indiscrete_sierpinski": (
        "separation_hereditary",
        _subspace_edit(_pairs_of_indiscrete_sierpinski),
        _cx(I2, "[0, 1]", "T3 not hereditary"),
        _cx(I3, "[0, 1]", "T3 not hereditary"),
    ),
    "one_point_not_normal": (
        "separation_hereditary",
        _one_point_not_normal,
        _cx(D2, "[0]", "closed subspace of normal space not normal"),
        _cx(D3, "[0]", "closed subspace of normal space not normal"),
    ),
    "never_locally_compact": (
        "compactness_facts",
        _never_locally_compact,
        _cx(D2, "", "finite space not locally compact"),
        _cx(D3, "", "finite space not locally compact"),
    ),
    "singletons_not_compact": (
        "compactness_facts",
        _singletons_not_compact,
        _cx(D2, "", "some finite subset not compact"),
        _cx(D3, "", "some finite subset not compact"),
    ),
    "infinity_without_open": (
        "alexandroff_facts",
        _infinity_without_open,
        _cx(D2, "", "Alexandroff extension not compact"),
        _cx(D3, "", "Alexandroff extension not compact"),
    ),
    "carrier_less_top_indiscrete": (
        "alexandroff_facts",
        _subspace_edit(_carrier_less_top_indiscrete),
        _cx(D2, "", "Alexandroff restriction does not restore the space"),
        _cx(D3, "", "Alexandroff restriction does not restore the space"),
    ),
    "opens_not_a_base": (
        "base_laws",
        _opens_not_a_base,
        _cx(D2, "", "topology not a base for itself"),
        _cx(D3, "", "topology not a base for itself"),
    ),
    "regenerated_indiscrete": (
        "base_laws",
        _regenerated_indiscrete,
        _cx(D2, "", "topology regenerated from itself differs"),
        _cx(D3, "", "topology regenerated from itself differs"),
    ),
    "small_spaces_indiscrete": (
        "constructor_laws",
        _subspace_edit(_small_spaces_indiscrete),
        _cx(D2, "[0, 1]", "traced base not a base for the subspace"),
        _cx(D3, "[0, 1] [0, 1]", "subspace transitivity broken"),
    ),
    "product_indiscrete": (
        "constructor_laws",
        _product_is(indiscrete),
        _cx(D2, "", "product with one-point space not homeomorphic"),
        _cx(D3, "", "product with one-point space not homeomorphic"),
    ),
    "quotient_indiscrete": (
        "constructor_laws",
        _quotient_is(lambda q: indiscrete(q.n)),
        _cx(D2, "", "quotient by singletons not homeomorphic"),
        _cx(D3, "", "quotient by singletons not homeomorphic"),
    ),
    "image_gains_last_point": (
        "constructor_laws",
        _image_gains_last_point,
        None,
        _cx(W3, "[1] [0]", "open-in-open-subspace not open"),
    ),
    "subspace_closeds_stale": (
        "constructor_laws",
        _subspace_edit(_closeds_stale),
        _cx(S2, "[0, 1] [0]", "closed-in-closed-subspace not closed"),
        _cx(W3, "[0, 2] [0]", "closed-in-closed-subspace not closed"),
    ),
    "product_discrete": (
        "product_quotient_preservation",
        _product_is(discrete),
        "product of connected spaces disconnected: "
        '{"n": 1, "opens": [[], [0]]} x {"n": 2, "opens": [[], [0], [0, 1]]}',
        "product of connected spaces disconnected: "
        '{"n": 1, "opens": [[], [0]]} x {"n": 2, "opens": [[], [0], [0, 1]]}',
    ),
    "quotient_discrete": (
        "product_quotient_preservation",
        _quotient_is(lambda q: discrete(q.n)),
        _cx(
            S2,
            "",
            "quotient of connected space disconnected: "
            "Partition(blocks=(PointSet({0}, n=2), PointSet({1}, n=2)), n=2)",
        ),
        _cx(
            '{"n": 3, "opens": [[], [0], [1], [0, 1], [0, 1, 2]]}',
            "",
            "quotient of connected space disconnected: "
            "Partition(blocks=(PointSet({0,1}, n=3), PointSet({2}, n=3)), n=3)",
        ),
    ),
    "quotient_without_opens": (
        "product_quotient_preservation",
        _quotient_is(lambda q: replace(q, ups=(0,) * q.n)),
        _cx(D2, "", "quotient not compact: Partition(blocks=(PointSet({0,1}, n=2),), n=2)"),
        _cx(D3, "", "quotient not compact: Partition(blocks=(PointSet({0,1,2}, n=3),), n=3)"),
    ),
}


@pytest.mark.parametrize("name", sorted(CLAUSE_FAULTS))
def test_fault_reaches_its_clause(monkeypatch, name):
    theorem, fault, cx2, cx3 = CLAUSE_FAULTS[name]
    overrides = fault(monkeypatch)
    for n, expected in ((2, cx2), (3, cx3)):
        out = sweep_theorems(n, overrides=overrides, theorems=[theorem], include_maps=False)
        assert out[theorem]["counterexample"] == expected, n
