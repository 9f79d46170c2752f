import itertools
import time

import pytest

from conftest import replace
from fintop import (
    CodomainNotHausdorff,
    FiniteMap,
    Partition,
    PointSet,
    check_map,
    compactness_report,
    discrete,
    find_homeomorphism,
    hausdorff_compact_checks,
    is_compact,
    is_compact_set,
    is_locally_compact,
    product,
    quotient,
    space,
    subspace,
)
from fintop.enumeration import all_spaces


class TestCompactness:
    def test_all_finite_spaces_compact(self):
        # Chains on 18-23 points have 19-24 opens: no per-call cost may grow
        # with 2**|opens|.
        chains = [space(n, [(1 << k) - 1 for k in range(n + 1)]) for n in range(18, 24)]
        for s in [*(s for n in range(4) for s in all_spaces(n)), *chains]:
            for pred in (is_compact, is_locally_compact):
                start = time.perf_counter()
                assert pred(s)
                assert time.perf_counter() - start < 0.05

    def test_corrupted_min_open_is_not_compact(self, sierpinski, three_point):
        # U_2 = {0,1} is open but omits 2; U_0 = {0} holds 0 but is not open.
        bad_tables = [
            (three_point, 2, 0b011),
            (sierpinski, 0, 0b01),
        ]
        for s, p, u in bad_tables:
            table = list(s.ups)
            table[p] = u
            bad = replace(s, ups=tuple(table))
            assert not is_compact(bad)
            assert not is_compact_set(bad, PointSet(1 << p, s.n))
            assert not is_locally_compact(bad)

    def test_empty_set_compact(self, sierpinski):
        assert is_compact_set(sierpinski, PointSet.empty(2))

    def test_compact_set_matches_subspace(self):
        for s in all_spaces(3):
            for m in range(8):
                A = PointSet(m, 3)
                sub, _ = subspace(s, A)
                assert is_compact_set(s, A) == is_compact(sub)

    def test_report(self, sierpinski):
        r = compactness_report(sierpinski)
        assert r.compact and r.locally_compact

    def test_closed_subset_of_compact_is_compact(self):
        for s in all_spaces(3):
            for m in s.closeds.masks:
                assert is_compact_set(s, PointSet(m, 3))

    def test_union_intersection_laws(self):
        for s in all_spaces(3):
            for a in range(8):
                for b in range(8):
                    A, B = PointSet(a, 3), PointSet(b, 3)
                    if is_compact_set(s, A) and is_compact_set(s, B):
                        assert is_compact_set(s, A | B)


class TestHausdorffChecks:
    def test_codomain_not_hausdorff(self, sierpinski):
        with pytest.raises(CodomainNotHausdorff):
            hausdorff_compact_checks(sierpinski, sierpinski, FiniteMap.identity(2))

    def test_implications_always_hold(self):
        d = discrete(2)
        for s1 in all_spaces(2):
            for table in itertools.product(range(2), repeat=2):
                f = FiniteMap.of(2, 2, table)
                out = hausdorff_compact_checks(s1, d, f)
                assert all(out.values())

    def test_compact_set_in_hausdorff_is_closed(self):
        # finite Hausdorff = discrete, so every subset is closed; asserted
        # through the predicates rather than assumed
        for n in range(4):
            d = discrete(n)
            for m in range(1 << n):
                A = PointSet(m, n)
                if is_compact_set(d, A):
                    assert A.bits in d.closeds

    def test_disjoint_compacts_have_disjoint_neighborhoods(self):
        d = discrete(3)
        for a in range(8):
            for b in range(8):
                if a & b or not a or not b:
                    continue
                found = any(
                    a & ~u == 0 and b & ~w == 0 and not u & w
                    for u in d.opens.masks
                    for w in d.opens.masks
                )
                assert found


class TestTransport:
    def test_continuous_image_compact(self):
        for s1 in all_spaces(2):
            for s2 in all_spaces(2):
                for table in itertools.product(range(2), repeat=2):
                    f = FiniteMap.of(2, 2, table)
                    if not check_map(f, s1, s2).continuous:
                        continue
                    for m in range(4):
                        A = PointSet(m, 2)
                        if is_compact_set(s1, A):
                            assert is_compact_set(s2, f.image(A))

    def test_topological_property(self):
        for s1 in all_spaces(3):
            for s2 in all_spaces(3):
                if find_homeomorphism(s1, s2) is not None:
                    assert is_compact(s1) == is_compact(s2)

    def test_products_quotients(self):
        for s1 in all_spaces(2):
            for s2 in all_spaces(2):
                p, _ = product(s1, s2)
                assert is_compact(p)
            q, _ = quotient(s1, Partition.of(2, [[0, 1]]))
            assert is_compact(q)
