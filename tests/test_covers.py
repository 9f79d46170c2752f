import itertools

import pytest

from fintop import (
    CarrierMismatch,
    Family,
    FiniteMap,
    NotACover,
    NotFundamental,
    PointSet,
    classify_cover,
    discrete,
    is_refinement,
    is_subcover,
    minimal_subcover,
    relative_opens,
    verify_pasting,
)
from fintop import theorems
from fintop.covers import _is_fundamental
from fintop.enumeration import all_spaces


def fam(n, *point_lists):
    return Family.of(n, point_lists)


class TestClassifyCover:
    def test_whole_space(self, sierpinski):
        r = classify_cover(sierpinski, fam(2, [0, 1]))
        assert r.is_cover and r.open_cover and r.closed_cover
        assert r.locally_finite and r.fundamental

    def test_singletons_on_discrete(self):
        r = classify_cover(discrete(3), fam(3, [0], [1], [2]))
        assert r.is_cover and r.open_cover and r.fundamental

    def test_sierpinski_singletons(self, sierpinski):
        # {0} is closed, {1} is open but not closed
        r = classify_cover(sierpinski, fam(2, [0], [1]))
        assert r.is_cover and not r.closed_cover and not r.open_cover
        # literal FCOV2 scan: U={0} has {0}∩{0}={0} open in the subspace
        # {0} and {1}∩{0}=∅, yet {0} is not open — not fundamental
        assert not r.fundamental

    def test_not_a_cover(self, sierpinski):
        r = classify_cover(sierpinski, fam(2, [0]))
        assert not r.is_cover

    def test_target(self, sierpinski):
        r = classify_cover(sierpinski, fam(2, [0]), PointSet.of(2, [0]))
        assert r.is_cover

    def test_sufficient_conditions_hold(self):
        # open covers are fundamental; nonempty finite closed covers are
        # fundamental; locally-finite covers are fundamental (all at n<=3
        # over families of size <= 3)
        for s in all_spaces(3):
            pool = list(range(8))
            for size in (1, 2, 3):
                for members in itertools.combinations(pool, size):
                    r = classify_cover(s, Family.of(3, members))
                    if not r.is_cover:
                        continue
                    assert r.locally_finite
                    if r.open_cover or r.closed_cover:
                        # covers both the open-cover theorem and the
                        # locally-finite closed-cover theorem
                        assert r.fundamental

    def test_flags_match_the_member_masks(self):
        # fundamental_cover_laws decides these four flags from the member
        # masks and calls no classify_cover: the two routes must agree on
        # every family of at most 3 nonempty masks with n <= 3.
        checked = 0
        for n in range(4):
            full = (1 << n) - 1
            for s in all_spaces(n):
                opens, closeds = s.opens.mask_set, s.closeds.mask_set
                for size in (1, 2, 3):
                    for members in itertools.combinations(range(1, full + 1), size):
                        r = classify_cover(s, Family.of(n, members))
                        union = 0
                        for S in members:
                            union |= S
                        is_cover = union == full
                        assert r.is_cover == is_cover
                        assert r.open_cover == (is_cover and all(m in opens for m in members))
                        assert r.closed_cover == (
                            is_cover and all(m in closeds for m in members)
                        )
                        assert r.fundamental == (is_cover and _is_fundamental(s, members))
                        checked += 1
        assert checked == 1 + 4 * 7 + 29 * 63


class TestSubcoverRefinement:
    def test_subcover_of_itself(self, sierpinski):
        C = fam(2, [0], [1])
        assert is_subcover(C, C, PointSet.full(2), sierpinski)

    def test_subcover_examples(self, sierpinski):
        C = fam(2, [0], [1], [0, 1])
        assert is_subcover(fam(2, [0, 1]), C, PointSet.full(2), sierpinski)
        assert not is_subcover(fam(2, [0]), C, PointSet.full(2), sierpinski)
        # not a subfamily
        assert not is_subcover(fam(2, [0], [1]), fam(2, [0, 1]), PointSet.full(2), sierpinski)

    def test_refinement(self, three_point):
        assert is_refinement(fam(3, [0, 1, 2]), fam(3, [0, 1, 2], [0]), three_point)
        assert is_refinement(fam(3, [0], [1], [2]), fam(3, [0, 1], [2]), three_point)
        assert not is_refinement(fam(3, [0, 2], [1]), fam(3, [0, 1], [2]), three_point)

    def test_down_set_criterion_matches_is_refinement(self):
        # The sweep's mask test: a covering family refines C iff its member
        # bits lie in the OR of below[S] over the members S of C.  Every
        # ordered pair of families of size <= 3 (the empty set allowed as a
        # member) on every space with n <= 3.
        checked = 0
        for n in range(4):
            N = 1 << n
            below = theorems._below(N)
            families = [
                members
                for size in range(4)
                for members in itertools.combinations(range(N), size)
            ]
            cases = []
            for fine in families:
                union = fine_bits = 0
                for m in fine:
                    union |= m
                    fine_bits |= 1 << m
                for coarse in families:
                    down = 0
                    for S in coarse:
                        down |= below[S]
                    expected = union == N - 1 and fine_bits & ~down == 0
                    cases.append((Family.of(n, fine), Family.of(n, coarse), expected))
            for s in all_spaces(n):
                for C_ref, C, expected in cases:
                    assert is_refinement(C_ref, C, s) == expected, (s, C_ref, C)
                    checked += 1
        assert checked == 2 * 2 + 4 * 4 + 4 * 15 * 15 + 29 * 93 * 93

    def test_fundamental_refinement_implies_fundamental(self):
        for s in all_spaces(3):
            covers = []
            for size in (1, 2):
                for members in itertools.combinations(range(1, 8), size):
                    C = Family.of(3, members)
                    covers.append((C, classify_cover(s, C)))
            for C_ref, r_ref in covers:
                if not (r_ref.is_cover and r_ref.fundamental):
                    continue
                for C, r in covers:
                    if r.is_cover and is_refinement(C_ref, C, s):
                        assert r.fundamental


def _literal_fundamental(s, members, coherent):
    """The definition: every set U with U ∩ S open in each subspace S is
    open.  ``coherent[S]`` has bit u set iff u ∩ S is open in S."""
    opens = 0
    for m in s.opens.masks:
        opens |= 1 << m
    both = (1 << (1 << s.n)) - 1
    for S in members:
        both &= coherent[S]
    return both == opens


class TestFundamentalPreorderCriterion:
    def test_matches_literal_scan(self):
        # Every cover of size <= 3 of every space with n <= 4.
        checked = 0
        for n in range(5):
            N = 1 << n
            for s in all_spaces(n):
                coherent = []
                for S in range(N):
                    rel = relative_opens(s, S)
                    coherent.append(sum(1 << u for u in range(N) if u & S in rel))
                for size in (1, 2, 3):
                    for members in itertools.combinations(range(N), size):
                        union = 0
                        for S in members:
                            union |= S
                        if union != N - 1:
                            continue
                        expected = _literal_fundamental(s, members, coherent)
                        assert _is_fundamental(s, members) == expected, (s, members)
                        checked += 1
        assert checked == 144076

    def test_transitive_closure_is_needed(self, three_point):
        # U_2 = {0,1,2}, U_1 = {0,1}: the members {0,1} and {1,2} relate 2 to
        # 0 only through 1, and the cover is fundamental only by transitivity.
        assert _is_fundamental(three_point, (0b011, 0b110))
        assert not _is_fundamental(three_point, (0b011, 0b100))


class TestVerifyPasting:
    def test_whole_space_cover(self, sierpinski):
        C = fam(2, [0, 1])
        for table in itertools.product(range(2), repeat=2):
            f = FiniteMap.of(2, 2, table)
            assert verify_pasting(sierpinski, sierpinski, f, C)

    def test_not_fundamental(self, sierpinski):
        with pytest.raises(NotFundamental):
            verify_pasting(sierpinski, sierpinski, FiniteMap.identity(2), fam(2, [0], [1]))

    def test_exhaustive_small(self):
        # implication always true over all fundamental covers of size <= 2
        # and all maps at n = 3 -> n = 2
        for s1 in all_spaces(3):
            fundamentals = []
            for size in (1, 2):
                for members in itertools.combinations(range(1, 8), size):
                    C = Family.of(3, members)
                    r = classify_cover(s1, C)
                    if r.is_cover and r.fundamental:
                        fundamentals.append(C)
            for s2 in all_spaces(2):
                for table in itertools.product(range(2), repeat=3):
                    f = FiniteMap.of(3, 2, table)
                    for C in fundamentals:
                        assert verify_pasting(s1, s2, f, C)


class TestMinimalSubcover:
    def test_examples(self, three_point):
        C = fam(3, [0, 1, 2], [0])
        assert minimal_subcover(three_point, C).masks == (0b111,)
        C = fam(3, [0], [1], [2])
        assert minimal_subcover(three_point, C).masks == (1, 2, 4)
        C = fam(3, [0, 1], [1, 2], [0, 2])
        assert minimal_subcover(three_point, C).masks == (0b011, 0b101)

    def test_target(self, three_point):
        C = fam(3, [0], [1], [0, 1])
        out = minimal_subcover(three_point, C, PointSet.of(3, [0, 1]))
        assert out.masks == (0b011,)

    def test_target_on_another_carrier(self):
        # classify_cover and is_subcover refuse this target too.
        C = Family.of(2, [[0], [1], [0, 1]])
        with pytest.raises(CarrierMismatch, match=r"^carrier sizes differ: \(5, 2\)$"):
            minimal_subcover(discrete(2), C, PointSet(1, 5))

    def test_not_a_cover(self, three_point):
        with pytest.raises(NotACover):
            minimal_subcover(three_point, fam(3, [0]))

    def test_bound_prune_keeps_the_least_cover(self):
        # After (1, 14) is found, the branch that chose 5 and 2 leaves {3}
        # uncovered and needs a third member, so the size bound cuts it.
        s, members = discrete(4), (1, 2, 4, 5, 8, 13, 14)
        best = min(
            (
                sub
                for k in range(1, len(members) + 1)
                for sub in itertools.combinations(members, k)
                if classify_cover(s, Family.of(4, sub)).is_cover
            ),
            key=lambda sub: (len(sub), sub),
        )
        assert minimal_subcover(s, Family.of(4, members)).masks == best == (1, 14)

    def test_matches_exhaustive(self):
        for s in all_spaces(3):
            for size in (1, 2, 3, 4):
                for members in itertools.combinations(range(1, 8), size):
                    C = Family.of(3, members)
                    if not classify_cover(s, C).is_cover:
                        continue
                    out = minimal_subcover(s, C)
                    best = min(
                        (
                            sub
                            for k in range(1, len(C.masks) + 1)
                            for sub in itertools.combinations(C.masks, k)
                            if classify_cover(s, Family.of(3, sub)).is_cover
                        ),
                        key=lambda sub: (len(sub), sub),
                    )
                    assert out.masks == best
