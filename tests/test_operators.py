from fintop import (
    PointSet,
    boundary,
    closure,
    density_report,
    discrete,
    exterior,
    indiscrete,
    interior,
    is_dense_in,
    isolated_set,
    limit_set,
    pair_relation,
    point_roles,
)
from fintop.enumeration import all_spaces


def pts(n, *points):
    return PointSet.of(n, points)


class TestInterior:
    def test_extremes(self, sierpinski):
        assert interior(sierpinski, pts(2)) == pts(2)
        assert interior(sierpinski, PointSet.full(2)) == PointSet.full(2)

    def test_sierpinski(self, sierpinski):
        assert interior(sierpinski, pts(2, 0)) == pts(2)
        assert interior(sierpinski, pts(2, 1)) == pts(2, 1)

    def test_fixed_point_iff_open(self):
        for s in all_spaces(3):
            for m in range(8):
                A = PointSet(m, 3)
                assert (interior(s, A) == A) == (m in s.opens)


class TestClosure:
    def test_examples(self, sierpinski):
        assert closure(sierpinski, PointSet.full(2)) == PointSet.full(2)
        assert closure(sierpinski, pts(2, 1)) == pts(2, 0, 1)
        for m in range(8):
            A = PointSet(m, 3)
            assert closure(discrete(3), A) == A

    def test_fixed_point_iff_closed(self):
        for s in all_spaces(3):
            for m in range(8):
                A = PointSet(m, 3)
                assert (closure(s, A) == A) == (m in s.closeds)


class TestExteriorBoundary:
    def test_exterior(self, sierpinski):
        assert exterior(sierpinski, pts(2)) == PointSet.full(2)
        assert exterior(sierpinski, PointSet.full(2)) == pts(2)
        assert exterior(sierpinski, pts(2, 1)) == pts(2)

    def test_exterior_is_complement_of_closure(self):
        for s in all_spaces(3):
            for m in range(8):
                A = PointSet(m, 3)
                assert exterior(s, A) == closure(s, A).complement()

    def test_boundary(self, sierpinski):
        assert boundary(sierpinski, pts(2)) == pts(2)
        assert boundary(sierpinski, pts(2, 1)) == pts(2, 0)
        for m in range(4):
            assert boundary(discrete(2), PointSet(m, 2)) == pts(2)


class TestPointRoles:
    def test_isolated_in_discrete(self):
        r = point_roles(discrete(2), pts(2, 0), 0)
        assert r.isolated and not r.limit

    def test_sierpinski_zero(self, sierpinski):
        r = point_roles(sierpinski, pts(2, 1), 0)
        assert r.adherent and r.limit and r.boundary
        assert not r.interior and not r.isolated

    def test_empty_set(self, sierpinski):
        for p in range(2):
            r = point_roles(sierpinski, pts(2), p)
            assert r.exterior
            assert not any(
                (r.interior, r.boundary, r.adherent, r.limit, r.isolated)
            )

    def test_flag_invariants(self):
        for s in all_spaces(2):
            for m in range(4):
                for p in range(2):
                    r = point_roles(s, PointSet(m, 2), p)
                    assert sum((r.interior, r.exterior, r.boundary)) == 1
                    assert r.adherent == (not r.exterior)
                    assert not (r.limit and r.isolated)


class TestLimitIsolated:
    def test_examples(self, sierpinski):
        for m in range(8):
            assert limit_set(discrete(3), PointSet(m, 3)) == pts(3)
        assert isolated_set(indiscrete(3), pts(3, 0, 1)) == pts(3)
        assert limit_set(sierpinski, pts(2, 1)) == pts(2, 0)

    def test_closure_decomposition(self):
        for s in all_spaces(3):
            for m in range(8):
                A = PointSet(m, 3)
                lim = limit_set(s, A)
                iso = isolated_set(s, A)
                assert (A | lim) == closure(s, A)
                assert ((A & lim) | iso) == A
                assert ((A & lim) & iso) == pts(3)


class TestDensity:
    def test_examples(self, sierpinski):
        assert density_report(sierpinski, PointSet.full(2)).dense
        assert density_report(indiscrete(2), pts(2, 0)).dense
        rep = density_report(discrete(2), pts(2, 0))
        assert not rep.dense and not rep.nowhere_dense

    def test_invariants(self):
        for n in range(4):
            for s in all_spaces(n):
                for m in range(1 << n):
                    A = PointSet(m, n)
                    rep = density_report(s, A)
                    if rep.perfect:
                        assert rep.dense_in_itself
                        assert A == limit_set(s, A)
                    if rep.dense and rep.nowhere_dense:
                        assert n == 0
                    assert rep.perfect == (A == limit_set(s, A))


class TestPairRelation:
    def test_examples(self, sierpinski):
        assert pair_relation(sierpinski, pts(2, 1), pts(2, 1)) == "glued"
        assert pair_relation(discrete(2), pts(2, 0), pts(2, 1)) == "free"
        assert pair_relation(sierpinski, pts(2, 0), pts(2, 1)) == "neither"


class TestIsDenseIn:
    def test_examples(self, sierpinski):
        assert is_dense_in(sierpinski, pts(2, 1), pts(2, 1))
        assert is_dense_in(indiscrete(3), pts(3, 0), PointSet.full(3))
        assert not is_dense_in(discrete(2), pts(2, 0), PointSet.full(2))

    def test_transitivity(self):
        for s in all_spaces(3):
            for a2 in range(8):
                for a1 in range(8):
                    for a0 in range(8):
                        A2, A1, A0 = (PointSet(m, 3) for m in (a2, a1, a0))
                        if is_dense_in(s, A2, A1) and is_dense_in(s, A1, A0):
                            assert is_dense_in(s, A2, A0)
