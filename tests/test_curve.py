import random
from fractions import Fraction as F

import pytest
from hypothesis import given, strategies as st

from tropwave.curve import (NotAVertex, attaining_monomials, balanced_star,
                            check_balancing, classify_vertex, curves_within,
                            extract_curve, quasi_degree_area, symplectic_area)
from tropwave.exactlp import cross, dot, vsub
from tropwave.geometry import QPolygon, gcd2
from tropwave.series import (OutsideDomain, TropicalSeries, add_monomial,
                             evaluate, make_series, zero_series)
from tropwave.wave import run_dynamics, upper_bound_witness, wave

from conftest import pentagon, random_points, random_polygon, random_series, \
    square13, unit_square


class TestExtract:
    def test_figure_curve(self):
        curve = extract_curve(square13())
        inner = curve.faces[(0, 0)]
        assert sorted(inner) == [
            (F(1, 3), F(1, 3)), (F(1, 3), F(2, 3)),
            (F(2, 3), F(1, 3)), (F(2, 3), F(2, 3))]
        assert len(curve.edges) == 8
        sq = unit_square()
        boundary_reaching = [
            e for e in curve.edges
            if not (sq.contains(e.a, strict=True) and sq.contains(e.b, strict=True))]
        assert len(boundary_reaching) == 4

    def test_single_monomial_empty(self):
        f = zero_series(unit_square())
        assert extract_curve(f).is_empty()

    def test_after_wave_passes_through_point(self):
        f2 = add_monomial(square13(), (1, 0), F(2, 15))
        curve = extract_curve(f2)
        p = (F(1, 5), F(1, 2))
        assert any(min(dot(e.dual[0], p) + f2.support[e.dual[0]],
                       dot(e.dual[1], p) + f2.support[e.dual[1]]) is not None
                   and _on_segment(p, e.a, e.b) for e in curve.edges)
        # the new face where 2x dominates exists
        assert (2, 0) in curve.faces

    def test_edge_invariants(self, rng):
        for _ in range(15):
            poly = random_polygon(rng)
            f = random_series(rng, poly)
            curve = extract_curve(f)
            for e in curve.edges:
                diff = vsub(e.dual[1], e.dual[0])
                d = vsub(e.b, e.a)
                assert dot(diff, d) == 0          # edge runs orthogonally to the dual difference
                assert e.weight == gcd2(diff)     # weight = gcd of the difference


def _on_segment(p, a, b):
    if cross(vsub(b, a), vsub(p, a)) != 0:
        return False
    t = dot(vsub(p, a), vsub(b, a))
    return 0 <= t <= dot(vsub(b, a), vsub(b, a))


class TestClassify:
    def test_smooth_corner(self):
        curve = extract_curve(square13())
        assert classify_vertex(curve, (F(1, 3), F(1, 3))).is_smooth

    def test_nodal_perestroika_moment(self):
        # freezing the one-wave family on the pentagon at the parameter where
        # the diagonal side collapses gives the 4-valent min(x,y,t,x+y) model
        from conftest import pentagon
        poly = pentagon()
        f1, _ = wave(zero_series(poly), (F(1, 2), F(1)))
        _, ev = wave(f1, (F(13, 20), F(13, 20)))
        f_nodal = add_monomial(f1, ev.monomial, ev.increment * F(2, 3))
        curve = extract_curve(f_nodal)
        kinds = [classify_vertex(curve, z) for z in curve.interior_vertices()]
        assert sum(1 for c in kinds if c.is_nodal) == 1
        assert all(c.is_smooth or c.is_nodal for c in kinds)

    def test_other_vertex_and_composite_edge(self):
        # dual triangle {(2,0),(0,1),(0,0)} has lattice area 1: neither
        # smooth nor nodal; the vertical edge it bounds has weight 2 and is
        # not subdivided by the degenerate midpoint monomial (1,0)
        f = make_series(QPolygon.box(0, 0, 2, 3),
                        {(2, 0): 0, (0, 1): 0, (0, 0): 1, (-1, 0): 2,
                         (0, -1): 3})
        curve = extract_curve(f)
        cls = classify_vertex(curve, (F(1, 2), F(1)))
        assert cls.kind == "other"
        assert "area 1" in cls.detail
        heavy = [e for e in curve.edges if e.weight == 2]
        assert len(heavy) == 1
        assert {heavy[0].a, heavy[0].b} == {(F(1, 2), F(1)), (F(1, 2), F(2))}
        assert check_balancing(curve)

    def test_not_a_vertex(self):
        curve = extract_curve(square13())
        with pytest.raises(NotAVertex):
            classify_vertex(curve, (F(1, 2), F(1, 2)))


class TestBalancing:
    def test_extracted_curves(self, rng):
        for _ in range(15):
            poly = random_polygon(rng)
            f = random_series(rng, poly)
            assert check_balancing(extract_curve(f))

    def test_hand_built_stars(self):
        assert balanced_star([((1, 0), 1), ((0, 1), 1), ((-1, -1), 1)])
        assert balanced_star([((1, 0), 2), ((-1, 1), 1), ((-1, -1), 1)])
        assert not balanced_star([((1, 0), 1), ((0, 1), 1)])


class TestSymplecticArea:
    def test_single_diagonal_edge(self):
        # edge (0,0)->(1,1) weight 1: |L|*|v| = sqrt2*sqrt2 = 2
        from tropwave.curve import Edge, TropicalCurve
        f = square13()
        e = Edge((F(0), F(0)), (F(1), F(1)), 1, ((0, 0), (1, -1)))
        c = TropicalCurve(f, [], [e], {})
        assert symplectic_area(c) == 2

    def test_figure_area(self):
        assert symplectic_area(extract_curve(square13())) == 4

    def test_empty_curve(self):
        assert symplectic_area(extract_curve(zero_series(unit_square()))) == 0

    def test_quasi_degree_identity(self, rng):
        # Area(C(f)) = sum over sides of m_f(S) * Area(S), exactly
        for _ in range(15):
            poly = random_polygon(rng)
            f = random_series(rng, poly)
            assert symplectic_area(extract_curve(f)) == quasi_degree_area(f)

    def test_minimality(self, rng):
        # the dynamic's result minimizes area among series non-smooth at P
        from tropwave.curve import attaining_monomials
        for _ in range(5):
            poly = random_polygon(rng)
            pts = random_points(rng, poly, 2)
            res = run_dynamics(zero_series(poly), pts)
            base = symplectic_area(extract_curve(res.final))
            for _ in range(5):
                g = upper_bound_witness(zero_series(poly), pts)
                v = list(g.support)[rng.randrange(len(g.support))]
                g = add_monomial(g, v, F(rng.randrange(0, 4), 8))
                # the dynamic restores non-smoothness: membership in V
                g = run_dynamics(g, pts).final
                assert all(len(attaining_monomials(g, p)) >= 2 for p in pts)
                assert symplectic_area(extract_curve(g)) >= base


class TestCurvesWithin:
    def test_identical(self):
        f = square13()
        assert curves_within(f, f, F(1, 10 ** 9))

    def test_small_perturbation(self):
        f = square13()
        g = make_series(unit_square(),
                        {(1, 0): 0, (0, 1): 0, (-1, 0): 1, (0, -1): 1,
                         (0, 0): F(1, 3) + F(1, 100)})
        assert curves_within(f, g, F(1, 100))

    def test_far_apart_detected(self):
        f = square13()
        g = make_series(unit_square(),
                        {(1, 0): 0, (0, 1): 0, (-1, 0): 1, (0, -1): 1,
                         (0, 0): F(1, 2)})
        assert not curves_within(f, g, F(1, 100))

    def test_perturbation_property(self, rng):
        # coefficient perturbations below eps keep curves within 2*eps
        for _ in range(10):
            poly = random_polygon(rng)
            f = random_series(rng, poly)
            eps = F(1, rng.randrange(8, 40))
            terms = dict(f.support)
            bumped = False
            for v in list(terms):
                from tropwave.series import _side_vanishing_multiplier
                if all(_side_vanishing_multiplier(hp, (v, terms[v])) is None
                       for hp in poly.halfplanes):
                    terms[v] = terms[v] + eps * F(rng.randrange(0, 8), 16)
                    bumped = True
            if not bumped:
                continue
            g = TropicalSeries(poly, terms)
            assert curves_within(f, g, eps)


def ref_attaining_monomials(f, z):
    """The Fraction version the integer one replaced."""
    val = evaluate(f, z)
    return [v for v, a in f.support.items() if dot(v, z) + a == val]


def attainers_or_error(fn, f, z):
    try:
        return fn(f, z)
    except OutsideDomain:
        return OutsideDomain


@given(st.sampled_from(["square", "pentagon", "random"]),
       st.integers(min_value=0, max_value=2 ** 32 - 1),
       st.integers(min_value=0, max_value=4))
def test_attaining_monomials_match_fraction_reference(kind, seed, n_waves):
    rng = random.Random(seed)
    poly = {"square": unit_square, "pentagon": pentagon,
            "random": lambda: random_polygon(rng)}[kind]()
    f = random_series(rng, poly, n_waves)
    # complex vertices (several attainers), interior points, and points
    # just outside a side
    pts = list(f.complex_vertices()) + random_points(rng, poly, 4)
    for hp, a, _ in poly.sides():
        d = F(1, rng.randint(1, 100))
        pts.append((a[0] - d * hp.n[0], a[1] - d * hp.n[1]))
    for z in pts:
        assert (attainers_or_error(attaining_monomials, f, z)
                == attainers_or_error(ref_attaining_monomials, f, z))
