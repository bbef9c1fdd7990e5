import random
from fractions import Fraction as F
from unittest import mock

import pytest
from hypothesis import example, given, strategies as st

from tropwave import complex as cplx

from tropwave.curve import (Edge, NotAVertex, TropicalCurve,
                            attaining_monomials, balanced_star,
                            check_balancing, classify_vertex, curves_within,
                            extract_curve, quasi_degree_area, symplectic_area)
from tropwave.exactlp import cross, dot, vsub
from tropwave.geometry import QPolygon, gcd2
from tropwave.refine import (CertificationFailed, EpsilonTooLarge,
                             make_nice, verge_polynomial)
from tropwave.series import (OutsideDomain, TropicalSeries, add_monomial,
                             distance_function, evaluate, make_series,
                             zero_series)
from tropwave.wave import run_dynamics, upper_bound_witness, wave

from conftest import pentagon, random_points, random_polygon, random_series, \
    ref_check_balancing, ref_extract_curve, ref_point_segment_dist2, ref_side_vanishing_multiplier, \
    square13, triangle, unit_square


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


@given(st.sampled_from(["square", "pentagon", "random"]),
       st.integers(min_value=0, max_value=2 ** 32 - 1),
       st.sampled_from(["as_is", "drop", "weight", "flip"]),
       st.integers(min_value=0, max_value=63))
@example("square", 0, "drop", 0)  # an edge gone: both its ends unbalance
@example("square", 0, "weight", 3)
@example("square", 0, "flip", 5)  # an edge's ends swapped: the same star
def test_balancing_matches_the_per_vertex_scan(kind, seed, change, i):
    # the stars grouped once by edge end against the scan of every edge at
    # every interior vertex, on extracted curves and on curves with one
    # edge dropped, reweighted or turned round
    rng = random.Random(seed)
    poly = {"square": unit_square(), "pentagon": pentagon()}.get(
        kind) or random_polygon(rng)
    curve = extract_curve(random_series(rng, poly, 3))
    edges = list(curve.edges)
    if edges and change != "as_is":
        e = edges[i % len(edges)]
        if change == "drop":
            del edges[i % len(edges)]
        elif change == "weight":
            edges[i % len(edges)] = Edge(e.a, e.b, e.weight + 1, e.dual)
        else:
            edges[i % len(edges)] = Edge(e.b, e.a, e.weight, e.dual)
    curve = TropicalCurve(curve.series, curve.vertices, edges, curve.faces)
    assert check_balancing(curve) == ref_check_balancing(curve)
    if change == "as_is":
        assert check_balancing(curve)


class TestSymplecticArea:
    def test_single_diagonal_edge(self):
        # edge (0,0)->(1,1) weight 1: |L|*|v| = sqrt2*sqrt2 = 2
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
                if all(ref_side_vanishing_multiplier(hp, (v, terms[v])) is None
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


# -- curves_within against the Fraction reference it replaced -----------------


def ref_segments_within(segs_a, segs_b, dist2_bound):
    if not segs_a:
        return True
    if not segs_b:
        return False
    for a, b in segs_a:
        d = vsub(b, a)
        cuts = {F(0), F(1)}
        for p, q in segs_b:
            for r in (p, q):
                cuts.add(min(max(F(dot(vsub(r, a), d)) / dot(d, d), F(0)),
                             F(1)))
        pts = [(a[0] + t * d[0], a[1] + t * d[1]) for t in sorted(cuts)]
        for p, q in zip(pts, pts[1:]):
            if not any(ref_point_segment_dist2(p, s, t) <= dist2_bound
                       and ref_point_segment_dist2(q, s, t) <= dist2_bound
                       for s, t in segs_b):
                return False
    return True


def ref_curves_within(f, g, eps):
    ca = extract_curve(f).segments()
    cb = extract_curve(g).segments()
    if not ca and not cb:
        return True
    return (ref_segments_within(ca, cb, 4 * eps * eps)
            and ref_segments_within(cb, ca, 4 * eps * eps))


def inner_square(c):
    return make_series(unit_square(), {(1, 0): 0, (0, 1): 0, (-1, 0): 1,
                                       (0, -1): 1, (0, 0): c})


@given(st.sampled_from(["same", "other", "perturbed", "waved", "square"]),
       st.integers(min_value=0, max_value=2 ** 32 - 1))
def test_curves_within_matches_fraction_reference(kind, seed):
    rng = random.Random(seed)
    delta = F(1, rng.randrange(4, 60))
    # the square's inner curve moves by exactly delta, so eps = delta / 2
    # sits on the boundary of the test
    epsilons = [delta / 2, F(1, rng.randrange(2, 80)),
                F(rng.randrange(1, 5), rng.randrange(20, 400))]
    if kind == "square":
        c = F(rng.randrange(1, 12), 32)
        f, g = inner_square(c), inner_square(c + delta)
    else:
        poly = random_polygon(rng)
        f = random_series(rng, poly, rng.randrange(1, 4))
        if kind == "same":
            g = f
        elif kind == "other":
            g = random_series(rng, poly, rng.randrange(1, 4))
        else:
            terms = dict(f.support)
            for v in list(terms):
                if all(ref_side_vanishing_multiplier(hp, (v, terms[v])) is None
                       for hp in poly.halfplanes):
                    terms[v] += delta * F(rng.randrange(0, 9), 8)
            g = TropicalSeries(poly, terms)
            if kind == "waved":
                v = rng.choice(list(g.support))
                g = add_monomial(g, v, delta)
    for eps in epsilons:
        assert curves_within(f, g, eps) == ref_curves_within(f, g, eps)


# -- extract_curve against the pairwise scan it replaced ----------------------

BENT = QPolygon.from_vertices([(0, 0), (2, 0), (3, 2), (1, 3)])
VERGE_DOMAINS = [unit_square(), QPolygon.box(0, 0, 2, 2),
                 QPolygon.box(0, 0, 3, 1),
                 QPolygon.from_vertices([(0, 0), (2, 0), (0, 2)])]


def curve_series(source, kind, seed, n, N):
    """Series whose curves are compared: every wave result of a dynamic on
    n points, a verge polynomial, or a make_nice input and result.  For
    "dynamics", the kind "triangle" is the wave from zero at (1, 1/2) on
    the N-th triangle, and "bent" the quadrilateral `certify` blows up."""
    rng = random.Random(seed)
    if source == "verge":
        poly = rng.choice(VERGE_DOMAINS)
        sides = [hp.n for hp in poly.halfplanes]
        degrees = {m: 1 for m in sides}
        degrees[rng.choice(sides)] = rng.randint(1, 4)
        return [verge_polynomial(poly, degrees, F(1, rng.choice([4, 8])))]
    if kind == "triangle":
        return [wave(zero_series(triangle(N)), (F(1), F(1, 2)))[0]]
    poly = {"square": unit_square, "pentagon": pentagon, "bent": lambda: BENT,
            "random": lambda: random_polygon(rng)}[kind]()
    if source == "make_nice":
        # as `certify` draws: one wave of the distance function at a point
        # of the 16-step grid
        f, _ = wave(distance_function(poly), random_points(rng, poly, 1)[0])
        try:
            return [f, make_nice(poly, f, F(1, 8))[1]]
        except (EpsilonTooLarge, CertificationFailed):
            return [f]
    out, f = [], zero_series(poly)
    for _ in range(2):
        for p in random_points(rng, poly, n):
            f, ev = wave(f, p)
            if ev.increment > 0:
                out.append(f)
    return out


def curve_fields(curve):
    return curve.vertices, curve.edges, list(curve.faces.items())


@given(st.sampled_from(["dynamics", "verge", "make_nice"]),
       st.sampled_from(["square", "pentagon", "bent", "random", "triangle"]),
       st.integers(min_value=0, max_value=2 ** 32 - 1),
       st.integers(min_value=1, max_value=5),
       st.integers(min_value=1, max_value=60))
@example("make_nice", "bent", 0, 1, 1)
@example("dynamics", "pentagon", 0, 5, 1)
@example("dynamics", "triangle", 0, 1, 60)
def test_extract_curve_matches_the_pairwise_scan(source, kind, seed, n, N):
    # the edges read off the cell rings are the pairwise scan's, in its
    # (u, w) order with sorted ends, and so are the vertices and faces
    for f in curve_series(source, kind, seed, n, N):
        assert curve_fields(extract_curve(f)) == curve_fields(
            ref_extract_curve(f))


def test_extract_curve_reads_only_polygon_cells():
    # the wave from zero at the rhombus's centre leaves the constant a point
    # cell there, four segment cells from it to the corners and four
    # triangles.  Cells are told apart by their integer rings, so only the
    # triangles, the faces, are made in `Fraction`s, once each, in support
    # order.
    rhombus = QPolygon.from_vertices([(-1, 0), (0, -1), (1, 0), (0, 1)])
    g, _ = wave(zero_series(rhombus), (F(0), F(0)))
    hcells = g.cells().hcells
    assert sorted(len(hs) for hs in hcells.values()) == [1] + [2] * 4 + [3] * 4
    reads = []
    real = cplx.Complex.__getitem__

    def reading(self, v):
        reads.append(v)
        return real(self, v)

    with mock.patch.object(cplx.Complex, "__getitem__", reading):
        curve = extract_curve(g)
    polygons = [v for v, hs in hcells.items() if len(hs) >= 3]
    assert reads == polygons == list(curve.faces)
