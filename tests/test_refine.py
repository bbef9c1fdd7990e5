import random
import time
from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

from tropwave.curve import classify_vertex, curves_within, extract_curve
from tropwave import exactlp as lp
from tropwave import refine
from tropwave.geometry import QPolygon, is_unimodular, primitive
from tropwave.series import (add_monomial, clamp, distance_function, evaluate,
                             is_nice, make_series, quasi_degree, zero_series)
from tropwave.refine import (CertificationFailed, EmptyLevelSet,
                             EpsilonTooLarge, HypothesisViolated, RefineError,
                             _gap_range, _least_multiplier, _margin_points,
                             _max_vertex_boundary_dist2,
                             _min_point_curve_dist2, _region_values,
                             _unimodular_fan, coarsen_dynamics,
                             level_set_polygon, level_shift_check, make_nice,
                             nice_restrict, verge_polynomial)
from tropwave.wave import run_dynamics, wave, wave_family_scan

from conftest import (pentagon, random_points, random_polygon,
                      ref_cell_constraints, ref_point_segment_dist2,
                      ref_polytope_vertices, square13, unit_square)


class TestLevelSet:
    def test_two_square(self):
        f = make_series(QPolygon.box(0, 0, 2, 2),
                        {(1, 0): 0, (0, 1): 0, (-1, 0): 2, (0, -1): 2,
                         (0, 0): 1})
        assert level_set_polygon(f, F(1, 2)) == QPolygon.box(
            F(1, 2), F(1, 2), F(3, 2), F(3, 2))

    def test_inner_square(self):
        assert level_set_polygon(square13(), F(1, 3)) == QPolygon.box(
            F(1, 3), F(1, 3), F(2, 3), F(2, 3))

    def test_empty(self):
        with pytest.raises(EmptyLevelSet):
            level_set_polygon(square13(), F(2))

    def test_restriction_is_tropical_polynomial(self):
        # f - eps restricted to the level set is a valid series there
        f = square13()
        eps = F(1, 6)
        sub = level_set_polygon(f, eps)
        terms = {v: a - eps for v, a in f.terms()}
        g = make_series(sub, terms)
        for z in [(F(1, 2), F(1, 2)), (F(1, 3), F(5, 12))]:
            if sub.contains(z):
                assert evaluate(g, z) == evaluate(f, z) - eps

    def test_curves_coincide_on_level_set(self):
        # the eps-shift does not move the curve inside the level set: every
        # point of each curve that lies in the level set is on the other
        poly = QPolygon.box(0, 0, 2, 2)
        pts = [(F(1), F(1)), (F(1, 2), F(3, 2))]
        big = run_dynamics(zero_series(poly), pts).final
        eps = F(1, 8)
        sub = level_set_polygon(big, eps)
        small = run_dynamics(zero_series(sub), pts).final
        inner = extract_curve(small).segments()
        outer = extract_curve(big).segments()

        def samples(segs):
            for a, b in segs:
                mid = ((a[0] + b[0]) / 2, (a[1] + b[1]) / 2)
                yield from (a, mid, b)

        for z in samples(inner):
            if sub.contains(z, strict=True):
                assert min(ref_point_segment_dist2(z, a, b) for a, b in outer) == 0
        for z in samples(outer):
            if sub.contains(z, strict=True):
                assert min(ref_point_segment_dist2(z, a, b) for a, b in inner) == 0


class TestLevelShift:
    def test_shift_identity(self):
        assert level_shift_check(QPolygon.box(0, 0, 2, 2), [(F(1), F(1))],
                                 F(1, 2))

    def test_hypothesis_violated(self):
        with pytest.raises(HypothesisViolated):
            level_shift_check(QPolygon.box(0, 0, 2, 2), [(F(1), F(1))], F(3))

    def test_vacuous(self):
        assert level_shift_check(unit_square(), [], F(1, 4))

    def test_point_on_the_level_set_boundary(self):
        # f = 1/2 at (1/2, 1/2): the point lies on the boundary of the
        # level set {f >= 1/2}, not inside it
        with pytest.raises(HypothesisViolated):
            level_shift_check(QPolygon.box(0, 0, 2, 2),
                              [(F(1), F(1)), (F(1, 2), F(1, 2))], F(1, 2))


class TestMakeNice:
    def test_identity_on_nice(self):
        l = distance_function(unit_square())
        sub, g, steps = make_nice(unit_square(), l, F(1, 10))
        assert steps == [] and sub == unit_square() and g == l

    def test_wide_triangle(self):
        tri = QPolygon.from_vertices([(0, 0), (2, 0), (0, 1)])
        f = distance_function(tri)
        sub, g, steps = make_nice(tri, f, F(1, 8))
        assert is_unimodular(sub)
        assert is_nice(g)
        assert len(steps) >= 1
        # equality outside the corner neighborhoods at sample points
        for z in [(F(1, 2), F(1, 2)), (F(1), F(1, 4)), (F(1, 4), F(1, 4))]:
            if sub.contains(z):
                assert evaluate(f, z) == evaluate(g, z)

    def test_recursion_structure(self):
        # f_k = min(f_{k-1}, cut affine): replaying the recorded steps
        # reproduces the output series exactly
        from tropwave.series import TropicalSeries
        from tropwave.exactlp import dot
        tri = QPolygon.from_vertices([(0, 0), (2, 0), (0, 1)])
        f = distance_function(tri)
        sub, g, steps = make_nice(tri, f, F(1, 8))
        from tropwave.geometry import HalfPlane
        terms = dict(f.support)
        for s in steps:
            w = (s.multiplier * s.direction[0], s.multiplier * s.direction[1])
            coeff = -(dot(w, s.corner_apex) + s.multiplier * s.depth)
            terms[w] = min(terms.get(w, coeff), coeff)
            # the new side sits at lattice distance `depth` from the apex
            assert HalfPlane(w, coeff).normalized() in sub.halfplanes
        assert TropicalSeries(sub, terms) == g

    def test_eps_too_large(self):
        tri = QPolygon.from_vertices([(0, 0), (2, 0), (0, 1)])
        f = distance_function(tri)
        with pytest.raises(EpsilonTooLarge):
            make_nice(tri, f, F(2))

    def test_corner_cut_of_nonnice_degrees(self):
        # adjacent degree-2 sides on the unit square separate after blow-up
        f = make_series(unit_square(),
                        {(2, 0): 0, (0, 2): 0, (1, 0): F(1, 10),
                         (0, 1): F(1, 10), (-1, 0): 1, (0, -1): 1,
                         (0, 0): F(1, 3)})
        assert not is_nice(f)
        sub, g, steps = make_nice(unit_square(), f, F(1, 16))
        assert is_nice(g)
        assert is_unimodular(sub)
        assert len(steps) >= 1


# -- region certificates against the Fraction enumeration ---------------------


def ref_region_values(poly, f, extra):
    """The earlier certificate regions: every (piece, monomial) system
    enumerated from all of its `Fraction` constraints, valued by `evaluate`."""
    out = {}
    for v in f.support:
        cons = poly.constraints() + [extra] + ref_cell_constraints(f, v)
        for z in ref_polytope_vertices(cons):
            out.setdefault(z, evaluate(f, z))
    return out


def _margin(points_vals, v, apex, m):
    """min over the certified points of  m*(v.z - v.apex) - f(z)."""
    base = lp.dot(v, apex)
    return min(m * (lp.dot(v, z) - base) - fz for z, fz in points_vals)


def ref_margin_points(poly, f, apex, eps):
    cx, cy = apex
    out = {}
    for extra in (((-1, 0), cx - eps), ((1, 0), -(cx + eps)),
                  ((0, -1), cy - eps), ((0, 1), -(cy + eps))):
        for z, fz in ref_region_values(poly, f, extra).items():
            out.setdefault(z, fz)
    return out


def _certificate_case(kind, seed, n_points):
    rng = random.Random(seed)
    poly = {"square": unit_square, "pentagon": pentagon,
            "bent": lambda: QPolygon.from_vertices([(0, 0), (2, 0), (3, 2),
                                                    (1, 3)]),
            "random": lambda: random_polygon(rng)}[kind]()
    if n_points == 0:
        return poly, distance_function(poly)
    pts = random_points(rng, poly, n_points)
    return poly, run_dynamics(zero_series(poly), pts).final


CERTIFICATE_EPS = st.sampled_from([F(1, 4), F(1, 8), F(1, 16), F(1, 32)])


@settings(max_examples=20)  # the reference enumeration is slow
@given(st.sampled_from(["square", "pentagon", "bent", "random"]),
       st.integers(min_value=0, max_value=2 ** 32 - 1),
       st.integers(min_value=0, max_value=3), CERTIFICATE_EPS)
def test_margin_points_match_fraction_enumeration(kind, seed, n_points, eps):
    # n_points == 0 stands for the distance function
    poly, f = _certificate_case(kind, seed, n_points)
    for corner in poly.corners():
        pts = _margin_points(f, corner.apex, eps)
        ref = ref_margin_points(poly, f, corner.apex, eps)
        assert len(pts) == len(dict(pts))
        assert dict(pts) == ref
        n1, n2 = corner.normals
        for v in (n1, n2, primitive((n1[0] + n2[0], n1[1] + n2[1]))):
            for m in (1, 2, 5):
                assert (_margin(pts, v, corner.apex, m)
                        == _margin(list(ref.items()), v, corner.apex, m))


@given(st.sampled_from(["square", "pentagon", "bent", "random"]),
       st.integers(min_value=0, max_value=2 ** 32 - 1),
       st.integers(min_value=0, max_value=3), CERTIFICATE_EPS)
def test_outside_pieces_match_fraction_enumeration(kind, seed, n_points, eps):
    # nice_restrict's pieces: poly minus a corner cut, i.e. the closed side
    # of the cut line that holds the corner
    poly, f = _certificate_case(kind, seed, n_points)
    for corner in poly.corners():
        n1, n2 = corner.normals
        w = (n1[0] + n2[0], n1[1] + n2[1])
        removed = ((-w[0], -w[1]), w[0] * corner.apex[0]
                   + w[1] * corner.apex[1] + eps)
        got = {}
        for z, fz in _region_values(f, lp.int_constraints([removed])):
            assert got.setdefault(z, fz) == fz
        assert got == ref_region_values(poly, f, removed)


# -- closed-form multipliers against a step-by-step search --------------------


def ref_least_multiplier(pts, v, apex, a0):
    """The step-by-step search: the least m with a positive margin, then m
    raised one at a time while margin / m <= a0, both given up above 10000.
    Each margin is computed over one common denominator, in integers, so
    that a direction with no multiplier runs its 10000 passes quickly;
    `_margin` gives the same values."""
    base = lp.dot(v, apex)
    dfs = [(lp.dot(v, z) - base, fz) for z, fz in pts]
    den = lp.common_scale(dfs)
    D = [lp.scaled(df, den) for df in dfs]
    A0 = a0 * den

    def margin(m):
        return min(m * d - f for d, f in D)

    m = 1
    while True:
        mg = margin(m)
        if mg > 0:
            break
        m += 1
        if m > 10000:
            raise CertificationFailed("no multiplier certifies the cut")
    while mg <= m * A0:
        m += 1
        if m > 10000:
            raise CertificationFailed("no multiplier clears the apex")
        mg = margin(m)
    return m, F(mg, den)


def closed_form_multiplier(pts, v, apex, a0):
    """make_nice's two steps: the least certifying multiplier, raised past
    the apex only when its margin does not clear a0."""
    m, mg = _least_multiplier(pts, v, apex)
    if mg / m <= a0:
        m, mg = _least_multiplier(pts, v, apex, a0)
    return m, mg


def _outcome(fn, *args):
    try:
        return fn(*args)
    except CertificationFailed as exc:
        return str(exc)


def _multiplier_cases(poly, f, eps):
    """(points, corner, direction, a0) cases: at every corner the fan and
    mediant directions with apex offsets a0 of 0, eps / 64 and 1/2 and
    15/16 of the least v.(z - apex) over the points, where the margin often
    needs a larger multiplier; at the first corner also the two side
    normals, which admit no multiplier, and an offset of 3/2 of that least
    value, which no multiplier clears.  Failures run the search's 10000
    passes, so they are kept few."""
    for i, corner in enumerate(poly.corners()):
        pts = _margin_points(f, corner.apex, eps)
        n1, n2 = corner.normals
        if lp.cross(n1, n2) < 0:
            n1, n2 = n2, n1
        chain = [n1] + _unimodular_fan(n1, n2) + [n2]
        mediants = [primitive((a[0] + b[0], a[1] + b[1]))
                    for a, b in zip(chain, chain[1:])]
        for v in chain[1:-1] + mediants:
            low = min(lp.dot(v, lp.vsub(z, corner.apex)) for z, _ in pts)
            for a0 in (F(0), eps / 64, low / 2, low * F(15, 16)):
                yield pts, corner, v, a0
        if i == 0:
            yield pts, corner, n1, F(0)
            yield pts, corner, n2, F(0)
            yield pts, corner, v, low * F(3, 2)  # v: the last mediant


@settings(max_examples=20)  # a failing search is slow
@given(st.sampled_from(["square", "pentagon", "bent", "random"]),
       st.integers(min_value=0, max_value=2 ** 32 - 1),
       st.integers(min_value=0, max_value=3), CERTIFICATE_EPS)
def test_least_multiplier_matches_the_search(kind, seed, n_points, eps):
    poly, f = _certificate_case(kind, seed, n_points)
    for pts, corner, v, a0 in _multiplier_cases(poly, f, eps):
        args = (pts, v, corner.apex, a0)
        want = _outcome(ref_least_multiplier, *args)
        assert _outcome(closed_form_multiplier, *args) == want
        if isinstance(want, tuple):
            m, mg = want
            assert mg == _margin(pts, v, corner.apex, m)
            assert _least_multiplier(*args) == want


def test_least_multiplier_fails_at_once_without_a_multiplier():
    # a side normal of the bent quadrilateral: f vanishes on the side, where
    # v.(z - apex) = 0, so no multiple of v clears f there
    bent = QPolygon.from_vertices([(0, 0), (2, 0), (3, 2), (1, 3)])
    f = distance_function(bent)
    corner = bent.corners()[0]
    pts = _margin_points(f, corner.apex, F(1, 8))
    for v in corner.normals:
        start = time.perf_counter()
        with pytest.raises(CertificationFailed,
                           match="no multiplier certifies the cut"):
            _least_multiplier(pts, v, corner.apex)
        assert time.perf_counter() - start < 0.5


# -- the exact gap range against the overlay enumeration -----------------------


def ref_gap_range(f, g):
    """min and max of f - g over every vertex of (cell of f) meet (cell of g)
    meet g's domain, each region enumerated from its `Fraction` constraints:
    f - g is affine on each such region."""
    gaps = [evaluate(f, z) - evaluate(g, z)
            for v in f.support for w in g.support
            for z in ref_polytope_vertices(ref_cell_constraints(f, v)
                                           + ref_cell_constraints(g, w))]
    return min(gaps), max(gaps)


def _gap_case(kind, seed, n_points, how, level):
    poly, f = _certificate_case(kind, seed, n_points)
    top = max(evaluate(f, z) for z in f.complex_vertices())
    if how == "clamp":
        return f, clamp(f, top * level)
    # a series on the level set {f >= top * level}, strictly inside poly
    sub = level_set_polygon(f, top * level)
    pts = random_points(random.Random(seed), sub, n_points)
    return f, run_dynamics(zero_series(sub), pts).final


@settings(max_examples=20)  # the reference enumeration is slow
@given(st.sampled_from(["square", "pentagon", "bent", "random"]),
       st.integers(min_value=0, max_value=2 ** 32 - 1),
       st.integers(min_value=0, max_value=3),
       st.sampled_from(["clamp", "level set"]),
       st.sampled_from([F(1, 8), F(1, 3), F(1, 2), F(7, 8)]))
def test_gap_range_matches_overlay_enumeration(kind, seed, n_points, how,
                                               level):
    f, g = _gap_case(kind, seed, n_points, how, level)
    assert _gap_range(f, g) == ref_gap_range(f, g)


@pytest.mark.parametrize("f, top", [(square13(), F(1, 3)),
                                    (distance_function(QPolygon.box(0, 0, 2, 2)),
                                     F(1))])
@pytest.mark.parametrize("c", [F(1, 100), F(1, 4), F(1, 3)])
def test_gap_range_of_a_clamp(f, top, c):
    # f - min(f, c) = max(f - c, 0): 0 on the boundary, max f - c at the top
    assert _gap_range(f, clamp(f, c)) == (0, top - c)


# the decisions on the gap range: its values are exact, so the checks
# compare them with the lemma's bounds, strict where the lemma is strict
SHIFT_EPS = F(1, 2)


@pytest.mark.parametrize("low, high, ok", [
    (SHIFT_EPS, SHIFT_EPS, True),
    (SHIFT_EPS, SHIFT_EPS + F(1, 1000), False),
    (SHIFT_EPS - F(1, 1000), SHIFT_EPS, False),
])
def test_level_shift_needs_the_gap_to_be_eps_everywhere(monkeypatch, low,
                                                        high, ok):
    monkeypatch.setattr(refine, "_gap_range", lambda f, g: (low, high))
    assert level_shift_check(QPolygon.box(0, 0, 2, 2), [(F(1), F(1))],
                             SHIFT_EPS) is ok


@pytest.mark.parametrize("low, high, ok", [
    (F(0), F(1, 4) - F(1, 1000), True),
    (F(-1, 1000), F(1, 8), False),
    (F(0), F(1, 4), False),
])
def test_nice_restrict_needs_the_gap_in_zero_to_eps(monkeypatch, low, high,
                                                    ok):
    monkeypatch.setattr(refine, "_gap_range", lambda f, g: (low, high))
    if ok:
        assert nice_restrict(unit_square(), [(F(1, 2), F(1, 2))],
                             F(1, 4))[2]["gap_ok"]
    else:
        with pytest.raises(CertificationFailed, match="no certified"):
            nice_restrict(unit_square(), [(F(1, 2), F(1, 2))], F(1, 4))


def _gcd_norm(v):
    import math
    return math.gcd(abs(v[0]), abs(v[1]))


class TestNiceRestrict:
    def test_unimodular_identity_cases(self):
        sub, g, cert = nice_restrict(unit_square(), [(F(1, 2), F(1, 2))],
                                     F(1, 4))
        assert sub == unit_square()
        assert cert["nice"] and cert["gap_ok"] and cert["outside_ok"]

    def test_pentagon(self):
        sub, g, cert = nice_restrict(pentagon(), [(F(1), F(1))], F(1, 4))
        assert is_nice(g)
        assert cert["gap_ok"] and cert["outside_ok"]

    def test_triangle_with_blowups(self):
        tri = QPolygon.from_vertices([(0, 0), (2, 0), (0, 1)])
        sub, g, cert = nice_restrict(tri, [(F(1, 2), F(1, 4))], F(1, 4))
        assert is_unimodular(sub)
        assert is_nice(g)
        assert cert["gap_ok"] and cert["outside_ok"]


class TestVerge:
    def test_degree_one_square(self):
        g = verge_polynomial(unit_square(),
                             {(1, 0): 1, (0, 1): 1, (-1, 0): 1, (0, -1): 1},
                             F(1, 4))
        assert set(g.support) == {(1, 0), (0, 1), (-1, 0), (0, -1), (0, 0)}
        assert g.support[(0, 0)] == F(1, 8)

    def test_degree_two_hairs(self):
        g = verge_polynomial(unit_square(),
                             {(1, 0): 2, (0, 1): 1, (-1, 0): 2, (0, -1): 1},
                             F(1, 4))
        assert quasi_degree(g) == {(1, 0): 2, (0, 1): 1, (-1, 0): 2, (0, -1): 1}
        assert is_nice(g)
        curve = extract_curve(g)
        assert all(classify_vertex(curve, z).is_smooth
                   for z in curve.interior_vertices())

    def test_eps_exceeding_inradius_rejected(self):
        with pytest.raises(RefineError):
            verge_polynomial(unit_square(),
                             {(1, 0): 1, (0, 1): 1, (-1, 0): 1, (0, -1): 1},
                             F(2))

    @pytest.mark.parametrize("eps", [F(0), F(-1, 4)])
    def test_nonpositive_eps_rejected(self, eps):
        with pytest.raises(RefineError, match="eps must be positive"):
            verge_polynomial(unit_square(),
                             {(1, 0): 1, (0, 1): 1, (-1, 0): 1, (0, -1): 1},
                             eps)

    def test_non_nice_degrees_rejected(self):
        with pytest.raises(RefineError):
            verge_polynomial(unit_square(),
                             {(1, 0): 2, (0, 1): 2, (-1, 0): 1, (0, -1): 1},
                             F(1, 4))

    def test_degree_four_ladder(self):
        # four parallel hairs near the degree-4 side, every rung realized,
        # all vertices smooth (the figure's corner picture)
        g = verge_polynomial(QPolygon.box(0, 0, 2, 2),
                             {(1, 0): 4, (0, 1): 1, (-1, 0): 1, (0, -1): 1},
                             F(1, 4))
        assert {(1, 0), (2, 0), (3, 0), (4, 0)} <= set(g.support)
        curve = extract_curve(g)
        assert all(classify_vertex(curve, z).is_smooth
                   for z in curve.interior_vertices())
        # each hair pair bounds a nonempty strip
        for l in range(1, 5):
            assert (l, 0) in curve.faces

    def test_curve_hugs_boundary(self):
        from tropwave.refine import _max_vertex_boundary_dist2
        eps = F(1, 4)
        g = verge_polynomial(unit_square(),
                             {(1, 0): 2, (0, 1): 1, (-1, 0): 1, (0, -1): 1},
                             eps)
        curve = extract_curve(g)
        assert _max_vertex_boundary_dist2(curve, unit_square()) <= eps * eps

    def test_corner_edge_weight_one(self):
        # nice series: exactly one weight-one curve edge through each corner
        g = verge_polynomial(unit_square(),
                             {(1, 0): 2, (0, 1): 1, (-1, 0): 2, (0, -1): 1},
                             F(1, 4))
        curve = extract_curve(g)
        for corner in unit_square().corners():
            incident = [e for e in curve.edges
                        if corner.apex in (e.a, e.b)]
            assert len(incident) == 1
            assert incident[0].weight == 1


class TestCoarsen:
    def _inner_wave_instance(self):
        f = square13()
        _, ev = wave(f, (F(2, 5), F(1, 2)))
        return f, [ev]

    def test_empty_events(self):
        f = square13()
        plan, final, cert = coarsen_dynamics(f, [], F(1, 10))
        assert final == f and plan.decremented == []

    def test_single_wave_certified(self):
        f, events = self._inner_wave_instance()
        eps = F(1, 20)
        plan, final, cert = coarsen_dynamics(f, events, eps)
        assert all(e > 0 for e in plan.decremented)
        assert plan.total_change() < eps
        assert plan.decremented[0] == events[0].increment - plan.M * plan.h
        full = add_monomial(f, events[0].monomial, events[0].increment)
        assert curves_within(final, full, eps / 2)

    def test_quasi_degree_mismatch_rejected(self):
        f = square13()
        _, ev = wave(f, (F(1, 5), F(1, 2)))  # changes the left side degree
        with pytest.raises(HypothesisViolated):
            coarsen_dynamics(f, [ev], F(1, 20))

    def test_collapse_avoided(self):
        # the full increment collapses the inner face to a point; the
        # decremented replay must keep it two-dimensional
        f = square13()
        _, ev = wave(f, (F(1, 2), F(1, 2)))
        rep_full = wave_family_scan(f, (F(1, 2), F(1, 2)))
        assert any(e.kind.startswith("FaceCollapsed") for e in rep_full.events)
        plan, final, cert = coarsen_dynamics(f, [ev], F(1, 30))
        from tropwave.exactlp import polygon_area
        assert polygon_area(final.cells()[(0, 0)]) > 0
        rep_dec = wave_family_scan(f, (F(1, 2), F(1, 2)))
        # replaying with the decremented increment produces no collapse event
        g_dec = add_monomial(f, ev.monomial, plan.decremented[0])
        assert polygon_area(g_dec.cells()[(0, 0)]) > 0

    def test_two_wave_sequence(self):
        f = square13()
        g1, ev1 = wave(f, (F(2, 5), F(1, 2)))
        g2, ev2 = wave(g1, (F(1, 2), F(11, 20)))
        assert ev1.increment > 0 and ev2.increment > 0
        assert quasi_degree(f) == quasi_degree(g2)
        plan, final, cert = coarsen_dynamics(f, [ev1, ev2], F(1, 30))
        assert len(plan.decremented) == 2
        assert curves_within(final, g2, F(1, 60))


@given(st.sampled_from(["square", "pentagon", "bent", "random"]),
       st.integers(min_value=0, max_value=2 ** 32 - 1),
       st.integers(min_value=0, max_value=3))
def test_distance_helpers_match_fraction_reference(kind, seed, n_points):
    # the integer helpers return the Fraction reference's exact values; the
    # points include curve vertices, at distance 0, which the minimum skips
    poly, f = _certificate_case(kind, seed, n_points)
    curve = extract_curve(f)
    sides = [(a, b) for _, a, b in poly.sides()]
    want = max((min(ref_point_segment_dist2(z, a, b) for a, b in sides)
                for z in curve.vertices), default=F(0))
    assert _max_vertex_boundary_dist2(curve, poly) == want
    rng = random.Random(seed)
    curves = [curve, extract_curve(square13())] if kind == "square" else [curve]
    pts = random_points(rng, poly, 3) + curve.vertices[:2]
    d2 = [ref_point_segment_dist2(p, a, b) for p in pts
          for c in curves for a, b in c.segments()]
    assert _min_point_curve_dist2(pts, curves) == min(
        (d for d in d2 if d > 0), default=None)
