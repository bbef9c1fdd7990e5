import importlib
import json
import math
import random
import time
from fractions import Fraction as F

import pytest
from hypothesis import assume, given, settings, strategies as st

from tropwave.curve import attaining_monomials
from tropwave.exactlp import dot, vsub
from tropwave.geometry import QPolygon
from tropwave.series import (OutsideDomain, add_monomial,
                             canonical_coefficient, distance_function,
                             evaluate, quasi_degree, rho, zero_series)
from tropwave.wave import (STABILIZED, STEP_LIMIT, Schedule,
                           UnclassifiableSide, WaveError, _line_min,
                           _second_min_at,
                           avalanche_experiment, run_dynamics,
                           upper_bound_witness, wave, wave_family_scan)

from conftest import pentagon, random_points, random_polygon, random_series, \
    ref_polytope_vertices, square13, unit_square


class TestSingleWave:
    def test_figure_wave(self):
        g, ev = wave(square13(), (F(1, 5), F(1, 2)))
        assert ev.monomial == (1, 0)
        assert ev.increment == F(2, 15)
        assert g.support == {
            (2, 0): F(0), (1, 0): F(2, 15), (0, 1): F(0), (-1, 0): F(1),
            (0, -1): F(1), (0, 0): F(1, 3)}
        assert quasi_degree(g)[(1, 0)] == 2

    def test_wave_on_zero_is_clamped_distance(self, rng):
        # G_p 0 = min(l(z), l(p)) pointwise
        for _ in range(10):
            poly = random_polygon(rng)
            l = distance_function(poly)
            p = random_points(rng, poly, 1)[0]
            g, ev = wave(zero_series(poly), p)
            assert ev.increment == evaluate(l, p)
            for z in random_points(rng, poly, 10):
                assert evaluate(g, z) == min(evaluate(l, z), evaluate(l, p))

    def test_point_on_curve_identity(self):
        f = square13()
        g, ev = wave(f, (F(1, 3), F(1, 2)))  # on the inner-square side
        assert ev.increment == 0
        assert ev.avalanche_area == 0
        assert g == f

    def test_nonpositive_increment_raises(self, monkeypatch):
        # a runner-up that ties the minimum gives increment 0 on a smooth
        # point; the check must survive python -O, so it is not an assert
        wave_module = importlib.import_module("tropwave.wave")
        monkeypatch.setattr(wave_module, "_second_min_at",
                            lambda f, p, exclude: evaluate(f, p))
        with pytest.raises(WaveError):
            wave(square13(), (F(1, 5), F(1, 2)))

    def test_outside_domain(self):
        with pytest.raises(OutsideDomain):
            wave(square13(), (F(3), F(3)))
        with pytest.raises(OutsideDomain):
            wave(square13(), (F(0), F(1, 2)))  # boundary is not interior

    def test_idempotence(self, rng):
        for _ in range(15):
            poly = random_polygon(rng)
            f = random_series(rng, poly, 1)
            p = random_points(rng, poly, 1)[0]
            g, ev = wave(f, p)
            g2, ev2 = wave(g, p)
            assert ev2.increment == 0
            assert g2 == g

    def test_avalanche_is_old_face(self, rng):
        # the strict-increase region is the face of p before the wave
        from tropwave.exactlp import polygon_area
        for _ in range(10):
            poly = random_polygon(rng)
            f = random_series(rng, poly, 1)
            p = random_points(rng, poly, 1)[0]
            att = attaining_monomials(f, p)
            g, ev = wave(f, p)
            if ev.increment == 0:
                continue
            assert ev.avalanche_area == polygon_area(f.cells()[att[0]])
            # strictly increased at p and unchanged far from the face
            assert evaluate(g, p) > evaluate(f, p)

    def test_result_non_smooth_at_point(self, rng):
        for _ in range(10):
            poly = random_polygon(rng)
            f = random_series(rng, poly, 1)
            p = random_points(rng, poly, 1)[0]
            g, _ = wave(f, p)
            assert len(attaining_monomials(g, p)) >= 2


    def test_near_side_cost_is_bounded(self):
        # lattice distance 1e-9 from the pentagon's diagonal side
        # x + y <= 17/5; a scan of the lattice points of a box of size
        # ~1/distance would not finish
        t = F(1, 2 * 10 ** 9)
        p = (F(17, 10) - t, F(17, 10) - t)
        start = time.perf_counter()
        _, ev = wave(zero_series(pentagon()), p)
        elapsed = time.perf_counter() - start
        assert ev.increment == evaluate(distance_function(pentagon()), p)
        assert elapsed < 1.0


# -- the second minimum against the bounding-box lattice scan ----------------


def ref_second_min_at(f, p, exclude):
    """The earlier `_second_min_at`: seed a bound from the support and the
    side normals, then scan every lattice point of the bounding box of
    {u : u.(p - w) < bound for every domain vertex w}, in `Fraction`s.
    Its cost grows like 1/dist(p, boundary), so it serves only as a
    reference on small instances."""
    dom = f.domain
    best = None
    for u, a in f.support.items():
        if u != exclude:
            val = dot(u, p) + a
            best = val if best is None or val < best else best
    for hp in dom.halfplanes:
        if hp.n != exclude and hp.n not in f.support:
            val = dot(hp.n, p) + canonical_coefficient(f, hp.n)
            best = val if best is None or val < best else best
    dirs = [vsub(p, w) for w in dom.vertices]
    verts = ref_polytope_vertices([((-d[0], -d[1]), best) for d in dirs])
    xs = [v[0] for v in verts]
    ys = [v[1] for v in verts]
    for i in range(math.floor(min(xs)), math.ceil(max(xs)) + 1):
        for j in range(math.floor(min(ys)), math.ceil(max(ys)) + 1):
            u = (i, j)
            if u == exclude or u in f.support:
                continue
            if any(dot(u, d) >= best for d in dirs):
                continue
            val = dot(u, p) + canonical_coefficient(f, u)
            if val < best:
                best = val
    return best


@settings(max_examples=150)
@given(st.sampled_from(["square", "pentagon", "random"]),
       st.integers(min_value=0, max_value=2 ** 32 - 1),
       st.integers(min_value=0, max_value=5),
       st.sampled_from(["interior", "side", "corner"]),
       st.integers(min_value=2, max_value=300),
       st.integers(min_value=1, max_value=19))
def test_second_min_matches_lattice_scan(kind, seed, n_waves, where, d, s):
    """A generic interior point, a point at lattice distance 1/d from a
    random side (s/20 along it), or the point 1/d of the way from a random
    corner to the vertex centroid."""
    rng = random.Random(seed)
    poly = {"square": unit_square, "pentagon": pentagon,
            "random": lambda: random_polygon(rng)}[kind]()
    f = random_series(rng, poly, n_waves)
    if where == "interior":
        p = random_points(rng, poly, 1)[0]
    elif where == "side":
        hp, a, b = rng.choice(poly.sides())
        nn = dot(hp.n, hp.n)
        t = F(s, 20)
        p = (a[0] + t * (b[0] - a[0]) + F(hp.n[0], d * nn),
             a[1] + t * (b[1] - a[1]) + F(hp.n[1], d * nn))
        assert dot(hp.n, p) + hp.a == F(1, d)
    else:
        a = rng.choice(poly.vertices)
        m = len(poly.vertices)
        c = (sum(v[0] for v in poly.vertices) / m,
             sum(v[1] for v in poly.vertices) / m)
        p = (a[0] + (c[0] - a[0]) / d, a[1] + (c[1] - a[1]) / d)
    assume(poly.contains(p, strict=True))
    att = attaining_monomials(f, p)
    assume(len(att) == 1)
    assert _second_min_at(f, p, att[0]) == ref_second_min_at(f, p, att[0])


@given(st.lists(st.tuples(st.integers(-50, 50), st.integers(-9, 9)),
                min_size=1, max_size=6),
       st.integers(-40, 40), st.integers(0, 60))
def test_line_min_is_the_least_value_on_the_interval(line, lo, length):
    hi = lo + length
    assert _line_min(line, lo, hi) == min(
        max(c + d * t for c, d in line) for t in range(lo, hi + 1))


class TestUpperBoundWitness:
    def test_single_center_point(self):
        w = upper_bound_witness(zero_series(unit_square()),
                                [(F(1, 2), F(1, 2))])
        assert w.support == {(1, 0): F(0), (0, 1): F(0), (-1, 0): F(1),
                             (0, -1): F(1), (0, 0): F(1, 2)}

    def test_empty_points(self):
        f = square13()
        assert upper_bound_witness(f, []) == f

    def test_membership_and_bound(self, rng):
        # the witness is non-smooth at each point and bounded by |P| * l
        for _ in range(8):
            poly = random_polygon(rng)
            pts = random_points(rng, poly, 2)
            w = upper_bound_witness(zero_series(poly), pts)
            l = distance_function(poly)
            for p in pts:
                assert len(attaining_monomials(w, p)) >= 2
            for z in random_points(rng, poly, 8):
                assert evaluate(w, z) <= len(pts) * evaluate(l, z)


class TestDynamics:
    def test_lattice_stabilizes_integrally(self):
        poly = QPolygon.box(0, 0, 3, 3)
        res = run_dynamics(zero_series(poly), [(F(1), F(1))])
        assert res.stopped_reason == STABILIZED
        assert all(ev.increment.denominator == 1 for ev in res.events)

    def test_two_point_order_independence(self):
        poly = QPolygon.box(0, 0, 3, 3)
        pts = [(F(1), F(1)), (F(2), F(2))]
        a = run_dynamics(zero_series(poly), pts)
        b = run_dynamics(zero_series(poly), list(reversed(pts)))
        assert a.stopped_reason == b.stopped_reason == STABILIZED
        assert a.final == b.final

    def test_empty_points(self):
        f = square13()
        res = run_dynamics(f, [])
        assert res.stopped_reason == STABILIZED
        assert res.final == f

    def test_final_curve_hits_points(self, rng):
        for _ in range(5):
            poly = random_polygon(rng)
            pts = random_points(rng, poly, 3)
            res = run_dynamics(zero_series(poly), pts)
            assert res.stopped_reason == STABILIZED
            for p in pts:
                assert len(attaining_monomials(res.final, p)) >= 2

    def test_monotonicity(self, rng):
        # f <= g pointwise implies G_p f <= G_p g pointwise
        for _ in range(10):
            poly = random_polygon(rng)
            f = random_series(rng, poly, 1)
            g, _ = wave(f, random_points(rng, poly, 1)[0])  # g >= f
            p = random_points(rng, poly, 1)[0]
            wf, _ = wave(f, p)
            wg, _ = wave(g, p)
            for z in random_points(rng, poly, 6):
                assert evaluate(wf, z) <= evaluate(wg, z)

    def test_non_expansive(self, rng):
        for _ in range(10):
            poly = random_polygon(rng)
            f = random_series(rng, poly, 1)
            g = random_series(rng, poly, 2)
            p = random_points(rng, poly, 1)[0]
            wf, _ = wave(f, p)
            wg, _ = wave(g, p)
            assert rho(wf, wg) <= rho(f, g)

    def test_upper_bound(self, rng):
        for _ in range(5):
            poly = random_polygon(rng)
            pts = random_points(rng, poly, 3)
            res = run_dynamics(zero_series(poly), pts)
            l = distance_function(poly)
            for z in random_points(rng, poly, 8):
                assert evaluate(res.final, z) <= len(pts) * evaluate(l, z)

    def test_step_limit(self):
        poly = QPolygon.box(0, 0, 3, 3)
        res = run_dynamics(zero_series(poly),
                           [(F(1), F(1)), (F(3, 2), F(5, 4))], max_steps=1)
        assert res.stopped_reason == STEP_LIMIT

    def test_random_schedule_matches_round_robin(self):
        poly = QPolygon.box(0, 0, 3, 3)
        pts = [(F(1), F(1)), (F(2), F(1)), (F(3, 2), F(2))]
        a = run_dynamics(zero_series(poly), pts, Schedule("round_robin"))
        b = run_dynamics(zero_series(poly), pts, Schedule("random", seed=3))
        assert a.final == b.final

    def test_explicit_schedule(self):
        poly = QPolygon.box(0, 0, 3, 3)
        pts = [(F(1), F(1)), (F(2), F(2))]
        order = [pts[1], pts[0], pts[1], pts[0], pts[1], pts[0]]
        a = run_dynamics(zero_series(poly), pts,
                         Schedule("explicit", explicit=order))
        b = run_dynamics(zero_series(poly), pts)
        assert a.final == b.final and a.stopped_reason == STABILIZED


class TestFamilyScan:
    def test_no_wave_no_events(self):
        rep = wave_family_scan(square13(), (F(1, 3), F(1, 3)))
        assert rep.increment == 0
        assert rep.events == [] and rep.sides == []

    def test_strip_collapses_to_interval(self):
        f2 = add_monomial(square13(), (1, 0), F(2, 15))
        rep = wave_family_scan(f2, (F(1, 6), F(1, 2)))
        sums = sorted(s["n1"] + s["n2"] for s in rep.sides)
        assert sums == [-2, 0, 0, 2]
        assert [e.kind for e in rep.events] == ["FaceCollapsedToInterval"]
        assert rep.events[0].t == 1

    def test_center_wave_collapses_to_point(self):
        # all sides have n1 + n2 = 0: the face collapses to a (here
        # degenerate) interval, the symmetric square shrinking to its center
        rep = wave_family_scan(square13(), (F(1, 2), F(1, 2)))
        assert all(s["n1"] + s["n2"] == 0 for s in rep.sides)
        assert all(s["vanish_t"] == 1 for s in rep.sides)
        assert [e.kind for e in rep.events] == ["FaceCollapsedToPoint"]

    def test_nodal_perestroika(self):
        poly = pentagon()
        f1, _ = wave(zero_series(poly), (F(1, 2), F(1)))
        rep = wave_family_scan(f1, (F(13, 20), F(13, 20)))
        nodal = [e for e in rep.events if e.kind == "NodalPerestroika"]
        assert len(nodal) == 1
        assert nodal[0].t == F(2, 3)
        assert nodal[0].neighbor_exponents[0] + nodal[0].neighbor_exponents[1] == 1

    def test_boundary_face_unclassifiable(self):
        f = square13()
        with pytest.raises(UnclassifiableSide):
            wave_family_scan(f, (F(1, 10), F(1, 2)))  # face touches the boundary


class TestExperiment:
    def test_single_point_single_trial(self):
        poly = unit_square()
        out = avalanche_experiment(poly, n=1, trials=1, seed=1)
        assert out["event_count"] == 1
        assert len(out["areas"]) == 1

    def test_deterministic(self):
        poly = unit_square()
        a = avalanche_experiment(poly, n=3, trials=2, seed=42)
        b = avalanche_experiment(poly, n=3, trials=2, seed=42)
        assert a == b

    def test_ccdf_monotone(self):
        poly = unit_square()
        out = avalanche_experiment(poly, n=4, trials=3, seed=7)
        probs = [p for _, p in out["ccdf"]]
        assert all(x >= y for x, y in zip(probs, probs[1:]))
        assert all(0 <= p <= 1 for p in probs)
        assert "hill" in out and "k_tail" in out["hill"]

    def test_events_json_lines(self):
        from tropwave import jsonio
        poly = unit_square()
        res = run_dynamics(zero_series(poly),
                           [(F(1, 4), F(1, 2)), (F(3, 4), F(1, 2))])
        for ev in res.events:
            line = json.dumps(jsonio.event_to_json(ev), sort_keys=True)
            back = json.loads(line)
            assert jsonio.frac_from_str(back["increment"]) == ev.increment
