import hashlib
import importlib
import inspect
import json
import math
import random
import time
from fractions import Fraction as F
from unittest import mock

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from tropwave import cli, series
from tropwave.curve import attaining_monomials
from tropwave.exactlp import dot, vsub
from tropwave.geometry import QPolygon
from tropwave.series import (OutsideDomain, add_monomial,
                             canonical_coefficient, distance_function,
                             evaluate, quasi_degree, rho, zero_series)
from tropwave.wave import (MAX_STEPS, STABILIZED, STEP_LIMIT, SamplingFailed,
                           Schedule, UnclassifiableSide, WaveError,
                           _columns_below, _floor_sum, _grid_point,
                           _grid_sides,
                           _line_min, _second_min_at,
                           avalanche_experiment, run_dynamics,
                           sample_interior_points, upper_bound_witness,
                           wave, wave_family_scan)

from conftest import pentagon, random_points, random_polygon, random_series, \
    ref_polygon_area, ref_polytope_vertices, ref_side_vanishing_multiplier, \
    ref_wave_family_scan, square13, unit_square


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
        for _ in range(10):
            poly = random_polygon(rng)
            f = random_series(rng, poly, 1)
            p = random_points(rng, poly, 1)[0]
            att = attaining_monomials(f, p)
            g, ev = wave(f, p)
            if ev.increment == 0:
                continue
            assert ev.avalanche_area == ref_polygon_area(f.cells()[att[0]])
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
    f, p = series_and_wave_point(kind, seed, n_waves, where, d, s)
    att = attaining_monomials(f, p)
    assume(len(att) == 1)
    assert _second_min_at(f, p, att[0]) == ref_second_min_at(f, p, att[0])


def series_and_wave_point(kind, seed, n_waves, where, d, s):
    """A series of a few waves on the named domain, and an interior point:
    a generic one, one at lattice distance 1/d from a random side (s/20
    along it), or the point 1/d of the way from a random corner to the
    vertex centroid."""
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
    return f, p


@given(st.sampled_from(["square", "pentagon", "random"]),
       st.integers(min_value=0, max_value=2 ** 32 - 1),
       st.integers(min_value=0, max_value=5),
       st.sampled_from(["interior", "side", "corner"]),
       st.integers(min_value=2, max_value=1000),
       st.integers(min_value=1, max_value=19))
@example("pentagon", 0, 2, "side", 100, 7)  # v vanishes on that side
@example("random", 0, 2, "side", 1000, 7)  # v is its side's degree-2 term
def test_runner_up_is_least_on_the_raised_degree_hull(kind, seed, n_waves,
                                                      where, d, s):
    """The wave's runner-up at p is h(p) for h the inf over u != v of
    u.z + c_u(f).  h is a series whose side degrees are f's quasi-degree
    raised by one on each side whose least vanishing monomial is v, so its
    small support lies in the hull of those degrees, `add_monomial`'s own
    candidates, and the runner-up is least over them."""
    f, p = series_and_wave_point(kind, seed, n_waves, where, d, s)
    att = attaining_monomials(f, p)
    assume(len(att) == 1)
    v = att[0]
    a_v = canonical_coefficient(f, v)
    raised = quasi_degree(f)
    for hp in f.domain.halfplanes:
        if ref_side_vanishing_multiplier(hp, (v, a_v)) == raised[hp.n]:
            raised[hp.n] += 1
    assert _second_min_at(f, p, v) == min(
        dot(u, p) + canonical_coefficient(f, u)
        for u in series._candidate_hull(raised) if u != v)


@given(st.sampled_from(["square", "pentagon", "random"]),
       st.integers(min_value=0, max_value=2 ** 32 - 1),
       st.integers(min_value=0, max_value=4),
       st.fractions(min_value=0, max_value=1, max_denominator=50))
def test_face_of_the_wave_point_survives_below_the_full_increment(
        kind, seed, n_waves, t):
    """Along the one-wave family f_t = add_monomial(f, v, c t), v is the one
    monomial attaining f_t at p for every t in (0, 1)."""
    assume(0 < t < 1)
    rng = random.Random(seed)
    poly = {"square": unit_square, "pentagon": pentagon,
            "random": lambda: random_polygon(rng)}[kind]()
    f = random_series(rng, poly, n_waves)
    p = random_points(rng, poly, 1)[0]
    _, ev = wave(f, p)
    assume(ev.increment > 0)
    ft = add_monomial(f, ev.monomial, ev.increment * t)
    assert attaining_monomials(ft, p) == [ev.monomial]


@given(st.integers(min_value=0, max_value=2 ** 32 - 1),
       st.integers(min_value=0, max_value=3))
def test_second_min_on_domains_with_rational_vertices(seed, n_waves):
    """A random polygon moved off the lattice by a rational shift: the
    domain-vertex rows scale each homogeneous vertex to the complex's
    denominator, and non-lattice vertices make that scaling matter."""
    rng = random.Random(seed)
    q = rng.randint(2, 5)
    sx, sy = F(rng.randint(1, q - 1), q), F(rng.randint(0, q - 1), q)
    poly = QPolygon.from_vertices([(x + sx, y + sy)
                                   for x, y in random_polygon(rng).vertices])
    f = random_series(rng, poly, n_waves)
    p = random_points(rng, poly, 1)[0]
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


@pytest.mark.parametrize("seed", range(6))
def test_dynamics_builds_one_complex_per_positive_wave(seed):
    # from zero, k positive waves build exactly k + 2 complexes: the zero
    # series' constructor, its first use, and one renormalization probe per
    # positive wave, which the wave's result inherits
    rng = random.Random(seed)
    poly = [unit_square, pentagon, lambda: random_polygon(rng)][seed % 3]()
    pts = random_points(rng, poly, 3)
    with mock.patch.object(series, "_Complex", wraps=series._Complex) as cx:
        res = run_dynamics(zero_series(poly), pts)
    assert res.stopped_reason == STABILIZED and res.events
    assert cx.call_count == len(res.events) + 2


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

    def test_one_step_cap_default(self):
        # the library's dynamic, its statistics harness and the CLI stop at
        # the same step by default
        defaults = [inspect.signature(fn).parameters["max_steps"].default
                    for fn in (run_dynamics, avalanche_experiment)]
        assert defaults + [cli.RunConfig().max_steps] == [MAX_STEPS] * 3
        assert MAX_STEPS == 10000

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


def scan_outcome(fn, f, p):
    """A family scan's report, or the type and message of its WaveError."""
    try:
        return fn(f, p)
    except WaveError as exc:
        return type(exc), str(exc)


FAMILY_CASES = {
    "square center": (square13, (F(1, 2), F(1, 2))),
    "square strip": (lambda: add_monomial(square13(), (1, 0), F(2, 15)),
                     (F(1, 6), F(1, 2))),
    "pentagon nodal": (lambda: wave(zero_series(pentagon()), (F(1, 2), F(1)))[0],
                       (F(13, 20), F(13, 20))),
    "boundary face": (square13, (F(1, 10), F(1, 2))),
}


@pytest.mark.parametrize("case", FAMILY_CASES)
def test_family_scan_matches_the_trajectory_reference_on_known_cases(case):
    make, p = FAMILY_CASES[case]
    f = make()
    assert scan_outcome(wave_family_scan, f, p) == scan_outcome(
        ref_wave_family_scan, f, p)


@given(st.sampled_from(["square", "pentagon", "random"]),
       st.integers(min_value=0, max_value=2 ** 32 - 1),
       st.integers(min_value=1, max_value=4))
def test_family_scan_matches_the_trajectory_reference(kind, seed, n):
    # every series of a dynamic on n points, scanned at three interior
    # points: the vanishing parameters read off the local model equal the
    # side ends followed along the family, and so do the errors
    rng = random.Random(seed)
    poly = {"square": unit_square, "pentagon": pentagon,
            "random": lambda: random_polygon(rng)}[kind]()
    f = zero_series(poly)
    for p in random_points(rng, poly, n) * 2:
        f, _ = wave(f, p)
        for q in random_points(rng, poly, 3):
            assert scan_outcome(wave_family_scan, f, q) == scan_outcome(
                ref_wave_family_scan, f, q)


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

    def test_32_point_trial_digest(self):
        # 205 positive waves and 480 steps: absorbed splice ends, P_v on the
        # boundary and entrants each occur many times.  The digest was
        # recorded with every raise built from f's complex by hull joins and
        # every table row a min over the lifted monomials
        out = avalanche_experiment(QPolygon.box(0, 0, 1, 1), 32, 1, seed=1)
        assert out["trials"] == [{"trial": 0, "events": 205,
                                  "stopped_reason": STABILIZED,
                                  "steps": 480}]
        blob = json.dumps({"areas": [str(a) for a in out["areas"]],
                           "trials": out["trials"]}, sort_keys=True)
        assert hashlib.sha256(blob.encode()).hexdigest() == (
            "6509329de50bfcb12085e958b1997e4cdd4185b91c42272fd2d6e7244a30a239")

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


@given(st.integers(min_value=0, max_value=40),
       st.integers(min_value=1, max_value=30),
       st.integers(min_value=-200, max_value=200),
       st.integers(min_value=-200, max_value=200))
def test_floor_sum_matches_the_direct_sum(n, m, a, b):
    assert _floor_sum(n, m, a, b) == sum((a * i + b) // m for i in range(n))


@given(st.integers(min_value=0, max_value=2 ** 32 - 1),
       st.integers(min_value=1, max_value=12))
def test_grid_interior_count_matches_point_tests(seed, steps):
    # the floor-sum count agrees with poly.contains on every grid point of
    # random polygons, affinely scaled to make the grid and the sides skew
    rng = random.Random(seed)
    poly = random_polygon(rng)
    ax, ay, tx, ty = (F(rng.randrange(1, 9), rng.randrange(1, 7))
                      for _ in range(4))
    poly = QPolygon.from_vertices([(ax * x + tx, ay * y - ty)
                                   for x, y in poly.vertices])
    xs = [v[0] for v in poly.vertices]
    ys = [v[1] for v in poly.vertices]
    x0, y0 = min(xs), min(ys)
    w, h = max(xs) - x0, max(ys) - y0
    inside = sum(poly.contains((x0 + F(i, steps) * w, y0 + F(j, steps) * h),
                               strict=True)
                 for i in range(steps + 1) for j in range(steps + 1))
    assert _columns_below(_grid_sides(poly, (x0, y0), (w, h), steps),
                          steps) == inside


def test_sampling_stream_unchanged_by_the_grid_count():
    # a sliver with 3 interior points on its 24-step grid: the draw succeeds
    # after more than 1000 rejections and returns the points that plain
    # rejection sampling takes from the same stream
    poly = QPolygon.from_vertices([(0, 0), (1, F(19, 20)), (1, 1)])
    pts = sample_interior_points(poly, 3, random.Random(5), 24)
    rng = random.Random(5)
    plain, rejected = [], 0
    while len(plain) < 3:
        p = (F(rng.randrange(25), 24), F(rng.randrange(25), 24))
        if p in plain or not poly.contains(p, strict=True):
            rejected += 1
        else:
            plain.append(p)
    assert rejected > 1000
    assert pts == plain


def test_empty_fine_grid_fails_at_once():
    # a sliver with no interior point on its 10^9-step grid: the count
    # answers before any draw instead of after 10^5 rejections
    poly = QPolygon.from_vertices([(0, 0), (1, 1), (1, 1 - F(1, 10 ** 20))])
    start = time.perf_counter()
    with pytest.raises(SamplingFailed, match="has 0 interior points"):
        sample_interior_points(poly, 1, random.Random(0), 10 ** 9)
    assert time.perf_counter() - start < 0.5


def _skewed_grid_case(seed):
    """A random polygon, affinely scaled to make the grid and the sides
    skew, with its bounding box's corner and size."""
    rng = random.Random(seed)
    poly = random_polygon(rng)
    ax, ay, tx, ty = (F(rng.randrange(1, 9), rng.randrange(1, 7))
                      for _ in range(4))
    poly = QPolygon.from_vertices([(ax * x + tx, ay * y - ty)
                                   for x, y in poly.vertices])
    xs = [v[0] for v in poly.vertices]
    ys = [v[1] for v in poly.vertices]
    return poly, (min(xs), min(ys)), (max(xs) - min(xs), max(ys) - min(ys))


def brute_interior_grid(poly, corner, size, steps):
    """The interior grid points (i, j) by column, then row, each tested
    with poly.contains."""
    (x0, y0), (w, h) = corner, size
    return [(i, j) for i in range(steps + 1) for j in range(steps + 1)
            if poly.contains((x0 + F(i, steps) * w, y0 + F(j, steps) * h),
                             strict=True)]


@given(st.integers(min_value=0, max_value=2 ** 32 - 1),
       st.integers(min_value=1, max_value=12))
def test_rank_to_grid_point_is_a_bijection(seed, steps):
    # rank r goes to the r-th interior grid point by column, then row, and
    # every prefix count is the brute-force count of its columns
    poly, corner, size = _skewed_grid_case(seed)
    want = brute_interior_grid(poly, corner, size, steps)
    sides = _grid_sides(poly, corner, size, steps)
    for k in range(1, steps + 1):
        assert _columns_below(sides, k) == sum(i < k for i, _ in want)
    assert [_grid_point(sides, steps, r) for r in range(len(want))] == want


def test_rare_interior_points_are_drawn_by_rank():
    # the sliver's 10^7-step grid has 44 999 991 interior points, but
    # rejection from its bounding box finds none in 10^5 draws: the points
    # are then drawn by rank, so sampling succeeds
    poly = QPolygon.from_vertices([(0, 0), (1, 1), (1, 1 - F(1, 10 ** 6))])
    steps = 10 ** 7
    assert _columns_below(_grid_sides(poly, (0, 0), (1, 1), steps),
                          steps) == 44999991
    start = time.perf_counter()
    pts = sample_interior_points(poly, 3, random.Random(0), steps)
    assert time.perf_counter() - start < 0.5
    assert len(set(pts)) == 3
    for x, y in pts:
        assert poly.contains((x, y), strict=True)
        assert (x * steps).denominator == (y * steps).denominator == 1


def test_rank_draws_follow_the_failed_rejection_draws(monkeypatch):
    # with rejection cut to 40 draws, the 24-step sliver's 3 points come
    # from the same stream: 40 rejection draws, then ranks into the
    # interior grid by column and row, skipping repeats
    monkeypatch.setattr(importlib.import_module("tropwave.wave"),
                        "_MAX_DRAWS", 40)
    poly = QPolygon.from_vertices([(0, 0), (1, F(19, 20)), (1, 1)])
    grid = brute_interior_grid(poly, (0, 0), (1, 1), 24)
    assert len(grid) == 3
    for seed in range(20):
        rng = random.Random(seed)
        want = []
        for _ in range(40):
            i, j = rng.randrange(25), rng.randrange(25)
            if (i, j) in grid and (i, j) not in want:
                want.append((i, j))
        while len(want) < 3:
            ij = grid[rng.randrange(3)]
            if ij not in want:
                want.append(ij)
        assert sample_interior_points(poly, 3, random.Random(seed), 24) == [
            (F(i, 24), F(j, 24)) for i, j in want]


def test_too_few_interior_points_fail_before_any_draw():
    # the 24-step sliver holds 3 interior points: asking for 4 fails at once
    # and leaves the stream untouched
    poly = QPolygon.from_vertices([(0, 0), (1, F(19, 20)), (1, 1)])
    rng = random.Random(5)
    state = rng.getstate()
    start = time.perf_counter()
    with pytest.raises(SamplingFailed, match="has 3 interior points, fewer "
                                             "than 4"):
        sample_interior_points(poly, 4, rng, 24)
    assert time.perf_counter() - start < 0.5
    assert rng.getstate() == state
