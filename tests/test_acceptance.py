"""Acceptance suite: one test per exit criterion, exact tolerances, each
printing a PASS line with its measured runtime."""

import random
import time
from fractions import Fraction as F

from tropwave.curve import (attaining_monomials, check_balancing,
                            curves_within, extract_curve, quasi_degree_area,
                            symplectic_area)
from tropwave.exactlp import dot, vsub
from tropwave.geometry import QPolygon, gcd2, is_unimodular
from tropwave.lift2 import fuzz_lift
from tropwave.series import (TropicalSeries, add_monomial, distance_function,
                             evaluate, is_nice, make_series, quasi_degree,
                             rho, zero_series)
from tropwave.refine import (coarsen_dynamics, make_nice, verge_polynomial,
                             _max_vertex_boundary_dist2)
from tropwave.wave import (STABILIZED, avalanche_experiment, run_dynamics,
                           upper_bound_witness, wave)

from conftest import (random_points, random_polygon, ref_polygon_area,
                      ref_side_vanishing_multiplier, square13, unit_square)


def _report(name, t0, detail=""):
    print(f"PASS {name} ({time.time() - t0:.1f}s){': ' + detail if detail else ''}")


def test_criterion_figure3_exact_reproduction():
    t0 = time.time()
    g, ev = wave(square13(), (F(1, 5), F(1, 2)))
    assert ev.monomial == (1, 0)
    assert ev.increment == F(2, 15)
    assert g.support == {
        (2, 0): F(0), (1, 0): F(2, 15), (0, 1): F(0), (-1, 0): F(1),
        (0, -1): F(1), (0, 0): F(1, 3)}
    assert quasi_degree(g) == {(1, 0): 2, (0, 1): 1, (-1, 0): 1, (0, -1): 1}
    assert time.time() - t0 < 1.0
    _report("figure-3 exact reproduction", t0)


def test_criterion_wave_on_zero_corollary():
    # 100 random (polygon, interior point) pairs; G_p 0 = min(l(z), l(p))
    # exactly at 50 random sample points each
    t0 = time.time()
    rng = random.Random(101)
    polys = [random_polygon(rng) for _ in range(20)]
    dists = {id(p): distance_function(p) for p in polys}
    for k in range(100):
        poly = polys[k % len(polys)]
        l = dists[id(poly)]
        p = random_points(rng, poly, 1)[0]
        g, ev = wave(zero_series(poly), p)
        lp = evaluate(l, p)
        assert ev.increment == lp
        for z in random_points(rng, poly, 50):
            assert evaluate(g, z) == min(evaluate(l, z), lp)
    assert time.time() - t0 < 30
    _report("one-wave corollary on 100 random pairs", t0)


def test_criterion_convergence_and_order_independence():
    # 20 random bounded polygons, |P| <= 5 rational points, two schedules:
    # both stabilize exactly and agree; the final curve is non-smooth at P
    t0 = time.time()
    rng = random.Random(202)
    for k in range(20):
        poly = random_polygon(rng)
        pts = random_points(rng, poly, 1 + k % 5, denom_bound=16)
        forward = run_dynamics(zero_series(poly), pts)
        backward = run_dynamics(zero_series(poly), list(reversed(pts)))
        assert forward.stopped_reason == STABILIZED
        assert backward.stopped_reason == STABILIZED
        assert forward.final == backward.final  # exact, stronger than 2e-9
        for p in pts:
            assert len(attaining_monomials(forward.final, p)) >= 2
    assert time.time() - t0 < 120
    _report("convergence and order independence on 20 polygons", t0)


def test_criterion_property_suite():
    # >= 200 randomized trials per property, all assertions exact
    t0 = time.time()
    rng = random.Random(303)
    polys = [random_polygon(rng) for _ in range(12)]
    series = {}

    def fresh(poly, n=1):
        f = zero_series(poly)
        for p in random_points(rng, poly, n):
            f, _ = wave(f, p)
        return f

    # monotonicity: f <= g implies G_p f <= G_p g pointwise
    for k in range(200):
        poly = polys[k % len(polys)]
        f = fresh(poly)
        g, _ = wave(f, random_points(rng, poly, 1)[0])
        p = random_points(rng, poly, 1)[0]
        wf, _ = wave(f, p)
        wg, _ = wave(g, p)
        for z in random_points(rng, poly, 2):
            assert evaluate(wf, z) <= evaluate(wg, z)
    _report("property: monotonicity (200 trials)", t0)

    # non-expansiveness: rho(G_p f, G_p g) <= rho(f, g)
    t1 = time.time()
    for k in range(200):
        poly = polys[k % len(polys)]
        f = fresh(poly)
        g = fresh(poly)
        p = random_points(rng, poly, 1)[0]
        wf, _ = wave(f, p)
        wg, _ = wave(g, p)
        assert rho(wf, wg) <= rho(f, g)
    _report("property: non-expansiveness (200 trials)", t1)

    # idempotence of the wave
    t1 = time.time()
    for k in range(200):
        poly = polys[k % len(polys)]
        f = fresh(poly)
        p = random_points(rng, poly, 1)[0]
        g, _ = wave(f, p)
        g2, ev2 = wave(g, p)
        assert ev2.increment == 0 and g2 == g
    _report("property: idempotence (200 trials)", t1)

    # upper bound: G_P 0 <= |P| * l pointwise
    t1 = time.time()
    for k in range(200):
        poly = polys[k % len(polys)]
        pts = random_points(rng, poly, 2)
        res = run_dynamics(zero_series(poly), pts)
        l = distance_function(poly)
        for z in random_points(rng, poly, 3):
            assert evaluate(res.final, z) <= len(pts) * evaluate(l, z)
    _report("property: upper bound (200 trials)", t1)

    # balancing and edge-weight/gcd consistency on extracted curves
    t1 = time.time()
    for k in range(200):
        poly = polys[k % len(polys)]
        f = fresh(poly, 2)
        curve = extract_curve(f)
        assert check_balancing(curve)
        for e in curve.edges:
            diff = vsub(e.dual[1], e.dual[0])
            assert e.weight == gcd2(diff)
            assert dot(diff, vsub(e.b, e.a)) == 0
    _report("property: balancing + edge weights (200 trials)", t1)

    # 2-eps curve closeness under sub-eps coefficient perturbation
    t1 = time.time()
    done = 0
    k = 0
    while done < 200:
        poly = polys[k % len(polys)]
        k += 1
        f = fresh(poly, 2)
        eps = F(1, rng.randrange(10, 50))
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
        done += 1
    _report("property: 2-eps curve closeness (200 trials)", t1)
    _report("property suite complete", t0)


def test_criterion_area_identities():
    # 50 random compact instances: the curve area equals the quasi-degree
    # sum exactly, and the dynamic's curve minimizes area over sampled
    # members of V(poly, P, 0)
    t0 = time.time()
    rng = random.Random(404)
    for k in range(50):
        poly = random_polygon(rng)
        pts = random_points(rng, poly, 1 + k % 2)
        res = run_dynamics(zero_series(poly), pts)
        f = res.final
        assert symplectic_area(extract_curve(f)) == quasi_degree_area(f)
        base = symplectic_area(extract_curve(f))
        witness = upper_bound_witness(zero_series(poly), pts)
        for _ in range(20):
            g = witness
            v = list(g.support)[rng.randrange(len(g.support))]
            g = add_monomial(g, v, F(rng.randrange(0, 4), 8))
            if any(len(attaining_monomials(g, p)) < 2 for p in pts):
                # the bump smoothed a point: the dynamic restores membership
                g = run_dynamics(g, pts).final
            assert all(len(attaining_monomials(g, p)) >= 2 for p in pts)
            assert symplectic_area(extract_curve(g)) >= base
    _report("area identities + minimality on 50 instances", t0)


def test_criterion_lift_theorem_fuzz():
    t0 = time.time()
    report = fuzz_lift(1000, seed=505)
    assert report["trials"] == 1000
    assert report["failures"] == []
    assert time.time() - t0 < 60
    _report("lift identity fuzz (1000 instances)", t0,
            f"{report['degenerate_skipped']} degenerate draws resampled")


def test_criterion_refinement_pipeline():
    # 10 instances across verge / make-nice / coarsen with exact certificates
    t0 = time.time()
    from tropwave.curve import classify_vertex

    # four verge instances: nice degree patterns on unimodular polygons
    verge_cases = [
        (unit_square(), {(1, 0): 1, (0, 1): 1, (-1, 0): 1, (0, -1): 1}, F(1, 4)),
        (unit_square(), {(1, 0): 2, (0, 1): 1, (-1, 0): 2, (0, -1): 1}, F(1, 4)),
        (QPolygon.box(0, 0, 2, 3), {(1, 0): 3, (0, 1): 1, (-1, 0): 1,
                                    (0, -1): 1}, F(1, 3)),
        (QPolygon.from_vertices([(0, 0), (2, 0), (2, F(7, 5)), (F(7, 5), 2),
                                 (0, 2)]),
         {(1, 0): 1, (0, 1): 1, (-1, 0): 1, (0, -1): 1, (-1, -1): 1}, F(1, 4)),
    ]
    for poly, degrees, eps in verge_cases:
        g = verge_polynomial(poly, degrees, eps)
        assert is_nice(g)
        assert quasi_degree(g) == {k: v for k, v in degrees.items()}
        curve = extract_curve(g)
        assert all(classify_vertex(curve, z).is_smooth
                   for z in curve.interior_vertices())
        assert _max_vertex_boundary_dist2(curve, poly) <= eps * eps

    # three make-nice instances: non-unimodular or non-nice inputs
    tri = QPolygon.from_vertices([(0, 0), (2, 0), (0, 1)])
    quad = QPolygon.from_vertices([(0, 0), (3, 0), (3, 2), (0, 1)])
    nice_cases = [
        (tri, distance_function(tri), F(1, 8)),
        (quad, distance_function(quad), F(1, 8)),
        (unit_square(),
         make_series(unit_square(),
                     {(2, 0): 0, (0, 2): 0, (1, 0): F(1, 10), (0, 1): F(1, 10),
                      (-1, 0): 1, (0, -1): 1, (0, 0): F(1, 3)}), F(1, 16)),
    ]
    for poly, f, eps in nice_cases:
        sub, g, steps = make_nice(poly, f, eps)
        assert is_unimodular(sub)
        assert is_nice(g)
        # equality away from the corner neighborhoods, at interior samples
        rng = random.Random(7)
        for z in random_points(rng, sub, 10):
            if all(max(abs(z[0] - c.apex[0]), abs(z[1] - c.apex[1])) > eps
                   for c in poly.corners()):
                assert evaluate(f, z) == evaluate(g, z)

    # three coarsen instances: every intermediate curve smooth or nodal,
    # no face contraction, final curve eps-close
    f13 = square13()
    coarsen_cases = []
    _, ev_a = wave(f13, (F(2, 5), F(1, 2)))
    coarsen_cases.append((f13, [ev_a], F(1, 20)))
    _, ev_b = wave(f13, (F(1, 2), F(1, 2)))  # full increment collapses a face
    coarsen_cases.append((f13, [ev_b], F(1, 30)))
    g1, ev_c1 = wave(f13, (F(2, 5), F(1, 2)))
    _, ev_c2 = wave(g1, (F(1, 2), F(11, 20)))
    coarsen_cases.append((f13, [ev_c1, ev_c2], F(1, 30)))
    for g, events, eps in coarsen_cases:
        plan, final, cert = coarsen_dynamics(g, events, eps)
        assert all(e > 0 for e in plan.decremented)
        assert plan.total_change() < eps
        full = g
        for ev in events:
            full = add_monomial(full, ev.monomial, ev.increment)
        assert curves_within(final, full, eps / 2)
        # the decremented replay keeps every waved face two-dimensional
        replay = g
        for ev, dec in zip(events, plan.decremented):
            replay = add_monomial(replay, ev.monomial, dec)
            assert ev.monomial in replay.support
            assert ref_polygon_area(replay.cells()[ev.monomial]) > 0

    assert time.time() - t0 < 300
    _report("refinement pipeline on 10 instances", t0)


def test_criterion_avalanche_harness_determinism():
    t0 = time.time()
    import json

    from tropwave import jsonio

    poly = unit_square()
    a = avalanche_experiment(poly, n=6, trials=5, seed=99)
    b = avalanche_experiment(poly, n=6, trials=5, seed=99)
    assert a == b
    bytes_a = json.dumps(jsonio.stats_to_json(a), sort_keys=True).encode()
    bytes_b = json.dumps(jsonio.stats_to_json(b), sort_keys=True).encode()
    assert bytes_a == bytes_b  # byte-reproducible
    probs = [p for _, p in a["ccdf"]]
    assert all(x >= y for x, y in zip(probs, probs[1:]))
    assert all(0 <= p <= 1 for p in probs)
    assert a["hill"]["alpha"] is not None and a["hill"]["k_tail"] >= 2
    _report("avalanche harness determinism", t0,
            f"{a['event_count']} events, hill alpha {a['hill']['alpha']:.3f}")
