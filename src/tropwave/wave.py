"""The wave operator, the multi-point dynamic, perestroika scans along the
continuous one-wave family, and the avalanche-statistics harness.

A single wave at an interior point p raises the coefficient of the monomial
dominating at p by exactly the amount that makes the series non-smooth at p;
the avalanche is the strict-increase region, which equals the face of p
before the wave.  Iterating waves over a finite point set converges to the
pointwise-minimal series non-smooth at every point; on rational data the
increments live on a fixed grid so the iteration stabilizes exactly.

The increment is the runner-up of u -> u.p + c_u over all of Z^2, found by
integer per-line minimisation on the series' integer linearity complex: a
convex objective, a bounding polygon from a first bound, and a binary
search on each lattice line crossing it, along the direction with the
fewest such lines.  The cost does not depend on the distance from p to the
boundary.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import List, Optional, Sequence, Tuple

from . import exactlp as lp
from .exactlp import Point, Vec, dot, vsub
from .geometry import QPolygon, xgcd
from .series import (OutsideDomain, TropicalSeries, add_monomial,
                     canonical_coefficient, clamp, distance_function,
                     evaluate, tropical_product, zero_series)
from .curve import attaining_monomials, classify_vertex, extract_curve


class WaveError(Exception):
    pass


class UnclassifiableSide(WaveError):
    pass


class SamplingFailed(WaveError):
    """The polygon has too few interior points on the sampling grid."""


STABILIZED = "Stabilized"
TOLERANCE = "ToleranceReached"
STEP_LIMIT = "StepLimit"


@dataclass(frozen=True)
class WaveEvent:
    point: Point
    monomial: Vec
    increment: Fraction
    avalanche_area: Fraction
    step: int


@dataclass
class Schedule:
    """Point source for the dynamic; every point of P must recur forever."""

    kind: str = "round_robin"  # "round_robin" | "random" | "explicit"
    seed: int = 0
    explicit: Optional[Sequence[Point]] = None

    def stream(self, points: Sequence[Point]):
        if self.kind == "round_robin":
            while True:
                for p in points:
                    yield p
        elif self.kind == "random":
            rng = random.Random(self.seed)
            while True:
                yield points[rng.randrange(len(points))]
        elif self.kind == "explicit":
            if not self.explicit:
                raise WaveError("explicit schedule needs a point list")
            for p in self.explicit:
                yield p
        else:
            raise WaveError(f"unknown schedule kind {self.kind!r}")


@dataclass
class DynamicsResult:
    final: TropicalSeries
    events: List[WaveEvent]
    stopped_reason: str
    steps: int
    sweeps: int


@dataclass(frozen=True)
class FamilyEvent:
    t: Fraction
    kind: str  # NodalPerestroika | FaceCollapsedToPoint | FaceCollapsedToInterval | SideContracted
    side_dual: Optional[Vec] = None
    neighbor_exponents: Tuple[int, int] = (0, 0)  # (n1, n2) in normalized coordinates


@dataclass
class PerestroikaReport:
    increment: Fraction
    sides: List[dict]
    events: List[FamilyEvent]


# -- single wave -------------------------------------------------------------


def _second_min_at(f: TropicalSeries, p: Point, exclude: Vec) -> Fraction:
    """min over the full (virtual) canonical support minus `exclude` at p.

    With q the common denominator of p and D that of the complex, every
    complex vertex z gives an integer row (a, b, c) of
    G(u) = max(c + a u0 + b u1) = q D (u.p + c_u).  G is convex and
    `exclude` is its lattice minimiser.  A first bound B from the four
    lattice neighbours of `exclude` confines every competitor to the
    polygon R where the domain-vertex rows (c = 0) stay <= B.  R is cut
    into lattice lines along the direction that crosses it the fewest
    times (near a side: that side's normal, so the count does not grow as
    p nears the boundary), and G, convex on each line, is minimised there
    by a binary search.  All of it is integer arithmetic.
    """
    cx = f._int_complex()
    D = cx.denom
    q = math.lcm(p[0].denominator, p[1].denominator)
    P0 = p[0].numerator * (q // p[0].denominator) * D
    P1 = p[1].numerator * (q // p[1].denominator) * D
    rows = [(P0 - q * X, P1 - q * Y, q * F) for X, Y, F in cx.table]

    def G(u0, u1):
        return max(c + a * u0 + b * u1 for a, b, c in rows)

    v0, v1 = exclude
    B = min(G(v0 + 1, v1), G(v0 - 1, v1), G(v0, v1 + 1), G(v0, v1 - 1))
    # f vanishes at the domain vertices, so G(u) <= B implies
    # a u0 + b u1 <= B for their rows: the polygon R
    vrows = []
    for x, y in f.domain.vertices:
        X = x.numerator * (D // x.denominator)
        Y = y.numerator * (D // y.denominator)
        vrows.append((P0 - q * X, P1 - q * Y))
    corners = lp.basic_points([(-a, -b, B) for a, b in vrows])

    def line_range(e):
        # k = cross(u, e) over R: ceil of the least, floor of the greatest
        ks = [(X * e[1] - Y * e[0], W) for X, Y, W in corners]
        return -max(-k // W for k, W in ks), max(k // W for k, W in ks)

    directions = [(1, 0), (0, 1)] + [hp.n for hp in f.domain.halfplanes]
    (k_lo, k_hi), (e0, e1) = min(
        ((line_range(e), e) for e in directions),
        key=lambda item: item[0][1] - item[0][0])
    # unimodular basis (e', e): u = k e' + t e, k = cross(u, e), t = cross(e', u)
    _, s0, s1 = xgcd(e1, -e0)
    # per row: slope along e, constant term, and value at e'
    slopes = [(a * e0 + b * e1, c, a * s0 + b * s1) for a, b, c in rows]
    vslopes = [(a * e0 + b * e1, a * s0 + b * s1) for a, b in vrows]
    k_v = v0 * e1 - v1 * e0
    t_v = s0 * v1 - s1 * v0
    for k in range(k_lo, k_hi + 1):
        line = [(c + k * w, d) for d, c, w in slopes]
        if k == k_v:
            # convex on the line with its minimum at exclude
            B = min([B] + [max(c + d * t for c, d in line)
                           for t in (t_v - 1, t_v + 1)])
            continue
        # every u on this line with G(u) <= B has t in [lo, hi] (R for the
        # current B: d t <= B - k w; R is bounded, so both signs of d occur)
        lo = max(-((B - k * w) // -d) for d, w in vslopes if d < 0)
        hi = min((B - k * w) // d for d, w in vslopes if d > 0)
        B = min(B, _line_min(line, lo, hi))
    return Fraction(B, q * D)


def _line_min(line: Sequence[Tuple[int, int]], lo: int, hi: int) -> int:
    """The least of g(t) = max(c + d t for (c, d) in line) over the integers
    lo <= t <= hi (g(lo) if lo > hi).  g is convex, so a binary search for
    the first t with g(t + 1) >= g(t) finds it."""

    def g(t):
        return max(c + d * t for c, d in line)

    while lo < hi:
        mid = (lo + hi) // 2
        if g(mid + 1) >= g(mid):
            hi = mid
        else:
            lo = mid + 1
    return g(lo)


def wave(f: TropicalSeries, p: Point, step: int = 0) -> Tuple[TropicalSeries, WaveEvent]:
    """One wave at p: the minimal increase making f non-smooth at p."""
    p = (Fraction(p[0]), Fraction(p[1]))
    if not isinstance(f.domain, QPolygon) or not f.domain.contains(p, strict=True):
        raise OutsideDomain(f"wave point {p} must be interior")
    att = attaining_monomials(f, p)
    if len(att) > 1:
        v = att[0]
        return f, WaveEvent(p, v, Fraction(0), Fraction(0), step)
    v = att[0]
    rest = _second_min_at(f, p, v)
    c = rest - (dot(v, p) + f.support[v])
    if c <= 0:
        raise WaveError(f"nonpositive wave increment {c} at {p}")
    face = f.cells()[v]
    area = lp.polygon_area(face)
    g = add_monomial(f, v, c)
    return g, WaveEvent(p, v, c, area, step)


def upper_bound_witness(f: TropicalSeries, points: Sequence[Point]) -> TropicalSeries:
    """The explicit member of V(domain, P, f): f plus the clamped distance
    function of every point; non-smooth at each point and >= f."""
    out = f
    if not points:
        return out
    l = distance_function(f.domain)
    for p in points:
        p = (Fraction(p[0]), Fraction(p[1]))
        out = tropical_product(out, clamp(l, evaluate(l, p)))
    return out


# -- the dynamic -------------------------------------------------------------


def _stabilized_at(f: TropicalSeries, points: Sequence[Point]) -> bool:
    return all(len(attaining_monomials(f, p)) > 1 for p in points)


def run_dynamics(f: TropicalSeries, points: Sequence[Point],
                 schedule: Optional[Schedule] = None, *,
                 tol: Optional[Fraction] = None,
                 max_steps: int = 100000) -> DynamicsResult:
    """Iterate waves per the schedule until exact stabilization, a sweep with
    total increment below `tol`, or the step limit."""
    points = [(Fraction(p[0]), Fraction(p[1])) for p in points]
    if not points:
        return DynamicsResult(f, [], STABILIZED, 0, 0)
    schedule = schedule or Schedule()
    stream = schedule.stream(points)
    events: List[WaveEvent] = []
    steps = 0
    sweeps = 0
    block = len(points)
    current = f
    sweep_total = Fraction(0)
    while steps < max_steps:
        try:
            p = next(stream)
        except StopIteration:  # finite explicit schedule ran out
            break
        current, ev = wave(current, p, step=steps)
        steps += 1
        sweep_total += ev.increment
        if ev.increment > 0:
            events.append(ev)
        if steps % block == 0:
            sweeps += 1
            if _stabilized_at(current, points):
                return DynamicsResult(current, events, STABILIZED, steps, sweeps)
            if tol is not None and sweep_total < tol:
                return DynamicsResult(current, events, TOLERANCE, steps, sweeps)
            sweep_total = Fraction(0)
    if _stabilized_at(current, points):
        return DynamicsResult(current, events, STABILIZED, steps, sweeps)
    return DynamicsResult(current, events, STEP_LIMIT, steps, sweeps)


# -- the continuous one-wave family ------------------------------------------


def _unimodular_map_to(v: Vec) -> Tuple[Tuple[int, int], Tuple[int, int]]:
    """Rows of an SL(2,Z) matrix T with T v = (0, 1); v must be primitive."""
    g, x, y = xgcd(v[0], v[1])
    if g != 1:
        raise WaveError(f"{v} is not primitive")
    # rows: r1 . v = 0, r2 . v = 1, det [r1; r2] = v1*y + v0*x = 1
    return (v[1], -v[0]), (x, y)


def _apply(T, u):
    return (T[0][0] * u[0] + T[0][1] * u[1], T[1][0] * u[0] + T[1][1] * u[1])


def wave_family_scan(f: TropicalSeries, p: Point, samples: int = 4) -> PerestroikaReport:
    """Analyze the curve family of Add^{c t} for t in [0, 1] at the wave at p.

    For each side of the face of p: the neighbor exponents (n1, n2) in the
    normalized coordinates of the local model min(0, y, x + n1 y, -x + n2 y + 1),
    the side-length derivative sign (shrinking iff n1 + n2 < 2), and the
    parameter t where the side length reaches zero.  Events are classified
    per the face-contraction trichotomy; `samples` intermediate parameters
    are replayed exactly to cross-check the linear side-length model.
    """
    p = (Fraction(p[0]), Fraction(p[1]))
    g, ev = wave(f, p)
    c = ev.increment
    if c == 0:
        return PerestroikaReport(c, [], [])
    v = ev.monomial
    a_v = f.support[v]
    curve = extract_curve(f)
    face_edges = [e for e in curve.edges if v in e.dual]
    sides_info = []
    events: List[FamilyEvent] = []

    def neighbor_across(vertex: Point, not_dual: Vec) -> Optional[Vec]:
        for e in face_edges:
            if not_dual in e.dual:
                continue
            if e.a == vertex or e.b == vertex:
                return e.dual[0] if e.dual[1] == v else e.dual[1]
        return None

    for e in face_edges:
        w = e.dual[0] if e.dual[1] == v else e.dual[1]
        for endpoint in (e.a, e.b):
            if not f.domain.contains(endpoint, strict=True):
                raise UnclassifiableSide(
                    f"side {v}-{w} meets the boundary at {endpoint}")
            if not classify_vertex(curve, endpoint).is_smooth:
                raise UnclassifiableSide(
                    f"endpoint {endpoint} of side {v}-{w} is not smooth")
        u_a = neighbor_across(e.a, w)
        u_b = neighbor_across(e.b, w)
        if u_a is None or u_b is None:
            raise UnclassifiableSide(f"side {v}-{w} lacks two neighbors")
        d = vsub(w, v)
        if abs(math.gcd(abs(d[0]), abs(d[1]))) != 1:
            raise UnclassifiableSide(f"side {v}-{w} has weight > 1")
        T = _unimodular_map_to(d)
        ta = _apply(T, vsub(u_a, v))
        tb = _apply(T, vsub(u_b, v))
        if {ta[0], tb[0]} != {1, -1}:
            raise WaveError("smooth endpoints must give x-components +-1")
        n1 = ta[1] if ta[0] == 1 else tb[1]
        n2 = tb[1] if ta[0] == 1 else ta[1]

        # exact endpoint trajectories: intersect bisector(v_t, w) with
        # bisector(v_t, u): (w - v).z = a_v + c t - a_w etc.
        def endpoint_at(u: Vec, t: Fraction) -> Point:
            pt = lp.boundary_intersection(
                (vsub(w, v), -(a_v + c * t - f.support[w])),
                (vsub(u, v), -(a_v + c * t - _coeff(f, u))))
            if pt is None:
                raise WaveError(f"side {v}-{w} is parallel to its neighbor {u}")
            return pt

        e0a, e1a = endpoint_at(u_a, Fraction(0)), endpoint_at(u_a, Fraction(1))
        e0b, e1b = endpoint_at(u_b, Fraction(0)), endpoint_at(u_b, Fraction(1))
        dvec = vsub(e0b, e0a)
        ref = dvec if dvec != (0, 0) else vsub(e1b, e1a)
        # signed length along the side direction, linear in t
        l0 = dot(vsub(e0b, e0a), ref)
        l1 = dot(vsub(e1b, e1a), ref)
        vanish: Optional[Fraction] = None
        if l1 < l0:
            t_star = Fraction(l0) / (l0 - l1)
            if 0 < t_star <= 1:
                vanish = t_star
        sides_info.append({
            "side_dual": w,
            "n1": n1,
            "n2": n2,
            "shrinking": n1 + n2 < 2,
            "vanish_t": vanish,
        })
        if vanish is not None and vanish < 1:
            if n1 + n2 == 1:
                events.append(FamilyEvent(vanish, "NodalPerestroika", w, (n1, n2)))
            else:
                events.append(FamilyEvent(vanish, "SideContracted", w, (n1, n2)))
        elif vanish == 1:
            events.append(FamilyEvent(Fraction(1), "SideContracted", w, (n1, n2)))

    # face at t=1: collapsed to point/interval?
    new_cells = g.cells()
    face1 = new_cells.get(v, [])
    area1 = lp.polygon_area(face1)
    if area1 == 0:
        kind = "FaceCollapsedToPoint" if len(set(face1)) <= 1 else "FaceCollapsedToInterval"
        events = [e for e in events if e.t < 1] + [FamilyEvent(Fraction(1), kind, None)]

    # cross-check at sampled parameters: the face of p survives for t < 1
    for k in range(1, samples + 1):
        t = Fraction(k, samples + 1)
        ft = add_monomial(f, v, c * t)
        att = attaining_monomials(ft, p)
        if att != [v]:
            raise WaveError(f"face of p must survive for t = {t} < 1")
    events.sort(key=lambda e: e.t)
    return PerestroikaReport(c, sides_info, events)


def _coeff(f: TropicalSeries, u: Vec) -> Fraction:
    return f.support[u] if u in f.support else canonical_coefficient(f, u)


# -- avalanche statistics harness --------------------------------------------


def sample_interior_points(poly: QPolygon, n: int, rng: random.Random,
                           denom_bound: int = 64) -> List[Point]:
    """n distinct interior points on the dyadic grid (seeded, deterministic)."""
    xs = [v[0] for v in poly.vertices]
    ys = [v[1] for v in poly.vertices]
    x0, x1 = min(xs), max(xs)
    y0, y1 = min(ys), max(ys)
    out: List[Point] = []
    seen = set()
    guard = 0
    while len(out) < n:
        guard += 1
        if guard > 100000:
            raise SamplingFailed(
                f"rejection sampling found {len(out)} of {n} distinct interior "
                f"points on the bounding box's {denom_bound}-step grid")
        fx = Fraction(rng.randrange(denom_bound + 1), denom_bound)
        fy = Fraction(rng.randrange(denom_bound + 1), denom_bound)
        p = (x0 + fx * (x1 - x0), y0 + fy * (y1 - y0))
        if p in seen or not poly.contains(p, strict=True):
            continue
        seen.add(p)
        out.append(p)
    return out


def hill_estimate(areas: Sequence[Fraction]) -> dict:
    """Hill tail-index estimate on the largest decade of samples.

    Returns the tail index gamma, the implied density exponent
    alpha = -(1 + 1/gamma) for p(x) ~ c x^alpha, and the tail count used.
    Values are floats (the one documented decimal convenience in artifacts).
    """
    xs = sorted((float(a) for a in areas if a > 0), reverse=True)
    if len(xs) < 3:
        return {"alpha": None, "gamma": None, "k_tail": 0}
    k = max(2, len(xs) // 10)
    k = min(k, len(xs) - 1)
    ref = xs[k]
    if ref <= 0:
        return {"alpha": None, "gamma": None, "k_tail": 0}
    s = sum(math.log(xs[i] / ref) for i in range(k))
    if s <= 0:
        return {"alpha": None, "gamma": None, "k_tail": k}
    gamma = s / k
    return {"alpha": -(1.0 + 1.0 / gamma), "gamma": gamma, "k_tail": k}


def avalanche_experiment(poly: QPolygon, n: int, trials: int, seed: int = 0, *,
                         denom_bound: int = 64,
                         max_steps: int = 4000) -> dict:
    """Repeated dynamics from the zero series with n fresh random points per
    trial; logs every positive avalanche area and aggregates CCDF, histogram,
    and a Hill tail estimate.  Bit-deterministic for a fixed seed."""
    if n < 1:
        raise WaveError("need n >= 1 points")
    areas: List[Fraction] = []
    per_trial = []
    for trial in range(trials):
        rng = random.Random(seed * 1000003 + trial)
        pts = sample_interior_points(poly, n, rng, denom_bound)
        res = run_dynamics(zero_series(poly), pts, Schedule("round_robin"),
                           max_steps=max_steps)
        trial_areas = [ev.avalanche_area for ev in res.events
                       if ev.avalanche_area > 0]
        areas.extend(trial_areas)
        per_trial.append({
            "trial": trial,
            "events": len(res.events),
            "stopped_reason": res.stopped_reason,
            "steps": res.steps,
        })
    areas_sorted = sorted(areas)
    total = len(areas_sorted)
    ccdf: List[Tuple[Fraction, Fraction]] = []
    if total:
        distinct = sorted(set(areas_sorted))
        import bisect
        for a in distinct:
            idx = bisect.bisect_left(areas_sorted, a)
            ccdf.append((a, Fraction(total - idx, total)))
    hist = _dyadic_histogram(areas_sorted)
    return {
        "seed": seed,
        "config": {"n": n, "trials": trials, "denom_bound": denom_bound,
                   "max_steps": max_steps},
        "event_count": total,
        "areas": areas_sorted,
        "ccdf": ccdf,
        "histogram": hist,
        "hill": hill_estimate(areas_sorted),
        "trials": per_trial,
    }


def _dyadic_histogram(areas: Sequence[Fraction], bins: int = 16) -> list:
    if not areas:
        return []
    hi = max(areas)
    if hi == 0:
        return []
    out = []
    for k in range(bins):
        lo_edge = hi * Fraction(k, bins)
        hi_edge = hi * Fraction(k + 1, bins)
        count = sum(1 for a in areas if lo_edge < a <= hi_edge or (k == 0 and a == 0))
        out.append({"lo": lo_edge, "hi": hi_edge, "count": count})
    return out
