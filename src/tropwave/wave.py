"""The wave operator, the multi-point dynamic, perestroika scans along the
continuous one-wave family, and the avalanche-statistics harness.

A single wave at an interior point p raises the coefficient of the monomial
dominating at p by exactly the amount that makes the series non-smooth at p;
the avalanche is the strict-increase region, which equals the face of p
before the wave.  Iterating waves over a finite point set converges to the
pointwise-minimal series non-smooth at every point; on rational data the
increments live on a fixed grid so the iteration stabilizes exactly.

The increment is the runner-up of u -> u.p + c_u over all of Z^2, found by
integer per-line minimisation on the canonical coefficients, read off the
support and the domain's vertices with no complex: a convex objective, a
bounding polygon from a first bound, and a binary search on each lattice
line crossing it, along the direction with the fewest such lines.  The
cost does not depend on the distance from p to the boundary.
"""

from __future__ import annotations

import bisect
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, List, Optional, Sequence, Tuple

from . import exactlp as lp
from .exactlp import Point, Vec, dot, vsub
from .geometry import QPolygon, gcd2, xgcd
from .series import (OutsideDomain, TropicalSeries, add_monomial, clamp,
                     distance_function, evaluate, tropical_product,
                     zero_series)
from .curve import (attaining_monomials, classify_vertex, extract_curve,
                    lattice_length)


class WaveError(Exception):
    pass


class UnclassifiableSide(WaveError):
    pass


class SamplingFailed(WaveError):
    """The polygon has too few interior points on the sampling grid."""


STABILIZED = "Stabilized"
TOLERANCE = "ToleranceReached"
STEP_LIMIT = "StepLimit"

# The one default step cap of the dynamic, for the library and the CLI alike
MAX_STEPS = 10000


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

    It reads coefficients, not the complex.  With q the denominator of p
    and S the lcm of the coefficient denominators and the domain vertices'
    W, G(u) = q S (u.p + c_u(f)) is an integer: c_u(f) is a_u for u in
    f's support, and for any other u the max over the domain vertices z of
    -u.z (`series.canonical_coefficient`), so G(u) is the max of the
    domain-vertex rows (a, b), a u0 + b u1 with (a, b) = q S (p - z).  G is
    convex, as c_u(f) = max over z of (f(z) - u.z) is, and `exclude` is
    its lattice minimiser.  A first bound B from the four lattice
    neighbours of `exclude` confines every competitor to the polygon R
    where the domain-vertex rows stay <= B, as f vanishes there.  R is
    cut into lattice lines along the direction that crosses it the fewest
    times (near a side: that side's normal, so the count does not grow as
    p nears the boundary), and G, convex on each line, is minimised there
    by a binary search.  All of it is integer arithmetic.
    """
    P0, P1, q = lp.homogeneous(p)
    S = math.lcm(*[a.denominator for a in f.support.values()],
                 *[W for _, _, W in f.domain.hvertices])
    P0, P1 = P0 * S, P1 * S
    lifted = {u: a.numerator * (q * S // a.denominator)
              for u, a in f.support.items()}
    vrows = [(P0 - q * X * (S // W), P1 - q * Y * (S // W))
             for X, Y, W in f.domain.hvertices]

    def G(u0, u1):
        c = lifted.get((u0, u1))
        if c is None:
            return max(a * u0 + b * u1 for a, b in vrows)
        return c + P0 * u0 + P1 * u1

    v0, v1 = exclude
    B = min(G(v0 + 1, v1), G(v0 - 1, v1), G(v0, v1 + 1), G(v0, v1 - 1))
    # G(u) <= B implies a u0 + b u1 <= B for every domain-vertex row: the
    # polygon R
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
    # per domain-vertex row: slope along e, and value at e'
    vslopes = [(a * e0 + b * e1, a * s0 + b * s1) for a, b in vrows]
    k_v = v0 * e1 - v1 * e0
    t_v = s0 * v1 - s1 * v0
    for k in range(k_lo, k_hi + 1):
        def line(t):
            return G(k * s0 + t * e0, k * s1 + t * e1)
        if k == k_v:
            # convex on the line with its minimum at exclude
            B = min(B, line(t_v - 1), line(t_v + 1))
            continue
        # every u on this line with G(u) <= B has t in [lo, hi] (R for the
        # current B: d t <= B - k w; R is bounded, so both signs of d occur)
        lo = max(-((B - k * w) // -d) for d, w in vslopes if d < 0)
        hi = min((B - k * w) // d for d, w in vslopes if d > 0)
        B = min(B, _line_min(line, lo, hi))
    return Fraction(B, q * S)


def _line_min(g: Callable[[int], int], lo: int, hi: int) -> int:
    """The least of the convex function ``g`` over the integers
    lo <= t <= hi (g(lo) if lo > hi): a binary search for the first t with
    g(t + 1) >= g(t) finds it."""
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
    if not f.domain.contains(p, strict=True):
        raise OutsideDomain(f"wave point {p[0]},{p[1]} must be interior")
    att = attaining_monomials(f, p)
    v = att[0]
    if len(att) > 1:
        return f, WaveEvent(p, v, Fraction(0), Fraction(0), step)
    rest = _second_min_at(f, p, v)
    c = rest - (dot(v, p) + f.support[v])
    if c <= 0:
        raise WaveError(f"nonpositive wave increment {c} at {p[0]},{p[1]}")
    area = lp.polygon_area(f.cells().hcells[v])
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
                 max_steps: int = MAX_STEPS) -> DynamicsResult:
    """Iterate waves per the schedule until exact stabilization, a sweep with
    total increment below `tol`, or the step limit.  Raises WaveError for a
    negative `tol`, which no sweep total could fall below."""
    if tol is not None and tol < 0:
        raise WaveError(f"tolerance {tol} is negative")
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


def wave_family_scan(f: TropicalSeries, p: Point) -> PerestroikaReport:
    """Analyze the curve family of Add^{c t} for t in [0, 1] at the wave at p.

    For each side of the face of p: the neighbor exponents (n1, n2) in the
    normalized coordinates of the local model min(0, y, x + n1 y, -x + n2 y + 1),
    the side-length derivative sign (shrinking iff n1 + n2 < 2), and the
    parameter t where the side length reaches zero.  In the model, raising
    v by c t leaves a side of lattice length l at l - c t (2 - n1 - n2), so
    a shrinking side vanishes at t = l / (c (2 - n1 - n2)) if that is at
    most 1.  Events are classified per the face-contraction trichotomy.

    The face of p survives for every t < 1, so no member is replayed: at p,
    v lies c below the runner-up, raised by c t < c it stays strictly below,
    and the raise can only lift the other canonical coefficients.
    """
    p = (Fraction(p[0]), Fraction(p[1]))
    g, ev = wave(f, p)
    c = ev.increment
    if c == 0:
        return PerestroikaReport(c, [], [])
    v = ev.monomial
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
        if gcd2(d) != 1:
            raise UnclassifiableSide(f"side {v}-{w} has weight > 1")
        T = _unimodular_map_to(d)
        ta = _apply(T, vsub(u_a, v))
        tb = _apply(T, vsub(u_b, v))
        if {ta[0], tb[0]} != {1, -1}:
            raise WaveError("smooth endpoints must give x-components +-1")
        n1 = ta[1] if ta[0] == 1 else tb[1]
        n2 = tb[1] if ta[0] == 1 else ta[1]

        vanish: Optional[Fraction] = None
        if n1 + n2 < 2:
            t_star = lattice_length(e.a, e.b) / (c * (2 - n1 - n2))
            if t_star <= 1:
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
    # a cell holds only its extreme points: fewer than three, no area
    if len(face1) < 3:
        kind = "FaceCollapsedToPoint" if len(face1) <= 1 else "FaceCollapsedToInterval"
        events = [e for e in events if e.t < 1] + [FamilyEvent(Fraction(1), kind, None)]
    events.sort(key=lambda e: e.t)
    return PerestroikaReport(c, sides_info, events)


# -- avalanche statistics harness --------------------------------------------


_MAX_DRAWS = 100000


def sample_interior_points(poly: QPolygon, n: int, rng: random.Random,
                           denom_bound: int = 64) -> List[Point]:
    """n distinct interior points on the dyadic grid (seeded, deterministic).

    The grid's interior points are counted first, which draws nothing from
    rng, and SamplingFailed is raised at once if there are fewer than n.
    Points are drawn by rejection from the bounding box's grid.  Only if
    _MAX_DRAWS draws leave points missing, where interior points are rare
    in the box, is each remaining point drawn by its rank among the
    interior points (`_grid_point`), which cannot fail; so an input that
    rejection samples keeps its rng stream and its draws."""
    xs = [v[0] for v in poly.vertices]
    ys = [v[1] for v in poly.vertices]
    x0, y0 = min(xs), min(ys)
    w, h = max(xs) - x0, max(ys) - y0
    sides = _grid_sides(poly, (x0, y0), (w, h), denom_bound)
    have = _columns_below(sides, denom_bound)
    if have < n:
        raise SamplingFailed(
            f"the bounding box's {denom_bound}-step grid has {have} interior "
            f"points, fewer than {n}")
    lines = [(a, b, c) for a, b, c, _, _ in sides]
    picked: dict = {}   # grid points in draw order
    draws = 0
    while len(picked) < n and draws < _MAX_DRAWS:
        draws += 1
        i = rng.randrange(denom_bound + 1)
        j = rng.randrange(denom_bound + 1)
        if all(a * i + b * j + c > 0 for a, b, c in lines):
            picked[i, j] = None
    while len(picked) < n:
        picked[_grid_point(sides, denom_bound, rng.randrange(have))] = None
    return [(x0 + Fraction(i, denom_bound) * w,
             y0 + Fraction(j, denom_bound) * h) for i, j in picked]


def _grid_sides(poly: QPolygon, corner: Point, size: Point,
                steps: int) -> list[tuple[int, int, int, int, int]]:
    """poly's sides on the grid corner + (i, j) * size / steps, 0 <= i, j <=
    steps, that spans its bounding box: (a, b, c, lo, hi) per side,
    counterclockwise, with a i + b j + c > 0 strictly inside the side and
    lo..hi the columns 0 < i < steps that the side bounds above or below.

    A side from grid point (i0, j0) to (i1, j1) bounds the columns
    (i0, i1] or (i1, i0], so each such column has exactly one side above
    and one below; a vertical side bounds none."""
    m = lp.common_scale([corner, size])
    (X0, Y0), (WX, WY) = lp.scaled(corner, m), lp.scaled(size, m)
    # the vertices, counterclockwise, as grid points (i, j) / q with q > 0
    grid = [((X * m - X0 * W) * steps * WY, (Y * m - Y0 * W) * steps * WX,
             W * WX * WY) for X, Y, W in poly.hvertices]
    sides = []
    for k, (i1, j1, q1) in enumerate(grid):
        i0, j0, q0 = grid[k - 1]
        # det(grid[k - 1], grid[k], (i, j, 1)), positive inside
        f0, f1 = i0 // q0, i1 // q1
        sides.append((j0 * q1 - q0 * j1, q0 * i1 - i0 * q1, i0 * j1 - j0 * i1,
                      min(f0, f1) + 1, min(max(f0, f1), steps - 1)))
    return sides


def _columns_below(sides, k: int) -> int:
    """How many grid points of the columns 0 < i < k lie strictly inside
    the polygon with these `_grid_sides`.

    Column i holds ceil(U(i)) - floor(L(i)) - 1 of them, for U and L the
    boundary above and below.  A side is U = (a i + c) / -b or
    L = -(a i + c) / b over its columns, so by ceil(x) = -floor(-x) it adds
    one floor sum."""
    total = 1 - k
    for a, b, c, lo, hi in sides:
        hi = min(hi, k - 1)
        if lo <= hi:
            total -= _floor_sum(hi - lo + 1, abs(b), -a, -(a * lo + c))
    return total


def _grid_point(sides, steps: int, r: int) -> tuple[int, int]:
    """The interior grid point (i, j) of rank r, 0 <= r < the count, with
    the points ordered by column and then by row.  Its column is the last
    whose prefix count (`_columns_below`) is at most r, found by bisection;
    in that column the interior starts one row above floor(L(i))."""
    lo, hi = 1, steps - 1
    while lo < hi:
        mid = (lo + hi + 1) // 2
        if _columns_below(sides, mid) <= r:
            lo = mid
        else:
            hi = mid - 1
    low = max(-(a * lo + c) // b for a, b, c, _, _ in sides if b > 0)
    return lo, low + 1 + r - _columns_below(sides, lo)


def _floor_sum(n: int, m: int, a: int, b: int) -> int:
    """sum of floor((a i + b) / m) for 0 <= i < n, m > 0, by Euclid-like
    recursion on (m, a) (Concrete Mathematics, 3.5): O(log m) steps."""
    qa, a = divmod(a, m)
    qb, b = divmod(b, m)
    total = n * (n - 1) // 2 * qa + n * qb
    top = a * n + b
    if top < m:
        return total
    return total + _floor_sum(top // m, a, m, top % m)


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
                         max_steps: int = MAX_STEPS) -> dict:
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
        for a in distinct:
            idx = bisect.bisect_left(areas_sorted, a)
            ccdf.append((a, Fraction(total - idx, total)))
    hist = _histogram(areas_sorted)
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


_HISTOGRAM_BINS = 16


def _histogram(areas: Sequence[Fraction]) -> list:
    """Counts of the positive areas in `_HISTOGRAM_BINS` equal bins
    (lo, hi] up to the largest."""
    if not areas:
        return []
    hi = max(areas)
    out = []
    for k in range(_HISTOGRAM_BINS):
        lo_edge = hi * Fraction(k, _HISTOGRAM_BINS)
        hi_edge = hi * Fraction(k + 1, _HISTOGRAM_BINS)
        count = sum(1 for a in areas if lo_edge < a <= hi_edge)
        out.append({"lo": lo_edge, "hi": hi_edge, "count": count})
    return out
