"""Level-set polygons, corner nice-ification by blow-up sequences, the verge
construction of smooth boundary-hugging curves, and the coarse smooth
approximation of a wave dynamic.

The constructions follow the existence proofs but pin every constant by an
exact certificate: each corner cut carries a margin certificate (the cut
affine strictly exceeds the series outside the corner neighborhood), each
multiplier is the least that certifies, in closed form, mediant insertion
repairs adjacent multiplied sides, and the coarsening step size halves until
every intermediate curve certifies smooth or nodal with no face contraction.

The region certificates are exact by one fact: a concave function on a
polygon takes its minimum at a vertex, and a convex one its maximum
(Rockafellar, *Convex Analysis*, section 32).  A series is affine on each
cell of its linearity complex, so f - g is concave on each cell of g and
convex on each cell of f, and every bound below reads finitely many
vertices of cells clipped in integers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, List, Optional, Sequence

from . import exactlp as lp
from .exactlp import Point, Vec, cross, dot
from .geometry import (EmptyInterior, GeometryError, HalfPlane, QPolygon,
                       is_unimodular, primitive, xgcd)
from .series import (SeriesError, Support, TropicalSeries, _clip,
                     add_monomial, evaluate, is_nice, nice_degrees,
                     quasi_degree, zero_series)
from .curve import classify_vertex, curves_within, extract_curve
from .wave import STABILIZED, WaveEvent, run_dynamics, wave


class RefineError(Exception):
    pass


class EmptyLevelSet(RefineError):
    pass


class HypothesisViolated(RefineError):
    pass


class EpsilonTooLarge(RefineError):
    pass


class CertificationFailed(RefineError):
    def __init__(self, message, step=None):
        super().__init__(message)
        self.step = step


@dataclass(frozen=True)
class BlowupStep:
    corner_apex: Point
    direction: Vec          # primitive direction of the cut
    multiplier: int         # the cut is made with respect to multiplier*direction
    depth: Fraction         # lattice distance of the new side from the apex


@dataclass
class CoarsenPlan:
    M: Fraction                     # rational lower bound for the minimal point-curve distance
    h: Fraction
    decremented: List[Fraction]     # e_k - M*h, all positive

    def total_change(self) -> Fraction:
        return self.M * self.h * len(self.decremented)


# -- level sets ---------------------------------------------------------------


def level_set_polygon(f: TropicalSeries, eps: Fraction) -> QPolygon:
    """{z : f >= eps}: the intersection of the monomial half-planes at level
    eps, a Q-polygon strictly inside the domain."""
    eps = Fraction(eps)
    if eps <= 0:
        raise RefineError("eps must be positive")
    zero_coeff = f.support.get((0, 0))
    if zero_coeff is not None and zero_coeff < eps:
        raise EmptyLevelSet("eps exceeds the max of the series")
    hps = [HalfPlane(v, a - eps) for v, a in f.support.items() if v != (0, 0)]
    try:
        return QPolygon(hps + list(f.domain.halfplanes))
    except GeometryError as exc:
        raise EmptyLevelSet(str(exc)) from exc


def level_shift_check(domain: QPolygon, points: Sequence[Point],
                      eps: Fraction) -> bool:
    """Verify f_{domain,P} = f_{level set,P} + eps on the level set by two
    independent dynamics runs, and f_{domain,P} <= eps off it.

    Both are exact: f_{domain,P} - f_{level,P} is concave on each cell of the
    inner series and convex on each cell of the outer one, so its min and
    max on the level set are vertex values (`_gap_range`), and the outer
    series is affine on each cell cut by a removed piece
    (`_at_most_outside`)."""
    eps = Fraction(eps)
    points = [(Fraction(p[0]), Fraction(p[1])) for p in points]
    if not points:
        return True
    big = run_dynamics(zero_series(domain), points)
    if big.stopped_reason != STABILIZED:
        raise RefineError("outer dynamics did not stabilize")
    for p in points:
        # f(p) = eps puts p on the boundary of the level set
        if evaluate(big.final, p) <= eps:
            raise HypothesisViolated(f"f(p) <= eps at {p}")
    inner_poly = level_set_polygon(big.final, eps)
    small = run_dynamics(zero_series(inner_poly), points)
    if small.stopped_reason != STABILIZED:
        raise RefineError("inner dynamics did not stabilize")
    low, high = _gap_range(big.final, small.final)
    return low == high == eps and _at_most_outside(big.final, inner_poly, eps)


# -- nice-ification -----------------------------------------------------------


def _region_values(f: TropicalSeries, cuts):
    """Each cell of f cut by the integer half-planes ``cuts`` (A, B, C),
    A x + B y + C >= 0, as (vertex, f there) pairs, cell by cell; a vertex
    shared by cells repeats.

    The cells are f's integer ones, clipped in homogeneous points, so the
    pairs hold every vertex of each region (a cell of f and the cuts
    intersected) and nothing outside it.  f equals the cell's monomial on
    its closed cell, which gives the value.
    """
    for v, cell in f._int_complex().hcells.items():
        (v0, v1), a = v, f.support[v]
        for X, Y, W in _clip(cell, cuts):
            z = (Fraction(X, W), Fraction(Y, W))
            yield z, Fraction(v0 * X + v1 * Y, W) + a


def _gap_range(f: TropicalSeries, g: TropicalSeries) -> tuple[Fraction, Fraction]:
    """The exact min and max of f - g on g's domain, which lies in f's.

    On a cell of g, f - g is f minus an affine function, concave, so its
    min is at a cell vertex: the min over g's complex vertices.  On a cell
    of f, f - g is convex, so its max is at a vertex of that cell clipped
    by g's domain."""
    low = min(evaluate(f, z) - evaluate(g, z) for z in g.complex_vertices())
    high = max(fz - evaluate(g, z)
               for z, fz in _region_values(f, g.domain.int_constraints()))
    return low, high


def _at_most_outside(f: TropicalSeries, sub: QPolygon, level: Fraction) -> bool:
    """f <= level on f's domain off the subpolygon ``sub``.

    Off sub is the union of the pieces where one of sub's own half-planes
    fails, and f is affine on each cell cut by such a piece, so checking
    the vertices of those regions is exact."""
    own = set(f.domain.halfplanes)
    return not any(
        fz > level
        for hp, (A, B, C) in zip(sub.halfplanes, sub.int_constraints())
        if hp not in own
        for _, fz in _region_values(f, [(-A, -B, -C)]))


def _margin_points(f: TropicalSeries, apex: Point,
                   eps: Fraction) -> list[tuple[Point, Fraction]]:
    """Vertices of (f's domain minus ball) refined by the cells of f, with
    the series values; an affine exceeds f on the region iff it does at
    these.  The complement of the L-infinity ball is covered by four
    half-planes."""
    cx, cy = apex
    pts: dict = {}
    for extra in (((-1, 0), cx - eps), ((1, 0), -(cx + eps)),
                  ((0, -1), cy - eps), ((0, 1), -(cy + eps))):
        for z, fz in _region_values(f, lp.int_constraints([extra])):
            pts.setdefault(z, fz)
    return list(pts.items())


def _least_multiplier(pts, v: Vec, apex: Point,
                      shift: Fraction = Fraction(0)) -> tuple[int, Fraction]:
    """The least m >= 1 with m * (d_z - shift) > f_z at every certified
    point z, where d_z = v.(z - apex), and its margin
    min_z (m * d_z - f_z).

    Each point asks m > f_z / (d_z - shift), so m is one more than the
    largest floor of those ratios.  A point with d_z <= shift, where
    f_z >= 0, admits no m, and neither does an m above 10000."""
    base = dot(v, apex)
    ds = [(dot(v, z) - base, fz) for z, fz in pts]
    if all(d > shift for d, _ in ds):
        m = max([1] + [math.floor(fz / (d - shift)) + 1 for d, fz in ds])
        if m <= 10000:
            return m, min(m * d - fz for d, fz in ds)
    raise CertificationFailed("no multiplier clears the apex" if shift
                              else "no multiplier certifies the cut")


def _unimodular_fan(u1: Vec, u2: Vec) -> list[Vec]:
    """Primitive directions strictly between u1 and u2 (cross(u1,u2) > 0)
    making every adjacent pair unimodular (minimal continued-fraction fan)."""
    d = cross(u1, u2)
    if d <= 0:
        raise RefineError(f"fan directions {u1}, {u2} are not in CCW order")
    if d == 1:
        return []
    # w0 with cross(u1, w0) = 1, slid into the open cone
    g, s, t = xgcd(u1[0], u1[1])
    if g != 1:
        raise RefineError(f"fan direction {u1} is not primitive")
    w0 = (-t, s)  # cross(u1, w0) = s*u1[0] + t*u1[1] = g = 1
    c0 = cross(w0, u2)
    shift = -((c0 - 1) // d)  # smallest t with c0 + t*d >= 1
    w = (w0[0] + shift * u1[0], w0[1] + shift * u1[1])
    if cross(u1, w) != 1 or cross(w, u2) < 1:
        raise RefineError(f"fan step {w} leaves the cone of {u1}, {u2}")
    return [w] + _unimodular_fan(w, u2)


def make_nice(poly: QPolygon, f: TropicalSeries, eps: Fraction
              ) -> tuple[QPolygon, TropicalSeries, list[BlowupStep]]:
    """Blow up corners so the polygon becomes unimodular and the series nice,
    changing the series only inside the eps-neighborhoods of the corners.

    Per corner: the minimal unimodular fan is inserted; each direction's
    multiplier is the smallest with a positive steepness margin (the cut
    affine exceeds f outside the corner ball); adjacent multiplied sides are
    separated by mediants until the quasi-degree is nice.  Already-nice
    input returns unchanged with no steps.
    """
    eps = Fraction(eps)
    if eps <= 0:
        raise RefineError("eps must be positive")
    if is_unimodular(poly) and is_nice(f):
        return poly, f, []
    corners = poly.corners()
    for a in range(len(corners)):
        for b in range(a + 1, len(corners)):
            pa, pb = corners[a].apex, corners[b].apex
            if max(abs(pa[0] - pb[0]), abs(pa[1] - pb[1])) <= 2 * eps:
                raise EpsilonTooLarge("corner neighborhoods overlap")
    degrees = quasi_degree(f)
    current = poly
    terms: Support = dict(f.support)
    steps: list[BlowupStep] = []
    for corner in corners:
        n1, n2 = corner.normals
        if cross(n1, n2) < 0:
            n1, n2 = n2, n1
        needs_fan = abs(cross(n1, n2)) != 1
        needs_split = degrees[primitive(n1)] > 1 and degrees[primitive(n2)] > 1
        if not needs_fan and not needs_split:
            continue
        pts = _margin_points(f, corner.apex, eps)
        fan = _unimodular_fan(n1, n2)
        if not fan and needs_split:
            fan = [primitive((n1[0] + n2[0], n1[1] + n2[1]))]
        entries = [(v,) + _least_multiplier(pts, v, corner.apex) for v in fan]
        # mediant repair: no two adjacent sides may both have multiplier > 1;
        # a mediant lies strictly between its pair, so inserting it between
        # them keeps the fan in CCW order
        for _ in range(64):
            seq = ([(n1, degrees[primitive(n1)])]
                   + [(v, m) for v, m, _ in entries]
                   + [(n2, degrees[primitive(n2)])])
            bad = None
            for i in range(len(seq) - 1):
                if seq[i][1] > 1 and seq[i + 1][1] > 1:
                    bad = i
                    break
            if bad is None:
                break
            u, w = seq[bad][0], seq[bad + 1][0]
            med = primitive((u[0] + w[0], u[1] + w[1]))
            entries.insert(bad, (med,) + _least_multiplier(pts, med, corner.apex))
        else:
            raise CertificationFailed("mediant repair did not terminate")

        # sequential blow-ups: each cut removes exactly the apex of the
        # current corner containing its direction, with a depth below both
        # the next vertex along v and the steepness margin
        for v, m, mg in entries:
            vals = sorted(dot(v, w) - dot(v, corner.apex)
                          for w in current.vertices)
            a0 = vals[0]
            bigger = [x for x in vals if x > a0]
            if not bigger:
                raise CertificationFailed("no room to cut corner")
            gap = bigger[0] - a0
            if mg / m <= a0:
                m, mg = _least_multiplier(pts, v, corner.apex, a0)
            depth = a0 + min(gap, mg / m - a0, eps / 4) / 2
            w = (m * v[0], m * v[1])
            offset = dot(w, corner.apex) + m * depth
            cut = HalfPlane(w, -offset)
            try:
                current = QPolygon(list(current.halfplanes) + [cut])
            except GeometryError as exc:
                raise EpsilonTooLarge(str(exc)) from exc
            if cut.normalized() not in current.halfplanes:
                raise CertificationFailed(f"cut along {v} is not essential")
            coeff = -offset
            terms[w] = min(terms[w], coeff) if w in terms else coeff
            steps.append(BlowupStep(corner.apex, v, m, depth))

    result = TropicalSeries(current, terms)
    if not is_unimodular(current):
        raise CertificationFailed("blow-up polygon is not unimodular")
    if not is_nice(result):
        raise CertificationFailed("blow-up result is not nice")
    _spot_check_equal_outside_balls(f, result, [c.apex for c in corners], eps)
    return current, result, steps


def _spot_check_equal_outside_balls(f: TropicalSeries, g: TropicalSeries,
                                    centers: Sequence[Point], eps: Fraction):
    """The margin certificates prove f = g outside the corner balls; this
    re-checks exactly at the vertices of g's linearity complex."""
    for z in g.complex_vertices():
        if any(max(abs(z[0] - c[0]), abs(z[1] - c[1])) < eps for c in centers):
            continue
        if not f.domain.contains(z):
            continue
        if evaluate(f, z) != evaluate(g, z):
            raise CertificationFailed(f"series differ outside corner balls at {z}")


def nice_restrict(poly: QPolygon, waves: Sequence[Point], eps: Fraction
                  ) -> tuple[QPolygon, TropicalSeries, dict]:
    """Shrink the polygon by corner blow-ups so the composite wave result is
    nice, with the three inequalities of the restriction lemma, each
    checked exactly: the restricted composite is nice; G0_poly <= eps off
    the subpolygon (``outside_ok``, at the vertices of each removed piece
    refined by the cells of G0_poly, where G0_poly is affine); and
    0 <= G0_poly - G0_sub < eps on the subpolygon (``gap_ok``).  The gap is
    concave on each cell of G0_sub and convex on each cell of G0_poly, so
    its min and max are vertex values (`_gap_range`)."""
    eps = Fraction(eps)
    waves = [(Fraction(p[0]), Fraction(p[1])) for p in waves]
    f = zero_series(poly)
    for p in waves:
        f, _ = wave(f, p)
    ball = eps / 4
    for attempt in range(16):
        try:
            sub, _, steps = make_nice(poly, f, ball)
        except (EpsilonTooLarge, CertificationFailed):
            ball /= 2
            continue
        if not all(sub.contains(p, strict=True) for p in waves):
            ball /= 2
            continue
        g = zero_series(sub)
        for p in waves:
            g, _ = wave(g, p)
        if not is_nice(g):
            ball /= 2
            continue
        low, high = _gap_range(f, g)
        if low >= 0 and high < eps and _at_most_outside(f, sub, eps):
            return sub, g, {"nice": True, "gap_ok": True, "outside_ok": True,
                            "ball": ball, "blowups": len(steps)}
        ball /= 2
    raise CertificationFailed("nice_restrict found no certified blow-up size")


# -- the verge construction ----------------------------------------------------


def verge_polynomial(poly: QPolygon, degrees: Dict[Vec, int],
                     eps: Fraction) -> TropicalSeries:
    """A nice series with the given quasi-degree whose curve is smooth and
    hugs the boundary within eps.

    Per side with degree d the construction places d parallel hairs:
    min over l=1..d of ( l * l_S + (d-l)(d-l+1)/2 * delta ),
    so the l = d term vanishes exactly on the side and the envelope
    transitions d -> d-1 -> ... -> 1 -> cap occur at strictly increasing
    distances (the transition between hairs l and l-1 sits at (d-l+1)*delta
    in side units); the whole thing is capped at eps/2.  delta halves until
    the curve certifies smooth and boundary-hugging.
    """
    eps = Fraction(eps)
    if eps <= 0:
        raise RefineError("eps must be positive")
    if not is_unimodular(poly):
        raise RefineError("polygon must be unimodular")
    ndeg = {primitive(n): int(m) for n, m in degrees.items()}
    if set(ndeg) != {hp.n for hp in poly.halfplanes}:
        raise RefineError("degree map must cover exactly the sides")
    if any(m < 1 for m in ndeg.values()):
        raise RefineError("degrees must be positive")
    if not nice_degrees(poly, ndeg):
        raise RefineError("quasi-degree is not nice")
    # eps below the inradius: an eroded polygon must keep interior
    eroded = []
    for hp in poly.halfplanes:
        nn = dot(hp.n, hp.n)
        s = math.isqrt(nn)
        r_up = s if s * s == nn else s + 1  # ceil(|n|)
        eroded.append(HalfPlane(hp.n, hp.a - eps * r_up))
    try:
        QPolygon(eroded)
    except EmptyInterior:
        raise RefineError("eps must be below the inradius")

    delta = eps / 4
    for attempt in range(24):
        terms: Support = {}
        for hp in poly.halfplanes:
            d = ndeg[hp.n]
            for l in range(1, d + 1):
                coeff = l * hp.a + Fraction((d - l) * (d - l + 1), 2) * delta
                v = (l * hp.n[0], l * hp.n[1])
                if v not in terms or coeff < terms[v]:
                    terms[v] = coeff
        cap = Fraction(eps, 2)
        terms[(0, 0)] = min(cap, terms.get((0, 0), cap))
        try:
            g = TropicalSeries(poly, terms)
        except SeriesError:
            delta /= 2
            continue
        if quasi_degree(g) != ndeg:
            delta /= 2
            continue
        curve = extract_curve(g)
        if all(classify_vertex(curve, z).is_smooth
               for z in curve.interior_vertices()):
            if _max_vertex_boundary_dist2(curve, poly) <= eps * eps:
                return g
        delta /= 2
    raise CertificationFailed("no delta small enough for a smooth verge curve")


def _max_vertex_boundary_dist2(curve, poly: QPolygon) -> Fraction:
    """The largest squared distance from a curve vertex to the boundary,
    found in integers over one common denominator."""
    sides = [(a, b) for _, a, b in poly.sides()]
    scale = lp.common_scale(list(curve.vertices) + [p for s in sides for p in s])
    isides = [(lp.scaled(a, scale), lp.scaled(b, scale)) for a, b in sides]
    out = (0, 1)
    for z in curve.vertices:
        Z = lp.scaled(z, scale) + (1,)
        near = None
        for a, b in isides:
            num, den = lp.segment_dist2(Z, a, b)
            if near is None or num * near[1] < near[0] * den:
                near = (num, den)
        if near[0] * out[1] > out[0] * near[1]:
            out = near
    return Fraction(out[0], out[1] * scale * scale)


# -- coarse smooth approximation ------------------------------------------------


def _min_point_curve_dist2(points: Sequence[Point], curves) -> Optional[Fraction]:
    """The least positive squared distance from a point to a curve segment,
    found in integers over one common denominator; None if there is none."""
    segs = [s for curve in curves for s in curve.segments()]
    scale = lp.common_scale(list(points) + [p for s in segs for p in s])
    isegs = [(lp.scaled(a, scale), lp.scaled(b, scale)) for a, b in segs]
    best: Optional[tuple[int, int]] = None
    for p in points:
        P = lp.scaled(p, scale) + (1,)
        for a, b in isegs:
            num, den = lp.segment_dist2(P, a, b)
            if num > 0 and (best is None or num * best[1] < best[0] * den):
                best = (num, den)
    return None if best is None else Fraction(best[0], best[1] * scale * scale)


def _certify_smooth_or_nodal(f: TropicalSeries, step: int):
    curve = extract_curve(f)
    for z in curve.interior_vertices():
        c = classify_vertex(curve, z)
        if not (c.is_smooth or c.is_nodal):
            raise CertificationFailed(
                f"vertex {z} is {c.kind} ({c.detail})", step=step)


def _certify_family(f: TropicalSeries, v: Vec, c: Fraction, step: int,
                    samples: int = 3):
    """Sampled members of the one-wave family stay smooth or nodal."""
    for i in range(1, samples + 1):
        t = Fraction(i, samples + 1)
        _certify_smooth_or_nodal(add_monomial(f, v, c * t), step=step)


def coarsen_dynamics(g: TropicalSeries, events: Sequence[WaveEvent],
                     eps: Fraction) -> tuple[CoarsenPlan, TropicalSeries, dict]:
    """Replay a wave dynamic with decremented increments e_k - M*h so every
    intermediate curve (and sampled members of each one-wave family) is
    smooth or nodal, no face contracts, and the final curve is eps-close to
    the undecremented one.

    M is a rational lower bound for the minimal nonzero distance between the
    wave points and all intermediate curves (exact point-to-segment
    distances); h halves until every certificate passes.
    """
    eps = Fraction(eps)
    events = [ev for ev in events if ev.increment > 0]  # identity steps drop
    if not events:
        return CoarsenPlan(Fraction(0), Fraction(0), []), g, {"steps": 0}
    originals = [g]
    f = g
    for ev in events:
        f = add_monomial(f, ev.monomial, ev.increment)
        originals.append(f)
    final_orig = f
    if quasi_degree(g) != quasi_degree(final_orig):
        raise HypothesisViolated("quasi-degrees of g and the result differ")
    pts = [ev.point for ev in events]
    curves = [extract_curve(s) for s in originals]
    d2 = _min_point_curve_dist2(pts, curves)
    if d2 is None:
        raise HypothesisViolated("no positive point-curve distance")
    M = lp.floor_sqrt_fraction(d2)
    if M == 0:
        M = d2  # d2 < 1 is itself a valid smaller lower bound
    m = len(events)
    h = min(eps / (2 * m * M), min(ev.increment for ev in events) / (2 * M))
    last_error: Optional[CertificationFailed] = None
    for attempt in range(20):
        try:
            plan = CoarsenPlan(M, h, [ev.increment - M * h for ev in events])
            if any(e <= 0 for e in plan.decremented):
                raise CertificationFailed("nonpositive decremented increment")
            if plan.total_change() >= eps:
                raise CertificationFailed("total change exceeds eps")
            current = g
            _certify_smooth_or_nodal(current, step=0)
            for k, ev in enumerate(events):
                _certify_family(current, ev.monomial, plan.decremented[k], k)
                nxt = add_monomial(current, ev.monomial, plan.decremented[k])
                if ev.monomial not in nxt.support:
                    raise CertificationFailed("face contracted", step=k)
                _certify_smooth_or_nodal(nxt, step=k + 1)
                current = nxt
            if not curves_within(current, final_orig, eps / 2):
                raise CertificationFailed("final curve is not eps-close")
            return plan, current, {"steps": m, "attempts": attempt + 1}
        except CertificationFailed as exc:
            last_error = exc
            h /= 2
    raise last_error or CertificationFailed("no step size h certified the plan")
