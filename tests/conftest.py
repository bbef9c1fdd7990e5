import math
import random
from fractions import Fraction as F

import pytest
from hypothesis import example, settings

from tropwave import exactlp as lp
from tropwave.exactlp import cross, dot, vsub
from tropwave.geometry import (EmptyInterior, GeometryError, HalfPlane,
                               QPolygon, gcd2)
from tropwave import complex as cplx
from tropwave import series
from tropwave.series import (TropicalSeries, canonical_coefficient,
                             make_series, zero_series)
from tropwave.curve import Edge, TropicalCurve, classify_vertex
from tropwave.wave import (FamilyEvent, PerestroikaReport, UnclassifiableSide,
                           WaveError, _apply, _unimodular_map_to,
                           sample_interior_points, wave)

# Exact arithmetic makes example times vary widely, and a slow host makes
# them drift; a deadline would flake, so none is set.  Derandomized runs
# repeat the same examples every time.
settings.register_profile("tropwave", deadline=None, derandomize=True,
                          max_examples=40)
settings.load_profile("tropwave")


def with_examples(cases):
    """Each case's arguments as a `hypothesis` `@example`."""
    def add(test):
        for args, _ in cases:
            test = example(*args)(test)
        return test
    return add


def unit_square():
    return QPolygon.box(0, 0, 1, 1)


def square13():
    """The worked example min(x, y, 1-x, 1-y, 1/3) on the unit square."""
    return make_series(unit_square(),
                       {(1, 0): 0, (0, 1): 0, (-1, 0): 1, (0, -1): 1,
                        (0, 0): F(1, 3)})


def pentagon():
    """[0,2]^2 with the top-right corner cut by x + y <= 17/5."""
    return QPolygon.from_vertices([(0, 0), (2, 0), (2, F(7, 5)),
                                   (F(7, 5), 2), (0, 2)])


_SHAPES = [
    [(0, 0), (1, 0), (1, 1), (0, 1)],
    [(0, 0), (2, 0), (2, 2), (0, 2)],
    [(0, 0), (3, 0), (3, 1), (0, 1)],
    [(0, 0), (2, 0), (0, 1)],
    [(0, 0), (1, 0), (2, 1), (1, 2), (0, 1)],
    [(0, 0), (2, 0), (2, F(7, 5)), (F(7, 5), 2), (0, 2)],
    [(0, 0), (2, 0), (3, 2), (1, 3)],
]


def random_polygon(rng: random.Random) -> QPolygon:
    shape = rng.choice(_SHAPES)
    dx, dy = rng.randrange(-2, 3), rng.randrange(-2, 3)
    k = rng.choice([1, 1, 2])
    return QPolygon.from_vertices([(k * (x + dx), k * (y + dy))
                                   for x, y in shape])


def random_points(rng: random.Random, poly: QPolygon, n: int,
                  denom_bound: int = 16):
    return sample_interior_points(poly, n, rng, denom_bound)


def random_series(rng: random.Random, poly: QPolygon, n_waves: int = 2
                  ) -> TropicalSeries:
    """A valid series produced by a few waves from zero."""
    f = zero_series(poly)
    for p in random_points(rng, poly, n_waves):
        f, _ = wave(f, p)
    return f


# -- Fraction references for code the program no longer has -----------------


def ref_polytope_vertices(cons):
    """Vertices (basic feasible points) of the polyhedron given by
    `Fraction` constraints ``(n, a)``, ``n . z + a >= 0``."""
    return [lp.to_point(h) for h in lp.basic_points(lp.int_constraints(cons))]


def ref_complex(domain: QPolygon, support):
    """The fields of a `complex.Complex` built as it was before the side-line
    filter: each cell clipped, then `exactlp.basic_points` on every
    constraint tight at a clip of two or more points, ordered by
    `exactlp.sort_ccw`.  ``support`` is a sorted presentation with
    `Fraction` coefficients."""
    scale = math.lcm(*[a.denominator for a in support.values()])
    alpha = {v: a.numerator * (scale // a.denominator)
             for v, a in support.items()}
    domain_verts = domain.hvertices
    hcells = {}
    for v, av in alpha.items():
        cuts = []
        for w, aw in alpha.items():
            if w == v:
                continue
            A, B, C = scale * (w[0] - v[0]), scale * (w[1] - v[1]), aw - av
            if any(A * X + B * Y + C * W < 0 for X, Y, W in domain_verts):
                cuts.append((A, B, C))
        cell = cplx.clip(domain_verts, cuts)
        if len(cell) <= 1:
            hcells[v] = cell
            continue
        tight = [(A, B, C) for A, B, C in [*domain.int_constraints(), *cuts]
                 if any(A * X + B * Y + C * W == 0 for X, Y, W in cell)]
        hcells[v] = lp.sort_ccw(lp.basic_points(tight))
    hverts = list(dict.fromkeys(h for hs in hcells.values() for h in hs))
    denom = math.lcm(scale, *[h[2] for h in hverts])
    lift = denom // scale
    table = []
    for X, Y, W in hverts:
        X, Y = X * (denom // W), Y * (denom // W)
        table.append((X, Y, min(v[0] * X + v[1] * Y + av * lift
                                for v, av in alpha.items())))
    points = {h: lp.to_point(h) for h in hverts}
    ref = RefComplex({v: [points[h] for h in hs] for v, hs in hcells.items()})
    ref.denom, ref.table, ref.hcells = denom, table, hcells
    ref.vertices = list(points.values())
    return ref


class RefComplex(dict):
    """`ref_complex`'s fields: like a `complex.Complex`, the mapping from
    each monomial to its cell as `Fraction` points, with ``denom``,
    ``table``, ``hcells`` and ``vertices`` as attributes."""


def ref_small_canonical_terms(domain: QPolygon, terms, cx):
    """`series._small_canonical_terms` as it was before a monomial of the
    presentation with a nonempty cell was read off its cell: every
    candidate scans the table of ``cx`` for its canonical coefficient and
    its attaining vertices, whose centroid must be strictly interior.
    Returns the small form with the presentation's side degrees."""
    if min(val for _, _, val in cx.table) < 0:
        raise series.SeriesError("presentation is negative on the domain")
    degrees = series._presentation_side_degrees(domain, terms)
    candidates = series._candidate_hull(degrees)
    domain_cons = domain.int_constraints()
    kept = {}
    for u in candidates:
        u0, u1 = u
        gaps = [val - u0 * X - u1 * Y for X, Y, val in cx.table]
        b = max(gaps)
        sx = sy = count = 0
        for (X, Y, _), gap in zip(cx.table, gaps):
            if gap == b:
                sx += X
                sy += Y
                count += 1
        # the attainers' centroid is (sx, sy) / w
        w = count * cx.denom
        if all(A * sx + B * sy + C * w > 0 for A, B, C in domain_cons):
            kept[u] = F(b, cx.denom)
    return dict(sorted(kept.items())), degrees


def triangle(N: int) -> QPolygon:
    """The triangle with inward normals (N, 1), (-N, 1), (0, -1) and offsets
    0, 2N, 1: apex (1, -N) and top side y = 1 from x = -1/N to 2 + 1/N."""
    return QPolygon([HalfPlane((N, 1), 0), HalfPlane((-N, 1), 2 * N),
                     HalfPlane((0, -1), 1)])


def ref_point_segment_dist2(p, a, b):
    """Exact squared distance from point p to segment [a, b], in
    `Fraction`s."""
    d = vsub(b, a)
    dd = dot(d, d)
    if dd == 0:
        w = vsub(p, a)
        return dot(w, w)
    t = F(dot(vsub(p, a), d), 1) / dd
    if t < 0:
        t = F(0)
    elif t > 1:
        t = F(1)
    q = (a[0] + t * d[0], a[1] + t * d[1])
    w = vsub(p, q)
    return dot(w, w)


def ref_polygon_area(vertices):
    """Shoelace area of a cycle of `Fraction` points, either way round."""
    n = len(vertices)
    if n < 3:
        return F(0)
    s = F(0)
    for i in range(n):
        a, b = vertices[i], vertices[(i + 1) % n]
        s += a[0] * b[1] - b[0] * a[1]
    return abs(s) / 2


def ref_cell_constraints(f: TropicalSeries, v):
    """Half-plane constraints of the closed dominance region of v: the
    domain's, then each ``(w - v) . z + a_w - a_v >= 0`` that a domain vertex
    violates, in support order."""
    cons = f.domain.constraints()
    av = f.support[v]
    for w, aw in f.support.items():
        if w == v:
            continue
        n, a = vsub(w, v), aw - av
        if min(dot(n, z) + a for z in f.domain.vertices) < 0:
            cons.append((n, a))
    return cons


def ref_line_meet(c1, c2):
    """The point where the boundary lines of the `Fraction` constraints
    ``(n, a)`` meet, or None if they are parallel."""
    (n1, a1), (n2, a2) = c1, c2
    det = cross(n1, n2)
    if det == 0:
        return None
    return (F(a2 * n1[1] - a1 * n2[1]) / det, F(a1 * n2[0] - a2 * n1[0]) / det)


def ref_vertices(poly: QPolygon):
    """The vertices of the polygon by `Fraction` arithmetic: every pairwise
    boundary intersection that satisfies each constraint, counterclockwise
    around their centroid from angle 0."""
    cons = poly.constraints()
    pts = []
    for i, c1 in enumerate(cons):
        for c2 in cons[i + 1:]:
            z = ref_line_meet(c1, c2)
            if (z is not None and z not in pts
                    and all(dot(n, z) + a >= 0 for n, a in cons)):
                pts.append(z)
    m = len(pts)
    cx, cy = sum(z[0] for z in pts) / m, sum(z[1] for z in pts) / m
    return [pts[i] for i in lp.angle_order([(x - cx, y - cy) for x, y in pts])]


def ref_sides(poly: QPolygon):
    """Each half-plane with the first and last of the vertices on its line,
    ordered by their dot with (-n1, n0), in `Fraction`s."""
    out = []
    for hp in poly.halfplanes:
        on_line = [v for v in poly.vertices if dot(hp.n, v) + hp.a == 0]
        d = (-hp.n[1], hp.n[0])
        on_line.sort(key=lambda v: dot(d, v))
        out.append((hp, on_line[0], on_line[-1]))
    return out


def ref_corners(poly: QPolygon):
    """Per vertex, the apex and the normals of the half-planes whose lines
    pass through it, in half-plane order, in `Fraction`s."""
    return [(v, tuple(hp.n for hp in poly.halfplanes
                      if dot(hp.n, v) + hp.a == 0))
            for v in poly.vertices]


def ref_int_constraints(poly: QPolygon):
    """n . z + a >= 0 times the denominator of a (n is an integer vector)."""
    return [(hp.n[0] * hp.a.denominator, hp.n[1] * hp.a.denominator,
             hp.a.numerator) for hp in poly.halfplanes]


def ref_values(f: TropicalSeries, z):
    """v . z + a_v for every monomial of f, in support order, in
    `Fraction`s."""
    z = (F(z[0]), F(z[1]))
    return [dot(v, z) + a for v, a in f.support.items()]


def ref_primitive(v):
    """The primitive integer direction of a rational vector by the product
    of its denominators."""
    den = F(v[0]).denominator * F(v[1]).denominator
    x, y = int(v[0] * den), int(v[1] * den)
    g = math.gcd(x, y)
    return (x // g, y // g)


def ref_side_vanishing_multiplier(side_hp, term):
    """If the monomial ``term`` = (v, a) vanishes identically on the side's
    line, its multiplier m >= 0 with exponent m * n(S); otherwise None.
    `series._presentation_side_degrees` asked this for every (term, side)
    pair before it looked each term's direction up among the sides."""
    v, a = term
    n = side_hp.n
    if v == (0, 0):
        return 0 if a == 0 else None
    if cross(v, n) != 0:
        return None
    m, r = divmod(dot(v, n), dot(n, n))
    if r or m <= 0:
        return None
    # vanishing on the line n.z + a_side = 0 means a == m * a_side
    b = side_hp.a
    if a.numerator * b.denominator != m * b.numerator * a.denominator:
        return None
    return m


def ref_presentation_side_degrees(domain: QPolygon, terms):
    """Per side, in half-plane order, the least `ref_side_vanishing_multiplier`
    over the terms; raises `series.BoundaryMismatch` if a side has none."""
    out = {}
    for hp in domain.halfplanes:
        ms = [m for m in (ref_side_vanishing_multiplier(hp, t)
                          for t in terms.items()) if m is not None]
        if not ms:
            raise series.BoundaryMismatch(f"no monomial vanishes on side {hp.n}")
        out[hp.n] = min(ms)
    return out


def ref_envelope_degrees(f: TropicalSeries, v, c):
    """The side degrees of `add_monomial(f, v, c)`, c > 0, read off a finite
    upper envelope of the result: f's support with v raised by c plus, on
    each side where v was the vanishing monomial of least multiplier, the
    next vanishing multiple of the side's normal."""
    a_v = canonical_coefficient(f, v)
    envelope = dict(f.support)
    envelope[v] = a_v + c
    old_degrees = ref_presentation_side_degrees(f.domain, f.support)
    for hp in f.domain.halfplanes:
        m = ref_side_vanishing_multiplier(hp, (v, a_v))
        if m is not None and m == old_degrees[hp.n]:
            nxt = ((m + 1) * hp.n[0], (m + 1) * hp.n[1])
            envelope.setdefault(nxt, (m + 1) * hp.a)
    return ref_presentation_side_degrees(f.domain, envelope)


def ref_extract_curve(f: TropicalSeries):
    """`curve.extract_curve` as it was before the edges were read off the
    cell rings: the `Fraction` vertex sets of every pair of polygon cells
    in support order are intersected, and a pair sharing two or more
    points gives the edge from the least of them to the farthest."""
    cells = f.cells()
    support = sorted(v for v in f.support if len(cells[v]) >= 3)
    vert_sets = {v: set(cells[v]) for v in support}
    edges = []
    for i, u in enumerate(support):
        for w in support[i + 1:]:
            shared = vert_sets[u] & vert_sets[w]
            if len(shared) < 2:
                continue
            pts = sorted(shared)
            a = pts[0]
            far = max(pts[1:], key=lambda p: dot(vsub(p, a), vsub(p, a)))
            if a == far:
                continue
            edges.append(Edge(a, far, gcd2(vsub(w, u)), (u, w)))
    verts = {}
    for e in edges:
        verts[e.a] = True
        verts[e.b] = True
    faces = {v: cells[v] for v in support}
    return TropicalCurve(f, list(verts), edges, faces)


def ref_check_balancing(curve: TropicalCurve) -> bool:
    """`curve.check_balancing` as it was before the edges were grouped by
    end: every edge is scanned for every interior vertex, and the weighted
    directions at that vertex are summed in place."""
    for v in curve.interior_vertices():
        sx = sy = 0
        for e in curve.edges:
            if e.a == v:
                d = e.direction()
            elif e.b == v:
                d = e.direction()
                d = (-d[0], -d[1])
            else:
                continue
            sx += e.weight * d[0]
            sy += e.weight * d[1]
        if (sx, sy) != (0, 0):
            return False
    return True


def ref_wave_family_scan(f: TropicalSeries, p):
    """`wave.wave_family_scan` as it was before the vanishing parameter was
    read off the local model: each side's two ends are followed along the
    family as meets of bisector lines at t = 0 and t = 1, in `Fraction`s,
    and the signed side length, linear in t, is solved for zero."""
    p = (F(p[0]), F(p[1]))
    g, ev = wave(f, p)
    c = ev.increment
    if c == 0:
        return PerestroikaReport(c, [], [])
    v = ev.monomial
    a_v = f.support[v]
    curve = ref_extract_curve(f)
    face_edges = [e for e in curve.edges if v in e.dual]
    sides_info, events = [], []

    def neighbor_across(vertex, not_dual):
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

        def endpoint_at(u, t):
            pt = ref_line_meet(
                (vsub(w, v), -(a_v + c * t - f.support[w])),
                (vsub(u, v), -(a_v + c * t - canonical_coefficient(f, u))))
            if pt is None:
                raise WaveError(f"side {v}-{w} is parallel to its neighbor {u}")
            return pt

        e0a, e1a = endpoint_at(u_a, F(0)), endpoint_at(u_a, F(1))
        e0b, e1b = endpoint_at(u_b, F(0)), endpoint_at(u_b, F(1))
        dvec = vsub(e0b, e0a)
        ref = dvec if dvec != (0, 0) else vsub(e1b, e1a)
        l0 = dot(vsub(e0b, e0a), ref)
        l1 = dot(vsub(e1b, e1a), ref)
        vanish = None
        if l1 < l0:
            t_star = F(l0) / (l0 - l1)
            if 0 < t_star <= 1:
                vanish = t_star
        sides_info.append({"side_dual": w, "n1": n1, "n2": n2,
                           "shrinking": n1 + n2 < 2, "vanish_t": vanish})
        if vanish is not None and vanish < 1:
            kind = "NodalPerestroika" if n1 + n2 == 1 else "SideContracted"
            events.append(FamilyEvent(vanish, kind, w, (n1, n2)))
        elif vanish == 1:
            events.append(FamilyEvent(F(1), "SideContracted", w, (n1, n2)))
    face1 = g.cells().get(v, [])
    if len(face1) < 3:
        kind = ("FaceCollapsedToPoint" if len(face1) <= 1
                else "FaceCollapsedToInterval")
        events = ([e for e in events if e.t < 1]
                  + [FamilyEvent(F(1), kind, None)])
    events.sort(key=lambda e: e.t)
    return PerestroikaReport(c, sides_info, events)


def ref_cone_contains(gens, v):
    """Is v a nonnegative combination of the integer generators?  The
    Caratheodory scan that `exactlp.cone_contains` did: a single generator
    or a pair suffices in the plane, so every one and every independent
    pair is tried, by the signs of integer cross products."""
    if v[0] == 0 and v[1] == 0:
        return True
    gens = [g for g in gens if g != (0, 0)]
    for g in gens:
        if cross(g, v) == 0 and dot(g, v) > 0:
            return True
    for i, g in enumerate(gens):
        for h in gens[i + 1:]:
            det = cross(g, h)
            # v = (cross(v, h) g + cross(g, v) h) / det
            if det != 0 and det * cross(v, h) >= 0 and det * cross(g, v) >= 0:
                return True
    return False


def ref_qpolygon(halfplanes):
    """The fields of `QPolygon(halfplanes)` as its constructor made them
    when boundedness was four cone scans (`ref_cone_contains` of the axis
    directions) and the edges were sorted by angle after the enumeration:
    (halfplanes, int_constraints, hvertices, vertices, sides, corners as
    (apex, normals), area).  Raises what that constructor raised."""
    if not halfplanes:
        raise GeometryError("empty half-plane list is not allowed")
    best = {}
    for hp in (hp.normalized() for hp in halfplanes):
        if hp.n not in best or hp.a < best[hp.n]:
            best[hp.n] = hp.a
    if not all(ref_cone_contains(list(best), d)
               for d in ((1, 0), (-1, 0), (0, 1), (0, -1))):
        raise GeometryError("polygon must be bounded")
    normals = list(best)
    ics = lp.int_constraints(best.items())
    hverts = lp.basic_points(ics)
    on_line = [[h for h in hverts if A * h[0] + B * h[1] + C * h[2] == 0]
               for A, B, C in ics]
    edges = [i for i, hs in enumerate(on_line) if len(hs) >= 2]
    if len(edges) < 3:
        raise EmptyInterior("polygon must have nonempty interior")
    order = [edges[k] for k in lp.angle_order([normals[i] for i in edges])]
    hps = [HalfPlane(normals[i], best[normals[i]]) for i in order]
    hvertices = lp.sort_ccw(hverts)
    point = {h: lp.to_point(h) for h in hvertices}
    sides = []
    incident = {h: [] for h in hvertices}
    for hp, i in zip(hps, order):
        h, k = on_line[i]
        d0, d1 = -hp.n[1], hp.n[0]
        if (d0 * k[0] + d1 * k[1]) * h[2] < (d0 * h[0] + d1 * h[1]) * k[2]:
            h, k = k, h
        sides.append((hp, point[h], point[k]))
        incident[h].append(hp.n)
        incident[k].append(hp.n)
    vertices = list(point.values())
    return (hps, [ics[i] for i in order], hvertices, vertices, sides,
            [(point[h], tuple(ns)) for h, ns in incident.items()],
            ref_polygon_area(vertices))


def ref_hull_lattice_points(points):
    """`exactlp.hull_lattice_points` with its three branches: a one-point
    hull by an integrality test, a segment by four constraints (its line
    both ways and its two ends), and a polygon by its edges, each
    constraint built afresh for every box point."""
    if not points:
        return []
    hull = lp.convex_hull(points)
    if len(hull) == 1:
        p = hull[0]
        ok = p[0].denominator == 1 and p[1].denominator == 1
        return [(int(p[0]), int(p[1]))] if ok else []
    xs = [p[0] for p in points]
    ys = [p[1] for p in points]
    x_lo, x_hi = math.ceil(min(xs)), math.floor(max(xs))
    y_lo, y_hi = math.ceil(min(ys)), math.floor(max(ys))
    if len(hull) == 2:
        a, b = hull
        d = vsub(b, a)
        n = (-d[1], d[0])
        cons = [(n, -dot(n, a)), ((-n[0], -n[1]), dot(n, a)),
                (d, -dot(d, a)), ((-d[0], -d[1]), dot(d, b))]
    else:
        cons = []
        for i, a in enumerate(hull):
            d = vsub(hull[(i + 1) % len(hull)], a)
            n = (-d[1], d[0])  # inward for a counterclockwise hull
            cons.append((n, -dot(n, a)))
    return [(x, y) for x in range(x_lo, x_hi + 1)
            for y in range(y_lo, y_hi + 1)
            if all(dot(n, (x, y)) + a >= 0 for n, a in cons)]


@pytest.fixture
def rng():
    return random.Random(20240817)
