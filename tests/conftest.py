import math
import random
from fractions import Fraction as F
from types import SimpleNamespace

import pytest
from hypothesis import settings

from tropwave import exactlp as lp
from tropwave.exactlp import dot, vsub
from tropwave.geometry import HalfPlane, QPolygon
from tropwave import series
from tropwave.series import (TropicalSeries, canonical_coefficient,
                             make_series, zero_series)
from tropwave.wave import sample_interior_points, wave

# Exact arithmetic makes example times vary widely, and a slow host makes
# them drift; a deadline would flake, so none is set.  Derandomized runs
# repeat the same examples every time.
settings.register_profile("tropwave", deadline=None, derandomize=True,
                          max_examples=40)
settings.load_profile("tropwave")


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
    """The fields of `series._Complex` built as it was before the side-line
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
        cell = series._clip(domain_verts, cuts)
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
    return SimpleNamespace(
        denom=denom, table=table, hcells=hcells,
        vertices=list(points.values()),
        cells={v: [points[h] for h in hs] for v, hs in hcells.items()})


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


def ref_vertices(poly: QPolygon):
    """The vertices of the polygon by `Fraction` arithmetic: every pairwise
    boundary intersection that satisfies each constraint, counterclockwise
    around their centroid from angle 0."""
    cons = poly.constraints()
    pts = []
    for i, c1 in enumerate(cons):
        for c2 in cons[i + 1:]:
            z = lp.boundary_intersection(c1, c2)
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


def ref_envelope_degrees(f: TropicalSeries, v, c):
    """The side degrees of `add_monomial(f, v, c)`, c > 0, read off a finite
    upper envelope of the result: f's support with v raised by c plus, on
    each side where v was the vanishing monomial of least multiplier, the
    next vanishing multiple of the side's normal."""
    a_v = canonical_coefficient(f, v)
    envelope = dict(f.support)
    envelope[v] = a_v + c
    old_degrees = series._presentation_side_degrees(f.domain, f.support)
    for hp in f.domain.halfplanes:
        m = series._side_vanishing_multiplier(hp, (v, a_v))
        if m is not None and m == old_degrees[hp.n]:
            nxt = ((m + 1) * hp.n[0], (m + 1) * hp.n[1])
            envelope.setdefault(nxt, (m + 1) * hp.a)
    return series._presentation_side_degrees(f.domain, envelope)


@pytest.fixture
def rng():
    return random.Random(20240817)
