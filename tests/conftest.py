import math
import random
from fractions import Fraction as F

import pytest
from hypothesis import settings

from tropwave import exactlp as lp
from tropwave.exactlp import dot, vsub
from tropwave.geometry import QPolygon
from tropwave.series import TropicalSeries, make_series, zero_series
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


@pytest.fixture
def rng():
    return random.Random(20240817)
