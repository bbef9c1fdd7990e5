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


@pytest.fixture
def rng():
    return random.Random(20240817)
