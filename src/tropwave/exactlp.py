"""Exact polytope helpers in the plane.

Nothing here uses floating point.  A constraint is a pair ``(n, a)``
encoding the closed half-plane ``n . z + a >= 0`` with ``n`` an integer (or
rational) vector and ``a`` a `fractions.Fraction`.  Problem sizes here are
tiny (a handful of constraints), so vertices are found by basic-solution
enumeration, which is simple and exact but O(m^3) in the constraint count m.
Every caller keeps m small: `QPolygon` passes its own half-planes, the
linearity complex (`complex`) only the side lines of a cell it has already
clipped to a polygon (a point or segment cell is read off its clip), and
`wave` one constraint per domain vertex.  Regions cut from a built complex
(`refine`'s certificates) are clipped, not enumerated.

The enumeration itself is pure integer arithmetic: `basic_points` takes
denominator-cleared constraints ``(A, B, C)`` (``A x + B y + C >= 0``, made
by `int_constraints`) and returns homogeneous integer points ``(X, Y, W)``
standing for ``(X / W, Y / W)``; `sort_ccw` orders such points
(`rotate_ccw` does it in O(n) for a convex ring already in order),
`polygon_area` takes the shoelace area of a ring of them, `to_point` turns
one into a `Fraction` point, and `homogeneous` turns a rational point back
into its reduced triple.

Orientation questions are signs of integer cross products, asked where the
order is already known: `angle_order` sorts directions, `convex_hull`
returns a counterclockwise ring, and `hull_lattice_points` tests a box's
lattice points against that ring's edges.  There is no general cone test:
a polygon's boundedness and its corner cones are decided in `geometry`
from normals already in angle order or already independent.
"""

from __future__ import annotations

import functools
import math
from fractions import Fraction
from typing import Sequence, Tuple

Vec = Tuple[int, int]
Point = Tuple[Fraction, Fraction]
Constraint = Tuple[Vec, Fraction]
IntConstraint = Tuple[int, int, int]
Homogeneous = Tuple[int, int, int]


def dot(u, v):
    return u[0] * v[0] + u[1] * v[1]


def cross(u, v):
    return u[0] * v[1] - u[1] * v[0]


def vsub(u, v):
    return (u[0] - v[0], u[1] - v[1])


def int_constraints(cons: Sequence[Constraint]) -> list[IntConstraint]:
    """Clear denominators: (A, B, C) means A x + B y + C >= 0, all integers."""
    out = []
    for n, a in cons:
        a = Fraction(a)
        n0 = Fraction(n[0])
        n1 = Fraction(n[1])
        q = math.lcm(a.denominator, n0.denominator, n1.denominator)
        out.append((int(n0 * q), int(n1 * q), int(a * q)))
    return out


def to_point(h: Homogeneous) -> Point:
    return (Fraction(h[0], h[2]), Fraction(h[1], h[2]))


def homogeneous(p: Point) -> Homogeneous:
    """The reduced triple (X, Y, W), W > 0, standing for the point p, whose
    coordinates are ints or Fractions: the inverse of `to_point`.  W is the
    lcm of the two denominators, so no prime divides all three."""
    x, y = p
    W = math.lcm(x.denominator, y.denominator)
    return (x.numerator * (W // x.denominator),
            y.numerator * (W // y.denominator), W)


def basic_points(ics: Sequence[IntConstraint]) -> list[Homogeneous]:
    """All pairwise boundary intersections satisfying every constraint.

    Takes integer constraints (see `int_constraints`) and returns each point
    once, as a reduced homogeneous triple (X, Y, W) with W > 0, in the order
    the pairs (i, j), i < j, first meet it.
    """
    pts: list[Homogeneous] = []
    seen = set()
    for i, (A1, B1, C1) in enumerate(ics):
        for A2, B2, C2 in ics[i + 1:]:
            det = A1 * B2 - B1 * A2
            if det == 0:
                continue
            xn = C2 * B1 - C1 * B2
            yn = C1 * A2 - C2 * A1
            if det < 0:
                xn, yn, det = -xn, -yn, -det
            for A, B, C in ics:
                if A * xn + B * yn + C * det < 0:
                    break
            else:
                g = math.gcd(xn, yn, det)
                key = (xn // g, yn // g, det // g)
                if key not in seen:
                    seen.add(key)
                    pts.append(key)
    return pts


def convex_hull(points: Sequence[Point]) -> list[Point]:
    """Monotone-chain convex hull; returns CCW vertex list without repeats.
    A chain keeps p after (a, b) only on a strict left turn:
    (b - a) x (p - a) > 0, so collinear points are dropped."""
    pts = sorted(set(points))
    if len(pts) <= 2:
        return list(pts)
    lower = _chain(pts)
    upper = _chain(pts[::-1])
    return lower[:-1] + upper[:-1]


def _chain(pts: list) -> list:
    """One monotone chain of the hull: the strict left turns over ``pts``."""
    out: list = []
    for p in pts:
        px, py = p
        while len(out) >= 2:
            (ax, ay), (bx, by) = out[-2], out[-1]
            if (bx - ax) * (py - ay) - (by - ay) * (px - ax) > 0:
                break
            out.pop()
        out.append(p)
    return out


def hull_lattice_points(points: Sequence[Point]) -> list[Vec]:
    """All integer points inside the convex hull of `points`, in order of
    x, then y.

    They are the lattice points of the hull's bounding box on the inner
    side of every edge (a, b) of the closed counterclockwise hull:
    n . z + c >= 0 with n = (a1 - b1, b0 - a0) and c = a0 b1 - a1 b0.  The
    one test covers every hull: a one-point hull's only edge (p, p) holds
    everywhere, and its box is p itself when p is integral; a two-point
    hull's edges (a, b) and (b, a) leave only its line, which the box cuts
    to the segment."""
    if not points:
        return []
    hull = convex_hull(points)
    cons = [((a[1] - b[1], b[0] - a[0]), a[0] * b[1] - a[1] * b[0])
            for a, b in zip(hull, hull[1:] + hull[:1])]
    x_lo = math.ceil(min(p[0] for p in hull))
    x_hi = math.floor(max(p[0] for p in hull))
    y_lo = math.ceil(min(p[1] for p in hull))
    y_hi = math.floor(max(p[1] for p in hull))
    return [(x, y) for x in range(x_lo, x_hi + 1)
            for y in range(y_lo, y_hi + 1)
            if all(n0 * x + n1 * y + c >= 0 for (n0, n1), c in cons)]


def polygon_area(ring: Sequence[Homogeneous]) -> Fraction:
    """The area of a polygon given as homogeneous points in cyclic order,
    either way round, by the shoelace formula on one common denominator Q:
    the points (X Q / W, Y Q / W) are integers, and their shoelace sum is
    twice the area times Q^2.  Fewer than three points have none."""
    if len(ring) < 3:
        return Fraction(0)
    Q = math.lcm(*[W for _, _, W in ring])
    pts = [(X * (Q // W), Y * (Q // W)) for X, Y, W in ring]
    x0, y0 = pts[-1]
    s = 0
    for x1, y1 in pts:
        s += x0 * y1 - x1 * y0
        x0, y0 = x1, y1
    return Fraction(abs(s), 2 * Q * Q)


def angle_order(vectors: Sequence[Vec]) -> list[int]:
    """Indices of nonzero vectors in counterclockwise order of angle from
    direction (1, 0): an exact comparator, the upper half (angle in [0, pi))
    first and then the cross product; stable on ties."""
    half = [0 if y > 0 or (y == 0 and x > 0) else 1 for x, y in vectors]

    def cmp(i, j):
        if half[i] != half[j]:
            return -1 if half[i] < half[j] else 1
        cr = cross(vectors[i], vectors[j])
        return -1 if cr > 0 else (1 if cr < 0 else 0)

    return sorted(range(len(vectors)), key=functools.cmp_to_key(cmp))


def _centroid_offsets(pts: Sequence[Homogeneous]) -> list[Vec]:
    """Each point's offset from the centroid of all, scaled by n * den > 0
    to integers."""
    n = len(pts)
    den = math.lcm(*[h[2] for h in pts])  # a list: see complex._triples
    xs = [X * (den // W) for X, _, W in pts]
    ys = [Y * (den // W) for _, Y, W in pts]
    sx, sy = sum(xs), sum(ys)
    return [(n * x - sx, n * y - sy) for x, y in zip(xs, ys)]


def sort_ccw(points: Sequence[Homogeneous]) -> list[Homogeneous]:
    """Sort distinct homogeneous points counterclockwise around their
    centroid, starting at angle 0 (`angle_order`).  Two points come out
    with the one above their midpoint first, or the one right of it if
    they lie on a level line."""
    pts = list(points)
    return [pts[i] for i in angle_order(_centroid_offsets(pts))]


def rotate_ccw(ring: Sequence[Homogeneous]) -> list[Homogeneous]:
    """The vertices of a convex polygon, counterclockwise from any start,
    rotated to start where `sort_ccw` starts: equal to ``sort_ccw(ring)``,
    in O(n).  Needs two or more vertices; two are a segment's ends.

    Round the centroid, which is inside (a segment's midpoint), the angle
    from direction (1, 0) grows along the ring through one turn, so the
    points of the upper half (angle in [0, pi), as in `angle_order`) are
    one run of the ring, and `sort_ccw` starts at the first of them."""
    ring = list(ring)
    up = [y > 0 or (y == 0 and x > 0) for x, y in _centroid_offsets(ring)]
    k = next(k for k in range(len(ring)) if up[k] and not up[k - 1])
    return ring[k:] + ring[:k]


def common_scale(points: Sequence[Point]) -> int:
    """The lcm L of every coordinate denominator: L * p is an integer
    vector for each of the points."""
    return math.lcm(*[c.denominator for p in points for c in p])


def scaled(p: Point, scale: int) -> Vec:
    """scale * p, an integer vector when scale is a `common_scale`."""
    return (p[0].numerator * (scale // p[0].denominator),
            p[1].numerator * (scale // p[1].denominator))


def segment_dist2(p: Homogeneous, a: Vec, b: Vec) -> tuple[int, int]:
    """Exact squared distance from (X / W, Y / W) to the integer segment
    [a, b], as integers (num, den) with den > 0."""
    X, Y, W = p
    rx, ry = X - a[0] * W, Y - a[1] * W
    ex, ey = b[0] - a[0], b[1] - a[1]
    t = rx * ex + ry * ey  # the foot's parameter along [a, b], times W*|e|^2
    if t <= 0:
        return rx * rx + ry * ry, W * W
    ee = ex * ex + ey * ey
    if t >= W * ee:
        rx, ry = X - b[0] * W, Y - b[1] * W
        return rx * rx + ry * ry, W * W
    c = rx * ey - ry * ex
    return c * c, W * W * ee


def floor_sqrt_fraction(x: Fraction) -> Fraction:
    """A rational lower bound for sqrt(x): isqrt(num*den)/den <= sqrt(x)."""
    if x < 0:
        raise ValueError("negative")
    return Fraction(math.isqrt(x.numerator * x.denominator), x.denominator)
