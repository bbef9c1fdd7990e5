"""Exact polytope helpers in the plane.

Nothing here uses floating point.  A constraint is a pair ``(n, a)``
encoding the closed half-plane ``n . z + a >= 0`` with ``n`` an integer (or
rational) vector and ``a`` a `fractions.Fraction`.  Problem sizes here are
tiny (a handful of constraints), so vertices are found by basic-solution
enumeration, which is simple and exact but O(m^3) in the constraint count m.
Every caller keeps m small: `QPolygon` passes its own half-planes, the
linearity complex of `series` only the constraints tight at a cell it has
already clipped, and `wave` one constraint per domain vertex.  Regions cut
from a built complex (`refine`'s certificates) are clipped, not enumerated.

The enumeration itself is pure integer arithmetic: `basic_points` takes
denominator-cleared constraints ``(A, B, C)`` (``A x + B y + C >= 0``, made
by `int_constraints`) and returns homogeneous integer points ``(X, Y, W)``
standing for ``(X / W, Y / W)``; `sort_ccw` orders such points, and
`to_point` turns one into a `Fraction` point.
"""

from __future__ import annotations

import functools
import math
from fractions import Fraction
from typing import Optional, Sequence, Tuple

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


def vneg(u):
    return (-u[0], -u[1])


def boundary_intersection(c1: Constraint, c2: Constraint) -> Optional[Point]:
    """Intersection point of the two boundary lines, or None if parallel."""
    n1, a1 = c1
    n2, a2 = c2
    det = cross(n1, n2)
    if det == 0:
        return None
    x = Fraction(-a1 * n2[1] + a2 * n1[1], 1) / det
    y = Fraction(-a2 * n1[0] + a1 * n2[0], 1) / det
    return (x, y)


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


def basic_points(ics: Sequence[IntConstraint]) -> list[Homogeneous]:
    """All pairwise boundary intersections satisfying every constraint.

    Takes integer constraints (see `int_constraints`) and returns each point
    once, as a reduced homogeneous triple (X, Y, W) with W > 0, in the order
    the pairs (i, j), i < j, first meet it.
    """
    m = len(ics)
    pts: list[Homogeneous] = []
    seen = set()
    for i in range(m):
        A1, B1, C1 = ics[i]
        for j in range(i + 1, m):
            A2, B2, C2 = ics[j]
            det = A1 * B2 - B1 * A2
            if det == 0:
                continue
            xn = -C1 * B2 + C2 * B1
            yn = -C2 * A1 + C1 * A2
            if det < 0:
                xn, yn, det = -xn, -yn, -det
            g = math.gcd(math.gcd(abs(xn), abs(yn)), det)
            key = (xn // g, yn // g, det // g)
            if key in seen:
                continue
            ok = True
            for A, B, C in ics:
                if A * xn + B * yn + C * det < 0:
                    ok = False
                    break
            if ok:
                seen.add(key)
                pts.append(key)
    return pts


def cone_contains(gens: Sequence[Vec], v) -> bool:
    """Is v a nonnegative combination of the generators? (Caratheodory in 2D:
    a single generator or a pair suffices.)"""
    if v == (0, 0) or (v[0] == 0 and v[1] == 0):
        return True
    gens = [g for g in gens if g != (0, 0)]
    for g in gens:
        if cross(g, v) == 0 and dot(g, v) > 0:
            return True
    m = len(gens)
    for i in range(m):
        for j in range(i + 1, m):
            g, h = gens[i], gens[j]
            det = cross(g, h)
            if det == 0:
                continue
            alpha = Fraction(cross(v, h), det)
            beta = Fraction(cross(g, v), det)
            if alpha >= 0 and beta >= 0:
                return True
    return False


def convex_hull(points: Sequence[Point]) -> list[Point]:
    """Monotone-chain convex hull; returns CCW vertex list without repeats."""
    pts = sorted(set(points))
    if len(pts) <= 2:
        return list(pts)
    lower: list[Point] = []
    for p in pts:
        while len(lower) >= 2 and cross(vsub(lower[-1], lower[-2]), vsub(p, lower[-2])) <= 0:
            lower.pop()
        lower.append(p)
    upper: list[Point] = []
    for p in reversed(pts):
        while len(upper) >= 2 and cross(vsub(upper[-1], upper[-2]), vsub(p, upper[-2])) <= 0:
            upper.pop()
        upper.append(p)
    return lower[:-1] + upper[:-1]


def hull_lattice_points(points: Sequence[Point]) -> list[Vec]:
    """All integer points inside the convex hull of `points`."""
    if not points:
        return []
    hull = convex_hull(points)
    if len(hull) == 1:
        p = hull[0]
        ok = p[0].denominator == 1 and p[1].denominator == 1
        return [(int(p[0]), int(p[1]))] if ok else []
    xs = [p[0] for p in points]
    ys = [p[1] for p in points]
    x_lo, x_hi = math.ceil(min(xs)), math.floor(max(xs))
    y_lo, y_hi = math.ceil(min(ys)), math.floor(max(ys))
    if len(hull) == 2:
        cons = _segment_constraints(hull[0], hull[1])
    else:
        cons = []
        m = len(hull)
        for i in range(m):
            a, b = hull[i], hull[(i + 1) % m]
            d = vsub(b, a)
            n = (-d[1], d[0])  # inward for CCW hull
            cons.append((n, -(n[0] * a[0] + n[1] * a[1])))
    out = []
    for x in range(x_lo, x_hi + 1):
        for y in range(y_lo, y_hi + 1):
            if all(n[0] * x + n[1] * y + a >= 0 for n, a in cons):
                out.append((x, y))
    return out


def _segment_constraints(a: Point, b: Point):
    d = vsub(b, a)
    n = (-d[1], d[0])
    return [
        (n, -(n[0] * a[0] + n[1] * a[1])),
        (vneg(n), n[0] * a[0] + n[1] * a[1]),
        (d, -(d[0] * a[0] + d[1] * a[1])),
        (vneg(d), d[0] * b[0] + d[1] * b[1]),
    ]


def polygon_area(vertices: Sequence[Point]) -> Fraction:
    """Shoelace area of a CCW (or CW, absolute value taken) vertex cycle."""
    n = len(vertices)
    if n < 3:
        return Fraction(0)
    s = Fraction(0)
    for i in range(n):
        a, b = vertices[i], vertices[(i + 1) % n]
        s += a[0] * b[1] - b[0] * a[1]
    return abs(s) / 2


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


def sort_ccw(points: Sequence[Homogeneous]) -> list[Homogeneous]:
    """Sort distinct homogeneous points counterclockwise around their
    centroid, starting at angle 0 (`angle_order`); two or fewer points keep
    their order."""
    pts = list(points)
    n = len(pts)
    if n <= 2:
        return pts
    den = math.lcm(*[h[2] for h in pts])  # a list: see series._Complex
    xs = [X * (den // W) for X, _, W in pts]
    ys = [Y * (den // W) for _, Y, W in pts]
    sx, sy = sum(xs), sum(ys)
    # offsets from the centroid, scaled by n * den > 0
    d = [(n * x - sx, n * y - sy) for x, y in zip(xs, ys)]
    return [pts[i] for i in angle_order(d)]


def point_segment_dist2(p: Point, a: Point, b: Point) -> Fraction:
    """Exact squared distance from point p to segment [a, b]."""
    d = vsub(b, a)
    dd = dot(d, d)
    if dd == 0:
        w = vsub(p, a)
        return dot(w, w)
    t = Fraction(dot(vsub(p, a), d), 1) / dd
    if t < 0:
        t = Fraction(0)
    elif t > 1:
        t = Fraction(1)
    q = (a[0] + t * d[0], a[1] + t * d[1])
    w = vsub(p, q)
    return dot(w, w)


def floor_sqrt_fraction(x: Fraction) -> Fraction:
    """A rational lower bound for sqrt(x): isqrt(num*den)/den <= sqrt(x)."""
    if x < 0:
        raise ValueError("negative")
    return Fraction(math.isqrt(x.numerator * x.denominator), x.denominator)
