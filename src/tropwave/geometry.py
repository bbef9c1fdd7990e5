"""Exact rational planar primitives: Q-polygons, support coefficients,
admissibility, monomial truncation bounds, corners, and corner blow-ups.

Polygons are bounded and stored as canonical intersections of half-planes
with primitive integer inward normals.  A polygon's sides, corners and
integer forms all come from one integer vertex enumeration at
construction; public coordinates are `fractions.Fraction`, and
`hvertices` holds the same vertices as reduced integer triples.
`primitive` is the one place a rational direction is cleared of
denominators.  Values are immutable after construction, so everything here
is safe to share.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Optional, Sequence, Tuple, Union

from . import exactlp as lp
from .exactlp import Constraint, Point, Vec, cross, dot, vsub


class GeometryError(Exception):
    pass


class EmptyInterior(GeometryError):
    pass


class BadDirection(GeometryError):
    pass


class TooLarge(GeometryError):
    pass


class DistanceZero(GeometryError):
    pass


def gcd2(v: Vec) -> int:
    return math.gcd(abs(v[0]), abs(v[1]))


def primitive(v) -> Vec:
    """The primitive integer vector with the same direction as the nonzero
    integer or rational vector v: v is scaled by the product of its two
    denominators, then divided by the gcd of the integer vector."""
    x, y = v
    X, Y = x.numerator * y.denominator, y.numerator * x.denominator
    g = math.gcd(X, Y)
    if g == 0:
        raise GeometryError("zero vector has no direction")
    return (X // g, Y // g)


def xgcd(a: int, b: int) -> tuple[int, int, int]:
    """(g, s, t) with g = gcd(a, b) >= 0 and s*a + t*b = g."""
    old_r, r = a, b
    old_s, s = 1, 0
    old_t, t = 0, 1
    while r:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_s, s = s, old_s - q * s
        old_t, t = t, old_t - q * t
    if old_r < 0:
        old_r, old_s, old_t = -old_r, -old_s, -old_t
    return old_r, old_s, old_t


@dataclass(frozen=True)
class HalfPlane:
    """Closed half-plane {z : n . z + a >= 0} with integer inward normal."""

    n: Vec
    a: Fraction

    def __post_init__(self):
        if self.n == (0, 0):
            raise GeometryError("half-plane normal must be nonzero")
        object.__setattr__(self, "a", Fraction(self.a))

    def normalized(self) -> "HalfPlane":
        g = gcd2(self.n)
        return HalfPlane(primitive(self.n), self.a / g)

    def contains(self, p: Point, strict: bool = False) -> bool:
        val = dot(self.n, p) + self.a
        return val > 0 if strict else val >= 0

    def constraint(self) -> Constraint:
        return (self.n, self.a)


@dataclass(frozen=True)
class Corner:
    """A polygon corner: apex plus the inward normals of its two sides."""

    apex: Point
    normals: Tuple[Vec, Vec]

    def __post_init__(self):
        if cross(self.normals[0], self.normals[1]) == 0:
            raise GeometryError("corner normals must be independent")


class QPolygon:
    """Bounded closed intersection of rational half-planes with nonempty
    interior.

    Canonical form: redundant half-planes removed, normals primitive, sorted
    by angle.  One integer enumeration of the vertices (`exactlp.basic_points`
    on the denominator-cleared constraints) fixes everything else at
    construction: the vertex cycle (CCW) as ``vertices`` and, reduced and
    homogeneous, as ``hvertices``; the integer constraints; and, from which
    vertices lie on which constraint's line, the sides and the corners.  A
    system whose normals do not positively span the plane is unbounded or
    empty and is rejected.  Structural equality compares the canonical
    half-plane lists.
    """

    def __init__(self, halfplanes: Sequence[HalfPlane]):
        if not halfplanes:
            raise GeometryError("empty half-plane list is not allowed")
        normalized = [hp.normalized() for hp in halfplanes]
        # keep the most binding constraint per direction
        best: dict[Vec, Fraction] = {}
        for hp in normalized:
            if hp.n not in best or hp.a < best[hp.n]:
                best[hp.n] = hp.a
        if not all(lp.cone_contains(list(best), d)
                   for d in ((1, 0), (-1, 0), (0, 1), (0, -1))):
            raise GeometryError("polygon must be bounded")
        normals = list(best)
        ics = lp.int_constraints(best.items())
        hverts = lp.basic_points(ics)
        on_line = [[h for h in hverts if A * h[0] + B * h[1] + C * h[2] == 0]
                   for A, B, C in ics]
        # a half-plane supports an edge iff its line holds two vertices;
        # every vertex is extreme, so then it holds exactly two
        edges = [i for i, hs in enumerate(on_line) if len(hs) >= 2]
        if len(edges) < 3:
            raise EmptyInterior("polygon must have nonempty interior")
        order = [edges[k] for k in lp.angle_order([normals[i] for i in edges])]
        self.halfplanes: tuple[HalfPlane, ...] = tuple(
            HalfPlane(normals[i], best[normals[i]]) for i in order)
        self._int_cons = tuple(ics[i] for i in order)
        self.hvertices: tuple[lp.Homogeneous, ...] = tuple(lp.sort_ccw(hverts))
        point = {h: lp.to_point(h) for h in self.hvertices}
        self.vertices: tuple[Point, ...] = tuple(point.values())
        # a side runs between its two vertices in the direction (-n1, n0)
        sides = []
        incident: dict[lp.Homogeneous, list[Vec]] = {h: [] for h in self.hvertices}
        for hp, i in zip(self.halfplanes, order):
            h, k = on_line[i]
            d0, d1 = -hp.n[1], hp.n[0]
            if (d0 * k[0] + d1 * k[1]) * h[2] < (d0 * h[0] + d1 * h[1]) * k[2]:
                h, k = k, h
            sides.append((hp, point[h], point[k]))
            incident[h].append(hp.n)
            incident[k].append(hp.n)
        self._sides = tuple(sides)
        self._corners = tuple(Corner(point[h], tuple(ns))
                              for h, ns in incident.items())

    # -- basic queries -------------------------------------------------

    def constraints(self) -> list[Constraint]:
        return [hp.constraint() for hp in self.halfplanes]

    def int_constraints(self) -> tuple[lp.IntConstraint, ...]:
        """The constraints with denominators cleared, in the same order."""
        return self._int_cons

    def contains(self, p: Point, strict: bool = False) -> bool:
        """Is p, with int or Fraction coordinates, in the closed polygon
        (in its interior if strict)?  Exact: p = (X, Y) / W is tested
        against the integer constraints."""
        X, Y, W = lp.homogeneous(p)
        if strict:
            return all(A * X + B * Y + C * W > 0 for A, B, C in self._int_cons)
        return all(A * X + B * Y + C * W >= 0 for A, B, C in self._int_cons)

    def area(self) -> Fraction:
        return lp.polygon_area(self.vertices)

    def sides(self) -> list[tuple[HalfPlane, Point, Point]]:
        """Each essential half-plane with the endpoints of its edge."""
        return list(self._sides)

    def corners(self) -> list[Corner]:
        """Corners with the inward normals of the two incident sides, in
        half-plane order."""
        return list(self._corners)

    def side_of(self, n: Vec) -> tuple[HalfPlane, Point, Point]:
        n = primitive(n)
        for side in self.sides():
            if side[0].n == n:
                return side
        raise GeometryError(f"no side with normal {n}")

    # -- identity ------------------------------------------------------

    def __eq__(self, other):
        return isinstance(other, QPolygon) and self.halfplanes == other.halfplanes

    def __hash__(self):
        return hash(self.halfplanes)

    def __repr__(self):
        return f"QPolygon({list(self.halfplanes)!r})"

    # -- constructors --------------------------------------------------

    @staticmethod
    def from_vertices(points: Sequence[Point]) -> "QPolygon":
        """Bounded polygon from a vertex set (convex hull is taken)."""
        pts = [(Fraction(x), Fraction(y)) for x, y in points]
        hull = lp.convex_hull(pts)
        if len(hull) < 3:
            raise EmptyInterior("vertex set is not two-dimensional")
        hps = []
        m = len(hull)
        for i in range(m):
            a, b = hull[i], hull[(i + 1) % m]
            d = vsub(b, a)
            n = primitive((-d[1], d[0]))  # inward for CCW hull
            hps.append(HalfPlane(n, -dot(n, a)))
        return QPolygon(hps)

    @staticmethod
    def box(x0, y0, x1, y1) -> "QPolygon":
        return QPolygon([
            HalfPlane((1, 0), -Fraction(x0)),
            HalfPlane((-1, 0), Fraction(x1)),
            HalfPlane((0, 1), -Fraction(y0)),
            HalfPlane((0, -1), Fraction(y1)),
        ])


class SupportOracle:
    """Convex domain given only through its support coefficients.

    ``coeff(v)`` must return inf over the domain of v . z (a Fraction) or
    None for minus infinity.  ``radius`` truncates every enumeration of
    candidate monomials to |v|^2 <= radius^2; re-run with a larger radius to
    certify stability on a compact of interest (the growth protocol is the
    caller's responsibility).
    """

    def __init__(self, coeff: Callable[[Vec], Optional[Fraction]],
                 radius: int, has_interior: bool = True):
        if radius < 1:
            raise GeometryError("truncation radius must be >= 1")
        self.coeff = coeff
        self.radius = radius
        self.has_interior = has_interior

    def support_values(self):
        r2 = self.radius * self.radius
        for i in range(-self.radius, self.radius + 1):
            for j in range(-self.radius, self.radius + 1):
                if i * i + j * j <= r2:
                    c = self.coeff((i, j))
                    if c is not None:
                        yield ((i, j), Fraction(c))


ConvexDomain = Union[QPolygon, SupportOracle]


# -- operations ---------------------------------------------------------


def support_coeff(domain: ConvexDomain, v: Vec) -> Optional[Fraction]:
    """inf over the domain of v . z; None encodes minus infinity."""
    if isinstance(domain, SupportOracle):
        c = domain.coeff(tuple(v))
        return None if c is None else Fraction(c)
    return min(dot(v, p) for p in domain.vertices)


def is_admissible(domain: ConvexDomain) -> bool:
    """Nonempty interior and some nonzero monomial bounded below."""
    if isinstance(domain, QPolygon):
        return True  # construction guarantees interior; side normals qualify
    if not domain.has_interior:
        return False
    return any(v != (0, 0) for v, _ in domain.support_values())


def relevant_monomials(domain: ConvexDomain, K, C: Fraction) -> set[Vec]:
    """Monomials that can contribute at level <= C on the compact K.

    K may be a point, an iterable of points, or a QPolygon strictly
    inside the domain.  Returns exactly the set of v such that some monomial
    v . z + d, nonnegative on the domain, is <= C somewhere on K; this
    contains the minimal such set required by the truncation estimate.
    """
    C = Fraction(C)
    if C <= 0:
        raise GeometryError("C must be positive")
    if isinstance(K, QPolygon):
        kpts = list(K.vertices)
    else:
        kpts = list(K)
        if kpts and not isinstance(kpts[0], (tuple, list)):
            kpts = [tuple(K)]
    kpts = [(Fraction(p[0]), Fraction(p[1])) for p in kpts]

    def contributes(v: Vec, cv: Fraction) -> bool:
        return min(dot(v, p) for p in kpts) - cv <= C

    out: set[Vec] = set()
    if isinstance(domain, SupportOracle):
        for v, cv in domain.support_values():
            if contributes(v, cv):
                out.add(v)
        out.add((0, 0))
        return out
    # exact distance bound: R^2 = min over sides/K-vertices of l_S(k)^2/|n|^2
    r2: Optional[Fraction] = None
    for hp in domain.halfplanes:
        nn = Fraction(dot(hp.n, hp.n))
        for p in kpts:
            val = dot(hp.n, p) + hp.a
            if val < 0:
                raise GeometryError("K is not inside the domain")
            d2 = val * val / nn
            r2 = d2 if r2 is None else min(r2, d2)
    if r2 == 0:
        raise DistanceZero("K touches the boundary")
    bound = C * C / r2  # |v|^2 <= C^2 / R^2
    radius = math.isqrt(math.ceil(bound))
    for i in range(-radius - 1, radius + 2):
        for j in range(-radius - 1, radius + 2):
            if Fraction(i * i + j * j) > bound:
                continue
            v = (i, j)
            if contributes(v, support_coeff(domain, v)):
                out.add(v)
    out.add((0, 0))
    return out


def corner_is_unimodular(corner: Corner) -> bool:
    """Do the primitive edge directions at the corner form a Z-basis?"""
    d1 = primitive((-corner.normals[0][1], corner.normals[0][0]))
    d2 = primitive((-corner.normals[1][1], corner.normals[1][0]))
    return abs(cross(d1, d2)) == 1


def is_unimodular(poly: QPolygon) -> bool:
    return all(corner_is_unimodular(c) for c in poly.corners())


def cone_lattice_contains(corner: Corner, v: Vec) -> bool:
    """Is v in the cone spanned by the corner's two normals?"""
    return lp.cone_contains(list(corner.normals), v)


def blow_up(poly: QPolygon, corner: Corner, v: Vec, eps: Fraction) -> QPolygon:
    """Cut the corner with {v . z >= v . apex + eps} (eps-blow-up).

    The new side is dual to v and sits at lattice distance eps (in v-units)
    from the apex.  Degenerate cuts that remove another corner raise TooLarge.
    """
    eps = Fraction(eps)
    if eps <= 0:
        raise GeometryError("eps must be positive")
    if v == (0, 0) or not cone_lattice_contains(corner, v):
        raise BadDirection(f"{v} is outside the corner cone")
    offset = dot(v, corner.apex) + eps
    cut = HalfPlane(v, -offset)
    try:
        out = QPolygon(list(poly.halfplanes) + [cut])
    except EmptyInterior:
        raise TooLarge("cut removes the whole polygon")
    for w in poly.vertices:
        if w == corner.apex:
            continue
        if not cut.contains(w, strict=True):
            raise TooLarge(f"cut removes vertex {w}")
    return out
