"""Exact rational planar primitives: Q-polygons, support coefficients,
admissibility, monomial truncation bounds, corners, and corner blow-ups.

Polygons are bounded and stored as canonical intersections of half-planes
with primitive integer inward normals; all coordinates are
`fractions.Fraction`.  Values are immutable after construction, so
everything here is safe to share.
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


def primitive(v: Vec) -> Vec:
    """The primitive vector with the same direction as v (v nonzero)."""
    g = gcd2(v)
    if g == 0:
        raise GeometryError("zero vector has no direction")
    return (v[0] // g, v[1] // g)


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
    by angle; the vertex cycle (CCW), the sides, and the constraints with
    denominators cleared are cached.  A system whose normals do not
    positively span the plane is unbounded or empty and is rejected.
    Structural equality compares the canonical half-plane lists.
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
        ics = lp.int_constraints(best.items())
        hverts = lp.basic_points(ics)
        # a half-plane supports an edge iff its line holds two vertices
        edge_normals = [n for n, (A, B, C) in zip(best, ics)
                        if sum(A * X + B * Y + C * W == 0
                               for X, Y, W in hverts) >= 2]
        if len(edge_normals) < 3:
            raise EmptyInterior("polygon must have nonempty interior")
        self.halfplanes: tuple[HalfPlane, ...] = tuple(
            HalfPlane(edge_normals[i], best[edge_normals[i]])
            for i in lp.angle_order(edge_normals))
        self._cons = [hp.constraint() for hp in self.halfplanes]
        self._int_cons = tuple(lp.int_constraints(self._cons))
        self.vertices: tuple[Point, ...] = tuple(
            lp.to_point(h) for h in lp.sort_ccw(hverts))
        self._sides: Optional[list[tuple[HalfPlane, Point, Point]]] = None

    # -- basic queries -------------------------------------------------

    def constraints(self) -> list[Constraint]:
        return list(self._cons)

    def int_constraints(self) -> tuple[lp.IntConstraint, ...]:
        """The constraints with denominators cleared, in the same order."""
        return self._int_cons

    def contains(self, p: Point, strict: bool = False) -> bool:
        """Is p in the closed polygon (in its interior if strict)?  Exact:
        p = (X, Y) / q is tested against the integer constraints."""
        x, y = Fraction(p[0]), Fraction(p[1])
        q = x.denominator * y.denominator
        X, Y = x.numerator * y.denominator, y.numerator * x.denominator
        if strict:
            return all(A * X + B * Y + C * q > 0 for A, B, C in self._int_cons)
        return all(A * X + B * Y + C * q >= 0 for A, B, C in self._int_cons)

    def area(self) -> Fraction:
        return lp.polygon_area(self.vertices)

    def sides(self) -> list[tuple[HalfPlane, Point, Point]]:
        """Each essential half-plane with the endpoints of its edge."""
        if self._sides is None:
            out = []
            for hp in self.halfplanes:
                on_line = [v for v in self.vertices if dot(hp.n, v) + hp.a == 0]
                if len(on_line) < 2:
                    raise GeometryError("essential side with fewer than two vertices")
                d = (-hp.n[1], hp.n[0])
                on_line.sort(key=lambda v: dot(d, v))
                out.append((hp, on_line[0], on_line[-1]))
            self._sides = out
        return list(self._sides)

    def corners(self) -> list[Corner]:
        """Corners with the inward normals of the two incident sides."""
        incident: dict[Point, list[Vec]] = {v: [] for v in self.vertices}
        for hp in self.halfplanes:
            for v in self.vertices:
                if dot(hp.n, v) + hp.a == 0:
                    incident[v].append(hp.n)
        out = []
        for v in self.vertices:
            ns = incident[v]
            if len(ns) != 2:
                raise GeometryError("degenerate corner")
            out.append(Corner(v, (ns[0], ns[1])))
        return out

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
            n = (-d[1], d[0])  # inward for CCW hull
            # clear denominators to get an integer normal
            den = (n[0].denominator if isinstance(n[0], Fraction) else 1) * (
                n[1].denominator if isinstance(n[1], Fraction) else 1)
            ni = (int(n[0] * den), int(n[1] * den))
            hps.append(HalfPlane(primitive(ni), -Fraction(dot(primitive(ni), a))))
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
    """Is v in the cone spanned by the corner's two normals (exact 2x2 solve)?"""
    n1, n2 = corner.normals
    det = cross(n1, n2)
    alpha = Fraction(cross(v, n2), det)
    beta = Fraction(cross(n1, v), det)
    return alpha >= 0 and beta >= 0


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
