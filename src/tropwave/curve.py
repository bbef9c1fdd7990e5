"""Corner-locus extraction as a planar graph, vertex classification,
balancing checks, Hausdorff closeness, and tropical symplectic area.

Curves are derived from the monomial dominance regions of a series (the dual
representation), so edges, weights and faces are automatically consistent
with the function.  Everything is clipped to the closed domain.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, List, Optional, Sequence, Tuple

from . import exactlp as lp
from .exactlp import Point, Vec, cross, dot, vsub
from .geometry import QPolygon, gcd2, primitive
from .series import OutsideDomain, TropicalSeries


class CurveError(Exception):
    pass


class NotAVertex(CurveError):
    pass


SMOOTH = "smooth"
NODAL = "nodal"


@dataclass(frozen=True)
class VertexClass:
    kind: str  # "smooth" | "nodal" | "other"
    detail: str = ""

    @property
    def is_smooth(self):
        return self.kind == SMOOTH

    @property
    def is_nodal(self):
        return self.kind == NODAL


@dataclass(frozen=True)
class Edge:
    a: Point
    b: Point
    weight: int
    dual: Tuple[Vec, Vec]  # the two monomials whose regions meet here

    def direction(self) -> Vec:
        d = vsub(self.b, self.a)
        num = (d[0].numerator * d[1].denominator, d[1].numerator * d[0].denominator)
        return primitive(num)

    def length2(self) -> Fraction:
        d = vsub(self.b, self.a)
        return dot(d, d)


@dataclass
class TropicalCurve:
    series: TropicalSeries
    vertices: List[Point]
    edges: List[Edge]
    faces: Dict[Vec, List[Point]]  # monomial -> CCW region vertices (clipped)

    def interior_vertices(self) -> List[Point]:
        dom = self.series.domain
        return [v for v in self.vertices if dom.contains(v, strict=True)]

    def segments(self) -> List[Tuple[Point, Point]]:
        return [(e.a, e.b) for e in self.edges]

    def is_empty(self) -> bool:
        return not self.edges


def extract_curve(f: TropicalSeries) -> TropicalCurve:
    """Exact corner locus of f clipped to the closed domain.

    Only monomials with full-dimensional dominance regions generate faces and
    edges; a monomial whose region is a segment (the midpoint of a composite
    dual edge) does not subdivide the weight of that edge.
    """
    if not isinstance(f.domain, QPolygon):
        raise CurveError("curve extraction requires a bounded polygon domain")
    cells = f.cells()
    support = sorted(v for v in f.support if lp.polygon_area(cells[v]) > 0)
    vert_sets = {v: set(cells[v]) for v in support}
    edges: list[Edge] = []
    for i, u in enumerate(support):
        for w in support[i + 1:]:
            # adjacent cells share the endpoints of their common edge
            shared = vert_sets[u] & vert_sets[w]
            if len(shared) < 2:
                continue
            pts = sorted(shared)
            a = pts[0]
            far = max(pts[1:], key=lambda p: dot(vsub(p, a), vsub(p, a)))
            if a == far:
                continue
            edges.append(Edge(a, far, gcd2(vsub(w, u)), (u, w)))
    verts: dict[Point, bool] = {}
    for e in edges:
        verts[e.a] = True
        verts[e.b] = True
    faces = {v: cells[v] for v in support}
    return TropicalCurve(f, list(verts), edges, faces)


def attaining_monomials(f: TropicalSeries, z: Point) -> list[Vec]:
    """The monomials v with v.z + a_v = f(z), in support order."""
    z = (Fraction(z[0]), Fraction(z[1]))
    if isinstance(f.domain, QPolygon) and not f.domain.contains(z):
        raise OutsideDomain(f"{z} is outside the domain")
    # every value v.z + a_v times one common denominator q
    q = math.lcm(z[0].denominator, z[1].denominator,
                 *[a.denominator for a in f.support.values()])
    X = z[0].numerator * (q // z[0].denominator)
    Y = z[1].numerator * (q // z[1].denominator)
    vals = [v[0] * X + v[1] * Y + a.numerator * (q // a.denominator)
            for v, a in f.support.items()]
    best = min(vals)
    return [v for v, val in zip(f.support, vals) if val == best]


def classify_vertex(curve: TropicalCurve, v: Point) -> VertexClass:
    """Smooth: dual cell is a lattice triangle of area 1/2.  Nodal: a
    unimodular parallelogram (the min(x,y,0,x+y) model up to SL(2,Z)).

    The dual cell is the convex hull of the attaining exponents; interior or
    edge lattice points of the hull (degenerate attaining monomials) do not
    change the class, and neither model admits any.
    """
    v = (Fraction(v[0]), Fraction(v[1]))
    if v not in curve.vertices:
        raise NotAVertex(f"{v} is not a curve vertex")
    att = attaining_monomials(curve.series, v)
    if len(att) < 3:
        raise NotAVertex(f"{v} has only {len(att)} attaining monomials")
    hull = lp.convex_hull([(Fraction(u[0]), Fraction(u[1])) for u in att])
    if len(hull) == 3:
        area2 = abs(cross(vsub(hull[1], hull[0]), vsub(hull[2], hull[0])))
        if area2 == 1 and len(att) == 3:
            return VertexClass(SMOOTH)
        return VertexClass("other", f"dual triangle of lattice area {Fraction(area2, 2)}")
    if len(hull) == 4:
        d1 = vsub(hull[1], hull[0])
        d2 = vsub(hull[2], hull[1])
        d3 = vsub(hull[3], hull[2])
        d4 = vsub(hull[0], hull[3])
        if d1 == (-d3[0], -d3[1]) and d2 == (-d4[0], -d4[1]):
            if abs(cross(d1, d2)) == 1:
                return VertexClass(NODAL)
            return VertexClass("other", "non-unimodular dual parallelogram")
        return VertexClass("other", "dual quadrilateral is not a parallelogram")
    return VertexClass("other", f"dual cell with {len(hull)} hull vertices")


def check_balancing(curve: TropicalCurve) -> bool:
    """Weighted outgoing primitive directions sum to zero at every interior
    vertex."""
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


def balanced_star(dirs_weights: Sequence[Tuple[Vec, int]]) -> bool:
    """Balancing check for a hand-built star of (primitive direction, weight)."""
    sx = sum(w * d[0] for d, w in dirs_weights)
    sy = sum(w * d[1] for d, w in dirs_weights)
    return (sx, sy) == (0, 0)


def symplectic_area(curve: TropicalCurve) -> Optional[Fraction]:
    """Sum over edges of weight * |edge| * |primitive|; None means infinite.

    For an edge s * v with v primitive this is weight * s * (v . v), a
    rational number.  Boundary-clipped edges count their clipped length.
    """
    total = Fraction(0)
    for e in curve.edges:
        d = vsub(e.b, e.a)
        p = e.direction()
        if p[0] != 0:
            s = Fraction(d[0], p[0])
        else:
            s = Fraction(d[1], p[1])
        total += e.weight * abs(s) * dot(p, p)
    return total


def side_area(poly: QPolygon, n: Vec) -> Fraction:
    """Tropical symplectic area of a polygon side: |S| * |primitive|."""
    hp, a, b = poly.side_of(n)
    d = vsub(b, a)
    p = primitive((d[0].numerator * d[1].denominator,
                   d[1].numerator * d[0].denominator))
    if p[0] != 0:
        s = Fraction(d[0], p[0])
    else:
        s = Fraction(d[1], p[1])
    return abs(s) * dot(p, p)


def quasi_degree_area(f: TropicalSeries) -> Fraction:
    """Sum over sides of m_f(S) * Area(S): equals the curve area on compact
    domains (deformation invariance)."""
    from .series import quasi_degree

    deg = quasi_degree(f)
    return sum((m * side_area(f.domain, n) for n, m in deg.items()), Fraction(0))


# -- Hausdorff closeness ----------------------------------------------------


def _foot_params(a: Point, b: Point, q: Point) -> Fraction:
    d = vsub(b, a)
    dd = dot(d, d)
    t = Fraction(dot(vsub(q, a), d)) / dd
    if t < 0:
        return Fraction(0)
    if t > 1:
        return Fraction(1)
    return t


def _segments_within(segs_a, segs_b, dist2_bound: Fraction) -> bool:
    """Every point of every segment in A within sqrt(bound) of the union of B.

    Each A-segment is subdivided at the perpendicular feet of all B-endpoints;
    a subsegment is accepted when a single B-segment covers both of its
    endpoints (distance to a fixed segment is convex along the subsegment).
    """
    if not segs_a:
        return True
    if not segs_b:
        return False
    for a, b in segs_a:
        cuts = {Fraction(0), Fraction(1)}
        for p, q in segs_b:
            cuts.add(_foot_params(a, b, p))
            cuts.add(_foot_params(a, b, q))
        ts = sorted(cuts)
        d = vsub(b, a)
        pts = [(a[0] + t * d[0], a[1] + t * d[1]) for t in ts]
        for p, q in zip(pts, pts[1:]):
            ok = any(
                lp.point_segment_dist2(p, s, t) <= dist2_bound
                and lp.point_segment_dist2(q, s, t) <= dist2_bound
                for s, t in segs_b)
            if not ok:
                return False
    return True


def curves_within(f: TropicalSeries, g: TropicalSeries, eps: Fraction) -> bool:
    """Two-sided Hausdorff closeness of the curves at distance 2*eps.

    Exact for segment curves up to the conservative subdivision rule; empty
    curves are within any distance of each other, and an empty curve is never
    close to a nonempty one.
    """
    eps = Fraction(eps)
    ca = extract_curve(f).segments()
    cb = extract_curve(g).segments()
    if not ca and not cb:
        return True
    bound = 4 * eps * eps
    return (_segments_within(ca, cb, bound)
            and _segments_within(cb, ca, bound))
