"""Tropical series on convex rational domains.

A series is the pointwise min of finitely many affine monomials
``i*x + j*y + a_ij`` with integer slopes, nonnegative on the domain and
vanishing on its boundary.  Internally we keep the *small canonical form*:
the coefficient of every stored monomial is minimal (``sup(f - v.z)`` over
the domain) and every stored monomial actually touches the function at some
interior point.  The full canonical form over all of Z^2 is virtual and
computed coefficient-by-coefficient on demand.

Each polygon series builds its linearity complex once, on first use, in
integers: each cell is the domain polygon clipped by the denominator-cleared
dominance constraints one at a time, `exactlp.basic_points` on the few
constraints tight at the clipped cell's vertices gives their order, the
complex vertices are held as integer points over one common denominator D,
and with them the integers D * f.  Canonical coefficients and
renormalization read that table, and `refine`'s certificates clip the
integer cells; values stay exact, and `Fraction` appears only at the API
boundary (coefficients, `cells()`, `complex_vertices()`).
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Dict, Optional, Tuple

from . import exactlp as lp
from .exactlp import Point, Vec, cross, dot
from .geometry import (ConvexDomain, QPolygon, SupportOracle, primitive,
                       support_coeff)


class SeriesError(Exception):
    pass


class OutsideDomain(SeriesError):
    pass


class NotAdmissible(SeriesError):
    pass


class DomainMismatch(SeriesError):
    pass


class BoundaryMismatch(SeriesError):
    pass


class NegativeIncrement(SeriesError):
    pass


Support = Dict[Vec, Fraction]


class TropicalSeries:
    """Finite sparse monomial map over a domain, in small canonical form.

    Construct with ``canonical=True`` only when the support is already known
    to be a small canonical form (internal fast path); otherwise the
    presentation is renormalized.
    """

    def __init__(self, domain: ConvexDomain, support: Support, *,
                 canonical: bool = False, truncated: bool = False):
        self.domain = domain
        self.truncated = truncated
        support = {tuple(v): Fraction(a) for v, a in support.items()}
        if not support:
            raise SeriesError("series needs at least one monomial")
        if isinstance(domain, SupportOracle):
            # Oracle domains carry presentations verbatim; the boundary
            # cannot be certified, so the series is flagged truncated.
            self.support = dict(sorted(support.items()))
            self.truncated = True
            self._cells = None
            return
        if canonical:
            self.support = dict(sorted(support.items()))
        else:
            self.support = _small_canonical_terms(domain, support)
        self._cells: Optional[dict] = None
        self._complex: Optional[_Complex] = None
        self._quasi_degree = None

    # -- basics ----------------------------------------------------------

    def terms(self):
        return self.support.items()

    def __call__(self, z: Point) -> Fraction:
        return evaluate(self, z)

    def __eq__(self, other):
        return (isinstance(other, TropicalSeries)
                and self.domain == other.domain
                and self.support == other.support)

    def __repr__(self):
        parts = ", ".join(f"{v}:{a}" for v, a in self.support.items())
        return f"TropicalSeries({parts})"

    # -- cached geometry ---------------------------------------------------

    def cells(self) -> dict:
        """Monomial -> CCW vertex list of its (possibly degenerate) region."""
        if self._cells is None:
            self._complex = _Complex(self.domain, self.support)
            self._cells = self._complex.cells
        return self._cells

    def complex_vertices(self) -> list[Point]:
        """All vertices of the linearity decomposition (and the domain)."""
        return self._int_complex().vertices

    def _int_complex(self) -> "_Complex":
        if self._complex is None:
            self.cells()
        return self._complex


class _Complex:
    """The linearity complex of a polygon series, built in integers.

    Coefficients are scaled by the lcm of their denominators and every
    constraint is an integer triple (A, B, C) for A x + B y + C >= 0, with
    no `Fraction` arithmetic.  A cell is the domain clipped by each cutting
    constraint in turn (`_clip`, O(m V) for m constraints and V vertices),
    then `exactlp.basic_points` runs on only the constraints tight at a
    vertex of the clipped cell.  Those cut out the same cell, and being a
    subsequence of all the constraints they meet its vertices in the same
    pair order, which fixes the orientation of a segment cell; enumerating
    over all m constraints would cost O(m^3) per cell.
    The complex vertices, in first-seen order over the cells, are kept as
    ``table`` rows (X, Y, F): the vertex is (X, Y) / denom and F is denom
    times the series there.  ``hcells`` maps each monomial to its cell as
    reduced homogeneous points (X, Y, W), W > 0, in the order of ``cells``;
    ``cells`` and ``vertices`` are the same data as `Fraction` points.
    """

    __slots__ = ("denom", "table", "hcells", "cells", "vertices")

    def __init__(self, domain: QPolygon, support: Support):
        # star-arguments come from lists, not generators: on CPython 3.11
        # the generator form made the peak RSS of long runs creep upwards
        scale = math.lcm(*[a.denominator for a in support.values()])
        alpha = {v: a.numerator * (scale // a.denominator)
                 for v, a in support.items()}
        dden = math.lcm(*[c.denominator for p in domain.vertices for c in p])
        dverts = [(x.numerator * (dden // x.denominator),
                   y.numerator * (dden // y.denominator), dden)
                  for x, y in domain.vertices]
        hcells = {}
        for v, av in alpha.items():
            cuts = []
            for w, aw in alpha.items():
                if w == v:
                    continue
                A, B, C = scale * (w[0] - v[0]), scale * (w[1] - v[1]), aw - av
                # keep the constraint only if it cuts the domain: a domain
                # vertex violates it (exact by convexity)
                Cd = C * dden
                if any(A * X + B * Y + Cd < 0 for X, Y, _ in dverts):
                    cuts.append((A, B, C))
            cell = _clip(dverts, cuts)
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
        self.denom = denom
        self.table = table
        self.hcells = hcells
        points = {h: lp.to_point(h) for h in hverts}
        self.vertices = list(points.values())
        self.cells = {v: [points[h] for h in hs] for v, hs in hcells.items()}

    def coefficient(self, u: Vec) -> Fraction:
        """max over the complex vertices of (f - u.z): the canonical
        coefficient of a monomial outside the support."""
        u0, u1 = u
        return Fraction(max(F - u0 * X - u1 * Y for X, Y, F in self.table),
                        self.denom)


def _clip(poly: list, cuts: list) -> list:
    """The convex polygon ``poly`` (homogeneous points (X, Y, W), W > 0, in
    cyclic order) cut by each half-plane A x + B y + C >= 0 in turn.

    Returns points in cyclic order whose convex hull is the cut polygon; it
    holds every vertex of the hull (and possibly points on its sides), and
    is empty if the cut polygon is.  An edge whose ends lie strictly on
    opposite sides of a cut line meets it at s1 * h2 - s2 * h1.
    """
    for A, B, C in cuts:
        s = [A * X + B * Y + C * W for X, Y, W in poly]
        if min(s) >= 0:
            continue
        out = []
        n = len(poly)
        for i in range(n):
            h1, s1 = poly[i], s[i]
            if s1 >= 0:
                out.append(h1)
            j = i + 1 if i + 1 < n else 0
            h2, s2 = poly[j], s[j]
            if (s1 < 0 < s2) or (s2 < 0 < s1):
                X = s1 * h2[0] - s2 * h1[0]
                Y = s1 * h2[1] - s2 * h1[1]
                W = s1 * h2[2] - s2 * h1[2]
                if W < 0:
                    X, Y, W = -X, -Y, -W
                g = math.gcd(X, Y, W)
                out.append((X // g, Y // g, W // g))
        # a cell cut down to a segment is walked there and back, so a
        # crossing can be met twice
        poly = list(dict.fromkeys(out))
        if not poly:
            break
    return poly


def evaluate(f: TropicalSeries, z: Point) -> Fraction:
    z = (Fraction(z[0]), Fraction(z[1]))
    if isinstance(f.domain, QPolygon) and not f.domain.contains(z):
        raise OutsideDomain(f"{z} is outside the domain")
    return min(dot(v, z) + a for v, a in f.support.items())


def zero_series(domain: ConvexDomain) -> TropicalSeries:
    return TropicalSeries(domain, {(0, 0): Fraction(0)}, canonical=True)


# -- small canonical form -------------------------------------------------


def _side_vanishing_multiplier(side_hp, term: Tuple[Vec, Fraction]) -> Optional[int]:
    """If the monomial vanishes identically on the side's line, return its
    multiplier m >= 0 with exponent m * n(S); otherwise None."""
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


def _presentation_side_degrees(domain: QPolygon, terms: Support) -> Dict[Vec, int]:
    """Per side (keyed by primitive normal), the smallest multiplier of a
    vanishing monomial present in the presentation; raises if a side has
    none (the function would not vanish there)."""
    out: Dict[Vec, int] = {}
    for hp, _, _ in domain.sides():
        ms = [m for m in (_side_vanishing_multiplier(hp, t) for t in terms.items())
              if m is not None]
        if not ms:
            raise BoundaryMismatch(f"no monomial vanishes on side {hp.n}")
        out[hp.n] = min(ms)
    return out


def _candidate_hull(domain: QPolygon, degrees: Dict[Vec, int]) -> list[Vec]:
    """Lattice points of conv{m(S) * n(S)}; the small support of any series
    with side degrees <= m(S) lies inside this hull."""
    pts = [(m * n[0], m * n[1]) for n, m in degrees.items()]
    pts.append((0, 0))
    return lp.hull_lattice_points(pts)


def _small_canonical_terms(domain: QPolygon, terms: Support) -> Support:
    """Renormalize a finite presentation to the small canonical form.

    The presentation must define a valid series: nonnegative (checked at the
    complex vertices, which include the domain vertices where the concave
    min attains its minimum) and vanishing on every side (a vanishing
    monomial per side must be present).

    A candidate stays iff its canonical affine touches the function at an
    interior point.  The touching set is the argmax of a concave piecewise
    linear function, hence the convex hull of the attaining complex vertices;
    it meets the open interior iff the centroid of those attainers does (a
    supporting boundary line through the centroid would contain them all).
    """
    # the presentation's linearity complex; it is built here and dropped
    cx = TropicalSeries(domain, terms, canonical=True)._int_complex()
    if min(F for _, _, F in cx.table) < 0:
        raise SeriesError("presentation is negative on the domain")
    degrees = _presentation_side_degrees(domain, terms)
    candidates = _candidate_hull(domain, degrees)

    domain_cons = domain.int_constraints()
    kept: Support = {}
    for u in candidates:
        u0, u1 = u
        gaps = [F - u0 * X - u1 * Y for X, Y, F in cx.table]
        b = max(gaps)
        sx = sy = count = 0
        for (X, Y, _), gap in zip(cx.table, gaps):
            if gap == b:
                sx += X
                sy += Y
                count += 1
        # the attainers' centroid is (sx, sy) / w; strictly inside the domain?
        w = count * cx.denom
        if all(A * sx + B * sy + C * w > 0 for A, B, C in domain_cons):
            kept[u] = Fraction(b, cx.denom)
    return dict(sorted(kept.items()))


def make_series(domain: ConvexDomain, support: Support) -> TropicalSeries:
    """Public constructor: renormalizes the presentation."""
    return TropicalSeries(domain, support)


# -- the spec operations ---------------------------------------------------


def distance_function(domain: ConvexDomain) -> TropicalSeries:
    """The weighted distance function: inf over nonzero monomials of the
    minimal affine form nonnegative on the domain."""
    from .geometry import is_admissible

    if not is_admissible(domain):
        raise NotAdmissible("domain is not admissible")
    if isinstance(domain, SupportOracle):
        terms = {v: -c for v, c in domain.support_values() if v != (0, 0)}
        return TropicalSeries(domain, terms, truncated=True)
    degrees = {hp.n: 1 for hp in domain.halfplanes}
    cands = _candidate_hull(domain, degrees)
    terms: Support = {}
    for v in cands:
        if v == (0, 0):
            continue
        c = support_coeff(domain, v)
        terms[v] = -c
    return TropicalSeries(domain, terms)


def canonical_coefficient(f: TropicalSeries, v: Vec) -> Fraction:
    """sup over the domain of (f - v.z): the canonical-form coefficient."""
    v = tuple(v)
    if isinstance(f.domain, SupportOracle) or not isinstance(f.domain, QPolygon):
        raise SeriesError("canonical coefficients require a polygon domain")
    # a series' polygon is bounded, so every coefficient is finite
    if v in f.support:
        return f.support[v]
    return f._int_complex().coefficient(v)


def rho(f: TropicalSeries, g: TropicalSeries) -> Fraction:
    """sup over the union of small supports of coefficient differences,
    missing coefficients filled canonically."""
    if f.domain != g.domain:
        raise DomainMismatch("series live on different domains")
    best = Fraction(0)
    for v in set(f.support) | set(g.support):
        av = canonical_coefficient(f, v)
        bv = canonical_coefficient(g, v)
        best = max(best, abs(av - bv))
    return best


def quasi_degree(f: TropicalSeries) -> Dict[Vec, int]:
    """Per side (keyed by primitive inward normal): the multiplier of the
    monomial dominating near that side.  Zero only for the zero series."""
    if f._quasi_degree is None:
        if not isinstance(f.domain, QPolygon):
            raise SeriesError("quasi-degree requires a polygon domain")
        f._quasi_degree = _presentation_side_degrees(f.domain, f.support)
    return dict(f._quasi_degree)


def is_nice(f: TropicalSeries) -> bool:
    """Unimodular polygon and quasi-degree with isolated >1 sides."""
    from .geometry import is_unimodular

    if not isinstance(f.domain, QPolygon):
        raise SeriesError("niceness requires a polygon domain")
    if not is_unimodular(f.domain):
        return False
    deg = quasi_degree(f)
    sides = [hp.n for hp in f.domain.halfplanes]  # sorted by angle = cyclic order
    k = len(sides)
    for i, n in enumerate(sides):
        if deg[n] > 1:
            left = deg[sides[(i - 1) % k]]
            right = deg[sides[(i + 1) % k]]
            if left != 1 or right != 1:
                return False
    return True


def add_monomial(f: TropicalSeries, v: Vec, c: Fraction) -> TropicalSeries:
    """Raise the canonical coefficient of v by c >= 0 and renormalize.

    Candidates for the new small support are the lattice points of the
    quasi-degree hull of a finite upper envelope of the result (the bumped
    small form plus, per side, the next vanishing multiple); coefficients
    come from the canonical form of f with only v bumped.
    """
    v = tuple(v)
    c = Fraction(c)
    if c < 0:
        raise NegativeIncrement("increment must be nonnegative")
    if not isinstance(f.domain, QPolygon):
        raise SeriesError("add_monomial requires a polygon domain")
    if c == 0:
        return f
    a_v = canonical_coefficient(f, v)

    envelope: Support = dict(f.support)
    envelope[v] = a_v + c
    old_degrees = _presentation_side_degrees(f.domain, f.support)
    for hp, _, _ in f.domain.sides():
        m = _side_vanishing_multiplier(hp, (v, a_v))
        if m is not None and m == old_degrees[hp.n]:
            nxt = ((m + 1) * hp.n[0], (m + 1) * hp.n[1])
            envelope.setdefault(nxt, (m + 1) * hp.a)
    degrees = _presentation_side_degrees(f.domain, envelope)
    candidates = _candidate_hull(f.domain, degrees)

    terms: Support = {}
    for u in candidates:
        terms[u] = a_v + c if u == v else canonical_coefficient(f, u)
    if v not in terms:
        terms[v] = a_v + c
    return TropicalSeries(f.domain, terms)


def tropical_product(f: TropicalSeries, g: TropicalSeries) -> TropicalSeries:
    """Pointwise sum (min-plus product) of two series on the same domain."""
    if f.domain != g.domain:
        raise DomainMismatch("series live on different domains")
    terms: Support = {}
    for u, a in f.support.items():
        for w, b in g.support.items():
            key = (u[0] + w[0], u[1] + w[1])
            val = a + b
            if key not in terms or val < terms[key]:
                terms[key] = val
    return TropicalSeries(f.domain, terms)


def clamp(f: TropicalSeries, level: Fraction) -> TropicalSeries:
    """min(f, level): adds the constant monomial at the given level."""
    terms = dict(f.support)
    level = Fraction(level)
    if (0, 0) not in terms or terms[(0, 0)] > level:
        terms[(0, 0)] = level
    return TropicalSeries(f.domain, terms)
