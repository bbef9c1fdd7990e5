"""Tropical series on rational convex polygons.

A series is the pointwise min of finitely many affine monomials
``i*x + j*y + a_ij`` with integer slopes, nonnegative on the domain and
vanishing on its boundary.  Internally we keep the *small canonical form*:
the coefficient of every stored monomial is minimal (``sup(f - v.z)`` over
the domain) and every stored monomial actually touches the function at some
interior point.  The full canonical form over all of Z^2 is virtual and
computed coefficient-by-coefficient on demand.

The kernel takes a `QPolygon` domain only (the constructor rejects any
other; `tropwave.oracle` covers domains given by support coefficients).
`TropicalSeries(domain, support)` is the one constructor, and it always
renormalizes, reading the small form off the presentation's linearity
complex, which `tropwave.complex` builds (`complex.build`, or
`complex.raised` in `add_monomial`).  Renormalization keeps a monomial of
the presentation whose cell is nonempty, at its presented coefficient, iff
that cell reaches the interior; every other candidate reads the complex's
vertex table (`Complex.touching`).  Values stay exact, and `Fraction`
appears only at the API boundary (coefficients, the cells of `cells()`,
`complex_vertices()`).

A series holds its complex in one field, and `TropicalSeries.cells`
returns it: the `complex.Complex`, which maps each monomial to its cell.
Every reader of a series' complex, in this module and in the wave, the
curve and the certificates, goes through `cells()`.

The constructor keeps the presentation's side degrees as the series'
quasi-degree (`_small_canonical_terms` says why they are the small form's).
It drops the presentation's complex, and the series builds its own on
first use, with one exception: `add_monomial`, the write path of every
wave, does each piece of work once.  It hands f's complex, built first if
f holds none, the raised v and its raised side degrees to the
constructor.  The degrees go to renormalization as they are, with no
scan of the presentation, and the result keeps `Complex.kept` of the
presentation's complex, so the next wave reads its cells without a second
build.  No vertex table is made on the way: the next wave's runner-up
reads coefficients, and a complex builds its table from its own cells
when first read.
A monomial outside a series' small form touches it on the boundary only,
where it vanishes, so `canonical_coefficient` prices it from the domain
(`geometry.support_coeff`) and reads no complex.
"""

from __future__ import annotations

import functools
import math
from collections.abc import Mapping
from fractions import Fraction
from typing import Dict, Optional

from . import complex as cplx
from . import exactlp as lp
from .complex import SeriesError, Support
from .exactlp import Point, Vec
from .geometry import QPolygon, is_unimodular, support_coeff


class OutsideDomain(SeriesError):
    pass


class DomainMismatch(SeriesError):
    pass


class BoundaryMismatch(SeriesError):
    pass


class NegativeIncrement(SeriesError):
    pass


class TropicalSeries:
    """Finite sparse monomial map over a polygon, in small canonical form.

    ``support`` is any presentation of a valid series.  The constructor
    holds it sorted, builds its complex through `cells()` and keeps the
    small form read off that complex, with the presentation's side degrees
    as its quasi-degree.  The one field ``_cells`` holds the series'
    complex, or None before its first use.  The constructor drops the
    presentation's complex, and the series builds its own on first use,
    unless ``_raised`` is set (`add_monomial` alone sets it) and every kept
    monomial carries its presented coefficient: the series then keeps
    `Complex.kept` of the presentation's complex.  ``_raised`` is (f's
    complex, v, the side degrees) for the presentation of f with v raised:
    `cells()` passes f's complex and v on to `complex.raised`, and
    renormalization takes the degrees as they are.
    """

    def __init__(self, domain: QPolygon, support: Support, *,
                 _raised: Optional[tuple] = None):
        if not isinstance(domain, QPolygon):
            raise SeriesError("a tropical series needs a polygon domain")
        self.domain = domain
        support = {tuple(v): Fraction(a) for v, a in support.items()}
        if not support:
            raise SeriesError("series needs at least one monomial")
        self.support = dict(sorted(support.items()))
        self._cells: Optional[cplx.Complex] = None
        presented = self.support
        cx = self.cells(_raised=_raised and _raised[:2])
        self.support, self._quasi_degree = _small_canonical_terms(
            domain, presented, cx, degrees=_raised and _raised[2])
        self._cells = None
        # a kept monomial whose coefficient is below its presented one (v,
        # raised past where it touches) has a cell the presentation lacks
        if _raised is not None and all(presented.get(u, a) == a
                                       for u, a in self.support.items()):
            self._cells = cx.kept(self.support)

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

    def cells(self, *, _raised: Optional[tuple] = None) -> cplx.Complex:
        """The series' linearity complex, built on first call and then
        held: as a mapping, monomial -> CCW vertex list of its (possibly
        degenerate) region, each list made on first read.  Every reader of
        a series' complex calls this.  The constructor alone passes
        ``_raised``."""
        if self._cells is None:
            self._cells = (cplx.build(self.domain, self.support)
                           if _raised is None else
                           cplx.raised(*_raised, self.domain, self.support))
        return self._cells

    def complex_vertices(self) -> list[Point]:
        """All vertices of the linearity decomposition (and the domain)."""
        return self.cells().vertices


def values_at(f: TropicalSeries, z: Point) -> tuple[list[int], int]:
    """Every monomial of f at z in integers: (vals, q) with q > 0 the lcm of
    the denominators of z and of the coefficients, and vals[i] = q (v.z + a_v)
    for the i-th monomial v in support order.  Raises OutsideDomain if z is
    outside the domain."""
    z = (Fraction(z[0]), Fraction(z[1]))
    if not f.domain.contains(z):
        raise OutsideDomain(f"{z} is outside the domain")
    X, Y, W = lp.homogeneous(z)
    q = math.lcm(W, *[a.denominator for a in f.support.values()])
    X, Y = X * (q // W), Y * (q // W)
    return [v[0] * X + v[1] * Y + a.numerator * (q // a.denominator)
            for v, a in f.support.items()], q


def evaluate(f: TropicalSeries, z: Point) -> Fraction:
    vals, q = values_at(f, z)
    return Fraction(min(vals), q)


def zero_series(domain: QPolygon) -> TropicalSeries:
    return TropicalSeries(domain, {(0, 0): 0})


# -- small canonical form -------------------------------------------------


def _vanishing_sides(offsets: Mapping[Vec, Fraction], v: Vec, a: Fraction
                     ) -> list[tuple[Vec, int]]:
    """The sides on whose line the monomial v.z + a vanishes identically,
    each as (primitive normal n, multiplier m >= 0) with v = m n; ``offsets``
    maps each side's normal to its offset a_S (the side's line is
    n.z + a_S = 0).  The constant 0 vanishes on every side, with m = 0, and
    any other constant on none.  Otherwise n is v's primitive direction and
    m = gcd(v), and v vanishes on that side iff it is one and a = m a_S."""
    if v == (0, 0):
        return [(n, 0) for n in offsets] if a == 0 else []
    m = math.gcd(*v)
    n = (v[0] // m, v[1] // m)
    b = offsets.get(n)
    if b is None or a.numerator * b.denominator != m * b.numerator * a.denominator:
        return []
    return [(n, m)]


def _side_offsets(domain: QPolygon) -> Dict[Vec, Fraction]:
    return {hp.n: hp.a for hp in domain.halfplanes}


def _presentation_side_degrees(domain: QPolygon, terms: Support) -> Dict[Vec, int]:
    """Per side (keyed by primitive normal, in half-plane order), the
    smallest multiplier of a vanishing monomial present in the presentation;
    raises if a side has none (the function would not vanish there)."""
    offsets = _side_offsets(domain)
    least: Dict[Vec, int] = {}
    for v, a in terms.items():
        for n, m in _vanishing_sides(offsets, v, a):
            if m < least.get(n, m + 1):
                least[n] = m
    for n in offsets:
        if n not in least:
            raise BoundaryMismatch(f"no monomial vanishes on side {n}")
    return {n: least[n] for n in offsets}


def _candidate_hull(degrees: Dict[Vec, int]) -> tuple[Vec, ...]:
    """Lattice points of conv{m(S) * n(S)}; the small support of any series
    with side degrees <= m(S) lies inside this hull."""
    return _degree_hull(tuple(sorted(degrees.items())))


@functools.lru_cache(maxsize=128)
def _degree_hull(degrees: tuple) -> tuple[Vec, ...]:
    """`_candidate_hull` of the sorted (normal, degree) pairs: it depends on
    the degrees alone, and a positive wave asks for it twice (`add_monomial`
    and its result's renormalization)."""
    pts = [(m * n[0], m * n[1]) for n, m in degrees]
    pts.append((0, 0))
    return tuple(lp.hull_lattice_points(pts))


def _small_canonical_terms(domain: QPolygon, terms: Support, cx: cplx.Complex,
                           degrees: Optional[Dict[Vec, int]] = None
                           ) -> tuple[Support, Dict[Vec, int]]:
    """Renormalize a finite presentation, whose linearity complex is cx, to
    the small canonical form; return it with the presentation's side
    degrees, which are also the small form's.  A raise hands them over as
    ``degrees``; else they are scanned here.

    The presentation must define a valid series: nonnegative (checked at the
    complex vertices, which include the domain vertices where the concave
    min attains its minimum) and vanishing on every side (a vanishing
    monomial per side must be present).  A raise is valid by construction,
    as g >= f >= 0, and takes neither check.

    The side degrees agree because near a side's midpoint every monomial
    that does not vanish on that side stays positive: it is nonnegative on
    the side and affine, so a zero inside the side would make it vanish on
    the whole line.  There the vanishing monomials, m times the distance-like
    form of the side, lie below the rest, and the one of least multiplier m
    attains f at interior points.  Its cell reaches the interior, so it is
    kept, and no vanishing monomial of smaller multiplier can be in the
    small form, as it would lie below f near the side.

    A candidate stays iff its canonical affine touches the function at an
    interior point.  The touching set is the argmax of a concave piecewise
    linear function, the convex hull of finitely many points of the closed
    domain, and it misses the open interior iff a supporting line of the
    domain holds it: iff all those points lie on one side's line, so it is
    kept iff every side's line misses one of them.
    - A candidate of the presentation with a nonempty cell attains the
      function there, so its presented coefficient is canonical and its
      cell is the touching set: it is read off the cell's vertices.  A cell
      of three or more points is a polygon, whose interior lies in the open
      domain, so it is kept without the test.
    - Any other candidate reads `Complex.touching`: its canonical
      coefficient is the max over the complex vertices of (f - u.z), and
      the touching set is the hull of the vertices attaining it.
    """
    if degrees is None:
        if min(F for _, _, F in cx.table) < 0:
            raise SeriesError("presentation is negative on the domain")
        degrees = _presentation_side_degrees(domain, terms)
    candidates = _candidate_hull(degrees)

    domain_cons = domain.int_constraints()
    kept: Support = {}
    for u in candidates:
        cell = points = cx.hcells.get(u)
        if not cell:
            b, points = cx.touching(u)
        # a polygon cell has interior points, inside the open domain
        if cell and len(cell) >= 3 or all(
                any(A * X + B * Y + C * W > 0 for X, Y, W in points)
                for A, B, C in domain_cons):
            kept[u] = terms[u] if cell else Fraction(b, cx.denom)
    return dict(sorted(kept.items())), degrees


def make_series(domain: QPolygon, support: Support) -> TropicalSeries:
    """Function-style spelling of `TropicalSeries(domain, support)`."""
    return TropicalSeries(domain, support)


# -- the spec operations ---------------------------------------------------


def distance_function(domain: QPolygon) -> TropicalSeries:
    """The weighted distance function: inf over nonzero monomials of the
    minimal affine form nonnegative on the domain."""
    degrees = {hp.n: 1 for hp in domain.halfplanes}
    return TropicalSeries(domain, {v: -support_coeff(domain, v)
                                   for v in _candidate_hull(degrees)
                                   if v != (0, 0)})


def canonical_coefficient(f: TropicalSeries, v: Vec) -> Fraction:
    """sup over the domain of (f - v.z): the canonical-form coefficient.

    For v in the small form it is the stored coefficient.  Any other v
    touches f on the boundary only: at an interior point z where
    v.z + c_v(f) touches f, v would be a supergradient of f, so in the hull
    of the exponents attaining f at z, which lie in the small form's
    candidate hull, and renormalization would have kept v.  On the
    boundary f = 0, so c_v(f) = max over the domain of -v.z =
    -`support_coeff`(domain, v), and v's touching set is the face of the
    domain on which v.z + c_v(f) vanishes.  No complex is read."""
    v = tuple(v)
    if v in f.support:
        return f.support[v]
    return -support_coeff(f.domain, v)


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
    return dict(f._quasi_degree)


def is_nice(f: TropicalSeries) -> bool:
    """Unimodular polygon and quasi-degree with isolated >1 sides."""
    if not is_unimodular(f.domain):
        return False
    return nice_degrees(f.domain, quasi_degree(f))


def nice_degrees(domain: QPolygon, deg: Dict[Vec, int]) -> bool:
    """Does every side of degree > 1 lie between two sides of degree 1?
    ``deg`` maps each side's primitive normal to its degree."""
    sides = [hp.n for hp in domain.halfplanes]  # sorted by angle = cyclic order
    k = len(sides)
    return all(deg[sides[i - 1]] == 1 and deg[sides[(i + 1) % k]] == 1
               for i, n in enumerate(sides) if deg[n] > 1)


def add_monomial(f: TropicalSeries, v: Vec, c: Fraction) -> TropicalSeries:
    """Raise the canonical coefficient of v by c >= 0 and renormalize.

    The result's side degrees are f's quasi-degree, raised by one on each
    side whose vanishing monomial of least multiplier is v: raised, v no
    longer vanishes there, and the next multiple of the side's normal
    dominates near it.  The candidates for the new small support are the
    lattice points of their hull; coefficients come from the canonical form
    of f with only v bumped, those outside f's support priced from the
    domain (`canonical_coefficient`), so pricing builds no complex.  The
    presentation's complex is `complex.raised` from f's, built first and
    kept if f holds none; the result keeps `Complex.kept` of it, and the
    side degrees go to its renormalization as they are.
    """
    v = tuple(v)
    c = Fraction(c)
    if c < 0:
        raise NegativeIncrement("increment must be nonnegative")
    if c == 0:
        return f
    a_v = canonical_coefficient(f, v)
    degrees = quasi_degree(f)
    for n, m in _vanishing_sides(_side_offsets(f.domain), v, a_v):
        if m == degrees[n]:
            degrees[n] += 1
    terms: Support = {u: canonical_coefficient(f, u)
                      for u in _candidate_hull(degrees) if u != v}
    terms[v] = a_v + c
    # each u != v carries c_u(f), and f <= g <= u.z + c_u(f) gives
    # c_u(g) = c_u(f): the result keeps the presentation's cells, built
    # from f's
    return TropicalSeries(f.domain, terms, _raised=(f.cells(), v, degrees))


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
