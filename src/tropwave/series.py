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
renormalizes, reading the small form off the presentation's complex.
A series builds its own linearity complex once, on first use, in
integers: each cell is the domain polygon clipped by the
denominator-cleared dominance constraints one at a time, nearest exponent
first.  The clip is the cell: its points in the clip's counterclockwise
order, rotated to the start `exactlp.sort_ccw` gives, one rule for
segments and polygons alike; a polygon cell is checked once by
`exactlp.basic_points` on its side lines.  The complex vertices are held
as integer points over one common denominator D, and with them the
integers D * f.
Renormalization keeps a monomial of the presentation whose cell is
nonempty, at its presented coefficient, iff that cell reaches the
interior; every other candidate reads that table (`_Complex.touching`),
and `refine`'s certificates clip the integer cells.  Values stay
exact, and `Fraction` appears only at the API boundary (coefficients,
`cells()`, `complex_vertices()`).  The `Fraction`
points of a cell or of the vertex list are made on first read, so a
complex that is only read in integers converts none.

The constructor keeps the presentation's side degrees as the series'
quasi-degree (`_small_canonical_terms` says why they are the small form's).
It drops the presentation's complex, and the series builds its own on
first use, with one exception: `add_monomial`, the write path of
every wave, hands the presentation's complex, restricted to the kept
monomials, to its result (`_Complex.restricted` says why that is exact), so
the next wave reads it without a second build.  `add_monomial` also hands
f's complex, built first if f holds none, and the raised v to the
presentation's build, which then takes every cell by one rule and clips
nothing from the domain: raising one coefficient changes the series only
inside P_v, v's cell in f, so each monomial's cell is where it touches f,
joined with its piece of P_v if the raise reaches it (`_raised_cells`).
Most joins are a splice of two rings that share one side (`_splice`),
and every vertex of f's complex keeps f's value, so only the vertices
new in the raised build take a min over the monomials.
A monomial outside a series' small form touches it on the boundary only,
where it vanishes, so `canonical_coefficient` prices it from the domain
(`geometry.support_coeff`) and reads no complex, and in a raise its
touching set is the face of the domain where its priced affine vanishes.
"""

from __future__ import annotations

import functools
import math
from collections.abc import Mapping
from fractions import Fraction
from typing import Dict, Optional, Sequence

from . import exactlp as lp
from .exactlp import Point, Vec
from .geometry import QPolygon, is_unimodular, support_coeff


class SeriesError(Exception):
    pass


class OutsideDomain(SeriesError):
    pass


class DomainMismatch(SeriesError):
    pass


class BoundaryMismatch(SeriesError):
    pass


class NegativeIncrement(SeriesError):
    pass


Support = Dict[Vec, Fraction]


class TropicalSeries:
    """Finite sparse monomial map over a polygon, in small canonical form.

    ``support`` is any presentation of a valid series.  The constructor
    holds it sorted, builds its complex through `cells()` and keeps the
    small form read off that complex, with the presentation's side degrees
    as its quasi-degree.  It drops the complex, and the series
    builds its own on first use, unless ``_raised`` is set (`add_monomial`
    alone sets it) and every kept monomial carries its presented
    coefficient: the series then keeps the complex restricted to its small
    form (`_Complex.restricted`).  ``_raised`` is (f's complex, v) for the
    presentation of f with v raised, and `cells()` passes it on to the
    build (`_Complex`).
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
        self._cells: Optional[Mapping] = None
        self._complex: Optional[_Complex] = None
        self.cells(_raised=_raised)
        presented, cx = self.support, self._complex
        self.support, self._quasi_degree = _small_canonical_terms(
            domain, presented, cx)
        self._cells = self._complex = None
        # a kept monomial whose coefficient is below its presented one (v,
        # raised past where it touches) has a cell the presentation lacks
        if _raised is not None and all(presented.get(u, a) == a
                                       for u, a in self.support.items()):
            self._complex = cx.restricted(self.support)
            self._cells = self._complex.cells

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

    def cells(self, *, _raised: Optional[tuple] = None) -> Mapping:
        """Monomial -> CCW vertex list of its (possibly degenerate) region,
        each list made on first read.  The constructor alone passes
        ``_raised``."""
        if self._cells is None:
            hand_off = {} if _raised is None else {"_raised": _raised}
            self._complex = _Complex(self.domain, self.support, **hand_off)
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
    no `Fraction` arithmetic.  A cell is the domain clipped by the
    constraint of each other monomial w against v, in order of the exponent
    distance |w - v|^2 (a stable sort, so ties stay in support order).  The
    cell is an intersection of half-planes, so the order changes at most
    the clip's start.  The neighbours of v in the regular subdivision come
    first and shrink the clip to the cell after a few cuts; every later cut
    costs one evaluation of a small ring, and a cut that misses or only
    touches it leaves it as it is.  The clip holds only vertices of the cell
    (a kept point was a vertex of a larger polygon, and a crossing lies on
    two distinct lines that both bound the cut one), so it is the cell:
    - a clip of at most one point is the cell as it is;
    - a clip of two or more points takes the clip's counterclockwise order,
      rotated by `exactlp.rotate_ccw` to the start `exactlp.sort_ccw` would
      give, so a cell's order is a function of its points alone (a
      segment's end above its midpoint first, or right of it on a level
      line).  A segment is checked by its two side lines, its line both
      ways round; a polygon by one `exactlp.basic_points` call on its
      distinct side lines (`_side_lines`, the lines through neighbouring
      clip points), whose pairs meet exactly its vertices.  Either check
      raises if the clip holds anything else.
    Enumerating the vertices over every tight constraint would cost O(k^3)
    per cell, and at a complex vertex hundreds can be tight.
    ``_raised`` = (f's complex, v) marks the presentation of
    `add_monomial`(f, v, c): then every cell comes from `_raised_cells`
    already in order, read off f's complex (and, for a monomial outside f's
    support, off the domain's vertices) with clips inside v's cell in f
    only, and none is clipped from the domain.
    Every cell of two or more points takes the same check either way
    (`_check_cell`), and the fields equal a build from the domain's.
    The complex vertices, in first-seen order over the cells, are kept as
    ``table`` rows (X, Y, F): the vertex is (X, Y) / denom and F is denom
    times the series there, the least of the lifted monomials
    (`_min_values`).  In a raised build, a vertex already in f's table lies
    on the boundary of v's cell in f or outside it, where the raised series
    equals f, so its F is f's row rescaled to this denom; the division is
    exact, and a remainder raises SeriesError.  Only the new vertices take
    the min.  ``hcells`` maps each monomial to its cell as
    reduced homogeneous points (X, Y, W), W > 0, in the order of ``cells``;
    ``cells`` and ``vertices`` are the same data as `Fraction` points, made
    on first read: a build converts nothing, and a reader pays only for the
    cells it reads.
    """

    __slots__ = ("denom", "table", "hcells", "cells", "_hverts", "_vertices")

    def __init__(self, domain: QPolygon, support: Support, *,
                 _raised: Optional[tuple] = None):
        # star-arguments come from lists, not generators: on CPython 3.11
        # the generator form made the peak RSS of long runs creep upwards
        scale = math.lcm(*[a.denominator for a in support.values()])
        alpha = [a.numerator * (scale // a.denominator)
                 for a in support.values()]
        # monomial v as the triple (scale v0, scale v1, alpha_v)
        triples = [(scale * v[0], scale * v[1], av)
                   for v, av in zip(support, alpha)]
        if _raised is None:
            domain_verts = domain.hvertices
            hcells = {}
            for v, (Av, Bv, Cv) in zip(support, triples):
                # the constraint (w - v) . z + alpha_w - alpha_v >= 0, for
                # every w in support order; w == v gives the only row of
                # zeros
                cons = [(Aw - Av, Bw - Bv, Cw - Cv) for Aw, Bw, Cw in triples]
                # nearest exponents first, ties in support order: v's own
                # row leads, and the subdivision neighbours shrink the cell
                # early
                cell = _clip(domain_verts, _nearest_first(cons)[1:])
                _check_cell(v, cell)
                hcells[v] = lp.rotate_ccw(cell) if len(cell) >= 2 else cell
        else:
            hcells = _raised_cells(dict(zip(support, triples)), domain,
                                   *_raised)
            for v, cell in hcells.items():
                _check_cell(v, cell)

        hverts = list(dict.fromkeys(h for hs in hcells.values() for h in hs))
        denom = math.lcm(scale, *[h[2] for h in hverts])
        points = [(X * (denom // W), Y * (denom // W)) for X, Y, W in hverts]
        # a vertex of f's complex lies off the interior of P_v, where g = f
        base = _raised[0] if _raised else None
        old = dict(zip(base._hverts, base.table)) if base else {}
        lift = denom // scale
        lifted = [(v[0], v[1], av * lift) for v, av in zip(support, alpha)]
        new = iter(_min_values(lifted, [p for h, p in zip(hverts, points)
                                        if h not in old]))
        table = []
        for h, (X, Y) in zip(hverts, points):
            row = old.get(h)
            if row is None:
                F = next(new)
            else:
                F, r = divmod(row[2] * denom, base.denom)
                if r:
                    raise SeriesError(f"f at the vertex {h} of its complex "
                                      f"is no multiple of 1/{denom}")
            table.append((X, Y, F))
        self.denom = denom
        self.table = table
        self.hcells = hcells
        self.cells = _Cells(hcells)
        self._hverts = hverts
        self._vertices = None

    def restricted(self, support: Support) -> "_Complex":
        """The complex of the series g whose small form is ``support``, read
        off this complex of a presentation P of g in which every monomial of
        ``support`` carries the same coefficient.  It equals
        ``_Complex(domain, support)`` on every field, and costs no clip and
        no enumeration.

        A cell is the set where its monomial attains g, so each monomial of
        ``support`` has the same cell in both builds.  A point cell is its
        clip, and a cell of two or more points comes out in the same order
        in both, since `exactlp.rotate_ccw` orders it by its points alone.
        ``hcells`` is P's restricted to ``support``, in its order; the
        vertices are taken in first-seen order over it.  ``denom`` becomes
        lcm(scale of ``support``, vertex W), which divides P's, and each
        ``table`` row is P's row divided by their quotient, as P's min is g.
        Raises SeriesError if a monomial of ``support`` is not in P.
        """
        hcells = {}
        for v in support:
            if v not in self.hcells:
                raise SeriesError(f"kept monomial {v} is not in the presentation")
            hcells[v] = self.hcells[v]
        hverts = list(dict.fromkeys(h for hs in hcells.values() for h in hs))
        denom = math.lcm(*[a.denominator for a in support.values()],
                         *[h[2] for h in hverts])
        k = self.denom // denom
        rows = dict(zip(self._hverts, self.table))
        out = object.__new__(type(self))
        out.denom = denom
        out.table = [(X // k, Y // k, F // k)
                     for X, Y, F in [rows[h] for h in hverts]]
        out.hcells = hcells
        out.cells = _Cells(hcells)
        out._hverts = hverts
        out._vertices = None
        return out

    @property
    def vertices(self) -> list[Point]:
        """The complex vertices as `Fraction` points, in ``table`` order."""
        if self._vertices is None:
            self._vertices = [self.cells.point(h) for h in self._hverts]
        return self._vertices

    def touching(self, u: Vec) -> tuple[int, list]:
        """(b, attainers): b / denom is the canonical coefficient of u, the
        max over the complex vertices of (f - u.z), and ``attainers`` are the
        vertices that attain it, as ``hcells`` points in ``table`` order.
        u's touching set is their convex hull: f - u.z is affine on each
        cell, so its argmax meets each cell in a face, whose vertices are
        complex vertices.  Renormalizing an arbitrary presentation is the
        one reader; a monomial outside a series' small form needs no scan,
        as it touches the series on the boundary only
        (`canonical_coefficient`)."""
        u0, u1 = u
        gaps = [F - u0 * X - u1 * Y for X, Y, F in self.table]
        b = max(gaps)
        return b, [h for h, gap in zip(self._hverts, gaps) if gap == b]


class _Cells(Mapping):
    """Monomial -> its cell as a list of `Fraction` points, read off
    ``hcells`` in its order.  A cell is converted the first time it is
    read, and each point once per complex, so cells that share a vertex
    share its point."""

    __slots__ = ("_hcells", "_read", "_points")

    def __init__(self, hcells: dict):
        self._hcells = hcells
        self._read: dict = {}
        self._points: dict = {}

    def point(self, h) -> Point:
        p = self._points.get(h)
        if p is None:
            p = self._points[h] = lp.to_point(h)
        return p

    def __getitem__(self, v) -> list[Point]:
        cell = self._read.get(v)
        if cell is None:
            cell = self._read[v] = [self.point(h) for h in self._hcells[v]]
        return cell

    def __iter__(self):
        return iter(self._hcells)

    def __len__(self) -> int:
        return len(self._hcells)


def _min_values(lifted: list, points: list) -> list:
    """denom times the series at each of ``points``, integer pairs (X, Y)
    standing for (X, Y) / denom: the least of the ``lifted`` monomials
    (a, b, c), each a x + b y + c on that scale."""
    return [min([a * X + b * Y + c for a, b, c in lifted])
            for X, Y in points]


def _nearest_first(cuts: list) -> list:
    """``cuts`` of one monomial u, each the row (w - u, alpha_w - alpha_u)
    of another, by the exponent distance |w - u|^2, ties in their order."""
    return sorted(cuts, key=lambda c: c[0] * c[0] + c[1] * c[1])


def _raised_cells(triples: dict, domain: QPolygon, base: "_Complex",
                  v: Vec) -> dict:
    """Every cell of the presentation of g = `add_monomial`(f, v, c), read
    off f's complex ``base`` on ``domain`` with clips inside P_v, v's cell
    in it, only.  ``triples`` maps each monomial of the presentation to its
    integer triple, in support order, v's raised; every w != v carries
    c_w(f).  A v outside f's small form has no cell in f: P_v is empty, so
    no monomial is near, no clip is made and every cell is S_f(w), as v
    touches f on the boundary only and the raise leaves f as it is.

    Off P_v, f lies below the raised v, so g = f there.  The cell of w in
    g, the set where w = g, is S_f(w) | piece(w):
    - S_f(w) is where w touches f: its cell in f for w in f's support, and
      empty for v.  Any other w touches f on the boundary only
      (`canonical_coefficient`), on the face of the domain where its
      priced affine vanishes: the hull of the domain vertices at which its
      triple is zero, one vertex or the two ends of a side.  Where S_f(w)
      meets P_v, w = f < raised v, so w = g there too.
    - piece(w) is P_v clipped by the near monomials, v and each w reached:
      one whose row against the raised v is <= 0 at some vertex of P_v.
      On P_v, g is the min of the near monomials, since an unreached w
      lies above the raised v there; so an unreached w has no piece, and
      its cell in g is S_f(w).
    The union is convex.  S_f(w) with no piece is the cell: a cell of f,
    copied in order already, or a domain vertex or side.  A piece
    that holds every point of S_f(w) is the cell, in `exactlp.rotate_ccw`
    order (v's always, as S_f(v) is empty).  Any other cell is S_f(w)
    joined with its piece (`_join`), in one of three ways: S_f(w) as it is
    when the piece's points are all its points (a shared side or vertex);
    a splice of the two rings when both are polygons sharing one side
    (`_splice`); else the hull of both parts (`_hull`), as for a segment or
    a point on either side, and so for every entrant.  Each cell comes out
    as its vertices in `exactlp.rotate_ccw` order, as a build from the
    domain gives it."""
    ring = base.hcells.get(v, [])
    Av, Bv, Cv = triples[v]
    # v's own row is all zeros, so v is near unless P_v is empty
    near = {}
    for w, (A, B, C) in triples.items():
        dA, dB, dC = A - Av, B - Bv, C - Cv
        if any(dA * X + dB * Y + dC * W <= 0 for X, Y, W in ring):
            near[w] = (A, B, C)
    out = {}
    for u, (Au, Bu, Cu) in triples.items():
        cell = [] if u == v else (base.hcells.get(u) or _hull(
            [h for h in domain.hvertices
             if Au * h[0] + Bu * h[1] + Cu * h[2] == 0]))
        if u in near:
            piece = _clip(ring, _nearest_first([(A - Au, B - Bu, C - Cu)
                                                for w, (A, B, C) in near.items()
                                                if w != u]))
            if piece and set(cell) <= set(piece):
                cell = lp.rotate_ccw(piece) if len(piece) >= 2 else piece
            elif piece:
                cell = _join(cell, piece)
        out[u] = cell
    return out


def _join(cell: list, piece: list) -> list:
    """The vertices of S | B in `exactlp.rotate_ccw` order, for S =
    ``cell`` a monomial's touching set in f, in that order already, and B =
    ``piece`` its piece of P_v, which does not hold every point of S; the
    union is the monomial's cell in g.  If B's points are all points of S,
    it is S as it is; if `_splice` takes the shape, its ring; else `_hull`
    of both parts."""
    if set(piece) <= set(cell):
        return cell
    return _splice(cell, piece) or _hull(cell + piece)


def _splice(cell: list, piece: list) -> Optional[list]:
    """The union of two counterclockwise polygons S = ``cell`` and B =
    ``piece`` whose union is convex, in `exactlp.rotate_ccw` order, when
    they share exactly two points a1, a2, an edge a1 a2 of S and a2 a1 of
    B; None for any other shape.

    S and B lie on opposite sides of the edge's line, which meets each in
    that edge, so the union's boundary is S's ring from a2 round to a1
    followed by B's points strictly between.  Every point off the line
    stays a vertex; a junction a1 or a2 is dropped where it is collinear
    with its two neighbours (`_turn`)."""
    if len(cell) < 3 or len(piece) < 3:
        return None
    at = {h: j for j, h in enumerate(piece)}
    shared = [i for i, h in enumerate(cell) if h in at]
    if len(shared) != 2:
        return None
    i, k = shared
    a1 = k if (i, k) == (0, len(cell) - 1) else i
    a2 = a1 + 1 if a1 + 1 < len(cell) else 0
    # a1 a2 is an edge of S (so a2 is shared) and a2 a1 one of B
    j = at[cell[a1]]
    if piece[j - 1] != cell[a2]:
        return None
    ring = cell[a2:] + cell[:a2] + (piece[j + 1:] + piece[:j])[:-1]
    n, end = len(ring), len(cell) - 1
    return lp.rotate_ccw([h for m, h in enumerate(ring)
                          if m not in (0, end)
                          or _turn(ring[m - 1], h, ring[(m + 1) % n])])


def _turn(a, b, c) -> int:
    """det[a; b; c] of three homogeneous points (W > 0), whose sign is
    their orientation: positive for a left turn, zero iff collinear."""
    (X1, Y1, W1), (X2, Y2, W2), (X3, Y3, W3) = a, b, c
    return (X1 * (Y2 * W3 - Y3 * W2) - Y1 * (X2 * W3 - X3 * W2)
            + W1 * (X2 * Y3 - X3 * Y2))


def _hull(points: list) -> list:
    """The vertices of the convex hull of homogeneous points, in
    `exactlp.rotate_ccw` order.  One or two distinct points are their own
    hull; more take `exactlp.convex_hull` over the points on one common
    denominator, whose strict turns drop collinear points."""
    ring = list(dict.fromkeys(points))
    if len(ring) > 2:
        Q = math.lcm(*[W for _, _, W in ring])
        back = {(X * (Q // W), Y * (Q // W)): (X, Y, W) for X, Y, W in ring}
        ring = [back[p] for p in lp.convex_hull(list(back))]
    return lp.rotate_ccw(ring) if len(ring) >= 2 else ring


def _check_cell(v: Vec, cell: list) -> None:
    """Raise unless ``cell``, a clip or a raised cell of ``v``, holds only
    vertices of its cell: a segment by its two side lines, its line both
    ways round; a polygon by one `exactlp.basic_points` call on its
    distinct side lines (`_side_lines`), whose pairs meet exactly its
    vertices."""
    if len(cell) >= 2:
        sides = _side_lines(cell)
        n = 2 if len(sides) == 2 else len(lp.basic_points(list(sides)))
        if n != len(cell):
            raise SeriesError(f"the clip of {v} holds a point that is no "
                              "vertex of its cell")


def _side_lines(cell: list) -> dict:
    """The distinct lines through neighbouring points of ``cell``, a clip of
    two or more points, in ring order, each as a reduced triple oriented
    with the cell on its nonnegative side (the clip runs counterclockwise
    round the cell's boundary, and the clip points on a side are
    neighbours).  A polygon cell has one per side; a segment cell has two,
    its line both ways round."""
    sides = {}
    X0, Y0, W0 = cell[-1]
    for X1, Y1, W1 in cell:
        A, B, C = Y0 * W1 - W0 * Y1, W0 * X1 - X0 * W1, X0 * Y1 - Y0 * X1
        g = math.gcd(A, B, C)
        sides[A // g, B // g, C // g] = None
        X0, Y0, W0 = X1, Y1, W1
    return sides


def _clip(poly: Sequence, cuts: list) -> list:
    """The convex polygon ``poly`` (homogeneous points (X, Y, W), W > 0, in
    cyclic order) cut by each half-plane A x + B y + C >= 0 in turn.

    Returns points in cyclic order whose convex hull is the cut polygon; it
    holds every vertex of the hull (and possibly points on its sides), and
    is empty if the cut polygon is.  An edge whose ends lie strictly on
    opposite sides of a cut line meets it at s1 * h2 - s2 * h1.
    """
    for A, B, C in cuts:
        for X, Y, W in poly:
            if A * X + B * Y + C * W < 0:
                break
        else:
            continue
        s = [A * X + B * Y + C * W for X, Y, W in poly]
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


def _small_canonical_terms(domain: QPolygon, terms: Support, cx: _Complex
                           ) -> tuple[Support, Dict[Vec, int]]:
    """Renormalize a finite presentation, whose linearity complex is cx, to
    the small canonical form; return it with the presentation's side
    degrees, which are also the small form's.

    The presentation must define a valid series: nonnegative (checked at the
    complex vertices, which include the domain vertices where the concave
    min attains its minimum) and vanishing on every side (a vanishing
    monomial per side must be present).

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
    - Any other candidate reads `_Complex.touching`: its canonical
      coefficient is the max over the complex vertices of (f - u.z), and
      the touching set is the hull of the vertices attaining it.
    """
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
    domain (`canonical_coefficient`), so pricing builds no complex.  Every
    cell of the presentation's complex is read off f's, built first and
    kept if f holds none, with clips inside v's cell only
    (`_raised_cells`); the result keeps that complex restricted to its
    small form.
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
    # c_u(g) = c_u(f): the result inherits the presentation's complex,
    # built from f's
    return TropicalSeries(f.domain, terms, _raised=(f._int_complex(), v))


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
