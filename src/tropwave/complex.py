"""The linearity complex of a polygon series, built in integers.

A series f = min over its support of v.z + a_v, on a `QPolygon` domain, is
affine on each cell of its complex: the cell of v is the set where v
attains f.  The module has two entry points, and both return a `Complex`:

- `build`(domain, support) builds the complex of any presentation from the
  domain;
- `raised`(base, v, domain, support) builds the complex of the
  presentation of g = `series.add_monomial`(f, v, c), v raised, from
  ``base``, f's complex.

A `Complex` is the mapping from each monomial to its cell as `Fraction`
points, and it has no separate cells field.  That mapping, its
``hcells``, ``denom``, ``table`` and ``vertices``, `Complex.point`,
`Complex.touching` and `Complex.kept` are the contract that the series
algebra, the wave and the curve read, each through
`series.TropicalSeries.cells`; `clip` is the one polygon clip, and
`refine`'s certificates clip the integer cells with it.  Values stay
exact, and no `Fraction` arithmetic is done: coefficients are scaled by
the lcm of their denominators and every constraint is an integer triple
(A, B, C) for A x + B y + C >= 0.

The whole build.  A cell is the domain clipped by the constraint of each
other monomial w against v, in order of the exponent distance |w - v|^2 (a
stable sort, so ties stay in support order).  The cell is an intersection
of half-planes, so the order changes at most the clip's start.  The
neighbours of v in the regular subdivision come first and shrink the clip
to the cell after a few cuts; every later cut costs one evaluation of a
small ring, and a cut that misses or only touches it leaves it as it is.
The clip holds only vertices of the cell (a kept point was a vertex of a
larger polygon, and a crossing lies on two distinct lines that both bound
the cut one), so it is the cell:
- a clip of at most one point is the cell as it is;
- a clip of two or more points takes the clip's counterclockwise order,
  rotated by `exactlp.rotate_ccw` to the start `exactlp.sort_ccw` would
  give, so a cell's order is a function of its points alone (a segment's
  end above its midpoint first, or right of it on a level line).
Enumerating the vertices over every tight constraint would cost O(k^3)
per cell, and at a complex vertex hundreds can be tight.

The raise.  Raising one coefficient changes the series only inside P_v,
v's cell in f, so each monomial's cell is where it touches f, joined with
its piece of P_v if the raise reaches it (`_raised_cells`); most joins are
a splice of two rings that share one side (`_splice`).  Every cell comes
from f's complex already in order (or, for a monomial outside f's support,
from the domain's vertices), with clips inside P_v only, and none is
clipped from the domain.  A v outside f's small form has no cell in f, so
nothing is clipped and the presentation's cells are f's.

Either way, every cell of two or more points takes the same check
(`_check_cell`): a segment by its two side lines, its line both ways
round; a polygon by one `exactlp.basic_points` call on its distinct side
lines (`_side_lines`, the lines through neighbouring clip points), whose
pairs meet exactly its vertices.  Either check raises if the cell holds
anything else.  The fields of a raised build equal a whole build's.

The table.  The complex vertices, in first-seen order over the cells, are
kept as ``table`` rows (X, Y, F): the vertex is (X, Y) / denom and F is
denom times the series there, the least of the lifted monomials.
``denom``, ``table`` and ``_hverts`` are built together on first read, in
one pass over the complex's own cells (`_table`), and a build makes none:
renormalization reads the table of a presentation that has a candidate
with no cell (`Complex.touching`) or that no raise handed over,
`series.TropicalSeries.complex_vertices` reads it, and the wave, the raise
and the curve read only cells.  `Complex.kept` reads the complex of the
series g off the complex of a raised presentation of g, with no clip.
``hcells`` maps each monomial to its cell as reduced homogeneous points
(X, Y, W), W > 0; the complex's own items and ``vertices`` are the same
data as `Fraction` points, made on first read: a build converts nothing,
and a reader pays only for the cells it reads.
"""

from __future__ import annotations

import math
from collections.abc import Mapping, Sequence
from fractions import Fraction

from . import exactlp as lp
from .exactlp import Point, Vec
from .geometry import QPolygon


class SeriesError(Exception):
    """A series, a presentation or a complex that is not valid; the series
    algebra's errors (`tropwave.series`) derive from it."""


Support = dict[Vec, Fraction]


def build(domain: QPolygon, support: Support) -> Complex:
    """The complex of the series presented by ``support`` (sorted, with
    `Fraction` coefficients) on ``domain``, each cell clipped from the
    domain, nearest exponents first."""
    triples = _triples(support)
    hcells = {}
    for v, (Av, Bv, Cv) in triples.items():
        # the constraint (w - v) . z + alpha_w - alpha_v >= 0, for every w in
        # support order; w == v gives the only row of zeros
        cons = [(Aw - Av, Bw - Bv, Cw - Cv) for Aw, Bw, Cw in triples.values()]
        # nearest exponents first, ties in support order: v's own row leads,
        # and the subdivision neighbours shrink the cell early
        cell = clip(domain.hvertices, _nearest_first(cons)[1:])
        _check_cell(v, cell)
        hcells[v] = lp.rotate_ccw(cell) if len(cell) >= 2 else cell
    return Complex(hcells, support)


def raised(base: Complex, v: Vec, domain: QPolygon, support: Support
           ) -> Complex:
    """The complex of ``support``, the presentation of g =
    `series.add_monomial`(f, v, c) on ``domain``, read off f's complex
    ``base`` with clips inside v's cell in it only (`_raised_cells`).  It
    holds no reference to ``base``."""
    return Complex(_raised_cells(_triples(support), domain, base, v), support)


def _triples(support: Support) -> dict:
    """Each monomial v of ``support``, in its order, mapped to the integer
    triple (scale v0, scale v1, alpha_v) with alpha_v = scale a_v, for scale
    the lcm of the coefficient denominators."""
    # star-arguments come from lists, not generators: on CPython 3.11 the
    # generator form made the peak RSS of long runs creep upwards
    scale = math.lcm(*[a.denominator for a in support.values()])
    return {v: (scale * v[0], scale * v[1],
                a.numerator * (scale // a.denominator))
            for v, a in support.items()}


class Complex(Mapping):
    """The linearity complex of the series presented by ``support``, with
    cells ``hcells``.  A build is `build` or `raised`; the fields are the
    module's, and the table is built from the cells on first read.  The
    complex is itself the mapping from each monomial to its cell as a list
    of `Fraction` points, read off ``hcells`` in its order.  A cell is
    converted the first time it is read, and each point once per complex
    (`point`), so cells that share a vertex share its point."""

    __slots__ = ("denom", "table", "hcells", "vertices", "_hverts",
                 "_support", "_read", "_points")

    def __init__(self, hcells: dict, support: Support):
        self.hcells = hcells
        self._support = support
        self._read: dict = {}
        self._points: dict = {}

    def __getattr__(self, name):
        # a build leaves ``vertices``, ``denom``, ``table`` and ``_hverts``
        # unset, and fills each on its first read, the last three together
        if name == "vertices":
            self.vertices = [self.point(h) for h in self._hverts]
        elif name in ("denom", "table", "_hverts"):
            self._hverts, self.denom, self.table = _table(self.hcells,
                                                          self._support)
        else:
            raise AttributeError(name)
        return getattr(self, name)

    def __getitem__(self, v) -> list[Point]:
        cell = self._read.get(v)
        if cell is None:
            cell = self._read[v] = [self.point(h) for h in self.hcells[v]]
        return cell

    def __iter__(self):
        return iter(self.hcells)

    def __len__(self) -> int:
        return len(self.hcells)

    def point(self, h) -> Point:
        """The `Fraction` point of the homogeneous point ``h``, made once
        per complex."""
        p = self._points.get(h)
        if p is None:
            p = self._points[h] = lp.to_point(h)
        return p

    def kept(self, support: Support) -> Complex:
        """The complex of the series g whose small form is ``support``, read
        off this complex of a raised presentation of g in which every
        monomial of ``support`` carries the same coefficient.  It equals
        `build`(domain, support) on every field, and costs no clip, no
        enumeration and no table until one is read: a cell is the set where
        its monomial attains g, so each monomial of ``support`` has the same
        cell in both builds, in the same order, as `exactlp.rotate_ccw`
        orders a cell by its points alone.  Raises SeriesError if a
        monomial of ``support`` has no cell here."""
        try:
            hcells = {v: self.hcells[v] for v in support}
        except KeyError as exc:
            raise SeriesError(f"kept monomial {exc.args[0]} is not in the "
                              "presentation") from None
        return Complex(hcells, support)

    def touching(self, u: Vec) -> tuple[int, list]:
        """(b, attainers): b / denom is the canonical coefficient of u, the
        max over the complex vertices of (f - u.z), and ``attainers`` are the
        vertices that attain it, as ``hcells`` points in ``table`` order.
        u's touching set is their convex hull: f - u.z is affine on each
        cell, so its argmax meets each cell in a face, whose vertices are
        complex vertices.  Renormalizing an arbitrary presentation is the
        one reader; a monomial outside a series' small form needs no scan,
        as it touches the series on the boundary only
        (`series.canonical_coefficient`)."""
        u0, u1 = u
        gaps = [F - u0 * X - u1 * Y for X, Y, F in self.table]
        b = max(gaps)
        return b, [h for h, gap in zip(self._hverts, gaps) if gap == b]


def _table(hcells: dict, support: Support) -> tuple:
    """(hverts, denom, table) of the complex whose cells are ``hcells``, of
    the series presented by ``support``, in one pass over the cells: the
    complex vertices in first-seen order, the lcm of the coefficient
    denominators and the vertex W, and per vertex the row (X, Y, F), the
    vertex (X, Y) / denom and F the least of the lifted monomials there
    (`_min_values`)."""
    hverts = list(dict.fromkeys(h for hs in hcells.values() for h in hs))
    denom = math.lcm(*[a.denominator for a in support.values()],
                     *[h[2] for h in hverts])
    points = [(X * (denom // W), Y * (denom // W)) for X, Y, W in hverts]
    lifted = [(v[0], v[1], a.numerator * (denom // a.denominator))
              for v, a in support.items()]
    table = [(X, Y, F) for (X, Y), F in zip(points,
                                            _min_values(lifted, points))]
    return hverts, denom, table


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


def _raised_cells(triples: dict, domain: QPolygon, base: Complex,
                  v: Vec) -> dict:
    """Every cell of the presentation of g = `series.add_monomial`(f, v, c),
    read off f's complex ``base`` on ``domain`` with clips inside P_v, v's
    cell in it, only.  ``triples`` maps each monomial of the presentation to
    its integer triple, in support order, v's raised; every w != v carries
    c_w(f).  A v outside f's small form has no cell in f: P_v is empty, so
    no monomial is near, no clip is made and every cell is S_f(w), as v
    touches f on the boundary only and the raise leaves f as it is.

    Off P_v, f lies below the raised v, so g = f there.  The cell of w in
    g, the set where w = g, is S_f(w) | piece(w):
    - S_f(w) is where w touches f: its cell in f for w in f's support, and
      empty for v.  Any other w touches f on the boundary only
      (`series.canonical_coefficient`), on the face of the domain where its
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
    domain gives it, and takes the check a clip from the domain takes
    (`_check_cell`) as it is made."""
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
            piece = clip(ring, _nearest_first([(A - Au, B - Bu, C - Cu)
                                               for w, (A, B, C) in near.items()
                                               if w != u]))
            if piece and set(cell) <= set(piece):
                cell = lp.rotate_ccw(piece) if len(piece) >= 2 else piece
            elif piece:
                cell = _join(cell, piece)
        _check_cell(u, cell)
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


def _splice(cell: list, piece: list) -> list | None:
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


def clip(poly: Sequence, cuts: list) -> list:
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
