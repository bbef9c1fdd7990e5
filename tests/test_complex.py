"""Differential tests: the integer linearity complex against the Fraction
code it replaced.

The reference functions below are the earlier implementation of `cells()`,
`complex_vertices()`, `canonical_coefficient` and `_small_canonical_terms`,
all in `Fraction` arithmetic, with every cell enumerated from all of its
constraints.  A presentation's complex is built by `complex.build`
directly, as the constructor builds it before renormalizing.  Every comparison is
exact and ordered: the cells' vertex lists, the vertex list and the
renormalized supports must be identical, not just equal as sets.
`conftest.ref_complex` keeps the integer build as it was before the cells
were enumerated from their side lines only, and every field of a
`complex.Complex` must equal it, in any clip order.  `conftest.ref_small_canonical_terms`
keeps the renormalization that scans the vertex table for every candidate.
"""

import contextlib
import functools
import gc
import math
import random
from fractions import Fraction as F
from types import SimpleNamespace
from unittest import mock

import pytest
from hypothesis import assume, example, given, strategies as st

from tropwave import complex as cplx
from tropwave import exactlp, jsonio, series
from tropwave.exactlp import cross, dot, hull_lattice_points, vsub
from tropwave.geometry import QPolygon, support_coeff
from tropwave.series import (SeriesError, TropicalSeries, add_monomial,
                             canonical_coefficient, clamp, make_series,
                             quasi_degree, rho, tropical_product, zero_series)
from tropwave.wave import run_dynamics, wave

from conftest import (pentagon, random_points, random_polygon, random_series,
                      ref_cell_constraints, ref_complex,
                      ref_side_vanishing_multiplier,
                      ref_small_canonical_terms, square13, triangle,
                      unit_square, with_examples)


# -- reference implementation (Fraction arithmetic) ---------------------------


def ref_basic_points(cons):
    ics = []
    for n, a in cons:
        a, n0, n1 = F(a), F(n[0]), F(n[1])
        q = math.lcm(a.denominator, n0.denominator, n1.denominator)
        ics.append((int(n0 * q), int(n1 * q), int(a * q)))
    pts, seen = [], set()
    for i in range(len(ics)):
        A1, B1, C1 = ics[i]
        for j in range(i + 1, len(ics)):
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
            if all(A * xn + B * yn + C * det >= 0 for A, B, C in ics):
                seen.add(key)
                pts.append((F(key[0], key[2]), F(key[1], key[2])))
    return pts


def ref_sort_ccw(points):
    """Points counterclockwise round their centroid from angle 0; two
    points put the one above their midpoint first, or the one right of it
    on a level line."""
    pts = list(dict.fromkeys(points))
    if len(pts) <= 1:
        return pts
    c = (sum((p[0] for p in pts), F(0)) / len(pts),
         sum((p[1] for p in pts), F(0)) / len(pts))

    def half(p):
        d = vsub(p, c)
        return 0 if d[1] > 0 or (d[1] == 0 and d[0] > 0) else 1

    def cmp(p, q):
        if half(p) != half(q):
            return -1 if half(p) < half(q) else 1
        cr = cross(vsub(p, c), vsub(q, c))
        return -1 if cr > 0 else (1 if cr < 0 else 0)

    return sorted(pts, key=functools.cmp_to_key(cmp))


def ref_cells(f):
    return {v: ref_sort_ccw(ref_basic_points(ref_cell_constraints(f, v)))
            for v in f.support}


def ref_complex_vertices(f):
    return list(dict.fromkeys(p for verts in ref_cells(f).values()
                              for p in verts))


def ref_values_at(terms, pts):
    return [min(dot(v, p) + a for v, a in terms.items()) for p in pts]


def ref_canonical_coefficients(f, monomials):
    verts = ref_complex_vertices(f)
    vals = ref_values_at(f.support, verts)
    return [f.support[v] if v in f.support
            else max(val - dot(v, p) for p, val in zip(verts, vals))
            for v in monomials]


def ref_fraction_small_canonical_terms(domain, terms):
    for p in domain.vertices:
        if min(dot(v, p) + a for v, a in terms.items()) < 0:
            raise SeriesError("presentation is negative on the domain")
    degrees = series._presentation_side_degrees(domain, terms)
    candidates = hull_lattice_points(
        [(F(m * n[0]), F(m * n[1])) for n, m in degrees.items()]
        + [(F(0), F(0))])
    verts = ref_complex_vertices(presented(domain, terms))
    vals = ref_values_at(terms, verts)
    kept = {}
    for u in candidates:
        gaps = [val - dot(u, p) for p, val in zip(verts, vals)]
        b = max(gaps)
        attain = [p for p, gap in zip(verts, gaps) if gap == b]
        cx = sum((p[0] for p in attain), F(0)) / len(attain)
        cy = sum((p[1] for p in attain), F(0)) / len(attain)
        if domain.contains((cx, cy), strict=True):
            kept[u] = b
    return dict(sorted(kept.items())), degrees


# -- inputs -----------------------------------------------------------------

SEEDS = st.integers(min_value=0, max_value=2 ** 32 - 1)
DOMAINS = st.sampled_from(["square", "pentagon", "random"])


def make_series_for(kind, seed, n_waves):
    rng = random.Random(seed)
    poly = {"square": unit_square, "pentagon": pentagon,
            "random": lambda: random_polygon(rng)}[kind]()
    return rng, random_series(rng, poly, n_waves)


def presentation(rng, f):
    """A finite presentation over f's domain: f's support with one monomial
    raised or added, plus a vanishing multiple of every side's normal.  With
    probability 1/4 one more monomial gets an arbitrary coefficient, which
    may make the presentation negative."""
    terms = dict(f.support)
    v = (rng.randint(-3, 3), rng.randint(-3, 3))
    terms[v] = canonical_coefficient(f, v) + F(rng.randint(0, 6), rng.randint(1, 6))
    for hp, _, _ in f.domain.sides():
        k = rng.randint(1, 3)
        terms.setdefault((k * hp.n[0], k * hp.n[1]), k * hp.a)
    if rng.random() < 0.25:
        u = (rng.randint(-2, 2), rng.randint(-2, 2))
        terms[u] = F(rng.randint(-2, 4), rng.randint(1, 5))
    return terms


def presented(domain, terms):
    """The presentation as the constructor first holds it: sorted, with
    `Fraction` coefficients."""
    return SimpleNamespace(domain=domain, support=dict(
        sorted((tuple(v), F(a)) for v, a in terms.items())))


def outcome(fn, *args):
    """A renormalization's small form and side degrees, as ordered lists,
    or the type of the SeriesError it raises."""
    try:
        support, degrees = fn(*args)
    except SeriesError as exc:
        return type(exc)
    return list(support.items()), list(degrees.items())


# -- properties ---------------------------------------------------------------


# The explicit examples draw segment cells: ("square", 3, 3) has one from
# a corner to an interior end; ("square", 0, 0) has the square's sides,
# each end a corner; and ("square", 10, 3) has one from a corner to a side
# point and one with both ends inside.
@given(DOMAINS, SEEDS, st.integers(min_value=0, max_value=4))
@example("square", 3, 3)
def test_cells_vertices_and_coefficients_match_reference(kind, seed, n_waves):
    _, f = make_series_for(kind, seed, n_waves)
    assert list(f.cells().items()) == list(ref_cells(f).items())
    assert f.complex_vertices() == ref_complex_vertices(f)
    box = [(i, j) for i in range(-4, 5) for j in range(-4, 5)]
    assert ([canonical_coefficient(f, v) for v in box]
            == ref_canonical_coefficients(f, box))


@given(DOMAINS, SEEDS, st.integers(min_value=0, max_value=3))
@example("square", 0, 0)
@example("square", 10, 3)
def test_renormalization_and_probe_complex_match_reference(kind, seed, n_waves):
    rng, f = make_series_for(kind, seed, n_waves)
    terms = presentation(rng, f)
    probe = presented(f.domain, terms)
    cx = cplx.build(f.domain, probe.support)
    assert list(cx.items()) == list(ref_cells(probe).items())
    assert cx.vertices == ref_complex_vertices(probe)
    assert (outcome(series._small_canonical_terms, f.domain, probe.support, cx)
            == outcome(ref_fraction_small_canonical_terms, f.domain, terms))


def test_segment_and_point_cells_match_reference():
    # on [0, 2] x [0, 1] the constant 1/2 touches min(x, 2-x, y, 1-y) along
    # y = 1/2, and x + y touches it only at the origin
    f = presented(QPolygon.box(0, 0, 2, 1),
                  {(1, 0): 0, (-1, 0): 2, (0, 1): 0, (0, -1): 1,
                   (0, 0): F(1, 2), (1, 1): 0})
    cx = cplx.build(f.domain, f.support)
    assert len(cx[(0, 0)]) == 2 and len(cx[(1, 1)]) == 1
    assert list(cx.items()) == list(ref_cells(f).items())
    assert cx.vertices == ref_complex_vertices(f)


def recorder(fn, log):
    """``fn``, logging each call's positional arguments with its result;
    keyword arguments are passed on and not logged."""
    def recording(*args, **kwargs):
        out = fn(*args, **kwargs)
        log.append((args, out))
        return out
    return recording


@contextlib.contextmanager
def recorded_builds():
    """Every complex built in the block, through `complex.build` or
    `complex.raised`, each as (the entry point's name, its positional
    arguments, the complex); the last two arguments are the domain and the
    presentation either way."""
    built = []

    def entry(name):
        real = getattr(cplx, name)

        def recording(*args):
            cx = real(*args)
            built.append((name, args, cx))
            return cx
        return recording
    with mock.patch.object(cplx, "build", entry("build")), \
            mock.patch.object(cplx, "raised", entry("raised")):
        yield built


def complex_builds(fn, *args):
    """``fn(*args)``'s result and the complexes it builds, each as
    `recorded_builds` gives it."""
    with recorded_builds() as built:
        out = fn(*args)
    return out, built


def ring_lines(pts):
    """The distinct lines through neighbouring points of a counterclockwise
    ring of homogeneous points, in ring order from the last point to the
    first, each reduced and oriented with the ring on its nonnegative
    side."""
    out = []
    for (X0, Y0, W0), (X1, Y1, W1) in zip([pts[-1], *pts], pts):
        line = (Y0 * W1 - W0 * Y1, W0 * X1 - X0 * W1, X0 * Y1 - Y0 * X1)
        g = math.gcd(*line)
        line = tuple(c // g for c in line)
        if line not in out:
            out.append(line)
    return out


def whole_shapes(domain, cx):
    """The shapes among the cells of the whole build ``cx`` on ``domain``
    that the examples below are named for."""
    cons = domain.int_constraints()

    def inside(h):
        return all(A * h[0] + B * h[1] + C * h[2] > 0 for A, B, C in cons)
    meets = {}
    for hs in cx.hcells.values():
        for h in hs:
            meets[h] = meets.get(h, 0) + 1
    shapes = set()
    for hs in cx.hcells.values():
        if len(hs) == 2 and all(map(inside, hs)):
            shapes.add("a segment cell inside the domain")
        elif len(hs) == 1 and inside(hs[0]) and meets[hs[0]] >= 3:
            shapes.add("a point cell at an interior tie")
        elif len(hs) == 1:
            shapes.add("a point cell on the boundary")
    for W in (5, 30):
        if any(h[2] == W for hs in cx.hcells.values() for h in hs):
            shapes.add(f"vertices with W = {W}")
    return shapes


def presentation_draw(kind, seed, n_waves):
    """A domain and a `presentation` over it of a series n_waves waves from
    zero on ``kind``."""
    rng, f = make_series_for(kind, seed, n_waves)
    return f.domain, presentation(rng, f)


ENUMERATED_EXAMPLES = [
    (("square", 10, 3), "a segment cell inside the domain"),
    (("random", 14, 1), "a point cell at an interior tie"),
    (("square", 2, 0), "a point cell on the boundary"),
    (("pentagon", 0, 0), "vertices with W = 5"),
]


@given(DOMAINS, SEEDS, st.integers(min_value=0, max_value=3))
@with_examples(ENUMERATED_EXAMPLES)
def test_cells_are_enumerated_from_tight_constraints_only(kind, seed, n_waves):
    domain, terms = presentation_draw(kind, seed, n_waves)
    calls, clips = [], []
    with mock.patch.object(exactlp, "basic_points",
                           recorder(exactlp.basic_points, calls)), \
            mock.patch.object(cplx, "clip", recorder(cplx.clip, clips)):
        cx = cplx.build(domain, terms)
    assert len(clips) == len(terms)  # one clip per cell
    # one enumeration per polygon cell; a clip of at most one point is the
    # cell, and a segment cell is its clip's two points in some order
    enumerated = [pts for _, pts in clips if len(pts) >= 3]
    assert len(calls) == len(enumerated)
    for hs, (_, pts) in zip(cx.hcells.values(), clips):
        if len(pts) <= 2:
            assert hs in (pts, pts[::-1])
    for ((ics,), hs), pts in zip(calls, enumerated):
        # a polygon cell passes exactly its distinct side lines, in the
        # clip's ring order, one per vertex, and they meet in the clip
        assert list(ics) == ring_lines(pts)
        assert len(ics) == len(hs) == len(pts)
        assert set(hs) == set(pts)


@pytest.mark.parametrize("terms, size", [
    ({(0, 0): 0}, 4),
    ({(1, 0): 0, (-1, 0): 2, (0, 1): 0, (0, -1): 1, (0, 0): F(1, 2)}, 2)],
    ids=["polygon", "segment"])
def test_a_clip_point_inside_a_side_raises(terms, size):
    # a clip holds only vertices of its cell, and the build checks it: a
    # polygon cell against its one enumeration, a segment cell by its two
    # points.  Here the clip of the constant, of ``size`` points, gets the
    # midpoint of its first side added.
    domain = QPolygon.box(0, 0, 2, 1)
    support = presented(domain, terms).support
    assert len(cplx.build(domain, support).hcells[(0, 0)]) == size
    clip = cplx.clip

    def clipping(poly, cuts):
        pts = clip(poly, cuts)
        if len(pts) != size:
            return pts
        (X0, Y0, W0), (X1, Y1, W1) = pts[:2]
        mid = (X0 * W1 + X1 * W0, Y0 * W1 + Y1 * W0, 2 * W0 * W1)
        g = math.gcd(*mid)
        return [pts[0], tuple(c // g for c in mid), *pts[1:]]

    with mock.patch.object(cplx, "clip", clipping), \
            pytest.raises(SeriesError, match=r"clip of \(0, 0\)"):
        cplx.build(domain, support)


def quadrilateral():
    """A quadrilateral whose wave from zero at (-1/2, -3/2) renormalizes 515
    candidates."""
    return QPolygon.from_vertices([(-4, F(-23, 6)), (F(-1, 2), -4),
                                   (F(2, 3), 0), (-4, F(-11, 3))])


def test_point_cells_are_not_enumerated():
    # a wave from zero on this quadrilateral renormalizes 515 candidates,
    # most of whose cells are single points where up to 392 constraints are
    # tight.  Of the two complexes built (the zero series' and the
    # presentation's, 516 cells), 13 cells are polygons and 35 segments.
    # Only a polygon cell is enumerated, on its side lines; `_second_min_at`
    # makes the 14th call.  That is 54 constraints over the 14 calls; every
    # constraint tight at the clips would be 4041, up to 392 at one cell of
    # 2-3 points.
    f = zero_series(quadrilateral())
    calls = []
    with mock.patch.object(exactlp, "basic_points",
                           recorder(exactlp.basic_points, calls)):
        g, ev = wave(f, (F(-1, 2), F(-3, 2)))
    assert len(calls) == 14
    assert sum(len(ics) for (ics,), _ in calls) == 54
    assert (ev.monomial, ev.increment, ev.avalanche_area) == ((0, 0), F(7, 6),
                                                              F(539, 72))
    assert len(g.support) == 41


def test_triangle_cells_pass_only_side_lines():
    # a wave from zero on the N = 60 triangle renormalizes candidates of
    # which hundreds touch at each of a few complex vertices.  Of the cells
    # of two or more points, 119 are segments, read off their clips; the 7
    # polygon cells and `_second_min_at` make one enumeration each, on 5
    # constraints at most (every constraint tight at the clips would be
    # 15153, up to 155 at one cell)
    f = zero_series(triangle(60))
    calls = []
    with mock.patch.object(exactlp, "basic_points",
                           recorder(exactlp.basic_points, calls)):
        g, ev = wave(f, (F(1), F(1, 2)))
    assert len(calls) == 8
    assert sum(len(ics) for (ics,), _ in calls) == 29
    assert (ev.monomial, ev.increment, ev.avalanche_area) == ((0, 0), F(1, 2),
                                                              F(3721, 60))
    assert len(g.support) == 125


def complex_fields(cx):
    return (cx.denom, cx.table, list(cx.hcells.items()),
            list(cx.items()), cx.vertices)


def touching_presentation(f):
    """f's support plus every monomial of a box at its canonical
    coefficient: each touches f on a face, so ties make segment and point
    cells."""
    terms = dict(f.support)
    for u in [(i, j) for i in range(-3, 4) for j in range(-3, 4)]:
        terms.setdefault(u, canonical_coefficient(f, u))
    return terms


@given(st.sampled_from(["presentation", "ties", "shuffled", "triangle"]),
       DOMAINS, SEEDS, st.integers(min_value=0, max_value=3),
       st.integers(min_value=1, max_value=30))
@example("presentation", "square", 10, 3, 1)
@example("shuffled", "square", 3, 3, 1)
def test_complex_matches_tight_list_reference(source, kind, seed, n_waves, N):
    # "shuffled" takes the ties out of support order, so no cell's order
    # can lean on the support's
    if source == "triangle":
        # every complex a wave from zero builds on the N-th triangle, the
        # presentation's from the zero series' complex among them
        with recorded_builds() as built:
            wave(zero_series(triangle(N)), (F(1), F(1, 2)))
        assert len(built) == 3
    else:
        rng, f = make_series_for(kind, seed, n_waves)
        terms = (presentation(rng, f) if source == "presentation"
                 else touching_presentation(f))
        support = presented(f.domain, terms).support
        if source == "shuffled":
            order = list(support.items())
            rng.shuffle(order)
            support = dict(order)
        args = (f.domain, support)
        built = [("build", args, cplx.build(*args))]
    for _, args, cx in built:
        assert complex_fields(cx) == complex_fields(ref_complex(*args[-2:]))


def shuffled_clip(seed):
    """`complex.clip` applying each cell's cuts in a seeded random order."""
    rng, clip = random.Random(seed), cplx.clip

    def clipping(poly, cuts):
        cuts = list(cuts)
        rng.shuffle(cuts)
        return clip(poly, cuts)
    return clipping


def builds(fn, *args):
    """The domain and the presentation of every complex that ``fn(*args)``
    builds, whole or raised."""
    return [args[-2:] for _, args, _ in complex_builds(fn, *args)[1]]


@functools.cache
def quadrilateral_builds():
    """The quadrilateral wave's builds with their fields, made once: the
    presentation has 515 cells."""
    return [(args, complex_fields(cplx.build(*args)))
            for args in builds(wave, zero_series(quadrilateral()),
                               (F(-1, 2), F(-3, 2)))]


def clip_order_cases(source, kind, seed, n_waves, N):
    """The whole builds of one draw of the clip-order property, each as
    (its domain and presentation, its fields)."""
    if source == "quadrilateral":
        return quadrilateral_builds()
    if source == "dynamics":
        args = builds(make_series_for, kind, seed, n_waves)
    elif source == "ties":
        _, f = make_series_for(kind, seed, n_waves)
        args = [(f.domain, presented(f.domain,
                                     touching_presentation(f)).support)]
    else:
        args = builds(wave, zero_series(triangle(N)), (F(1), F(1, 2)))
    return [(a, complex_fields(cplx.build(*a))) for a in args]


WHOLE_CLIP_EXAMPLES = [
    (("dynamics", "square", 7, 3, 1), "a segment cell inside the domain"),
    (("ties", "random", 14, 1, 1), "a point cell at an interior tie"),
    (("dynamics", "random", 0, 2, 1), "a point cell on the boundary"),
    (("dynamics", "pentagon", 0, 1, 1), "vertices with W = 5"),
    (("triangle", "square", 0, 1, 30), "vertices with W = 30"),
]


@given(st.sampled_from(["dynamics", "ties", "triangle", "quadrilateral"]),
       DOMAINS, SEEDS, st.integers(min_value=1, max_value=3),
       st.integers(min_value=1, max_value=30))
@with_examples(WHOLE_CLIP_EXAMPLES)
def test_clip_order_does_not_change_the_complex(source, kind, seed, n_waves,
                                                N):
    # a cell is an intersection of half-planes: clipped in any order, every
    # field of the complex comes out the same
    cases = clip_order_cases(source, kind, seed, n_waves, N)
    assert cases
    for args, nearest_first in cases:
        with mock.patch.object(cplx, "clip", shuffled_clip(seed)):
            assert complex_fields(cplx.build(*args)) == nearest_first


def test_the_named_whole_builds_hold_their_geometry():
    # each example of the two whole-build properties above still draws the
    # shape it is named for
    for args, shape in ENUMERATED_EXAMPLES:
        domain, terms = presentation_draw(*args)
        assert shape in whole_shapes(domain, cplx.build(domain, terms)), args
    for args, shape in WHOLE_CLIP_EXAMPLES:
        assert any(shape in whole_shapes(a[0], cplx.build(*a))
                   for a, _ in clip_order_cases(*args)), args


def sparse_presentation(rng, f):
    """A `presentation` of f with monomials dropped and coefficients raised
    at random, so that hull candidates are missing and cells are empty.  A
    monomial that vanishes on a side stays as it is."""
    terms = {}
    for u, a in presentation(rng, f).items():
        if any(ref_side_vanishing_multiplier(hp, (u, F(a))) is not None
               for hp in f.domain.halfplanes):
            terms[u] = a
        elif rng.random() < 1 / 3:
            continue
        elif rng.random() < 1 / 2:
            terms[u] = a + F(rng.randint(1, 5), rng.randint(1, 4))
        else:
            terms[u] = a
    return terms


def renormalizations(fn, *args):
    """The arguments of every `_small_canonical_terms` call that
    ``fn(*args)`` makes."""
    calls = []
    with mock.patch.object(series, "_small_canonical_terms",
                           recorder(series._small_canonical_terms, calls)):
        fn(*args)
    return [args for args, _ in calls]


def side_segment_presentation(rng):
    """A presentation on the hexagon of `TIE_DOMAINS` whose side degrees 2
    on (1, 1) and (-1, 1) put (0, 2) among the candidates.  It vanishes on
    the side y = -1, where (0, 1) has the least multiplier, so its cell is
    that side: a segment on the boundary."""
    terms = {(2, 2): 4, (0, 1): 1, (-2, 2): 4, (-1, -1): 2, (0, -1): 1,
             (1, -1): 2, (0, 2): 2, (0, 0): F(rng.randint(1, 6), 4)}
    return TIE_DOMAINS[2], terms


@given(st.sampled_from(["sparse", "ties", "raise", "side"]), DOMAINS, SEEDS,
       st.integers(min_value=0, max_value=3))
@example("ties", "random", 0, 2)
@example("raise", "random", 0, 2)
@example("side", "square", 0, 0)
def test_renormalization_matches_the_table_scan(source, kind, seed, n_waves):
    # a monomial of the presentation with a nonempty cell is read off its
    # cell, a polygon cell without the domain test; every candidate
    # scanning the table gives the same dict, in the same order.  The
    # explicit examples have candidates whose nonempty cell lies on the
    # boundary, which are dropped: a point, or for "side" a segment.
    rng, f = make_series_for(kind, seed, n_waves)
    if source == "side":
        domain, terms = side_segment_presentation(rng)
        support = presented(domain, terms).support
        calls = [(domain, support, cplx.build(domain, support))]
    elif source == "raise":
        # v raised past where it touches: its cell in the presentation is
        # empty, and the table gives its canonical 1/2
        calls = renormalizations(add_monomial, zero_series(unit_square()),
                                 (0, 0), 5)
        v = (rng.randint(-3, 3), rng.randint(-3, 3))
        calls += renormalizations(add_monomial, f, v,
                                  F(rng.randint(1, 40), rng.randint(1, 12)))
    else:
        terms = (sparse_presentation(rng, f) if source == "sparse"
                 else touching_presentation(f))
        support = presented(f.domain, terms).support
        calls = [(f.domain, support, cplx.build(f.domain, support))]
    for args in calls:
        assert (outcome(series._small_canonical_terms, *args)
                == outcome(ref_small_canonical_terms, *args))


@given(SEEDS, st.integers(min_value=2, max_value=12))
@example(0, 2)
def test_rotate_ccw_equals_sort_ccw(seed, n):
    # a ring of two points is a segment's ends, in either order; a level
    # segment (equal y) is drawn one time in three
    rng = random.Random(seed)
    pts = [(F(rng.randint(-20, 20), rng.randint(1, 6)),
            F(rng.randint(-20, 20), rng.randint(1, 6))) for _ in range(n)]
    if n == 2 and rng.random() < 1 / 3:
        pts[1] = (pts[1][0], pts[0][1])
    hull = exactlp.convex_hull(pts)
    assume(len(hull) >= 2)
    ring = [exactlp.homogeneous(p) for p in hull]
    k = rng.randrange(len(ring))
    ring = ring[k:] + ring[:k]
    assert exactlp.rotate_ccw(ring) == exactlp.sort_ccw(ring)
    assert exactlp.sort_ccw(ring) == [exactlp.homogeneous(p) for p in
                                      ref_sort_ccw(hull)]


def test_constructor_builds_one_complex_and_keeps_none():
    presentations = [
        (unit_square(), {(1, 0): 0, (0, 1): 0, (-1, 0): 1, (0, -1): 1,
                         (0, 0): F(1, 3)}),
        (pentagon(), {(0, 0): 0}),
        (QPolygon.box(0, 0, 2, 1), {(1, 0): 0, (-1, 0): 2, (0, 1): 0,
                                    (0, -1): 1, (0, 0): F(1, 2), (1, 1): 0}),
    ]
    with recorded_builds() as built:
        for domain, terms in presentations:
            del built[:]
            f = TropicalSeries(domain, terms)
            # one build, of the sorted presentation
            assert [(name, args) for name, args, _ in built] == [
                ("build", (domain, presented(domain, terms).support))]
            assert f._cells is None
        del built[:]
        z = zero_series(pentagon())
        assert len(built) == 1 and z._cells is None
        # the series' own complex is built on first use, once
        z.cells()
        z.complex_vertices()
        assert len(built) == 2 and z._cells is built[1][2]
        # every other way to make a series keeps no complex either: one
        # build per constructor, none kept
        f = square13()
        del built[:]
        made = [make_series(f.domain, f.support), tropical_product(f, f),
                clamp(f, F(1, 4)),
                jsonio.series_from_json(jsonio.series_to_json(f))]
        assert len(built) == len(made)
        assert all(h._cells is None for h in made)


def test_fraction_points_are_made_on_first_read():
    # a constructor and a wave convert no point to Fractions: the wave takes
    # its avalanche area from its monomial's cell in integers, and its
    # result inherits the presentation's complex without reading it.  The
    # inherited complex equals a fresh build, and a read of it converts
    # only the points no earlier read has.
    f = square13()
    with mock.patch.object(exactlp, "to_point",
                           wraps=exactlp.to_point) as conv:
        f = TropicalSeries(f.domain, f.support)
        assert conv.call_count == 0
        g, ev = wave(f, (F(1, 5), F(1, 2)))
        assert (ev.monomial, ev.increment) == ((1, 0), F(2, 15))
        assert conv.call_count == 0
        cx = g._cells
        assert isinstance(cx, cplx.Complex) and g.cells() is cx
        cell = cx.hcells[ev.monomial]
        assert len(cell) == 4
        assert g.cells()[ev.monomial] == [exactlp.to_point(h) for h in cell]
        assert [c.args[0] for c in conv.call_args_list] == cell + cell
        g.cells()[ev.monomial]
        assert conv.call_count == 2 * len(cell)
        assert len(g.complex_vertices()) == len(cx.table)
        assert conv.call_count == len(cell) + len(cx.table)
    assert complex_fields(cx) == complex_fields(
        cplx.build(g.domain, g.support))


# -- the complex add_monomial hands to its result -----------------------------

RHOMBUS = QPolygon.from_vertices([(-1, 0), (0, -1), (1, 0), (0, 1)])
TIE_DOMAINS = [QPolygon.box(0, 0, 2, 1), RHOMBUS,
               QPolygon.from_vertices([(-2, 0), (-1, -1), (1, -1), (2, 0),
                                       (1, 1), (-1, 1)])]


def quarter_grid(poly):
    """The interior points of the quarter grid of poly's bounding box: waves
    there meet ties, and their results have segment cells."""
    xs = [x for x, _ in poly.vertices]
    ys = [y for _, y in poly.vertices]
    w, h = max(xs) - min(xs), max(ys) - min(ys)
    grid = [(min(xs) + F(i, 4) * w, min(ys) + F(j, 4) * h)
            for i in range(5) for j in range(5)]
    return [p for p in grid if poly.contains(p, strict=True)]


@functools.cache
def quadrilateral_wave():
    return wave(zero_series(quadrilateral()), (F(-1, 2), F(-3, 2)))[0]


def fresh_fields(g):
    return complex_fields(cplx.build(g.domain, g.support))


def wave_results(source, kind, seed, n_waves, N):
    """The results of positive waves that inherit their complex, or for
    "raise" an arbitrary raise, with ``(g, v, f, c)`` when that raise
    g = add_monomial(f, v, c) inherits none."""
    rng = random.Random(seed)
    if source == "triangle":
        return [wave(zero_series(triangle(N)), (F(1), F(1, 2)))[0]], None
    if source == "quadrilateral":
        return [quadrilateral_wave()], None
    if source == "ties":
        poly = rng.choice(TIE_DOMAINS + [random_polygon(rng)])
        grid = quarter_grid(poly)
        points = [rng.choice(grid) for _ in range(n_waves)]
    else:
        _, f = make_series_for(kind, seed, 0)
        poly = f.domain
        points = random_points(rng, poly, n_waves)
    f, results = zero_series(poly), []
    for p in points:
        g, ev = wave(f, p)
        if ev.increment > 0:
            results.append(g)
        f = g
    if source == "raise":
        v = (rng.randint(-3, 3), rng.randint(-3, 3))
        c = F(rng.randint(1, 40), rng.randint(1, 12))
        g = add_monomial(f, v, c)
        if g._cells is None:
            return [], (g, v, f, c)
        results = [g]
    return results, None


WAVE_SOURCES = st.sampled_from(["dynamics", "ties", "raise", "triangle",
                                "quadrilateral"])


@given(WAVE_SOURCES, DOMAINS, SEEDS, st.integers(min_value=1, max_value=4),
       st.integers(min_value=1, max_value=30))
def test_handed_off_complex_equals_a_fresh_build(source, kind, seed, n_waves,
                                                 N):
    # every positive wave's result inherits its complex, and it equals a
    # fresh build on every field; an arbitrary raise inherits one unless it
    # lifts v past where it touches the result
    results, lifted = wave_results(source, kind, seed, n_waves, N)
    if lifted:
        g, v, f, c = lifted
        assert g.support[v] < canonical_coefficient(f, v) + c
        return
    for g in results:
        assert isinstance(g._cells, cplx.Complex)
        assert complex_fields(g._cells) == fresh_fields(g)


@given(WAVE_SOURCES, DOMAINS, SEEDS, st.integers(min_value=1, max_value=4),
       st.integers(min_value=1, max_value=30))
@example("ties", "square", 0, 1, 1)  # two segment cells
def test_every_cell_of_two_or_more_points_is_in_sort_ccw_order(
        source, kind, seed, n_waves, N):
    # one order for segments and polygons alike, in a handed-off complex
    # and in a fresh build
    results, _ = wave_results(source, kind, seed, n_waves, N)
    for g in results:
        for cx in (g._cells, cplx.build(g.domain, g.support)):
            for hs in cx.hcells.values():
                if len(hs) >= 2:
                    assert hs == exactlp.sort_ccw(hs)


def test_inherited_segment_cells_reach_the_boundary():
    # the wave from zero at the rhombus's centre ties the four corners, and
    # each of (0, 1), (1, 0), (0, -1), (-1, 0) touches the result along a
    # segment from the centre to a vertex.  No kept cell is a segment with
    # both ends on the boundary: the series vanishes there, so the touching
    # monomial would vanish on the whole chord and, nonnegative on the
    # domain, hold it on a side.
    g, ev = wave(zero_series(RHOMBUS), (F(0), F(0)))
    assert ev.increment == 1
    segments = {v: hs for v, hs in g._cells.hcells.items() if len(hs) == 2}
    assert sorted(segments) == [(-1, 0), (0, -1), (0, 1), (1, 0)]
    for v, hs in segments.items():
        assert (0, 0, 1) in hs and (-v[0], -v[1], 1) in hs
    assert complex_fields(g._cells) == fresh_fields(g)


def test_raising_past_the_touching_level_inherits_no_complex():
    # raised by 5, the constant no longer touches the result, whose small
    # form keeps it at the canonical 1/2: the presentation has no cell for
    # it there, and the result builds its own complex on first use
    f = zero_series(unit_square())
    g = add_monomial(f, (0, 0), 5)
    assert g.support[(0, 0)] == F(1, 2)
    assert g._cells is None
    assert complex_fields(g.cells()) == fresh_fields(g)


def test_a_kept_monomial_missing_from_the_presentation_raises():
    # the one-pass builder reads each kept cell off the presentation's
    # complex and never falls back to a build: a missing one raises before
    # any table is built
    f = square13()
    cx = cplx.build(f.domain, f.support)
    missing = dict(f.support)
    missing[(1, 1)] = F(0)
    with mock.patch.object(cplx, "Complex") as build, \
            mock.patch.object(cplx, "_table") as table, \
            pytest.raises(SeriesError, match=r"\(1, 1\)"):
        cx.kept(missing)
    assert build.call_count == 0 and table.call_count == 0


# -- the presentation add_monomial builds from f's complex --------------------


def near_side_point(rng, poly, d):
    """A point at lattice distance 1/d from a random side of poly."""
    hp, a, b = rng.choice(poly.sides())
    nn, t = dot(hp.n, hp.n), F(rng.randint(1, 19), 20)
    return (a[0] + t * (b[0] - a[0]) + F(hp.n[0], d * nn),
            a[1] + t * (b[1] - a[1]) + F(hp.n[1], d * nn))


def waves_from_zero(poly, points):
    f = zero_series(poly)
    for p in points:
        f, _ = wave(f, p)
    return f


@functools.cache
def quadrilateral_built():
    """The quadrilateral wave's builds, made once: the presentation has 515
    cells."""
    return complex_builds(wave, zero_series(quadrilateral()),
                          (F(-1, 2), F(-3, 2)))[1]


@functools.cache
def quadrilateral_raise():
    """The quadrilateral wave's raised build, with its full build's
    fields, made once."""
    return [(a, complex_fields(cx), complex_fields(cplx.build(*a[2:])))
            for name, a, cx in quadrilateral_built() if name == "raised"]


RAISE_SOURCES = st.sampled_from(["dynamics", "ties", "centre", "near_side",
                                 "raise", "bare", "triangle",
                                 "quadrilateral"])


def raise_run(source, kind, seed, n_waves, N):
    """The builds, each as `recorded_builds` gives it, of one draw of
    ``RAISE_SOURCES``, and for "raise" and "bare", which call add_monomial
    directly, the raise as (f, v, whether f held its complex)."""
    rng = random.Random(seed)
    if source == "quadrilateral":
        return quadrilateral_built(), None
    if source == "triangle":
        _, built = complex_builds(wave, zero_series(triangle(N)),
                                  (F(1), F(1, 2)))
        return built, None
    if source in ("raise", "bare"):
        _, f = make_series_for(kind, seed, n_waves)
        if source == "bare":
            f = TropicalSeries(f.domain, f.support)
            v = rng.choice(list(f.support))
        else:
            v = (rng.randint(-3, 3), rng.randint(-3, 3))
        c = F(rng.randint(1, 40), rng.randint(1, 12))
        held = f._cells is not None
        _, built = complex_builds(add_monomial, f, v, c)
        return built, (f, v, held)
    if source == "ties":
        poly = rng.choice(TIE_DOMAINS + [random_polygon(rng)])
        points = [rng.choice(quarter_grid(poly)) for _ in range(n_waves)]
    elif source == "centre":
        # after the wave at the rhombus's centre the constant's cell is
        # that point, and every later wave reaches it there
        poly = RHOMBUS
        points = [(F(0), F(0))] + random_points(rng, poly, n_waves)
    elif source == "near_side":
        _, f = make_series_for(kind, seed, 0)
        poly = f.domain
        points = [near_side_point(rng, poly, rng.choice([100, 200]))
                  for _ in range(n_waves)]
    else:
        _, f = make_series_for(kind, seed, 0)
        poly = f.domain
        points = random_points(rng, poly, n_waves)
    _, built = complex_builds(waves_from_zero, poly, points)
    return built, None


@given(RAISE_SOURCES, DOMAINS, SEEDS, st.integers(min_value=1, max_value=4),
       st.integers(min_value=1, max_value=30))
@example("ties", "square", 2, 4, 1)  # quarter-grid waves, many ties
@example("ties", "square", 0, 2, 1)  # reached cells that become segments
@example("centre", "square", 2, 1, 1)  # a reached cell that stays a point
@example("near_side", "pentagon", 0, 2, 1)  # P_v meets the boundary
@example("near_side", "square", 1, 3, 1)  # a side degree goes from 1 to 2
@example("triangle", "square", 0, 1, 1)
@example("triangle", "square", 0, 1, 30)
@example("quadrilateral", "square", 0, 1, 1)
@example("raise", "square", 0, 2, 1)  # v outside f's support
@example("bare", "square", 0, 2, 1)  # f holds no complex at the raise
@example("dynamics", "random", 0, 3, 1)  # an unreached entrant touching f
# at a domain vertex
@example("centre", "square", 0, 1, 1)  # reached entrants: a polygon cell, a
# piece that is a segment
@example("dynamics", "random", 0, 2, 1)  # a reached entrant whose piece is a
# point
def test_raised_build_equals_a_full_build(source, kind, seed, n_waves, N):
    # a raise hands f's complex and v to the presentation's build, which
    # clips inside v's old cell only; every field equals a build from the
    # domain.  An entrant is a candidate outside f's support.  "raise" and
    # "bare" call add_monomial directly: its last build is always the
    # raised one, and a bare f, which holds no complex, first builds its
    # own from the domain
    if source == "quadrilateral":
        cases = quadrilateral_raise()
        assert len(cases) == 1
        for _, local, full in cases:
            assert local == full
        return
    built, raised = raise_run(source, kind, seed, n_waves, N)
    if raised:
        f, v, held = raised
        own = [] if held else [("build", (f.domain, f.support))]
        assert [(name, args) for name, args, _ in built[:-1]] == own
        name, args, _ = built[-1]
        assert name == "raised" and args[0] is f._cells and args[1] == v
    for _, args, cx in built:
        assert complex_fields(cx) == complex_fields(cplx.build(*args[-2:]))


CLIP_ORDER_EXAMPLES = [
    (("ties", "square", 2, 4, 1), "quarter-grid waves, many ties"),
    (("near_side", "pentagon", 0, 2, 1), "P_v meets the boundary"),
    (("centre", "square", 2, 1, 1), "a reached cell that stays a point"),
    (("triangle", "square", 0, 1, 30), "triangle(30)"),
    (("quadrilateral", "square", 0, 1, 1), "the quadrilateral"),
    (("raise", "square", 0, 2, 1), "v outside f's support: an empty ring"),
]


@given(RAISE_SOURCES, DOMAINS, SEEDS, st.integers(min_value=1, max_value=4),
       st.integers(min_value=1, max_value=30))
@with_examples(CLIP_ORDER_EXAMPLES)
def test_clip_order_does_not_change_a_raised_build(source, kind, seed,
                                                    n_waves, N):
    # a piece of P_v is an intersection of half-planes too: a raised build
    # with its clips' cuts in any order comes out the same on every field
    built, _ = raise_run(source, kind, seed, n_waves, N)
    raised = [(args, complex_fields(cx)) for name, args, cx in built
              if name == "raised"]
    assert raised
    with mock.patch.object(cplx, "clip", shuffled_clip(seed)):
        for args, fields in raised:
            assert complex_fields(cplx.raised(*args)) == fields


def test_the_named_raised_builds_hold_their_geometry():
    # the examples above with a checkable shape still draw it
    def rings(args):
        return [base.hcells.get(v, []) for name, (base, v, *_), _
                in raise_run(*args)[0] if name == "raised"]
    _, (near, _), _, (tri, _), (quad, _), (outside, _) = CLIP_ORDER_EXAMPLES
    boundary = set(pentagon().hvertices)
    assert any(set(ring) & boundary for ring in rings(near))
    assert any(h[2] == 30 for ring in rings(tri) for h in ring)
    assert len(rings(quad)) == 1
    assert rings(outside) == [[]]


def test_figure3_raise_clips_inside_v_cell():
    # the worked example's wave raises (1, 0) by 2/15 and bumps the side
    # x = 0 to degree 2.  All five clips start from (1, 0)'s old cell: its
    # own, and those of (0, 1), (0, -1), (0, 0) and the entrant (2, 0),
    # which it reaches.  (2, 0) touches f along the side x = 0, and its
    # cell is the hull of that side and its piece.  (-1, 0), unreached, is
    # copied.  The polygon cells still take one enumeration each: seven
    # calls with the runner-up search's.  (2, 0) is priced from the domain,
    # so the wave scans none of f's table
    f = square13()
    cx = f.cells()
    clips, calls, scans = [], [], []
    with mock.patch.object(cplx, "clip", recorder(cplx.clip, clips)), \
            mock.patch.object(exactlp, "basic_points",
                              recorder(exactlp.basic_points, calls)), \
            mock.patch.object(cplx.Complex, "touching",
                              recorder(cplx.Complex.touching, scans)):
        (g, ev), built = complex_builds(wave, f, (F(1, 5), F(1, 2)))
    assert (ev.monomial, ev.increment) == ((1, 0), F(2, 15))
    assert len(clips) == 5 and len(calls) == 7
    assert [u for (on, u), _ in scans if on is cx] == []
    starts = [poly for (poly, _), _ in clips]
    assert starts.count(cx.hcells[(1, 0)]) == 5
    assert starts.count(f.domain.hvertices) == 0
    [(name, (base, v, _, support), presentation_cx)] = built
    assert name == "raised" and base is cx and v == (1, 0)
    assert presentation_cx.hcells[(-1, 0)] == cx.hcells[(-1, 0)]
    assert len(support) == 6 and (2, 0) in support
    # the domain rule's side x = 0 is the table scan's
    assert cx.touching((2, 0)) == (0, [(0, 1, 1), (0, 0, 1)])
    assert presentation_cx.hcells[(2, 0)] == [(2, 11, 15), (0, 1, 1),
                                              (0, 0, 1), (2, 4, 15)]


def test_a_raise_of_a_series_without_its_complex_builds_its_complex_first():
    # raising the constant of the worked example keeps its side degrees,
    # and every candidate is in its support, so pricing needs no complex;
    # f holds none, so the raise builds f's own from the domain, keeps it
    # for f's later readers, and builds the presentation from it
    f = square13()
    g, built = complex_builds(add_monomial, f, (0, 0), F(1, 7))
    assert f._cells is not None
    assert [(name, args) for name, args, _ in built] == [
        ("build", (f.domain, f.support)),
        ("raised", (f._cells, (0, 0), f.domain, presented(
            f.domain, {**f.support, (0, 0): F(10, 21)}).support))]
    assert built[0][2] is f._cells
    assert complex_fields(g._cells) == fresh_fields(g)


def outside_raise(kind, seed, n_waves, bare, side):
    """A series f and a raise (v, c) of f, v drawn to lie outside f's small
    form.  f is n_waves waves from zero on the domain ``kind``
    ("triangle" is triangle(30), waved at (1, 1/2) first), rebuilt so that
    it holds no complex if ``bare``.  v is (m + 1) n for a side of normal
    n and degree m if ``side``, which vanishes there but is not the least
    monomial that does, and else a point of [-4, 4]^2; both may fall in
    f's support."""
    if kind == "triangle":
        rng, poly = random.Random(seed), triangle(30)
        f = waves_from_zero(poly, [(F(1), F(1, 2))]
                            + random_points(rng, poly, n_waves))
    else:
        rng, f = make_series_for(kind, seed, n_waves)
    if bare:
        f = TropicalSeries(f.domain, f.support)
    if side:
        n = rng.choice(f.domain.halfplanes).n
        m = quasi_degree(f)[n] + 1
        v = (m * n[0], m * n[1])
    else:
        v = (rng.randint(-4, 4), rng.randint(-4, 4))
    return f, v, F(rng.randint(1, 40), rng.randint(1, 12))


OUTSIDE_EXAMPLES = [
    (("pentagon", 0, 2, False, False), "vertices with W = 5"),
    (("triangle", 0, 1, False, False), "vertices with W = 30"),
    (("square", 0, 2, True, False), "f holds no complex at the raise"),
    (("square", 1, 2, False, True), "(m + 1) n on a side of degree m"),
]


@given(st.sampled_from(["square", "pentagon", "random", "triangle"]), SEEDS,
       st.integers(min_value=0, max_value=3), st.booleans(), st.booleans())
@with_examples(OUTSIDE_EXAMPLES)
def test_a_raise_outside_the_small_form_returns_f(kind, seed, n_waves, bare,
                                                  side):
    # a v outside f's small form touches f on the boundary only, so
    # raising it leaves f as it is: its cell in f is empty, no monomial is
    # near, and the raised build clips nothing.  Only a bare f's own
    # build clips, each of its cells once from the domain
    f, v, c = outside_raise(kind, seed, n_waves, bare, side)
    assume(v not in f.support)
    held = f._cells is not None
    clips = []
    with mock.patch.object(cplx, "clip", recorder(cplx.clip, clips)):
        g = add_monomial(f, v, c)
    assert g == f and quasi_degree(g) == quasi_degree(f)
    assert complex_fields(g._cells) == fresh_fields(g)
    assert [poly for (poly, _), _ in clips] == [f.domain.hvertices] * (
        0 if held else len(f.support))


def test_the_named_outside_raises_hold_their_geometry():
    # each example above draws a v outside f's small form and the geometry
    # it is named for
    draws = [outside_raise(*args) for args, _ in OUTSIDE_EXAMPLES]
    assert all(v not in f.support for f, v, _ in draws)
    (pent, _, _), (tri, _, _), (bare, _, _), (f, v, _) = draws
    assert any(h[2] == 5 for h in pent.cells()._hverts)
    assert any(h[2] == 30 for h in tri.cells()._hverts)
    assert bare._cells is None
    offsets = series._side_offsets(f.domain)
    [(n, m)] = series._vanishing_sides(offsets, v,
                                       canonical_coefficient(f, v))
    assert m == quasi_degree(f)[n] + 1


# -- the result's complex, read off the kept cells of its presentation -----

RESULT_EXAMPLES = [
    (("past", "square", 0, 0), "v raised past where it touches"),
    (("outside", "pentagon", 0, 2), "v outside f's small form"),
    (("figure3", "square", 0, 1), "an entrant touching f along a side"),
    (("waves", "square", 3, 3), "an entrant touching f at a vertex"),
    (("near_side", "pentagon", 0, 2), "v's old cell meets the boundary"),
    (("waves", "pentagon", 0, 1), "a pentagon raise: vertices with W = 5"),
]


def raise_draw(source, kind, seed, n_waves):
    """The raised builds of one draw, each as `recorded_builds` gives it,
    and its `Complex.kept` calls, each ((the presentation's complex, the
    small form), the result's complex).  "waves" and
    "near_side" run n_waves waves from zero on ``kind``, at random points
    or at points 1/100 or 1/200 from a side; "figure3" is the worked
    example's wave; "past" raises a monomial of a series n_waves waves from
    zero by 40, past where it touches; "outside" is `outside_raise`'s."""
    rng = random.Random(seed)
    if source == "figure3":
        fn, args = wave, (square13(), (F(1, 5), F(1, 2)))
    elif source == "past":
        _, f = make_series_for(kind, seed, n_waves)
        fn, args = add_monomial, (f, rng.choice(list(f.support)), 40)
    elif source == "outside":
        fn, args = add_monomial, outside_raise(kind, seed, n_waves, False,
                                               False)
    elif source == "near_side":
        _, f = make_series_for(kind, seed, 0)
        fn, args = waves_from_zero, (f.domain, [
            near_side_point(rng, f.domain, rng.choice([100, 200]))
            for _ in range(n_waves)])
    else:
        rng, f = make_series_for(kind, seed, 0)
        fn, args = waves_from_zero, (f.domain,
                                     random_points(rng, f.domain, n_waves))
    kept = []
    with mock.patch.object(cplx.Complex, "kept",
                           recorder(cplx.Complex.kept, kept)):
        _, built = complex_builds(fn, *args)
    return [b for b in built if b[0] == "raised"], kept


@given(st.sampled_from(["waves", "near_side", "figure3", "past", "outside"]),
       DOMAINS, SEEDS, st.integers(min_value=0, max_value=4))
@with_examples(RESULT_EXAMPLES)
def test_a_raise_result_complex_equals_a_full_build(source, kind, seed,
                                                     n_waves):
    # a raise's result keeps the kept cells of its presentation, and its
    # complex equals a build from the domain on all five fields, its table
    # built from its own cells when first read; so does the
    # presentation's
    built, kept = raise_draw(source, kind, seed, n_waves)
    domain = {id(cx): a[2] for _, a, cx in built}
    for (presentation, support), cx in kept:
        assert complex_fields(cx) == complex_fields(
            cplx.build(domain[id(presentation)], support))
    for _, args, cx in built:
        assert complex_fields(cx) == complex_fields(cplx.build(*args[2:]))


def test_the_named_result_draws_hold_their_geometry():
    # each example above draws the geometry it is named for
    past, outside, side, vertex, near, pent = [args for args, _ in
                                               RESULT_EXAMPLES]
    # renormalization read the presentation's table for v's canonical
    # coefficient (a plain slot read, which builds nothing, finds it), and
    # the result keeps no complex
    [(_, _, cx)], kept = raise_draw(*past)
    assert object.__getattribute__(cx, "table") and kept == []
    [(_, (base, v, _, _), _)], [_] = raise_draw(*outside)
    assert v not in base.hcells
    # the entrants of these draws touch f along a side and at a vertex
    assert raise_draw(*side)[1] and raise_draw(*vertex)[1]
    assert [len(domain_face(domain, t)) for domain, _, _, t
            in entrant_touchings("figure3", 0, 1)] == [2]
    assert 1 in {len(domain_face(domain, t)) for domain, _, _, t
                 in entrant_touchings("square", 3, 3)}
    boundary = set(pentagon().hvertices)
    assert any(set(base.hcells.get(v, [])) & boundary
               for _, (base, v, _, _), _ in raise_draw(*near)[0])
    assert any(h[2] == 5 for _, cx in raise_draw(*pent)[1]
               for h in cx._hverts)


def test_pricing_an_entrant_builds_no_complex():
    # canonical_coefficient prices a monomial outside the support from the
    # domain, so neither it nor rho builds or reads a complex: (2, 0) is
    # the worked example's entrant, and rho compares it with the wave's
    # result, both freshly built
    f = square13()
    g, _ = wave(square13(), (F(1, 5), F(1, 2)))
    g = TropicalSeries(g.domain, g.support)
    assert (2, 0) not in f.support and (2, 0) in g.support
    assert complex_builds(canonical_coefficient, f, (2, 0)) == (0, [])
    assert complex_builds(rho, f, g) == (F(2, 15), [])
    assert f._cells is None and g._cells is None


def stripped_raise(base, v, domain, support):
    """`complex.raised` that ignores f's complex: a build from the
    domain."""
    return cplx.build(domain, support)


def test_sixteen_point_trial_equals_the_trial_built_from_the_domain():
    # the same trial with every presentation built from the domain gives
    # the same events and the same final series
    rng = random.Random(16)
    poly = pentagon()
    points = random_points(rng, poly, 16)
    local = run_dynamics(zero_series(poly), points)
    with mock.patch.object(cplx, "raised", stripped_raise):
        full = run_dynamics(zero_series(poly), points)
    assert local.events and local.events == full.events
    assert local.final == full.final
    assert complex_fields(local.final.cells()) == complex_fields(
        full.final.cells())


def test_no_raised_build_clips_from_the_domain():
    # in the same trial every clip made by a raised build starts from v's
    # old cell, one raised build per positive wave; only the zero series'
    # two builds (its constructor's and its first read's) clip from the
    # domain, once each
    rng = random.Random(16)
    poly = pentagon()
    points = random_points(rng, poly, 16)
    rings, starts, builds = [], [], []
    raised_cells, clip = cplx._raised_cells, cplx.clip

    def raising(triples, domain, base, v):
        builds.append(v)
        rings.append(base.hcells[v])
        try:
            return raised_cells(triples, domain, base, v)
        finally:
            rings.pop()

    def clipping(ring, cuts):
        starts.append((ring, rings[-1] if rings else None))
        return clip(ring, cuts)
    with mock.patch.object(cplx, "_raised_cells", raising), \
            mock.patch.object(cplx, "clip", clipping):
        res = run_dynamics(zero_series(poly), points)
    raised = [ring for ring, old in starts if old is not None]
    assert builds == [ev.monomial for ev in res.events if ev.increment > 0]
    assert len(builds) == 47
    assert len(raised) == 430 and len(starts) == 432
    assert all(ring is old for ring, old in starts if old is not None)
    assert [old for ring, old in starts if ring == poly.hvertices] == [
        None, None]


def entrant_touchings(kind, seed, n_waves):
    """Every entrant of every raise in a run of waves from zero, as
    (domain, f's complex, u, u's priced triple); an entrant is a candidate
    outside f's support.  "figure3" is the worked example's wave and
    "triangle" waves triangle(30) at (1, 1/2) first."""
    seen = []
    raised_cells = cplx._raised_cells

    def raising(triples, domain, base, v):
        seen.extend((domain, base, u, t) for u, t in triples.items()
                    if u not in base.hcells)
        return raised_cells(triples, domain, base, v)
    with mock.patch.object(cplx, "_raised_cells", raising):
        if kind == "figure3":
            wave(square13(), (F(1, 5), F(1, 2)))
        elif kind == "triangle":
            rng, poly = random.Random(seed), triangle(30)
            waves_from_zero(poly, [(F(1), F(1, 2))]
                            + random_points(rng, poly, n_waves - 1))
        else:
            rng, f = make_series_for(kind, seed, 0)
            waves_from_zero(f.domain, random_points(rng, f.domain, n_waves))
    return seen


def domain_face(domain, triple):
    """The domain vertices at which the priced affine ``triple`` vanishes:
    the rule `_raised_cells` takes an entrant's touching set by."""
    A, B, C = triple
    return {h for h in domain.hvertices if A * h[0] + B * h[1] + C * h[2] == 0}


ENTRANT_SOURCES = st.sampled_from(["figure3", "square", "pentagon", "random",
                                   "triangle"])


@given(ENTRANT_SOURCES, SEEDS, st.integers(min_value=1, max_value=8))
@example("figure3", 0, 1)  # (2, 0) along the whole side x = 0
@example("square", 3, 3)  # an entrant at a single vertex
@example("pentagon", 0, 1)  # vertices (2, 7/5) and (7/5, 2), with W = 5
@example("triangle", 0, 1)  # triangle(30), vertices with W = 30
def test_an_entrant_touches_f_at_a_domain_vertex_or_along_a_side(
        kind, seed, n_waves):
    # a candidate outside f's support touches f on the boundary only, where
    # f vanishes: its coefficient is -support_coeff(domain, u), and its
    # attainers are the domain vertices where that priced affine vanishes.
    # Both equal the scan of f's vertex table
    for domain, base, u, (A, B, C) in entrant_touchings(kind, seed, n_waves):
        b, attainers = base.touching(u)
        scale = A // u[0] if u[0] else B // u[1]
        assert F(C, scale) == F(b, base.denom) == -support_coeff(domain, u)
        assert domain_face(domain, (A, B, C)) == set(attainers)


def test_the_named_entrant_draws_hold_their_geometry():
    # each @example above draws the geometry it is named for
    def faces(*args):
        return [(u, domain_face(domain, t))
                for domain, _, u, t in entrant_touchings(*args)]
    assert faces("figure3", 0, 1) == [((2, 0), {(0, 1, 1), (0, 0, 1)})]
    assert any(len(face) == 1 for _, face in faces("square", 3, 3))
    assert any(h[2] == 5 for _, face in faces("pentagon", 0, 1)
               for h in face)
    assert any(h[2] == 30 for _, face in faces("triangle", 0, 1)
               for h in face)


def test_hull_drops_a_point_inside_a_side():
    # three points on one line are a segment: the hull keeps its ends only
    ends = [(0, 0, 1), (0, 1, 1)]
    assert cplx._hull([(0, 0, 1), (0, 1, 2), (0, 1, 1)]) == \
        exactlp.rotate_ccw(ends)
    assert cplx._hull([(0, 1, 1), (0, 1, 1)]) == [(0, 1, 1)]


@given(DOMAINS, SEEDS)
@example("pentagon", 5)  # the ends of the side (-1, -1) out of table order
def test_an_unreached_entrant_along_a_side_keeps_the_side(kind, seed):
    # 5 n for a side's normal n, outside f's support, touches f along that
    # whole side.  Added to a small raise of any monomial of f, it keeps
    # the side as its cell when the raise does not reach it, and the raised
    # build equals a build from the domain
    rng = random.Random(seed)
    poly = {"square": unit_square(), "pentagon": pentagon()}.get(
        kind) or random_polygon(rng)
    f = random_series(rng, poly, 2)
    cx = f.cells()
    for hp in poly.halfplanes:
        u = (5 * hp.n[0], 5 * hp.n[1])
        side = exactlp.rotate_ccw(cx.touching(u)[1])
        assert len(side) == 2
        for v in f.support:
            terms = {**f.support, u: canonical_coefficient(f, u)}
            terms[v] += F(1, 100)
            terms = dict(sorted(terms.items()))
            raised = cplx.raised(cx, v, poly, terms)
            assert complex_fields(raised) == complex_fields(
                cplx.build(poly, terms))
            if len(raised.hcells[u]) == 2:
                assert raised.hcells[u] == side


def test_a_positive_wave_builds_no_vertex_table():
    # the figure-3 wave reads f's coefficients for the runner-up and f's
    # cells for the area and the raise, and its result keeps the kept
    # cells of the presentation: no vertex table is built, as every
    # candidate has a cell in the presentation, and no side degree is
    # scanned
    f = square13()
    tables, mins, scans = [], [], []
    with mock.patch.object(cplx, "_table",
                           recorder(cplx._table, tables)), \
            mock.patch.object(cplx, "_min_values",
                              recorder(cplx._min_values, mins)), \
            mock.patch.object(series, "_presentation_side_degrees",
                              recorder(series._presentation_side_degrees,
                                       scans)):
        g, ev = wave(f, (F(1, 5), F(1, 2)))
    assert ev.increment == F(2, 15)
    assert (tables, mins, scans) == ([], [], [])
    assert complex_fields(g._cells) == fresh_fields(g)


def test_a_raise_result_holds_no_reference_to_f_complex():
    # the raised presentation's complex and the result's are read off f's,
    # but neither keeps anything of it: else every complex of a dynamic
    # would stay alive through its successor's
    f = square13()
    cx = f.cells()
    with recorded_builds() as built:
        g, _ = wave(f, (F(1, 5), F(1, 2)))
    [(name, (base, *_), presentation)] = built
    assert name == "raised" and base is cx
    for root in (presentation, g._cells):
        seen, todo = set(), [root]
        while todo:
            obj = todo.pop()
            assert obj is not cx
            if id(obj) not in seen and isinstance(
                    obj, (cplx.Complex, dict, list, tuple)):
                seen.add(id(obj))
                todo += gc.get_referents(obj)
        assert len(seen) > 1


def cells_draw(kind, seed, n_waves, bare):
    """A series n_waves waves from zero on ``kind``; "rhombus" is waved at
    its centre first and then at quarter-grid points, so it has ties.  It
    holds the kept complex of its last raise, if any, unless ``bare``,
    when it is rebuilt from its support and builds its own on first use."""
    if kind == "rhombus":
        rng = random.Random(seed)
        f = waves_from_zero(RHOMBUS, [(F(0), F(0))] + [
            rng.choice(quarter_grid(RHOMBUS)) for _ in range(n_waves)])
    else:
        _, f = make_series_for(kind, seed, n_waves)
    return TropicalSeries(f.domain, f.support) if bare else f


CELLS_EXAMPLES = [
    (("rhombus", 0, 0, True), "a point cell at an interior tie"),
    (("square", 3, 3, True), "a segment cell"),
    (("pentagon", 0, 1, True), "vertices with W = 5"),
    (("square", 0, 2, False), "a raise's kept result"),
]


@given(st.sampled_from(["square", "pentagon", "random", "rhombus"]), SEEDS,
       st.integers(min_value=0, max_value=3), st.booleans())
@with_examples(CELLS_EXAMPLES)
def test_a_series_cells_are_its_complex_as_fraction_points(kind, seed,
                                                           n_waves, bare):
    # `cells()` returns the series' one complex, which maps each monomial,
    # in support order, to its integer cell as `Fraction` points in the
    # same order; a vertex that cells share is one point object, and the
    # complex vertices are the table's
    f = cells_draw(kind, seed, n_waves, bare)
    cx = f.cells()
    assert isinstance(cx, cplx.Complex) and f.cells() is cx
    assert list(cx) == list(cx.hcells) == list(f.support)
    assert list(cx.items()) == [
        (v, [exactlp.to_point(h) for h in hs]) for v, hs in cx.hcells.items()]
    points = {}
    for v, hs in cx.hcells.items():
        for h, p in zip(hs, cx[v]):
            assert points.setdefault(h, p) is p
    assert f.complex_vertices() == [(F(X, cx.denom), F(Y, cx.denom))
                                    for X, Y, _ in cx.table]
    assert all(p is points[h]
               for p, h in zip(f.complex_vertices(), cx._hverts))


def test_the_named_cell_draws_hold_their_geometry():
    # each example above draws the geometry it is named for
    (tie, _), (segment, _), (pent, _), (kept, _) = CELLS_EXAMPLES
    f = cells_draw(*tie)
    assert "a point cell at an interior tie" in whole_shapes(f.domain,
                                                             f.cells())
    hcells = cells_draw(*segment).cells().hcells
    assert any(len(hs) == 2 for hs in hcells.values())
    f = cells_draw(*pent)
    assert "vertices with W = 5" in whole_shapes(f.domain, f.cells())
    assert cells_draw(*kept)._cells is not None


# -- the joins of a raise -------------------------------------------------------

JOIN_DOMAINS = {"square": unit_square, "pentagon": pentagon,
                "triangle": lambda: triangle(30),
                "quadrilateral": quadrilateral}


def raised_joins(source, kind, seed, n_waves):
    """Every `complex._join` call made by the raises of a dynamic from zero
    on ``JOIN_DOMAINS[kind]``, as (S, B, the joined cell, the `_hull`
    calls the join made).  The points are random, quarter-grid ("ties")
    or at lattice distance 1/100 or 1/200 from a side ("near_side")."""
    rng = random.Random(seed)
    poly = JOIN_DOMAINS[kind]()
    if source == "ties":
        points = [rng.choice(quarter_grid(poly)) for _ in range(n_waves)]
    elif source == "near_side":
        points = [near_side_point(rng, poly, rng.choice([100, 200]))
                  for _ in range(n_waves)]
    else:
        points = random_points(rng, poly, n_waves)
    joins, hulls = [], []
    join, hull = cplx._join, cplx._hull

    def hulling(points):
        hulls.append(points)
        return hull(points)

    def joining(cell, piece):
        hulls.clear()
        out = join(cell, piece)
        joins.append((cell, piece, out, list(hulls)))
        return out
    with mock.patch.object(cplx, "_join", joining), \
            mock.patch.object(cplx, "_hull", hulling):
        waves_from_zero(poly, points)
    return joins


def on_an_edge(ring, a, b):
    return (ring.index(a) - ring.index(b)) % len(ring) in (1, len(ring) - 1)


def join_shape(cell, piece, out):
    """A join's shape, read off S, B and the union's vertex count.  A
    piece that is a point lies in S, since the union is convex."""
    if set(piece) <= set(cell):
        return {1: "B is a shared vertex", 2: "B is the shared edge"}.get(
            len(piece), "B in S")
    shared = [h for h in cell if h in piece]
    if (len(cell) >= 3 and len(piece) >= 3 and len(shared) == 2
            and on_an_edge(cell, *shared) and on_an_edge(piece, *shared)):
        return ["no end absorbed", "one end kept", "both ends absorbed"][
            len(cell) + len(piece) - 2 - len(out)]
    return "S a segment" if len(cell) == 2 else "other"


SPLICED = {"no end absorbed", "one end kept", "both ends absorbed"}
EVERY_SHAPE = SPLICED | {"B is a shared vertex", "B is the shared edge",
                         "S a segment"}
JOIN_EXAMPLES = [
    (("dynamics", "square", 1, 2), {"both ends absorbed"}),
    (("dynamics", "square", 0, 2), {"one end kept"}),
    (("ties", "square", 5, 2), {"no end absorbed", "B is a shared vertex"}),
    (("ties", "square", 5, 3), {"B is the shared edge"}),
    (("near_side", "pentagon", 21, 3), {"S a segment"}),
    (("dynamics", "triangle", 5, 4), EVERY_SHAPE),
    (("dynamics", "quadrilateral", 2, 3), EVERY_SHAPE),
]


@given(st.sampled_from(["dynamics", "ties", "near_side"]),
       st.sampled_from(["square", "pentagon"]), SEEDS,
       st.integers(min_value=1, max_value=5))
@with_examples(JOIN_EXAMPLES)
def test_every_join_equals_the_hull_of_both_parts(source, kind, seed,
                                                   n_waves):
    # a splice and a copied S make no hull; every other shape is one
    # `_hull` of both parts
    for cell, piece, out, hulls in raised_joins(source, kind, seed, n_waves):
        assert out == cplx._hull(cell + piece)
        shape = join_shape(cell, piece, out)
        copied = shape.startswith("B is")
        assert hulls == ([] if shape in SPLICED or copied
                         else [cell + piece])


@pytest.mark.parametrize("args, shapes", JOIN_EXAMPLES)
def test_the_named_draws_hold_their_join_shapes(args, shapes):
    assert shapes <= {join_shape(cell, piece, out)
                      for cell, piece, out, _ in raised_joins(*args)}


def test_splice_takes_only_two_polygons_sharing_one_edge():
    square = [(0, 0, 1), (1, 0, 1), (1, 1, 1), (0, 1, 1)]
    right = [(1, 0, 1), (2, 0, 1), (2, 1, 1), (1, 1, 1)]
    # the shared side's ends are both absorbed into the 2 x 1 box
    assert cplx._splice(square, right) == exactlp.rotate_ccw(
        [(0, 0, 1), (2, 0, 1), (2, 1, 1), (0, 1, 1)])
    # a triangle on the top side keeps both ends
    roof = [(0, 1, 1), (1, 1, 1), (1, 3, 2)]
    assert cplx._splice(square, roof) == cplx._hull(square + roof)
    assert len(cplx._splice(square, roof)) == 5
    # a segment, a point, or a vertex shared alone is no splice
    assert cplx._splice(square, [(1, 1, 1), (2, 2, 1)]) is None
    assert cplx._splice(square[:2], right) is None
    assert cplx._splice(square, [(1, 1, 1), (2, 1, 1), (2, 2, 1)]) is None
    # two shared points that are not one edge of each
    assert cplx._splice(square, [(1, 0, 1), (2, 1, 1), (1, 1, 1),
                                   (1, 1, 2)]) is None
    assert cplx._splice(square, [(0, 0, 1), (1, 1, 1), (0, 2, 1)]) is None
