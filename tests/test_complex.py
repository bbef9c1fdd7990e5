"""Differential tests: the integer linearity complex against the Fraction
code it replaced.

The reference functions below are the earlier implementation of `cells()`,
`complex_vertices()`, `canonical_coefficient` and `_small_canonical_terms`,
all in `Fraction` arithmetic, with every cell enumerated from all of its
constraints.  Every comparison is exact and ordered: the cells' vertex lists,
the vertex list and the renormalized supports must be identical, not just
equal as sets.
"""

import functools
import math
import random
from fractions import Fraction as F
from unittest import mock

from hypothesis import given, strategies as st

from tropwave import exactlp, series
from tropwave.exactlp import cross, dot, hull_lattice_points, vsub
from tropwave.geometry import QPolygon
from tropwave.series import SeriesError, TropicalSeries, canonical_coefficient

from conftest import (pentagon, random_polygon, random_series,
                      ref_cell_constraints, unit_square)


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
    pts = list(dict.fromkeys(points))
    if len(pts) <= 2:
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


def ref_small_canonical_terms(domain, terms):
    for p in domain.vertices:
        if min(dot(v, p) + a for v, a in terms.items()) < 0:
            raise SeriesError("presentation is negative on the domain")
    degrees = series._presentation_side_degrees(domain, terms)
    candidates = hull_lattice_points(
        [(F(m * n[0]), F(m * n[1])) for n, m in degrees.items()]
        + [(F(0), F(0))])
    probe = TropicalSeries(domain, terms, canonical=True)
    verts = ref_complex_vertices(probe)
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
    return dict(sorted(kept.items()))


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


def outcome(fn, *args):
    try:
        return list(fn(*args).items())
    except SeriesError as exc:
        return type(exc)


# -- properties ---------------------------------------------------------------


@given(DOMAINS, SEEDS, st.integers(min_value=0, max_value=4))
def test_cells_vertices_and_coefficients_match_reference(kind, seed, n_waves):
    _, f = make_series_for(kind, seed, n_waves)
    assert list(f.cells().items()) == list(ref_cells(f).items())
    assert f.complex_vertices() == ref_complex_vertices(f)
    box = [(i, j) for i in range(-4, 5) for j in range(-4, 5)]
    assert ([canonical_coefficient(f, v) for v in box]
            == ref_canonical_coefficients(f, box))


@given(DOMAINS, SEEDS, st.integers(min_value=0, max_value=3))
def test_renormalization_and_probe_complex_match_reference(kind, seed, n_waves):
    rng, f = make_series_for(kind, seed, n_waves)
    terms = presentation(rng, f)
    probe = TropicalSeries(f.domain, terms, canonical=True)
    assert list(probe.cells().items()) == list(ref_cells(probe).items())
    assert probe.complex_vertices() == ref_complex_vertices(probe)
    assert (outcome(series._small_canonical_terms, f.domain, terms)
            == outcome(ref_small_canonical_terms, f.domain, terms))


def test_segment_and_point_cells_match_reference():
    # on [0, 2] x [0, 1] the constant 1/2 touches min(x, 2-x, y, 1-y) along
    # y = 1/2, and x + y touches it only at the origin
    f = TropicalSeries(QPolygon.box(0, 0, 2, 1),
                       {(1, 0): 0, (-1, 0): 2, (0, 1): 0, (0, -1): 1,
                        (0, 0): F(1, 2), (1, 1): 0}, canonical=True)
    cells = f.cells()
    assert len(cells[(0, 0)]) == 2 and len(cells[(1, 1)]) == 1
    assert list(cells.items()) == list(ref_cells(f).items())
    assert f.complex_vertices() == ref_complex_vertices(f)


@given(DOMAINS, SEEDS, st.integers(min_value=0, max_value=3))
def test_cells_are_enumerated_from_tight_constraints_only(kind, seed, n_waves):
    rng, f = make_series_for(kind, seed, n_waves)
    calls = []
    original = exactlp.basic_points

    def recording(ics):
        pts = original(ics)
        calls.append((list(ics), pts))
        return pts

    terms = presentation(rng, f)
    with mock.patch.object(exactlp, "basic_points", recording):
        series._Complex(f.domain, terms)
    assert len(calls) == len(terms)  # one call per cell
    for ics, pts in calls:
        assert all(any(A * X + B * Y + C * W == 0 for X, Y, W in pts)
                   for A, B, C in ics)
