import random
from fractions import Fraction as F
from unittest import mock

import pytest
from hypothesis import example, given, strategies as st

from tropwave.curve import attaining_monomials
from tropwave.exactlp import dot
from tropwave.geometry import QPolygon
from tropwave import series
from tropwave.oracle import SupportOracle
from tropwave.wave import wave
from tropwave.series import (BoundaryMismatch, NegativeIncrement,
                             OutsideDomain, SeriesError, TropicalSeries,
                             add_monomial,
                             canonical_coefficient, distance_function,
                             evaluate, is_nice, make_series, quasi_degree,
                             rho, values_at, zero_series)

from conftest import pentagon, random_points, random_polygon, random_series, \
    ref_envelope_degrees, ref_presentation_side_degrees, \
    ref_side_vanishing_multiplier, ref_values, square13, triangle, unit_square


class TestEvaluate:
    def test_center(self):
        assert square13()((F(1, 2), F(1, 2))) == F(1, 3)

    def test_boundary(self):
        assert square13()((F(0), F(0))) == 0

    def test_interior_point(self):
        # min(1/5, 1/2, 4/5, 1/2, 1/3) over the five monomials
        assert square13()((F(1, 5), F(1, 2))) == F(1, 5)

    def test_outside(self):
        with pytest.raises(OutsideDomain):
            evaluate(square13(), (F(2), F(2)))

    def test_min_attained_on_support(self, rng):
        # inf = min: the minimum is attained by a stored monomial
        for _ in range(20):
            poly = random_polygon(rng)
            f = random_series(rng, poly)
            for z in random_points(rng, poly, 3):
                val = evaluate(f, z)
                assert any(dot(v, z) + a == val for v, a in f.terms())

    def test_boundary_vanishing(self, rng):
        for _ in range(10):
            poly = random_polygon(rng)
            f = random_series(rng, poly)
            for v in poly.vertices:
                assert evaluate(f, v) == 0
            for _, a, b in poly.sides():
                mid = ((a[0] + b[0]) / 2, (a[1] + b[1]) / 2)
                assert evaluate(f, mid) == 0


class TestDistanceFunction:
    def test_unit_square_support(self):
        l = distance_function(unit_square())
        assert {(1, 0), (0, 1), (-1, 0), (0, -1)} <= set(l.support)
        assert l((F(1, 2), F(1, 2))) == F(1, 2)

    def test_two_square(self):
        assert distance_function(QPolygon.box(0, 0, 2, 2))((F(1), F(1))) == 1

    def test_brute_force_value(self, rng):
        # against a brute-force min over |v| <= 5 of v.z - c_v
        from tropwave.geometry import support_coeff
        for _ in range(10):
            poly = random_polygon(rng)
            l = distance_function(poly)
            for z in random_points(rng, poly, 3):
                brute = min(
                    dot((i, j), z) - support_coeff(poly, (i, j))
                    for i in range(-5, 6) for j in range(-5, 6)
                    if (i, j) != (0, 0))
                assert l(z) == brute

    def test_pentagon_inner_face(self):
        # one wave on the pentagon yields a curve with a bounded inner face
        # (the clamped distance function of the figure)
        from tropwave.curve import extract_curve
        from tropwave.wave import wave
        poly = pentagon()
        f, _ = wave(zero_series(poly), (F(1, 2), F(1)))
        curve = extract_curve(f)
        inner = [v for v, region in curve.faces.items()
                 if region and all(poly.contains(p, strict=True)
                                   for p in region)]
        assert inner == [(0, 0)]

    @pytest.mark.parametrize("read", [quasi_degree,
                                      lambda f: f.cells(),
                                      lambda f: f.complex_vertices()],
                             ids=["quasi_degree", "cells", "complex_vertices"])
    def test_oracle_series_has_no_complex(self, read):
        # a series needs a polygon domain: on an oracle none of the
        # complex reads is reachable, the constructor refuses first
        seg = SupportOracle(lambda v: F(min(0, v[0] + v[1])), radius=3)
        with pytest.raises(SeriesError, match="polygon domain"):
            read(TropicalSeries(seg, {(1, 0): F(0)}))


class TestCanonicalCoefficient:
    def test_a00(self):
        assert canonical_coefficient(square13(), (0, 0)) == F(1, 3)

    def test_diagonal(self):
        assert canonical_coefficient(square13(), (1, 1)) == 0

    def test_two_x(self):
        assert canonical_coefficient(square13(), (2, 0)) == 0

    def test_matches_stored(self, rng):
        for _ in range(10):
            poly = random_polygon(rng)
            f = random_series(rng, poly)
            for v, a in f.terms():
                assert canonical_coefficient(f, v) == a

    def test_affine_dominates(self, rng):
        # the canonical affine lies above the function, touching it
        for _ in range(10):
            poly = random_polygon(rng)
            f = random_series(rng, poly)
            v = (rng.randrange(-2, 3), rng.randrange(-2, 3))
            b = canonical_coefficient(f, v)
            for z in random_points(rng, poly, 5):
                assert dot(v, z) + b >= evaluate(f, z)


class TestRho:
    def test_identity(self):
        f = square13()
        assert rho(f, f) == 0

    def test_constant_difference(self):
        f = square13()
        g = make_series(unit_square(),
                        {(1, 0): 0, (0, 1): 0, (-1, 0): 1, (0, -1): 1,
                         (0, 0): F(1, 4)})
        assert rho(f, g) == F(1, 12)

    def test_wave_distance(self):
        from tropwave.wave import wave
        z = zero_series(unit_square())
        g, _ = wave(z, (F(1, 2), F(1, 2)))
        assert rho(z, g) == F(1, 2)

    def test_metric_properties(self, rng):
        for _ in range(10):
            poly = random_polygon(rng)
            f = random_series(rng, poly, 1)
            g = random_series(rng, poly, 1)
            h = random_series(rng, poly, 1)
            assert rho(f, g) == rho(g, f)
            assert rho(f, h) <= rho(f, g) + rho(g, h)
            assert rho(f, g) >= 0


class TestQuasiDegree:
    def test_all_ones(self):
        deg = quasi_degree(square13())
        assert deg == {(1, 0): 1, (0, 1): 1, (-1, 0): 1, (0, -1): 1}

    def test_left_side_two(self):
        f = make_series(unit_square(),
                        {(2, 0): 0, (1, 0): F(2, 15), (0, 1): 0, (-1, 0): 1,
                         (0, -1): 1, (0, 0): F(1, 3)})
        deg = quasi_degree(f)
        assert deg[(1, 0)] == 2
        assert deg[(0, 1)] == deg[(-1, 0)] == deg[(0, -1)] == 1

    def test_side_monomials_only(self):
        l = distance_function(unit_square())
        assert all(m == 1 for m in quasi_degree(l).values())

    def test_support_in_degree_hull(self, rng):
        # the small support sits inside conv{m(S) n(S)}
        from tropwave.exactlp import hull_lattice_points
        for _ in range(10):
            poly = random_polygon(rng)
            f = random_series(rng, poly)
            deg = quasi_degree(f)
            pts = [(F(m * n[0]), F(m * n[1])) for n, m in deg.items()]
            pts.append((F(0), F(0)))
            hull = set(hull_lattice_points(pts))
            assert set(f.support) <= hull


class TestIsNice:
    def test_all_ones(self):
        assert is_nice(square13())

    def test_isolated_twos(self):
        from tropwave.refine import verge_polynomial
        g = verge_polynomial(unit_square(),
                             {(1, 0): 2, (0, 1): 1, (-1, 0): 2, (0, -1): 1},
                             F(1, 4))
        assert quasi_degree(g) == {(1, 0): 2, (0, 1): 1, (-1, 0): 2, (0, -1): 1}
        assert is_nice(g)

    def test_adjacent_twos_not_nice(self):
        # degrees (2,2,1,1): adjacent sides both above one
        f = make_series(unit_square(),
                        {(2, 0): 0, (0, 2): 0, (1, 0): F(1, 10),
                         (0, 1): F(1, 10), (-1, 0): 1, (0, -1): 1,
                         (0, 0): F(1, 3)})
        deg = quasi_degree(f)
        assert deg[(1, 0)] == 2 and deg[(0, 1)] == 2
        assert not is_nice(f)


class TestAddMonomial:
    def test_figure_wave(self):
        f2 = add_monomial(square13(), (1, 0), F(2, 15))
        assert f2.support == {
            (2, 0): F(0), (1, 0): F(2, 15), (0, 1): F(0), (-1, 0): F(1),
            (0, -1): F(1), (0, 0): F(1, 3)}

    def test_zero_increment_identity(self):
        f = square13()
        assert add_monomial(f, (1, 0), 0) == f

    def test_negative_increment(self):
        with pytest.raises(NegativeIncrement):
            add_monomial(square13(), (1, 0), F(-1, 10))

    def test_raise_above_max_replaced_by_canonical(self):
        # raising a_00 above max l: the raised value disappears; the stored
        # coefficient is the recomputed canonical one (max of the function)
        l = distance_function(unit_square())
        g = add_monomial(l, (0, 0), F(10))
        assert g.support.get((0, 0)) == F(1, 2)
        for z in [(F(1, 4), F(1, 2)), (F(1, 2), F(1, 2)), (F(2, 3), F(1, 5))]:
            assert g(z) == l(z)

    def test_small_canonical_recomputation(self, rng):
        # oracle: the stored coefficients equal fresh canonical recomputation
        for _ in range(10):
            poly = random_polygon(rng)
            f = random_series(rng, poly)
            v = list(f.support)[rng.randrange(len(f.support))]
            g = add_monomial(f, v, F(rng.randrange(1, 8), 16))
            for u, a in g.terms():
                assert canonical_coefficient(g, u) == a


class TestSeriesValidation:
    def test_negative_presentation_rejected(self):
        # no monomial vanishes on a side either: negativity is checked
        # first, and the CLI's error message names the type it raises
        with pytest.raises(SeriesError) as exc:
            make_series(unit_square(), {(0, 0): F(-1, 2)})
        assert type(exc.value) is SeriesError

    def test_missing_side_rejected(self):
        with pytest.raises(BoundaryMismatch):
            make_series(unit_square(), {(1, 0): 0, (0, 1): 0, (-1, 0): 1})

    def test_json_roundtrip(self, rng):
        from tropwave import jsonio
        for _ in range(5):
            poly = random_polygon(rng)
            f = random_series(rng, poly)
            assert jsonio.series_from_json(jsonio.series_to_json(f)) == f


@given(st.sampled_from(["square", "pentagon", "random"]),
       st.integers(0, 2 ** 32 - 1), st.integers(0, 3))
def test_values_at_match_fraction_evaluation(kind, seed, n_waves):
    """values_at, evaluate and attaining_monomials against v . z + a_v in
    `Fraction`s, at the complex vertices, interior points and points of the
    box around the domain (some outside it)."""
    rng = random.Random(seed)
    poly = {"square": unit_square, "pentagon": pentagon,
            "random": lambda: random_polygon(rng)}[kind]()
    f = random_series(rng, poly, n_waves)
    pts = list(f.complex_vertices()) + random_points(rng, poly, 3)
    xs = [v[0] for v in poly.vertices]
    ys = [v[1] for v in poly.vertices]
    for _ in range(6):
        q = rng.randint(1, 40)
        pts.append((F(rng.randint(int(min(xs) - 1) * q, int(max(xs) + 1) * q), q),
                    F(rng.randint(int(min(ys) - 1) * q, int(max(ys) + 1) * q), q)))
    for z in pts:
        if not poly.contains(z):
            for fn in (values_at, evaluate, attaining_monomials):
                with pytest.raises(OutsideDomain):
                    fn(f, z)
            continue
        ref = ref_values(f, z)
        vals, q = values_at(f, z)
        assert q > 0 and [F(v, q) for v in vals] == ref
        assert evaluate(f, z) == min(ref)
        assert attaining_monomials(f, z) == [
            v for v, r in zip(f.support, ref) if r == min(ref)]


@given(st.sampled_from(["square", "pentagon", "random"]),
       st.integers(0, 2 ** 32 - 1), st.integers(0, 4), st.booleans())
def test_add_monomial_degrees_match_the_envelope(kind, seed, n_waves, on_side):
    """add_monomial raises f's quasi-degree by one on each side whose least
    vanishing monomial is v; the envelope of the result gives the same
    degrees.  Half the draws raise a side's least vanishing monomial."""
    rng = random.Random(seed)
    poly = {"square": unit_square, "pentagon": pentagon,
            "random": lambda: random_polygon(rng)}[kind]()
    f = random_series(rng, poly, n_waves)
    if on_side:
        n, m = rng.choice(sorted(quasi_degree(f).items()))
        v = (m * n[0], m * n[1])
    else:
        v = (rng.randint(-4, 4), rng.randint(-4, 4))
    c = F(rng.randint(1, 40), rng.randint(1, 12))
    hulls = []
    original = series._candidate_hull

    def recording(degrees):
        hulls.append(dict(degrees))
        return original(degrees)

    with mock.patch.object(series, "_candidate_hull", recording):
        g = add_monomial(f, v, c)
    # add_monomial's own hull comes first, then its result's renormalization
    assert hulls[0] == ref_envelope_degrees(f, v, c)
    # renormalization takes the handed-off degrees as they are: they are
    # the presentation's, read by the scan a constructor call makes
    terms = {u: canonical_coefficient(f, u)
             for u in series._candidate_hull(hulls[0])}
    terms[v] = canonical_coefficient(f, v) + c
    assert (quasi_degree(g) == hulls[0]
            == series._presentation_side_degrees(poly, terms))


@given(st.sampled_from(["square", "pentagon", "random"]),
       st.integers(0, 2 ** 32 - 1), st.integers(0, 4))
def test_quasi_degree_is_the_presentations_side_degrees(kind, seed, n_waves):
    """The constructor keeps the side degrees of the presentation as the
    quasi-degree; they equal the small form's, also when the presentation
    carries higher vanishing multiples of every side's normal and a raised
    monomial."""
    rng = random.Random(seed)
    poly = {"square": unit_square, "pentagon": pentagon,
            "random": lambda: random_polygon(rng)}[kind]()
    f = random_series(rng, poly, n_waves)
    terms = dict(f.support)
    for n, m in quasi_degree(f).items():
        a = next(hp.a for hp in poly.halfplanes if hp.n == n)
        for k in range(m + 1, m + 1 + rng.randint(1, 3)):
            terms.setdefault((k * n[0], k * n[1]), k * a)
    v = (rng.randint(-3, 3), rng.randint(-3, 3))
    terms[v] = canonical_coefficient(f, v) + F(rng.randint(0, 6), rng.randint(1, 6))
    g = TropicalSeries(poly, terms)
    assert (quasi_degree(g)
            == series._presentation_side_degrees(poly, g.support)
            == series._presentation_side_degrees(poly, terms))


def test_side_degrees_are_scanned_once_per_constructor():
    calls = []
    original = series._presentation_side_degrees

    def counting(domain, terms):
        calls.append(dict(terms))
        return original(domain, terms)

    with mock.patch.object(series, "_presentation_side_degrees", counting):
        f = square13()
        assert len(calls) == 1
        assert quasi_degree(f) == {(1, 0): 1, (0, 1): 1, (-1, 0): 1,
                                   (0, -1): 1}
        is_nice(f)
        # a positive wave builds one series, whose raise hands it the
        # side degrees: no scan
        g, ev = wave(f, (F(1, 5), F(1, 2)))
        assert ev.increment > 0 and len(calls) == 1
        assert quasi_degree(g)[(1, 0)] == 2
        add_monomial(g, (0, 0), 0)
        assert len(calls) == 1


SIDE_DOMAINS = {"square": unit_square, "pentagon": pentagon,
                "triangle": lambda: triangle(3)}


@given(st.sampled_from(sorted(SIDE_DOMAINS)), st.integers(0, 4),
       st.integers(-3, 3), st.sampled_from([(0, 0), (1, 0), (0, 1), (1, -2)]),
       st.fractions(min_value=-2, max_value=2, max_denominator=6))
@example("square", 0, 0, (0, 0), F(1, 3))  # a nonzero constant
@example("square", 0, 0, (0, 0), F(0))  # the zero constant: every side
@example("triangle", 0, 3, (0, 0), F(0))  # 3 (3, 1)
@example("pentagon", 3, 2, (0, 0), F(0))  # 2 (-1, -1), offset 34/5
@example("triangle", 2, -2, (0, 0), F(0))  # (0, 2): a negative multiple
@example("triangle", 0, 1, (1, 0), F(0))  # (4, 1): a direction that is no side
@example("square", 2, 2, (0, 0), F(1, 2))  # (-2, 0) with a wrong offset
def test_vanishing_sides_match_the_per_side_scan(kind, i, k, dv, da):
    # the term k n + dv with coefficient k a + da, for the i-th side n.z + a
    domain = SIDE_DOMAINS[kind]()
    hps = domain.halfplanes
    hp = hps[i % len(hps)]
    v = (k * hp.n[0] + dv[0], k * hp.n[1] + dv[1])
    a = k * hp.a + da
    expected = [(h.n, ref_side_vanishing_multiplier(h, (v, a))) for h in hps]
    assert series._vanishing_sides(series._side_offsets(domain), v, a) == [
        (n, m) for n, m in expected if m is not None]


@given(st.sampled_from(sorted(SIDE_DOMAINS)),
       st.integers(min_value=0, max_value=2 ** 32 - 1))
def test_presentation_side_degrees_match_the_per_side_scan(kind, seed):
    # multiples of every side's normal, some with a wrong offset or a
    # negative multiplier, and a few other terms; a side may have none
    rng = random.Random(seed)
    domain = SIDE_DOMAINS[kind]()
    terms = {}
    for hp in domain.halfplanes:
        for _ in range(rng.randint(0, 3)):
            k = rng.randint(-2, 3)
            a = k * hp.a + rng.choice([0, 0, F(1, rng.randint(1, 4))])
            terms[(k * hp.n[0], k * hp.n[1])] = F(a)
    for _ in range(rng.randint(0, 3)):
        terms[(rng.randint(-3, 3), rng.randint(-3, 3))] = F(
            rng.randint(-3, 3), rng.randint(1, 3))

    def outcome(fn):
        try:
            return list(fn(domain, terms).items())
        except BoundaryMismatch:
            return BoundaryMismatch

    assert (outcome(series._presentation_side_degrees)
            == outcome(ref_presentation_side_degrees))
