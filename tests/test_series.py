import random
from fractions import Fraction as F

import pytest
from hypothesis import given, strategies as st

from tropwave.curve import attaining_monomials
from tropwave.exactlp import dot
from tropwave.geometry import QPolygon, SupportOracle
from tropwave.series import (BoundaryMismatch, NegativeIncrement,
                             NotAdmissible, OutsideDomain, SeriesError,
                             add_monomial,
                             canonical_coefficient, distance_function,
                             evaluate, is_nice, make_series, quasi_degree,
                             rho, values_at, zero_series)

from conftest import pentagon, random_points, random_polygon, random_series, \
    ref_values, square13, unit_square


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

    def test_oracle_truncated(self):
        seg = SupportOracle(lambda v: F(min(0, v[0] + v[1])), radius=3)
        l = distance_function(seg)
        assert l.truncated

    @pytest.mark.parametrize("read", [quasi_degree,
                                      lambda f: f.cells(),
                                      lambda f: f.complex_vertices()],
                             ids=["quasi_degree", "cells", "complex_vertices"])
    def test_oracle_series_has_no_complex(self, read):
        seg = SupportOracle(lambda v: F(min(0, v[0] + v[1])), radius=3)
        with pytest.raises(SeriesError, match="polygon domain"):
            read(distance_function(seg))

    def test_not_admissible(self):
        plane = SupportOracle(lambda v: F(0) if v == (0, 0) else None, radius=3)
        with pytest.raises(NotAdmissible):
            distance_function(plane)


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
        from tropwave.series import SeriesError
        with pytest.raises(SeriesError):
            make_series(unit_square(), {(0, 0): F(-1, 2)})

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
