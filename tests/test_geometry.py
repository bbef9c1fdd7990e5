import math
import random
from fractions import Fraction as F

import pytest
from hypothesis import assume, given, strategies as st

from tropwave.exactlp import cross, dot
from tropwave.geometry import (BadDirection, Corner, DistanceZero,
                               EmptyInterior, GeometryError, HalfPlane,
                               QPolygon, SupportOracle, blow_up,
                               cone_lattice_contains, corner_is_unimodular,
                               is_admissible, is_unimodular,
                               relevant_monomials, support_coeff)

from conftest import (pentagon, random_polygon, ref_polytope_vertices,
                      unit_square)


def disk_oracle(radius=6):
    # support coefficients of the unit disk, defined where they are rational
    def coeff(v):
        i, j = v
        s = math.isqrt(i * i + j * j)
        return F(-s) if s * s == i * i + j * j else None

    return SupportOracle(coeff, radius=radius)


class TestSupportCoeff:
    def test_unit_square_x(self):
        assert support_coeff(unit_square(), (1, 0)) == 0

    def test_unit_square_minus_x(self):
        assert support_coeff(unit_square(), (-1, 0)) == -1

    def test_disk_oracle(self):
        assert support_coeff(disk_oracle(), (3, 4)) == -5

    def test_zero_monomial(self):
        assert support_coeff(unit_square(), (0, 0)) == 0

    def test_halfplane_certificate(self, rng):
        # for finite coefficients, {v.z >= c_v} contains the polygon
        for _ in range(30):
            poly = random_polygon(rng)
            v = (rng.randrange(-3, 4), rng.randrange(-3, 4))
            if v == (0, 0):
                continue
            c = support_coeff(poly, v)
            assert all(dot(v, w) >= c for w in poly.vertices)


class TestAdmissibility:
    def test_square(self):
        assert is_admissible(unit_square())

    def test_whole_plane_oracle(self):
        plane = SupportOracle(lambda v: F(0) if v == (0, 0) else None, radius=4)
        assert not is_admissible(plane)

    def test_segment_oracle(self):
        # support data of the segment [(0,0),(1,0)]: finite everywhere but
        # the set has empty interior
        seg = SupportOracle(lambda v: F(min(0, v[0])), radius=4,
                            has_interior=False)
        assert not is_admissible(seg)

    def test_empty_halfplane_list_rejected(self):
        with pytest.raises(GeometryError):
            QPolygon([])

    def test_empty_interior_rejected(self):
        with pytest.raises(EmptyInterior):
            QPolygon([HalfPlane((1, 0), 0), HalfPlane((-1, 0), 0),
                      HalfPlane((0, 1), 0), HalfPlane((0, -1), 1)])


class TestRelevantMonomials:
    def test_square_center(self):
        out = relevant_monomials(unit_square(), [(F(1, 2), F(1, 2))], F(1, 2))
        assert {(0, 0), (1, 0), (-1, 0), (0, 1), (0, -1)} <= out
        assert len(out) < 50

    def test_small_c(self):
        out = relevant_monomials(unit_square(), [(F(1, 2), F(1, 2))], F(1, 100))
        assert out == {(0, 0)}

    def test_plane_like_oracle(self):
        plane = SupportOracle(lambda v: F(0) if v == (0, 0) else None, radius=5)
        assert relevant_monomials(plane, [(F(0), F(0))], F(1)) == {(0, 0)}

    def test_touching_boundary(self):
        with pytest.raises(DistanceZero):
            relevant_monomials(unit_square(), [(F(0), F(1, 2))], F(1))

    def test_brute_force_containment(self, rng):
        # every monomial whose minimal nonnegative affine dips below C on K
        # must be in the returned set (checked over a larger scan radius)
        for _ in range(10):
            poly = random_polygon(rng)
            from tropwave.wave import sample_interior_points
            k = sample_interior_points(poly, 2, rng, 8)
            C = F(rng.randrange(1, 4), 2)
            out = relevant_monomials(poly, k, C)
            for i in range(-8, 9):
                for j in range(-8, 9):
                    c = support_coeff(poly, (i, j))
                    if min(dot((i, j), p) for p in k) - c <= C:
                        assert (i, j) in out


class TestUnimodular:
    def test_square(self):
        assert is_unimodular(unit_square())

    def test_wide_triangle(self):
        tri = QPolygon.from_vertices([(0, 0), (2, 0), (0, 1)])
        assert not is_unimodular(tri)
        # the bad corner is (0,1): edge directions (0,-1) and (2,-1)
        for c in tri.corners():
            expected = c.apex != (F(0), F(1))
            assert corner_is_unimodular(c) == expected

    def test_standard_simplex(self):
        assert is_unimodular(QPolygon.from_vertices([(0, 0), (1, 0), (0, 1)]))


class TestConeLattice:
    def test_quadrant(self):
        c = Corner((F(0), F(0)), ((1, 0), (0, 1)))
        assert cone_lattice_contains(c, (2, 3))
        assert not cone_lattice_contains(c, (-1, 2))

    def test_rational_solve(self):
        c = Corner((F(0), F(0)), ((1, 0), (1, 2)))
        assert cone_lattice_contains(c, (1, 1))

    def test_brute_force_agreement(self, rng):
        # the normals are independent, so the decomposition v = a*n1 + b*n2
        # is unique; membership reduces to nonnegativity of that solution,
        # which a rational grid search can only rediscover
        for _ in range(20):
            n1 = (rng.randrange(-2, 3), rng.randrange(-2, 3))
            n2 = (rng.randrange(-2, 3), rng.randrange(-2, 3))
            if cross(n1, n2) == 0 or n1 == (0, 0) or n2 == (0, 0):
                continue
            c = Corner((F(0), F(0)), (n1, n2))
            det = cross(n1, n2)
            for i in range(-5, 6):
                for j in range(-5, 6):
                    alpha = F(cross((i, j), n2), det)
                    beta = F(cross(n1, (i, j)), det)
                    assert cone_lattice_contains(c, (i, j)) == (
                        alpha >= 0 and beta >= 0)


class TestBlowUp:
    def _corner(self, poly, apex):
        return [c for c in poly.corners() if c.apex == apex][0]

    def test_diagonal_cut(self):
        sq = unit_square()
        c = self._corner(sq, (F(0), F(0)))
        out = blow_up(sq, c, (1, 1), F(1, 4))
        assert HalfPlane((1, 1), F(-1, 4)) in out.halfplanes
        assert out.area() < sq.area()

    def test_steeper_cut(self):
        sq = unit_square()
        c = self._corner(sq, (F(0), F(0)))
        out = blow_up(sq, c, (1, 2), F(1, 8))
        assert HalfPlane((1, 2), F(-1, 8)) in out.halfplanes

    def test_bad_direction(self):
        sq = unit_square()
        c = self._corner(sq, (F(0), F(0)))
        with pytest.raises(BadDirection):
            blow_up(sq, c, (-1, 0), F(1, 4))

    def test_too_large(self):
        sq = unit_square()
        c = self._corner(sq, (F(0), F(0)))
        from tropwave.geometry import TooLarge
        with pytest.raises(TooLarge):
            blow_up(sq, c, (1, 1), F(3))

    def test_subset_and_shared_sides(self, rng):
        for _ in range(10):
            poly = random_polygon(rng)
            corner = poly.corners()[0]
            n1, n2 = corner.normals
            v = (n1[0] + n2[0], n1[1] + n2[1])
            if v == (0, 0):
                continue
            try:
                out = blow_up(poly, corner, v, F(1, 8))
            except GeometryError:
                continue
            assert out.area() <= poly.area()
            for w in out.vertices:
                assert poly.contains(w)
            # all original sides survive except possibly at the cut corner
            kept = set(hp.n for hp in out.halfplanes)
            assert set(hp.n for hp in poly.halfplanes) <= kept

    def test_det2_corner_resolves(self):
        # a det-2 corner cut along the middle direction becomes two
        # unimodular corners
        sq = QPolygon([HalfPlane((1, 0), 0), HalfPlane((1, 2), 0),
                       HalfPlane((-1, 0), 4), HalfPlane((0, -1), 4)])
        corner = [c for c in sq.corners()
                  if set(c.normals) == {(1, 0), (1, 2)}][0]
        out = blow_up(sq, corner, (1, 1), F(1, 2))
        new_corners = [c for c in out.corners()
                       if not any(c.apex == d.apex for d in sq.corners())]
        assert len(new_corners) == 2
        assert all(corner_is_unimodular(c) for c in new_corners)


class TestPolygonCanonicalForm:
    def test_redundant_halfplane_removed(self):
        a = QPolygon.box(0, 0, 1, 1)
        b = QPolygon([HalfPlane((1, 0), 0), HalfPlane((-1, 0), 1),
                      HalfPlane((0, 1), 0), HalfPlane((0, -1), 1),
                      HalfPlane((1, 1), 5)])
        assert a == b

    def test_normal_scaling_canonicalized(self):
        a = QPolygon.box(0, 0, 1, 1)
        b = QPolygon([HalfPlane((2, 0), 0), HalfPlane((-3, 0), 3),
                      HalfPlane((0, 5), 0), HalfPlane((0, -2), 2)])
        assert a == b

    def test_json_roundtrip(self, rng):
        from tropwave import jsonio
        for _ in range(10):
            poly = random_polygon(rng)
            assert jsonio.polygon_from_json(jsonio.polygon_to_json(poly)) == poly


# -- bounded-only construction --------------------------------------------

SEEDS = st.integers(min_value=0, max_value=2 ** 32 - 1)
DOMAINS = st.sampled_from(["square", "pentagon", "random"])


def polygon_with_extras(kind, seed):
    """A conftest polygon's half-planes, some rescaled, plus up to four
    random ones: a loosened copy of a side, or an arbitrary normal at a
    random offset from the vertex centroid (possibly cutting the polygon
    away)."""
    rng = random.Random(seed)
    poly = {"square": unit_square, "pentagon": pentagon,
            "random": lambda: random_polygon(rng)}[kind]()
    hps = []
    for hp in poly.halfplanes:
        k = rng.randint(1, 3)
        hps.append(HalfPlane((k * hp.n[0], k * hp.n[1]), k * hp.a))
    vs = poly.vertices
    centroid = (sum(v[0] for v in vs) / len(vs), sum(v[1] for v in vs) / len(vs))
    for _ in range(rng.randint(0, 4)):
        if rng.random() < 0.25:
            hp = rng.choice(poly.halfplanes)
            hps.append(HalfPlane(hp.n, hp.a + F(rng.randint(0, 3), 2)))
            continue
        n = (rng.randint(-3, 3), rng.randint(-3, 3))
        if n == (0, 0):
            continue
        hps.append(HalfPlane(n, -dot(n, centroid) + F(rng.randint(-2, 6), 4)))
    rng.shuffle(hps)
    return hps


def vertex_set(hps):
    return set(ref_polytope_vertices([hp.constraint() for hp in hps]))


@given(DOMAINS, SEEDS)
def test_canonical_halfplanes_keep_the_vertex_set(kind, seed):
    hps = polygon_with_extras(kind, seed)
    try:
        poly = QPolygon(hps)
    except EmptyInterior:
        # no interior: the system's basic feasible points are collinear
        pts = sorted(vertex_set(hps))
        assert all(cross((b[0] - pts[0][0], b[1] - pts[0][1]),
                         (c[0] - pts[0][0], c[1] - pts[0][1])) == 0
                   for b in pts for c in pts)
        return
    assert set(poly.vertices) == vertex_set(poly.halfplanes) == vertex_set(hps)
    for hp in hps:
        if hp.normalized() in poly.halfplanes:
            continue
        assert all(hp.contains(v) for v in poly.vertices)
        assert sum(dot(hp.n, v) + hp.a == 0 for v in poly.vertices) <= 1


@given(SEEDS)
def test_normals_in_a_closed_half_plane_are_rejected(seed):
    # all normals n with n . d >= 0 for one d != 0: the cone they span
    # misses -d, so the system is unbounded or empty
    rng = random.Random(seed)
    d = (rng.randint(-2, 2), rng.randint(-2, 2))
    assume(d != (0, 0))
    hps = []
    for _ in range(rng.randint(1, 6)):
        n = (rng.randint(-3, 3), rng.randint(-3, 3))
        if n != (0, 0) and dot(n, d) >= 0:
            hps.append(HalfPlane(n, F(rng.randint(-4, 4), rng.randint(1, 3))))
    assume(hps)
    with pytest.raises(GeometryError):
        QPolygon(hps)


# -- exact membership ---------------------------------------------------------


def ref_contains(poly, p, strict):
    """Membership by Fraction half-plane dots, the test the integer one
    replaced."""
    vals = [dot(hp.n, p) + hp.a for hp in poly.halfplanes]
    return all(v > 0 for v in vals) if strict else all(v >= 0 for v in vals)


@given(DOMAINS, SEEDS)
def test_contains_matches_fraction_reference(kind, seed):
    rng = random.Random(seed)
    poly = {"square": unit_square, "pentagon": pentagon,
            "random": lambda: random_polygon(rng)}[kind]()
    pts = list(poly.vertices)
    for hp, a, b in poly.sides():
        # a point of the side, and points just inside and just outside it
        t = F(rng.randint(0, 12), 12)
        on = (a[0] + t * (b[0] - a[0]), a[1] + t * (b[1] - a[1]))
        d = F(1, rng.randint(1, 1000))
        pts += [on, (on[0] + d * hp.n[0], on[1] + d * hp.n[1]),
                (on[0] - d * hp.n[0], on[1] - d * hp.n[1])]
    xs = [v[0] for v in poly.vertices]
    ys = [v[1] for v in poly.vertices]
    for _ in range(10):
        q = rng.randint(1, 40)
        pts.append((F(rng.randint(int(min(xs) - 1) * q, int(max(xs) + 1) * q), q),
                    F(rng.randint(int(min(ys) - 1) * q, int(max(ys) + 1) * q), q)))
    pts.append((rng.randint(-3, 3), rng.randint(-3, 3)))  # plain integers
    for p in pts:
        for strict in (False, True):
            assert poly.contains(p, strict) == ref_contains(poly, p, strict)
