import math
from fractions import Fraction as F

import pytest

from tropwave.oracle import (NotAdmissible, SupportOracle, TruncatedSeries,
                             distance_function, is_admissible,
                             relevant_monomials)


def disk_oracle(radius=6):
    # support coefficients of the unit disk, defined where they are rational
    def coeff(v):
        i, j = v
        s = math.isqrt(i * i + j * j)
        return F(-s) if s * s == i * i + j * j else None

    return SupportOracle(coeff, radius=radius)


def plane_oracle(radius):
    return SupportOracle(lambda v: F(0) if v == (0, 0) else None, radius=radius)


class TestSupportValues:
    def test_disk_oracle(self):
        assert dict(disk_oracle().support_values())[(3, 4)] == -5


class TestAdmissibility:
    def test_whole_plane_oracle(self):
        assert not is_admissible(plane_oracle(4))

    def test_segment_oracle(self):
        # support data of the segment [(0,0),(1,0)]: finite everywhere but
        # the set has empty interior
        seg = SupportOracle(lambda v: F(min(0, v[0])), radius=4,
                            has_interior=False)
        assert not is_admissible(seg)


class TestRelevantMonomials:
    def test_plane_like_oracle(self):
        assert relevant_monomials(plane_oracle(5), [(F(0), F(0))], F(1)) == {(0, 0)}


class TestDistanceFunction:
    def test_oracle_truncated(self):
        seg = SupportOracle(lambda v: F(min(0, v[0] + v[1])), radius=3)
        l = distance_function(seg)
        assert isinstance(l, TruncatedSeries)

    def test_disk_distance(self):
        # 1 - |z| on the unit disk, from the monomials of rational norm
        l = distance_function(disk_oracle())
        assert l((0, 0)) == 1
        assert l((F(1, 2), 0)) == F(1, 2)
        assert [v for v, _ in l.support] == sorted(v for v, _ in l.support)

    def test_not_admissible(self):
        with pytest.raises(NotAdmissible):
            distance_function(plane_oracle(3))
