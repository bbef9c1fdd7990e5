"""Convex domains given only through their support coefficients, outside
the polygon-only series kernel.  Every enumeration stops at the oracle's
radius, so the distance function is a `TruncatedSeries`; re-run with a
larger radius to certify stability on a compact of interest (the growth
protocol is the caller's responsibility).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Optional, Sequence

from .exactlp import Point, Vec, dot
from .geometry import GeometryError
from .series import SeriesError


class NotAdmissible(SeriesError):
    pass


class SupportOracle:
    """``coeff(v)`` returns inf over the domain of v . z (a Fraction) or
    None for minus infinity; ``radius`` truncates every enumeration of
    monomials to |v|^2 <= radius^2."""

    def __init__(self, coeff: Callable[[Vec], Optional[Fraction]],
                 radius: int, has_interior: bool = True):
        if radius < 1:
            raise GeometryError("truncation radius must be >= 1")
        self.coeff = coeff
        self.radius = radius
        self.has_interior = has_interior

    def support_values(self):
        r2 = self.radius * self.radius
        for i in range(-self.radius, self.radius + 1):
            for j in range(-self.radius, self.radius + 1):
                if i * i + j * j <= r2:
                    c = self.coeff((i, j))
                    if c is not None:
                        yield ((i, j), Fraction(c))


def is_admissible(oracle: SupportOracle) -> bool:
    """Nonempty interior and some nonzero monomial bounded below."""
    return oracle.has_interior and any(
        v != (0, 0) for v, _ in oracle.support_values())


def relevant_monomials(oracle: SupportOracle, K: Sequence[Point],
                       C: Fraction) -> set[Vec]:
    """The monomials within the radius that can contribute at level <= C
    on the points K: every v whose minimal affine v . z - coeff(v),
    nonnegative on the domain, is <= C at some point of K; and (0, 0)."""
    C = Fraction(C)
    if C <= 0:
        raise GeometryError("C must be positive")
    kpts = [(Fraction(x), Fraction(y)) for x, y in K]
    return {v for v, cv in oracle.support_values()
            if min(dot(v, p) for p in kpts) - cv <= C} | {(0, 0)}


@dataclass(frozen=True)
class TruncatedSeries:
    """min over ``support`` (sorted (v, a) pairs) of v . z + a, on the
    oracle's domain; call it at a point to evaluate."""

    oracle: SupportOracle
    support: tuple[tuple[Vec, Fraction], ...]

    def __call__(self, z: Point) -> Fraction:
        return min(dot(v, z) + a for v, a in self.support)


def distance_function(oracle: SupportOracle) -> TruncatedSeries:
    """The weighted distance function truncated to the radius: the min over
    nonzero monomials v of v . z - coeff(v)."""
    if not is_admissible(oracle):
        raise NotAdmissible("domain is not admissible")
    return TruncatedSeries(oracle, tuple(sorted(
        (v, -c) for v, c in oracle.support_values() if v != (0, 0))))
