"""Curves as exact planar graphs: classification, balancing, and the
tropical symplectic area.

The corner locus of a series is derived from the monomial dominance regions,
so weights and directions are automatic: an edge between the u- and w-regions
runs orthogonally to w - u and carries weight gcd(w - u).  Every interior
vertex is balanced, and on a compact polygon the total weighted area
(length times primitive length) equals the quasi-degree pairing with the
polygon sides, which makes it invariant under face deformations.
"""

import os
from fractions import Fraction as F

from tropwave import (QPolygon, check_balancing, classify_vertex,
                      extract_curve, make_series, quasi_degree, run_dynamics,
                      symplectic_area, wave, zero_series)
from tropwave.curve import quasi_degree_area
from tropwave.svgout import render_curve

OUT = os.path.join(os.path.dirname(__file__), "out")
os.makedirs(OUT, exist_ok=True)

square = QPolygon.box(0, 0, 1, 1)
f = make_series(square, {(1, 0): 0, (0, 1): 0, (-1, 0): 1, (0, -1): 1,
                         (0, 0): F(1, 3)})
curve = extract_curve(f)
print("edges:", len(curve.edges), " interior vertices:",
      len(curve.interior_vertices()))
for z in sorted(curve.interior_vertices()):
    print(f"  vertex {z}: {classify_vertex(curve, z).kind}")
print("balanced:", check_balancing(curve))
print("symplectic area:", symplectic_area(curve))
print("side pairing:   ", quasi_degree_area(f), "(equal by deformation invariance)")

# a nodal vertex: freeze the one-wave family on a pentagon at the moment the
# diagonal side of the inner face collapses
pent = QPolygon.from_vertices([(0, 0), (2, 0), (2, F(7, 5)), (F(7, 5), 2),
                               (0, 2)])
f1, _ = wave(zero_series(pent), (F(1, 2), F(1)))
from tropwave import add_monomial, wave_family_scan
report = wave_family_scan(f1, (F(13, 20), F(13, 20)))
print("\nfamily scan on the pentagon:")
for e in report.events:
    print(f"  {e.kind} at t = {e.t}")
t_star = [e.t for e in report.events if e.kind == "NodalPerestroika"][0]
frozen = add_monomial(f1, (0, 0), report.increment * t_star)
nodal_curve = extract_curve(frozen)
kinds = [classify_vertex(nodal_curve, z).kind
         for z in nodal_curve.interior_vertices()]
print("vertex kinds at the perestroika moment:", sorted(kinds))
with open(os.path.join(OUT, "nodal_moment.svg"), "w") as fh:
    fh.write(render_curve(nodal_curve))
print(f"curve written to {OUT}/nodal_moment.svg")

# minimality: the dynamic's curve has the smallest area among curves through
# the points
pts = [(F(1), F(1))]
best = run_dynamics(zero_series(pent), pts).final
print("\narea of the dynamic's curve: ", symplectic_area(extract_curve(best)))
from tropwave import upper_bound_witness
other = upper_bound_witness(zero_series(pent), pts)
print("area of the explicit witness:", symplectic_area(extract_curve(other)))
