"""Refinement machinery: level sets, corner blow-ups, the verge polynomial,
and the certified coarse replay of a dynamic.

Every construction is pinned by exact certificates rather than the existence
proofs' implicit constants: blow-up multipliers are the smallest whose cut
affine provably exceeds the series outside the corner neighborhood, the
verge's hair spacing halves until every vertex classifies smooth, and the
coarsened replay halves its step size until no intermediate curve leaves the
smooth-or-nodal class and no face contracts.
"""

import os
from fractions import Fraction as F

from tropwave import (QPolygon, coarsen_dynamics, distance_function,
                      extract_curve, is_nice, is_unimodular, level_set_polygon,
                      make_nice, make_series, quasi_degree, verge_polynomial,
                      wave)
from tropwave.curve import classify_vertex
from tropwave.svgout import render_curve

OUT = os.path.join(os.path.dirname(__file__), "out")
os.makedirs(OUT, exist_ok=True)

# level sets: where the series exceeds eps is again a rational polygon
square = QPolygon.box(0, 0, 1, 1)
f = make_series(square, {(1, 0): 0, (0, 1): 0, (-1, 0): 1, (0, -1): 1,
                         (0, 0): F(1, 3)})
print("level set {f >= 1/3}:", level_set_polygon(f, F(1, 3)).vertices)

# blow-ups: a wide triangle has a non-unimodular corner; cutting it along
# certified directions yields a unimodular polygon and a nice series that
# agrees with the input away from the corners
tri = QPolygon.from_vertices([(0, 0), (2, 0), (0, 1)])
print("\ntriangle unimodular:", is_unimodular(tri))
sub, g, steps = make_nice(tri, distance_function(tri), F(1, 8))
for s in steps:
    print(f"  blow-up at {s.corner_apex}: direction {s.direction} "
          f"x {s.multiplier}, depth {s.depth}")
print("result unimodular:", is_unimodular(sub), " nice:", is_nice(g))

# the verge: a smooth curve hugging the boundary with prescribed degrees
degrees = {(1, 0): 4, (0, 1): 1, (-1, 0): 1, (0, -1): 1}
v = verge_polynomial(QPolygon.box(0, 0, 2, 2), degrees, F(1, 4))
curve = extract_curve(v)
print("\nverge with a degree-4 side:", quasi_degree(v))
print("all vertices smooth:",
      all(classify_vertex(curve, z).is_smooth
          for z in curve.interior_vertices()))
with open(os.path.join(OUT, "verge_ladder.svg"), "w") as fh:
    fh.write(render_curve(curve))
print(f"ladder written to {OUT}/verge_ladder.svg")

# coarse replay: decrement the increments so no face ever contracts, while
# landing eps-close to the original final curve
center = (F(1, 2), F(1, 2))
_, event = wave(f, center)          # the full wave collapses the inner face
plan, final, cert = coarsen_dynamics(f, [event], F(1, 30))
print(f"\ncoarsen: full increment {event.increment} -> "
      f"decremented {plan.decremented[0]} (M = {plan.M}, h = {plan.h})")
print("inner face of the replay stays two-dimensional:",
      (0, 0) in extract_curve(final).faces)
