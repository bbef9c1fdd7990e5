"""A first wave: the worked unit-square example, reproduced exactly.

We start from the series min(x, y, 1-x, 1-y, 1/3) on [0,1]^2, whose curve
has an inner square face, and send a wave from the point (1/5, 1/2).  The
wave raises the coefficient of the monomial dominating there (the x-term) by
exactly 2/15, which makes the curve pass through the point; a new face
appears where 2x dominates.
"""

import os
from fractions import Fraction as F

from tropwave import (QPolygon, extract_curve, make_series, quasi_degree,
                      wave)
from tropwave.svgout import render_curve

OUT = os.path.join(os.path.dirname(__file__), "out")
os.makedirs(OUT, exist_ok=True)

square = QPolygon.box(0, 0, 1, 1)
f = make_series(square, {(1, 0): 0, (0, 1): 0, (-1, 0): 1, (0, -1): 1,
                         (0, 0): F(1, 3)})
print("start:", f)
print("quasi-degree:", quasi_degree(f))

p = (F(1, 5), F(1, 2))
g, event = wave(f, p)
print(f"\nwave at {p}:")
print("  bumped monomial:", event.monomial)
print("  increment:      ", event.increment)          # exactly 2/15
print("  avalanche area: ", event.avalanche_area)     # the old face of p

print("\nresult:", g)
print("quasi-degree:", quasi_degree(g))               # left side now 2

for name, series in (("wave_before.svg", f), ("wave_after.svg", g)):
    with open(os.path.join(OUT, name), "w") as fh:
        fh.write(render_curve(extract_curve(series), points=[p]))
print(f"\ncurves written to {OUT}/wave_before.svg and wave_after.svg")

# waving again at the same point changes nothing: the curve already passes
# through it
g2, event2 = wave(g, p)
print("\nsecond wave at the same point: increment =", event2.increment)
assert g2 == g
