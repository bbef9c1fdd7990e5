"""Exact tropical series and wave dynamics on rational convex polygons.

The package implements, with exact rational arithmetic throughout: tropical
series in small canonical form on Q-polygons (the kernel takes polygons
only; `oracle` holds convex domains given by support coefficients and their
truncated distance functions), the single-point wave operator and the
multi-point dynamic it generates, corner-locus curves with vertex
classification, balancing and tropical symplectic area, level-set and
blow-up refinement machinery (nice-ification, the verge construction,
certified coarse smooth replays), a characteristic-two lift of the wave with
mechanical verification of its tropicalization identity, and an
avalanche-statistics harness.
"""

from .geometry import (Corner, HalfPlane, QPolygon, blow_up,
                       cone_lattice_contains, corner_is_unimodular,
                       is_unimodular, relevant_monomials, support_coeff)
from .oracle import SupportOracle, is_admissible
from .series import (TropicalSeries, add_monomial, canonical_coefficient,
                     distance_function, evaluate, is_nice, make_series,
                     quasi_degree, rho, zero_series)
from .curve import (TropicalCurve, VertexClass, check_balancing,
                    classify_vertex, curves_within, extract_curve,
                    symplectic_area)
from .wave import (DynamicsResult, Schedule, WaveEvent, avalanche_experiment,
                   run_dynamics, upper_bound_witness, wave, wave_family_scan)
from .refine import (BlowupStep, CoarsenPlan, coarsen_dynamics,
                     level_set_polygon, level_shift_check, make_nice,
                     nice_restrict, verge_polynomial)
from .lift2 import (GF2Poly, GF2RatFun, LaurentPoly2, s_wave, trop,
                    valuation, verify_lift_theorem)

__version__ = "0.1.0"
