"""The three benchmark workloads.

Each workload is a class.  Constructing it is the set-up: it makes every
input from the seed.  ``run(i)`` is op ``i``, the timed unit, and calls the
program only through module attributes, so that a tracer which rebinds those
attributes sees the top-level call.  ``check(i, out)`` verifies the output
exactly and ``record(i, out)`` returns the canonical text that goes into the
golden digest; both run outside the timed region and use the functions as
imported here, which a tracer never replaces.

The input of op ``i`` depends on the seed and on ``i`` alone, so a run that
completes more ops sees the same first ops as a shorter one.  Inputs repeat
their shape every ``CYCLE`` ops (polygon, point count, distance class or
subcommand), and a run measures whole cycles, so that every run has the same
mix of shapes.
"""

from __future__ import annotations

import os
import random
import shutil
import sys
import tempfile
from fractions import Fraction

import tropwave.cli  # noqa: F401  (loads every layer)
from tropwave import jsonio
from tropwave.curve import attaining_monomials
from tropwave.geometry import QPolygon
from tropwave.series import distance_function, evaluate, zero_series
from tropwave.wave import STABILIZED, run_dynamics, sample_interior_points, wave

# Module objects: ops call through their attributes (see the module doc).
W = sys.modules["tropwave.wave"]
CLI = sys.modules["tropwave.cli"]


def unit_square() -> QPolygon:
    return QPolygon.box(0, 0, 1, 1)


def pentagon() -> QPolygon:
    """[0,2]^2 with the top-right corner cut by x + y <= 17/5; its vertices
    (2, 7/5) and (7/5, 2) are not lattice points."""
    return QPolygon.from_vertices([(0, 0), (2, 0), (2, Fraction(7, 5)),
                                   (Fraction(7, 5), 2), (0, 2)])


def frac(x) -> str:
    x = Fraction(x)
    return f"{x.numerator}/{x.denominator}"


def support_text(f) -> str:
    return ";".join(f"{v[0]},{v[1]}:{frac(a)}" for v, a in f.support.items())


def event_text(ev) -> str:
    return (f"{ev.step}|{frac(ev.point[0])},{frac(ev.point[1])}|"
            f"{ev.monomial[0]},{ev.monomial[1]}|{frac(ev.increment)}|"
            f"{frac(ev.avalanche_area)}")


def _rng(seed: int, tag: str, i: int = 0) -> random.Random:
    return random.Random(f"{seed}/{tag}/{i}")


class Avalanche:
    """One trial of the statistics harness: the dynamic from the zero series
    on N seeded dyadic points, round robin, until exact stabilization.

    As in ``avalanche_experiment`` every trial has the same point count;
    trials alternate between the unit square and the pentagon."""

    name = "avalanche"
    N = 3
    CYCLE = 2
    INPUTS = 1024             # ops beyond this reuse inputs cyclically
    GOLDEN_OPS = 4
    TRACE_OPS = 16

    def __init__(self, seed: int, workdir: str):
        polys = (unit_square(), pentagon())
        self.inputs = []
        for i in range(self.INPUTS):
            poly = polys[i % 2]
            pts = sample_interior_points(poly, self.N, _rng(seed, self.name, i), 64)
            self.inputs.append((poly, pts))

    def run(self, i: int):
        poly, pts = self.inputs[i % self.INPUTS]
        return W.run_dynamics(W.zero_series(poly), pts, W.Schedule("round_robin"))

    def check(self, i: int, res) -> bool:
        _, pts = self.inputs[i % self.INPUTS]
        return (res.stopped_reason == STABILIZED
                and all(len(attaining_monomials(res.final, p)) >= 2 for p in pts))

    def record(self, i: int, res) -> str:
        return "\n".join([res.stopped_reason, str(res.steps),
                          *map(event_text, res.events), support_text(res.final)])

    def close(self) -> None:
        pass


class NearSide:
    """One wave at a point close to a side of the domain, on a series from a
    pool prebuilt by the dynamic; exercises the lattice scan of the wave.

    The pool is the same for every seed (its points come from ``POOL_SEED``),
    so that runs with different seeds time waves on the same series; the seed
    draws the side and the position along it of every op's point."""

    name = "near_side"
    POOL = 12                 # series j: 4 + j // 2 % 2 points on polygon j % 2
    POOL_SEED = 0
    DISTANCES = (100, 200)    # op i: series i % POOL, 1/DISTANCES[i // POOL % 2]
    CYCLE = POOL * len(DISTANCES)
    INPUTS = 1024
    GOLDEN_OPS = CYCLE
    TRACE_OPS = 2 * CYCLE

    def __init__(self, seed: int, workdir: str):
        polys = (unit_square(), pentagon())
        self.pool = []
        for j in range(self.POOL):
            poly = polys[j % 2]
            rng = _rng(self.POOL_SEED, "near_side_pool", j)
            pts = sample_interior_points(poly, 4 + j // 2 % 2, rng, 64)
            self.pool.append(run_dynamics(zero_series(poly), pts).final)
        self.inputs = []
        for i in range(self.INPUTS):
            rng = _rng(seed, self.name, i)
            f = self.pool[i % self.POOL]
            d = self.DISTANCES[i // self.POOL % len(self.DISTANCES)]
            sides = f.domain.sides()
            hp, a, b = sides[rng.randrange(len(sides))]
            s = Fraction(rng.randrange(1, 64), 64)
            # lattice distance 1/d: hp.n . p + hp.a == 1/d
            step = Fraction(1, d * (hp.n[0] ** 2 + hp.n[1] ** 2))
            p = (a[0] + s * (b[0] - a[0]) + step * hp.n[0],
                 a[1] + s * (b[1] - a[1]) + step * hp.n[1])
            if not f.domain.contains(p, strict=True):
                raise RuntimeError(f"near-side point {p} is not interior")
            self.inputs.append((f, p))

    def run(self, i: int):
        f, p = self.inputs[i % self.INPUTS]
        return W.wave(f, p)

    def check(self, i: int, out) -> bool:
        f, p = self.inputs[i % self.INPUTS]
        g, _ = out
        return len(attaining_monomials(g, p)) >= 2 and evaluate(g, p) >= evaluate(f, p)

    def record(self, i: int, out) -> str:
        g, ev = out
        return event_text(ev) + "\n" + support_text(g)

    def close(self) -> None:
        pass


class Certify:
    """One in-process CLI call into a fresh output directory, cycling through
    seven subcommands on seeded input files."""

    name = "certify"
    COMMANDS = ("curve", "wave", "dynamics", "make-nice", "verge", "coarsen",
                "lift-check")
    SERIES = 4       # input series for curve and wave, each built by a dynamic
    VARIANTS = 8     # argument sets; round r uses variant r % VARIANTS
    LIFT_TRIALS = 20
    CYCLE = len(COMMANDS) * VARIANTS
    GOLDEN_OPS = CYCLE
    TRACE_OPS = CYCLE

    def __init__(self, seed: int, workdir: str):
        self.dir = tempfile.mkdtemp(prefix="certify-", dir=workdir)
        self.bytes_written = 0
        polys = (unit_square(), pentagon())
        doms = [self._dump(f"domain{j}.json", jsonio.polygon_to_json(poly))
                for j, poly in enumerate(polys)]
        # make-nice needs corners that are not unimodular; it is the slowest
        # subcommand, so op_p90_ms falls inside its group, not on a boundary
        bent = QPolygon.from_vertices([(0, 0), (2, 0), (3, 2), (1, 3)])
        bent_distance = distance_function(bent)
        series = []
        for j in range(self.SERIES):
            rng = _rng(seed, "certify_series", j)
            poly = polys[j % 2]
            pts = sample_interior_points(poly, 4, rng, 64)
            f = run_dynamics(zero_series(poly), pts).final
            series.append(self._dump(f"series{j}.json", jsonio.series_to_json(f)))
        self.argv = []
        for v in range(self.VARIANTS):
            rng = _rng(seed, self.name, v)
            j = v % self.SERIES
            poly = polys[j % 2]
            q = sample_interior_points(poly, 1, rng, 64)[0]
            dyn = self._dump(f"dynamics{v}.json", self._points(poly, rng, 3, 64))
            sides = [hp.n for hp in poly.halfplanes]
            big = rng.randrange(len(sides))
            deg = self._dump(f"degrees{v}.json", {"degrees": [
                {"n": list(n), "m": 2 if k == big else 1}
                for k, n in enumerate(sides)]})
            # two points on the 1/8 grid: about half of these coarsen inputs
            # end in the documented exit 5 (the quasi-degree changes)
            coarse = self._dump(f"coarsen{v}.json", self._points(poly, rng, 2, 8))
            h, _ = wave(bent_distance, sample_interior_points(bent, 1, rng, 16)[0])
            nice = self._dump(f"nice{v}.json", jsonio.series_to_json(h))
            self.argv.append({
                "curve": ["curve", series[j]],
                "wave": ["wave", series[j], f"{frac(q[0])},{frac(q[1])}"],
                "dynamics": ["dynamics", doms[j % 2], dyn],
                "make-nice": ["make-nice", nice, "--eps", "1/8"],
                "verge": ["verge", doms[j % 2], deg, "--eps", "1/8"],
                "coarsen": ["coarsen", doms[j % 2], coarse, "--eps", "1/8"],
                "lift-check": ["--seed", str(rng.randrange(10 ** 6)), "lift-check",
                               "--trials", str(self.LIFT_TRIALS)],
            })

    def _dump(self, name: str, obj) -> str:
        path = os.path.join(self.dir, name)
        jsonio.dump(obj, path)
        return path

    @staticmethod
    def _points(poly, rng, n: int, denom: int) -> dict:
        pts = sample_interior_points(poly, n, rng, denom)
        return {"points": [jsonio.point_to_json(p) for p in pts]}

    def _case(self, i: int):
        cmd = self.COMMANDS[i % len(self.COMMANDS)]
        variant = (i // len(self.COMMANDS)) % self.VARIANTS
        return cmd, variant

    def _out(self, i: int) -> str:
        return os.path.join(self.dir, f"out{i}")

    def run(self, i: int):
        cmd, variant = self._case(i)
        return CLI.main(["--out", self._out(i)] + self.argv[variant][cmd])

    def _artifacts(self, i: int):
        """(path, sha256) of every artifact the manifest of op i lists."""
        manifest = os.path.join(self._out(i), "manifest.json")
        if not os.path.exists(manifest):
            return []
        return [(e["path"], e["sha256"]) for e in jsonio.load(manifest)["files"]]

    def check(self, i: int, code) -> bool:
        """Exit 0, or 5 (certificate failure) where the paper's refinements
        may legitimately fail; the golden digest pins every code for the
        default seed.  Removes the op's output directory."""
        for name, _ in self._artifacts(i):
            self.bytes_written += os.path.getsize(os.path.join(self._out(i), name))
        shutil.rmtree(self._out(i), ignore_errors=True)
        cmd, _ = self._case(i)
        return code in ((0, 5) if cmd in ("make-nice", "coarsen") else (0,))

    def record(self, i: int, code) -> str:
        cmd, variant = self._case(i)
        lines = [f"{cmd} {variant} exit={code}"]
        lines += [f"{name} {digest}" for name, digest in self._artifacts(i)]
        return "\n".join(lines)

    def close(self) -> None:
        shutil.rmtree(self.dir, ignore_errors=True)


WORKLOADS = {cls.name: cls for cls in (Avalanche, NearSide, Certify)}
