"""Command-line front door.

Subcommands: wave, dynamics, stats, lift-check, make-nice, verge, coarsen,
curve.  All artifacts are JSON with exact "p/q" rationals (plus SVG curve
renders); a manifest.json with sha256 digests accompanies every run, and runs
are byte-reproducible for a fixed seed.

Exit codes: 0 ok, 2 parse error, 3 domain violation, 4 nonconvergence
(step-limit stop), 5 certificate failure.  Every input file goes through
one reader, `_read`, and `main` holds the only mapping from exceptions to
exit codes, `FAILURES`; the commands themselves catch nothing.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
from dataclasses import dataclass
from fractions import Fraction

from . import jsonio
from .geometry import GeometryError, QPolygon
from .series import OutsideDomain, SeriesError, zero_series
from .curve import extract_curve
from .svgout import render_curve
from .wave import (STEP_LIMIT, SamplingFailed, Schedule,
                   avalanche_experiment, run_dynamics, wave)
from .refine import (RefineError, coarsen_dynamics, make_nice,
                     verge_polynomial)
from .lift2 import fuzz_lift

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_DOMAIN = 3
EXIT_NONCONVERGENCE = 4
EXIT_CERTIFICATE = 5


def positive_int(text) -> int:
    """A positive integer, from a flag or a config value."""
    value = int(text)
    if value < 1:
        raise ValueError(f"{text!r} is not a positive integer")
    return value


def nonnegative_int(text) -> int:
    """A nonnegative integer, from a flag or a config value."""
    value = int(text)
    if value < 0:
        raise ValueError(f"{text!r} is not a nonnegative integer")
    return value


def _read(path, build):
    """The one input reader: open ``path``, parse its JSON and ``build`` an
    object from it.  Every failure of bad input, a missing or unreadable
    file, bad JSON or UTF-8, a document of the wrong shape, an unbounded
    polygon or an invalid series, becomes a ParseError naming the file."""
    try:
        return build(jsonio.load(path))
    except (jsonio.ParseError, OSError, ValueError, KeyError, TypeError,
            IndexError, GeometryError, SeriesError) as exc:
        raise jsonio.ParseError(f"{path}: {type(exc).__name__}: {exc}") from exc


def _check_out_dir(path: str) -> None:
    """Raise ParseError unless os.makedirs(path) can make the output
    directory: the path is nonempty and printable, and its nearest existing
    ancestor, or the path itself, is a directory."""
    if not path or not path.isprintable():
        raise jsonio.ParseError(f"out {path!r} does not name a directory")
    head = os.path.abspath(path)
    while not os.path.lexists(head):
        head = os.path.dirname(head)
    if not os.path.isdir(head):
        raise jsonio.ParseError(f"out {path!r}: {head} is not a directory")


@dataclass
class RunConfig:
    seed: int = 0
    denom_bound: int = 64
    tol: Fraction = Fraction(1, 10 ** 9)
    max_steps: int = 10000
    out_dir: str = "out"

    @staticmethod
    def from_json(raw) -> "RunConfig":
        """The settings of a --config document over the defaults."""
        if not isinstance(raw, dict):
            raise jsonio.ParseError("config must be a JSON object")
        cfg = RunConfig()
        cfg.seed = jsonio.int_from_json(raw.get("seed", cfg.seed))
        cfg.denom_bound = positive_int(
            jsonio.int_from_json(raw.get("denom_bound", cfg.denom_bound)))
        if "tol" in raw:
            cfg.tol = jsonio.frac_from_str(raw["tol"])
        cfg.max_steps = nonnegative_int(
            jsonio.int_from_json(raw.get("max_steps", cfg.max_steps)))
        cfg.out_dir = raw.get("out", cfg.out_dir)
        if not isinstance(cfg.out_dir, str):
            raise jsonio.ParseError("config out must be a string")
        return cfg

    @staticmethod
    def from_args(args) -> "RunConfig":
        """Defaults, then the --config file, then the flags.  Bad values
        raise ParseError."""
        cfg = (_read(args.config, RunConfig.from_json) if args.config
               else RunConfig())
        if args.seed is not None:
            cfg.seed = args.seed
        if args.denom_bound is not None:
            cfg.denom_bound = args.denom_bound
        if args.tol is not None:
            cfg.tol = jsonio.frac_from_str(args.tol)
        if args.max_steps is not None:
            cfg.max_steps = args.max_steps
        if args.out is not None:
            cfg.out_dir = args.out
        _check_out_dir(cfg.out_dir)
        return cfg

    def echo(self) -> dict:
        return {"seed": self.seed, "denom_bound": self.denom_bound,
                "tol": jsonio.frac_to_str(self.tol),
                "max_steps": self.max_steps, "out": self.out_dir}


class OutputBundle:
    """Collects emitted files and writes a manifest with content digests."""

    def __init__(self, cfg: RunConfig):
        self.cfg = cfg
        self.files: list[str] = []
        os.makedirs(cfg.out_dir, exist_ok=True)

    def path(self, name: str) -> str:
        return os.path.join(self.cfg.out_dir, name)

    def write_json(self, name: str, obj) -> str:
        p = self.path(name)
        jsonio.dump(obj, p)
        self.files.append(name)
        return p

    def write_text(self, name: str, text: str) -> str:
        p = self.path(name)
        with open(p, "w") as fh:
            fh.write(text)
        self.files.append(name)
        return p

    def finish(self) -> None:
        manifest = {"config": self.cfg.echo(), "files": []}
        for name in sorted(self.files):
            with open(self.path(name), "rb") as fh:
                digest = hashlib.sha256(fh.read()).hexdigest()
            manifest["files"].append({"path": name, "sha256": digest})
        jsonio.dump(manifest, self.path("manifest.json"))


def _points_from_json(obj):
    if not isinstance(obj, dict) or not isinstance(obj.get("points", []), list):
        raise jsonio.ParseError("a points file is an object with a points list")
    return [jsonio.point_from_json(p) for p in obj["points"]]


def _degrees_from_json(obj):
    return {jsonio.vec_from_json(d["n"]): jsonio.int_from_json(d["m"])
            for d in obj["degrees"]}


def _parse_point(text):
    parts = text.split(",")
    if len(parts) != 2:
        raise jsonio.ParseError(f"bad point {text!r}")
    return (jsonio.frac_from_str(parts[0]), jsonio.frac_from_str(parts[1]))


def _require_interior(poly: QPolygon, pts) -> None:
    if not all(poly.contains(p, strict=True) for p in pts):
        raise OutsideDomain("points must be interior")


def cmd_wave(args, cfg: RunConfig) -> int:
    f = _read(args.series, jsonio.series_from_json)
    p = _parse_point(args.point)
    bundle = OutputBundle(cfg)
    g, ev = wave(f, p)
    bundle.write_json("event.json", jsonio.event_to_json(ev))
    bundle.write_json("series_after.json", jsonio.series_to_json(g))
    bundle.write_text("curve_before.svg", render_curve(extract_curve(f), points=[p]))
    bundle.write_text("curve_after.svg", render_curve(extract_curve(g), points=[p]))
    bundle.finish()
    return EXIT_OK


def cmd_dynamics(args, cfg: RunConfig) -> int:
    poly = _read(args.domain, jsonio.polygon_from_json)
    pts = _read(args.points, _points_from_json)
    _require_interior(poly, pts)
    bundle = OutputBundle(cfg)
    res = run_dynamics(zero_series(poly), pts, Schedule("round_robin"),
                       tol=cfg.tol, max_steps=cfg.max_steps)
    lines = "\n".join(json.dumps(jsonio.event_to_json(e), sort_keys=True)
                      for e in res.events)
    bundle.write_text("events.jsonl", lines + ("\n" if lines else ""))
    bundle.write_json("result.json", {
        "stopped_reason": res.stopped_reason,
        "steps": res.steps,
        "sweeps": res.sweeps,
        "final": jsonio.series_to_json(res.final),
    })
    bundle.write_text("final_curve.svg",
                      render_curve(extract_curve(res.final), points=pts))
    bundle.finish()
    if res.stopped_reason == STEP_LIMIT:
        print("stopped at step limit", file=sys.stderr)
        return EXIT_NONCONVERGENCE
    return EXIT_OK


def cmd_stats(args, cfg: RunConfig) -> int:
    poly = _read(args.domain, jsonio.polygon_from_json)
    bundle = OutputBundle(cfg)
    stats = avalanche_experiment(poly, args.n, args.trials, cfg.seed,
                                 denom_bound=cfg.denom_bound,
                                 max_steps=cfg.max_steps)
    bundle.write_json("stats.json", jsonio.stats_to_json(stats))
    bundle.finish()
    return EXIT_OK


def cmd_lift_check(args, cfg: RunConfig) -> int:
    bundle = OutputBundle(cfg)
    report = fuzz_lift(args.trials, seed=cfg.seed)
    bundle.write_json("lift_report.json", {
        "trials": report["trials"],
        "degenerate_skipped": report["degenerate_skipped"],
        "failures": report["failures"],
        "seed": report["seed"],
    })
    bundle.finish()
    return EXIT_OK if not report["failures"] else EXIT_CERTIFICATE


def cmd_make_nice(args, cfg: RunConfig) -> int:
    f = _read(args.series, jsonio.series_from_json)
    eps = jsonio.frac_from_str(args.eps)
    bundle = OutputBundle(cfg)
    sub, g, steps = make_nice(f.domain, f, eps)
    bundle.write_json("plan.json", {
        "steps": [{
            "corner": jsonio.point_to_json(s.corner_apex),
            "direction": list(s.direction),
            "multiplier": s.multiplier,
            "depth": jsonio.frac_to_str(s.depth),
        } for s in steps],
    })
    bundle.write_json("polygon.json", jsonio.polygon_to_json(sub))
    bundle.write_json("series.json", jsonio.series_to_json(g))
    bundle.finish()
    return EXIT_OK


def cmd_verge(args, cfg: RunConfig) -> int:
    poly = _read(args.domain, jsonio.polygon_from_json)
    eps = jsonio.frac_from_str(args.eps)
    degrees = _read(args.degrees, _degrees_from_json)
    bundle = OutputBundle(cfg)
    g = verge_polynomial(poly, degrees, eps)
    bundle.write_json("series.json", jsonio.series_to_json(g))
    bundle.write_text("curve.svg", render_curve(extract_curve(g)))
    bundle.finish()
    return EXIT_OK


def cmd_coarsen(args, cfg: RunConfig) -> int:
    poly = _read(args.domain, jsonio.polygon_from_json)
    pts = _read(args.points, _points_from_json)
    eps = jsonio.frac_from_str(args.eps)
    _require_interior(poly, pts)
    bundle = OutputBundle(cfg)
    degrees = {hp.n: 1 for hp in poly.halfplanes}
    g = verge_polynomial(poly, degrees, eps)
    res = run_dynamics(g, pts, Schedule("round_robin"),
                       tol=cfg.tol, max_steps=cfg.max_steps)
    plan, final, cert = coarsen_dynamics(g, res.events, eps)
    bundle.write_json("plan.json", {
        "M": jsonio.frac_to_str(plan.M),
        "h": jsonio.frac_to_str(plan.h),
        "decremented": [jsonio.frac_to_str(e) for e in plan.decremented],
        "certificates": cert,
        "face_collapse_events": 0,
    })
    bundle.write_json("series.json", jsonio.series_to_json(final))
    bundle.finish()
    return EXIT_OK


def cmd_curve(args, cfg: RunConfig) -> int:
    f = _read(args.series, jsonio.series_from_json)
    bundle = OutputBundle(cfg)
    curve = extract_curve(f)
    bundle.write_json("curve.json", jsonio.curve_to_json(curve))
    bundle.write_text("curve.svg", render_curve(curve))
    bundle.finish()
    return EXIT_OK


# The only mapping from exceptions to exit codes, with the message prefix of
# each.  The first row that matches wins, so OutsideDomain precedes its base
# class SeriesError.  Any other exception is a bug and propagates.
FAILURES = {
    jsonio.ParseError: (EXIT_PARSE, "parse error"),
    SamplingFailed: (EXIT_PARSE, "sampling failure"),
    OutsideDomain: (EXIT_DOMAIN, "domain violation"),
    RefineError: (EXIT_CERTIFICATE, "certificate failure"),
    SeriesError: (EXIT_CERTIFICATE, "certificate failure"),
}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(prog="tropwave",
                                 description="exact tropical wave dynamics")
    ap.add_argument("--config", help="JSON config file")
    ap.add_argument("--seed", type=int)
    ap.add_argument("--tol", help="rho tolerance as p/q")
    ap.add_argument("--max-steps", type=nonnegative_int, dest="max_steps",
                    help="wave limit; 0 applies none")
    ap.add_argument("--denom-bound", type=positive_int, dest="denom_bound")
    ap.add_argument("--out", help="output directory")
    sub = ap.add_subparsers(dest="cmd", required=True)

    s = sub.add_parser("wave", help="apply one wave")
    s.add_argument("series")
    s.add_argument("point", help="x,y with rational coordinates")
    s.set_defaults(fn=cmd_wave)

    s = sub.add_parser("dynamics", help="run the multi-point dynamic")
    s.add_argument("domain")
    s.add_argument("points")
    s.set_defaults(fn=cmd_dynamics)

    s = sub.add_parser("stats", help="avalanche-area experiment")
    s.add_argument("domain")
    s.add_argument("--n", type=positive_int, default=5)
    s.add_argument("--trials", type=positive_int, default=5)
    s.set_defaults(fn=cmd_stats)

    s = sub.add_parser("lift-check", help="fuzz the characteristic-two lift")
    s.add_argument("--trials", type=positive_int, default=1000)
    s.set_defaults(fn=cmd_lift_check)

    s = sub.add_parser("make-nice", help="blow up corners until nice")
    s.add_argument("series")
    s.add_argument("--eps", required=True)
    s.set_defaults(fn=cmd_make_nice)

    s = sub.add_parser("verge", help="smooth boundary-hugging polynomial")
    s.add_argument("domain")
    s.add_argument("degrees", help="JSON {degrees:[{n:[i,j],m:int}...]}")
    s.add_argument("--eps", required=True)
    s.set_defaults(fn=cmd_verge)

    s = sub.add_parser("coarsen", help="certified coarse smooth replay")
    s.add_argument("domain")
    s.add_argument("points")
    s.add_argument("--eps", required=True)
    s.set_defaults(fn=cmd_coarsen)

    s = sub.add_parser("curve", help="extract and render the curve")
    s.add_argument("series")
    s.set_defaults(fn=cmd_curve)

    args = ap.parse_args(argv)
    try:
        return args.fn(args, RunConfig.from_args(args))
    except tuple(FAILURES) as exc:
        code, reason = next(row for kind, row in FAILURES.items()
                            if isinstance(exc, kind))
        print(f"{reason}: {exc}", file=sys.stderr)
        return code


if __name__ == "__main__":
    sys.exit(main())
