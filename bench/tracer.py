"""Outside-in tracer: wraps the public entry points of each tropwave layer.

The package itself carries no instrumentation, so the tracer rebinds
functions from the outside.  A wrapped function records one span (name,
start, end, parent span, op id, optional attributes) per call.  Spans stay in
memory until the run ends; ``write_jsonl`` writes them out and
``layer_metrics`` folds them into the per-layer metrics of BENCHMARK.json.

Modules are reached through ``sys.modules["tropwave.<mod>"]``: the package
attribute ``tropwave.wave`` is the re-exported function, not the module.
Because ``wave``, ``refine``, ``cli`` and ``curve`` bind names with
``from ... import``, each wrapper is bound in every ``tropwave*`` namespace
that holds the original object.  Methods are patched on their class.
``uninstall`` restores every original.
"""

from __future__ import annotations

import json
import sys
import time
from typing import Callable, Optional


def _mod(name: str):
    return sys.modules["tropwave." + name]


class Tracer:
    """Span recorder plus the patch table that feeds it."""

    def __init__(self):
        # one span: [name, start_ns, end_ns, parent index or -1, op id, attrs]
        self.spans: list = []
        self.op: Optional[int] = None
        self.enabled = True  # false: wrappers call straight through
        self._stack: list[int] = []
        self._patches: list = []  # (owner, attribute, original)

    # -- recording -----------------------------------------------------------

    def _wrap(self, name: str, fn: Callable, *,
              before: Optional[Callable] = None,
              after: Optional[Callable] = None,
              when: Optional[Callable] = None) -> Callable:
        """``before(args, kwargs)`` and ``after(result)`` return span
        attributes; ``when(args, kwargs)`` false skips the span."""
        spans = self.spans
        stack = self._stack
        clock = time.perf_counter_ns

        def traced(*args, **kwargs):
            if not self.enabled or (when is not None and not when(args, kwargs)):
                return fn(*args, **kwargs)
            attrs = before(args, kwargs) if before is not None else None
            idx = len(spans)
            span = [name, clock(), 0, stack[-1] if stack else -1, self.op, attrs]
            spans.append(span)
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if after is not None:
                extra = after(result)
                span[5] = {**(attrs or {}), **extra}
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    # -- patching ------------------------------------------------------------

    def _set(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def _patch_function(self, module: str, attr: str, name: str, **hooks) -> None:
        original = getattr(_mod(module), attr)
        wrapper = self._wrap(name, original, **hooks)
        for modname, module_obj in list(sys.modules.items()):
            if modname != "tropwave" and not modname.startswith("tropwave."):
                continue
            for key, value in list(vars(module_obj).items()):
                if value is original:
                    self._set(module_obj, key, wrapper)

    def _patch_method(self, cls, attr: str, name: str, **hooks) -> None:
        self._set(cls, attr, self._wrap(name, cls.__dict__[attr], **hooks))

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer is already installed")
        series = _mod("series")
        geometry = _mod("geometry")

        self._patch_function(
            "exactlp", "basic_points", "exactlp.basic_points",
            before=lambda a, k: {"constraints": len(a[0])})
        self._patch_method(
            series.TropicalSeries, "__init__", "series.renormalize",
            when=lambda a, k: not k.get("canonical", False))
        self._patch_method(
            series.TropicalSeries, "cells", "series.cells",
            before=lambda a, k: {"build": a[0]._cells is None})
        self._patch_function("series", "add_monomial", "series.add_monomial")
        self._patch_function("series", "canonical_coefficient",
                             "series.canonical_coefficient")
        self._patch_function(
            "wave", "wave", "wave.wave",
            before=lambda a, k: {"k": len(a[0].support)},
            after=lambda r: {"useful": r[1].increment > 0})
        self._patch_function("wave", "run_dynamics", "wave.run_dynamics")
        self._patch_method(geometry.QPolygon, "__init__", "geometry.QPolygon")
        self._patch_function("geometry", "support_coeff", "geometry.support_coeff")
        for fn in ("extract_curve", "attaining_monomials", "classify_vertex",
                   "curves_within"):
            self._patch_function("curve", fn, "curve." + fn)
        self._patch_function("refine", "make_nice", "refine.make_nice")
        self._patch_function("refine", "verge_polynomial", "refine.verge_polynomial")
        self._patch_function(
            "refine", "coarsen_dynamics", "refine.coarsen_dynamics",
            after=lambda r: {"attempts": r[2].get("attempts", 0)})
        self._patch_function("lift2", "verify_lift_theorem",
                             "lift2.verify_lift_theorem")
        self._patch_function("lift2", "s_wave", "lift2.s_wave")
        self._patch_function(
            "lift2", "fuzz_lift", "lift2.fuzz_lift",
            after=lambda r: {"trials": r["trials"],
                             "degenerate": r["degenerate_skipped"]})
        jsonio = _mod("jsonio")
        for attr, value in sorted(vars(jsonio).items()):
            if (callable(value) and not attr.startswith("_")
                    and getattr(value, "__module__", None) == jsonio.__name__
                    and not isinstance(value, type)):
                self._patch_function("jsonio", attr, "io.jsonio")
        self._patch_function("svgout", "render_curve", "io.svgout")
        self._patch_function("cli", "main", "io.cli")

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    # -- output --------------------------------------------------------------

    def write_jsonl(self, path) -> None:
        with open(path, "w") as fh:
            for i, (name, start, end, parent, op, attrs) in enumerate(self.spans):
                rec = {"id": i, "name": name, "start_ns": start, "end_ns": end,
                       "parent": parent, "op": op}
                if attrs:
                    rec["attrs"] = attrs
                fh.write(json.dumps(rec, sort_keys=True) + "\n")

    def self_times(self) -> list[int]:
        """Per span: its duration minus the time its child spans cover."""
        out = [end - start for _, start, end, _, _, _ in self.spans]
        for _, start, end, parent, _, _ in self.spans:
            if parent >= 0:
                out[parent] -= end - start
        return out

    def layer_metrics(self) -> dict:
        """Counts, attributes and self time per layer, keyed by metric name."""
        spans = self.spans
        self_ns = self.self_times()
        calls: dict[str, int] = {}
        self_s: dict[str, float] = {}
        for (name, *_), ns in zip(spans, self_ns):
            calls[name] = calls.get(name, 0) + 1
            self_s[name] = self_s.get(name, 0.0) + ns / 1e9

        def attr_sum(name, key):
            return sum((s[5] or {}).get(key, 0) for s in spans if s[0] == name)

        def parent_is(span, pname):
            return span[3] >= 0 and spans[span[3]][0] == pname

        def ratio(num, den):
            return num / den if den else 0.0

        cells = [s for s in spans if s[0] == "series.cells"]
        builds = [s for s in cells if s[5]["build"]]
        waves = calls.get("wave.wave", 0)
        lift_trials = attr_sum("lift2.fuzz_lift", "trials")
        lift_degenerate = attr_sum("lift2.fuzz_lift", "degenerate")
        m = {
            "exactlp.basic_points.calls": calls.get("exactlp.basic_points", 0),
            "exactlp.basic_points.self_s": self_s.get("exactlp.basic_points", 0.0),
            "exactlp.basic_points.constraints":
                attr_sum("exactlp.basic_points", "constraints"),
            "series.renormalize.calls": calls.get("series.renormalize", 0),
            "series.renormalize.self_s": self_s.get("series.renormalize", 0.0),
            "series.cells.builds": len(builds),
            "series.cells.probe_builds":
                sum(1 for s in builds if parent_is(s, "series.renormalize")),
            "series.cells.hits": len(cells) - len(builds),
            "series.cells.self_s": self_s.get("series.cells", 0.0),
            "series.add_monomial.calls": calls.get("series.add_monomial", 0),
            "series.add_monomial.self_s": self_s.get("series.add_monomial", 0.0),
            "series.canonical_coefficient.calls":
                calls.get("series.canonical_coefficient", 0),
            "series.canonical_coefficient.self_s":
                self_s.get("series.canonical_coefficient", 0.0),
            "series.canonical_coefficient.scan_calls":
                sum(1 for s in spans if s[0] == "series.canonical_coefficient"
                    and parent_is(s, "wave.wave")),
            "wave.wave.calls": waves,
            "wave.wave.self_s": self_s.get("wave.wave", 0.0),
            "wave.useful_ratio": ratio(attr_sum("wave.wave", "useful"), waves),
            "wave.support_k.mean": ratio(attr_sum("wave.wave", "k"), waves),
            "wave.run_dynamics.calls": calls.get("wave.run_dynamics", 0),
            "wave.run_dynamics.self_s": self_s.get("wave.run_dynamics", 0.0),
            "geometry.QPolygon.calls": calls.get("geometry.QPolygon", 0),
            "geometry.QPolygon.self_s": self_s.get("geometry.QPolygon", 0.0),
            "geometry.support_coeff.calls": calls.get("geometry.support_coeff", 0),
            "geometry.support_coeff.self_s":
                self_s.get("geometry.support_coeff", 0.0),
        }
        for fn in ("extract_curve", "attaining_monomials", "classify_vertex",
                   "curves_within"):
            m[f"curve.{fn}.calls"] = calls.get("curve." + fn, 0)
            m[f"curve.{fn}.self_s"] = self_s.get("curve." + fn, 0.0)
        for fn in ("make_nice", "verge_polynomial", "coarsen_dynamics"):
            m[f"refine.{fn}.self_s"] = self_s.get("refine." + fn, 0.0)
        m["refine.coarsen_dynamics.attempts"] = attr_sum(
            "refine.coarsen_dynamics", "attempts")
        for fn in ("verify_lift_theorem", "s_wave"):
            m[f"lift2.{fn}.calls"] = calls.get("lift2." + fn, 0)
            m[f"lift2.{fn}.self_s"] = self_s.get("lift2." + fn, 0.0)
        m["lift2.useful_ratio"] = ratio(lift_trials, lift_trials + lift_degenerate)
        for layer in ("jsonio", "svgout", "cli"):
            m[f"io.{layer}.self_s"] = self_s.get("io." + layer, 0.0)
        return m
