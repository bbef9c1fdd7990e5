"""Self-tests of the benchmark's tracer and golden digests.

    python3 -m pytest -q bench/tests
"""

import json
import sys
from fractions import Fraction as F
from pathlib import Path

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH.parent / "src"))
sys.path.insert(0, str(BENCH))

import pytest  # noqa: E402

import run as bench_run  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402
from tropwave.series import make_series  # noqa: E402

W = sys.modules["tropwave.wave"]


def square13():
    """The worked example min(x, y, 1-x, 1-y, 1/3) on the unit square."""
    return make_series(workloads.unit_square(),
                       {(1, 0): 0, (0, 1): 0, (-1, 0): 1, (0, -1): 1,
                        (0, 0): F(1, 3)})


def counts(metrics):
    return {k: v for k, v in metrics.items() if not k.endswith("self_s")}


def traced_figure3_wave():
    f = square13()
    tracer = Tracer()
    with tracer:
        _, ev = W.wave(f, (F(1, 5), F(1, 2)))
    assert ev.increment == F(2, 15)
    return tracer.layer_metrics()


def test_figure3_wave_counts_are_exact_and_repeat():
    first = traced_figure3_wave()
    assert counts(first) == counts(traced_figure3_wave())
    assert first["exactlp.basic_points.calls"] == 12
    assert first["series.cells.builds"] == 2
    assert first["series.cells.probe_builds"] == 1
    assert first["series.add_monomial.calls"] == 1
    assert first["series.canonical_coefficient.calls"] == 6
    assert first["curve.attaining_monomials.calls"] == 1
    assert first["wave.wave.calls"] == 1
    assert first["wave.useful_ratio"] == 1


def test_wave_calls_equal_dynamics_steps_plus_direct_waves():
    poly = workloads.unit_square()
    pts = [(F(1, 5), F(1, 2)), (F(1, 2), F(1, 3)), (F(3, 4), F(5, 8))]
    tracer = Tracer()
    with tracer:
        res = W.run_dynamics(W.zero_series(poly), pts)
        g, _ = W.wave(res.final, (F(1, 7), F(2, 3)))
        W.wave(g, (F(5, 7), F(1, 9)))
    m = tracer.layer_metrics()
    assert res.steps > 0
    assert m["wave.wave.calls"] == res.steps + 2
    assert m["wave.run_dynamics.calls"] == 1
    top_level = [s for s in tracer.spans if s[0] == "wave.wave" and s[3] < 0]
    assert len(top_level) == 2


def _bindings():
    """Every attribute of every tropwave module and patched class."""
    out = {}
    for name, mod in list(sys.modules.items()):
        if name == "tropwave" or name.startswith("tropwave."):
            out.update({(name, k): v for k, v in vars(mod).items()})
    for cls in (sys.modules["tropwave.series"].TropicalSeries,
                sys.modules["tropwave.geometry"].QPolygon):
        out.update({(cls, k): v for k, v in vars(cls).items()})
    return out


def test_install_rebinds_every_namespace_and_uninstall_restores_it(tmp_path):
    before = _bindings()
    wave_fn = W.wave
    wl = workloads.Certify(1, str(tmp_path))
    tracer = Tracer()
    try:
        with tracer:
            # the package re-export and every `from ... import` copy
            for mod in ("tropwave", "tropwave.wave", "tropwave.refine"):
                assert sys.modules[mod].wave.__wrapped__ is wave_fn
            res = bench_run.run_ops(wl, ops=wl.CYCLE, tracer=tracer)
    finally:
        wl.close()
    assert res.failed == 0
    after = _bindings()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)
    names = {s[0] for s in tracer.spans}
    assert {"io.cli", "io.jsonio", "io.svgout", "refine.make_nice",
            "lift2.s_wave", "curve.extract_curve"} <= names
    assert {s[4] for s in tracer.spans} == set(range(len(res.latencies)))


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_default_seed_matches_golden(name, tmp_path):
    cls = workloads.WORKLOADS[name]
    wl = cls(bench_run.DEFAULT_SEED, str(tmp_path))
    try:
        res = bench_run.run_ops(wl)
    finally:
        wl.close()
    assert res.failed == 0
    assert bench_run.golden_ok(name, bench_run.DEFAULT_SEED,
                               res.digest(cls.GOLDEN_OPS), record=False)


def test_metrics_match_benchmark_json(tmp_path, monkeypatch):
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    monkeypatch.setattr(bench_run, "OUT", tmp_path)
    for (_, _, metrics, _), key in (
            (bench_run.end_to_end(workloads.Certify, 1, 0.5), "end_to_end"),
            (bench_run.traced(workloads.Certify, 1), "per_layer")):
        assert [(k, unit) for k, (_, unit) in metrics.items()] == [
            (m["name"], m["unit"]) for m in spec[key]]
