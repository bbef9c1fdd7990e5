"""Run one tropwave benchmark workload and print its metrics.

    python3 bench/run.py --workload avalanche --seed 1 --seconds 30 --trace 0

The load is a closed loop with one caller in one process: op ``i + 1`` starts
after op ``i`` has returned and its output has been checked.  ``--trace 0``
sets the workload up ``SETUP_REPEATS`` times, then runs ops until their
summed wall time reaches ``--seconds`` and at least ``MIN_OPS`` ran, and
reports the end-to-end metrics.  ``--trace 1`` runs a fixed number of ops
twice on fresh set-ups, first plain and then under the outside-in tracer, and
reports the per-layer metrics; the spans go to
``.bench_out/trace-<workload>-<seed>.jsonl``.

Timings are reported at the reference speed of the host.  The host's speed
drifts by up to 2x over minutes and slows every computation alike, so a run
also times a fixed block of standard-library ``Fraction`` arithmetic, which
calls no tropwave code: before and after each set-up and after every
``CAL_EVERY_S`` of op time.  Each timing is multiplied by ``CAL_REF_S``
divided by the mean time of the blocks around it, i.e. it is given as if the
block had taken ``CAL_REF_S``.  A change to the program moves the timings and
not the blocks; the raw timings are printed in the summary.

Every output is checked exactly outside the timed region.  For the default
seed the digest of the first ops' outputs must equal ``bench/golden.json``.
A human-readable summary precedes the last line of standard output, which is
one JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import resource
import statistics
import sys
import time
import traceback
from fractions import Fraction
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
GOLDEN = BENCH / "golden.json"
DEFAULT_SEED = 0
SETUP_REPEATS = 3
MIN_OPS = 100  # so that at least ten latencies lie beyond op_p90_ms
CAL_LOOPS = 2000
CAL_REF_S = 0.010  # time of one calibration block at the reference speed
CAL_EVERY_S = 0.25
WORKLOAD_NAMES = ("avalanche", "near_side", "certify")


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--record-golden", action="store_true",
                    help="store the default seed's digest instead of checking it")
    return ap.parse_args(argv)


def calibrate() -> float:
    """Wall time of a fixed block of small-``Fraction`` arithmetic, the kind
    of work that dominates tropwave, done without any tropwave code."""
    t0 = time.perf_counter()
    acc = Fraction(0)
    for i in range(CAL_LOOPS):
        a = Fraction(i % 97 + 1, i % 89 + 1)
        acc = (a * Fraction(i % 13 + 1, i % 7 + 2) + acc
               if acc.denominator < 10 ** 6 else a)
    return time.perf_counter() - t0


class Ops:
    """Latencies, failures and output records of the ops of one run, and the
    calibration blocks timed between them."""

    def __init__(self):
        self.latencies: list[float] = []
        self.records: list[str] = []  # per op: its canonical output
        self.failed = 0
        self.calibrations: list[float] = []

    @property
    def busy(self) -> float:
        return sum(self.latencies)

    def digest(self, n: int) -> str:
        h = hashlib.sha256()
        for i, text in enumerate(self.records[:n]):
            h.update(f"{i}\n{text}\n".encode())
        return h.hexdigest()


def run_ops(wl, *, seconds: float = 0.0, ops: int = 0, tracer=None) -> Ops:
    """Run ops 0, 1, ... until ``ops`` ran, their summed wall time reached
    ``seconds`` and a cycle of the workload ended; never fewer than the ops
    the golden digest covers.  Each output is checked after its op's clock
    has stopped."""
    res = Ops()
    res.calibrations.append(calibrate())
    since_cal = 0.0
    i = 0
    while i < max(ops, wl.GOLDEN_OPS) or res.busy < seconds or i % wl.CYCLE:
        if tracer is not None:
            tracer.op = i
            tracer.enabled = True
        t0 = time.perf_counter()
        try:
            out = wl.run(i)
            err = None
        except Exception as exc:  # a failing op is counted, not fatal
            out, err = None, exc
        res.latencies.append(time.perf_counter() - t0)
        if tracer is not None:
            tracer.enabled = False
        if err is not None:
            if not res.failed:
                traceback.print_exception(err, file=sys.stderr)
            res.records.append(f"error {type(err).__name__}")
        else:
            res.records.append(wl.record(i, out))
        if err is not None or not wl.check(i, out):
            print(f"{wl.name} op {i} failed", file=sys.stderr)
            res.failed += 1
        since_cal += res.latencies[-1]
        if since_cal >= CAL_EVERY_S:
            res.calibrations.append(calibrate())
            since_cal = 0.0
        i += 1
    return res


def golden_ok(workload: str, seed: int, digest: str, record: bool) -> bool:
    if seed != DEFAULT_SEED:
        return True
    golden = json.loads(GOLDEN.read_text()) if GOLDEN.exists() else {}
    if record:
        golden[workload] = digest
        GOLDEN.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")
        return True
    if golden.get(workload) != digest:
        print(f"golden digest mismatch for {workload}: {digest}", file=sys.stderr)
        return False
    return True


def end_to_end(cls, seed: int, seconds: float):
    """End-to-end metrics, timings at the reference speed, and the same
    timings raw."""
    setups, raw_setups = [], []
    cal = calibrate()
    for k in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        wl = cls(seed, str(OUT))
        raw_setups.append(time.perf_counter() - t0)
        cal, before = calibrate(), cal
        setups.append(raw_setups[-1] * CAL_REF_S / ((before + cal) / 2))
        if k + 1 < SETUP_REPEATS:
            wl.close()
    try:
        res = run_ops(wl, seconds=seconds, ops=MIN_OPS)
    finally:
        wl.close()
    to_ref = CAL_REF_S / statistics.fmean(res.calibrations)
    lat = res.latencies
    raw = {
        "setup_s": statistics.median(raw_setups),
        "ops_per_s": len(lat) / res.busy,
        "op_p50_ms": statistics.median(lat) * 1e3,
        "op_p90_ms": statistics.quantiles(lat, n=10)[8] * 1e3,
    }
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "ops_per_s": (raw["ops_per_s"] / to_ref, "ops/s"),
        "op_p50_ms": (raw["op_p50_ms"] * to_ref, "ms"),
        "op_p90_ms": (raw["op_p90_ms"] * to_ref, "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                        "MB"),
    }
    return res, [res], metrics, raw


def traced(cls, seed: int):
    from tracer import Tracer

    wl = cls(seed, str(OUT))
    try:
        plain = run_ops(wl, ops=cls.TRACE_OPS)
    finally:
        wl.close()
    wl = cls(seed, str(OUT))
    tracer = Tracer()
    try:
        with tracer:
            res = run_ops(wl, ops=cls.TRACE_OPS, tracer=tracer)
    finally:
        wl.close()
    tracer.write_jsonl(OUT / f"trace-{cls.name}-{seed}.jsonl")
    metrics = {k: (v, _layer_unit(k)) for k, v in tracer.layer_metrics().items()}
    metrics["io.bytes_written"] = (getattr(wl, "bytes_written", 0), "bytes")
    metrics["trace.overhead_frac"] = (res.busy / plain.busy - 1, "ratio")
    return res, [plain, res], metrics, {}


def _layer_unit(name: str) -> str:
    if name.endswith("self_s"):
        return "s"
    return "ratio" if name.endswith("ratio") else "count"


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "tropwave" / "__init__.py").is_file():
        print(f"bench: no tropwave package under {SRC}", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("bench: --seconds must be positive", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from workloads import WORKLOADS

    OUT.mkdir(exist_ok=True)
    cls = WORKLOADS[args.workload]
    if args.trace:
        res, runs, metrics, raw = traced(cls, args.seed)
    else:
        res, runs, metrics, raw = end_to_end(cls, args.seed, args.seconds)
    attempted = sum(len(r.latencies) for r in runs)
    failed = sum(r.failed for r in runs)
    digests = {r.digest(cls.GOLDEN_OPS) for r in runs}
    correct = (failed == 0 and len(digests) == 1
               and golden_ok(args.workload, args.seed, digests.pop(),
                             args.record_golden))

    print(f"{args.workload} seed={args.seed} trace={args.trace}: "
          f"{len(res.latencies)} ops in {res.busy:.2f} s busy")
    for name, (value, unit) in metrics.items():
        note = f"  (raw {raw[name]:.6g})" if name in raw else ""
        print(f"  {name:42s} {value:14.6g} {unit}{note}")
    print(f"  {'failed_frac':42s} {failed / attempted:14.6g} ratio")
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
