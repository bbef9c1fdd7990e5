"""Steadiness report: two sets of runs of the same benchmark code.

    python3 bench/steady.py                        # every workload
    python3 bench/steady.py --workload near_side   # one workload

Each run is a fresh process of the command in BENCHMARK.json with
``--trace 0``, a seed of its own and ``run_seconds`` from the same file.
Each set has ``RUNS`` runs per workload.  The two sets are interleaved run by
run, and which set goes first alternates, so that a slow phase of the host
falls on both sets alike.  For each workload and end-to-end metric the report
prints the median of each set, the quartile spread of each set
((q3 - q1) / median, quartiles as ``statistics.quantiles(values, n=4)`` gives
them) and a verdict:

- ``ok``: every spread is within the bound and the second median is not worse
  than the first by more than the bound.  The spreads of ``setup_s`` are
  printed but not judged: its bound applies to the medians only;
- ``ok*``: as ``ok``, and every spread is also below a third of the bound;
- ``FAIL`` otherwise.

Raw results go to ``.bench_out/steady-<unix time>.json``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
RUNS = 10  # per set and workload; set s, run i has seed 1 + s * RUNS + i


def run_once(workload: str, seed: int) -> dict:
    cmd = SPEC["command"] + ["--workload", workload, "--seed", str(seed),
                             "--seconds", str(SPEC["run_seconds"]), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=900)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}:\n"
                           f"{proc.stderr[-2000:]}")
    result = json.loads(lines[-1])
    if not result["correct"] or result["failed"]:
        raise RuntimeError(f"{' '.join(cmd)}: incorrect result {result}")
    return {k: v["value"] for k, v in result["metrics"].items()}


def spread(values: list) -> float:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def worse_frac(first: float, second: float, better: str) -> float:
    return (second - first) / first if better == "lower" else (first - second) / first


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="two sets of benchmark runs")
    ap.add_argument("--workload", action="append",
                    choices=[w["name"] for w in SPEC["workloads"]])
    args = ap.parse_args(argv)
    workloads = args.workload or [w["name"] for w in SPEC["workloads"]]

    raw = {w: [[], []] for w in workloads}
    for i in range(RUNS):
        for w in workloads:
            for s in ((0, 1) if i % 2 == 0 else (1, 0)):
                seed = 1 + s * RUNS + i
                t0 = time.time()
                metrics = run_once(w, seed)
                raw[w][s].append({"seed": seed, "wall_s": time.time() - t0,
                                  **metrics})
                print(f"set {s + 1} {w} seed {seed}: "
                      + " ".join(f"{k}={v:.4g}" for k, v in metrics.items()),
                      file=sys.stderr, flush=True)

    out = ROOT / ".bench_out"
    out.mkdir(exist_ok=True)
    (out / f"steady-{int(time.time())}.json").write_text(json.dumps(raw, indent=1))

    all_ok = True
    print(f"{'workload':10s} {'metric':12s} {'median1':>10s} {'median2':>10s} "
          f"{'spread1':>8s} {'spread2':>8s} {'worse':>7s} {'bound':>6s} verdict")
    for w in workloads:
        for m in SPEC["end_to_end"]:
            name, bound = m["name"], m["bound"]
            sets = [[r[name] for r in runs] for runs in raw[w]]
            medians = [statistics.median(v) for v in sets]
            spreads = [spread(v) for v in sets]
            worse = worse_frac(medians[0], medians[1], m["better"])
            judged = [] if name == "setup_s" else spreads
            ok = worse <= bound and all(x <= bound for x in judged)
            tight = ok and all(x < bound / 3 for x in judged)
            all_ok &= ok
            cols = [f"{x:10.4g}" for x in medians] + [f"{x:8.3f}" for x in spreads]
            print(f"{w:10s} {name:12s} {' '.join(cols)} {worse:7.3f} {bound:6.2f} "
                  f"{'ok*' if tight else 'ok' if ok else 'FAIL'}")
    return 0 if all_ok else 1


if __name__ == "__main__":
    sys.exit(main())
