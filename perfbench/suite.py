"""Run every workload over several seeds and write a results file.

    python3 perfbench/suite.py [--seeds 1,2,3] [--trace] [--out FILE]

Each (workload, seed) pair, for every workload in BENCHMARK.json, is one
``run.py`` process with BENCHMARK.json's ``run_seconds``, run one after the
other.  The table on stdout gives, for every metric of every workload, the
median, quartiles, min, max, sample count, unit and spread (quartile
distance over median); ``failed_frac`` is
derived from each run's ``failed``/``attempted``.  The results file also
records the Python version, nproc, the git commit, the seeds and the load
average before and after.  It defaults to ``.bench_results/`` at the
repository root.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUN = HERE / "run.py"


def git_commit() -> str:
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def describe(values, unit):
    values = sorted(values)
    if len(values) > 1:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = values[0]
    median = statistics.median(values)
    return {
        "median": median, "q1": q1, "q3": q3, "min": values[0], "max": values[-1],
        "n": len(values), "unit": unit,
        # The quartile distance as a share of the median, as bounds are stated.
        "spread": (q3 - q1) / median if median else None,
    }


def main(argv=None):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seeds", default="1,2,3")
    ap.add_argument("--trace", action="store_true", help="per-layer metrics instead")
    ap.add_argument("--out")
    args = ap.parse_args(argv)
    seeds = [int(s) for s in args.seeds.split(",")]
    started = time.strftime("%Y%m%dT%H%M%S")
    results = {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "commit": git_commit(),
        "seeds": seeds,
        "seconds": spec["run_seconds"],
        "trace": args.trace,
        "loadavg_start": os.getloadavg(),
        "workloads": {},
    }
    for workload in (w["name"] for w in spec["workloads"]):
        runs = []
        for seed in seeds:
            cmd = [sys.executable, str(RUN), "--workload", workload, "--seed", str(seed),
                   "--seconds", str(spec["run_seconds"]), "--trace", str(int(args.trace))]
            out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
            if out.returncode != 0:
                print(out.stderr, file=sys.stderr)
                sys.exit(f"{workload} seed {seed} failed with exit code {out.returncode}")
            runs.append(json.loads(out.stdout.strip().splitlines()[-1]))
        metrics = {}
        for name, entry in runs[0]["metrics"].items():
            metrics[name] = describe([r["metrics"][name]["value"] for r in runs], entry["unit"])
        metrics["failed_frac"] = describe([r["failed"] / r["attempted"] for r in runs], "ratio")
        results["workloads"][workload] = {
            "metrics": metrics,
            "attempted": [r["attempted"] for r in runs],
            "failed": [r["failed"] for r in runs],
            "correct": [r["correct"] for r in runs],
        }
        print(f"{workload}  (seeds {args.seeds}; attempted {[r['attempted'] for r in runs]})")
        for name, d in metrics.items():
            print(f"  {name:55s} {d['median']:12.6g} {d['unit']:6s} "
                  f"q1 {d['q1']:.6g}  q3 {d['q3']:.6g}  min {d['min']:.6g}  "
                  f"max {d['max']:.6g}  n {d['n']}  spread {d['spread'] or 0:.3f}")
    results["loadavg_end"] = os.getloadavg()
    out_path = Path(args.out) if args.out else ROOT / ".bench_results" / f"bench_{started}.json"
    out_path.parent.mkdir(parents=True, exist_ok=True)
    out_path.write_text(json.dumps(results, indent=1) + "\n")
    print(f"results written to {out_path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
