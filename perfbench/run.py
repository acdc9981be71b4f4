"""Benchmark entry point for the isotypic engine (standard library only).

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root; the package is imported from ``src/``.

``--trace 0`` reports the end-to-end metrics.  One fresh interpreter sets
up (imports the package, generates the seeded queries, writes the cache
file for cli_cache), then runs the closed loop, one query in flight at a
time, and checks every answer afterwards.  The loop runs a fixed number of
queries, S seconds' worth at the rate the seed commit reached
(``SEED_QPS``), so every run and every commit gets the same query list for
a seed and S.  ``SETUP_REPS`` more interpreters only set up, half before
that run and half after, so that ``setup_s``, the median over all of them,
samples more than one moment of a noisy host.

``--trace 1`` reports the per-layer metrics.  It runs the first quarter of
that query list twice in fresh interpreters, untraced and then with the
layer tracer installed, so counts repeat exactly for a seed and
``trace_overhead_ratio`` compares like with like.

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; a human summary, including
``failed_frac``, goes to stderr.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
PACKAGE = SRC / "isotypic"
WORKER = HERE / "worker.py"

SETUP_REPS = 10
IMPORT_REPS = 5
# Queries per second over a whole timed run at the seed commit (2-vCPU
# x86-64 host, Python 3.11); they fix each run's query count, not a result.
SEED_QPS = {
    workloads.TENSOR: 1750,
    workloads.FOCK: 150,
    workloads.CLI: 3.9,
}
# Every timed run has at least this many samples, so that at least ten lie
# beyond the 90th percentile.
MIN_QUERIES = 100
WORKER_TIMEOUT_S = 150

SRC_MODULES = (
    ("init", "__init__"),
    ("branching", "branching"),
    ("characters", "characters"),
    ("cli", "cli"),
    ("errors", "errors"),
    ("fock", "fock"),
    ("lr", "lr"),
    ("signatures", "signatures"),
    ("stable_limits", "stable_limits"),
)


class BenchError(RuntimeError):
    pass


def query_count(workload, seconds):
    """Queries in a timed run: `seconds` long at the seed commit's rate."""
    return max(MIN_QUERIES, round(SEED_QPS[workload] * seconds))


def spawn(workload, seed, mode, queries=None):
    """Start one fresh worker interpreter; return its result and set-up time."""
    cmd = [sys.executable, str(WORKER), "--workload", workload,
           "--seed", str(seed), "--mode", mode]
    if queries is not None:
        cmd += ["--queries", str(queries)]
    started = time.perf_counter()
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, cwd=ROOT, text=True) as proc:
        first = proc.stdout.readline()
        setup_s = time.perf_counter() - started
        try:
            rest, _ = proc.communicate(timeout=WORKER_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.communicate()
            raise BenchError(f"{mode} worker for {workload} timed out")
    if first.strip() != "ready" or proc.returncode != 0:
        raise BenchError(f"{mode} worker for {workload} exited with {proc.returncode}")
    result = json.loads(rest.strip().splitlines()[-1]) if mode != "setup" else {}
    result["setup_s"] = setup_s
    return result


def import_seconds() -> float:
    """Median time for a fresh interpreter to import isotypic.cli."""
    code = (
        "import sys, time; sys.path.insert(0, sys.argv[1]); t = time.perf_counter(); "
        "import isotypic.cli; print(time.perf_counter() - t)"
    )
    samples = []
    for _ in range(IMPORT_REPS):
        out = subprocess.run(
            [sys.executable, "-c", code, str(SRC)],
            capture_output=True, text=True, timeout=60, check=True,
        )
        samples.append(float(out.stdout))
    return statistics.median(samples)


def end_to_end(workload, seed, seconds):
    before = SETUP_REPS // 2
    setups = [spawn(workload, seed, "setup")["setup_s"] for _ in range(before)]
    res = spawn(workload, seed, "run", queries=query_count(workload, seconds))
    setups.append(res["setup_s"])
    setups += [spawn(workload, seed, "setup")["setup_s"] for _ in range(SETUP_REPS - before)]
    lat = res["latencies"]
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "queries_per_s": (len(lat) / sum(lat), "1/s"),
        "query_p50_ms": (1000 * statistics.median(lat), "ms"),
        "query_p90_ms": (1000 * statistics.quantiles(lat, n=10)[8], "ms"),
        "peak_rss_mb": (res["peak_rss_mb"], "MB"),
    }
    return res, metrics


def src_lines():
    out = {}
    for name, module in SRC_MODULES:
        path = PACKAGE / f"{module}.py"
        out[f"{name}.src_lines"] = (
            len(path.read_text().splitlines()) if path.exists() else 0, "lines")
    out["total.src_lines"] = (
        sum(len(p.read_text().splitlines()) for p in PACKAGE.rglob("*.py")), "lines")
    return out


def per_layer(summary, plain, traced, import_s):
    spans, counts, pairs = summary["spans"], summary["counts"], summary["pairs"]

    def calls(name):
        return spans.get(name, {}).get("calls", 0)

    def self_s(name):
        return spans.get(name, {}).get("self_s", 0.0)

    def ratio(part, whole):
        return part / whole if whole else 0.0

    so_hits = counts.get("characters.so_character.cache_hits", 0)
    so_misses = counts.get("characters.so_character.cache_misses", 0)
    cli_main_s = spans.get("cli.main", {}).get("total_s", 0.0)
    m = {
        "signatures.canonicalize.calls": (counts.get("signatures.canonicalize.calls", 0), "count"),
        "lr.lr_coefficient.calls": (calls("lr.lr_coefficient"), "count"),
        "lr.lr_coefficient.nonzero_ratio": (
            ratio(counts.get("lr.lr_coefficient.nonzero", 0), calls("lr.lr_coefficient")), "ratio"),
        "lr.lr_coefficient.self_s": (self_s("lr.lr_coefficient"), "s"),
        "lr.tensor_pair.calls": (calls("lr.tensor_pair"), "count"),
        "lr.tensor_pair.self_s": (self_s("lr.tensor_pair"), "s"),
        "lr.tensor_pair.terms_out": (counts.get("lr.tensor_pair.terms", 0), "count"),
        "lr.tensor_multi.self_s": (self_s("lr.tensor_multi"), "s"),
        "lr.tensor_mixed.self_s": (self_s("lr.tensor_mixed"), "s"),
        "stable_limits.stable_tensor.self_s": (self_s("stable_limits.stable_tensor"), "s"),
        "stable_limits.stable_tensor.probes": (
            counts.get("stable_limits.stable_tensor.probes", 0), "count"),
        "stable_limits.stable_branch.probes": (
            counts.get("stable_limits.stable_branch.probes", 0), "count"),
        "stable_limits.identity_multiplicity.self_s": (
            self_s("stable_limits.identity_multiplicity"), "s"),
        "stable_limits.identity_multiplicity.tensor_multi_calls": (
            pairs.get("stable_limits.identity_multiplicity>lr.tensor_multi", 0), "count"),
        "characters.greedy_decompose.calls": (calls("characters.greedy_decompose"), "count"),
        "characters.greedy_decompose.self_s": (self_s("characters.greedy_decompose"), "s"),
        "characters.schur_laurent_on_so_torus.self_s": (
            self_s("characters.schur_laurent_on_so_torus"), "s"),
        "characters.so_character.self_s": (self_s("characters.so_character"), "s"),
        "characters.so_character.hit_ratio": (ratio(so_hits, so_hits + so_misses), "ratio"),
        "characters.dim.calls": (calls("characters.dim"), "count"),
        "characters.dim.self_s": (self_s("characters.dim"), "s"),
        "branching.reciprocity_check.self_s": (self_s("branching.reciprocity_check"), "s"),
        "branching.dual_side_multiplicity.calls": (
            calls("branching.dual_side_multiplicity"), "count"),
        "branching.dual_side_multiplicity.self_s": (
            self_s("branching.dual_side_multiplicity"), "s"),
        "branching.restrict.self_s": (self_s("branching.restrict"), "s"),
        "fock.weyl_commutator.calls": (counts.get("fock.weyl_commutator.calls", 0), "count"),
        "fock.WeylOp.matmul.calls": (calls("fock.WeylOp.matmul"), "count"),
        "fock.WeylOp.matmul.self_s": (self_s("fock.WeylOp.matmul"), "s"),
        "fock.WeylOp.matmul.terms_out": (counts.get("fock.WeylOp.matmul.weyl_terms", 0), "count"),
        "fock.WeylOp.apply.calls": (calls("fock.WeylOp.apply"), "count"),
        "fock.WeylOp.apply.self_s": (self_s("fock.WeylOp.apply"), "s"),
        "fock.FockPoly.substitute.self_s": (self_s("fock.FockPoly.substitute"), "s"),
        "fock.check_covariance.self_s": (self_s("fock.check_covariance"), "s"),
        "fock.harmonic_project_rank1.self_s": (self_s("fock.harmonic_project_rank1"), "s"),
        "fock.hwv.self_s": (self_s("fock.hwv"), "s"),
        "fock.generators.self_s": (self_s("fock.generators"), "s"),
        "cli.import_s": (import_s, "s"),
        "cli.build_parser.self_s": (self_s("cli.build_parser"), "s"),
        "cli.cache_get.calls": (calls("cli.cache_get"), "count"),
        "cli.cache_get.self_s": (self_s("cli.cache_get"), "s"),
        "cli.cache_get.hit_ratio": (
            ratio(counts.get("cli.cache_get.hit", 0), calls("cli.cache_get")), "ratio"),
        "cli.cache_put.self_s": (self_s("cli.cache_put"), "s"),
        "cli.render_human.self_s": (self_s("cli.render_human"), "s"),
        "cli.process_overhead_s": (
            sum(traced["latencies"]) - cli_main_s if cli_main_s else 0.0, "s"),
        "trace_overhead_ratio": (
            sum(traced["latencies"]) / sum(plain["latencies"]), "ratio"),
    }
    m.update(src_lines())
    return m


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (PACKAGE / "__init__.py").is_file():
        print(f"error: no isotypic package under {SRC}", file=sys.stderr)
        return 2
    try:
        if args.trace:
            n = query_count(args.workload, args.seconds) // 4
            import_s = import_seconds()
            plain = spawn(args.workload, args.seed, "run", queries=n)
            res = spawn(args.workload, args.seed, "trace", queries=n)
            metrics = per_layer(res["summary"], plain, res, import_s)
            correct = res["correct"] and plain["correct"]
        else:
            res, metrics = end_to_end(args.workload, args.seed, args.seconds)
            correct = res["correct"]
    except (BenchError, subprocess.SubprocessError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    attempted, failed = res["attempted"], res["failed"]
    print(
        f"{args.workload} seed={args.seed}: attempted={attempted} failed={failed} "
        f"failed_frac={failed / attempted:.6g} correct={correct}"
        + "".join(f" {key}={res[key]}" for key in ("cache_hits", "malformed") if key in res),
        file=sys.stderr,
    )
    for name, (value, unit) in metrics.items():
        print(f"  {name} = {value:.6g} {unit}", file=sys.stderr)
    print(json.dumps({
        "correct": bool(correct),
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
