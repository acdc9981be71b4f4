"""Tiny-size smoke test of the benchmark itself.

    python3 perfbench/selftest.py

Asserts that every metric named in BENCHMARK.json is emitted with its unit,
that one seed always generates the same query list, and that the checks can
fail: a deliberately wrong answer is counted as a failed query.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import worker
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run_bench(workload, trace):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "3",
           "--seconds", "1", "--trace", str(trace)]
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert out.returncode == 0, out.stderr
    return json.loads(out.stdout.strip().splitlines()[-1])


def check_metrics_emitted(spec):
    for entry in spec["workloads"]:
        for trace, section in ((0, "end_to_end"), (1, "per_layer")):
            result = run_bench(entry["name"], trace)
            assert set(result) == {"correct", "attempted", "failed", "metrics"}, result
            assert result["correct"] is True and result["attempted"] >= 1, result
            expected = {m["name"]: m["unit"] for m in spec[section]}
            emitted = {name: m["unit"] for name, m in result["metrics"].items()}
            assert emitted == expected, (entry["name"], section, emitted)
            assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())
        print(f"ok: {entry['name']} emits every metric with its unit")


def check_seeded_generation():
    for name in workloads.WORKLOADS:
        first = workloads.generate(name, 11, 300)
        assert first == workloads.generate(name, 11, 300), name
        assert first != workloads.generate(name, 12, 300), name
    print("ok: the same seed generates an identical query list")


def _tamper(bench, kind):
    """Change the first answer to a `kind` query; return False if there is none."""
    iso = bench.iso
    for q, ans in bench.answers.items():
        if q[0] != kind:
            continue
        if kind == "tensor_pair":
            nu, mult = next(iter(ans))
            bench.answers[q] = iso.Decomposition(ans.group, {**ans.terms, nu: mult + 1})
        elif kind == "verify_sp2n":
            bench.answers[q] = (ans[0] + 1, ans[1])
        else:
            bench.answers[q] = ans + 1
        return True
    return False


def check_wrong_answers_fail(count=200):
    # One product, one branching and one Fock answer.
    for name, kind in ((workloads.TENSOR, "tensor_pair"), (workloads.TENSOR, "dim"),
                       (workloads.FOCK, "verify_sp2n")):
        bench = worker.LibraryBench(name, 5, count)
        for q in bench.queries:
            bench.run_one(q)
        assert bench.check_all() == (0, True), name
        assert _tamper(bench, kind), (name, kind)
        failed, correct = bench.check_all()
        assert failed >= 1 and not correct, (name, failed)
        print(f"ok: {name} counts a wrong {kind} answer as failed "
              f"(failed_frac {failed / count:.3f})")
    bench = worker.CliBench(workloads.CLI, 5, 10)
    try:
        for q in bench.queries:
            bench.after_one(q, bench.run_one(q))
        clean_failed, _ = bench.check_all()
        index = next(i for i, r in enumerate(bench.records) if r[2] == 0)
        argv, malformed, code, out, err, appended = bench.records[index]
        bench.records[index] = (argv, malformed, code, out + b"x", err, appended)
        failed, correct = bench.check_all()
    finally:
        bench.close()
    assert failed == clean_failed + 1 and not correct, (clean_failed, failed)
    print(f"ok: {workloads.CLI} counts a changed stdout as failed")


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    check_seeded_generation()
    check_wrong_answers_fail()
    check_metrics_emitted(spec)
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
