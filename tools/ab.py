"""Paired A/B of two isotypic trees in one interpreter (standard library only).

    python3 tools/ab.py --workload fock_identities [--base REV|DIR] [--seed 1]
        [--count N] [--passes 10] [--classes CLASS,...] [--json FILE]

Run from anywhere; paths are taken from this file's checkout.  The base
tree (a git revision, ``HEAD`` by default, or a directory holding an
``isotypic`` package) and the working tree's ``src/isotypic`` are copied
into a temporary directory outside the repository under two package names
(every import inside the package is relative), imported side by side and
given the same seeded query list of a library workload, the first
``--count`` queries of ``perfbench/workloads.generate`` (by default as many
as ``perfbench/run.py`` times in a 30 s run).  ``--classes`` keeps only the
queries whose class ``q[0]`` it names.

Each pass clears every ``lru_cache`` of both packages and runs the list
in blocks (``BLOCK``: about a tenth of a second of work), each block on
one side and then on the other, so a drift of the host's speed falls on
both sides alike; the side
that goes first alternates from block to block and from pass to pass.
Each side keeps its own memos, so it sees the same cold and warm queries
as in one run of the whole list.  A pass's ratio is base time / change time,
so a ratio above 1 means the change is faster.  The median, quartiles, min
and max of the ratios are printed for the whole list and for each query
class.  The answers of the first pass are compared by ``repr`` (a raised
exception counts as an answer); the exit status is 1 if any differs.

Read ratios only from lists of many blocks and at least 10 passes: on a
list of one or two blocks the side that runs first is not balanced out,
and a tree against itself can read several percent off 1.

Both sides share one process, its GC and its allocator, so this measures
neither set-up time nor peak RSS, and it cannot run the CLI workload:
those keep the process runs of ``perfbench/run.py``.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "isotypic"
sys.path.insert(0, str(ROOT / "perfbench"))

import run  # noqa: E402  (perfbench/run.py: the timed run's query count)
import workloads  # noqa: E402

SIDES = ("base", "change")
BLOCK = {workloads.TENSOR: 2500, workloads.FOCK: 250}  # queries per turn of a side


def copy_base(base: str, dest: Path):
    """Copy the base package, a directory or the src/isotypic of a git revision, to dest."""
    if Path(base).is_dir():
        shutil.copytree(base, dest, ignore=shutil.ignore_patterns("__pycache__"))
        return
    git = ["git", "-C", str(ROOT)]
    names = subprocess.run(
        [*git, "ls-tree", "-r", "--name-only", base, "--", "src/isotypic"],
        check=True, capture_output=True, text=True,
    ).stdout.split()
    if not names:
        raise SystemExit(f"no src/isotypic at revision {base!r}")
    for name in names:
        out = dest / Path(name).relative_to("src/isotypic")
        out.parent.mkdir(parents=True, exist_ok=True)
        out.write_bytes(
            subprocess.run([*git, "show", f"{base}:{name}"], check=True, capture_output=True).stdout
        )


def load(tmp: Path, base: str) -> dict:
    """Both trees, copied under tmp as isotypic_base and isotypic_change and imported."""
    copy_base(base, tmp / "isotypic_base")
    shutil.copytree(PACKAGE, tmp / "isotypic_change", ignore=shutil.ignore_patterns("__pycache__"))
    sys.path.insert(0, str(tmp))
    packages = {}
    for side in SIDES:
        name = f"isotypic_{side}"
        packages[side] = importlib.import_module(name)
        importlib.import_module(f"{name}.cli")  # the verify_* executors read iso.cli
    return packages


def clear_caches(package):
    """Clear every lru_cache defined at the top level of the package's modules."""
    prefix = package.__name__ + "."
    for name, module in list(sys.modules.items()):
        if name.startswith(prefix):
            for obj in vars(module).values():
                if callable(getattr(obj, "cache_clear", None)):
                    obj.cache_clear()


def run_block(package, block, execute, spent, answers=None):
    """Add each query's time on one side to spent ({class: seconds}); collect answers if given."""
    clock = time.perf_counter
    for q in block:
        start = clock()
        try:
            ans = execute(package, q)
        except Exception as exc:  # an answer too: both sides must raise alike
            ans = exc
        spent[q[0]] += clock() - start
        if answers is not None:
            answers.append(ans)


def summary(ratios) -> dict:
    q1, median, q3 = statistics.quantiles(ratios, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3, "min": min(ratios), "max": max(ratios)}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(BLOCK))
    parser.add_argument("--base", default="HEAD", help="git revision or package directory")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--count", type=int, help="queries (default: a 30 s perfbench run's)")
    parser.add_argument("--passes", type=int, default=10)
    parser.add_argument("--classes", help="comma-separated query classes to keep")
    parser.add_argument("--json", help="also write the summary to this file")
    args = parser.parse_args(argv)
    if args.passes < 2:
        parser.error("--passes must be at least 2")

    count = args.count or run.query_count(args.workload, 30)
    queries = workloads.generate(args.workload, args.seed, count)
    if args.classes:
        keep = set(args.classes.split(","))
        queries = [q for q in queries if q[0] in keep]
        if not queries:
            parser.error(f"no query of class {sorted(keep)} in the list")
    execute, size = workloads.EXECUTORS[args.workload], BLOCK[args.workload]

    with tempfile.TemporaryDirectory(prefix="isotypic-ab-") as tmp:
        packages = load(Path(tmp), args.base)
        times = {side: [] for side in SIDES}
        answers = {side: [] for side in SIDES}
        for i in range(args.passes):
            for package in packages.values():
                clear_caches(package)
            gc.collect()
            spent = {side: dict.fromkeys((q[0] for q in queries), 0.0) for side in SIDES}
            for j in range(0, len(queries), size):
                block = queries[j : j + size]
                for side in SIDES if (i + j // size) % 2 == 0 else SIDES[::-1]:
                    collect = answers[side] if i == 0 else None
                    run_block(packages[side], block, execute, spent[side], collect)
            for side in SIDES:
                times[side].append(spent[side])
            if i == 0:
                differ = [
                    q for q, a, b in zip(queries, answers["base"], answers["change"])
                    if repr(a) != repr(b)
                ]
                answers.clear()

    per_class = {}
    for cls in ["all", *sorted(times["base"][0])]:
        base, change = (
            [sum(t.values()) if cls == "all" else t[cls] for t in times[side]] for side in SIDES
        )
        per_class[cls] = {
            "queries": len(queries) if cls == "all" else sum(q[0] == cls for q in queries),
            "base_s": statistics.median(base),
            "ratio": summary([b / c for b, c in zip(base, change)]),
        }

    print(
        f"{args.workload} seed {args.seed}: {len(queries)} queries, {args.passes} passes,"
        f" base {args.base} against the working tree"
    )
    print("ratio = base time / change time (above 1: the change is faster)")
    print(f"{'class':<22}{'queries':>8}{'base s':>9}" + "".join(
        f"{h:>8}" for h in ("median", "q1", "q3", "min", "max")
    ))
    for cls, row in per_class.items():
        r = row["ratio"]
        print(f"{cls:<22}{row['queries']:>8}{row['base_s']:>9.4f}" + "".join(
            f"{r[h]:>8.3f}" for h in ("median", "q1", "q3", "min", "max")
        ))
    print(f"differing answers: {len(differ)}")
    for q in differ[:10]:
        print(f"  {q!r}")
    if args.json:
        record = {
            "workload": args.workload, "seed": args.seed, "base": args.base,
            "queries": len(queries), "passes": args.passes, "classes": args.classes,
            "differing_answers": len(differ), "per_class": per_class,
            **{f"{side}_s": [sum(t.values()) for t in times[side]] for side in SIDES},
        }
        Path(args.json).write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
