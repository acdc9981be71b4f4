"""One benchmark process: set up, run the closed query loop, check answers.

Started by ``run.py`` as a fresh interpreter so that the package's
in-process memos start cold.  It prints ``ready`` once set-up is done (the
parent times set-up up to that line) and one JSON object as its last line.

Modes:
  setup  set up, print ``ready`` and exit;
  run    set up, run the first ``--queries`` queries, check every answer;
  trace  like run, with the layer tracer installed.
"""

from __future__ import annotations

import argparse
import io
import itertools
import json
import os
import resource
import subprocess
import sys
import tempfile
import time
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import layertrace
import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
TMP = ROOT / ".bench_tmp"
SHIM = Path(__file__).resolve().parent / "cli_shim.py"
# Queries generated during set-up; the rest are drawn lazily, outside the
# per-query timer, so set-up does not grow with the run length.
PREGENERATED = 1000


def query_source(workload, seed, count):
    """The first `count` queries of the seeded stream (all of it for None)."""
    stream = workloads.stream(workload, seed)
    head = list(itertools.islice(stream, PREGENERATED))
    return itertools.islice(itertools.chain(head, stream), count)


def _peak_rss_mb(who) -> float:
    return resource.getrusage(who).ru_maxrss / 1024.0


class LibraryBench:
    """Library workloads: queries run in this process, one at a time."""

    def __init__(self, workload, seed, count=None):
        sys.path.insert(0, str(SRC))
        import isotypic
        import isotypic.cli  # noqa: F401  (verify_* live there; also binds iso.cli)

        self.iso = isotypic
        self.queries = query_source(workload, seed, count)
        self.execute = workloads.EXECUTORS[workload]
        self.check = workloads.CHECKS[workload]
        self.answers = {}  # first answer of each distinct query
        self.repeats = []  # (query, hash of the repr of a later answer)
        self.errors = []  # queries that raised
        self.notes = []  # one line per failed query, filled by check_all

    def peak_rss_mb(self):
        """Peak RSS of this process: the package, its memos and the kept answers."""
        return _peak_rss_mb(resource.RUSAGE_SELF)

    def run_one(self, q):
        try:
            ans = self.execute(self.iso, q)
        except Exception as exc:  # every generated query is valid, so this fails
            self.errors.append(f"raised {exc!r}: {q}")
            return
        if q in self.answers:
            self.repeats.append((q, hash(repr(ans))))
        else:
            self.answers[q] = ans

    def check_all(self):
        """Return the failed count and whether every answer given was right."""
        self.notes = list(self.errors)
        verdict = {}
        for q, ans in self.answers.items():
            try:
                verdict[q] = bool(self.check(self.iso, q, ans))
            except Exception as exc:
                verdict[q] = False
                self.notes.append(f"check raised {exc!r}: {q}")
            else:
                if not verdict[q]:
                    self.notes.append(f"wrong answer: {q}")
        for q, digest in self.repeats:
            if not (verdict[q] and digest == hash(repr(self.answers[q]))):
                self.notes.append(f"wrong repeated answer: {q}")
        return len(self.notes), not self.notes

    def after_one(self, q, result):
        pass

    def child_summary(self):
        return None

    def extra(self):
        return {}

    def close(self):
        pass


class CliBench:
    """cli_cache: one CLI subprocess per query against a seeded cache file."""

    def __init__(self, workload, seed, count=None, traced=False):
        sys.path.insert(0, str(SRC))
        import isotypic
        from isotypic import cli

        self.cli = cli
        self.queries = query_source(workload, seed, count)
        TMP.mkdir(exist_ok=True)
        self.tmpdir = tempfile.mkdtemp(dir=TMP)
        self.cache = os.path.join(self.tmpdir, "cache.jsonl")
        self.span_file = os.path.join(self.tmpdir, "spans.json")
        rng = workloads.rng_for("cli_cache_file", seed)
        seeded = workloads.seeded_cache_lines(rng, cli.canonical_key, isotypic.__version__)
        self.seeded_count = len(seeded)
        with open(self.cache, "w", encoding="utf-8") as handle:
            handle.writelines(seeded)
        self.cache_size = os.path.getsize(self.cache)
        os.environ.pop("ISOTYPIC_CACHE", None)
        self.env = dict(os.environ, PYTHONPATH=str(SRC))
        self.traced = traced
        if traced:
            self.prefix = [sys.executable, str(SHIM), self.span_file]
        else:
            self.prefix = [sys.executable, "-m", "isotypic.cli"]
        self.records = []  # (argv, malformed, code, stdout, stderr, appended lines)
        self.child_spans = {"spans": {}, "pairs": {}, "counts": {}}
        self.notes = []  # one line per failed query, filled by check_all

    def peak_rss_mb(self):
        """Largest peak RSS of the CLI children; the harness is not counted."""
        return _peak_rss_mb(resource.RUSAGE_CHILDREN)

    def run_one(self, q):
        _, argv, malformed = q
        cmd = self.prefix + list(argv) + ["--cache", self.cache]
        try:
            proc = subprocess.run(
                cmd, env=self.env, capture_output=True, timeout=workloads.CLI_TIMEOUT_S
            )
            code, out, err = proc.returncode, proc.stdout, proc.stderr
        except subprocess.TimeoutExpired:
            code, out, err = None, b"", b"timeout"
        return code, out, err

    def after_one(self, q, result):
        """Bookkeeping outside the timed region: what the query appended."""
        code, out, err = result
        size = os.path.getsize(self.cache)
        appended = []
        if size != self.cache_size:
            with open(self.cache, "rb") as handle:
                handle.seek(self.cache_size)
                appended = handle.read().decode("utf-8", "replace").splitlines()
            self.cache_size = size
        self.records.append((q[1], q[2], code, out, err, appended))
        if self.traced and os.path.exists(self.span_file):
            with open(self.span_file, encoding="utf-8") as handle:
                merge_summary(self.child_spans, json.load(handle))
            os.remove(self.span_file)

    def check_all(self):
        """Exit-code contract, cache growth and byte-identical output.

        Returns the failed count, and whether every answer given was right:
        a malformed query that breaks the exit-code contract fails without
        having produced a wrong answer.
        """
        failed = wrong = 0
        self.notes = []
        cached_queries = set()
        expected = {}
        for argv, malformed, code, out, err, appended in self.records:
            ok = code in ((0, 1, 2) if malformed else (0,)) and b"Traceback" not in err
            if ok and code == 0:
                if len(appended) > 1:
                    ok = False
                elif appended:
                    try:
                        query = json.loads(appended[0])["query"]
                    except (ValueError, KeyError, TypeError):
                        query = None
                    # A miss must be for a query the cache did not hold yet.
                    ok = query is not None and query not in cached_queries
                    cached_queries.add(query)
                if ok:
                    if argv not in expected:
                        expected[argv] = self.uncached(argv)
                    ok = out == expected[argv]
            elif appended:
                ok = False  # a query that failed must not write to the cache
            if not ok:
                failed += 1
                wrong += code == 0 or not malformed
                tail = err.decode("utf-8", "replace").strip().splitlines()[-1:]
                self.notes.append(f"exit {code} {tail}: isotypic {' '.join(argv)}")
        with open(self.cache, "rb") as handle:
            lines = handle.read().count(b"\n")
        misses = sum(1 for r in self.records if r[2] == 0 and r[5])
        if lines != self.seeded_count + misses:
            failed += 1
            wrong += 1
            self.notes.append(f"cache has {lines} lines, expected {self.seeded_count + misses}")
        return failed, wrong == 0

    def child_summary(self):
        """Span summary summed over the traced CLI children (None untraced)."""
        return self.child_spans if self.traced else None

    def extra(self):
        return {
            "cache_hits": sum(1 for r in self.records if r[2] == 0 and not r[5]),
            "malformed": sum(1 for r in self.records if r[1]),
        }

    def uncached(self, argv):
        """stdout of the same request run in-process without a cache."""
        out, err = io.StringIO(), io.StringIO()
        try:
            with redirect_stdout(out), redirect_stderr(err):
                self.cli.run(list(argv))
        except Exception:  # the subprocess exited 0, so this is a mismatch
            return None
        return out.getvalue().encode()

    def close(self):
        for name in os.listdir(self.tmpdir):
            os.remove(os.path.join(self.tmpdir, name))
        os.rmdir(self.tmpdir)
        try:
            TMP.rmdir()
        except OSError:
            pass


def merge_summary(into, part):
    for name, entry in part["spans"].items():
        dst = into["spans"].setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        for key in dst:
            dst[key] += entry[key]
    for section in ("pairs", "counts"):
        for key, value in part[section].items():
            into[section][key] = into[section].get(key, 0) + value


def loop(bench):
    """Closed loop with one client: the next query starts when the last ends.

    Returns per-query latencies and the loop's wall time.  Bookkeeping
    between queries stays outside the per-query timer.
    """
    latencies = []
    clock = time.perf_counter
    started = clock()
    for q in bench.queries:
        t0 = clock()
        result = bench.run_one(q)
        latencies.append(clock() - t0)
        bench.after_one(q, result)
    return latencies, clock() - started


def main(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--mode", required=True, choices=("setup", "run", "trace"))
    ap.add_argument("--queries", type=int, help="queries to run (not used by setup)")
    args = ap.parse_args(argv)
    if args.mode != "setup" and not args.queries:
        ap.error(f"--mode {args.mode} needs --queries")

    tracer = None
    if args.workload == workloads.CLI:
        bench = CliBench(args.workload, args.seed, args.queries, traced=args.mode == "trace")
    else:
        bench = LibraryBench(args.workload, args.seed, args.queries)
        if args.mode == "trace":
            tracer = layertrace.Tracer()
            tracer.install()
    print("ready", flush=True)
    try:
        if args.mode == "setup":
            return 0
        latencies, wall = loop(bench)
        peak = bench.peak_rss_mb()
        if tracer is not None:
            tracer.stop()
            summary = tracer.summary()
        else:
            summary = bench.child_summary()
        checks_started = time.perf_counter()
        failed, correct = bench.check_all()
        print(
            f"worker {args.workload}/{args.mode}: loop {wall:.2f} s, "
            f"checks {time.perf_counter() - checks_started:.2f} s",
            file=sys.stderr,
        )
        for note in bench.notes[:5]:
            print(f"  failed: {note}", file=sys.stderr)
        result = {
            "latencies": latencies,
            "peak_rss_mb": peak,
            "attempted": len(latencies),
            "failed": failed,
            "correct": correct,
            "summary": summary,
            **bench.extra(),
        }
    finally:
        bench.close()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
