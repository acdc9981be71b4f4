"""Pinned digests of the rendered outputs of fixed query grids.

Every line renders one call (its result, or its exception class and
message), and the sha256 of all lines is pinned.  The second grid runs
the command line over every subcommand, human and ``--json``, and pins
each run's exit code, stdout and stderr.  A change that keeps the
digest keeps every answer, every ordering and every error on the grid
byte-identical; a change that means to alter an output must update the
digest and say why.
"""

import hashlib
import io
from contextlib import redirect_stderr, redirect_stdout

from isotypic.branching import reciprocity_check, restrict_gl_to_so, restrict_gl_to_sp
from isotypic.characters import dim
from isotypic.cli import run
from isotypic.errors import IsotypicError
from isotypic.lr import tensor_mixed, tensor_multi
from isotypic.signatures import GroupFamily, iter_partitions
from isotypic.stable_limits import identity_multiplicity, stable_branch

OUTPUT_LINES = 980
OUTPUT_DIGEST = "1e2f72e2a09b1c1ac0e6cf0df28475d8a8dcd67db1240afba27777cfaa5e3158"


def _partitions(max_weight, max_length=None):
    return [
        p for w in range(max_weight + 1) for p in iter_partitions(w, max_length=max_length)
    ]


def _render(value):
    if hasattr(value, "rows"):
        return f"{value.rows!r} all_agree={value.all_agree}"
    if hasattr(value, "k0"):
        probes = " ".join(f"{k}:{dec!r}" for k, dec in value.probes)
        return f"{value.stable!r} k0={value.k0} probes={probes}"
    return repr(value)


def _call(lines, name, fn, *args):
    try:
        out = _render(fn(*args))
    except (IsotypicError, ValueError) as exc:
        out = f"!{type(exc).__name__}: {exc}"
    lines.append(f"{name}{args!r} -> {out}")


def grid_lines():
    lines = []
    small = _partitions(5, max_length=3)
    for lam in small:
        for k in range(2 * len(lam), 2 * len(lam) + 3):
            _call(lines, "restrict_gl_to_so", restrict_gl_to_so, lam, k)
            _call(lines, "restrict_gl_to_sp", restrict_gl_to_sp, lam, k)
        for target in ("so", "sp"):
            _call(lines, "stable_branch", stable_branch, lam, target)
    _call(lines, "stable_branch", stable_branch, (1,), "u")
    for lam in _partitions(4, max_length=3):
        n = max(1, len(lam))
        for k in range(2 * n, 8):
            _call(lines, "reciprocity_check", reciprocity_check, lam, n, k)
        _call(lines, "reciprocity_check", reciprocity_check, lam, n - 1, 7)
    factors = _partitions(2)
    for k in (1, 2, 3):
        for i, a in enumerate(factors):
            for b in factors[i:]:
                _call(lines, "tensor_multi", tensor_multi, [a, b, (1,)], k)
        _call(lines, "tensor_multi", tensor_multi, [], k)
    for k in (2, 3, 4):
        for a in _partitions(3):
            _call(lines, "tensor_multi", tensor_multi, [(2, 1), a, (1, 1), a], k)
    _call(lines, "tensor_multi", tensor_multi, [(1,)], 0)
    mixed = [(1, 0, -1), (2, 0, 0), (0, 0, -2), (1, 1, -1), (2, -1, -1), (0, 0, 0)]
    for a in mixed:
        for b in mixed:
            _call(lines, "tensor_mixed", tensor_mixed, a, b, 3)
    _call(lines, "tensor_mixed", tensor_mixed, (1, 0), (1, 0, 0), 3)
    _call(lines, "tensor_mixed", tensor_mixed, (1,), (-1,), 1)
    for a in _partitions(2):
        for b in _partitions(2):
            for mu in _partitions(4):
                _call(lines, "identity_multiplicity", identity_multiplicity, [a, b], mu)
    for family, ranks in (("u", range(1, 9)), ("so", range(1, 12)), ("sp", range(2, 12, 2))):
        for k in ranks:
            for sig in _partitions(5, max_length=5) + [(9, 4, 4, 1), (12, 7, 3, 3, 2)]:
                _call(lines, "dim", dim, GroupFamily(family, k), sig)
    _call(lines, "dim", dim, GroupFamily("u", "stable"), (1,))
    return lines


def test_rendered_outputs_match_pinned_digest():
    lines = grid_lines()
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    assert (len(lines), digest) == (OUTPUT_LINES, OUTPUT_DIGEST)


CLI_LINES = 188
CLI_DIGEST = "4e37f8de5a530d55bd8e852c300dfeb0ab1b158cd895c2069e5d204b315d3d8a"

_SEEDS = ((), ("--seed", "7"), ("--seed", "-3"))

CLI_GRID = [
    [],
    ["no-such-command"],
    ["fock"],
    ["tensor", "--rank", "2", "1", "2"],
    ["tensor", "--rank", "3", "2,1", "1,1"],
    ["tensor", "--stable", "1", "1"],
    ["tensor", "--stable", "2,1", "1"],
    ["tensor", "--rank", "1", "1,1"],
    ["tensor", "--rank", "-2", "0"],
    ["tensor", "1"],
    ["tensor", "--rank", "2", "junk"],
    ["branch", "--to", "so", "--rank", "5", "3"],
    ["branch", "--to", "sp", "--rank", "4", "2,1"],
    ["branch", "--to", "so", "--stable", "2,1"],
    ["branch", "--to", "sp", "--stable", "2"],
    ["branch", "--to", "so", "--rank", "4", "2,2"],
    ["branch", "--to", "nowhere", "--rank", "5", "1"],
    ["reciprocity", "--n", "1", "--k", "3", "3"],
    ["reciprocity", "--n", "2", "--k", "4", "2,1"],
    ["reciprocity", "--n", "0", "--k", "3", "1"],
    ["identity-mult", "--mu", "2,1", "1", "1", "1"],
    ["identity-mult", "--mu", "1", "1", "1"],
    ["dim", "--group", "u", "--rank", "3", "2,1"],
    ["dim", "--group", "so", "--rank", "5", "2,1"],
    ["dim", "--group", "sp", "--rank", "4", "2,1"],
    ["dim", "--group", "sp", "--rank", "3", "1"],
    ["dim", "--group", "u", "--rank", "0", "1"],
    ["dim", "--group", "u", "--rank", "2", "junk"],
    *(["fock", "verify", "sl2", "--k", str(k)] for k in (1, 2, 4)),
    *(["fock", "verify", "sp2n", "--n", str(n), "--k", str(k)] for n in (1, 2) for k in (1, 3)),
    *(["fock", "verify", "supq", "--p", str(p), "--q", str(q), "--k", "3"]
      for p in (1, 2) for q in (1, 2)),
    ["fock", "verify", "sp2n", "--n", "0", "--k", "3"],
    ["fock", "verify", "sl2", "--k", "-1"],
    ["fock", "verify", "nope", "--k", "2"],
    *(["fock", "hwv", "--kind", *rest, *seed] for rest in (
        ["gl", "--sig", "2,1", "--n", "2", "--k", "2"],
        ["gl", "--sig", "1", "--k", "3"],
        ["gl", "--sig", "3,1,1", "--n", "2", "--k", "3"],
        ["so_rank1", "--sig", "2", "--k", "3"],
        ["so_rank1", "--sig", "0", "--k", "2"],
        ["so_rank1", "--sig", "1", "--k", "1"],
        ["so_general", "--sig", "2,1", "--n", "2", "--k", "5"],
        ["so_general", "--sig", "1", "--k", "2"],
        ["so_general", "--sig", "2,1", "--n", "2", "--k", "3"],
        ["upq", "--sig", "2,0,0,-1", "--k", "4"],
        ["upq", "--sig", "1,-1", "--p", "1", "--q", "1", "--k", "2"],
        ["upq", "--sig", "1,0,-1", "--p", "2", "--q", "1", "--k", "3"],
        ["upq", "--sig", "1,-1", "--k", "3"],
        ["upq", "--sig", "1,2", "--k", "2"],
    ) for seed in _SEEDS),
    ["fock", "hwv", "--kind", "gl", "--sig", "1", "--k", "2", "--seed", "x"],
    ["fock", "hwv", "--kind", "nope", "--sig", "1", "--k", "2"],
    ["fock", "pair", "Z[1][1]^2", "Z[1][1]^2"],
    ["fock", "pair", "Z[1][1] + i*W[1][2]", "Z[1][1] - 1/2*i*W[1][2]"],
    ["fock", "pair", "Z[2][1]*Z[1][1]", "Z[1][2]"],
    ["fock", "pair", "1/0*Z[1][1]", "1"],
    ["fock", "pair", "", "1"],
    ["fock", "pair", "Z[0][1]", "1"],
    ["fock", "pair", "+", "1"],
    ["fock", "pair", "Z[1][1]"],
]


def cli_lines():
    """One line per (argv, output mode): the exit code, stdout and stderr."""
    lines = []
    for argv in CLI_GRID:
        for mode in ((), ("--json",)):
            out, err = io.StringIO(), io.StringIO()
            with redirect_stdout(out), redirect_stderr(err):
                code = run([*argv, *mode])
            lines.append(f"{[*argv, *mode]!r} -> {code} {out.getvalue()!r} {err.getvalue()!r}")
    return lines


def test_cli_outputs_match_pinned_digest(monkeypatch):
    # Fixed width for argparse's usage text; no cache, so every run computes.
    monkeypatch.setenv("COLUMNS", "80")
    monkeypatch.delenv("ISOTYPIC_CACHE", raising=False)
    lines = cli_lines()
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    assert (len(lines), digest) == (CLI_LINES, CLI_DIGEST)
