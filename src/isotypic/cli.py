"""Batch command-line surface with JSON output and a persistent cache.

Every subcommand computes a plain JSON-able result dict; human output is
rendered from that dict, so cached and fresh invocations are
byte-identical.  The cache is a line-delimited JSON file, content
addressed by a hash of the canonical query string and a fingerprint of
the engine's source, so an edit to any module retires old records;
corrupt lines are skipped with a warning and never change results.  A
lookup parses only the lines that may hold its key: a record that
``cache_put`` wrote under another key is recognised by its first bytes
and skipped unread, so damage inside such a record goes unreported.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
from functools import lru_cache

from . import __version__
from .branching import reciprocity_check, restrict_gl_to_so, restrict_gl_to_sp
from .characters import dim
from .errors import IsotypicError
from .fock import (
    FockShape,
    check_covariance,
    hwv,
    pairing,
    parse_poly,
    render_poly,
    sp2n_generators,
    supq_laplacians,
    verify_sl2,
    verify_sp2n,
    verify_supq,
)
from .lr import Decomposition, tensor_multi
from .signatures import GroupFamily, decreasing, parse, render
from .stable_limits import identity_multiplicity, stable_branch, stable_tensor


def decomposition_to_json(dec: Decomposition, k0=None) -> dict:
    obj: dict = {"group": {"family": dec.group.family, "rank": dec.group.rank}}
    if k0 is not None:
        obj["k0"] = k0
    obj["terms"] = [
        {"signature": list(sig), "mult": mult} for sig, mult in dec.items()
    ]
    return obj


def positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be a positive integer, got {value}")
    return value


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--json", action="store_true", help="emit machine-readable JSON")
    common.add_argument("--cache", help="cache file (default: $ISOTYPIC_CACHE)")
    common.add_argument(
        "--seed", type=int, default=0, help="accepted for compatibility and ignored"
    )

    parser = argparse.ArgumentParser(
        prog="isotypic",
        description="Exact tensor products, branchings, and Fock-space checks "
        "for the classical dual pairs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_tensor = sub.add_parser("tensor", parents=[common], help="tensor product decomposition")
    p_tensor.add_argument("--group", default="u", choices=["u"])
    mode = p_tensor.add_mutually_exclusive_group(required=True)
    mode.add_argument("--stable", action="store_true")
    mode.add_argument("--rank", type=int)
    p_tensor.add_argument("sigs", nargs="+", metavar="SIG")
    p_tensor.set_defaults(executor=_tensor_result)

    p_branch = sub.add_parser("branch", parents=[common], help="restrict U(k) to SO or Sp")
    p_branch.add_argument("--to", required=True, choices=["so", "sp"])
    mode = p_branch.add_mutually_exclusive_group(required=True)
    mode.add_argument("--stable", action="store_true")
    mode.add_argument("--rank", type=int)
    p_branch.add_argument("sig", metavar="SIG")
    p_branch.set_defaults(executor=_branch_result)

    p_rec = sub.add_parser("reciprocity", parents=[common], help="two-sided multiplicity check")
    p_rec.add_argument("--n", type=int, required=True)
    p_rec.add_argument("--k", type=int, required=True)
    p_rec.add_argument("sig", metavar="SIG")
    p_rec.set_defaults(executor=_reciprocity_result)

    p_idm = sub.add_parser(
        "identity-mult", parents=[common],
        help="multiplicity of the trivial signature in a product with a dual factor",
    )
    p_idm.add_argument("--mu", required=True, metavar="SIG")
    p_idm.add_argument("sigs", nargs="+", metavar="SIG")
    p_idm.set_defaults(executor=_identity_mult_result)

    p_dim = sub.add_parser("dim", parents=[common], help="irreducible dimension")
    p_dim.add_argument("--group", required=True, choices=["u", "so", "sp"])
    p_dim.add_argument("--rank", type=int, required=True)
    p_dim.add_argument("sig", metavar="SIG")
    p_dim.set_defaults(executor=_dim_result)

    p_fock = sub.add_parser("fock", help="symbolic Fock-space commands")
    fock_sub = p_fock.add_subparsers(dest="fock_command", required=True)

    p_verify = fock_sub.add_parser(
        "verify", parents=[common], help="check operator commutation relations"
    )
    p_verify.add_argument("target", choices=["sl2", "sp2n", "supq"])
    p_verify.add_argument("--n", type=positive_int, default=1)
    p_verify.add_argument("--k", type=positive_int, required=True)
    p_verify.add_argument("--p", type=positive_int, default=1)
    p_verify.add_argument("--q", type=positive_int, default=1)
    p_verify.set_defaults(executor=_fock_verify_result)

    p_hwv = fock_sub.add_parser(
        "hwv", parents=[common], help="construct and verify a highest weight vector"
    )
    p_hwv.add_argument("--kind", required=True, choices=["gl", "so_rank1", "so_general", "upq"])
    p_hwv.add_argument("--sig", required=True, metavar="SIG")
    p_hwv.add_argument("--n", type=positive_int, default=1)
    p_hwv.add_argument("--k", type=positive_int, required=True)
    p_hwv.add_argument("--p", type=positive_int, default=1)
    p_hwv.add_argument("--q", type=positive_int, default=1)
    p_hwv.set_defaults(executor=_fock_hwv_result)

    p_pair = fock_sub.add_parser(
        "pair", parents=[common], help="Fock pairing of two polynomial expressions"
    )
    p_pair.add_argument("exprs", nargs=2, metavar="EXPR")
    p_pair.set_defaults(executor=_fock_pair_result)

    return parser


def _stable_json(res) -> dict:
    return decomposition_to_json(res.stable, k0=res.k0)


def _tensor_result(args):
    factors = [parse(s) for s in args.sigs]
    if args.stable:
        query = f"tensor|stable|{';'.join(render(f) for f in factors)}"
        return query, lambda: _stable_json(stable_tensor(factors))
    query = f"tensor|rank={args.rank}|{';'.join(render(f) for f in factors)}"
    return query, lambda: decomposition_to_json(tensor_multi(factors, args.rank))


def _branch_result(args):
    lam = parse(args.sig)
    if args.stable:
        query = f"branch|{args.to}|stable|{render(lam)}"
        return query, lambda: _stable_json(stable_branch(lam, args.to))
    restrict = restrict_gl_to_so if args.to == "so" else restrict_gl_to_sp
    query = f"branch|{args.to}|rank={args.rank}|{render(lam)}"
    return query, lambda: decomposition_to_json(restrict(lam, args.rank))


def _reciprocity_result(args):
    lam = parse(args.sig)

    def compute():
        report = reciprocity_check(lam, args.n, args.k)
        return {
            "signature": list(lam),
            "n": args.n,
            "k": args.k,
            "rows": [
                {"mu": list(mu), "side_a": a, "side_b": b, "agree": ok}
                for mu, a, b, ok in report.rows
            ],
            "all_agree": report.all_agree,
        }

    return f"reciprocity|n={args.n}|k={args.k}|{render(lam)}", compute


def _identity_mult_result(args):
    factors = [parse(s) for s in args.sigs]
    mu = parse(args.mu)

    def compute():
        return {
            "factors": [list(f) for f in factors],
            "mu": list(mu),
            "multiplicity": identity_multiplicity(factors, mu),
        }

    query = f"identity-mult|mu={render(mu)}|{';'.join(render(f) for f in factors)}"
    return query, compute


def _dim_result(args):
    sig = parse(args.sig)
    group = GroupFamily(args.group, args.rank)

    def compute():
        return {
            "group": {"family": args.group, "rank": args.rank},
            "signature": list(sig),
            "dim": dim(group, sig),
        }

    return f"dim|{args.group}|rank={args.rank}|{render(sig)}", compute


# Each verify target: its relation check and the parameters it takes, in
# the order of the call, the query string and the JSON keys.
_VERIFY_TARGETS = {
    "sl2": (verify_sl2, ("k",)),
    "sp2n": (verify_sp2n, ("n", "k")),
    "supq": (verify_supq, ("p", "q", "k")),
}


def _fock_verify_result(args):
    verify, names = _VERIFY_TARGETS[args.target]
    params = {name: getattr(args, name) for name in names}
    query = "|".join(["fock-verify", args.target, *(f"{n}={v}" for n, v in params.items())])

    def compute():
        checked, holds = verify(*params.values())
        return {"target": args.target, **params, "relations_checked": checked, "holds": holds}

    return query, compute


def _fock_hwv_result(args):
    kind, k = args.kind, args.k
    if kind == "upq":
        sig = decreasing(args.sig.split(","))
        if len(sig) != k:
            raise IsotypicError(f"mixed signature must have exactly k={k} parts")
        params = {"p": args.p, "q": args.q, "k": k}
        data = (tuple(x for x in sig if x > 0), tuple(-x for x in reversed(sig) if x < 0))
        rows = (args.p, args.q)
    else:
        sig = parse(args.sig)
        params = {"n": args.n, "k": k}
        data, rows = sig, args.n
    query = "|".join(["fock-hwv", kind, *(f"{n}={v}" for n, v in params.items()), render(sig)])

    def compute():
        vector = hwv(kind, data, rows, k)
        if kind == "gl":
            verified = check_covariance(vector, "left_lower", sig) and check_covariance(
                vector, "right_upper", sig
            )
        else:
            if kind == "upq":
                annihilators = supq_laplacians(*rows, k)["delta"].values()
            else:
                # Both SO kinds: every D_ab kills the vector (D_11 = 2 X- at one row).
                gens = sp2n_generators(args.n, k)["D"]
                annihilators = (
                    gens[(a, b)] for a in range(1, args.n + 1) for b in range(a, args.n + 1)
                )
            verified = all(op.apply(vector).is_zero() for op in annihilators)
        return {
            "kind": kind, "signature": list(sig), **params,
            "polynomial": render_poly(vector), "verified": verified,
        }

    return query, compute


def _fock_pair_result(args):
    ext1, ext2 = (parse_poly(text).shape for text in args.exprs)
    shape = FockShape(*map(max, ext1, ext2))
    first, second = (parse_poly(text, shape) for text in args.exprs)
    query = f"fock-pair|{render_poly(first)}|{render_poly(second)}"
    return query, lambda: {"value": str(pairing(first, second))}


@lru_cache(maxsize=None)
def _engine_fingerprint() -> str:
    """sha256 over the package's ``*.py`` sources, taken in name order."""
    root = os.path.dirname(os.path.abspath(__file__))
    digest = hashlib.sha256()
    for name in sorted(n for n in os.listdir(root) if n.endswith(".py")):
        with open(os.path.join(root, name), "rb") as handle:
            digest.update(name.encode() + b"\0" + handle.read() + b"\0")
    return digest.hexdigest()


def canonical_key(query: str) -> str:
    payload = f"{_engine_fingerprint()}\n{query}".encode()
    return hashlib.sha256(payload).hexdigest()


def cache_get(path: str, key: str):
    """The record dict stored under key, or None; corrupt lines are skipped.

    ``cache_put`` writes every record with its key first, so a line that
    starts ``{"key": "`` with another key is skipped without being
    parsed.  Every other line (the candidate, blank lines, garbage, a
    record with its fields in another order) is parsed and checked as a
    whole.  A line that does not parse, or a record under this key and
    version without a string ``query`` and a dict ``result``, draws a
    "corrupt" warning on stderr.  A damaged record under another key is
    therefore skipped in silence.  Skipping can only turn a hit into a
    miss, never serve a record of another query.
    """
    other = '{"key": "'
    mine = '{"key": ' + json.dumps(key)
    try:
        with open(path, encoding="utf-8") as handle:
            for line in handle:
                if line.startswith(other) and not line.startswith(mine):
                    continue
                line = line.strip()
                if not line:
                    continue
                try:
                    rec = json.loads(line)
                except json.JSONDecodeError:
                    print("warning: skipping corrupt cache line", file=sys.stderr)
                    continue
                if (
                    isinstance(rec, dict)
                    and rec.get("key") == key
                    and rec.get("engine_version") == __version__
                ):
                    if isinstance(rec.get("query"), str) and isinstance(rec.get("result"), dict):
                        return rec
                    print("warning: skipping corrupt cache line", file=sys.stderr)
    except FileNotFoundError:
        return None
    except OSError as exc:
        print(f"warning: cache read failed: {exc}", file=sys.stderr)
    return None


def cache_put(path: str, record: dict):
    """Append one record under an advisory lock; failures only warn."""
    try:
        with open(path, "a", encoding="utf-8") as handle:
            try:
                import fcntl

                fcntl.flock(handle, fcntl.LOCK_EX)
            except (ImportError, OSError):
                pass
            handle.write(json.dumps(record) + "\n")
    except OSError as exc:
        print(f"warning: cache write failed: {exc}", file=sys.stderr)


def _execute(args) -> dict:
    query, compute = args.executor(args)
    cache_path = args.cache or os.environ.get("ISOTYPIC_CACHE")
    if not cache_path:
        return compute()
    key = canonical_key(query)
    hit = cache_get(cache_path, key)
    if hit is not None:
        return hit["result"]
    result = compute()
    record = {"key": key, "query": query, "result": result, "engine_version": __version__}
    cache_put(cache_path, record)
    return result


def render_human(obj: dict) -> str:
    if "terms" in obj:
        group = obj["group"]
        head = f"group: {group['family']}({group['rank']})"
        if "k0" in obj:
            head += f"  k0={obj['k0']}"
        lines = [head]
        for term in obj["terms"]:
            lines.append(f"{term['mult']:>6}  {render(term['signature'])}")
        return "\n".join(lines)
    if "rows" in obj:
        lines = [f"reciprocity of {render(obj['signature'])} at n={obj['n']}, k={obj['k']}"]
        lines.append("    mu        side_a  side_b  agree")
        for row in obj["rows"]:
            lines.append(
                f"    {render(row['mu']):<10}{row['side_a']:<8}{row['side_b']:<8}"
                f"{'yes' if row['agree'] else 'NO'}"
            )
        lines.append(f"all rows agree: {'yes' if obj['all_agree'] else 'NO'}")
        return "\n".join(lines)
    if "dim" in obj:
        return str(obj["dim"])
    if "multiplicity" in obj:
        return str(obj["multiplicity"])
    if "relations_checked" in obj:
        label = obj["target"]
        params = ", ".join(
            f"{name}={obj[name]}" for name in ("n", "p", "q", "k") if name in obj
        )
        verdict = "hold" if obj["holds"] else "FAIL"
        return f"{label} ({params}): {obj['relations_checked']} relations {verdict}"
    if "polynomial" in obj:
        status = "verified" if obj["verified"] else "NOT verified"
        if "p" in obj:
            status += f" (p={obj['p']}, q={obj['q']}, k={obj['k']})"
        return f"{obj['polynomial']}\n{status}"
    if "value" in obj:
        return obj["value"]
    return json.dumps(obj)


def run(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        result = _execute(args)
    except IsotypicError as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    except ValueError as exc:
        # Malformed argument text (signatures, polynomial expressions).
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    if args.json:
        print(json.dumps(result))
    else:
        print(render_human(result))
    return 0


def main():
    sys.exit(run())


if __name__ == "__main__":
    main()
