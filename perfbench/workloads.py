"""Seeded query generators, query executors and answer checks.

Each workload is a stream of plain-data queries (nested tuples of ints and
strings) drawn from ``random.Random(f"{workload}:{seed}")``, so the same seed
always yields the same list and the program only ever sees generated inputs.
Executors call the public ``isotypic`` API through module attributes, so a
tracer that rebinds those attributes sees every call.  Checks run after the
timed loop and answer each query by a second route that does not share the
code path under test.
"""

from __future__ import annotations

import random
from fractions import Fraction
from functools import lru_cache
from itertools import islice
from math import factorial

TENSOR = "tensor_stream"
FOCK = "fock_identities"
CLI = "cli_cache"
WORKLOADS = (TENSOR, FOCK, CLI)

# Size of the seeded cache file written before every cli_cache run.  At this
# size a full scan costs about as much as starting the CLI process.
CACHE_RECORDS = 20000
# A CLI process that outlives this is killed and counted as failed.
CLI_TIMEOUT_S = 60.0


def rng_for(workload: str, seed: int) -> random.Random:
    return random.Random(f"{workload}:{seed}")


@lru_cache(maxsize=None)
def partitions(n: int, max_len: int | None = None, max_part: int | None = None) -> list:
    """All partitions of n, weakly decreasing tuples, largest part first (shared list)."""
    max_len = n if max_len is None else max_len
    max_part = n if max_part is None else max_part
    if n == 0:
        return [()]
    if max_len == 0:
        return []
    out = []
    for first in range(min(n, max_part), 0, -1):
        for rest in partitions(n - first, max_len - 1, first):
            out.append((first,) + rest)
    return out


@lru_cache(maxsize=None)
def _small_partitions(max_weight: int, max_len: int | None = None) -> list:
    """Nonempty partitions of weight <= max_weight (shared list: do not mutate)."""
    return [p for w in range(1, max_weight + 1) for p in partitions(w, max_len)]


# ---------------------------------------------------------------- tensor_stream


# Share of tensor_stream queries drawn from the branching classes.
BRANCH_ODDS = 0.8
BRANCH_KINDS = ("reciprocity", "restrict_so", "restrict_sp", "stable_branch", "dim")


def _tensor_stream(rng):
    # Whole products and branching queries share the lr memo: most queries
    # are cheap branching ones (single lr_coefficient lookups and the
    # character oracle), most of the time goes to products.
    products, branching = _tensor_products(rng), _branching(rng)
    while True:
        yield next(branching) if rng.random() < BRANCH_ODDS else next(products)


def _tensor_products(rng):
    # A small pool, every partition of weight <= 4, so sub-products repeat and
    # share memo work; the seed draws the products.  Class odds keep any one
    # class under about half of the time.
    pool = _small_partitions(4)
    light = _small_partitions(3)
    while True:
        r = rng.random()
        if r < 0.30:
            lam, mu = rng.choice(pool), rng.choice(pool)
            k = max(len(lam), len(mu)) + rng.randint(0, 3)
            yield ("tensor_pair", lam, mu, k)
        elif r < 0.45:
            pos, pos2 = rng.choice(pool), rng.choice(light)
            neg, neg2 = rng.choice(_small_partitions(2)), rng.choice([()] + _small_partitions(2))
            k = max(len(pos) + len(neg), len(pos2) + len(neg2)) + rng.randint(0, 1)
            yield ("tensor_mixed", _mixed(pos, neg, k), _mixed(pos2, neg2, k), k)
        elif r < 0.72:
            factors = tuple(rng.choice(pool) for _ in range(rng.randint(3, 4)))
            k = max(len(f) for f in factors) + rng.randint(0, 1)
            yield ("tensor_multi", factors, k)
        elif r < 0.92:
            factors = tuple(rng.choice(pool) for _ in range(rng.randint(2, 3)))
            yield ("stable_tensor", factors)
        else:
            factors = (rng.choice(light), rng.choice(light))
            total = sum(map(sum, factors))
            weight = total if rng.random() < 0.8 else total - 2 * rng.randint(0, 1)
            yield ("identity_multiplicity", factors, rng.choice(partitions(weight)))


def _mixed(pos, neg, k):
    middle = (0,) * (k - len(pos) - len(neg))
    return tuple(pos) + middle + tuple(-x for x in reversed(neg))


def _shift_to_partition(sig):
    """Twist a mixed signature by a determinant power until it is a partition."""
    a = max(0, -sig[-1]) if sig else 0
    return _trim(tuple(x + a for x in sig)), a


def _trim(parts):
    parts = tuple(parts)
    while parts and parts[-1] == 0:
        parts = parts[:-1]
    return parts


def _exec_tensor(iso, q):
    kind = q[0]
    if kind in BRANCH_KINDS:
        return _exec_branch(iso, q)
    if kind == "tensor_pair":
        return iso.tensor_pair(q[1], q[2], q[3])
    if kind == "tensor_mixed":
        return iso.tensor_mixed(q[1], q[2], q[3])
    if kind == "tensor_multi":
        return iso.tensor_multi(list(q[1]), q[2])
    if kind == "stable_tensor":
        return iso.stable_tensor(list(q[1]))
    return iso.identity_multiplicity(list(q[1]), q[2])


@lru_cache(maxsize=None)
def _u_dim(iso, k, sig):
    return iso.dim(iso.GroupFamily("u", k), sig)


@lru_cache(maxsize=None)
def _oracle_pair(iso, lam, mu, k):
    return iso.schur_product_decompose(lam, mu, k).terms


# The character oracle multiplies two Schur polynomials term by term, so its
# cost grows with the product of their dimensions; past this it is skipped.
ORACLE_MAX_TERMS = 2000


def _oracle_product(iso, factors, k):
    """Fold the character-arithmetic oracle over the factors (None: too big)."""
    if k > 5:
        return None
    acc = {factors[0]: 1}
    for nxt in factors[1:]:
        step = {}
        for sig, mult in acc.items():
            if _u_dim(iso, k, sig) * _u_dim(iso, k, nxt) > ORACLE_MAX_TERMS:
                return None
            for nu, c in _oracle_pair(iso, sig, nxt, k).items():
                step[nu] = step.get(nu, 0) + mult * c
        acc = step
    return acc


def _check_tensor(iso, q, ans):
    """Dimensions balance through ``dim``; small products match the oracle."""
    kind = q[0]
    if kind in BRANCH_KINDS:
        return _check_branch(iso, q, ans)
    if kind in ("tensor_pair", "tensor_multi"):
        factors = [q[1], q[2]] if kind == "tensor_pair" else list(q[1])
        k = q[-1]
        terms = ans.terms
    elif kind == "tensor_mixed":
        k = q[3]
        (lam, a), (mu, b) = _shift_to_partition(q[1]), _shift_to_partition(q[2])
        factors = [lam, mu]
        terms = {}
        for tau, m in ans:
            nu = tuple(x + a + b for x in tau)
            if len(nu) != k or nu[-1] < 0:
                return False
            terms[_trim(nu)] = m
    else:
        rank = max(1, sum(len(f) for f in q[1]))
        direct = iso.tensor_multi(list(q[1]), rank)
        if kind == "stable_tensor":
            return ans.stable.terms == direct.terms
        return ans == direct[q[2]]
    expected_dim = 1
    for f in factors:
        expected_dim *= _u_dim(iso, k, f)
    if sum(m * _u_dim(iso, k, nu) for nu, m in terms.items()) != expected_dim:
        return False
    oracle = _oracle_product(iso, factors, k)
    return oracle is None or oracle == terms


# -------------------------------------------------------------- fock_identities


def _rand_poly(rng, nvars, degree, nterms):
    """Homogeneous polynomial as {exponent tuple: (re, im)} with small Gaussian coefficients."""
    terms = {}
    for _ in range(nterms):
        exps = [0] * nvars
        for _ in range(degree):
            exps[rng.randrange(nvars)] += 1
        re = rng.choice([-3, -2, -1, 1, 2, 3])
        im = rng.choice([-1, 0, 1])
        terms[tuple(exps)] = (re, im)
    return tuple(sorted(terms.items()))


def _fock_identities(rng):
    # Class odds keep verify_sp2n, the costliest class, under about half of
    # the time.
    while True:
        r = rng.random()
        if r < 0.10:
            yield ("verify_sl2", rng.randint(2, 6))
        elif r < 0.18:
            n = rng.randint(1, 2)
            yield ("verify_sp2n", n, rng.randint(1, 5) if n == 1 else rng.randint(2, 3))
        elif r < 0.30:
            p, q = rng.randint(1, 2), rng.randint(1, 2)
            yield ("verify_supq", p, q, rng.randint(2, 4 if p * q < 4 else 3))
        elif r < 0.40:
            sig = rng.choice(_small_partitions(3))
            n = len(sig) + rng.randint(0, 1)
            yield ("hwv_gl", sig, n, n + rng.randint(0, 1), rng.randrange(1000))
        elif r < 0.48:
            yield ("hwv_so_rank1", rng.randint(0, 5), rng.randint(2, 6))
        elif r < 0.58:
            n = rng.randint(1, 2)
            mu = rng.choice(_small_partitions(3, max_len=n))
            yield ("hwv_so_general", mu, n, rng.randint(max(3, 2 * len(mu)), 5))
        elif r < 0.66:
            p, q = rng.randint(1, 2), rng.randint(1, 2)
            nu = rng.choice(_small_partitions(3, max_len=p))
            lam = rng.choice(_small_partitions(2, max_len=q))
            yield ("hwv_upq", nu, lam, p, q, len(nu) + len(lam) + rng.randint(0, 1))
        elif r < 0.82:
            k = rng.randint(2, 4)
            yield ("harmonic", k, _rand_poly(rng, k, rng.randint(2, 4), rng.randint(1, 4)))
        else:
            rows, cols = rng.randint(1, 2), rng.randint(1, 3)
            nv = rows * cols
            degree = rng.randint(1, 3)
            f = _rand_poly(rng, nv, degree, rng.randint(1, 5))
            # Half the pairs share monomials, so the pairing is often nonzero.
            g = f if rng.random() < 0.5 else _rand_poly(rng, nv, degree, rng.randint(1, 5))
            yield ("pairing", rows, cols, f, g)


def _poly(iso, shape, data):
    return iso.FockPoly(shape, {e: iso.GaussRat(re, im) for e, (re, im) in data})


def _exec_fock(iso, q):
    kind = q[0]
    if kind == "verify_sl2":
        return iso.cli.verify_sl2(q[1])
    if kind == "verify_sp2n":
        return iso.cli.verify_sp2n(q[1], q[2])
    if kind == "verify_supq":
        return iso.cli.verify_supq(q[1], q[2], q[3])
    if kind == "hwv_gl":
        _, sig, n, k, seed = q
        vec = iso.hwv("gl", sig, n, k)
        ok = iso.check_covariance(vec, "left_lower", sig, seed=seed) and iso.check_covariance(
            vec, "right_upper", sig, seed=seed
        )
        return vec, ok
    if kind == "hwv_so_rank1":
        _, r, k = q
        vec = iso.hwv("so_rank1", r, 1, k)
        _, _, lower = iso.sl2_generators(k)
        return vec, lower.apply(vec).is_zero()
    if kind == "hwv_so_general":
        _, mu, n, k = q
        vec = iso.hwv("so_general", mu, n, k)
        fam = iso.sp2n_generators(n, k)
        ok = all(
            fam["D"][(a, b)].apply(vec).is_zero()
            for a in range(1, n + 1)
            for b in range(a, n + 1)
        )
        return vec, ok
    if kind == "hwv_upq":
        _, nu, lam, p, qq, k = q
        vec = iso.hwv("upq", (nu, lam), (p, qq), k)
        fam = iso.supq_laplacians(p, qq, k)
        return vec, all(op.apply(vec).is_zero() for op in fam["delta"].values())
    if kind == "harmonic":
        _, k, data = q
        return iso.harmonic_project_rank1(_poly(iso, iso.FockShape(1, k), data), k)
    _, rows, cols, f, g = q
    shape = iso.FockShape(rows, cols)
    return iso.pairing(_poly(iso, shape, f), _poly(iso, shape, g))


def _check_fock(iso, q, ans):
    kind = q[0]
    if kind.startswith("verify_"):
        checked, holds = ans
        if kind == "verify_sl2":
            expected = 3
        elif kind == "verify_sp2n":
            expected = 6 * q[1] ** 4
        else:
            expected = 2 * (q[1] * q[2]) ** 2
        return holds is True and checked == expected
    if kind.startswith("hwv_"):
        vec, verified = ans
        return verified is True and not vec.is_zero()
    if kind == "harmonic":
        k = q[1]
        shape = iso.FockShape(1, k)
        _, _, lower = iso.sl2_generators(k)
        p0 = iso.FockPoly(shape, {tuple(2 if i == j else 0 for i in range(k)): 1 for j in range(k)})
        rebuilt = iso.FockPoly.zero(shape)
        for j, h in ans:
            if not lower.apply(h).is_zero():
                return False
            rebuilt = rebuilt + (p0 ** j) * h
        return rebuilt == _poly(iso, shape, q[2])
    # <f, g> = sum over shared monomials of prod(e_i!) * f_e * conj(g_e).
    f, g = dict(q[3]), dict(q[4])
    re = im = 0
    for e, (a, b) in f.items():
        if e in g:
            c, d = g[e]
            w = 1
            for x in e:
                w *= factorial(x)
            re += w * (a * c + b * d)
            im += w * (b * c - a * d)
    return ans == iso.GaussRat(re, im)


# ------------------------------------------- tensor_stream: branching classes


def _branching(rng):
    # The character oracle caps the rank at 7, so reciprocity queries repeat
    # and run warm after their first call; restrictions and dimensions range
    # wider so fresh lr_coefficient lookups keep arriving.  Class odds keep
    # reciprocity, the costliest class, under about half of the time.
    while True:
        r = rng.random()
        if r < 0.15:
            lam = rng.choice(_small_partitions(6, max_len=3))
            n = rng.randint(len(lam), 3)
            yield ("reciprocity", lam, n, rng.randint(2 * n + 1, 7))
        elif r < 0.38:
            lam = rng.choice(_small_partitions(7, max_len=4))
            yield ("restrict_so", lam, 2 * len(lam) + rng.randint(1, 6))
        elif r < 0.61:
            lam = rng.choice(_small_partitions(7, max_len=4))
            yield ("restrict_sp", lam, 2 * len(lam) + 2 * rng.randint(1, 3))
        elif r < 0.78:
            lam = rng.choice(_small_partitions(6, max_len=4))
            yield ("stable_branch", lam, rng.choice(("so", "sp")))
        else:
            family = rng.choice(("u", "so", "sp"))
            if family == "u":
                k = rng.randint(1, 12)
                sig = rng.choice([()] + _small_partitions(8, max_len=k))
            else:
                k = rng.randint(3, 14) if family == "so" else 2 * rng.randint(1, 7)
                sig = rng.choice([()] + _small_partitions(8, max_len=k // 2))
            yield ("dim", family, k, sig)


def _exec_branch(iso, q):
    kind = q[0]
    if kind == "reciprocity":
        return iso.reciprocity_check(q[1], q[2], q[3])
    if kind == "restrict_so":
        return iso.restrict_gl_to_so(q[1], q[2])
    if kind == "restrict_sp":
        return iso.restrict_gl_to_sp(q[1], q[2])
    if kind == "stable_branch":
        return iso.stable_branch(q[1], q[2])
    return iso.dim(iso.GroupFamily(q[1], q[2]), q[3])


def weyl_dim(family: str, k: int, sig) -> int:
    """Weyl dimension formula as a product over positive roots.

    Written out here from the root systems, independently of
    ``isotypic.dim``: type A for U(k), B/D for SO(k), C for Sp(k).
    """
    if family == "u":
        lam = tuple(sig) + (0,) * (k - len(sig))
        rho = [k - 1 - i for i in range(k)]
        val = Fraction(1)
        for i in range(k):
            for j in range(i + 1, k):
                val *= Fraction(lam[i] + rho[i] - lam[j] - rho[j], rho[i] - rho[j])
        return int(val)
    n = k // 2
    lam = tuple(sig) + (0,) * (n - len(sig))
    if family == "so" and k % 2:
        rho = [Fraction(2 * (n - i) - 1, 2) for i in range(n)]
    elif family == "so":
        rho = [Fraction(n - 1 - i) for i in range(n)]
    else:
        rho = [Fraction(n - i) for i in range(n)]
    ell = [lam[i] + rho[i] for i in range(n)]
    val = Fraction(1)
    for i in range(n):
        for j in range(i + 1, n):
            val *= (ell[i] - ell[j]) * (ell[i] + ell[j])
            val /= (rho[i] - rho[j]) * (rho[i] + rho[j])
        if not (family == "so" and k % 2 == 0):
            val *= ell[i] / rho[i]
    return int(val)


def _balanced(iso, lam, k, family, terms):
    total = sum(m * iso.dim(iso.GroupFamily(family, k), mu) for mu, m in terms)
    return total == iso.dim(iso.GroupFamily("u", k), lam)


def _check_branch(iso, q, ans):
    kind = q[0]
    if kind == "reciprocity":
        return ans.all_agree is True and len(ans.rows) > 0
    if kind in ("restrict_so", "restrict_sp"):
        return _balanced(iso, q[1], q[2], kind[-2:], ans)
    if kind == "stable_branch":
        lam, target = q[1], q[2]
        k = max(ans.k0, 2 * len(lam) + (1 if target == "so" else 2))
        if target == "sp" and k % 2:
            k += 1
        return _balanced(iso, lam, k, target, ans.stable)
    return ans == weyl_dim(q[1], q[2], q[3])


# ------------------------------------------------------------------- cli_cache

_CLI_PAIR_VARS = ("Z[1][1]", "Z[1][2]", "Z[2][1]", "Z[1][3]")


def _render_sig(sig):
    return ",".join(map(str, sig)) if sig else "0"


def _rand_expr(rng):
    """A small polynomial in the CLI's text syntax, coefficients possibly rational."""
    terms = []
    for _ in range(rng.randint(1, 3)):
        num, den = rng.randint(1, 5), rng.choice((1, 1, 2, 3))
        coeff = f"{num}/{den}" if den > 1 else str(num)
        var = rng.choice(_CLI_PAIR_VARS)
        power = rng.randint(1, 3)
        terms.append(f"{coeff}*{var}" + (f"^{power}" if power > 1 else ""))
    return "+".join(terms)


def _valid_cli(rng):
    """A well-formed, cheap CLI query as an argv list."""
    r = rng.random()
    if r < 0.35:
        family = rng.choice(("u", "so", "sp"))
        if family == "u":
            k = rng.randint(1, 8)
        else:
            k = rng.randint(3, 9) if family == "so" else 2 * rng.randint(1, 4)
        limit = k if family == "u" else k // 2
        sig = rng.choice([()] + _small_partitions(5, max_len=limit))
        argv = ["dim", "--group", family, "--rank", str(k), _render_sig(sig)]
    elif r < 0.60:
        sigs = [rng.choice(_small_partitions(3)) for _ in range(rng.randint(2, 3))]
        if rng.random() < 0.3:
            argv = ["tensor", "--stable"]
        else:
            argv = ["tensor", "--rank", str(max(map(len, sigs)) + rng.randint(0, 2))]
        argv += [_render_sig(s) for s in sigs]
    elif r < 0.80:
        lam = rng.choice(_small_partitions(4, max_len=3))
        to = rng.choice(("so", "sp"))
        if rng.random() < 0.3:
            mode = ["--stable"]
        else:
            step = 2 * rng.randint(1, 2) if to == "sp" else rng.randint(1, 3)
            mode = ["--rank", str(2 * len(lam) + step)]
        argv = ["branch", "--to", to] + mode + [_render_sig(lam)]
    else:
        argv = ["fock", "pair", _rand_expr(rng), _rand_expr(rng)]
    if rng.random() < 0.3:
        argv.append("--json")
    return argv


def _mutate_cli(rng, argv):
    """Corrupt one argument of a well-formed query, the way a user typo would."""
    argv = list(argv)
    r = rng.random()
    if r < 0.5:
        # Replace a digit somewhere in the arguments.
        spots = [(i, j) for i, a in enumerate(argv) for j, ch in enumerate(a) if ch.isdigit()]
        if spots:
            i, j = rng.choice(spots)
            a = argv[i]
            argv[i] = a[:j] + rng.choice(("0", "x", "-1", "9")) + a[j + 1:]
            return argv
    if r < 0.65:
        i = rng.randrange(1, len(argv)) if len(argv) > 1 else 0
        del argv[i]
        return argv
    if r < 0.80:
        return argv + [rng.choice(("--bogus", "1,2", "2,x"))]
    if r < 0.90:
        return [rng.choice(("dims", "tensors", "fock")), *argv[1:]]
    sigs = [i for i, a in enumerate(argv) if "," in a and "[" not in a]
    if sigs:
        i = rng.choice(sigs)
        argv[i] = ",".join(reversed(argv[i].split(",")))
        return argv
    return argv + ["--rank"]


def _cli_stream(rng):
    # About 30% repeats (cache hits), 15% malformed, the rest new (misses).
    history = []
    while True:
        r = rng.random()
        if r < 0.30 and history:
            yield ("cli", tuple(rng.choice(history)), False)
        elif r < 0.45:
            yield ("cli", tuple(_mutate_cli(rng, _valid_cli(rng))), True)
        else:
            argv = _valid_cli(rng)
            history.append(argv)
            yield ("cli", tuple(argv), False)


def seeded_cache_lines(rng, canonical_key, version: str) -> list:
    """Records for queries the stream never issues (ranks 20..79).

    Their results are placeholders: a lookup that ever returned one would
    fail the byte-identical check.
    """
    import json

    lines = []
    for i in range(CACHE_RECORDS):
        k = 20 + rng.randrange(60)
        query = f"dim|u|rank={k}|{rng.randint(1, 9)},{i}"
        record = {
            "key": canonical_key(query),
            "query": query,
            "result": {"group": {"family": "u", "rank": k}, "signature": [i], "dim": i},
            "engine_version": version,
        }
        lines.append(json.dumps(record) + "\n")
    return lines


GENERATORS = {
    TENSOR: _tensor_stream,
    FOCK: _fock_identities,
    CLI: _cli_stream,
}
EXECUTORS = {TENSOR: _exec_tensor, FOCK: _exec_fock}
CHECKS = {TENSOR: _check_tensor, FOCK: _check_fock}


def stream(workload: str, seed: int):
    """The workload's endless query stream for `seed`."""
    return GENERATORS[workload](rng_for(workload, seed))


def generate(workload: str, seed: int, count: int) -> list:
    """The first `count` queries of the workload's stream for `seed`."""
    return list(islice(stream(workload, seed), count))
