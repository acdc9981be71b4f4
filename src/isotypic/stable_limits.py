"""Inductive-limit engine: each stable decomposition is computed once, at a
rank proven stable, and reported with the index `k0` where it first appears.

At U(k) a tensor product table is the stable table cut to its terms of
length <= k.  No term is longer than the sum of the factor lengths, and
the sorted union of the factors' parts always occurs, so the table at that
rank is stable and `k0` is that rank.  The Littlewood restriction does not
depend on k inside its stable range 2*len(lam) < k, so `k0` is the range's
edge, 2*len(lam) + step, with step 1 for "so" and 2 for "sp" (even ranks).
The probes are the length-filtered tables at k_start, ..., k0 + step: the
stable table is sorted once, and a probe shares its dict when every term
fits the probe's rank, or else filters it in order with no second sort.
Each entry checks its signatures once and reads the raw `lr._product` or
`branching._littlewood_terms` table: no rank-k0 `Decomposition` is built.
"""

from __future__ import annotations

from collections import namedtuple

from .branching import _littlewood_terms
from .lr import Decomposition, _mixed_table, _product, contragredient
from .signatures import GroupFamily, Signature, canonicalize, pad


class StableResult(namedtuple("StableResult", "stable k0 probes")):
    """A stable decomposition, the rank k0 it first appeared at, and all
    probes, a tuple of (k, Decomposition) pairs."""

    __slots__ = ()


def _stable_result(family: str, terms: dict, k_start: int, k0: int, step: int = 1):
    """The stable table of `terms`, sorted once, and the probes cut from it; `terms` is only read."""
    stable = Decomposition._new(GroupFamily(family, "stable"), terms)
    ranks = range(k_start, k0 + step + 1, step)
    return StableResult(stable, k0, tuple((k, stable._cut(GroupFamily(family, k))) for k in ranks))


def stable_tensor(factors) -> StableResult:
    """Stable decomposition of an iterated tensor product of signatures."""
    factors = [canonicalize(f) for f in factors]
    if not factors:
        raise ValueError("stable_tensor needs at least one factor")
    k0 = max(1, sum(len(f) for f in factors))
    return _stable_result("u", _product(factors, k0), max(1, *map(len, factors)), k0)


def stable_branch(lam: Signature, target: str) -> StableResult:
    """Stable restriction of lam to the orthogonal ("so") or symplectic ("sp") chain."""
    if target not in ("so", "sp"):
        raise ValueError(f"unknown branching target {target!r}")
    lam = canonicalize(lam)
    step = 1 if target == "so" else 2
    k0 = 2 * len(lam) + step
    return _stable_result(target, _littlewood_terms(lam, target), k0, k0, step)


def identity_multiplicity(factors, mu: Signature) -> int:
    """Multiplicity of the trivial signature in (tensor factors) x dual(mu).

    Computed through the mixed tensor product, never by reading the
    multiplicity of mu off the direct product, so it can serve as the
    other side of the duality check.  One rank k = max(1, len(mu), longest
    factor) suffices: at U(k) every sigma of the product of the factors is a
    stable term of length <= k, and by Schur's lemma sigma x dual(mu)
    contains the trivial representation, once, exactly when sigma = mu.
    """
    factors = [canonicalize(f) for f in factors]
    mu = canonicalize(mu)
    k = max(1, len(mu), *map(len, factors))
    dual = contragredient(pad(mu, k))
    return sum(
        mult * _mixed_table(pad(sig, k), dual, k).get((0,) * k, 0)
        for sig, mult in _product(factors, k).items()
    )
