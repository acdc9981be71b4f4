"""Stable-range restriction U(k) -> SO(k)/Sp(k) and two-sided reciprocity.

The Littlewood restriction rule gives the multiplicity of mu in lam as a
sum of LR coefficients c^lam_{mu,delta} over auxiliary partitions delta
with all parts even (SO) or all columns even (Sp).  One function,
`_littlewood_terms`, computes that sum for every mu at once and keeps
the table in a bounded memo keyed by (lam, delta family), since it does
not depend on k; the restrictions, the dual-side (lowest-K-type)
multiplicity and side B of the reciprocity report all read it.  Side A
recomputes the restriction on every call from the torus character of
lam, by the Weyl-group alternating sum over its dominant weights
(`characters.weyl_fold`).  It never reads that memo or any LR table, so
the two sides stay computationally independent.
"""

from __future__ import annotations

from collections import namedtuple
from functools import lru_cache

from .characters import _torus_dominant_weights, weyl_fold
from .errors import OddRank, OutsideStableRange, RankConstraint, RankTooSmall
from .lr import Decomposition, _lr_table
from .signatures import GroupFamily, Signature, canonicalize, iter_partitions, weight


def _even_row_partitions(total, max_length):
    """Partitions of `total` whose parts are all even."""
    if total % 2:
        return
    for half in iter_partitions(total // 2, max_length=max_length):
        yield tuple(2 * p for p in half)


def _even_column_partitions(total, max_length):
    """Partitions of `total` whose conjugates have all parts even."""
    if total % 2:
        return
    for half in iter_partitions(total // 2, max_length=max_length // 2):
        out = []
        for p in half:
            out.extend((p, p))
        yield tuple(out)


@lru_cache(maxsize=1 << 10)
def _littlewood_terms(lam: Signature, deltas) -> dict:
    """``{mu: sum over delta of c^lam_{mu,delta}}`` for canonical lam.

    `deltas(total, max_length)` lists the auxiliary partitions; only the
    delta and mu within lam's length and first row are tried.  The sum
    does not depend on k, so the table is memoised per (lam, deltas) and
    shared: do not mutate it.
    """
    terms: dict = {}
    wt = weight(lam)
    lam1 = lam[0] if lam else 0
    for dwt in range(0, wt + 1, 2):
        for delta in deltas(dwt, len(lam)):
            if delta and delta[0] > lam1:
                continue
            for mu in iter_partitions(wt - dwt, max_length=len(lam), max_part=lam1):
                c = _lr_table(mu, delta).get(lam)
                if c:
                    terms[mu] = terms.get(mu, 0) + c
    return terms


def _reject_bool(*ranks):
    """A bool is an int, but no rank: refuse it before any other check."""
    for rank in ranks:
        if type(rank) is bool:
            raise RankConstraint(f"rank must be a positive integer, got {rank}")


def restrict_gl_to_so(lam: Signature, k: int) -> Decomposition:
    """Branch the U(k) representation lam to SO(k) (stable range only)."""
    _reject_bool(k)
    lam = canonicalize(lam)
    if 2 * len(lam) >= k:
        raise OutsideStableRange(
            f"Littlewood rule needs 2*length(lam) < k; got {list(lam)} at k={k}"
        )
    terms = _littlewood_terms(lam, _even_row_partitions)
    return Decomposition._new(GroupFamily("so", k), terms)


def restrict_gl_to_sp(lam: Signature, k: int) -> Decomposition:
    """Branch the U(k) representation lam to Sp(k), k even (stable range)."""
    _reject_bool(k)
    lam = canonicalize(lam)
    if k % 2:
        raise OddRank(f"Sp rank must be even, got {k}")
    if 2 * len(lam) >= k:
        raise OutsideStableRange(
            f"Littlewood rule needs 2*length(lam) < k; got {list(lam)} at k={k}"
        )
    terms = _littlewood_terms(lam, _even_column_partitions)
    return Decomposition._new(GroupFamily("sp", k), terms)


def dual_side_multiplicity(lam: Signature, mu: Signature, n: int) -> int:
    """Multiplicity of the U(n)-type lam in the dual module over mu.

    Counts lam inside mu tensored with the symmetric algebra on the
    invariant quadratics: sum over even-part delta of c^lam_{mu,delta}.
    """
    _reject_bool(n)
    lam = canonicalize(lam)
    mu = canonicalize(mu)
    if len(lam) > n or len(mu) > n:
        raise RankTooSmall(f"signatures must fit rank {n}")
    return _littlewood_terms(lam, _even_row_partitions).get(mu, 0)


class ReciprocityReport(namedtuple("ReciprocityReport", "lam n k rows")):
    """Row-by-row comparison of the two multiplicity computations: `rows`
    holds one (mu, side_a, side_b, agree) tuple per signature mu."""

    __slots__ = ()

    @property
    def all_agree(self) -> bool:
        return all(row[3] for row in self.rows)


def reciprocity_check(lam: Signature, n: int, k: int) -> ReciprocityReport:
    """Compare restriction multiplicities against the dual-side formula.

    Side A restricts lam to SO(k) through the character oracle: the
    torus restriction of lam, decomposed by the Weyl-group alternating
    sum over its dominant weights.  It never reads the Littlewood sum or
    an LR table, so the comparison with side B is between independent
    computations.
    """
    _reject_bool(n, k)
    lam = canonicalize(lam)
    if len(lam) > n:
        raise RankTooSmall(f"signature {list(lam)} needs n >= {len(lam)}")
    if k <= 2 * n:
        raise OutsideStableRange(f"need k > 2n; got n={n}, k={k}")
    side_a = weyl_fold(_torus_dominant_weights(lam, k), k)
    side_b = _littlewood_terms(lam, _even_row_partitions)
    rows = []
    for mu in sorted(set(side_a.signatures()) | set(side_b), reverse=True):
        a, b = side_a[mu], side_b.get(mu, 0)
        rows.append((mu, a, b, a == b))
    return ReciprocityReport(lam, n, k, tuple(rows))

