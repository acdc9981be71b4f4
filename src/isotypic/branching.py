"""Stable-range restriction U(k) -> SO(k)/Sp(k) and two-sided reciprocity.

The Littlewood restriction rule gives the multiplicity of mu in lam as a
sum of LR coefficients c^lam_{delta,mu} over auxiliary partitions delta
with all parts even (SO) or all columns even (Sp).  `_littlewood_terms`
finds it for every mu in one pass down the rows of lam, filling each
skew shape lam/delta with LR tableaux, and a bounded memo keyed by (lam,
delta family) keeps the table, which does not depend on k.  The
restrictions, the dual-side (lowest-K-type) multiplicity and side B of
reciprocity read it; side A, which folds each torus weight of lam once by
the Weyl group (`characters.weyl_fold`), reads neither it nor an LR table.
"""

from __future__ import annotations

from collections import namedtuple
from functools import lru_cache

from .characters import _torus_folds, weyl_fold
from .errors import OddRank, OutsideStableRange, RankConstraint, RankTooSmall
from .lr import Decomposition
from .signatures import GroupFamily, Signature, canonicalize


def _even_row_partitions(r, prev, top, rows):
    """Row r of a delta with even parts: an even part <= min(prev, top)."""
    return range(0, min(prev, top) + 1, 2)


def _even_column_partitions(r, prev, top, rows):
    """Row r of a delta with even columns: odd rows repeat prev, an unpaired last row is 0."""
    if r % 2:
        return (prev,) if prev <= top else ()
    return range(min(prev, top) + 1) if r + 1 < rows else (0,)


@lru_cache(maxsize=1 << 10)
def _littlewood_terms(lam: Signature, deltas) -> dict:
    """``{mu: sum over delta of c^lam_{delta,mu}}`` for canonical lam.

    Row r takes delta_r from `deltas(r, prev, top, rows)`, then cells of
    values 1..r+1, weakly increasing.  Columns: its cells of value <= v+1
    end no further right than the row above's of value <= v.  Lattice: read
    right to left, v+1 never outnumbers v.  Each filling of lam/delta adds
    1 at its content mu.  Memoised per (lam, deltas): do not mutate it.
    """
    # No recursion: fillings that agree on (ends, content) are counted once; ends holds
    # delta_r, where row r's cells of value <= 1, 2, ... end, then lam_r.
    states = {(lam[:1], ()): 1}
    for r, part in enumerate(lam):
        after: dict = {}
        for (above, content), count in states.items():
            rows = [(d,) for d in deltas(r, above[0], part, len(lam))]
            for v in range(r):
                lattice = content[v - 1] - content[v] if v else part
                rows = [e + (end,) for e in rows
                        for end in range(e[-1], min(above[v], part, e[-1] + lattice) + 1)]
            for row in rows:
                if not r or part - row[-1] <= content[r - 1]:
                    row += (part,)
                    key = (row, tuple(c + b - a for c, a, b in zip(content + (0,), row, row[1:])))
                    after[key] = after.get(key, 0) + count
        states = after
    terms: dict = {}
    for (_, content), count in states.items():
        mu = tuple(t for t in content if t)
        terms[mu] = terms.get(mu, 0) + count
    return terms


def _require_int(*ranks, least=None):
    """Refuse a rank that is not an int (a bool or a float too), or is below
    least when given, before any other check."""
    for rank in ranks:
        if type(rank) is bool or not isinstance(rank, int) or (least is not None and rank < least):
            raise RankConstraint(f"rank must be a positive integer, got {rank!r}")


def restrict_gl_to_so(lam: Signature, k: int) -> Decomposition:
    """Branch the U(k) representation lam to SO(k) (stable range only)."""
    _require_int(k, least=1)
    lam = canonicalize(lam)
    if 2 * len(lam) >= k:
        raise OutsideStableRange(
            f"Littlewood rule needs 2*length(lam) < k; got {list(lam)} at k={k}"
        )
    terms = _littlewood_terms(lam, _even_row_partitions)
    return Decomposition._new(GroupFamily("so", k), terms)


def restrict_gl_to_sp(lam: Signature, k: int) -> Decomposition:
    """Branch the U(k) representation lam to Sp(k), k even (stable range)."""
    _require_int(k, least=1)
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
    _require_int(n)
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

    Side A restricts lam to SO(k) through the character oracle, the torus
    character folded by the Weyl group, and never reads the Littlewood sum
    or an LR table; side B is that sum, so the two sides are independent.
    """
    _require_int(n)
    _require_int(k, least=1)
    lam = canonicalize(lam)
    if len(lam) > n:
        raise RankTooSmall(f"signature {list(lam)} needs n >= {len(lam)}")
    if k <= 2 * n:
        raise OutsideStableRange(f"need k > 2n; got n={n}, k={k}")
    side_a = weyl_fold(_torus_folds(lam, k), k)
    side_b = _littlewood_terms(lam, _even_row_partitions)
    rows = []
    for mu in sorted(set(side_a.signatures()) | set(side_b), reverse=True):
        a, b = side_a[mu], side_b.get(mu, 0)
        rows.append((mu, a, b, a == b))
    return ReciprocityReport(lam, n, k, tuple(rows))

