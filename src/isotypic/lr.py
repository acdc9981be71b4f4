"""Littlewood-Richardson coefficients and GL/U tensor product decompositions.

The coefficient c^nu_{lam,mu} is computed by depth-first enumeration of
LR skew tableaux of shape nu/lam and content mu, pruning on the lattice
word condition cell by cell.  Iterated and mixed (contragredient)
products are reduced to this primitive.
"""

from __future__ import annotations

from .errors import RankMismatch, RankTooSmall
from .signatures import (
    GroupFamily,
    MixedSignature,
    Signature,
    canonicalize,
    contains,
    pad,
    render,
    shift_mixed,
    trim,
    weight,
)


class Decomposition:
    """A multiset of signatures with positive multiplicities.

    Iteration order is descending lexicographic on the signature tuples,
    so identical queries always print identically.  Instances are
    immutable after construction.
    """

    __slots__ = ("group", "_terms")

    def __init__(self, group: GroupFamily, terms):
        items = terms.items() if hasattr(terms, "items") else terms
        clean = {}
        for sig, mult in items:
            sig = tuple(sig)
            if mult < 0:
                raise ValueError(f"negative multiplicity {mult} for {sig}")
            if mult:
                clean[sig] = clean.get(sig, 0) + mult
        object.__setattr__(self, "group", group)
        object.__setattr__(
            self, "_terms", dict(sorted(clean.items(), reverse=True))
        )

    def __setattr__(self, name, value):
        raise AttributeError("Decomposition is immutable")

    @property
    def terms(self) -> dict:
        return dict(self._terms)

    def items(self):
        return list(self._terms.items())

    def signatures(self):
        return list(self._terms)

    def __getitem__(self, sig) -> int:
        return self._terms.get(tuple(sig), 0)

    def __contains__(self, sig):
        return tuple(sig) in self._terms

    def __len__(self):
        return len(self._terms)

    def __iter__(self):
        return iter(self._terms.items())

    def __eq__(self, other):
        if not isinstance(other, Decomposition):
            return NotImplemented
        return self.group == other.group and self._terms == other._terms

    def __hash__(self):
        return hash((self.group, tuple(self._terms.items())))

    def __repr__(self):
        body = " + ".join(
            f"{m}({render(s)})" if m > 1 else f"({render(s)})"
            for s, m in self._terms.items()
        )
        return f"<{self.group}: {body or '0'}>"


# Memo table for LR coefficients, keyed on canonical signature strings.
# Plain dict reads/writes are atomic under the GIL; duplicate computation
# by racing threads is harmless because values are deterministic.
_lr_memo: dict[str, int] = {}


def lr_coefficient(lam: Signature, mu: Signature, nu: Signature) -> int:
    """Number of LR skew tableaux of shape nu/lam and content mu."""
    lam = canonicalize(lam)
    mu = canonicalize(mu)
    nu = canonicalize(nu)
    if weight(lam) + weight(mu) != weight(nu):
        return 0
    if not contains(lam, nu) or not contains(mu, nu):
        return 0
    if len(nu) > len(lam) + len(mu):
        return 0
    if not mu:
        return 1
    key = f"{render(lam)}|{render(mu)}|{render(nu)}"
    cached = _lr_memo.get(key)
    if cached is not None:
        return cached
    count = _count_lr_tableaux(lam, mu, nu)
    _lr_memo[key] = count
    return count


def _count_lr_tableaux(lam, mu, nu):
    nrows = len(nu)
    nvals = len(mu)
    lamp = list(lam) + [0] * (nrows - len(lam))
    # Reverse reading order (rows top to bottom, right to left within a
    # row) so the lattice condition is a prefix property of the word.
    cells = [
        (r, c) for r in range(nrows) for c in range(nu[r] - 1, lamp[r] - 1, -1)
    ]
    grid = [[0] * nu[r] for r in range(nrows)]
    counts = [0] * (nvals + 1)
    total = 0

    def fill(idx):
        nonlocal total
        if idx == len(cells):
            total += 1
            return
        r, c = cells[idx]
        hi = grid[r][c + 1] if c + 1 < nu[r] else nvals
        lo = 1
        if r > 0 and c >= lamp[r - 1]:
            lo = grid[r - 1][c] + 1
        for v in range(lo, hi + 1):
            if counts[v] < mu[v - 1] and (v == 1 or counts[v - 1] > counts[v]):
                counts[v] += 1
                grid[r][c] = v
                fill(idx + 1)
                counts[v] -= 1

    fill(0)
    return total


def _candidate_shapes(lam, mu, k):
    """Partitions nu with |nu| = |lam|+|mu|, nu >= lam, length <= k."""
    total = weight(lam) + weight(mu)
    maxlen = min(k, len(lam) + len(mu))
    if total == 0:
        yield ()
        return
    if maxlen == 0:
        return
    lamp = list(pad(lam, maxlen))
    first_cap = (lam[0] if lam else 0) + (mu[0] if mu else 0)

    def rec(i, prev, remaining):
        if i == maxlen:
            if remaining == 0:
                yield ()
            return
        slots_after = maxlen - i - 1
        hi = min(prev, remaining)
        if i == 0:
            hi = min(hi, first_cap)
        for v in range(hi, lamp[i] - 1, -1):
            rest = remaining - v
            if rest < 0 or rest > v * slots_after:
                continue
            if v == 0 and rest > 0:
                break
            for tail in rec(i + 1, v, rest):
                yield (v,) + tail

    for shape in rec(0, total, total):
        yield trim(shape)


def tensor_pair(lam: Signature, mu: Signature, k: int) -> Decomposition:
    """Decompose the U(k) tensor product of lam and mu."""
    lam = canonicalize(lam)
    mu = canonicalize(mu)
    group = GroupFamily("u", k)  # RankConstraint unless k >= 1
    if len(lam) > k:
        raise RankTooSmall(f"factor {list(lam)} needs rank >= {len(lam)}, got {k}")
    if len(mu) > k:
        raise RankTooSmall(f"factor {list(mu)} needs rank >= {len(mu)}, got {k}")
    if not lam:
        return Decomposition(group, {mu: 1})
    if not mu:
        return Decomposition(group, {lam: 1})
    terms = {}
    for nu in _candidate_shapes(lam, mu, k):
        c = lr_coefficient(lam, mu, nu)
        if c:
            terms[nu] = c
    return Decomposition(group, terms)


def tensor_multi(factors, k: int) -> Decomposition:
    """Iterated U(k) tensor product; result is association independent.

    Factors are multiplied in ascending weight order to keep the
    intermediate decompositions small.
    """
    factors = [canonicalize(f) for f in factors]
    group = GroupFamily("u", k)  # RankConstraint unless k >= 1
    for f in factors:
        if len(f) > k:
            raise RankTooSmall(f"factor {list(f)} needs rank >= {len(f)}, got {k}")
    if not factors:
        return Decomposition(group, {(): 1})
    factors.sort(key=lambda f: (weight(f), f))
    acc = {factors[0]: 1}
    for nxt in factors[1:]:
        step: dict = {}
        for sig, mult in acc.items():
            for nu, c in tensor_pair(sig, nxt, k):
                step[nu] = step.get(nu, 0) + mult * c
        acc = step
    return Decomposition(group, acc)


def contragredient(sig: MixedSignature) -> MixedSignature:
    """Dual signature: reverse the part list and negate each entry."""
    return tuple(-p for p in reversed(sig))


def tensor_mixed(sigma: MixedSignature, tau: MixedSignature, k: int) -> Decomposition:
    """Tensor product of two rank-k mixed signatures.

    Both factors are shifted by determinant powers until nonnegative,
    multiplied by LR, and the results shifted back; the outcome does not
    depend on the shifts chosen.
    """
    if len(sigma) != k or len(tau) != k:
        raise RankMismatch(
            f"mixed signatures {list(sigma)}, {list(tau)} must have declared rank {k}"
        )
    a = max(0, -sigma[-1]) if sigma else 0
    b = max(0, -tau[-1]) if tau else 0
    lam = trim(shift_mixed(sigma, a))
    mu = trim(shift_mixed(tau, b))
    plain = tensor_pair(lam, mu, k)
    terms = {}
    for nu, c in plain:
        terms[shift_mixed(pad(nu, k), -(a + b))] = c
    return Decomposition(GroupFamily("u", k), terms)
