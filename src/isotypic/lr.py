"""Littlewood-Richardson coefficients and GL/U tensor product decompositions.

One search per product: `_lr_table(lam, mu)` adds the rows of the lighter
factor to the heavier one as horizontal strips under the lattice rule, in
a loop with no recursion that merges equal partial tableaux, and returns
every c^nu_{lam,mu} at once, in a bounded memo keyed by the canonical
factors.  Single coefficients, products at a rank, and iterated and
mixed (contragredient) products all read these tables; the mixed products
pass their rank, so the search never opens a row past it.
Public entries check each signature once and build results with the trusted
`Decomposition._new`; internal callers use `_product` and `_mixed_table`.
"""

from __future__ import annotations

from functools import lru_cache

from .errors import RankMismatch, RankTooSmall
from .signatures import (
    GroupFamily,
    MixedSignature,
    Signature,
    canonicalize,
    decreasing,
    pad,
    render,
    shift_mixed,
    trim,
    weight,
)


class Decomposition:
    """A multiset of signatures with positive multiplicities.

    Iteration order is descending lexicographic on the signature tuples,
    so identical queries always print identically.  Instances are immutable,
    so a stable table's probes may share its dict (never an LR memo's).
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

    @classmethod
    def _new(cls, group: GroupFamily, terms: dict):
        """Trusted constructor: keys already tuples, multiplicities positive."""
        out = object.__new__(cls)
        object.__setattr__(out, "group", group)
        object.__setattr__(out, "_terms", dict(sorted(terms.items(), reverse=True)))
        return out

    def _cut(self, group: GroupFamily):
        """Trusted probe at group's finite rank k: the terms of length <= k in
        this table's order, sharing this table's dict when every term fits."""
        terms, out = self._terms, object.__new__(Decomposition)
        if max(map(len, terms), default=0) > group.rank:
            terms = {s: m for s, m in terms.items() if len(s) <= group.rank}
        object.__setattr__(out, "group", group)
        object.__setattr__(out, "_terms", terms)
        return out

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


@lru_cache(maxsize=1 << 14)
def _lr_table(lam: Signature, mu: Signature, maxlen=None) -> dict:
    """The product of canonical lam and mu as ``{nu: c^nu_{lam,mu}}``.

    The rows of the lighter factor are added to the heavier one as
    horizontal strips, the i-th strip holding the value i, each walked
    down the rows in a loop.  The lattice rule is checked row by row (the
    i's in rows <= r never outnumber the (i-1)'s in rows < r), so every
    completed filling is one LR tableau and adds 1 to its shape.  Fillings
    with the same shape and the same i's per row end alike, so they are
    merged into one counted state.  With `maxlen` set, only the nu of
    length <= maxlen are searched for.  The table is shared: do not mutate it.
    """
    if (weight(lam), lam) < (weight(mu), mu):
        return _lr_table(mu, lam, maxlen)
    if maxlen is not None and len(lam) > maxlen:
        return {}
    states = {(lam, (0,) * len(lam)): 1}
    for i, part in enumerate(mu):
        after: dict = {}
        for (shape, prev), count in states.items():
            # No row past maxlen-1 is opened, so the rows below r can take at
            # most `old - floor` more cells: floor is row maxlen-1's length.
            floor = shape[maxlen - 1] if maxlen is not None and maxlen <= len(shape) else 0
            # Strip prefixes: (nu rows so far, (i+1)'s per row, cells left,
            # i's in the rows so far minus (i+1)'s there).
            strips = [((), (), part, 0)]
            for r, old in enumerate(shape + (0,)):
                hi = shape[r - 1] - old if r else part
                longer = []
                for nu, placed, left, slack in strips:
                    top = min(left, hi, slack) if i else min(left, hi)
                    for x in range(max(0, left - old + floor), top + 1):
                        if x < left:
                            slack_x = slack - x + prev[r]
                            longer.append((nu + (old + x,), placed + (x,), left - x, slack_x))
                            continue
                        nu_x = nu + (old + x,) + shape[r + 1:]
                        key = (nu_x, placed + (x,) + (0,) * (len(nu_x) - r - 1))
                        after[key] = after.get(key, 0) + count
                strips = longer
        states = after
    table: dict = {}
    for (nu, _), count in states.items():
        table[nu] = table.get(nu, 0) + count
    return table


def lr_coefficient(lam: Signature, mu: Signature, nu: Signature) -> int:
    """Number of LR skew tableaux of shape nu/lam and content mu."""
    lam, mu, nu = canonicalize(lam), canonicalize(mu), canonicalize(nu)
    return _lr_table(lam, mu).get(nu, 0)


def tensor_pair(lam: Signature, mu: Signature, k: int) -> Decomposition:
    """Decompose the U(k) tensor product of lam and mu, as a two-factor ``tensor_multi``."""
    return tensor_multi((lam, mu), k)


def _product(factors, k: int) -> dict:
    """The U(k) product of canonical factors of length <= k as ``{sig: mult}``,
    multiplied lightest first to keep the intermediate tables small and
    dropping terms longer than k."""
    if not factors:
        return {(): 1}
    first, *rest = sorted(factors, key=lambda f: (weight(f), f))
    acc = {first: 1}
    for nxt in rest:
        step: dict = {}
        for sig, mult in acc.items():
            for nu, c in _lr_table(sig, nxt).items():
                if len(nu) <= k:
                    step[nu] = step.get(nu, 0) + mult * c
        acc = step
    return acc


def tensor_multi(factors, k: int) -> Decomposition:
    """Iterated U(k) tensor product; result is association independent."""
    factors = [canonicalize(f) for f in factors]
    group = GroupFamily("u", k)  # RankConstraint unless k >= 1
    for f in factors:
        if len(f) > k:
            raise RankTooSmall(f"factor {list(f)} needs rank >= {len(f)}, got {k}")
    return Decomposition._new(group, _product(factors, k))


def contragredient(sig: MixedSignature) -> MixedSignature:
    """Dual signature: reverse the part list and negate each entry."""
    return tuple(-p for p in reversed(sig))


def _mixed_table(sigma: MixedSignature, tau: MixedSignature, k: int) -> dict:
    """Product of rank-k mixed signatures as ``{rho: c}``.

    Both decreasing factors are shifted by determinant powers until
    nonnegative (so `trim` makes them canonical), multiplied by LR at
    length <= k and shifted back; the outcome does not depend on the shifts.
    """
    a = max(0, -sigma[-1]) if sigma else 0
    b = max(0, -tau[-1]) if tau else 0
    lam = trim(shift_mixed(sigma, a))
    mu = trim(shift_mixed(tau, b))
    return {shift_mixed(pad(nu, k), -(a + b)): c for nu, c in _lr_table(lam, mu, k).items()}


def tensor_mixed(sigma: MixedSignature, tau: MixedSignature, k: int) -> Decomposition:
    """Tensor product of two rank-k mixed signatures."""
    if len(sigma) != k or len(tau) != k:
        raise RankMismatch(
            f"mixed signatures {list(sigma)}, {list(tau)} must have declared rank {k}"
        )
    sigma, tau = decreasing(sigma), decreasing(tau)
    return Decomposition._new(GroupFamily("u", k), _mixed_table(sigma, tau, k))
