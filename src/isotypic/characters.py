"""Character oracles: cell-product dimension formulas and exact Laurent characters.

Everything here verifies the LR/branching combinatorics by a disjoint
route: GL characters come from Gelfand-Tsetlin branching, SO
characters from the orthogonal Jacobi-Trudi determinant of restricted
one-row characters, and decompositions are recovered by greedily peeling
highest weights or, for SO, by the Weyl-group alternating sum with each
weight of the character folded once (`weyl_fold`).
Characters are ``LaurentPoly`` term maps on the shared core of
``isotypic.terms``.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import accumulate, product
from operator import index

from .errors import (
    DivisionNotExact,
    NegativeMultiplicity,
    RankConstraint,
    RankTooLarge,
    ReconstructionFailed,
    SignatureTooLong,
)
from .lr import Decomposition
from .signatures import GroupFamily, Signature, canonicalize, pad, trim
from .terms import DensePoly, add_into, leibniz_det

DESK_RANK_LIMIT = 7


class LaurentPoly(DensePoly):
    """Sparse Laurent polynomial with exact integer coefficients.

    A term map (``isotypic.terms``) whose shape is the number of torus
    coordinates: terms map exponent tuples, one slot per coordinate, to
    nonzero ints.
    """

    __slots__ = ()
    _coeff = staticmethod(index)

    @classmethod
    def constant(cls, nvars, c):
        return cls(nvars, {(0,) * nvars: c})

    def __repr__(self):
        body = " + ".join(f"{c}*x^{list(e)}" for e, c in sorted(self.terms.items(), reverse=True))
        return f"<LaurentPoly {body or '0'}>"


def _gt_character(lam: Signature, k: int, width: int, slot) -> LaurentPoly:
    """The U(k) character of lam on `width` torus coordinates, by Gelfand-Tsetlin branching.

    Row j of a pattern is a mu of length j; the next row down is any nu with
    mu_1 >= nu_1 >= mu_2 >= ... >= nu_{j-1} >= mu_j, and the step adds sign * (|mu| - |nu|)
    to coordinate i where slot(j) = (i, sign), nowhere where it is None (I. M. Gelfand and
    M. L. Tsetlin, Dokl. Akad. Nauk SSSR 71 (1950) 825-828).  Each level keeps one weight
    map per row, so each (j, mu) is expanded once and equal weights merge at every level.
    """
    rows = {pad(lam, k): {(0,) * width: 1}}
    for j in range(k, 0, -1):
        at, sign = slot(j) or (0, 0)
        below = {}
        for mu, weights in rows.items():
            size = sum(mu)
            for nu in product(*[range(mu[r + 1], mu[r] + 1) for r in range(j - 1)]):
                c = sign * (size - sum(nu))
                out = below.setdefault(nu, {})
                for e, m in weights.items():
                    if c:
                        e = e[:at] + (e[at] + c,) + e[at + 1 :]
                    out[e] = out.get(e, 0) + m
        rows = below
    return LaurentPoly._new(width, rows[()])


@lru_cache(maxsize=1 << 10, typed=True)
def schur_poly(lam: Signature, k: int) -> LaurentPoly:
    """Schur polynomial of lam in k variables, by Gelfand-Tsetlin branching."""
    lam = canonicalize(lam)
    if GroupFamily("u", k).rank == "stable":
        raise RankConstraint("a Schur polynomial requires a finite rank")
    return _gt_character(lam, k, k, lambda j: (j - 1, 1)) if len(lam) <= k else LaurentPoly.zero(k)


@lru_cache(maxsize=1 << 10, typed=True)
def schur_laurent_on_so_torus(lam: Signature, k: int) -> LaurentPoly:
    """Restrict the U(k) character of lam to the SO(k) maximal torus.

    Torus values are (x_1..x_nu, x_1^-1..x_nu^-1) for k = 2*nu, with one
    extra coordinate fixed at 1 when k is odd.
    """
    lam = canonicalize(lam)
    if GroupFamily("so", k).rank == "stable":
        raise RankConstraint("a torus character requires a finite rank")
    if k > DESK_RANK_LIMIT:
        raise RankTooLarge(f"rank {k} beyond desk scale {DESK_RANK_LIMIT}")
    if len(lam) > k:
        raise RankConstraint(f"signature {list(lam)} too long for rank {k}")
    nu = k // 2
    return _gt_character(
        lam, k, nu, lambda j: (j - 1, 1) if j <= nu else (j - 1 - nu, -1) if j <= 2 * nu else None
    )


@lru_cache(maxsize=1 << 12)
def _fold(o: tuple, k: int):
    """The signed fold ``(mu, sign)`` of one torus weight o of an SO(k) character.

    o goes to v = o + rho, both doubled in type B (k odd) so rho is
    integral.  A v on a wall (a repeated |v_i|, or a zero in type B)
    folds to None.  Otherwise the Weyl element w that sorts |v|
    decreasingly gives mu = w(v) - rho and sign = det(w): type B flips
    every negative entry; type D flips only an even number, so an odd
    count of negatives leaves the last entry negative, unless v has a
    zero entry: that zero sorts last and takes the odd flip, staying 0.
    """
    nu = len(o)
    odd = k % 2
    rho = [2 * (nu - i) - 1 if odd else nu - i - 1 for i in range(nu)]
    v = [(2 * x if odd else x) + r for x, r in zip(o, rho)]
    a = [abs(x) for x in v]
    if len(set(a)) < nu or (odd and 0 in a):
        return None
    order = sorted(range(nu), key=a.__getitem__, reverse=True)
    flips = sum(x < 0 for x in v)
    inversions = sum(order[i] > order[j] for i in range(nu) for j in range(i + 1, nu))
    dom = [a[i] for i in order]
    if not odd and flips % 2:
        dom[-1] = -dom[-1]
    sign = -1 if (inversions + (flips if odd else 0)) % 2 else 1
    return trim((d - r) // 2 if odd else d - r for d, r in zip(dom, rho)), sign


def folded_weights(chi: LaurentPoly, k: int) -> tuple:
    """The ``(mu, sign * mult)`` fold of each weight of chi off every wall."""
    return tuple((f[0], f[1] * m) for e, m in chi.terms.items() if (f := _fold(e, k)))


@lru_cache(maxsize=1 << 10)
def _torus_folds(lam: Signature, k: int) -> tuple:
    """Folded weights of the memoised `schur_laurent_on_so_torus(lam, k)`."""
    return folded_weights(schur_laurent_on_so_torus(lam, k), k)


def weyl_fold(folds, k: int) -> Decomposition:
    """Decompose an SO(k) character by the Weyl-group alternating sum.

    `folds` lists `folded_weights(chi, k)` for a character chi invariant
    under all signed permutations, as every restricted U(k) character is.
    The multiplicity of mu is the sum of mult(e) det(w) over the weights e
    and Weyl elements w with w(e + rho) = mu + rho (Racah-Speiser /
    Brauer-Klimyk); chi lists every weight of each orbit, so each is folded
    once.  A negative or non-dominant result means chi was no character.
    """
    total: dict = {}
    for mu, m in folds:
        total[mu] = total.get(mu, 0) + m
    found = {}
    for mu, mult in total.items():
        if mult < 0:
            raise NegativeMultiplicity(f"weight {list(mu)} received multiplicity {mult}")
        if mult:
            if mu and mu[-1] < 0:
                raise NegativeMultiplicity(f"weight {list(mu)} is not a dominant weight")
            found[mu] = mult
    return Decomposition._new(GroupFamily("so", k), found)


@lru_cache(maxsize=1 << 10, typed=True)
def so_character(mu: Signature, k: int) -> LaurentPoly:
    """Irreducible SO(k) character by the orthogonal Jacobi-Trudi determinant.

    o_mu = det(h(mu_i - i + j) - h(mu_i - i - j - 2)), i, j counted from 0
    (K. Koike and I. Terada, J. Algebra 107 (1987) 466-511), where h(r) is
    the restricted U(k) character of (r,), 1 at r = 0 and 0 below.
    Requires length(mu) < k/2 so the highest weight is away from the
    self-associated split of the even orthogonal groups.
    """
    mu = canonicalize(mu)
    if GroupFamily("so", k).rank == "stable":
        raise RankConstraint("an SO character requires a finite rank")
    if k > DESK_RANK_LIMIT:
        raise RankTooLarge(f"rank {k} beyond desk scale {DESK_RANK_LIMIT}")
    if 2 * len(mu) >= k:
        raise SignatureTooLong(
            f"need length(mu) < k/2; got {list(mu)} at k={k}"
        )
    one = LaurentPoly.constant(k // 2, 1)
    zero = one - one

    def h(r):
        return schur_laurent_on_so_torus((r,), k) if r > 0 else one if r == 0 else zero

    size = len(mu)
    return leibniz_det(
        [[h(m - i + j) - h(m - i - j - 2) for j in range(size)] for i, m in enumerate(mu)], one
    )


def _conjugate(sig: Signature) -> Signature:
    """The column lengths of sig: column j counts the parts >= j, summed from the top down."""
    return tuple(accumulate(map(sig.count, range(sig[0], 0, -1))))[::-1] if sig else ()


def dim(group: GroupFamily, sig: Signature) -> int:
    """Exact dimension of the irreducible: prod (k + c) / prod h over the cells of sig.

    h is the hook length; c is the content j - i for U(k) (R. P. Stanley, Enumerative
    Combinatorics 2, Cor. 7.21.4) and N. El Samra and R. C. King's term for SO(k) and Sp(k)
    (J. Phys. A 12 (1979) 2317), whose SO form counts O(k); cells (i, j) count from 1.
    """
    sig = canonicalize(sig)
    if group.rank == "stable":
        raise RankConstraint("dimension requires a finite rank")
    group.check_signature(sig)
    k, family = group.rank, group.family
    rows, cols, s = (0, *sig), (0, *_conjugate(sig)), 2 * (family == "sp")
    num, den = 1, 2 if family == "so" and 2 * len(sig) == k else 1  # O(k): two SO(k) irreps
    for i in range(1, len(rows)):
        for j in range(1, rows[i] + 1):
            den *= rows[i] - j + cols[j] - i + 1
            if family == "u":
                num *= k + j - i
            elif i >= j + s // 2:  # on or below the diagonal in SO, below it in Sp
                num *= k + rows[i] + rows[j] - i - j + s
            else:
                num *= k + i + j - cols[i] - cols[j] + s - 2
    if num % den:
        raise DivisionNotExact(f"Weyl dimension product {Fraction(num, den)} is not integral")
    return num // den


def greedy_decompose(chi: LaurentPoly, group: GroupFamily) -> Decomposition:
    """Peel irreducible characters off chi, highest weight first.

    At each step the lexicographically greatest surviving monomial is a
    dominance-maximal weight; for a genuine character sum it is dominant
    and appears with positive multiplicity, otherwise we abort.  Each
    peel subtracts in place from one copy of chi's terms and must remove
    its leading weight; chi and the memoised characters are only read.
    """
    if group.family == "u":
        irreducible = lambda m: schur_poly(m, group.rank)
    elif group.family == "so":
        irreducible = lambda m: so_character(m, group.rank)
    else:
        raise ValueError(f"no character basis for family {group.family!r}")
    work = dict(chi.terms)
    found: dict = {}
    while work:
        top = max(work)
        mult = work[top]
        if any(a < b for a, b in zip(top, top[1:])) or (top and top[-1] < 0):
            raise NegativeMultiplicity(
                f"leading monomial {list(top)} is not a dominant weight"
            )
        if mult < 0:
            raise NegativeMultiplicity(
                f"weight {list(top)} received multiplicity {mult}"
            )
        sig = trim(top)
        for e, c in irreducible(sig).terms.items():
            add_into(work, e, -mult * c)
        if top in work:
            raise ReconstructionFailed(f"peeling {list(sig)} left its leading weight")
        found[sig] = mult
    return Decomposition(group, found)


def schur_product_decompose(lam: Signature, mu: Signature, k: int) -> Decomposition:
    """Character-arithmetic oracle for lr.tensor_pair."""
    lam = canonicalize(lam)
    mu = canonicalize(mu)
    if k > 5:
        raise RankTooLarge(f"rank {k} beyond desk scale 5 for the product oracle")
    product = schur_poly(lam, k) * schur_poly(mu, k)
    return greedy_decompose(product, GroupFamily("u", k))
