"""Character oracles: Weyl dimension formulas and exact Laurent characters.

Everything here verifies the LR/branching combinatorics by a disjoint
route: GL characters come from semistandard tableau enumeration, SO
characters from alternant ratios with exact division, and decompositions
are recovered by greedily peeling highest weights or, for SO, by the
Weyl-group alternating sum over the dominant weights (`weyl_fold`).
Characters are ``LaurentPoly`` term maps on the shared core of
``isotypic.terms``.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import permutations, product
from math import prod
from operator import add, index

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

    @property
    def nvars(self) -> int:
        return self.shape

    @classmethod
    def constant(cls, nvars, c):
        return cls(nvars, {(0,) * nvars: c})

    @classmethod
    def monomial(cls, nvars, exps, coeff=1):
        return cls(nvars, {tuple(exps): coeff})

    def __repr__(self):
        body = " + ".join(f"{c}*x^{list(e)}" for e, c in sorted(self.terms.items(), reverse=True))
        return f"<LaurentPoly {body or '0'}>"


def _iter_ssyt_contents(shape, k):
    """Yield the content vector (counts of 1..k) of every SSYT of shape."""
    nrows = len(shape)
    if nrows == 0:
        yield (0,) * k
        return
    if nrows > k:
        return
    rows = [[0] * shape[r] for r in range(nrows)]
    content = [0] * k
    cells = [(r, c) for r in range(nrows) for c in range(shape[r])]

    def fill(idx):
        if idx == len(cells):
            yield tuple(content)
            return
        r, c = cells[idx]
        lo = rows[r][c - 1] if c > 0 else 1
        if r > 0:
            lo = max(lo, rows[r - 1][c] + 1)
        for v in range(lo, k + 1):
            rows[r][c] = v
            content[v - 1] += 1
            yield from fill(idx + 1)
            content[v - 1] -= 1

    yield from fill(0)


@lru_cache(maxsize=1 << 10)
def schur_poly(lam: Signature, k: int) -> LaurentPoly:
    """Schur polynomial of lam in k variables, by tableau enumeration."""
    lam = canonicalize(lam)
    terms: dict = {}
    for content in _iter_ssyt_contents(lam, k):
        terms[content] = terms.get(content, 0) + 1
    return LaurentPoly._new(k, terms)


@lru_cache(maxsize=1 << 10)
def schur_laurent_on_so_torus(lam: Signature, k: int) -> LaurentPoly:
    """Restrict the U(k) character of lam to the SO(k) maximal torus.

    Torus values are (x_1..x_nu, x_1^-1..x_nu^-1) for k = 2*nu, with one
    extra coordinate fixed at 1 when k is odd.
    """
    lam = canonicalize(lam)
    if k > DESK_RANK_LIMIT:
        raise RankTooLarge(f"rank {k} beyond desk scale {DESK_RANK_LIMIT}")
    if len(lam) > k:
        raise RankConstraint(f"signature {list(lam)} too long for rank {k}")
    nu = k // 2
    terms: dict = {}
    for content in _iter_ssyt_contents(lam, k):
        exps = tuple(content[i] - content[nu + i] for i in range(nu))
        terms[exps] = terms.get(exps, 0) + 1
    return LaurentPoly._new(nu, terms)


def dominant_weights(chi: LaurentPoly) -> tuple:
    """The ``(e, mult)`` terms of chi with e_1 >= ... >= e_nu >= 0."""
    return tuple(
        (e, m)
        for e, m in chi.terms.items()
        if all(a >= b for a, b in zip(e, e[1:])) and (not e or e[-1] >= 0)
    )


@lru_cache(maxsize=1 << 10)
def _torus_dominant_weights(lam: Signature, k: int) -> tuple:
    """Dominant weights of the memoised `schur_laurent_on_so_torus(lam, k)`."""
    return dominant_weights(schur_laurent_on_so_torus(lam, k))


@lru_cache(maxsize=1 << 10)
def _orbit_fold(e: tuple, k: int) -> tuple:
    """Signed fold of the orbit of e under all signed permutations, for SO(k).

    Each orbit weight o goes to v = o + rho, both doubled in type B (k
    odd) so rho is integral.  A v on a wall (a repeated |v_i|, or a zero
    in type B) contributes nothing.  Otherwise the Weyl element that
    sorts |v| decreasingly gives mu = w(v) - rho with sign det(w): type B
    flips every negative entry; type D flips only an even number, so an
    odd count of negatives leaves the last entry negative, unless v has a
    zero entry: that zero sorts last and takes the odd flip, staying 0.
    Returns ``((mu, sign), ...)``.
    """
    nu = len(e)
    odd = k % 2
    rho = [2 * (nu - i) - 1 if odd else nu - i - 1 for i in range(nu)]
    out: dict = {}
    for perm in set(permutations(e)):
        for o in product(*[(x, -x) if x else (0,) for x in perm]):
            v = [(2 * x if odd else x) + r for x, r in zip(o, rho)]
            a = [abs(x) for x in v]
            if len(set(a)) < nu or (odd and 0 in a):
                continue
            order = sorted(range(nu), key=a.__getitem__, reverse=True)
            flips = sum(x < 0 for x in v)
            inversions = sum(order[i] > order[j] for i in range(nu) for j in range(i + 1, nu))
            dom = [a[i] for i in order]
            if not odd and flips % 2:
                dom[-1] = -dom[-1]
            sign = -1 if (inversions + (flips if odd else 0)) % 2 else 1
            mu = trim((d - r) // 2 if odd else d - r for d, r in zip(dom, rho))
            add_into(out, mu, sign)
    return tuple(out.items())


def weyl_fold(dominant, k: int) -> Decomposition:
    """Decompose an SO(k) character by the Weyl-group alternating sum.

    `dominant` lists the ``(e, mult)`` pairs of `dominant_weights(chi)`
    for a character chi invariant under all signed permutations, as every
    restricted U(k) character is.  The multiplicity of mu is the sum of
    mult(e) det(w) over the weights e and Weyl elements w with
    w(e + rho) = mu + rho (Racah-Speiser / Brauer-Klimyk); each dominant
    weight carries its whole orbit through the memoised `_orbit_fold`.  A negative or
    non-dominant result means chi was no character.
    """
    total: dict = {}
    for e, m in dominant:
        for mu, sign in _orbit_fold(e, k):
            total[mu] = total.get(mu, 0) + m * sign
    found = {}
    for mu, mult in total.items():
        if mult < 0:
            raise NegativeMultiplicity(f"weight {list(mu)} received multiplicity {mult}")
        if mult:
            if mu and mu[-1] < 0:
                raise NegativeMultiplicity(f"weight {list(mu)} is not a dominant weight")
            found[mu] = mult
    return Decomposition._new(GroupFamily("so", k), found)


def laurent_exact_div(num: LaurentPoly, den: LaurentPoly) -> LaurentPoly:
    """Exact division of Laurent polynomials under lex term order.

    The quotient's support is confined to the Newton box of num minus
    den; stepping outside it, or a non-integer coefficient step, raises
    DivisionNotExact (an implementation bug, never a data error).
    """
    if den.is_zero():
        raise DivisionNotExact("division by zero polynomial")
    if num.is_zero():
        return LaurentPoly.zero(num.nvars)
    n = num.nvars
    lo = [min(e[i] for e in num.terms) - max(e[i] for e in den.terms) for i in range(n)]
    hi = [max(e[i] for e in num.terms) - min(e[i] for e in den.terms) for i in range(n)]
    eb = max(den.terms)
    cb = den.terms[eb]
    rem = dict(num.terms)
    quot: dict = {}
    while rem:
        er = max(rem)
        cr = rem[er]
        et = tuple(a - b for a, b in zip(er, eb))
        if any(e < l or e > h for e, l, h in zip(et, lo, hi)):
            raise DivisionNotExact("quotient term outside Newton box")
        q, r = divmod(cr, cb)
        if r:
            raise DivisionNotExact("non-integer quotient coefficient")
        quot[et] = q
        for e2, c2 in den.terms.items():
            add_into(rem, tuple(map(add, et, e2)), -q * c2)
    return LaurentPoly._new(n, quot)


@lru_cache(maxsize=1 << 10)
def so_character(mu: Signature, k: int) -> LaurentPoly:
    """Irreducible SO(k) character as an exact alternant ratio.

    Requires length(mu) < k/2 so the highest weight is away from the
    self-associated split of the even orthogonal groups.
    """
    mu = canonicalize(mu)
    if k > DESK_RANK_LIMIT:
        raise RankTooLarge(f"rank {k} beyond desk scale {DESK_RANK_LIMIT}")
    if 2 * len(mu) >= k:
        raise SignatureTooLong(
            f"need length(mu) < k/2; got {list(mu)} at k={k}"
        )
    nu = k // 2
    if nu == 0:
        return LaurentPoly.constant(0, 1)
    mup = pad(mu, nu)
    one = LaurentPoly.constant(nu, 1)

    def alternant(entry, exps):
        return leibniz_det([[entry(i, e) for e in exps] for i in range(nu)], one)

    if k % 2 == 1:
        # B case: work in y with x = y^2 so the half-integer rho becomes
        # integral, then halve the (necessarily even) exponents.
        tops = [2 * (mup[j] + nu - j - 1) + 1 for j in range(nu)]
        bots = [2 * (nu - j - 1) + 1 for j in range(nu)]

        def odd_entry(i, e):
            return LaurentPoly(
                nu,
                {
                    tuple(e if t == i else 0 for t in range(nu)): 1,
                    tuple(-e if t == i else 0 for t in range(nu)): -1,
                },
            )

        quot = laurent_exact_div(alternant(odd_entry, tops), alternant(odd_entry, bots))
        halved = {}
        for e, c in quot.terms.items():
            if any(x % 2 for x in e):
                raise DivisionNotExact("odd exponent after B-type division")
            halved[tuple(x // 2 for x in e)] = c
        return LaurentPoly._new(nu, halved)
    # D case: mu has length < nu, so the last column exponent is 0 and
    # the halved-column convention applies to both alternants.
    tops = [mup[j] + nu - j - 1 for j in range(nu)]
    bots = [nu - j - 1 for j in range(nu)]

    def even_entry(i, e):
        if e == 0:
            return one
        return LaurentPoly(
            nu,
            {
                tuple(e if t == i else 0 for t in range(nu)): 1,
                tuple(-e if t == i else 0 for t in range(nu)): 1,
            },
        )

    return laurent_exact_div(alternant(even_entry, tops), alternant(even_entry, bots))


def dim(group: GroupFamily, sig: Signature) -> int:
    """Exact dimension of the irreducible representation via Weyl products."""
    sig = canonicalize(sig)
    if group.rank == "stable":
        raise RankConstraint("dimension requires a finite rank")
    group.check_signature(sig)
    k = group.rank
    if group.family == "u":
        lam = pad(sig, k)
        num = prod(lam[i] - lam[j] + j - i for i in range(k) for j in range(i + 1, k))
        den = prod(j - i for i in range(k) for j in range(i + 1, k))
    else:
        # Types C, B, D: b is rho and a = lam + rho, both doubled for B to
        # stay integral; only C and B have the linear factors a_i/b_i.
        half = k // 2
        if group.family == "sp":
            scale, linear, b = 1, True, [half - i for i in range(half)]
        elif k % 2:
            scale, linear, b = 2, True, [2 * (half - i) - 1 for i in range(half)]
        else:
            scale, linear, b = 1, False, [half - i - 1 for i in range(half)]
        a = [scale * m + r for m, r in zip(pad(sig, half), b)]
        num, den = (prod(a), prod(b)) if linear else (1, 1)
        for i in range(half):
            for j in range(i + 1, half):
                num *= a[i] ** 2 - a[j] ** 2
                den *= b[i] ** 2 - b[j] ** 2
    val, rem = divmod(num, den)
    if rem:
        raise DivisionNotExact(
            f"Weyl dimension product {Fraction(num, den)} is not integral"
        )
    return val


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
        # Inline, not add_into: a call per term slowed reciprocity_check by 13% or more.
        # Terms are nonzero and mult > 0, so a missing key never cancels.
        for e, c in irreducible(sig).terms.items():
            s = work.get(e, 0) - mult * c
            if s:
                work[e] = s
            else:
                del work[e]
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
