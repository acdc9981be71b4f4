"""Symbolic Bargmann-Segal-Fock laboratory.

Exact polynomials in the entries of an n x k matrix Z (optionally with a
second q x k block W), the differential inner product on them, and
normal-ordered polynomial-coefficient differential operators.  On top of
these sit the ladder operators of the oscillator representations, the
harmonic decomposition in one row of variables, and the highest weight
vectors of the classical dual pairs.

Coefficients are Gaussian rationals with int parts; a part is a Fraction
only when a non-integral rational comes in (an input, or a constant such
as k/2) or the harmonic projection divides it, the one division here:
exact arithmetic throughout, so operator identities are decided, not
sampled.
Polynomials and operators are term maps on the shared core of
``isotypic.terms``, which also holds the Leibniz determinant, so this
module imports neither the character oracle nor the LR engine.  Terms
are keyed by dense exponent tuples; the kernel loops visit only the
nonzero exponents of each term.  Each operator indexes its terms once,
on first use, and keeps that view: a composition reads it instead of
re-deriving the nonzero exponents per call.  The view keeps a real
coefficient as its plain int or Fraction, so the kernel multiplies
native numbers and ``@`` and ``weyl_commutator`` wrap each output value
in a GaussRat once.  Commutators keep only contracted terms, since the
uncontracted ones of ab and ba cancel: each operator's contraction index
lists, per left derivative exponents, the rows they meet and the indices
where they meet, so a commutator visits only the term pairs that
contract; a pair that meets in one index runs j over one range.  That is
114 of the 117 contracted pairs of verify_sp2n(2, 3) and every pair at
n = 1; a D_ab term meets a P_ab term in two indices when a != b.
``verify_sl2``, ``verify_sp2n`` and ``verify_supq`` pass (x, y, pieces)
rows to one check, ``_relations_hold``, which computes each distinct
commutator once per call and keeps none, and compares it with an expected
side summed from the pieces' plain coefficients; ``verify_sl2`` reads the
integer rank-1 generators.  The quadratic generators come from one polynomial, the pairing
q_rs = sum_i x_ri x_si of two block rows, as multiplication by it and as
q_rs(D): P_ab = -q_ab and D_ab = q_ab(D) of the oscillator algebra, the
u(p,q) pairs across a Z row and a W row, and the ladder triple
(E_11, -P_11/2, D_11/2) as the rank-1 case.  The generators are built
once per rank and shared, so each operator's index serves every later
query.  The highest weight vectors are products of principal minors, of
Z for GL and of Z q for SO, where q is an isotropic frame: both SO kinds
read the one frame entry z_rc + i z_rc' (``_isotropic``), the rank-1
vector as its power.  Borel covariance is decided, not sampled: a degree
condition for the torus and the polarization operators for the unipotent
radical (see ``check_covariance``).  The harmonic projection lowers
with the integer Laplacian D_11 and divides each component once, when
it is emitted.
"""

from __future__ import annotations

import re as _re
from collections import namedtuple
from fractions import Fraction
from functools import lru_cache
from itertools import (
    compress as _compress,
    count as _count,
    islice as _islice,
    product as _iterproduct,
)
from math import comb, factorial, perm
from operator import add

from .errors import (
    BadSignature,
    DimensionMismatch,
    NotHomogeneous,
    RankTooSmall,
    ReconstructionFailed,
    ShapeMismatch,
)
from .signatures import canonicalize
from .terms import DensePoly, TermMap, add_into, leibniz_det


def _rational(x):
    """An exact rational input in normal form: int when integral."""
    if type(x) is int:
        return x
    if isinstance(x, Fraction):
        return x.numerator if x.denominator == 1 else x
    if isinstance(x, int):
        return int(x)
    raise TypeError(f"cannot use {x!r} as an exact rational")


_alloc = object.__new__


def _gauss(re, im):
    """Build a GaussRat from int or Fraction parts, turning integral Fractions to int."""
    out = _alloc(GaussRat)
    out.re = re if type(re) is int or re.denominator != 1 else re.numerator
    out.im = im if type(im) is int or im.denominator != 1 else im.numerator
    return out


def _operand(x):
    """x as a GaussRat, or None for a non-scalar; unlike coerce, never renders x."""
    return GaussRat.coerce(x) if isinstance(x, (GaussRat, int, Fraction)) else None


class GaussRat:
    """A Gaussian rational re + im*i with exact rational parts.

    A part is an int whenever it is integral.  GaussRat has no division:
    a Fraction part comes from a non-integral input or from the harmonic
    projection's division of parts, never from GaussRat arithmetic on int
    parts.  Equality, hashing and the text form do not depend on which
    type holds a part: 3 == Fraction(3), their hashes are equal and both
    print as "3".  A real value also hashes like the number it equals.
    """

    __slots__ = ("re", "im")

    def __init__(self, re=0, im=0):
        self.re = _rational(re)
        self.im = _rational(im)

    @staticmethod
    def coerce(x) -> "GaussRat":
        if isinstance(x, GaussRat):
            return x
        return _gauss(_rational(x), 0)

    def __add__(self, other):
        if type(other) is not GaussRat:
            other = _operand(other)
            if other is None:
                return NotImplemented
        re, im = self.re + other.re, self.im + other.im
        if type(re) is not int or type(im) is not int:
            return _gauss(re, im)
        out = _alloc(GaussRat)
        out.re, out.im = re, im
        return out

    __radd__ = __add__

    def __neg__(self):
        return _gauss(-self.re, -self.im)

    def __sub__(self, other):
        if type(other) is not GaussRat:
            other = _operand(other)
            if other is None:
                return NotImplemented
        return _gauss(self.re - other.re, self.im - other.im)

    def __rsub__(self, other):
        return GaussRat.coerce(other) + (-self)

    def __mul__(self, other):
        a, b = self.re, self.im
        if type(other) is int:
            re, im = a * other, b * other
        else:
            if type(other) is not GaussRat:
                other = _operand(other)
                if other is None:
                    return NotImplemented
            c, d = other.re, other.im
            re, im = (a * c - b * d, a * d + b * c) if b or d else (a * c, 0)
        if type(re) is not int or type(im) is not int:
            return _gauss(re, im)
        out = _alloc(GaussRat)
        out.re, out.im = re, im
        return out

    __rmul__ = __mul__

    def conj(self):
        return _gauss(self.re, -self.im)

    def __bool__(self):
        return bool(self.re) or bool(self.im)

    def __eq__(self, other):
        if type(other) is int:
            return not self.im and self.re == other
        if type(other) is not GaussRat:
            other = _operand(other)
            if other is None:
                return NotImplemented
        return self.re == other.re and self.im == other.im

    def __hash__(self):
        return hash((self.re, self.im)) if self.im else hash(self.re)

    def __str__(self):
        if not self.im:
            return str(self.re)
        if not self.re:
            return f"{self.im}*i"
        if self.im < 0:
            return f"{self.re}-{-self.im}*i"
        return f"{self.re}+{self.im}*i"

    def __repr__(self):
        return f"GaussRat({self.re}, {self.im})"


I_UNIT = GaussRat(0, 1)


def _parse_rational(text: str) -> Fraction:
    try:
        return Fraction(text)
    except ZeroDivisionError:
        raise ValueError(f"zero denominator in coefficient {text!r}") from None


def parse_gauss(text: str) -> GaussRat:
    """Parse the rendered form of a Gaussian rational, e.g. "1/2-3/2*i"."""
    text = text.strip().replace(" ", "")
    if not text:
        raise ValueError("empty coefficient")
    pieces = []
    start = 0
    for pos in range(1, len(text)):
        if text[pos] in "+-" and text[pos - 1] not in "+-/*":
            pieces.append(text[start:pos])
            start = pos
    pieces.append(text[start:])
    value = GaussRat(0)
    for piece in pieces:
        if piece in ("i", "+i"):
            value = value + I_UNIT
        elif piece == "-i":
            value = value - I_UNIT
        elif piece.endswith("*i"):
            value = value + GaussRat(0, _parse_rational(piece[:-2]))
        else:
            value = value + GaussRat(_parse_rational(piece))
    return value


class FockShape(namedtuple("FockShape", "rows cols wrows", defaults=(0,))):
    """Variable layout: rows x cols of Z, plus optional wrows x cols of W; sizes are ints >= 0."""

    __slots__ = ()

    def __new__(cls, rows: int, cols: int, wrows: int = 0):
        _require_positive("a Fock shape", least=0, rows=rows, cols=cols, wrows=wrows)
        return tuple.__new__(cls, (rows, cols, wrows))

    # ``_replace`` builds through ``_make``: route it through the checks too.
    _make = classmethod(lambda cls, fields: cls(*fields))

    @property
    def nvars(self) -> int:
        return (self.rows + self.wrows) * self.cols

    def z_index(self, a: int, i: int) -> int:
        if not (1 <= a <= self.rows and 1 <= i <= self.cols):
            raise ValueError(f"Z[{a}][{i}] outside shape {self}")
        return (a - 1) * self.cols + (i - 1)

    def w_index(self, b: int, i: int) -> int:
        if not (1 <= b <= self.wrows and 1 <= i <= self.cols):
            raise ValueError(f"W[{b}][{i}] outside shape {self}")
        return (self.rows + b - 1) * self.cols + (i - 1)

    def monomial(self, e, prefix: str = "") -> list:
        """The text factors of exponent tuple e, each name or name^x, with
        every name prefixed by `prefix`."""
        out = []
        for idx, x in enumerate(e):
            if x:
                row, col = divmod(idx, self.cols)
                name = (f"{prefix}Z[{row + 1}][{col + 1}]" if row < self.rows
                        else f"{prefix}W[{row - self.rows + 1}][{col + 1}]")
                out.append(f"{name}^{x}" if x > 1 else name)
        return out


def _unit(nvars, idx, amount=1):
    e = [0] * nvars
    e[idx] = amount
    return tuple(e)


def _items(e):
    """The (position, exponent) pairs of the nonzero entries of e."""
    return [(i, e[i]) for i in _compress(_count(), e)]


class FockPoly(DensePoly):
    """Sparse polynomial in matrix variables over Gaussian rationals.

    Terms are keyed by dense exponent tuples, one entry per variable.
    """

    __slots__ = ()
    _coeff = staticmethod(GaussRat.coerce)

    @classmethod
    def constant(cls, shape, c):
        return cls(shape, {(0,) * shape.nvars: GaussRat.coerce(c)})

    @classmethod
    def variable(cls, shape, idx):
        return cls._new(shape, {_unit(shape.nvars, idx): GaussRat(1)})

    def __pow__(self, n: int):
        if n < 0:
            raise ValueError("negative power of a polynomial")
        out = FockPoly.constant(self.shape, 1)
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base if n > 1 else base
            n >>= 1
        return out

    def degree(self):
        if not self.terms:
            return None
        return max(sum(e) for e in self.terms)

    def is_homogeneous(self):
        degrees = {sum(e) for e in self.terms}
        return len(degrees) <= 1

    def substitute(self, images: dict) -> "FockPoly":
        """Replace variables by polynomials (indices not mapped stay fixed)."""
        out: dict = {}
        powers: dict = {}
        for e, c in self.terms.items():
            fixed = list(e)
            image = None
            for idx, exp in _items(e):
                if idx not in images:
                    continue
                fixed[idx] = 0
                cache = powers.get(idx)
                if cache is None:
                    self._require_same_shape(images[idx])
                    cache = powers[idx] = [None, images[idx]]
                while len(cache) <= exp:
                    cache.append(cache[-1] * cache[1])
                image = cache[exp] if image is None else image * cache[exp]
            if image is None:
                add_into(out, e, c)
                continue
            for ie, ic in image.terms.items():
                add_into(out, tuple(map(add, ie, fixed)), ic * c)
        return FockPoly._new(self.shape, out)

    def __repr__(self):
        return f"<FockPoly {render_poly(self)}>"


def z_var(shape: FockShape, a: int, i: int) -> FockPoly:
    return FockPoly.variable(shape, shape.z_index(a, i))


def w_var(shape: FockShape, b: int, i: int) -> FockPoly:
    return FockPoly.variable(shape, shape.w_index(b, i))


def pairing(f: FockPoly, g: FockPoly) -> GaussRat:
    """The Fock inner product: sum over monomials of (r)! f_r conj(g_r)."""
    f._require_same_shape(g)
    total = GaussRat(0)
    for e, c in f.terms.items():
        d = g.terms.get(e)
        if d:
            fact = 1
            for exp in e:
                fact *= factorial(exp)
            total = total + fact * c * d.conj()
    return total


class WeylOp(TermMap):
    """Normal-ordered differential operator with polynomial coefficients.

    Terms map (multiplication exponents, derivative exponents) pairs to
    coefficients, with every multiplication standing left of every
    derivative; equality of term maps is operator equality.
    """

    __slots__ = ("_view",)
    _coeff = staticmethod(GaussRat.coerce)

    @staticmethod
    def _key(key):
        return (tuple(key[0]), tuple(key[1]))

    @classmethod
    def multiplication(cls, f: FockPoly) -> "WeylOp":
        zero = (0,) * f.shape.nvars
        return cls._new(f.shape, {(e, zero): c for e, c in f.terms.items()})

    @classmethod
    def differential(cls, f: FockPoly) -> "WeylOp":
        """The operator f(D): each variable replaced by its derivative."""
        zero = (0,) * f.shape.nvars
        return cls._new(f.shape, {(zero, e): c for e, c in f.terms.items()})

    def __matmul__(self, other: "WeylOp") -> "WeylOp":
        """Composition, renormalized via d^a x^b = sum_j C(a,j)C(b,j)j! x^(b-j)d^(a-j)."""
        self._require_same_shape(other)
        return WeylOp._new(self.shape, _gauss_values(_compose_into({}, self, other, False, 1)))

    def apply(self, f: FockPoly) -> FockPoly:
        self._require_same_shape(f)
        out: dict = {}
        for _, _, raise_z, lower, c in _weyl_view(self)[0]:
            for e, a in f.terms.items():
                fall = 1
                new = list(e)
                for i, di in lower:
                    if e[i] < di:
                        break
                    fall *= perm(e[i], di)
                    new[i] -= di
                else:
                    for i, x in raise_z:
                        new[i] += x
                    add_into(out, tuple(new), a * (c * fall))
        return FockPoly._new(self.shape, out)

    def __repr__(self):
        bits, shape = [], self.shape
        for (z, d), c in sorted(self.terms.items(), reverse=True):
            bits.append("*".join([f"({c})", *shape.monomial(z), *shape.monomial(d, "d")]))
        return f"<WeylOp {' + '.join(bits) or '0'}>"


def _weyl_view(op: WeylOp):
    """op's terms as (z, d, z_items, d_items, coeff) rows, a real coeff
    kept plain (its int or Fraction part), plus the contraction index: a
    left term's derivative exponents -> (row, overlap) for each row of op
    whose multiplications they meet, overlap listing (index, left
    derivative, row multiplication) where both are nonzero; each entry is
    filled on first use.  Both are kept, which is sound because a WeylOp
    is never mutated; they describe op alone."""
    try:
        return op._view
    except AttributeError:
        pass
    rows = [(z, d, _items(z), _items(d), c.re if not c.im else c) for (z, d), c in op.terms.items()]
    op._view = rows, {}
    return op._view


def _overlap(lower, z):
    """(i, x, z[i]) for each left derivative (i, x) that meets a multiplication of z."""
    return [(i, x, z[i]) for i, x in lower if z[i]]


def _gauss_values(out: dict) -> dict:
    """Wrap the kernel's plain coefficients in out back to GaussRat, in place."""
    for key, c in out.items():
        if type(c) is not GaussRat:
            out[key] = _gauss(c, 0)
    return out


def _compose_into(out: dict, left: WeylOp, right: WeylOp, contracted_only: bool, sign: int):
    """Add sign * (left @ right) into out and return it, its values plain
    where both rows' coefficients are; see WeylOp.__matmul__.

    contracted_only drops the j = 0 term of every term pair: a pair whose
    left derivatives meet no right multiplication has no other term, so
    a left term visits only the rows right's contraction index lists for it.
    A pair that overlaps in one index i runs j over one range, with weight
    C(x, j) C(y, j) j! = perm(x, j) C(y, j); more indices take the product
    of their ranges.
    """
    rows_b, contractions = _weyl_view(right)
    for za, da, _, lower, ca in _weyl_view(left)[0]:
        if contracted_only:
            partners = contractions.get(da)
            if partners is None:
                partners = contractions[da] = [
                    (r, _overlap(lower, r[0])) for r in rows_b if any(r[0][i] for i, _ in lower)
                ]
        else:
            partners = [(r, _overlap(lower, r[0])) for r in rows_b]
        for (zb, db, raise_b, _, cb), overlap in partners:
            znew = list(za)
            for i, x in raise_b:
                znew[i] += x
            dnew = list(db)
            for i, x in lower:
                dnew[i] += x
            base = ca * cb
            if len(overlap) == 1:
                (i, x, y), = overlap
                zi, di = znew[i], dnew[i]
                for j in range(contracted_only, min(x, y) + 1):
                    scale = sign * perm(x, j) * comb(y, j)
                    znew[i], dnew[i] = zi - j, di - j
                    add_into(out, (tuple(znew), tuple(dnew)), base if scale == 1 else base * scale)
                continue
            ranges = [range(min(x, y) + 1) for _, x, y in overlap]
            # product() yields the all-zero js first (the only js when
            # nothing overlaps); islice drops it when asked.
            for js in _islice(_iterproduct(*ranges), contracted_only, None):
                scale = sign
                zj = znew[:]
                dj = dnew[:]
                for (i, x, y), j in zip(overlap, js):
                    if j:
                        scale *= comb(x, j) * comb(y, j) * factorial(j)
                        zj[i] -= j
                        dj[i] -= j
                add_into(out, (tuple(zj), tuple(dj)), base if scale == 1 else base * scale)
    return out


def weyl_commutator(a: WeylOp, b: WeylOp) -> WeylOp:
    """[a, b] from contracted terms only: the j = 0 term of a term pair in
    a @ b equals that of the swapped pair in b @ a, so the two cancel."""
    a._require_same_shape(b)
    out = _compose_into({}, a, b, True, 1)
    return WeylOp._new(a.shape, _gauss_values(_compose_into(out, b, a, True, -1)))


# Generators are built once per rank and shared: a WeylOp is never mutated,
# so its term index (_weyl_view) then serves every later query.  Typed: a
# bool rank never reads its int's entry.
_GENERATOR_MEMO = 1 << 5


@lru_cache(maxsize=_GENERATOR_MEMO, typed=True)
def sl2_generators(k: int):
    """The ladder triple (E, X+, X-) = (E_11, -P_11/2, D_11/2) of the rank-1
    oscillator algebra on one row of k variables, shared by every call."""
    fam = _sp2n_family(1, k)
    half = Fraction(1, 2)
    return fam["E"][(1, 1)], fam["P"][(1, 1)] * -half, fam["D"][(1, 1)] * half


def sp2n_generators(n: int, k: int):
    """Generators {E_ab, P_ab, D_ab} of the rank-n oscillator algebra.

    E_ab = sum_i Z_ai d_bi + (k/2) delta_ab, P_ab = -sum_i Z_ai Z_bi,
    D_ab = sum_i d_ai d_bi; P and D are symmetric in their indices.
    The dicts are new on every call; the operators in them are shared.
    """
    return _fresh(_sp2n_family(n, k))


def _fresh(fam):
    return {name: dict(ops) for name, ops in fam.items()}


@lru_cache(maxsize=_GENERATOR_MEMO, typed=True)
def _sp2n_family(n, k):
    _require_positive("the oscillator algebra", n=n, k=k)
    shape = FockShape(n, k)
    nv = shape.nvars
    zero = (0,) * nv
    fam = {"E": {}, "P": {}, "D": {}}
    for a in range(1, n + 1):
        for b in range(1, n + 1):
            terms = {(zero, zero): GaussRat(Fraction(k, 2))} if a == b else {}
            for i in range(1, k + 1):
                key = (_unit(nv, shape.z_index(a, i)), _unit(nv, shape.z_index(b, i)))
                terms[key] = GaussRat(1)
            fam["E"][(a, b)] = WeylOp(shape, terms)
    for a in range(1, n + 1):
        for b in range(a, n + 1):
            quad = _row_pairing(shape, a - 1, b - 1)
            fam["P"][(a, b)] = fam["P"][(b, a)] = -WeylOp.multiplication(quad)
            fam["D"][(a, b)] = fam["D"][(b, a)] = WeylOp.differential(quad)
    return fam


def _row_pairing(shape: FockShape, r: int, s: int) -> FockPoly:
    """The quadratic sum_i x_ri x_si of block rows r and s, counted from 0
    over the Z rows and then the W rows."""
    nv, cols = shape.nvars, shape.cols
    terms = {}
    for i in range(cols):
        mono = [0] * nv
        mono[r * cols + i] += 1
        mono[s * cols + i] += 1
        terms[tuple(mono)] = GaussRat(1)
    return FockPoly._new(shape, terms)


def supq_laplacians(p: int, q: int, k: int):
    """Invariant quadratics p_ab = sum_i Z_ai W_bi and their Laplacians.

    The dicts are new on every call; the operators in them are shared.
    """
    return _fresh(_supq_family(p, q, k))


@lru_cache(maxsize=_GENERATOR_MEMO, typed=True)
def _supq_family(p, q, k):
    _require_positive("the u(p,q) quadratics", p=p, q=q, k=k)
    shape = FockShape(p, k, q)
    fam = {"p": {}, "delta": {}}
    for a in range(1, p + 1):
        for b in range(1, q + 1):
            quad = _row_pairing(shape, a - 1, p + b - 1)
            fam["p"][(a, b)] = WeylOp.multiplication(quad)
            fam["delta"][(a, b)] = WeylOp.differential(quad)
    return fam


def _require_positive(algebra: str, least=1, **ranks):
    for name, value in ranks.items():
        if type(value) is bool or not isinstance(value, int) or value < least:
            raise RankTooSmall(f"{algebra} needs {name} >= {least}, got {name}={value}")


def _relations_hold(relations) -> tuple[int, bool]:
    """(row count, all hold) for rows (x, y, pieces): [x, y] = sum of coeff * op
    over the pieces, 0 if none.  Each distinct (x, y) commutator is computed
    once per call, by operator identity; every row runs, even after a failure.
    The expected side sums the plain coefficients of the pieces' rows, and
    GaussRat equality compares the bracket's values with them."""
    brackets: dict = {}
    ok = True
    for x, y, pieces in relations:
        key = (id(x), id(y))
        got = brackets.get(key)
        if got is None:
            got = brackets[key] = weyl_commutator(x, y).terms
        if not pieces:
            ok &= not got
            continue
        want: dict = {}
        for coeff, op in pieces:
            if coeff:
                for z, d, _, _, c in _weyl_view(op)[0]:
                    add_into(want, (z, d), c if coeff == 1 else c * coeff)
        ok &= got == want
    return len(relations), ok


def verify_sl2(k: int) -> tuple[int, bool]:
    """Check the three ladder relations at rank k on the integer generators:
    [E, P] = 2P, [E, D] = -2D and [P, D] = 4E are those of the ladder triple
    (E, -P/2, D/2) times nonzero constants, so they decide the same thing."""
    fam = _sp2n_family(1, k)
    e, p, d = fam["E"][1, 1], fam["P"][1, 1], fam["D"][1, 1]
    return _relations_hold([(e, p, [(2, p)]), (e, d, [(-2, d)]), (p, d, [(4, e)])])


def verify_sp2n(n: int, k: int) -> tuple[int, bool]:
    """Check every index instance of the six commutation relation families."""
    fam = _sp2n_family(n, k)
    e, p, d = fam["E"], fam["P"], fam["D"]
    rows = []
    for a, b, c, f in _iterproduct(range(1, n + 1), repeat=4):
        # Kronecker deltas as int coefficients; [P, D]'s E-indices are forced
        # by the E_ab = sum_i Z_ai d_bi convention the first three pin down.
        rows += [
            (e[a, b], e[c, f], [(int(b == c), e[a, f]), (-(a == f), e[c, b])]),
            (e[a, b], p[c, f], [(int(b == c), p[a, f]), (int(b == f), p[a, c])]),
            (e[a, b], d[c, f], [(-(a == c), d[b, f]), (-(a == f), d[b, c])]),
            (p[a, b], d[c, f], [(int(a == c), e[b, f]), (int(a == f), e[b, c]),
                                (int(b == c), e[a, f]), (int(b == f), e[a, c])]),
            (p[a, b], p[c, f], []),
            (d[a, b], d[c, f], []),
        ]
    return _relations_hold(rows)


def verify_supq(p: int, q: int, k: int) -> tuple[int, bool]:
    """Check that the invariant quadratics and Laplacians each commute."""
    fam = _supq_family(p, q, k)
    mult, lap = fam["p"], fam["delta"]
    rows = []
    for x, y in _iterproduct(mult, repeat=2):
        rows += [(mult[x], mult[y], []), (lap[x], lap[y], [])]
    return _relations_hold(rows)


def radial_square(k: int) -> FockPoly:
    """The invariant quadratic sum of Z_i^2 on one row of k variables."""
    _require_positive("the radial square", least=0, k=k)
    return _row_pairing(FockShape(1, k), 0, 0)


def harmonic_project_rank1(f: FockPoly, k: int):
    """Split a homogeneous f into sum_j p0^j h_j with every h_j harmonic.

    Works top down: the deepest component is isolated by iterating the
    Laplacian D_11 = sum_i d_i^2 = 2 X-, whose j-th power sends p0^j h
    (h harmonic of degree r) to const * h with
    const = prod_{t<=j} 2t*(k + 2*(r + t - 1)).  The remainder is kept
    times a running integer scale, so integer inputs stay on ints until
    each component is divided once, when it is emitted; the result is
    exact.
    """
    _require_positive("harmonic projection", least=0, k=k)
    shape = FockShape(1, k)
    if f.shape != shape:
        raise ShapeMismatch(f"expected one row of {k} variables, got {f.shape}")
    if f.is_zero():
        return []
    if not f.is_homogeneous():
        raise NotHomogeneous("harmonic projection needs a homogeneous input")
    m = f.degree()
    if m < 2:
        # Already harmonic; this also serves k = 0, which has no ladder triple.
        return [(0, f)]
    laplacian = _sp2n_family(1, k)["D"][(1, 1)]
    p0 = radial_square(k)
    # The remainder still to split is work / scale.
    work = f
    scale = 1
    components = []
    for j in range(m // 2, -1, -1):
        r = m - 2 * j
        g = work
        for _ in range(j):
            g = laplacian.apply(g)
        if g.is_zero():
            continue
        const = 1
        for t in range(1, j + 1):
            const *= 2 * t * (k + 2 * (r + t - 1))
        scale *= const
        # The one division of each term, part by part.
        h = {e: _gauss(Fraction(c.re, scale), Fraction(c.im, scale)) for e, c in g.terms.items()}
        components.append((j, FockPoly._new(shape, h)))
        work = const * work - (p0 ** j) * g
    if not work.is_zero():
        raise ReconstructionFailed("harmonic components do not rebuild the input")
    return sorted(components)


def _isotropic(shape: FockShape, r: int, c: int) -> FockPoly:
    """Entry (r, c) of Z q, counted from 0: z_rc + i z_rc' with
    c' = k//2 + c + k%2.

    Column c < k//2 of the isotropic frame q is e_c + i e_c', rescaled,
    which is harmless: principal minors of Z q then only scale by
    constants, and highest weight vectors are defined up to scalars.
    """
    k, nv = shape.cols, shape.nvars
    first = r * k + c
    return FockPoly._new(
        shape, {_unit(nv, first): GaussRat(1), _unit(nv, first + k // 2 + k % 2): I_UNIT}
    )


def _minor_product(entry, sig, shape):
    """Product over i of (i-th principal minor)^(sig[i-1] - sig[i])."""
    one = FockPoly.constant(shape, 1)
    out = one
    for size, (part, below) in enumerate(zip(sig, sig[1:] + (0,)), 1):
        if part != below:
            minor = leibniz_det([[entry(r, c) for c in range(size)] for r in range(size)], one)
            out = out * minor ** (part - below)
    return out


def hwv(kind: str, data, n, k: int) -> FockPoly:
    """Highest weight vectors of the dual-pair modules.

    kind "gl": data is a signature, vector is a product of principal
    minors of Z.  kind "so_rank1": data is a degree r and n is 1, vector
    is the r-th power of an isotropic linear form.  kind "so_general":
    data is a signature, vector is a product of principal minors of Z*q
    for the isotropic frame q.  kind "upq": data is a pair (nu, lam) and
    n a pair (p, q); vector is the product of Z-minors for nu and
    reversed W-minors for the contragredient lam.  A rank below 1 that
    passes the signature checks raises RankTooSmall.
    """
    if kind == "gl":
        lam = canonicalize(data)
        if len(lam) > n or len(lam) > k:
            raise BadSignature(f"signature {list(lam)} needs n, k >= {len(lam)}")
        _require_positive("highest weight vectors", n=n, k=k)
        shape = FockShape(n, k)
        return _minor_product(lambda r, c: z_var(shape, r + 1, c + 1), lam, shape)
    if kind == "so_rank1":
        sig = (data,) if isinstance(data, int) else canonicalize(data)
        if len(sig) > 1:
            raise BadSignature(f"signature {list(sig)} has more than one part")
        r = sig[0] if sig else 0
        if r < 0:
            raise BadSignature(f"degree must be nonnegative, got {r}")
        if r and k < 2:
            raise BadSignature("isotropic vectors need k >= 2")
        if n != 1:
            raise BadSignature(f"an isotropic linear form needs n = 1, got n={n}")
        _require_positive("highest weight vectors", n=n, k=k)
        shape = FockShape(1, k)
        return _isotropic(shape, 0, 0) ** r if r else FockPoly.constant(shape, 1)
    if kind == "so_general":
        mu = canonicalize(data)
        if len(mu) > n:
            raise BadSignature(f"signature {list(mu)} needs n >= {len(mu)}")
        if 2 * len(mu) > k:
            raise BadSignature(
                f"signature {list(mu)} needs {2 * len(mu)} <= k, got k={k}"
            )
        _require_positive("highest weight vectors", n=n, k=k)
        shape = FockShape(n, k)
        return _minor_product(lambda r, c: _isotropic(shape, r, c), mu, shape)
    if kind == "upq":
        if len(data) != 2 or len(n) != 2:
            raise BadSignature("upq needs data = (nu, lam) and n = (p, q)")
        nu_sig, lam_sig = data
        p, q = n
        nu_sig = canonicalize(nu_sig)
        lam_sig = canonicalize(lam_sig)
        if len(nu_sig) > p or len(lam_sig) > q:
            raise BadSignature("signatures must fit the (p, q) block sizes")
        if len(nu_sig) + len(lam_sig) > k:
            raise BadSignature("blocks overlap: need len(nu) + len(lam) <= k")
        _require_positive("highest weight vectors", p=p, q=q, k=k)
        shape = FockShape(p, k, q)
        left = _minor_product(lambda r, c: z_var(shape, r + 1, c + 1), nu_sig, shape)
        # Reversed block: entry (a, b) of the flipped W matrix.
        right = _minor_product(lambda r, c: w_var(shape, q - r, k - c), lam_sig, shape)
        return left * right
    raise BadSignature(f"unknown highest weight vector kind {kind!r}")


def check_covariance(f: FockPoly, side: str, exponents, seed: int = 0) -> bool:
    """Decide Borel covariance of f with the polarization operators.

    side "left_lower" asks whether f(B Z) = F f for every invertible
    lower-triangular B acting on the row index (W is fixed); side
    "right_upper" whether f(Z B) = F f, W too moving as W B, for every
    upper-triangular B on the column index.  F is the product of the
    diagonal entries of B to the exponents.  A False return is a result,
    not an error.  Negative exponents raise BadSignature.  `seed` changes
    nothing; it is accepted because callers that once sampled random
    matrices, the benchmark workloads among them, still pass it.

    The Borel group is connected and f is a polynomial, so covariance is
    its infinitesimal form (R. Howe, "Remarks on classical invariant
    theory", Trans. AMS 313 (1989) 539-570): the torus gives the degree
    condition, every term of degree e_a in Z-row a (left) or e_j in
    column j over the Z and W rows (right); the unipotent radical gives
    L_ab f = 0 for a > b (L_ab = sum_i z_bi d/dz_ai on rows, sum_r z_rb
    d/dz_ra on columns), checked at b = a - 1 only: those generate the
    strictly triangular algebra, and L f = L' f = 0 gives [L, L'] f = 0.
    Real and imaginary parts are summed apart, so no GaussRat is built.
    """
    if f.is_zero():
        raise ValueError("covariance of the zero polynomial is vacuous")
    shape = f.shape
    size = shape.rows if side == "left_lower" else shape.cols
    if side not in ("left_lower", "right_upper"):
        raise ValueError(f"unknown side {side!r}")
    exponents = tuple(exponents)
    if len(exponents) > size:
        raise BadSignature(f"{len(exponents)} exponents for {size} diagonal entries")
    if any(x < 0 for x in exponents):
        raise BadSignature("covariance exponents must be nonnegative")
    exponents = exponents + (0,) * (size - len(exponents))
    cols = shape.cols
    # groups[a] lists the variables of index a: Z-row a, or column a over Z and W.
    if side == "left_lower":
        groups = [range(a * cols, (a + 1) * cols) for a in range(size)]
    else:
        groups = [range(a, shape.nvars, cols) for a in range(size)]
    for e in f.terms:
        for group, x in zip(groups, exponents):
            if sum(e[v] for v in group) != x:
                return False
    return all(_annihilates(f, list(zip(groups[a], groups[a - 1]))) for a in range(1, size))


def _annihilates(f: FockPoly, moves) -> bool:
    """Whether sum z_v d/dz_u over the (u, v) moves kills f."""
    re_part: dict = {}
    im_part: dict = {}
    for e, c in f.terms.items():
        for u, v in moves:
            x = e[u]
            if x:
                new = list(e)
                new[u] -= 1
                new[v] += 1
                key = tuple(new)
                if c.re:
                    re_part[key] = re_part.get(key, 0) + c.re * x
                if c.im:
                    im_part[key] = im_part.get(key, 0) + c.im * x
    return not any(re_part.values()) and not any(im_part.values())


def translate(f: FockPoly, g, side: str = "right") -> FockPoly:
    """Exact substitution action of a matrix on the variable matrix.

    side "right" computes f(Z g) (columns transform, every block row);
    side "left_transpose" computes f(g^t Z) (Z rows transform).
    """
    if side not in ("right", "left_transpose"):
        raise ValueError(f"unknown side {side!r}")
    shape = f.shape
    cols, nv = shape.cols, shape.nvars
    size = cols if side == "right" else shape.rows
    if len(g) != size or any(len(row) != size for row in g):
        raise DimensionMismatch(f"need a {size}x{size} matrix")
    m = [[GaussRat.coerce(x) for x in row] for row in g]
    # Variable (row, i) maps to sum_t g[t][i] (row, t) on the right, and
    # for a Z row to sum_t g[t][row] (t, i) on the left; W stays fixed there.
    images = {}
    for idx in range(nv if side == "right" else shape.rows * cols):
        row, i = divmod(idx, cols)
        if side == "right":
            pairs = ((row * cols + t, m[t][i]) for t in range(cols))
        else:
            pairs = ((t * cols + i, m[t][row]) for t in range(size))
        images[idx] = FockPoly._new(shape, {_unit(nv, v): c for v, c in pairs if c})
    return f.substitute(images)


_VAR_RE = _re.compile(r"^([ZW])\[(\d+)\]\[(\d+)\](?:\^(\d+))?$")


def render_poly(f: FockPoly) -> str:
    """Canonical text form: sum of coef * Z[a][i]^e * W[b][j]^e terms."""
    if f.is_zero():
        return "0"
    bits = []
    for e, c in sorted(f.terms.items(), reverse=True):
        coeff = str(c)
        if c.re and c.im:
            coeff = f"({coeff})"
        bits.append(" * ".join([coeff, *f.shape.monomial(e)]))
    return " + ".join(bits)


def _split_top_level(text, seps):
    depth = 0
    pieces = []
    start = 0
    for pos, ch in enumerate(text):
        if ch in "([":
            depth += 1
        elif ch in ")]":
            depth -= 1
        elif (
            ch in seps
            and depth == 0
            and pos > start
            and text[pos - 1] not in "+-*/^"
        ):
            pieces.append(text[start:pos])
            start = pos
    pieces.append(text[start:])
    return pieces


def parse_poly(text: str, shape: FockShape | None = None) -> FockPoly:
    """Parse polynomial text: terms joined by + or -, each a * product of
    coefficients (2, -1/3, i, (1/2-i)) and variables Z[a][i]^e, W[b][i]^e.

    The first reading strips every term's signs and matches its
    variables; it gives the extent, the smallest shape (at least 1 x 1)
    covering them, used when no shape is supplied.  The second reading,
    term by term, parses each coefficient and checks each variable
    against the shape.  So a dangling sign anywhere is the first
    ValueError, then coefficient and shape errors come in text order.
    """
    squeezed = text.replace(" ", "")
    if not squeezed:
        raise ValueError("empty polynomial text")
    terms = []
    extent = {"Z": 1, "W": 0, "col": 1}
    for piece in _split_top_level(squeezed, "+-"):
        body = piece.lstrip("+-")
        if not body:
            raise ValueError(f"dangling sign in {text!r}")
        factors = []
        for tok in _split_top_level(body, "*"):
            tok = tok.lstrip("*")
            m = _VAR_RE.match(tok)
            if m:
                tok = (m[1], int(m[2]), int(m[3]), int(m[4] or 1))
                extent[m[1]] = max(extent[m[1]], tok[1])
                extent["col"] = max(extent["col"], tok[2])
            factors.append(tok)
        sign = piece.count("-", 0, len(piece) - len(body)) % 2
        terms.append((GaussRat(-1 if sign else 1), factors))
    shape = shape or FockShape(extent["Z"], extent["col"], extent["W"])
    out: dict = {}
    for coeff, factors in terms:
        found = []
        for tok in factors:
            if isinstance(tok, str):
                inner = tok[1:-1] if tok.startswith("(") and tok.endswith(")") else tok
                coeff = coeff * parse_gauss(inner)
            else:
                block, row, col, power = tok
                found.append(((shape.z_index if block == "Z" else shape.w_index)(row, col), power))
        if coeff:
            exps = [0] * shape.nvars
            for idx, power in found:
                exps[idx] += power
            add_into(out, tuple(exps), coeff)
    return FockPoly._new(shape, out)
