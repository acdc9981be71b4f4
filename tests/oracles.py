"""Independent brute-force oracles used to freeze expected test values.

Nothing here shares code with the package: LR coefficients come from
enumerating every raw filling of the skew diagram, U(k) characters and
dimensions from a standalone tableau enumerator, dimensions also from
Weyl's product over the positive roots, conjugate diagrams from counting parts, the
rank-1 stable branching from its closed form, quadratic operator identities from
ad-matrices read off the term maps, Weyl compositions from every term
pair index by index, the oscillator generators from term maps written
monomial by monomial, operator conjugation from expanding
linear forms, Borel covariance from rational and from doubled integer
substitution on plain dicts, the harmonic projection from lowering
with X- on Fractions, the SO highest weight vectors from an explicit
isotropic frame matrix and Leibniz minors, and SO characters from Weyl
alternant ratios by exact Laurent division, so agreement is meaningful.
"""

import random
from fractions import Fraction
from itertools import permutations, product
from math import comb, factorial
from operator import add


def skew_cells(nu, lam):
    lamp = list(lam) + [0] * (len(nu) - len(lam))
    return [(r, c) for r in range(len(nu)) for c in range(lamp[r], nu[r])], lamp


def brute_lr(lam, mu, nu):
    """Count LR tableaux by filtering every possible filling."""
    if sum(lam) + sum(mu) != sum(nu):
        return 0
    cells, lamp = skew_cells(nu, lam)
    if any(a > b for a, b in zip(lam, nu)) or len(lam) > len(nu):
        return 0
    nvals = len(mu)
    if not cells:
        return 1 if not mu else 0
    count = 0
    for filling in product(range(1, nvals + 1), repeat=len(cells)):
        grid = {}
        for (r, c), v in zip(cells, filling):
            grid[(r, c)] = v
        content = [0] * nvals
        for v in filling:
            content[v - 1] += 1
        if content != list(mu):
            continue
        ok = True
        for (r, c), v in grid.items():
            if (r, c + 1) in grid and grid[(r, c + 1)] < v:
                ok = False
                break
            if (r + 1, c) in grid and grid[(r + 1, c)] <= v:
                ok = False
                break
        if not ok:
            continue
        word = []
        for r in range(len(nu)):
            for c in range(nu[r] - 1, lamp[r] - 1, -1):
                if (r, c) in grid:
                    word.append(grid[(r, c)])
        seen = [0] * (nvals + 1)
        for v in word:
            seen[v] += 1
            if v > 1 and seen[v] > seen[v - 1]:
                ok = False
                break
        if ok:
            count += 1
    return count


def ssyt_contents(shape, k):
    """Yield the content (counts of 1..k) of every semistandard tableau of
    the shape with entries <= k: its weight in the U(k) character."""
    cells = [(r, c) for r in range(len(shape)) for c in range(shape[r])]
    grid = {}
    content = [0] * k

    def fill(idx):
        if idx == len(cells):
            yield tuple(content)
            return
        r, c = cells[idx]
        lo = max(grid.get((r, c - 1), 1), grid.get((r - 1, c), 0) + 1)
        for v in range(lo, k + 1):
            grid[(r, c)] = v
            content[v - 1] += 1
            yield from fill(idx + 1)
            content[v - 1] -= 1

    yield from fill(0)


def count_ssyt(shape, k):
    """Number of semistandard tableaux of the shape with entries <= k."""
    return sum(1 for _ in ssyt_contents(shape, k))


def weyl_root_dim(family, k, sig):
    """Weyl's dimension formula: prod <lam + rho, a> / <rho, a> over the positive roots a.

    For U(k) the roots are e_i - e_j (i < j <= k) on lam padded to length k.
    For Sp(k) and SO(k), with m = k // 2, they are e_i -+ e_j (i < j <= m) and
    the long or short roots 2e_i or e_i: in a = lam + rho each pair gives
    a_i^2 - a_j^2 and, except for SO(2m), each i gives a_i.  Type B doubles
    lam and rho to keep rho integral.  Returns a Fraction, so a wrong setup
    shows as a non-integer rather than a silent floor.
    """
    if family == "u":
        lam = list(sig) + [0] * (k - len(sig))
        num = den = 1
        for i in range(k):
            for j in range(i + 1, k):
                num *= lam[i] - lam[j] + j - i
                den *= j - i
        return Fraction(num, den)
    m = k // 2
    scale = 2 if family == "so" and k % 2 else 1
    rho = [scale * (m - i) - (1 if family == "so" else 0) for i in range(m)]
    a = [scale * part + r for part, r in zip(list(sig) + [0] * (m - len(sig)), rho)]
    num = den = 1
    if family == "sp" or k % 2:
        for x, r in zip(a, rho):
            num *= x
            den *= r
    for i in range(m):
        for j in range(i + 1, m):
            num *= a[i] ** 2 - a[j] ** 2
            den *= rho[i] ** 2 - rho[j] ** 2
    return Fraction(num, den)


def conjugate(sig):
    """Transpose the Young diagram: the LR conjugation-symmetry oracle."""
    return tuple(sum(1 for part in sig if part > i) for i in range(sig[0] if sig else 0))


def branch_rank1_closed_form(m):
    """The stable SO branching of (m): one copy of each (m - 2i)."""
    return {(m - 2 * i,) if m - 2 * i else (): 1 for i in range(m // 2 + 1)}


def invert_exponent(terms, i):
    """A Laurent term map under x_i -> 1/x_i: exponent i negated."""
    return {e[:i] + (-e[i],) + e[i + 1:]: c for e, c in terms.items()}


# Gaussian rationals as plain (Fraction, Fraction) pairs: the reference
# the package's int-first GaussRat must agree with, part for part.


def gauss_ref(re, im=0):
    return (Fraction(re), Fraction(im))


def gauss_add(a, b):
    return (a[0] + b[0], a[1] + b[1])


def gauss_sub(a, b):
    return (a[0] - b[0], a[1] - b[1])


def gauss_mul(a, b):
    return (a[0] * b[0] - a[1] * b[1], a[0] * b[1] + a[1] * b[0])


def gauss_div(a, b):
    norm = b[0] * b[0] + b[1] * b[1]
    return ((a[0] * b[0] + a[1] * b[1]) / norm, (a[1] * b[0] - a[0] * b[1]) / norm)


def gauss_conj(a):
    return (a[0], -a[1])


def gauss_str(a):
    re, im = a
    if not im:
        return str(re)
    if not re:
        return f"{im}*i"
    if im < 0:
        return f"{re}-{-im}*i"
    return f"{re}+{im}*i"


# Rank-by-rank probing: the search the stable engine's proven ranks must
# reproduce.  compute_at(k) returns a plain {signature: mult} dict.

PROBE_CAP = 32


class ProbeCapReached(Exception):
    """The probe loop ran PROBE_CAP ranks past its start without stabilizing."""


def probe_until_stable(compute_at, k_start, confirm=2, step=1):
    """Probe k_start, k_start + step, ... until `confirm` equal answers in a row.

    Returns (stable terms, k0, [(k, terms), ...]) where k0 is the first
    rank of the final run of equal answers.
    """
    if confirm < 1:
        raise ValueError("confirm must be at least 1")
    probes = []
    run_start, run_length = None, 0
    for k in range(k_start, k_start + PROBE_CAP + 1, step):
        terms = compute_at(k)
        if probes and terms == probes[-1][1]:
            run_length += 1
        else:
            run_start, run_length = k, 1
        probes.append((k, terms))
        if run_length >= confirm:
            return terms, run_start, probes
    raise ProbeCapReached(f"no stable answer within {PROBE_CAP} ranks from {k_start}")


# Quadratic Weyl operators through their adjoint action (R. Howe, "Remarks
# on classical invariant theory", Trans. AMS 313 (1989) 539-570).  For X, Y
# of degree <= 2 in the z_i and d_i, X = Y exactly when ad_X = ad_Y on
# span{z_i, d_i, 1} and X.1 = Y.1, since the centre of the Weyl algebra is
# the scalars.  ad is a Lie homomorphism, so ad_[X,Y] = [ad_X, ad_Y]: a
# relation [X, Y] = R is decided without composing operators.  Only the
# shapes and term maps of the operators are read, the coefficients as
# (Fraction, Fraction) pairs.

ZERO = gauss_ref(0)


def _accumulate(out, key, c):
    total = gauss_add(out.get(key, ZERO), c)
    if total == ZERO:
        out.pop(key, None)
    else:
        out[key] = total


def _quadratic_terms(op):
    """{(z, d): (re, im)} for a WeylOp of total degree <= 2."""
    terms = {}
    for (z, d), c in op.terms.items():
        if sum(z) + sum(d) > 2:
            raise ValueError("the ad-matrix oracle needs quadratic operators")
        terms[(tuple(z), tuple(d))] = gauss_ref(c.re, c.im)
    return terms


def _linear_basis(z, d):
    """The basis vector ("z", i), ("d", i) or ("1", 0) of a monomial of degree <= 1."""
    for kind, e in (("z", z), ("d", d)):
        for i, x in enumerate(e):
            if x:
                return (kind, i)
    return ("1", 0)


def ad_matrix(op):
    """ad_X on span{z_i, d_i, 1} as {(image vector, basis vector): coefficient}."""
    m = {}
    for (z, d), c in _quadratic_terms(op).items():
        for i in range(len(z)):
            if d[i]:  # [z^a d^b, z_i] = b_i z^a d^(b - e_i)
                lowered = d[:i] + (d[i] - 1,) + d[i + 1:]
                _accumulate(m, (_linear_basis(z, lowered), ("z", i)), gauss_mul(gauss_ref(d[i]), c))
            if z[i]:  # [z^a d^b, d_i] = -a_i z^(a - e_i) d^b
                lowered = z[:i] + (z[i] - 1,) + z[i + 1:]
                _accumulate(m, (_linear_basis(lowered, d), ("d", i)), gauss_mul(gauss_ref(-z[i]), c))
    return m


def _matrix_product(m1, m2):
    out = {}
    for (row, mid), a in m1.items():
        for (mid2, col), b in m2.items():
            if mid == mid2:
                _accumulate(out, (row, col), gauss_mul(a, b))
    return out


def _vacuum_apply(op, poly):
    """Apply a quadratic operator to {z exponents: (re, im)} by differentiating."""
    out = {}
    for (z, d), c in _quadratic_terms(op).items():
        for e, a in poly.items():
            if any(x < y for x, y in zip(e, d)):
                continue
            fall = 1
            for x, y in zip(e, d):
                for t in range(y):
                    fall *= x - t
            new = tuple(x - y + w for x, y, w in zip(e, d, z))
            _accumulate(out, new, gauss_mul(gauss_ref(fall), gauss_mul(c, a)))
    return out


def _combination(pieces):
    """sum of c * m over (c, m) pairs of sparse dicts."""
    out = {}
    for c, m in pieces:
        for key, value in m.items():
            _accumulate(out, key, gauss_mul(gauss_ref(c), value))
    return out


def quadratic_relation_holds(x, y, rhs):
    """Decide [x, y] = sum(c * g for c, g in rhs) for quadratic WeylOps.

    rhs is a list of (rational coefficient, WeylOp) pairs; an empty list
    asks whether x and y commute.
    """
    one = {(0,) * x.shape.nvars: gauss_ref(1)}
    mx, my = ad_matrix(x), ad_matrix(y)
    ad_lhs = _combination([(1, _matrix_product(mx, my)), (-1, _matrix_product(my, mx))])
    ad_rhs = _combination([(c, ad_matrix(g)) for c, g in rhs])
    vac_lhs = _combination([
        (1, _vacuum_apply(x, _vacuum_apply(y, one))),
        (-1, _vacuum_apply(y, _vacuum_apply(x, one))),
    ])
    vac_rhs = _combination([(c, _vacuum_apply(g, one)) for c, g in rhs])
    return ad_lhs == ad_rhs and vac_lhs == vac_rhs


# Weyl compositions over every term pair, in plain dicts: per index,
# d^p z^q = sum_j C(p, j) C(q, j) j! z^(q - j) d^(p - j), with j running over
# every index whether or not it overlaps.  Only the term maps are read, the
# coefficients as (Fraction, Fraction) pairs.


def weyl_terms(op):
    """{(z, d): (re, im)} for every term of a WeylOp."""
    return {key: gauss_ref(c.re, c.im) for key, c in op.terms.items()}


def weyl_compose(a, b):
    """a @ b of two WeylOps as {(z, d): (re, im)}."""
    out = {}
    for (za, da), ca in weyl_terms(a).items():
        for (zb, db), cb in weyl_terms(b).items():
            base = gauss_mul(ca, cb)
            for js in product(*(range(min(p, q) + 1) for p, q in zip(da, zb))):
                weight = 1
                for p, q, j in zip(da, zb, js):
                    weight *= comb(p, j) * comb(q, j) * factorial(j)
                key = (
                    tuple(x + y - j for x, y, j in zip(za, zb, js)),
                    tuple(x + y - j for x, y, j in zip(da, db, js)),
                )
                _accumulate(out, key, gauss_mul(gauss_ref(weight), base))
    return out


def weyl_bracket(a, b):
    """[a, b] = a @ b - b @ a of two WeylOps as {(z, d): (re, im)}."""
    return _combination([(1, weyl_compose(a, b)), (-1, weyl_compose(b, a))])


# The oscillator generators as explicit term maps {(z, d): (re, im)},
# written monomial by monomial rather than from the one shared quadratic
# that the package builds them from.


def _mono(nvars, *indices):
    e = [0] * nvars
    for i in indices:
        e[i] += 1
    return tuple(e)


def sl2_terms(k):
    """(E, X+, X-) on one row of k variables."""
    zero = (0,) * k
    e = {(zero, zero): gauss_ref(Fraction(k, 2))}
    e.update({(_mono(k, i), _mono(k, i)): gauss_ref(1) for i in range(k)})
    xp = {(_mono(k, i, i), zero): gauss_ref(Fraction(1, 2)) for i in range(k)}
    xm = {(zero, _mono(k, i, i)): gauss_ref(Fraction(1, 2)) for i in range(k)}
    return e, xp, xm


def sp2n_terms(n, k):
    """{"E", "P", "D"} of the rank-n oscillator algebra on n rows of k variables."""
    nv = n * k
    zero = (0,) * nv
    fam = {"E": {}, "P": {}, "D": {}}
    for a, b in product(range(n), repeat=2):
        e = {(zero, zero): gauss_ref(Fraction(k, 2))} if a == b else {}
        e.update({(_mono(nv, a * k + i), _mono(nv, b * k + i)): gauss_ref(1) for i in range(k)})
        quads = [_mono(nv, a * k + i, b * k + i) for i in range(k)]
        fam["E"][(a + 1, b + 1)] = e
        fam["P"][(a + 1, b + 1)] = {(m, zero): gauss_ref(-1) for m in quads}
        fam["D"][(a + 1, b + 1)] = {(zero, m): gauss_ref(1) for m in quads}
    return fam


def supq_terms(p, q, k):
    """{"p", "delta"}: sum_i Z_ai W_bi and its Laplacian, on p Z rows and q W rows."""
    nv = (p + q) * k
    zero = (0,) * nv
    fam = {"p": {}, "delta": {}}
    for a, b in product(range(p), range(q)):
        quads = [_mono(nv, a * k + i, (p + b) * k + i) for i in range(k)]
        fam["p"][(a + 1, b + 1)] = {(m, zero): gauss_ref(1) for m in quads}
        fam["delta"][(a + 1, b + 1)] = {(zero, m): gauss_ref(1) for m in quads}
    return fam


def matrix_inverse(g):
    """Inverse of a square matrix of rationals, by Gauss-Jordan elimination."""
    size = len(g)
    aug = [
        [Fraction(x) for x in row] + [Fraction(int(i == j)) for j in range(size)]
        for i, row in enumerate(g)
    ]
    for col in range(size):
        pivot = next(r for r in range(col, size) if aug[r][col])
        aug[col], aug[pivot] = aug[pivot], aug[col]
        lead = aug[col][col]
        aug[col] = [x / lead for x in aug[col]]
        for r in range(size):
            if r != col and aug[r][col]:
                factor = aug[r][col]
                aug[r] = [x - factor * y for x, y in zip(aug[r], aug[col])]
    return [row[size:] for row in aug]


def _expand_forms(e, forms):
    """prod_v forms[v]^e[v] as {exponents: rational}; forms[v] is a linear
    form {variable: rational}."""
    out = {(0,) * len(e): Fraction(1)}
    for v, x in enumerate(e):
        for _ in range(x):
            step = {}
            for key, c in out.items():
                for w, a in forms[v].items():
                    new = key[:w] + (key[w] + 1,) + key[w + 1:]
                    step[new] = step.get(new, 0) + c * a
            out = {key: c for key, c in step.items() if c}
    return out


def conjugate_by_right_translation(op, g):
    """R(g) A R(g)^-1 as {(z, d): (re, im)}, for a WeylOp A on Z rows only
    and a square rational matrix g acting on the columns.

    Under conjugation, multiplications pull back through g and
    derivatives through its inverse transpose, so each normal-ordered
    term maps to a product of transformed halves that is already in
    normal order.
    """
    cols, nv = op.shape.cols, op.shape.nvars
    if op.shape.wrows:
        raise ValueError("conjugation implemented for pure Z shapes")
    ginv = matrix_inverse(g)
    # Variable (row, i) maps to sum_t m[t][i] (row, t), with m = g for
    # multiplications and m = ginv^T for derivatives.
    zforms = [
        {v - v % cols + t: Fraction(g[t][v % cols]) for t in range(cols) if g[t][v % cols]}
        for v in range(nv)
    ]
    dforms = [
        {v - v % cols + t: ginv[v % cols][t] for t in range(cols) if ginv[v % cols][t]}
        for v in range(nv)
    ]
    out = {}
    for (z, d), c in op.terms.items():
        c = gauss_ref(c.re, c.im)
        for z2, a in _expand_forms(z, zforms).items():
            for d2, b in _expand_forms(d, dforms).items():
                _accumulate(out, (z2, d2), gauss_mul(gauss_ref(a * b), c))
    return out


# Borel covariance by rational trials: f(B Z) = F f, F the product of the
# diagonal entries of B to the exponents, on random triangular B drawn in
# the order check_covariance draws them.  Only the shape and term map of
# f are read, the coefficients as (real, imaginary) pairs.

BOREL_DIAG = (1, 2, Fraction(1, 2))
BOREL_OFF_DIAG = (0, 1, -1, 2, -2, Fraction(1, 2), Fraction(-1, 2))


def _real_product(f, g):
    """Product of two polynomials with rational coefficients, as dicts."""
    out = {}
    for e1, c1 in f.items():
        for e2, c2 in g.items():
            key = tuple(map(add, e1, e2))
            out[key] = out.get(key, 0) + c1 * c2
    return {key: c for key, c in out.items() if c}


def covariance_by_fraction_trials(f, side, exponents, trials=8, seed=0):
    """Decide Borel covariance of f on `trials` random rational matrices.

    side "left_lower" substitutes Z -> B Z with B lower triangular (W
    fixed); side "right_upper" substitutes Z -> Z B and W -> W B with B
    upper triangular.  B is real, so each monomial is expanded over the
    rationals and its image added to the real and imaginary parts.
    """
    rows, cols, nv = f.shape.rows, f.shape.cols, f.shape.nvars
    size = rows if side == "left_lower" else cols
    exponents = tuple(exponents) + (0,) * (size - len(exponents))
    terms = {e: (c.re, c.im) for e, c in f.terms.items()}
    rng = random.Random(seed)
    for _ in range(trials):
        b = [[0] * size for _ in range(size)]
        for i in range(size):
            b[i][i] = rng.choice(BOREL_DIAG)
            for j in range(i):
                if side == "left_lower":
                    b[i][j] = rng.choice(BOREL_OFF_DIAG)
                else:
                    b[j][i] = rng.choice(BOREL_OFF_DIAG)
        powers = []
        for idx in range(nv):
            row, i = divmod(idx, cols)
            if side == "right_upper":
                pairs = [(row * cols + t, b[t][i]) for t in range(cols)]
            elif row < rows:
                pairs = [(t * cols + i, b[row][t]) for t in range(rows)]
            else:
                pairs = [(idx, 1)]
            image = {tuple(int(v == var) for v in range(nv)): x for var, x in pairs if x}
            powers.append([{(0,) * nv: 1}, image])
        re, im = {}, {}
        for e, (c_re, c_im) in terms.items():
            expanded = {(0,) * nv: 1}
            for idx, x in enumerate(e):
                while len(powers[idx]) <= x:
                    powers[idx].append(_real_product(powers[idx][-1], powers[idx][1]))
                expanded = _real_product(expanded, powers[idx][x])
            for key, r in expanded.items():
                re[key] = re.get(key, 0) + c_re * r
                im[key] = im.get(key, 0) + c_im * r
        factor = 1
        for i, x in enumerate(exponents):
            factor *= b[i][i] ** x
        substituted = {key: (re[key], im[key]) for key in re if re[key] or im[key]}
        if substituted != {e: (factor * c_re, factor * c_im) for e, (c_re, c_im) in terms.items()}:
            return False
    return True


# The same trials on the doubled matrix 2B, whose entries are integers, so
# the substitution expands on plain ints: f(B Z) = F f holds exactly when
# f(2B Z) has coefficient c * F * 2^|e| at each term c * z^e of f, |e|
# counting only the substituted variables (W is fixed on the left); both
# sides are compared times 2^|exponents|, which makes F an integer.
# Monomials are keyed by their sorted variable indices with repeats.

# Twice BOREL_DIAG and BOREL_OFF_DIAG, in the same order, so a seed draws
# the same matrices scaled by 2.
DIAG_ENTRIES = (2, 4, 1)
OFF_DIAG_ENTRIES = (0, 2, -2, 4, -4, 1, -1)


def index_key(e):
    """The sorted variable indices of the monomial with exponents e, repeats included."""
    return tuple(i for i, x in enumerate(e) for _ in range(x))


def int_images(shape, m, left, variables):
    """Images of the given variables under Z -> M Z (left; W is fixed) or
    Z -> Z M and W -> W M (right), for a square int matrix M: each variable
    maps to the (variable, entry) pairs of its image."""
    cols = shape.cols
    images = {}
    for v in variables:
        row, i = divmod(v, cols)
        if not left:
            images[v] = [(row * cols + t, m[t][i]) for t in range(cols) if m[t][i]]
        elif row < shape.rows:
            images[v] = [(t * cols + i, x) for t, x in enumerate(m[row]) if x]
        else:
            images[v] = [(v, 1)]
    return images


def int_expand(terms, images):
    """Expand sum c * prod_v images[v] over the (index key, c) terms.

    The products run on plain ints; the real and imaginary parts of each
    c then scale the expansion of its monomial into two dicts, returned
    as (re, im), which may hold zero entries.
    """
    re_part = {}
    im_part = {}
    for key, c in terms:
        poly = {(): 1}
        for v in key:
            nxt = {}
            for mono, x in poly.items():
                for w, y in images[v]:
                    mono_w = tuple(sorted(mono + (w,)))
                    nxt[mono_w] = nxt.get(mono_w, 0) + x * y
            poly = nxt
        for part, value in ((re_part, c.re), (im_part, c.im)):
            if value:
                for mono, x in poly.items():
                    part[mono] = part.get(mono, 0) + value * x
    return re_part, im_part


def covariance_by_integer_trials(f, side, exponents, trials=8, seed=0):
    """covariance_by_fraction_trials on the doubled matrices 2B, on ints."""
    shape = f.shape
    left = side == "left_lower"
    size = shape.rows if left else shape.cols
    exponents = tuple(exponents) + (0,) * (size - len(exponents))
    moved = shape.rows * shape.cols if left else shape.nvars
    terms = [(index_key(e), c) for e, c in f.terms.items()]
    degrees = [sum(e[:moved]) for e in f.terms]
    keys = {key for key, _ in terms}
    used = {i for key in keys for i in key}
    rng = random.Random(seed)
    for _ in range(trials):
        b = [[0] * size for _ in range(size)]
        for i in range(size):
            b[i][i] = rng.choice(DIAG_ENTRIES)
            for j in range(i):
                if left:
                    b[i][j] = rng.choice(OFF_DIAG_ENTRIES)
                else:
                    b[j][i] = rng.choice(OFF_DIAG_ENTRIES)
        factor = 1
        for i in range(size):
            factor *= b[i][i] ** exponents[i]
        scale = 1 << sum(exponents)
        re_part, im_part = int_expand(terms, int_images(shape, b, left, used))
        image_keys = {key for key, x in re_part.items() if x}
        image_keys.update(key for key, x in im_part.items() if x)
        if image_keys != keys:
            return False
        for (key, c), degree in zip(terms, degrees):
            target = factor << degree
            if (
                re_part.get(key, 0) * scale != c.re * target
                or im_part.get(key, 0) * scale != c.im * target
            ):
                return False
    return True


# The harmonic projection on one row of k variables, top down: X- =
# (1/2) sum d_i^2 sends p0^j h (h harmonic of degree r) to
# j*(k + 2*(r + j - 1)) p0^(j-1) h, so j lowerings isolate the deepest
# component, which is divided out and subtracted before the next.  Plain
# dicts of (Fraction, Fraction) pairs; only the term map of f is read.


def _half_laplacian(poly):
    out = {}
    for e, c in poly.items():
        for i, x in enumerate(e):
            if x >= 2:
                key = e[:i] + (x - 2,) + e[i + 1:]
                _accumulate(out, key, gauss_mul(gauss_ref(Fraction(x * (x - 1), 2)), c))
    return out


def harmonic_by_fraction_lowering(f, k):
    """[(j, h_j)] with f = sum_j p0^j h_j, each h_j a {exponents: (re, im)} dict.

    f must be homogeneous and nonzero components are listed by j.
    """
    work = {e: gauss_ref(c.re, c.im) for e, c in f.terms.items()}
    if not work:
        return []
    m = sum(next(iter(work)))
    if m < 2:
        return [(0, work)]
    p0 = {tuple(2 * (i == t) for i in range(k)): 1 for t in range(k)}
    components = []
    for j in range(m // 2, -1, -1):
        r = m - 2 * j
        g = work
        for _ in range(j):
            g = _half_laplacian(g)
        const = 1
        for t in range(1, j + 1):
            const *= t * (k + 2 * (r + t - 1))
        h = {e: gauss_div(c, gauss_ref(const)) for e, c in g.items()}
        if h:
            components.append((j, h))
        p0j = {(0,) * k: 1}
        for _ in range(j):
            p0j = _real_product(p0j, p0)
        for e1, x in p0j.items():
            for e2, c in h.items():
                _accumulate(work, tuple(map(add, e1, e2)), gauss_mul(gauss_ref(-x), c))
    if work:
        raise ValueError("harmonic components do not rebuild the input")
    return components[::-1]


# The SO highest weight vectors: products of principal minors of Z q, for
# the column-rescaled isotropic frame q written out as a full k x k
# matrix, Z q summed entry by entry and each minor expanded over every
# permutation.  Polynomials are {exponents: (re, im)} dicts on the n x k
# variables of Z, row-major.


def so_frame(k):
    """The k x k isotropic frame: column t < k//2 is e_t + i e_t', column
    t' is e_t - i e_t' with t' = k//2 + t + k%2, and for odd k the middle
    column is e_(k//2)."""
    half, odd = k // 2, k % 2
    q = [[ZERO] * k for _ in range(k)]
    for t in range(half):
        partner = half + odd + t
        q[t][t] = q[t][partner] = gauss_ref(1)
        q[partner][t] = gauss_ref(0, 1)
        q[partner][partner] = gauss_ref(0, -1)
    if odd:
        q[half][half] = gauss_ref(1)
    return q


def _poly_mul(f, g):
    out = {}
    for e1, c1 in f.items():
        for e2, c2 in g.items():
            _accumulate(out, tuple(map(add, e1, e2)), gauss_mul(c1, c2))
    return out


def z_times_frame(n, k):
    """Z q as an n x k matrix of linear forms."""
    q = so_frame(k)
    out = []
    for r in range(n):
        row = []
        for c in range(k):
            entry = {}
            for t in range(k):
                if q[t][c] != ZERO:
                    _accumulate(entry, _mono(n * k, r * k + t), q[t][c])
            row.append(entry)
        out.append(row)
    return out


def leibniz_minor(matrix, size, nvars):
    """The leading size x size minor of a matrix of polynomials in nvars
    variables, summed over every permutation with its sign."""
    out = {}
    for perm in permutations(range(size)):
        inversions = sum(perm[i] > perm[j] for i in range(size) for j in range(i + 1, size))
        term = {(0,) * nvars: gauss_ref(-1 if inversions % 2 else 1)}
        for r in range(size):
            term = _poly_mul(term, matrix[r][perm[r]])
        for e, c in term.items():
            _accumulate(out, e, c)
    return out


def so_hwv_by_frame(mu, n, k):
    """prod_i (i-th principal minor of Z q)^(mu_i - mu_(i+1)) as a dict."""
    zq = z_times_frame(n, k)
    out = {(0,) * (n * k): gauss_ref(1)}
    for size, (part, below) in enumerate(zip(mu, tuple(mu[1:]) + (0,)), 1):
        minor = leibniz_minor(zq, size, n * k)
        for _ in range(part - below):
            out = _poly_mul(out, minor)
    return out


# SO(k) characters as ratios of Weyl alternants on the torus (x_1..x_nu),
# nu = k // 2, as plain {exponents: int} dicts, divided exactly: the
# reference the package's orthogonal Jacobi-Trudi determinant must match.


class InexactDivision(Exception):
    """A Laurent division that leaves a remainder."""


def laurent_div(num, den):
    """The exact quotient num / den of two Laurent polynomials.

    Lex-leading terms are divided off one at a time.  A quotient term must
    lie in the Newton box of num minus den, so an inexact division stops
    there (or at a non-integer coefficient) with InexactDivision.
    """
    if not den:
        raise InexactDivision("division by the zero polynomial")
    if not num:
        return {}
    nvars = len(next(iter(num)))
    lo = [min(e[i] for e in num) - max(e[i] for e in den) for i in range(nvars)]
    hi = [max(e[i] for e in num) - min(e[i] for e in den) for i in range(nvars)]
    lead = max(den)
    rem = dict(num)
    quot = {}
    while rem:
        top = max(rem)
        step = tuple(a - b for a, b in zip(top, lead))
        q, r = divmod(rem[top], den[lead])
        if r or any(not l <= x <= h for x, l, h in zip(step, lo, hi)):
            raise InexactDivision(f"no exact quotient term for {list(top)}")
        quot[step] = q
        for e, c in den.items():
            key = tuple(map(add, step, e))
            rem[key] = rem.get(key, 0) - q * c
            if not rem[key]:
                del rem[key]
    return quot


def _int_det(matrix, nvars):
    """Determinant of a square matrix of {exponents: int} dicts, summed over
    every permutation with its sign."""
    size = len(matrix)
    out = {}
    for perm in permutations(range(size)):
        inversions = sum(perm[i] > perm[j] for i in range(size) for j in range(i + 1, size))
        term = {(0,) * nvars: -1 if inversions % 2 else 1}
        for r in range(size):
            term = _real_product(term, matrix[r][perm[r]])
        for e, c in term.items():
            out[e] = out.get(e, 0) + c
    return {e: c for e, c in out.items() if c}


def so_character_by_alternants(mu, k):
    """The SO(k) character of mu, 2 len(mu) < k, by the Weyl character formula.

    Type B (k = 2 nu + 1) works in y with x = y^2, so rho = (nu - 1/2, ...,
    1/2) turns integral: entry (i, j) is y_i^a - y_i^-a with a = 2 (mu_j +
    rho_j), and the quotient's exponents are halved.  Type D (k = 2 nu)
    has entries x_i^a + x_i^-a with a = mu_j + nu - 1 - j and the column
    a = 0 halved to 1; as len(mu) < nu the last a is 0, so the alternant
    with x_i^a - x_i^-a vanishes.
    """
    nu, odd = k // 2, k % 2
    parts = list(mu) + [0] * (nu - len(mu))

    def entry(i, a):
        if not a:
            return {(0,) * nu: 1}
        up = tuple(a if t == i else 0 for t in range(nu))
        return {up: 1, tuple(-x for x in up): -1 if odd else 1}

    def alternant(shift):
        exps = [(1 + odd) * (m + nu - 1 - j) + odd for j, m in enumerate(shift)]
        return _int_det([[entry(i, a) for a in exps] for i in range(nu)], nu)

    quot = laurent_div(alternant(parts), alternant([0] * nu))
    if not odd:
        return quot
    if any(x % 2 for e in quot for x in e):
        raise InexactDivision("odd exponent in a type B quotient")
    return {tuple(x // 2 for x in e): c for e, c in quot.items()}
