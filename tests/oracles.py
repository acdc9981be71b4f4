"""Independent brute-force oracles used to freeze expected test values.

Nothing here shares code with the package: LR coefficients come from
enumerating every raw filling of the skew diagram, and dimensions from a
standalone tableau counter, so agreement is meaningful.
"""

from fractions import Fraction
from itertools import product


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


def count_ssyt(shape, k):
    """Number of semistandard tableaux of the shape with entries <= k."""
    cells = [(r, c) for r in range(len(shape)) for c in range(shape[r])]
    if not cells:
        return 1
    total = 0
    grid = {}

    def fill(idx):
        nonlocal total
        if idx == len(cells):
            total += 1
            return
        r, c = cells[idx]
        lo = grid.get((r, c - 1), 1)
        lo = max(lo, grid.get((r - 1, c), 0) + 1)
        for v in range(lo, k + 1):
            grid[(r, c)] = v
            fill(idx + 1)
        grid.pop((r, c), None)

    fill(0)
    return total


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


def gauss_pow(a, n):
    out = gauss_ref(1)
    for _ in range(abs(n)):
        out = gauss_mul(out, a)
    return gauss_div(gauss_ref(1), out) if n < 0 else out


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
