"""Acceptance suite: one test per criterion, exact arithmetic throughout.

Every assertion is an integer or rational equality (tolerance zero).
Each test prints a single PASS line when its criterion holds, so running
`pytest tests/test_acceptance.py -v -s` gives a one-line-per-criterion
report.
"""

import json
import random
from fractions import Fraction
from itertools import product
from math import comb

from isotypic.branching import (
    dual_side_multiplicity,
    reciprocity_check,
    restrict_gl_to_so,
    restrict_gl_to_sp,
)
from isotypic.characters import dim, so_character
from isotypic.cli import run, verify_sl2, verify_sp2n
from isotypic.fock import (
    FockPoly,
    FockShape,
    GaussRat,
    check_covariance,
    hwv,
    pairing,
    radial_square,
    sl2_generators,
    sp2n_generators,
    supq_laplacians,
    translate,
)
from isotypic.lr import tensor_pair
from isotypic.signatures import GroupFamily, iter_partitions
from isotypic.stable_limits import identity_multiplicity, stable_tensor
from oracles import branch_rank1_closed_form

TABLE_K2 = {
    (8,): 1, (7, 1): 3, (6, 2): 5, (5, 3): 5, (4, 4): 2,
}
TABLE_K3 = {**TABLE_K2, **{
    (6, 1, 1): 3, (5, 2, 1): 6, (4, 3, 1): 5, (4, 2, 2): 3, (3, 3, 2): 2,
}}
TABLE_K4 = {**TABLE_K3, **{
    (5, 1, 1, 1): 1, (4, 2, 1, 1): 2, (3, 3, 1, 1): 1, (3, 2, 2, 1): 1,
}}


def cli_json(*argv):
    import io
    from contextlib import redirect_stdout

    buffer = io.StringIO()
    with redirect_stdout(buffer):
        code = run(list(argv))
    assert code == 0, argv
    return json.loads(buffer.getvalue())


def as_terms(obj):
    return {tuple(t["signature"]): t["mult"] for t in obj["terms"]}


def test_criterion_1_tensor_tables():
    for rank, table in ((2, TABLE_K2), (3, TABLE_K3), (4, TABLE_K4)):
        obj = cli_json("tensor", "--rank", str(rank), "--json", "1", "2", "2", "3")
        assert as_terms(obj) == table, rank
    assert sorted(TABLE_K2.values(), reverse=True) == [5, 5, 3, 2, 1]
    assert len(TABLE_K3) == 10 and len(TABLE_K4) == 14
    print("criterion 1 PASS: tensor tables at k=2,3,4 match the published lists")


def test_criterion_2_stabilization_index():
    obj = cli_json("tensor", "--stable", "--json", "1", "2", "2", "3")
    assert obj["k0"] == 4
    assert obj["group"]["rank"] == "stable"
    assert as_terms(obj) == TABLE_K4
    print("criterion 2 PASS: quadruple product stabilizes at k0=4 with the k=4 table")


def test_criterion_3_rank1_reciprocity():
    for m in range(13):
        lam = (m,) if m else ()
        closed = branch_rank1_closed_form(m)
        for k in range(5, 10):
            assert restrict_gl_to_so(lam, k).terms == closed, (m, k)
        for r in range(m + 3):
            mu = (r,) if r else ()
            expected = 1 if r <= m and (m - r) % 2 == 0 else 0
            assert dual_side_multiplicity(lam, mu, 1) == expected, (m, r)
    print("criterion 3 PASS: rank-1 towers and dual-side multiplicities agree for m<=12, k=5..9")


def test_criterion_4_harmonic_dimension():
    for k in range(3, 8):
        for r in range(9):
            sig = (r,) if r else ()
            expected = comb(k + r - 1, r) - (comb(k + r - 3, r - 2) if r >= 2 else 0)
            assert dim(GroupFamily("so", k), sig) == expected, (k, r)
            assert sum(so_character(sig, k).terms.values()) == expected, (k, r)
    print("criterion 4 PASS: harmonic dimensions match the binomial formula for k=3..7, r=0..8")


def test_criterion_5_two_sided_reciprocity():
    lams = [p for w in range(7) for p in iter_partitions(w, max_length=2)]
    for lam in lams:
        report = reciprocity_check(lam, 2, 5)
        assert report.all_agree, lam
        assert report.rows, lam
    print(f"criterion 5 PASS: character and LR-sum sides agree for all {len(lams)} signatures")


def test_criterion_6_operator_identities():
    for k in (5, 7, 8):
        checked, holds = verify_sl2(k)
        assert holds and checked == 3, k
    total = 0
    for n, k in product((1, 2, 3), (5, 7, 8)):
        checked, holds = verify_sp2n(n, k)
        assert holds, (n, k)
        total += checked
    assert verify_sp2n(4, 8) == (1536, True)
    assert verify_sp2n(5, 10) == (3750, True)
    assert verify_sp2n(6, 12) == (7776, True)
    total += 1536 + 3750 + 7776
    for k in (3, 5):
        _, _, lower = sl2_generators(k)
        p0 = radial_square(k)
        for r in range(5):
            harmonic = hwv("so_rank1", r, 1, k)
            for j in range(1, 5):
                lhs = lower.apply(p0 ** j * harmonic)
                rhs = (j * (k + 2 * (r + j - 1))) * (p0 ** (j - 1) * harmonic)
                assert lhs == rhs, (k, r, j)
    print(f"criterion 6 PASS: ladder and oscillator relations hold exactly ({total} indexed relations)")


def test_criterion_7_pairing():
    shape = FockShape(2, 3)
    monomials = []
    for degree in range(6):
        stack = [([], degree)]
        while stack:
            prefix, rem = stack.pop()
            if len(prefix) == shape.nvars - 1:
                monomials.append(tuple(prefix + [rem]))
                continue
            for e in range(rem + 1):
                stack.append((prefix + [e], rem - e))
    assert len(monomials) == 462
    checked = 0
    by_degree = {}
    for exps in monomials:
        by_degree.setdefault(sum(exps), []).append(exps)
    from math import factorial

    for degree, group in by_degree.items():
        for ea in group:
            fa = FockPoly(shape, {ea: GaussRat(1)})
            for eb in group:
                fb = FockPoly(shape, {eb: GaussRat(1)})
                expected = GaussRat(0)
                if ea == eb:
                    norm = 1
                    for e in ea:
                        norm *= factorial(e)
                    expected = GaussRat(norm)
                assert pairing(fa, fb) == expected
                checked += 1
    unit = [
        [Fraction(3, 5), Fraction(4, 5)],
        [Fraction(-4, 5), Fraction(3, 5)],
    ]
    rng = random.Random(77)
    shape2 = FockShape(1, 2)
    for _ in range(10):
        terms = {}
        for _ in range(4):
            e = [0, 0]
            for _ in range(rng.randint(0, 4)):
                e[rng.randrange(2)] += 1
            terms[tuple(e)] = GaussRat(rng.randint(-3, 3), rng.randint(-3, 3))
        f = FockPoly(shape2, terms)
        g = FockPoly(shape2, {(1, 0): GaussRat(1, 1), (0, 2): GaussRat(2)})
        assert pairing(
            translate(f, unit, "right"), translate(g, unit, "right")
        ) == pairing(f, g)
    print(f"criterion 7 PASS: orthonormality on {checked} monomial pairs and rational unitarity")


def test_criterion_8_hwv_suite():
    for lam in ((1,), (2, 1), (2, 2), (3, 1, 1)):
        n = len(lam)
        vector = hwv("gl", lam, n, n + 1)
        assert check_covariance(vector, "left_lower", lam, seed=1), lam
        assert check_covariance(vector, "right_upper", lam, seed=2), lam
    for k in (5, 6):
        for n in (1, 2):
            fam = sp2n_generators(n, k)
            for mu in ((1,), (2,), (1, 1), (2, 1)):
                if len(mu) > n:
                    continue
                vector = hwv("so_general", mu, n, k)
                assert not vector.is_zero()
                for a in range(1, n + 1):
                    for b in range(a, n + 1):
                        assert fam["D"][(a, b)].apply(vector).is_zero(), (mu, n, k)
        _, _, lower = sl2_generators(k)
        for r in range(5):
            assert lower.apply(hwv("so_rank1", r, 1, k)).is_zero()
    fam = supq_laplacians(1, 1, 4)
    for nu_sig, lam_sig in (((2,), (1,)), ((1,), (1,)), ((3,), (2,))):
        vector = hwv("upq", (nu_sig, lam_sig), (1, 1), 4)
        assert not vector.is_zero()
        assert fam["delta"][(1, 1)].apply(vector).is_zero(), (nu_sig, lam_sig)
    print("criterion 8 PASS: gl covariance, so harmonicity, and upq annihilation all verified")


def test_criterion_9_identity_multiplicity_duality():
    rng = random.Random(2024)
    all_parts = [p for w in range(8) for p in iter_partitions(w)]
    cases = 0
    while cases < 50:
        count = rng.randint(1, 3)
        budget = 7
        factors = []
        for j in range(count):
            most = budget - (count - 1 - j)
            if most < 1:
                break
            w = rng.randint(1, most)
            factors.append(rng.choice(list(iter_partitions(w))))
            budget -= w
        if not factors:
            continue
        result = stable_tensor(factors)
        if rng.random() < 0.7:
            mu = rng.choice(result.stable.signatures())
        else:
            mu = rng.choice(all_parts)
        assert identity_multiplicity(factors, mu) == result.stable[mu], (
            factors, mu,
        )
        cases += 1
    print("criterion 9 PASS: trivial-isotypic multiplicity equals the stable multiplicity in 50 cases")


def test_criterion_10_dimension_consistency():
    total = 2 * 3 * 3 * 4
    assert total == 72
    direct = sum(
        mult * dim(GroupFamily("u", 2), sig) for sig, mult in TABLE_K2.items()
    )
    assert direct == 72
    assert [dim(GroupFamily("u", 2), s) for s in
            ((8,), (7, 1), (6, 2), (5, 3), (4, 4))] == [9, 7, 5, 3, 1]
    parts = [p for w in range(5) for p in iter_partitions(w)]
    for lam, mu in product(parts, parts):
        for k in range(max(len(lam), len(mu), 1), 5):
            group = GroupFamily("u", k)
            assert sum(
                c * dim(group, nu) for nu, c in tensor_pair(lam, mu, k)
            ) == dim(group, lam) * dim(group, mu), (lam, mu, k)
    for k in (5, 6, 7):
        for w in range(7):
            for lam in iter_partitions(w, max_length=(k - 1) // 2):
                dec = restrict_gl_to_so(lam, k)
                assert sum(
                    m * dim(GroupFamily("so", k), mu) for mu, m in dec
                ) == dim(GroupFamily("u", k), lam), (lam, k, "so")
    for k in (4, 6):
        for w in range(7):
            for lam in iter_partitions(w, max_length=(k - 1) // 2):
                dec = restrict_gl_to_sp(lam, k)
                assert sum(
                    m * dim(GroupFamily("sp", k), mu) for mu, m in dec
                ) == dim(GroupFamily("u", k), lam), (lam, k, "sp")
    print("criterion 10 PASS: every tensor and branching decomposition preserves dimensions")
