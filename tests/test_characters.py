import signal
from collections import Counter
from functools import lru_cache
from math import comb
from operator import add

import pytest
from hypothesis import given, settings, strategies as st

from isotypic.characters import (
    LaurentPoly,
    _fold,
    _torus_folds,
    dim,
    folded_weights,
    greedy_decompose,
    schur_laurent_on_so_torus,
    schur_poly,
    schur_product_decompose,
    so_character,
    weyl_fold,
)
from isotypic.errors import (
    DivisionNotExact,
    NegativeMultiplicity,
    OddRankForSp,
    RankConstraint,
    RankTooLarge,
    ReconstructionFailed,
    SignatureTooLong,
)
from isotypic.signatures import GroupFamily, iter_partitions
from isotypic.terms import leibniz_det

from oracles import (
    InexactDivision,
    count_ssyt,
    invert_exponent,
    laurent_div,
    so_character_by_alternants,
    ssyt_contents,
    weyl_root_dim,
)


def harmonic_dim(k, r):
    a = comb(k + r - 1, r)
    b = comb(k + r - 3, r - 2) if r >= 2 else 0
    return a - b


def test_laurent_arithmetic():
    x = LaurentPoly(1, {(1,): 1})
    xinv = LaurentPoly(1, {(-1,): 1})
    assert (x + xinv) * (x + xinv) == (
        LaurentPoly(1, {(2,): 1})
        + LaurentPoly.constant(1, 2)
        + LaurentPoly(1, {(-2,): 1})
    )
    assert (x - x).is_zero()
    assert sum((3 * x).terms.values()) == 3
    assert invert_exponent(x.terms, 0) == xinv.terms


def test_laurent_exact_division():
    x = LaurentPoly(1, {(1,): 1})
    one = LaurentPoly.constant(1, 1)
    num = LaurentPoly(1, {(3,): 1}) - LaurentPoly(1, {(-3,): 1})
    den = x - LaurentPoly(1, {(-1,): 1})
    expected = LaurentPoly(1, {(2,): 1}) + one + LaurentPoly(1, {(-2,): 1})
    assert laurent_div(num.terms, den.terms) == expected.terms
    with pytest.raises(InexactDivision):
        laurent_div((x + one).terms, den.terms)


def test_dim_examples():
    assert dim(GroupFamily("u", 2), (8,)) == 9
    assert dim(GroupFamily("so", 3), (2,)) == 5
    for family, rank in (("u", 3), ("so", 5), ("sp", 4)):
        assert dim(GroupFamily(family, rank), ()) == 1


def test_dim_classical_values():
    assert dim(GroupFamily("u", 3), (1,)) == 3
    assert dim(GroupFamily("u", 3), (1, 1, 1)) == 1
    assert dim(GroupFamily("so", 5), (1,)) == 5
    assert dim(GroupFamily("so", 5), (1, 1)) == 10
    assert dim(GroupFamily("so", 6), (1,)) == 6
    assert dim(GroupFamily("sp", 4), (1,)) == 4
    assert dim(GroupFamily("sp", 4), (1, 1)) == 5
    assert dim(GroupFamily("sp", 6), (1,)) == 6


def test_dim_gl_matches_tableau_count():
    for lam in [(2,), (2, 1), (3, 1), (2, 2, 1), (4,)]:
        for k in range(len(lam), 5):
            assert dim(GroupFamily("u", k), lam) == count_ssyt(lam, k)
            assert sum(schur_poly(lam, k).terms.values()) == count_ssyt(lam, k)


def test_dim_matches_the_weyl_root_product():
    """The cell products agree with Weyl's product over the positive roots,
    the O(k^2) route, for every family, k <= 13 and |lam| <= 8."""
    cases = 0
    for family in ("u", "so", "sp"):
        for k in range(2, 14, 2) if family == "sp" else range(1, 14):
            for size in range(9):
                for lam in iter_partitions(size, max_length=k if family == "u" else k // 2):
                    got = dim(GroupFamily(family, k), lam)
                    assert got == weyl_root_dim(family, k, lam), (family, k, lam)
                    cases += 1
    assert cases == 1477


def test_dim_at_rank_ten_to_the_twenty():
    """Work grows with the cells of lam, not with the rank: exact at k = 10^20."""

    def hang(signum, frame):
        raise TimeoutError("dim grew with the rank")

    k = 10**20
    previous = signal.signal(signal.SIGALRM, hang)
    signal.alarm(5)
    try:
        assert dim(GroupFamily("u", k), (2, 1)) == k * (k * k - 1) // 3
        assert dim(GroupFamily("so", k), (1,)) == k
        assert dim(GroupFamily("so", k), (2,)) == k * (k + 1) // 2 - 1
        assert dim(GroupFamily("sp", k), (1, 1)) == k * (k - 1) // 2 - 1
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


def test_dim_guards():
    with pytest.raises(RankConstraint):
        dim(GroupFamily("u", 2), (1, 1, 1))
    with pytest.raises(RankConstraint):
        dim(GroupFamily("so", 4), (1, 1, 1))
    with pytest.raises(OddRankForSp):
        dim(GroupFamily("sp", 5), (1,))


def test_schur_poly_small():
    s = schur_poly((1,), 2)
    assert s.terms == {(1, 0): 1, (0, 1): 1}
    assert sum(schur_poly((2, 1), 2).terms.values()) == 2
    assert schur_poly((1, 1, 1), 2).is_zero()


def test_schur_torus_examples():
    chi = schur_laurent_on_so_torus((2,), 3)
    assert chi.terms == {(2,): 1, (1,): 1, (0,): 2, (-1,): 1, (-2,): 1}
    assert schur_laurent_on_so_torus((), 5).terms == {(0, 0): 1}
    assert schur_laurent_on_so_torus((1,), 2).terms == {(1,): 1, (-1,): 1}
    with pytest.raises(RankTooLarge):
        schur_laurent_on_so_torus((1,), 8)


def test_schur_torus_takes_signatures_as_long_as_the_rank():
    """Only a signature longer than k is too long: det restricts to 1 on SO(k)."""
    assert schur_laurent_on_so_torus((1, 1), 2).terms == {(0,): 1}
    assert schur_laurent_on_so_torus((1, 1, 1), 3).terms == {(0,): 1}
    with pytest.raises(RankConstraint):
        schur_laurent_on_so_torus((1, 1, 1), 2)


def _tableau_characters(lam, k):
    """The U(k) character of lam and its SO(k)-torus restriction, as term
    dicts, by listing every semistandard tableau (x_{nu+i} -> 1/x_i)."""
    nu = k // 2
    u, so = {}, {}
    for content in ssyt_contents(lam, k):
        u[content] = u.get(content, 0) + 1
        e = tuple(content[i] - content[nu + i] for i in range(nu))
        so[e] = so.get(e, 0) + 1
    return u, so


def test_characters_match_the_tableau_enumeration():
    """The Gelfand-Tsetlin characters equal the tableau lists on every lam of
    length <= k, for k <= 7, with |lam| <= 8 for k <= 5 and |lam| <= 6 above."""
    cases = 0
    for k in range(1, 8):
        for size in range(9 if k <= 5 else 7):
            for lam in iter_partitions(size, max_length=k):
                u, so = _tableau_characters(lam, k)
                assert schur_poly(lam, k).terms == u, (lam, k)
                assert schur_laurent_on_so_torus(lam, k).terms == so, (lam, k)
                cases += 1
    assert cases == 248


@settings(max_examples=80, deadline=None)
@given(st.lists(st.integers(1, 3), max_size=4), st.integers(1, 7))
def test_characters_match_the_tableau_enumeration_hypothesis(parts, k):
    """Also for lam longer than k: no tableau, the zero Schur polynomial."""
    lam = tuple(sorted(parts, reverse=True))
    schur_poly.cache_clear()
    schur_laurent_on_so_torus.cache_clear()
    u, so = _tableau_characters(lam, k)
    assert schur_poly(lam, k).terms == u
    if len(lam) > k:
        with pytest.raises(RankConstraint, match="too long for rank"):
            schur_laurent_on_so_torus(lam, k)
    else:
        assert schur_laurent_on_so_torus(lam, k).terms == so


def test_so_character_examples():
    assert so_character((1,), 3).terms == {(1,): 1, (0,): 1, (-1,): 1}
    assert so_character((), 6).terms == {(0, 0, 0): 1}
    assert so_character((2,), 3).terms == {
        (2,): 1, (1,): 1, (0,): 1, (-1,): 1, (-2,): 1,
    }


def test_so_character_guards():
    with pytest.raises(SignatureTooLong):
        so_character((1, 1), 4)
    with pytest.raises(SignatureTooLong):
        so_character((1, 1, 1), 6)
    with pytest.raises(RankTooLarge):
        so_character((1,), 9)


def test_characters_refuse_the_stable_rank():
    """The label admits the stable rank; a character needs a finite one."""
    for call, message in (
        (lambda: schur_poly((1,), "stable"), "a Schur polynomial requires a finite rank"),
        (lambda: schur_laurent_on_so_torus((1,), "stable"), "a torus character requires a finite rank"),
        (lambda: so_character((), "stable"), "an SO character requires a finite rank"),
        (lambda: dim(GroupFamily("so", "stable"), (1,)), "dimension requires a finite rank"),
    ):
        with pytest.raises(RankConstraint) as info:
            call()
        assert type(info.value) is RankConstraint and str(info.value) == message


def test_so_character_dims_at_ones():
    for k in range(3, 8):
        max_len = (k - 1) // 2
        for w in range(6):
            for mu in iter_partitions(w, max_length=max_len):
                assert sum(so_character(mu, k).terms.values()) == dim(
                    GroupFamily("so", k), mu
                ), (mu, k)


# k = 1..7 and |mu| <= 6 with 2 len(mu) < k.
SO_GRID = [
    (mu, k)
    for k in range(1, 8)
    for w in range(7)
    for mu in iter_partitions(w, max_length=(k - 1) // 2)
]


@lru_cache(maxsize=None)
def _alternant_ratio(mu, k):
    return so_character_by_alternants(mu, k)


def _grid_mismatches(character):
    return [(mu, k) for mu, k in SO_GRID if character(mu, k).terms != _alternant_ratio(mu, k)]


def test_so_character_matches_the_alternant_ratio():
    assert len(SO_GRID) == 71
    assert _grid_mismatches(so_character) == []


def _jacobi_trudi(offset, subtract):
    """det(h(m - i + j) - h(m - i - j + offset)), or without the subtracted
    h, with m = mu[i] and h(r) the restricted U(k) character of (r,)."""

    def character(mu, k):
        one = LaurentPoly.constant(k // 2, 1)
        zero = one - one

        def h(r):
            return schur_laurent_on_so_torus((r,), k) if r > 0 else one if r == 0 else zero

        return leibniz_det(
            [
                [h(m - i + j) - (h(m - i - j + offset) if subtract else zero) for j in range(len(mu))]
                for i, m in enumerate(mu)
            ],
            one,
        )

    return character


def test_the_alternant_grid_rejects_near_miss_determinants():
    """The grid tells the orthogonal Jacobi-Trudi determinant (offset -2)
    from an offset of -1, wrong at every mu but (), and from the plain
    Jacobi-Trudi determinant, right only at the columns (1, ..., 1)."""
    assert _grid_mismatches(_jacobi_trudi(-2, True)) == []
    assert _grid_mismatches(_jacobi_trudi(-1, True)) == [(mu, k) for mu, k in SO_GRID if mu]
    assert _grid_mismatches(_jacobi_trudi(-2, False)) == [
        (mu, k) for mu, k in SO_GRID if set(mu) - {1}
    ]


def test_so_characters_share_no_dict_with_the_torus_memo():
    """Poisoning a memoised SO character must not reach the torus memo."""
    for mu, k in SO_GRID:
        chi = so_character(mu, k)
        memo = [schur_laurent_on_so_torus((r,), k) for r in range(1, sum(mu) + len(mu) + 1)]
        memo.append(schur_laurent_on_so_torus(mu, k))
        assert all(chi.terms is not entry.terms for entry in memo), (mu, k)


def test_so_character_weyl_invariance():
    # Odd rank: single sign changes belong to the Weyl group.
    chi = so_character((2, 1), 5)
    assert invert_exponent(chi.terms, 0) == chi.terms
    assert invert_exponent(chi.terms, 1) == chi.terms
    # Even rank: pairs of sign changes do.
    chi = so_character((2, 1), 6)
    assert invert_exponent(invert_exponent(chi.terms, 0), 1) == chi.terms
    assert invert_exponent(invert_exponent(chi.terms, 0), 2) == chi.terms


def test_greedy_decompose_examples():
    dec = greedy_decompose(
        schur_laurent_on_so_torus((2,), 3), GroupFamily("so", 3)
    )
    assert dec.terms == {(2,): 1, (): 1}
    dec = greedy_decompose(LaurentPoly.constant(2, 1), GroupFamily("so", 5))
    assert dec.terms == {(): 1}
    chi = so_character((1,), 3) + 2 * so_character((), 3)
    assert greedy_decompose(chi, GroupFamily("so", 3)).terms == {(1,): 1, (): 2}


def test_greedy_decompose_round_trip():
    for k in (3, 5, 6, 7):
        for w in range(5):
            for mu in iter_partitions(w, max_length=(k - 1) // 2):
                dec = greedy_decompose(so_character(mu, k), GroupFamily("so", k))
                assert dec.terms == {mu: 1}


def test_greedy_decompose_rejects_non_characters():
    chi = schur_laurent_on_so_torus((2,), 3) - 2 * so_character((), 3)
    with pytest.raises(NegativeMultiplicity):
        greedy_decompose(chi, GroupFamily("so", 3))


def test_weyl_fold_matches_greedy_peeling():
    """Types B (k odd) and D (k even), |lam| <= 7, inside the stable range."""
    cases = 0
    for k in range(3, 8):
        for w in range(8):
            for lam in iter_partitions(w, max_length=(k - 1) // 2):
                chi = schur_laurent_on_so_torus(lam, k)
                folded = weyl_fold(_torus_folds(lam, k), k)
                peeled = greedy_decompose(chi, GroupFamily("so", k))
                assert folded == peeled and repr(folded) == repr(peeled), (lam, k)
                assert weyl_fold(folded_weights(chi, k), k) == folded
                cases += 1
    assert cases == 87


def test_weyl_fold_of_irreducible_characters():
    for k in (3, 4, 5, 6, 7):
        for w in range(5):
            for mu in iter_partitions(w, max_length=(k - 1) // 2):
                dec = weyl_fold(folded_weights(so_character(mu, k), k), k)
                assert dec.terms == {mu: 1} and dec.group == GroupFamily("so", k)


def test_weyl_fold_rejects_non_characters():
    chi = schur_laurent_on_so_torus((2,), 3) - 2 * so_character((), 3)
    with pytest.raises(NegativeMultiplicity, match="received multiplicity -1"):
        weyl_fold(folded_weights(chi, 3), 3)
    # Outside the stable range, U(4) (1, 1) restricts to SO(4) (1, 1) + (1, -1):
    # (1, -1) is dominant for type D but no signature.
    with pytest.raises(NegativeMultiplicity, match=r"\[1, -1\] is not a dominant weight"):
        weyl_fold(_torus_folds((1, 1), 4), 4)


def test_orbit_fold_type_d_parity():
    """At k = 4, rho = (1, 0).  (2, 0) + rho = (3, 0) gives (2); the one
    negative of (-2, 0) + rho = (-1, 0) flips together with the zero, to
    rho itself; (0, 2) + rho = (1, 2) needs a swap, sign -1; and the one
    negative of (0, -2) + rho = (1, -2) must stay, giving (1, -1)."""
    assert [_fold(o, 4) for o in ((2, 0), (-2, 0), (0, 2), (0, -2))] == [
        ((2,), 1), ((), 1), ((1, 1), -1), ((1, -1), -1),
    ]
    # Type B, doubled: at k = 5, 2e + rho is (5, 1), (1, 1), (3, 3) and
    # (3, -1) over the orbit of (1, 0); the last flips once, giving () at -1.
    assert [_fold(o, 5) for o in ((1, 0), (-1, 0), (0, 1), (0, -1))] == [
        ((1,), 1), None, None, ((), -1),
    ]


def test_weyl_fold_at_large_rank():
    """V, its exterior and its symmetric square at k = 29 and 30, beyond the
    desk limit of the torus characters, so built here from the weights of V:
    +-e_i, and 0 in type B.  An orbit walk over m! permutations (m = 14 or 15)
    never ends here; folding each weight once takes milliseconds."""

    def hang(signum, frame):
        raise TimeoutError("weyl_fold walked the Weyl orbit")

    previous = signal.signal(signal.SIGALRM, hang)
    signal.alarm(2)
    try:
        for k, dims in ((29, (29, 406, 435)), (30, (30, 435, 465))):
            nu = k // 2
            v = [tuple(s * (i == j) for j in range(nu)) for i in range(nu) for s in (1, -1)]
            v += [(0,) * nu] * (k % 2)
            ext = [tuple(map(add, a, b)) for i, a in enumerate(v) for b in v[i + 1 :]]
            sym = ext + [tuple(2 * x for x in a) for a in v]
            expected = ({(1,): 1}, {(1, 1): 1}, {(2,): 1, (): 1})
            for weights, want, d in zip((v, ext, sym), expected, dims):
                dec = weyl_fold(folded_weights(LaurentPoly(nu, Counter(weights)), k), k)
                assert dec.terms == want, k
                assert sum(m * dim(dec.group, mu) for mu, m in dec.terms.items()) == d
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


def test_greedy_decompose_raises_when_a_peel_keeps_its_leading_weight():
    """A memoised character that lost its top term is an error, not a hang."""
    chi = schur_laurent_on_so_torus((2, 1), 7)
    assert greedy_decompose(chi, GroupFamily("so", 7)).terms == {(2, 1): 1, (1,): 1}

    def hang(signum, frame):
        raise TimeoutError("greedy_decompose kept peeling")

    previous = signal.signal(signal.SIGALRM, hang)
    signal.alarm(30)
    try:
        poisoned = so_character((1,), 7)
        del poisoned.terms[max(poisoned.terms)]
        with pytest.raises(ReconstructionFailed):
            greedy_decompose(chi, GroupFamily("so", 7))
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
        so_character.cache_clear()
    assert greedy_decompose(chi, GroupFamily("so", 7)).terms == {(2, 1): 1, (1,): 1}


def test_schur_product_examples():
    assert schur_product_decompose((1,), (1,), 2).terms == {(2,): 1, (1, 1): 1}
    assert schur_product_decompose((2, 1), (), 3).terms == {(2, 1): 1}
    assert schur_product_decompose((2,), (2,), 2).terms == {
        (4,): 1, (3, 1): 1, (2, 2): 1,
    }
    with pytest.raises(RankTooLarge):
        schur_product_decompose((1,), (1,), 6)


def test_harmonic_dimension_formula():
    for k in range(3, 8):
        for r in range(9):
            assert dim(GroupFamily("so", k), (r,) if r else ()) == harmonic_dim(
                k, r
            )


def test_greedy_decompose_only_reads_its_input_and_the_memos():
    """Peeling works on a copy: chi and the memoised characters stay intact."""
    cases = [
        (schur_laurent_on_so_torus((3, 1), 7), GroupFamily("so", 7), so_character),
        (so_character((2, 1), 6), GroupFamily("so", 6), so_character),
        (schur_poly((2, 1), 3), GroupFamily("u", 3), schur_poly),
        (schur_poly((1,), 3) * schur_poly((2, 1), 3), GroupFamily("u", 3), schur_poly),
    ]
    for chi, group, irreducible in cases:
        before = dict(chi.terms)
        dec = greedy_decompose(chi, group)
        memo = {mu: dict(irreducible(mu, group.rank).terms) for mu in dec.signatures()}
        assert greedy_decompose(chi, group) == dec
        assert chi.terms == before
        assert all(irreducible(mu, group.rank).terms == t for mu, t in memo.items())
    chi = schur_poly((2, 1), 3)
    assert greedy_decompose(chi, GroupFamily("u", 3)).terms == {(2, 1): 1}
    assert chi is schur_poly((2, 1), 3) and sum(chi.terms.values()) == 8


def test_dim_reports_a_non_integral_product_as_a_reduced_fraction(monkeypatch):
    """The message names the whole cell product as one reduced fraction."""
    from isotypic import characters

    # A wrong conjugate makes the hook length of the one cell of (1,) 3.
    monkeypatch.setattr(characters, "_conjugate", lambda sig: (3,))
    for family, rank, fraction in (("u", 2, "2/3"), ("so", 5, "5/3"), ("so", 2, "1/3"), ("sp", 6, "2/3")):
        with pytest.raises(DivisionNotExact, match=f"^Weyl dimension product {fraction} is not integral$"):
            dim(GroupFamily(family, rank), (1,))
