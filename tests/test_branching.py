from enum import IntEnum
from functools import lru_cache
from itertools import product

import pytest
from hypothesis import given, settings, strategies as st

from isotypic.branching import (
    _littlewood_terms,
    dual_side_multiplicity,
    reciprocity_check,
    restrict_gl_to_so,
    restrict_gl_to_sp,
)
from isotypic.characters import dim, greedy_decompose, schur_laurent_on_so_torus
from isotypic.errors import OddRank, OutsideStableRange, RankConstraint, RankTooSmall
from isotypic.lr import _lr_table
from isotypic.signatures import GroupFamily, iter_partitions, weight
from isotypic.stable_limits import stable_branch
from oracles import branch_rank1_closed_form, brute_lr, conjugate


def test_restrict_so_examples():
    assert restrict_gl_to_so((3,), 5).terms == {(3,): 1, (1,): 1}
    assert restrict_gl_to_so((), 3).terms == {(): 1}
    assert restrict_gl_to_so((2, 2), 5).terms == {(2, 2): 1, (2,): 1, (): 1}


def test_restrict_sp_examples():
    assert restrict_gl_to_sp((1, 1), 6).terms == {(1, 1): 1, (): 1}
    assert restrict_gl_to_sp((), 4).terms == {(): 1}
    assert restrict_gl_to_sp((1,), 4).terms == {(1,): 1}


def test_restrict_guards():
    with pytest.raises(OutsideStableRange):
        restrict_gl_to_so((2, 1), 4)
    with pytest.raises(OddRank):
        restrict_gl_to_sp((1,), 5)
    with pytest.raises(OutsideStableRange):
        restrict_gl_to_sp((1, 1), 4)


def test_rank1_closed_form():
    assert branch_rank1_closed_form(3) == {(3,): 1, (1,): 1}
    assert branch_rank1_closed_form(0) == {(): 1}
    assert branch_rank1_closed_form(4) == {(4,): 1, (2,): 1, (): 1}


def test_rank1_tower_matches_closed_form():
    for m in range(13):
        closed = branch_rank1_closed_form(m)
        for k in range(5, 10):
            assert restrict_gl_to_so((m,) if m else (), k).terms == closed


def test_dual_side_rank1_values():
    assert dual_side_multiplicity((6,), (2,), 1) == 1
    assert dual_side_multiplicity((5,), (2,), 1) == 0
    assert dual_side_multiplicity((2, 2), (), 2) == 1
    with pytest.raises(RankTooSmall):
        dual_side_multiplicity((2, 1), (1,), 1)


def test_dual_side_rank1_pattern():
    for m in range(9):
        for r in range(11):
            expected = 1 if r <= m and (m - r) % 2 == 0 else 0
            got = dual_side_multiplicity(
                (m,) if m else (), (r,) if r else (), 1
            )
            assert got == expected


def test_reciprocity_examples():
    rep = reciprocity_check((3,), 1, 5)
    assert rep.all_agree
    assert {row[0]: (row[1], row[2]) for row in rep.rows} == {
        (3,): (1, 1),
        (1,): (1, 1),
    }
    rep = reciprocity_check((), 1, 3)
    assert rep.all_agree and rep.rows == (((), 1, 1, True),)
    assert reciprocity_check((2, 1), 2, 5).all_agree


def test_reciprocity_type_d_case_with_a_zero_entry():
    """Side A at k = 4 folds weights whose v = e + rho has a zero entry and
    an odd number of negatives; a type-D fold that mishandled that zero
    got this case wrong."""
    assert reciprocity_check((4,), 1, 4).rows == (
        ((4,), 1, 1, True),
        ((2,), 1, 1, True),
        ((), 1, 1, True),
    )


def test_reciprocity_guards():
    with pytest.raises(RankTooSmall):
        reciprocity_check((1, 1), 1, 5)
    with pytest.raises(OutsideStableRange):
        reciprocity_check((1,), 2, 4)


def test_branching_dimension_consistency():
    """dim U(k) lam is the dimension sum of its restriction, from the least
    stable rank (2*len+1 for SO, 2*len+2 for Sp) through k = 7 and 6 at
    least, for |lam| <= 10, length <= 5 and two larger signatures."""
    lams = [lam for w in range(11) for lam in iter_partitions(w, max_length=5)]
    for lam in lams + [(12, 8, 4, 2), (9, 7, 5, 3, 1)]:
        least = 2 * len(lam) + 1
        for family, restrict, ranks in (
            ("so", restrict_gl_to_so, range(least, max(8, least + 2))),
            ("sp", restrict_gl_to_sp, range(least + 1, max(7, least + 3), 2)),
        ):
            for k in ranks:
                total = sum(mult * dim(GroupFamily(family, k), mu) for mu, mult in restrict(lam, k))
                assert total == dim(GroupFamily("u", k), lam), (lam, family, k)


def test_littlewood_sums_match_the_brute_force_lr_oracle():
    """Each Littlewood sum is the sum of brute-force LR counts c^lam_{mu,delta}
    over delta with even rows (SO) or even columns (Sp), for |lam| <= 7 and
    length <= 4; the oracle filters every filling and shares no code."""
    families = (
        ("so", lambda delta: all(p % 2 == 0 for p in delta)),
        ("sp", lambda delta: all(p % 2 == 0 for p in conjugate(delta))),
    )
    for w in range(8):
        for lam in iter_partitions(w, max_length=4):
            for deltas, allowed in families:
                expected = {}
                for dw in range(w + 1):
                    for delta in filter(allowed, iter_partitions(dw, max_length=len(lam))):
                        for mu in iter_partitions(w - dw, max_length=len(lam)):
                            c = brute_lr(mu, delta, lam)
                            if c:
                                expected[mu] = expected.get(mu, 0) + c
                assert _littlewood_terms(lam, deltas) == expected, (lam, deltas)


def _conjugated_so_table(lam):
    return {conjugate(mu): m for mu, m in _littlewood_terms(conjugate(lam), "so").items()}


def test_sp_table_is_the_conjugated_so_table_of_the_conjugate():
    """O-Sp conjugation (R. C. King, J. Math. Phys. 12 (1971) 1588; Koike and
    Terada): conjugation swaps delta with even rows for delta with even
    columns, and c^{lam'}_{delta' mu'} = c^lam_{delta mu}, for |lam| <= 10."""
    for w in range(11):
        for lam in iter_partitions(w):
            assert _littlewood_terms(lam, "sp") == _conjugated_so_table(lam), lam


@settings(max_examples=25, deadline=None)
@given(st.lists(st.integers(0, 6), max_size=6))
def test_sp_table_is_the_conjugated_so_table_hypothesis(parts):
    lam = tuple(sorted((p for p in parts if p), reverse=True))
    assert _littlewood_terms(lam, "sp") == _conjugated_so_table(lam), lam


@lru_cache(maxsize=None)
def _oracle_coproduct(alpha):
    """``{(sigma, tau): c^alpha_{sigma,tau}}`` by the brute-force LR oracle."""
    return {
        (sigma, tau): c
        for ws in range(sum(alpha) + 1)
        for sigma in iter_partitions(ws, max_length=len(alpha))
        for tau in iter_partitions(sum(alpha) - ws, max_length=len(alpha))
        if (c := brute_lr(sigma, tau, alpha))
    }


@lru_cache(maxsize=None)
def _newell_littlewood(alpha, beta):
    """``{rho: N^rho_{alpha,beta}}``, N = sum c^alpha_{sigma,tau} c^beta_{sigma,ups}
    c^rho_{tau,ups}, every LR coefficient from the brute-force oracle."""
    out = {}
    for (sigma, tau), a in _oracle_coproduct(alpha).items():
        for (sigma_b, ups), b in _oracle_coproduct(beta).items():
            if sigma_b == sigma:
                width = sum(tau) + sum(ups)
                for rho in iter_partitions(width, max_length=len(tau) + len(ups)):
                    c = brute_lr(tau, ups, rho)
                    if c:
                        out[rho] = out.get(rho, 0) + a * b * c
    return out


def test_restriction_is_a_ring_map_onto_newell_littlewood_products():
    """Restricting s_lam s_mu gives the Newell-Littlewood product of the two
    restrictions, with the same N for O and Sp (M. J. Newell, Proc. Roy.
    Irish Acad. A 54 (1951) 153; Koike and Terada): the engine's product and
    restriction on the left, its restriction and the oracle's N on the right,
    for |lam|, |mu| <= 4."""
    lams = [lam for w in range(5) for lam in iter_partitions(w)]
    for target, lam, mu in product(("so", "sp"), lams, lams):
        left, right = {}, {}
        for nu, c in _lr_table(lam, mu).items():
            for rho, m in _littlewood_terms(nu, target).items():
                left[rho] = left.get(rho, 0) + c * m
        for alpha, a in _littlewood_terms(lam, target).items():
            for beta, b in _littlewood_terms(mu, target).items():
                for rho, n in _newell_littlewood(alpha, beta).items():
                    right[rho] = right.get(rho, 0) + a * b * n
        assert left == right, (target, lam, mu)


def test_non_int_ranks_are_refused_before_any_other_check():
    """A float, a bool or a string is no rank: every branching entry refuses
    it with the rank message, before the range and parity checks; n = 0
    stays a valid dual-pair rank."""
    for call, rank in (
        (lambda: dual_side_multiplicity((1,), (1,), 1.5), "1.5"),
        (lambda: reciprocity_check((1,), 1.5, 5), "1.5"),
        (lambda: reciprocity_check((1,), 1, 5.0), "5.0"),
        (lambda: restrict_gl_to_so((1,), 0.5), "0.5"),
        (lambda: restrict_gl_to_sp((1,), 5.0), "5.0"),
        (lambda: restrict_gl_to_sp((1,), 2.0), "2.0"),
        (lambda: restrict_gl_to_so((1,), "5"), "'5'"),
    ):
        with pytest.raises(RankConstraint) as info:
            call()
        assert str(info.value) == f"rank must be a positive integer, got {rank}"
    assert reciprocity_check((), 0, 7).rows == (((), 1, 1, True),)
    Rank = IntEnum("Rank", {"N": 1, "K": 5})
    assert restrict_gl_to_so((1,), Rank.K) == restrict_gl_to_so((1,), 5)
    assert dual_side_multiplicity((1,), (1,), Rank.N) == 1
    assert reciprocity_check((1,), Rank.N, Rank.K).all_agree


def test_non_positive_group_ranks_are_refused_before_the_range_checks():
    """k < 1 is no group rank: both restrictions and reciprocity's k refuse
    it with the rank message, where the stable-range or parity check would
    have answered first; reciprocity's n = 0 still answers."""
    for call, rank in (
        (lambda: restrict_gl_to_so((), -3), -3),
        (lambda: restrict_gl_to_so((2, 1), 0), 0),
        (lambda: restrict_gl_to_sp((), -3), -3),
        (lambda: restrict_gl_to_sp((1,), -1), -1),
        (lambda: restrict_gl_to_sp((), 0), 0),
        (lambda: reciprocity_check((), 0, -3), -3),
        (lambda: reciprocity_check((1,), 1, 0), 0),
    ):
        with pytest.raises(RankConstraint) as info:
            call()
        assert type(info.value) is RankConstraint
        assert str(info.value) == f"rank must be a positive integer, got {rank}"
    assert restrict_gl_to_so((), 1).terms == {(): 1}
    assert reciprocity_check((), 0, 1).rows == (((), 1, 1, True),)
    assert reciprocity_check((), 0, 7).rows == (((), 1, 1, True),)


def test_long_columns_restrict_without_deep_recursion():
    """The Littlewood sum walks the rows of lam in a loop, so a 60-row
    column restricts like a short one: Lambda^60 stays irreducible under
    SO(121) and splits into the 31 columns (1^(60-2j)) under Sp(122)."""
    column = (1,) * 60
    assert restrict_gl_to_so(column, 121).terms == {column: 1}
    assert restrict_gl_to_sp(column, 122).terms == {(1,) * (60 - 2 * j): 1 for j in range(31)}
    so, sp = stable_branch(column, "so"), stable_branch(column, "sp")
    assert (so.k0, so.stable.terms) == (121, {column: 1})
    assert (sp.k0, len(sp.stable.terms)) == (122, 31)


def test_restriction_multiplicities_are_lr_sums():
    # delta = () keeps (3,1); delta = (2) leaves (2) or (1,1), one way each.
    dec = restrict_gl_to_so((3, 1), 7)
    assert dec.terms == {(3, 1): 1, (2,): 1, (1, 1): 1}
    assert all(
        (weight((3, 1)) - weight(mu)) % 2 == 0 for mu in dec.signatures()
    )


def test_reciprocity_side_b_is_the_littlewood_sum():
    for lam in (p for w in range(7) for p in iter_partitions(w, max_length=3)):
        for n in range(max(1, len(lam)), 4):
            k = 2 * n + 1
            restricted = restrict_gl_to_so(lam, k)
            rep = reciprocity_check(lam, n, k)
            assert rep.all_agree, (lam, n)
            for mu, _, side_b, _ in rep.rows:
                assert side_b == dual_side_multiplicity(lam, mu, n), (lam, mu, n)
                assert side_b == restricted[mu], (lam, mu, n)


def test_poisoned_littlewood_memo_shows_as_disagreement():
    """Side B reads the Littlewood memo, side A never does."""
    lam, n, k = (2, 1), 2, 5
    _littlewood_terms.cache_clear()
    clean = reciprocity_check(lam, n, k)
    oracle = greedy_decompose(schur_laurent_on_so_torus(lam, k), GroupFamily("so", k))
    assert clean.all_agree and {row[0]: row[1] for row in clean.rows} == oracle.terms
    try:
        _littlewood_terms(lam, "so")[(1,)] += 1
        poisoned = reciprocity_check(lam, n, k)
        assert not poisoned.all_agree
        assert {row[0]: row[1] for row in poisoned.rows} == oracle.terms
        assert [row for row in poisoned.rows if not row[3]] == [((1,), 1, 2, False)]
        assert restrict_gl_to_so(lam, 7)[(1,)] == 2
    finally:
        _littlewood_terms.cache_clear()
    assert reciprocity_check(lam, n, k) == clean
    assert restrict_gl_to_so(lam, 7)[(1,)] == 1
