import pytest

from isotypic.branching import (
    _even_row_partitions,
    _littlewood_terms,
    dual_side_multiplicity,
    reciprocity_check,
    restrict_gl_to_so,
    restrict_gl_to_sp,
)
from isotypic.characters import dim, greedy_decompose, schur_laurent_on_so_torus
from isotypic.errors import OddRank, OutsideStableRange, RankTooSmall
from isotypic.signatures import GroupFamily, iter_partitions, weight
from oracles import branch_rank1_closed_form


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
    for k in (5, 6, 7):
        max_len = (k - 1) // 2
        for w in range(7):
            for lam in iter_partitions(w, max_length=max_len):
                dec = restrict_gl_to_so(lam, k)
                total = sum(
                    mult * dim(GroupFamily("so", k), mu) for mu, mult in dec
                )
                assert total == dim(GroupFamily("u", k), lam), (lam, k)
    for k in (4, 6):
        max_len = (k - 1) // 2
        for w in range(7):
            for lam in iter_partitions(w, max_length=max_len):
                dec = restrict_gl_to_sp(lam, k)
                total = sum(
                    mult * dim(GroupFamily("sp", k), mu) for mu, mult in dec
                )
                assert total == dim(GroupFamily("u", k), lam), (lam, k)


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
        _littlewood_terms(lam, _even_row_partitions)[(1,)] += 1
        poisoned = reciprocity_check(lam, n, k)
        assert not poisoned.all_agree
        assert {row[0]: row[1] for row in poisoned.rows} == oracle.terms
        assert [row for row in poisoned.rows if not row[3]] == [((1,), 1, 2, False)]
        assert restrict_gl_to_so(lam, 7)[(1,)] == 2
    finally:
        _littlewood_terms.cache_clear()
    assert reciprocity_check(lam, n, k) == clean
    assert restrict_gl_to_so(lam, 7)[(1,)] == 1
