import random
import sys
from itertools import product

import pytest
from hypothesis import given, strategies as st

import test_output_digest
from isotypic import branching, lr, stable_limits
from isotypic.characters import dim, schur_product_decompose
from isotypic.errors import NotDecreasing, RankConstraint, RankMismatch, RankTooSmall
from isotypic.lr import (
    Decomposition,
    _lr_table,
    contragredient,
    lr_coefficient,
    tensor_mixed,
    tensor_multi,
    tensor_pair,
)
from isotypic.signatures import (
    GroupFamily,
    canonicalize,
    iter_partitions,
    pad,
    shift_mixed,
    trim,
    weight,
)

from oracles import brute_lr, conjugate

# The stable table of the quadruple product, frozen with the terms that
# first appear at each rank.
QUAD_K2 = {
    (8,): 1, (7, 1): 3, (6, 2): 5, (5, 3): 5, (4, 4): 2,
}
QUAD_K3 = {**QUAD_K2, **{
    (6, 1, 1): 3, (5, 2, 1): 6, (4, 3, 1): 5, (4, 2, 2): 3, (3, 3, 2): 2,
}}
QUAD_K4 = {**QUAD_K3, **{
    (5, 1, 1, 1): 1, (4, 2, 1, 1): 2, (3, 3, 1, 1): 1, (3, 2, 2, 1): 1,
}}


def all_partitions(max_weight, max_length=None):
    return [
        p
        for w in range(max_weight + 1)
        for p in iter_partitions(w, max_length=max_length)
    ]


def test_lr_frozen_examples():
    assert lr_coefficient((1,), (1,), (1, 1)) == 1
    assert lr_coefficient((2, 1), (1,), (4,)) == 0
    assert lr_coefficient((2, 1), (2, 1), (3, 2, 1)) == 2


def test_lr_matches_brute_force():
    parts = all_partitions(3)
    for lam, mu in product(parts, parts):
        total = weight(lam) + weight(mu)
        for nu in iter_partitions(total):
            assert lr_coefficient(lam, mu, nu) == brute_lr(lam, mu, nu), (
                lam, mu, nu,
            )


def test_tensor_pair_matches_brute_force_past_oracle_ranks():
    # At rank len(lam)+len(mu) nothing is cut off, so every nu of the
    # right weight is compared; ranks 6-8 lie past the character oracle.
    parts = all_partitions(4)
    for lam, mu in product(parts, parts):
        total = weight(lam) + weight(mu)
        expected = {
            nu: c
            for nu in iter_partitions(total)
            if (c := brute_lr(lam, mu, nu))
        }
        k = max(1, len(lam) + len(mu))
        assert tensor_pair(lam, mu, k).terms == expected, (lam, mu)


def test_lr_symmetry_up_to_weight_5():
    parts = all_partitions(5)
    for lam, mu in product(parts, parts):
        k = len(lam) + len(mu) + 1
        assert tensor_pair(lam, mu, k) == tensor_pair(mu, lam, k)


def test_lr_conjugation_symmetry_up_to_weight_4():
    parts = all_partitions(4)
    for lam, mu in product(parts, parts):
        for nu, c in tensor_pair(lam, mu, 8):
            assert c == lr_coefficient(
                conjugate(lam), conjugate(mu), conjugate(nu)
            )


def test_long_columns_multiply_without_deep_recursion():
    """The LR search walks strips and rows in a loop, so long columns
    multiply like short ones: Lambda^60 x Lambda^60 is the dual Pieri sum of
    the shapes (2^j 1^(120-2j)), and a 1,000-row column times (1) has two
    terms."""
    column = (1,) * 60
    assert tensor_pair(column, column, 120).terms == {
        (2,) * j + (1,) * (120 - 2 * j): 1 for j in range(61)
    }
    assert stable_limits.stable_tensor([column, column]).k0 == 120
    short = (1,) * 26
    assert lr_coefficient(short, short, (2,) * 26) == 1
    assert stable_limits.identity_multiplicity([short, short], (2,) * 26) == 1
    assert tensor_mixed(short, short, 26).terms == {(2,) * 26: 1}
    assert len(_lr_table((1,) * 1000, (1,))) == 2


def test_tensor_pair_examples():
    assert tensor_pair((1,), (1,), 2).terms == {(2,): 1, (1, 1): 1}
    assert tensor_pair((3, 1), (), 5).terms == {(3, 1): 1}
    assert tensor_pair((1,), (1,), 1).terms == {(2,): 1}


def test_tensor_pair_rank_guard():
    with pytest.raises(RankTooSmall):
        tensor_pair((1, 1), (1,), 1)


def test_nonpositive_rank_is_a_rank_constraint():
    for call in (
        lambda: tensor_pair((), (), 0),
        lambda: tensor_pair((1,), (1,), -2),
        lambda: tensor_multi([()], 0),
        lambda: tensor_multi([(2,), (1,)], -1),
    ):
        with pytest.raises(RankConstraint, match="rank must be a positive integer"):
            call()


def test_tensor_pair_matches_schur_oracle():
    parts = all_partitions(5)
    for lam, mu in product(parts, parts):
        for k in range(max(len(lam), len(mu), 1), 6):
            assert tensor_pair(lam, mu, k) == schur_product_decompose(lam, mu, k)


def test_tensor_multi_reproduces_stable_tables():
    factors = [(1,), (2,), (2,), (3,)]
    assert tensor_multi(factors, 2).terms == QUAD_K2
    assert tensor_multi(factors, 3).terms == QUAD_K3
    assert tensor_multi(factors, 4).terms == QUAD_K4
    assert tensor_multi(factors, 5).terms == QUAD_K4


def test_tensor_multi_association_independence():
    rng = random.Random(11)
    small = all_partitions(3)
    for _ in range(25):
        factors = [rng.choice(small) for _ in range(3)]
        factors = [f for f in factors if f] or [(1,)]
        k = rng.randint(max(len(f) for f in factors), 4)
        expected = tensor_multi(factors, k)
        acc = Decomposition(GroupFamily("u", k), {factors[0]: 1})
        for nxt in factors[1:]:
            step = {}
            for sig, mult in acc:
                for out, c in tensor_pair(sig, nxt, k):
                    step[out] = step.get(out, 0) + mult * c
            acc = Decomposition(GroupFamily("u", k), step)
        assert acc == expected


def test_tensor_multi_dimension_identity():
    for lam, mu in product(all_partitions(4), all_partitions(4)):
        for k in range(max(len(lam), len(mu), 1), 5):
            total = sum(
                c * dim(GroupFamily("u", k), nu)
                for nu, c in tensor_pair(lam, mu, k)
            )
            assert total == dim(GroupFamily("u", k), lam) * dim(
                GroupFamily("u", k), mu
            )


def test_contragredient():
    assert contragredient((2, 1, 0)) == (0, -1, -2)
    assert contragredient((0, 0)) == (0, 0)
    assert contragredient((3, 0, 0, -1)) == (1, 0, 0, -3)
    assert contragredient(contragredient((4, 1, -2))) == (4, 1, -2)


def test_tensor_mixed_examples():
    assert tensor_mixed((1, 0), (0, -1), 2).terms == {(1, -1): 1, (0, 0): 1}
    assert tensor_mixed((2, 0, -1), (0, 0, 0), 3).terms == {(2, 0, -1): 1}
    assert tensor_mixed((1, 0, 0), (0, 0, -1), 3).terms == {
        (1, 0, -1): 1,
        (0, 0, 0): 1,
    }


def test_tensor_mixed_rank_guard():
    with pytest.raises(RankMismatch):
        tensor_mixed((1, 0), (0, 0, -1), 3)


def test_tensor_mixed_names_the_unsorted_factor():
    """The order check runs on the caller's parts, not on a shifted image."""
    with pytest.raises(NotDecreasing, match=r"^parts \[-2, -1\] are not weakly decreasing$"):
        tensor_mixed((-2, -1), (0, 0), 2)
    with pytest.raises(NotDecreasing, match=r"^parts \[1, -1, 0\] are not weakly decreasing$"):
        tensor_mixed((0, 0, 0), (1, -1, 0), 3)
    with pytest.raises(RankMismatch):
        tensor_mixed((-2, -1), (0,), 2)


def test_tensor_mixed_shift_covariance():
    rng = random.Random(5)
    for _ in range(30):
        k = rng.randint(2, 4)
        sigma = tuple(sorted((rng.randint(-3, 3) for _ in range(k)), reverse=True))
        tau = tuple(sorted((rng.randint(-3, 3) for _ in range(k)), reverse=True))
        a, b = rng.randint(-2, 2), rng.randint(-2, 2)
        plain = tensor_mixed(sigma, tau, k)
        shifted = tensor_mixed(shift_mixed(sigma, a), shift_mixed(tau, b), k)
        assert shifted.terms == {
            shift_mixed(sig, a + b): c for sig, c in plain
        }


def test_tensor_mixed_agrees_with_plain_product_on_nonnegative():
    for lam, mu in product(all_partitions(3), all_partitions(3)):
        k = 4
        plain = tensor_pair(lam, mu, k)
        mixed = tensor_mixed(pad(lam, k), pad(mu, k), k)
        assert mixed.terms == {pad(nu, k): c for nu, c in plain}


def test_decomposition_iteration_is_descending_lex():
    dec = tensor_multi([(1,), (2,), (2,), (3,)], 3)
    sigs = dec.signatures()
    assert sigs == sorted(sigs, reverse=True)
    assert dec[(6, 2)] == 5
    assert dec[(9,)] == 0


def _cut(lam, mu, maxlen):
    return {nu: c for nu, c in _lr_table(lam, mu).items() if len(nu) <= maxlen}


def test_bounded_lr_table_is_the_cut_table():
    parts = all_partitions(4)
    for lam, mu in product(parts, parts):
        for maxlen in range(1, 6):
            assert _lr_table(lam, mu, maxlen) == _cut(lam, mu, maxlen), (lam, mu, maxlen)


PARTITIONS = st.lists(st.integers(0, 4), max_size=5).map(
    lambda parts: canonicalize(sorted(parts, reverse=True))
)


@given(PARTITIONS, PARTITIONS, st.integers(1, 6))
def test_bounded_lr_table_is_the_cut_table_hypothesis(lam, mu, maxlen):
    assert _lr_table(lam, mu, maxlen) == _cut(lam, mu, maxlen)


def _mixed_table_by_cut(sigma, tau, k):
    """The mixed product as first computed: unbounded table, then cut to k."""
    a = max(0, -sigma[-1]) if sigma else 0
    b = max(0, -tau[-1]) if tau else 0
    lam = canonicalize(trim(shift_mixed(sigma, a)))
    mu = canonicalize(trim(shift_mixed(tau, b)))
    return {shift_mixed(pad(nu, k), -(a + b)): c for nu, c in _cut(lam, mu, k).items()}


def test_mixed_products_agree_with_the_cut_table_on_the_digest_grid(monkeypatch):
    """tensor_mixed and identity_multiplicity render the same digest grid
    from bounded and from cut tables."""
    bounded = test_output_digest.grid_lines()
    for module in (lr, stable_limits):
        monkeypatch.setattr(module, "_mixed_table", _mixed_table_by_cut)
    assert test_output_digest.grid_lines() == bounded
    assert any(line.startswith("tensor_mixed") for line in bounded)
    assert any(line.startswith("identity_multiplicity") for line in bounded)


def test_trusted_constructor_matches_the_public_one_at_every_call_site(monkeypatch):
    trusted = Decomposition._new.__func__
    callers = set()

    def checked(cls, group, terms):
        out = trusted(cls, group, terms)
        public = Decomposition(group, terms)
        assert out == public and repr(out) == repr(public)
        frame = sys._getframe(1)
        while frame.f_code.co_name.startswith("<"):
            frame = frame.f_back
        callers.add(frame.f_code.co_name)
        return out

    monkeypatch.setattr(Decomposition, "_new", classmethod(checked))
    test_output_digest.grid_lines()
    for lam, mu in product(all_partitions(3), all_partitions(2)):
        tensor_pair(lam, mu, 3)
    assert callers == {
        "tensor_multi", "tensor_mixed", "restrict_gl_to_so", "restrict_gl_to_sp",
        "weyl_fold", "_stable_result",
    }


def test_public_constructor_still_checks_its_terms():
    group = GroupFamily("u", 2)
    with pytest.raises(ValueError, match="negative multiplicity"):
        Decomposition(group, {(1,): -1})
    dec = Decomposition(group, [([1], 2), ((1,), 1), ((2,), 0)])
    assert dec.terms == {(1,): 3}
    assert Decomposition._new(group, {(1,): 3, (2,): 1}) == Decomposition(group, {(2,): 1, (1,): 3})


def test_results_do_not_share_the_memo_tables():
    """Mutating a returned decomposition or probe leaves the LR and Littlewood memos intact."""
    lam, mu = (2, 1), (1,)
    littlewood = [(lam, branching._even_row_partitions), (lam, branching._even_column_partitions)]
    lr_before = dict(_lr_table(lam, mu))
    lw_before = [dict(branching._littlewood_terms(*key)) for key in littlewood]
    stable = [
        stable_limits.stable_tensor([lam, mu]),
        stable_limits.stable_branch(lam, "so"),
        stable_limits.stable_branch(lam, "sp"),
    ]
    results = [
        tensor_pair(lam, mu, 3),
        branching.restrict_gl_to_so(lam, 5),
        *(res.stable for res in stable),
        *(dec for res in stable for _, dec in res.probes),
    ]
    for dec in results:
        dec.terms[(9,)] = 7
        dec._terms.clear()  # even the private dict is a copy
    assert _lr_table(lam, mu) == lr_before
    assert [branching._littlewood_terms(*key) for key in littlewood] == lw_before


# (public call, its number of plain-signature arguments)
CHECKED_ONCE = {
    "stable_branch_so": (lambda: stable_limits.stable_branch((2, 1), "so"), 1),
    "stable_branch_sp": (lambda: stable_limits.stable_branch((2, 1), "sp"), 1),
    "stable_tensor": (lambda: stable_limits.stable_tensor([(2, 1), (1,), (1, 1)]), 3),
    "identity_multiplicity": (
        lambda: stable_limits.identity_multiplicity([(2, 1), (1,)], (3, 1)), 3
    ),
    "tensor_multi": (lambda: tensor_multi([(2, 1), (1,)], 3), 2),
    "restrict_gl_to_so": (lambda: branching.restrict_gl_to_so((2, 1), 5), 1),
    "tensor_mixed": (lambda: tensor_mixed((1, 0, -1), (2, 1, 0), 3), 0),  # checked by `decreasing`
}


@pytest.mark.parametrize("name", CHECKED_ONCE)
def test_each_public_call_checks_each_signature_once(monkeypatch, name):
    """Internal calls trust canonical input: a warm public call checks each
    plain signature it is given once, however many cores it reaches."""
    call, expected = CHECKED_ONCE[name]
    call()
    seen = []

    def counted(parts):
        seen.append(parts)
        return canonicalize(parts)

    for module_name, module in list(sys.modules.items()):
        if module_name.split(".")[0] != "isotypic":
            continue
        if getattr(module, "canonicalize", None) is canonicalize:
            monkeypatch.setattr(module, "canonicalize", counted)
    call()
    assert len(seen) == expected, seen
