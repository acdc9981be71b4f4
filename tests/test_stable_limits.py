import random

import pytest

from isotypic.branching import restrict_gl_to_so, restrict_gl_to_sp
from isotypic.lr import Decomposition, contragredient, tensor_mixed, tensor_multi
from isotypic.signatures import GroupFamily, iter_partitions, pad
from isotypic.stable_limits import (
    identity_multiplicity,
    stable_branch,
    stable_tensor,
)
from oracles import ProbeCapReached, branch_rank1_closed_form, probe_until_stable

QUAD_STABLE = {
    (8,): 1, (7, 1): 3, (6, 2): 5, (5, 3): 5, (4, 4): 2,
    (6, 1, 1): 3, (5, 2, 1): 6, (4, 3, 1): 5, (4, 2, 2): 3, (3, 3, 2): 2,
    (5, 1, 1, 1): 1, (4, 2, 1, 1): 2, (3, 3, 1, 1): 1, (3, 2, 2, 1): 1,
}


def test_quadruple_product_stabilizes_at_four():
    res = stable_tensor([(1,), (2,), (2,), (3,)])
    assert res.k0 == 4
    assert res.stable.terms == QUAD_STABLE
    assert res.stable.group == GroupFamily("u", "stable")


def test_single_factor_is_immediately_stable():
    res = stable_tensor([(2, 1)])
    assert res.k0 == 2
    assert res.stable.terms == {(2, 1): 1}


def test_pair_of_boxes():
    res = stable_tensor([(1,), (1,)])
    assert res.k0 == 2
    assert res.stable.terms == {(2,): 1, (1, 1): 1}
    # The k=1 probe is a strict prefix of the stable table.
    first_rank, first = res.probes[0]
    assert first_rank == 1 and first.terms == {(2,): 1}


def test_probes_are_length_filtered_prefixes():
    rng = random.Random(13)
    parts = [p for w in range(1, 5) for p in iter_partitions(w)]
    for _ in range(12):
        factors = [rng.choice(parts) for _ in range(rng.randint(1, 3))]
        res = stable_tensor(factors)
        for k, probe in res.probes:
            expected = {
                sig: mult for sig, mult in res.stable.terms.items() if len(sig) <= k
            }
            assert probe.terms == expected, (factors, k)


def test_probes_that_hold_every_term_share_the_stable_table():
    """A probe at a rank of at least the longest stable term holds the
    stable table's own dict; `.terms` still hands out a copy."""
    cases = [stable_tensor([(2, 1), (1,)]), stable_branch((2, 1), "so"), stable_branch((2, 1), "sp")]
    shared = 0
    for res in cases:
        longest = max(map(len, res.stable.signatures()))
        for k, probe in res.probes:
            if k >= longest:
                shared += 1
                assert probe._terms is res.stable._terms, (res.stable, k)
                assert probe.terms is not res.stable._terms
    assert shared == 6
    res = cases[0]
    res.probes[-1][1].terms[(9,)] = 1
    assert (9,) not in res.stable


def test_filtered_probes_keep_the_descending_order():
    """A probe too short for some stable term is the public constructor's
    decomposition of the filtered table: descending, with the same repr."""
    rng = random.Random(37)
    parts = [p for w in range(1, 5) for p in iter_partitions(w)]
    filtered = 0
    for factors in [[(2, 1), (1,)]] + [
        [rng.choice(parts) for _ in range(rng.randint(2, 3))] for _ in range(12)
    ]:
        res = stable_tensor(factors)
        for k, probe in res.probes:
            if probe._terms is res.stable._terms:
                continue
            filtered += 1
            sigs = probe.signatures()
            assert sigs == sorted(sigs, reverse=True), (factors, k)
            public = Decomposition(
                GroupFamily("u", k), {s: m for s, m in res.stable.terms.items() if len(s) <= k}
            )
            assert probe == public and repr(probe) == repr(public), (factors, k)
    assert filtered >= 12


def test_stabilize_cap_raises():
    # The probing oracle the proven ranks are checked against must not
    # report a stable answer for a rank-dependent leak.
    def runaway(k):
        return {(k,): 1}

    with pytest.raises(ProbeCapReached):
        probe_until_stable(runaway, 1)
    with pytest.raises(ProbeCapReached):
        probe_until_stable(runaway, 2, step=2)


def _matches_probing(res, oracle):
    terms, k0, probes = oracle
    assert res.stable.terms == terms
    assert res.k0 == k0
    assert [k for k, _ in res.probes] == [k for k, _ in probes]
    assert [probe.terms for _, probe in res.probes] == [t for _, t in probes]
    assert all(probe.group.rank == k for k, probe in res.probes)


def _trivial_in_mixed_product(factors, mu, k):
    dual = contragredient(pad(mu, k))
    return sum(
        mult * tensor_mixed(pad(sig, k), dual, k)[(0,) * k]
        for sig, mult in tensor_multi(factors, k)
    )


def test_proven_ranks_match_probing_oracle():
    rng = random.Random(41)
    for _ in range(80):
        # A random product of 1-3 factors, total weight <= 6.
        total = rng.randint(0, 6)
        cuts = sorted(rng.randint(0, total) for _ in range(rng.randint(0, 2)))
        weights = [b - a for a, b in zip([0] + cuts, cuts + [total])]
        factors = [rng.choice(list(iter_partitions(w))) for w in weights]
        k_start = max(1, max(len(f) for f in factors))
        res = stable_tensor(factors)
        _matches_probing(
            res, probe_until_stable(lambda k: tensor_multi(factors, k).terms, k_start)
        )
        mu = rng.choice(res.stable.signatures() + [(1,) * 4, (7,)])
        k = max(1, len(mu), k_start)
        value = identity_multiplicity(factors, mu)
        for rank in range(k, k + 3):
            assert value == _trivial_in_mixed_product(factors, mu, rank), (factors, mu)

    for w in range(7):
        for lam in iter_partitions(w, max_length=3):
            _matches_probing(
                stable_branch(lam, "so"),
                probe_until_stable(
                    lambda k: restrict_gl_to_so(lam, k).terms, 2 * len(lam) + 1
                ),
            )
            _matches_probing(
                stable_branch(lam, "sp"),
                probe_until_stable(
                    lambda k: restrict_gl_to_sp(lam, k).terms, 2 * len(lam) + 2, step=2
                ),
            )


def test_stable_branch_so():
    res = stable_branch((3,), "so")
    assert res.stable.terms == {(3,): 1, (1,): 1}
    assert res.stable.group == GroupFamily("so", "stable")
    assert stable_branch((), "so").stable.terms == {(): 1}
    assert stable_branch((2, 2), "so").stable.terms == {
        (2, 2): 1, (2,): 1, (): 1,
    }


def test_stable_branch_sp_probes_even_ranks():
    res = stable_branch((2, 2), "sp")
    assert res.stable.terms == {(2, 2): 1, (1, 1): 1, (): 1}
    assert all(k % 2 == 0 for k, _ in res.probes)
    assert res.stable.group == GroupFamily("sp", "stable")


def test_stable_branch_rank1_tower():
    for m in range(11):
        res = stable_branch((m,) if m else (), "so")
        assert res.stable.terms == branch_rank1_closed_form(m)


def test_identity_multiplicity_examples():
    assert identity_multiplicity([(1,), (1,), (1,)], (2, 1)) == 2
    assert identity_multiplicity([(2, 1)], (2, 1)) == 1
    assert identity_multiplicity([(1,)], (2,)) == 0
    assert identity_multiplicity([(1,), (2,)], (2, 1)) == 1


def test_identity_multiplicity_matches_stable_tensor():
    rng = random.Random(29)
    parts = [p for w in range(1, 5) for p in iter_partitions(w)]
    for _ in range(15):
        factors = [rng.choice(parts) for _ in range(rng.randint(1, 2))]
        res = stable_tensor(factors)
        candidates = res.stable.signatures() + [(1, 1, 1, 1), (5,)]
        mu = rng.choice(candidates)
        assert identity_multiplicity(factors, mu) == res.stable[mu]


def test_stable_probe_consistency_with_direct_computation():
    res = stable_tensor([(2,), (1, 1)])
    for k, probe in res.probes:
        assert probe.terms == tensor_multi([(2,), (1, 1)], k).terms
