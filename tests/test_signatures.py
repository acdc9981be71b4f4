import pytest
from hypothesis import given, strategies as st

from isotypic.branching import (
    dual_side_multiplicity,
    reciprocity_check,
    restrict_gl_to_so,
    restrict_gl_to_sp,
)
from isotypic import signatures
from isotypic.characters import (
    schur_laurent_on_so_torus,
    schur_poly,
    schur_product_decompose,
    so_character,
)
from isotypic.errors import NotDecreasing, OddRankForSp, RankConstraint, RankTooSmall
from isotypic.fock import (
    FockPoly,
    FockShape,
    harmonic_project_rank1,
    hwv,
    radial_square,
    verify_sl2,
    verify_sp2n,
    verify_supq,
)
from isotypic.lr import lr_coefficient, tensor_mixed, tensor_multi, tensor_pair
from isotypic.signatures import (
    GroupFamily,
    canonicalize,
    iter_partitions,
    pad,
    parse,
    render,
    shift_mixed,
    weight,
)
from isotypic.stable_limits import identity_multiplicity, stable_branch, stable_tensor
from oracles import conjugate


@st.composite
def partitions(draw, max_part=6, max_len=6):
    n = draw(st.integers(min_value=0, max_value=max_len))
    parts = sorted(
        draw(st.lists(st.integers(1, max_part), min_size=n, max_size=n)),
        reverse=True,
    )
    return tuple(parts)


@st.composite
def mixed_signatures(draw, rank=4):
    parts = sorted(
        draw(st.lists(st.integers(-5, 5), min_size=rank, max_size=rank)),
        reverse=True,
    )
    return tuple(parts)


def test_canonicalize_trims_zeros():
    assert canonicalize([3, 1, 0, 0]) == (3, 1)
    assert canonicalize([]) == ()
    assert canonicalize([2, 2, 0]) == (2, 2)


def test_canonicalize_rejects_unsorted():
    with pytest.raises(NotDecreasing):
        canonicalize([1, 2])


def test_negative_parts_are_rejected_at_every_entry_point():
    """Negative parts belong to mixed signatures; the partition API refuses them."""
    neg = (3, 2, -1)
    calls = [
        lambda: canonicalize(neg),
        lambda: canonicalize((0, -1)),
        lambda: tensor_pair(neg, (1,), 4),
        lambda: tensor_pair((), (-3, -3), 4),
        lambda: lr_coefficient((2,), neg, (4, 2)),
        lambda: lr_coefficient((2,), (1,), (3, 1, -1)),
        lambda: tensor_multi([(1,), neg], 4),
        lambda: restrict_gl_to_so(neg, 9),
        lambda: restrict_gl_to_sp(neg, 10),
        lambda: dual_side_multiplicity(neg, (1,), 3),
        lambda: reciprocity_check(neg, 3, 7),
        lambda: stable_tensor([(1,), neg]),
        lambda: stable_branch(neg, "so"),
        lambda: identity_multiplicity([(1,)], neg),
    ]
    for i, call in enumerate(calls):
        with pytest.raises(NotDecreasing):
            call()
            pytest.fail(f"call {i} accepted a negative part")


@given(partitions())
def test_canonicalize_idempotent(lam):
    assert canonicalize(lam + (0, 0)) == canonicalize(canonicalize(lam))


def test_conjugate_examples():
    assert conjugate((3, 1)) == (2, 1, 1)
    assert conjugate(()) == ()
    assert conjugate((2, 2)) == (2, 2)


@given(partitions())
def test_conjugate_involution_preserves_weight(lam):
    assert conjugate(conjugate(lam)) == lam
    assert weight(conjugate(lam)) == weight(lam)


def test_shift_mixed_examples():
    assert shift_mixed((1, 0, -2), 2) == (3, 2, 0)
    assert shift_mixed((0, 0), 0) == (0, 0)
    assert shift_mixed((2, -1), 1) == (3, 0)


@given(mixed_signatures(), st.integers(-4, 4))
def test_shift_mixed_roundtrip(sig, c):
    assert shift_mixed(shift_mixed(sig, c), -c) == sig


def test_render_and_parse():
    assert render((3, 1)) == "3,1"
    assert render(()) == "0"
    assert render((2, 0, 0, -1)) == "2,0,0,-1"
    assert parse("3,1") == (3, 1)
    assert parse("0") == ()
    assert parse("2,2,0") == (2, 2)


def test_pad():
    assert pad((2, 1), 4) == (2, 1, 0, 0)
    with pytest.raises(RankConstraint):
        pad((1, 1, 1), 2)


def test_group_family_constraints():
    for group in (GroupFamily("u", 3), GroupFamily("so", 7)):
        group.check_signature((1, 1, 1))
        with pytest.raises(RankConstraint):
            group.check_signature((1, 1, 1, 1))
    with pytest.raises(OddRankForSp):
        GroupFamily("sp", 3)
    with pytest.raises(RankConstraint):
        GroupFamily("so", 4).check_signature((1, 1, 1))
    assert GroupFamily("sp", "stable").rank == "stable"


def test_value_records_keep_their_contract():
    """The four value records print as literals, hash as the tuple of their
    fields and refuse field assignment; `GroupFamily` rejects bad labels
    with typed errors."""
    stable = stable_tensor([(1,)])
    report = reciprocity_check((1,), 1, 3)
    records = [
        (GroupFamily("so", 7), "rank", ("so", 7), "GroupFamily(family='so', rank=7)"),
        (FockShape(1, 2), "cols", (1, 2, 0), "FockShape(rows=1, cols=2, wrows=0)"),
        (
            report,
            "k",
            ((1,), 1, 3, (((1,), 1, 1, True),)),
            "ReciprocityReport(lam=(1,), n=1, k=3, rows=(((1,), 1, 1, True),))",
        ),
        (
            stable,
            "k0",
            (stable.stable, 1, stable.probes),
            "StableResult(stable=<u(stable): (1)>, k0=1,"
            " probes=((1, <u(1): (1)>), (2, <u(2): (1)>)))",
        ),
    ]
    for record, field, fields, text in records:
        assert repr(record) == text
        assert hash(record) == hash(fields)
        with pytest.raises(AttributeError):
            setattr(record, field, 5)
    assert FockShape(1, 2).wrows == 0
    rejections = [
        (("x", 3), ValueError, "unknown family 'x'"),
        (("u", 0), RankConstraint, "rank must be a positive integer, got 0"),
        (("so", "3"), RankConstraint, "rank must be a positive integer, got '3'"),
        (("sp", 3), OddRankForSp, "Sp rank must be even, got 3"),
    ]
    for args, cls, message in rejections:
        with pytest.raises(cls) as info:
            GroupFamily(*args)
        assert type(info.value) is cls and str(info.value) == message


def test_group_family_replace_checks_the_new_fields():
    assert GroupFamily("sp", 4)._replace(rank=6) == GroupFamily("sp", 6)
    with pytest.raises(OddRankForSp):
        GroupFamily("sp", 4)._replace(rank=5)


def test_equal_labels_are_one_object():
    """A label that passes its checks is interned: equal labels, however
    built, are one object, and the memo behind them is bounded."""
    label = GroupFamily("so", 7)
    assert label is GroupFamily("so", 7)
    assert GroupFamily("so", 5)._replace(rank=7) is label
    assert GroupFamily._make(["so", 7]) is label
    assert GroupFamily("sp", "stable") is GroupFamily("sp", "stable")
    assert stable_tensor([(1,)]).probes[0][1].group is GroupFamily("u", 1)
    maxsize = signatures._label.cache_info().maxsize
    assert isinstance(maxsize, int)
    for rank in range(1, maxsize + 10):
        assert GroupFamily("u", rank).rank == rank
    assert signatures._label.cache_info().currsize <= maxsize


def test_invalid_labels_keep_their_errors():
    """Every check runs before the label memo is read: a bad label raises
    the class and message it always raised, even an unhashable one, and
    never reaches the memo."""
    sp4 = GroupFamily("sp", 4)
    rejections = [
        (lambda: GroupFamily(["u"], 3), ValueError, "unknown family ['u']"),
        (lambda: GroupFamily("u", [1]), RankConstraint, "rank must be a positive integer, got [1]"),
        (lambda: GroupFamily("u", 1.0), RankConstraint, "rank must be a positive integer, got 1.0"),
        (lambda: GroupFamily("u", True), RankConstraint, "rank must be a positive integer, got True"),
        (lambda: GroupFamily("sp", 3), OddRankForSp, "Sp rank must be even, got 3"),
        (lambda: sp4._replace(rank=5), OddRankForSp, "Sp rank must be even, got 5"),
    ]
    for call, cls, message in rejections:
        before = signatures._label.cache_info()
        with pytest.raises(cls) as info:
            call()
        assert type(info.value) is cls and str(info.value) == message
        assert signatures._label.cache_info() == before


def test_bool_rank_is_rejected():
    """A bool is an int in Python, but no rank: the label and every engine
    entry that builds one reject it with the message of any other bad rank,
    the branching entries before any other check, and the Fock entries as a
    rank below their least (1, or 0 for the radial square and the harmonic
    projection); the characters and the Fock entries even after the same
    call at rank 1 filled their memos.  The characters take the label's
    check, so a rank below 1 fails with its message too."""
    assert schur_poly((1,), 1).terms == {(1,): 1}
    assert schur_laurent_on_so_torus((1,), 1).terms == {(): 1}
    assert so_character((), 1).terms == {(): 1}
    for rank in (True, False):
        with pytest.raises(RankConstraint, match=f"^rank must be a positive integer, got {rank}$"):
            GroupFamily("u", rank)
    with pytest.raises(RankConstraint):
        GroupFamily("u", 1)._replace(rank=True)
    for call in (
        lambda: tensor_multi([(1,), (1,)], True),
        lambda: tensor_pair((1,), (1,), True),
        lambda: tensor_mixed((1,), (-1,), True),
        lambda: restrict_gl_to_so((), True),
        lambda: restrict_gl_to_so((), False),
        lambda: restrict_gl_to_sp((), True),
        lambda: restrict_gl_to_sp((), False),
        lambda: reciprocity_check((), True, True),
        lambda: reciprocity_check((), 1, True),
        lambda: dual_side_multiplicity((), (), True),
        lambda: schur_product_decompose((1,), (1,), True),
        lambda: schur_poly((1,), True),
        lambda: schur_laurent_on_so_torus((1,), True),
        lambda: so_character((), True),
    ):
        with pytest.raises(RankConstraint, match="^rank must be a positive integer, got (True|False)$"):
            call()
    with pytest.raises(RankConstraint, match="^rank must be a positive integer, got -1$"):
        schur_poly((), -1)
    for rank in (0, -3):
        with pytest.raises(RankConstraint, match=f"^rank must be a positive integer, got {rank}$"):
            so_character((), rank)
    assert (verify_sl2(1), verify_sp2n(1, 2), verify_supq(1, 1, 2)) == ((3, True), (6, True), (2, True))
    for call in (
        lambda: verify_sl2(True),
        lambda: verify_sl2(False),
        lambda: verify_sp2n(True, 2),
        lambda: verify_supq(True, 1, 2),
        lambda: verify_supq(1, 1, True),
        lambda: hwv("gl", (1,), True, True),
        lambda: hwv("so_rank1", 0, 1, True),
        lambda: hwv("so_rank1", 1, True, 3),
        lambda: radial_square(True),
        lambda: harmonic_project_rank1(FockPoly.constant(FockShape(1, 1), 1), True),
        lambda: harmonic_project_rank1(FockPoly.constant(FockShape(1, 0), 1), False),
    ):
        with pytest.raises(RankTooSmall, match="got [a-z]=(True|False)$"):
            call()


def test_iter_partitions_counts():
    assert sum(1 for _ in iter_partitions(5)) == 7
    assert sum(1 for _ in iter_partitions(8)) == 22
    assert list(iter_partitions(3, max_length=2)) == [(3,), (2, 1)]
    assert list(iter_partitions(0)) == [()]
