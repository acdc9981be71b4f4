import random
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import assume, given, settings, strategies as st

from isotypic.errors import (
    BadSignature,
    DimensionMismatch,
    NotHomogeneous,
    RankTooSmall,
    ShapeMismatch,
)
from isotypic.fock import (
    FockPoly,
    FockShape,
    GaussRat,
    I_UNIT,
    WeylOp,
    check_covariance,
    harmonic_project_rank1,
    hwv,
    pairing,
    parse_gauss,
    parse_poly,
    radial_square,
    render_poly,
    sl2_generators,
    sp2n_generators,
    supq_laplacians,
    translate,
    verify_sl2,
    verify_sp2n,
    verify_supq,
    weyl_commutator,
    z_var,
    w_var,
)
from isotypic.signatures import iter_partitions
from isotypic.terms import leibniz_det
from oracles import (
    ad_matrix,
    conjugate_by_right_translation,
    covariance_by_fraction_trials,
    covariance_by_integer_trials,
    gauss_add,
    gauss_conj,
    gauss_mul,
    gauss_ref,
    gauss_str,
    gauss_sub,
    harmonic_by_fraction_lowering,
    index_key,
    int_expand,
    int_images,
    matrix_inverse,
    quadratic_relation_holds,
    sl2_terms,
    so_hwv_by_frame,
    sp2n_terms,
    supq_terms,
    weyl_bracket,
    weyl_compose,
    weyl_terms,
)


def euler_operator(shape):
    nv = shape.nvars
    terms = {}
    for i in range(nv):
        e = [0] * nv
        e[i] = 1
        terms[(tuple(e), tuple(e))] = GaussRat(1)
    return WeylOp(shape, terms)


def random_poly(shape, rng, degree=3, nterms=4):
    terms = {}
    for _ in range(nterms):
        exps = [0] * shape.nvars
        for _ in range(rng.randint(0, degree)):
            exps[rng.randrange(shape.nvars)] += 1
        coeff = GaussRat(
            Fraction(rng.randint(-3, 3), rng.randint(1, 3)),
            Fraction(rng.randint(-3, 3), rng.randint(1, 3)),
        )
        terms[tuple(exps)] = terms.get(tuple(exps), GaussRat(0)) + coeff
    return FockPoly(shape, terms)


def test_gaussrat_arithmetic():
    a = GaussRat(Fraction(1, 2), Fraction(3, 2))
    b = GaussRat(2, -1)
    assert a + b == GaussRat(Fraction(5, 2), Fraction(1, 2))
    assert a * I_UNIT == GaussRat(Fraction(-3, 2), Fraction(1, 2))
    assert a.conj() == GaussRat(Fraction(1, 2), Fraction(-3, 2))
    assert I_UNIT * I_UNIT == GaussRat(-1)


RATIONALS = st.one_of(
    st.integers(-30, 30),
    st.fractions(min_value=-30, max_value=30, max_denominator=8),
)


def assert_matches_reference(value, ref):
    """Same parts and text as the Fraction pair, with int parts when integral;
    the hash of the pair, or of the real part itself when the value is real."""
    assert (value.re, value.im) == ref
    for part, want in zip((value.re, value.im), ref):
        assert type(part) is (int if want.denominator == 1 else Fraction), (value, ref)
    assert str(value) == gauss_str(ref)
    assert hash(value) == (hash(ref) if ref[1] else hash(ref[0]))


@settings(max_examples=300, deadline=None)
@given(RATIONALS, RATIONALS, RATIONALS, RATIONALS)
def test_gaussrat_matches_fraction_reference(a, b, c, d):
    x, y = GaussRat(a, b), GaussRat(c, d)
    rx, ry = gauss_ref(a, b), gauss_ref(c, d)
    cases = [
        (x, rx),
        (x + y, gauss_add(rx, ry)),
        (x - y, gauss_sub(rx, ry)),
        (x * y, gauss_mul(rx, ry)),
        (x * c, gauss_mul(rx, gauss_ref(c))),
        (c * x, gauss_mul(rx, gauss_ref(c))),
        (c - x, gauss_sub(gauss_ref(c), rx)),
        (-x, gauss_sub(gauss_ref(0), rx)),
        (x.conj(), gauss_conj(rx)),
    ]
    for value, ref in cases:
        assert_matches_reference(value, ref)
    assert (x == y) == (rx == ry)
    assert (x == c) == (rx == gauss_ref(c))


def test_gaussrat_equals_an_int_as_the_general_route_does():
    """GaussRat.__eq__ reads an int operand directly; it must answer as the
    route through a second GaussRat does, both ways round, for 0, +-1, 2**70,
    bools and integral Fractions, against real and non-real values; a
    GaussRat equal to a scalar, and equal GaussRats, must hash equal."""
    scalars = [0, 1, -1, 2**70, -(2**70), True, False, Fraction(4, 2), Fraction(-(2**70)), Fraction(1, 2)]
    parts = (0, 1, -1, 2**70, Fraction(1, 2))
    values = [GaussRat(re, im) for re in parts for im in (0, 1, -1, 2**70)]
    for x in values:
        for s in scalars:
            general = x == GaussRat(s)
            assert general is ((Fraction(x.re), Fraction(x.im)) == gauss_ref(s)), (x, s)
            assert (x == s) is general and (s == x) is general, (x, s)
            assert (x != s) is (not general), (x, s)
            if general:
                assert hash(x) == hash(s), (x, s)
    pool = values + [GaussRat(s) for s in scalars] + [GaussRat(Fraction(2**71, 2)), GaussRat(0, Fraction(-2, 2))]
    for x, y in product(pool, repeat=2):
        if x == y:
            assert hash(x) == hash(y), (x, y)
    assert GaussRat(1, 1) != 1 and GaussRat(0, 1) != 0 and GaussRat(2**70, 1) != 2**70
    assert {1: "a"}.get(GaussRat(1)) == "a" and len({1, GaussRat(1), Fraction(1)}) == 1


def test_gaussrat_text_round_trip():
    for value in (
        GaussRat(0),
        GaussRat(Fraction(3, 2)),
        GaussRat(0, Fraction(-5, 4)),
        GaussRat(Fraction(1, 2), Fraction(3, 2)),
        GaussRat(-1, -2),
    ):
        assert parse_gauss(str(value)) == value
    assert str(GaussRat(Fraction(1, 2), Fraction(3, 2))) == "1/2+3/2*i"
    assert str(GaussRat(1, -2)) == "1-2*i"


def test_pairing_norms_and_orthogonality():
    shape = FockShape(1, 2)
    z1 = z_var(shape, 1, 1)
    z2 = z_var(shape, 1, 2)
    assert pairing(z1 ** 2, z1 ** 2) == GaussRat(2)
    assert pairing(z1, z2) == GaussRat(0)
    assert pairing(FockPoly.zero(shape), z2) == GaussRat(0)
    with pytest.raises(ShapeMismatch):
        pairing(z1, z_var(FockShape(1, 3), 1, 1))


def test_pairing_conjugate_symmetric_and_positive():
    rng = random.Random(3)
    shape = FockShape(2, 2)
    for _ in range(10):
        f = random_poly(shape, rng)
        g = random_poly(shape, rng)
        assert pairing(f, g) == pairing(g, f).conj()
        if not f.is_zero():
            norm = pairing(f, f)
            assert norm.im == 0 and norm.re > 0


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_pairing_adjointness_of_creation(data):
    shape = FockShape(2, 2)
    exps_f = data.draw(
        st.lists(st.integers(0, 3), min_size=4, max_size=4).map(tuple)
    )
    exps_g = data.draw(
        st.lists(st.integers(0, 3), min_size=4, max_size=4).map(tuple)
    )
    idx = data.draw(st.integers(0, 3))
    f = FockPoly(shape, {exps_f: GaussRat(1, 1)})
    g = FockPoly(shape, {exps_g: GaussRat(2, -1)})
    zf = FockPoly.variable(shape, idx) * f
    dg = WeylOp.differential(FockPoly.variable(shape, idx)).apply(g)
    assert pairing(zf, g) == pairing(f, dg)


def test_weyl_apply_euler():
    shape = FockShape(1, 2)
    f = z_var(shape, 1, 1) ** 2 * z_var(shape, 1, 2)
    assert euler_operator(shape).apply(f) == 3 * f
    assert WeylOp.multiplication(FockPoly.constant(shape, 1)).apply(f) == f


def test_weyl_apply_shape_guard():
    shape = FockShape(1, 2)
    identity = WeylOp.multiplication(FockPoly.constant(shape, 1))
    with pytest.raises(ShapeMismatch):
        identity.apply(FockPoly.constant(FockShape(1, 3), 1))


def test_sl2_relations_and_actions():
    for k in (1, 2, 3):
        e_op, xp, xm = sl2_generators(k)
        assert weyl_commutator(e_op, xp) == 2 * xp
        assert weyl_commutator(e_op, xm) == (-2) * xm
        assert weyl_commutator(xm, xp) == e_op
        assert weyl_commutator(xp, xp).is_zero()
    e_op, xp, xm = sl2_generators(3)
    one = FockPoly.constant(FockShape(1, 3), 1)
    assert xm.apply(one).is_zero()
    assert e_op.apply(one) == Fraction(3, 2) * one


def test_harmonic_hwv_annihilated():
    _, _, xm = sl2_generators(3)
    harmonic = hwv("so_rank1", 2, 1, 3)
    assert xm.apply(harmonic).is_zero()
    shape = FockShape(1, 3)
    expected = (z_var(shape, 1, 1) + I_UNIT * z_var(shape, 1, 3)) ** 2
    assert harmonic == expected


def test_sp2n_reduces_to_sl2_at_rank_one():
    e_op, xp, xm = sl2_generators(3)
    fam = sp2n_generators(1, 3)
    assert fam["P"][(1, 1)] == (-2) * xp
    assert fam["D"][(1, 1)] == 2 * xm
    assert fam["E"][(1, 1)] == e_op


def test_sp2n_relation_spot_checks():
    fam = sp2n_generators(2, 5)
    p_ops, d_ops, e_ops = fam["P"], fam["D"], fam["E"]
    for ab, cd in product(p_ops, p_ops):
        assert weyl_commutator(p_ops[ab], p_ops[cd]).is_zero()
    assert weyl_commutator(p_ops[(1, 1)], d_ops[(1, 1)]) == 4 * e_ops[(1, 1)]
    # Frozen from the normal-ordered composition: a single P term.
    assert weyl_commutator(e_ops[(1, 2)], p_ops[(2, 1)]) == p_ops[(1, 1)]
    assert weyl_commutator(p_ops[(1, 1)], d_ops[(1, 2)]) == 2 * e_ops[(1, 2)]


def test_sp2n_adjoints_under_pairing():
    fam = sp2n_generators(2, 4)
    rng = random.Random(9)
    shape = FockShape(2, 4)
    for _ in range(6):
        f = random_poly(shape, rng)
        g = random_poly(shape, rng)
        assert pairing(fam["P"][(1, 2)].apply(f), g) == -pairing(
            f, fam["D"][(1, 2)].apply(g)
        )
        assert pairing(fam["E"][(1, 2)].apply(f), g) == pairing(
            f, fam["E"][(2, 1)].apply(g)
        )


def test_verify_sp2n_needs_positive_rank():
    with pytest.raises(RankTooSmall):
        verify_sp2n(0, 3)


def test_verifiers_reject_nonpositive_ranks():
    for call in (
        lambda: verify_sl2(0),
        lambda: verify_sl2(-1),
        lambda: verify_sp2n(1, -2),
        lambda: verify_sp2n(2, 0),
        lambda: verify_supq(1, 1, 0),
        lambda: verify_supq(1, 1, -3),
        # An empty index set would otherwise pass vacuously as (0, True).
        lambda: verify_supq(0, 1, 2),
        lambda: verify_supq(1, 0, 2),
        lambda: verify_supq(-1, 2, 2),
    ):
        with pytest.raises(RankTooSmall):
            call()
    assert verify_supq(1, 1, 2) == (2, True)


# (call, error class, its exact message): refusals no other test reaches.
FOCK_REFUSALS = [
    (lambda: hwv("so_rank1", -1, 1, 3), BadSignature, "degree must be nonnegative, got -1"),
    # A degree that is no tuple or list is read as a one-part signature.
    (lambda: hwv("so_rank1", True, 1, 3),
     TypeError, "a signature part must be an int, not a bool: [True]"),
    (lambda: hwv("so_rank1", 2.5, 1, 3),
     TypeError, "'float' object cannot be interpreted as an integer"),
    (lambda: hwv("sp", (1,), 1, 2), BadSignature, "unknown highest weight vector kind 'sp'"),
    (lambda: check_covariance(FockPoly.zero(FockShape(1, 2)), "left_lower", (0,)),
     ValueError, "covariance of the zero polynomial is vacuous"),
    (lambda: check_covariance(z_var(FockShape(1, 2), 1, 1), "upper", (1,)),
     ValueError, "unknown side 'upper'"),
    (lambda: check_covariance(z_var(FockShape(1, 2), 1, 1), "left_lower", (1, 0)),
     BadSignature, "2 exponents for 1 diagonal entries"),
    (lambda: harmonic_project_rank1(z_var(FockShape(2, 2), 1, 1), 2),
     ShapeMismatch, "expected one row of 2 variables, got FockShape(rows=2, cols=2, wrows=0)"),
    (lambda: translate(z_var(FockShape(1, 2), 1, 1), [[1, 0], [0, 1]], "left"),
     ValueError, "unknown side 'left'"),
    (lambda: FockShape(1, 2, 1).w_index(2, 1),
     ValueError, "W[2][1] outside shape FockShape(rows=1, cols=2, wrows=1)"),
    (lambda: parse_gauss("  "), ValueError, "empty coefficient"),
    (lambda: z_var(FockShape(1, 2), 1, 1) ** -1, ValueError, "negative power of a polynomial"),
]


@pytest.mark.parametrize("call, error, message", FOCK_REFUSALS)
def test_fock_refusals_raise_their_typed_error(call, error, message):
    with pytest.raises(error) as info:
        call()
    assert type(info.value) is error and str(info.value) == message


def test_so_rank1_takes_a_degree_or_a_one_part_signature():
    assert hwv("so_rank1", (3, 0), 1, 3) == hwv("so_rank1", 3, 1, 3)
    assert hwv("so_rank1", (), 1, 3) == hwv("so_rank1", 0, 1, 3) == FockPoly.constant(FockShape(1, 3), 1)
    assert hwv("so_rank1", [2], 1, 3) == hwv("so_rank1", 2, 1, 3)


def test_supq_laplacians():
    fam = supq_laplacians(1, 1, 2)
    shape = FockShape(1, 2, 1)
    invariant = z_var(shape, 1, 1) * w_var(shape, 1, 1) + z_var(
        shape, 1, 2
    ) * w_var(shape, 1, 2)
    assert fam["delta"][(1, 1)].apply(invariant) == FockPoly.constant(shape, 2)
    pure_z = z_var(shape, 1, 1) ** 3
    assert fam["delta"][(1, 1)].apply(pure_z).is_zero()
    fam3 = supq_laplacians(1, 1, 3)
    one = FockPoly.constant(FockShape(1, 3, 1), 1)
    bracket = weyl_commutator(fam3["delta"][(1, 1)], fam3["p"][(1, 1)])
    assert bracket.apply(one) == FockPoly.constant(FockShape(1, 3, 1), 3)
    for first, second in product(fam3["delta"], fam3["delta"]):
        assert weyl_commutator(fam3["delta"][first], fam3["delta"][second]).is_zero()
        assert weyl_commutator(fam3["p"][first], fam3["p"][second]).is_zero()


def test_lowering_base_identity():
    # X-(p0 f) = (k + 2s) f + p0/2 * laplacian(f) on degree-s inputs.
    for k in (2, 3, 4):
        shape = FockShape(1, k)
        _, _, xm = sl2_generators(k)
        p0 = radial_square(k)
        laplacian = 2 * xm
        for f in (
            FockPoly.constant(shape, 1),
            z_var(shape, 1, 1),
            z_var(shape, 1, 1) ** 2,
            p0,
            z_var(shape, 1, 1) * z_var(shape, 1, 2),
        ):
            s = f.degree() or 0
            lhs = xm.apply(p0 * f)
            rhs = (k + 2 * s) * f + Fraction(1, 2) * (
                p0 * laplacian.apply(f)
            )
            assert lhs == rhs, (k, f)


def test_ladder_constants():
    for k in (3, 5):
        _, _, xm = sl2_generators(k)
        p0 = radial_square(k)
        for r in range(5):
            h = hwv("so_rank1", r, 1, k)
            for j in range(1, 5):
                lhs = xm.apply(p0 ** j * h)
                rhs = (j * (k + 2 * (r + j - 1))) * (p0 ** (j - 1) * h)
                assert lhs == rhs, (k, r, j)


def test_number_operator_eigenvalues():
    for k in (3, 5):
        e_op, _, _ = sl2_generators(k)
        p0 = radial_square(k)
        for r in (0, 1, 3):
            h = hwv("so_rank1", r, 1, k)
            for j in (0, 1, 2):
                vec = p0 ** j * h
                assert e_op.apply(vec) == (Fraction(k, 2) + r + 2 * j) * vec


def test_harmonic_projection_example():
    shape = FockShape(1, 3)
    f = z_var(shape, 1, 1) ** 2
    comps = dict(harmonic_project_rank1(f, 3))
    p0 = radial_square(3)
    assert comps[1] == FockPoly.constant(shape, Fraction(1, 3))
    assert comps[0] == f - Fraction(1, 3) * p0
    _, _, xm = sl2_generators(3)
    assert xm.apply(comps[0]).is_zero()


def test_harmonic_projection_trivial_cases():
    shape = FockShape(1, 3)
    harmonic = hwv("so_rank1", 3, 1, 3)
    assert harmonic_project_rank1(harmonic, 3) == [(0, harmonic)]
    p0 = radial_square(3)
    assert harmonic_project_rank1(p0, 3) == [
        (1, FockPoly.constant(shape, 1))
    ]
    with pytest.raises(NotHomogeneous):
        harmonic_project_rank1(p0 + z_var(shape, 1, 1), 3)
    # Degrees 0 and 1 are harmonic, also on a row of no variables.
    for f, k in ((z_var(shape, 1, 2), 3), (FockPoly.constant(FockShape(1, 0), 3), 0)):
        assert harmonic_project_rank1(f, k) == [(0, f)]
    # A negative count is no row: it is refused, not read as an empty one.
    assert radial_square(0).is_zero()
    for call in (
        lambda: radial_square(-1),
        lambda: harmonic_project_rank1(FockPoly.constant(FockShape(1, 0), 1), -1),
    ):
        with pytest.raises(RankTooSmall, match=r"needs k >= 0, got k=-1$"):
            call()


def test_fock_shape_checks_its_sizes():
    """A shape is its own gate: a bool, a non-int or a negative size is
    refused, also through ``_replace``; size 0 is an empty block."""
    assert FockShape(1, 0).nvars == 0
    assert FockShape(1, 2)._replace(wrows=1) == FockShape(1, 2, 1)
    for call in (
        lambda: FockShape(1, -2),
        lambda: FockShape(True, True),
        lambda: FockShape(1.5, 2),
        lambda: FockShape(1, 1)._replace(cols=-1),
    ):
        with pytest.raises(RankTooSmall, match=r"^a Fock shape needs [a-z]+ >= 0, got "):
            call()


def test_harmonic_projection_random_reconstruction():
    rng = random.Random(17)
    for k in (3, 4, 5):
        shape = FockShape(1, k)
        _, _, xm = sl2_generators(k)
        p0 = radial_square(k)
        for m in (2, 3, 5, 8):
            exps = []
            for _ in range(3):
                e = [0] * k
                for _ in range(m):
                    e[rng.randrange(k)] += 1
                exps.append(tuple(e))
            f = FockPoly(
                shape, {e: GaussRat(rng.randint(1, 5)) for e in exps}
            )
            comps = harmonic_project_rank1(f, k)
            rebuilt = FockPoly.zero(shape)
            for j, h in comps:
                assert xm.apply(h).is_zero(), (k, m, j)
                assert h.is_homogeneous() and h.degree() == m - 2 * j
                rebuilt = rebuilt + p0 ** j * h
            assert rebuilt == f


def _plain_components(comps):
    return [(j, {e: gauss_ref(c.re, c.im) for e, c in h.terms.items()}) for j, h in comps]


def _row_poly(rng, k, m, part):
    """A homogeneous degree-m polynomial on one row of k variables, parts drawn by part(rng)."""
    terms = {}
    for _ in range(rng.randint(1, 4)):
        e = [0] * k
        for _ in range(m):
            e[rng.randrange(k)] += 1
        terms[tuple(e)] = GaussRat(part(rng), part(rng))
    return FockPoly(FockShape(1, k), terms)


def _harmonic_grid():
    """Inputs for k = 1..4 and degree 0..5: Gaussian and fractional
    coefficients, and inputs most of whose components vanish."""
    rng = random.Random(23)
    gaussian = lambda r: r.randint(-3, 3)
    fractional = lambda r: Fraction(r.randint(-5, 5), r.randint(1, 6))
    for k, m in product(range(1, 5), range(6)):
        shape = FockShape(1, k)
        yield k, m, _row_poly(rng, k, m, gaussian)
        yield k, m, _row_poly(rng, k, m, fractional)
        # Only the component j = m // 2 is nonzero.
        yield k, m, GaussRat(2, -1) * radial_square(k) ** (m // 2) * z_var(shape, 1, 1) ** (m % 2)
        if k >= 2:
            # Only j = 0, then only j = 1, is nonzero.
            yield k, m, Fraction(-3, 4) * hwv("so_rank1", m, 1, k)
            if m >= 2:
                yield k, m, radial_square(k) * hwv("so_rank1", m - 2, 1, k) * GaussRat(Fraction(1, 3), 1)


def test_harmonic_projection_matches_fraction_lowering_on_a_grid():
    vanished = 0
    for k, m, f in _harmonic_grid():
        comps = harmonic_project_rank1(f, k)
        assert _plain_components(comps) == harmonic_by_fraction_lowering(f, k), (k, render_poly(f))
        vanished += len(comps) < m // 2 + 1
    assert vanished > 20


@settings(max_examples=60, deadline=None)
@given(
    st.integers(1, 4),
    st.integers(0, 5),
    st.lists(
        st.tuples(
            st.integers(0, 2 ** 16),
            st.one_of(st.integers(-3, 3), st.fractions(-3, 3, max_denominator=5)),
            st.one_of(st.integers(-3, 3), st.fractions(-3, 3, max_denominator=5)),
        ),
        min_size=1,
        max_size=4,
    ),
)
def test_harmonic_projection_matches_fraction_lowering(k, m, draws):
    terms = {}
    for picks, re, im in draws:
        e = [0] * k
        for _ in range(m):
            picks, i = divmod(picks, k)
            e[i] += 1
        terms[tuple(e)] = GaussRat(re, im)
    f = FockPoly(FockShape(1, k), terms)
    assert _plain_components(harmonic_project_rank1(f, k)) == harmonic_by_fraction_lowering(f, k)


def test_harmonic_projection_divides_once_per_output_term(monkeypatch):
    """On integer inputs the lowering loop stays on ints: no Fraction product
    at all, and the only Fractions built are the two parts of each output
    term, by its one closing division."""
    products, built = [], []
    for name in ("__mul__", "__rmul__"):
        real = getattr(Fraction, name)
        monkeypatch.setattr(Fraction, name, lambda a, b, real=real: products.append(b) or real(a, b))
    new = Fraction.__new__
    monkeypatch.setattr(Fraction, "__new__", staticmethod(lambda cls, *a, **kw: built.append(a) or new(cls, *a, **kw)))
    rng = random.Random(29)
    for k, m, gaussian in product(range(1, 5), range(6), (False, True)):
        for _ in range(3):
            f = _row_poly(rng, k, m, lambda r: r.randint(-3, 3))
            if not gaussian:
                f = FockPoly(f.shape, {e: c.re for e, c in f.terms.items()})
            before = len(built)
            comps = harmonic_project_rank1(f, k)
            terms = sum(len(h.terms) for _, h in comps)
            assert len(built) - before <= 2 * terms, (k, render_poly(f))
    assert products == []
    # The closing divisions were counted.
    assert built


def test_gl_hwv_and_covariance():
    shape = FockShape(2, 2)
    expected = z_var(shape, 1, 1) * (
        z_var(shape, 1, 1) * z_var(shape, 2, 2)
        - z_var(shape, 1, 2) * z_var(shape, 2, 1)
    )
    assert hwv("gl", (2, 1), 2, 2) == expected
    assert check_covariance(expected, "left_lower", (2, 1))
    assert check_covariance(expected, "right_upper", (2, 1))
    one = FockPoly.constant(shape, 1)
    assert check_covariance(one, "left_lower", ())
    assert check_covariance(one, "right_upper", (0, 0))


def test_covariance_failure_witnesses():
    shape = FockShape(2, 2)
    # Z[2][1] mixes with row one under lower-triangular substitutions;
    # Z[1][2] mixes with column one under upper-triangular ones.
    assert not check_covariance(z_var(shape, 2, 1), "left_lower", (1, 0))
    assert not check_covariance(z_var(shape, 2, 1), "left_lower", (0, 1))
    assert not check_covariance(z_var(shape, 1, 2), "right_upper", (0, 1))
    assert check_covariance(z_var(shape, 1, 2), "left_lower", (1, 0))


def test_covariance_deterministic_under_seed():
    vec = hwv("gl", (2, 1), 2, 3)
    first = check_covariance(vec, "left_lower", (2, 1), seed=5)
    second = check_covariance(vec, "left_lower", (2, 1), seed=5)
    assert first is second is True


def test_so_general_hwv_matches_rank1():
    for k in (4, 5, 6, 7):
        assert hwv("so_general", (1,), 1, k) == hwv("so_rank1", 1, 1, k)
        assert hwv("so_general", (3,), 1, k) == hwv("so_rank1", 3, 1, k)


def test_so_hwv_match_the_explicit_frame():
    """Both SO kinds against minors of Z q for the frame matrix written out."""
    def as_ref(f):
        return {e: gauss_ref(c.re, c.im) for e, c in f.terms.items()}

    sigs = [p for w in range(5) for p in iter_partitions(w)]
    for k in range(1, 9):
        for n in range(1, 4):
            for mu in sigs:
                if len(mu) > n or 2 * len(mu) > k:
                    with pytest.raises(BadSignature):
                        hwv("so_general", mu, n, k)
                    continue
                assert as_ref(hwv("so_general", mu, n, k)) == so_hwv_by_frame(mu, n, k), (mu, n, k)
        for r in range(5):
            if r and k < 2:
                with pytest.raises(BadSignature):
                    hwv("so_rank1", r, 1, k)
                continue
            expected = so_hwv_by_frame((r,) if r else (), 1, k)
            assert as_ref(hwv("so_rank1", r, 1, k)) == expected, (r, k)


def test_so_general_hwv_harmonic():
    for k in (5, 6):
        for n in (1, 2):
            fam = sp2n_generators(n, k)
            for mu in ((1,), (2,), (1, 1), (2, 1)):
                if len(mu) > n:
                    continue
                vec = hwv("so_general", mu, n, k)
                assert not vec.is_zero()
                for a in range(1, n + 1):
                    for b in range(a, n + 1):
                        assert fam["D"][(a, b)].apply(vec).is_zero(), (mu, n, k)


def test_so_general_hwv_covariant():
    vec = hwv("so_general", (2, 1), 2, 5)
    assert check_covariance(vec, "left_lower", (2, 1))


def test_upq_hwv():
    vec = hwv("upq", ((2,), (1,)), (1, 1), 4)
    shape = FockShape(1, 4, 1)
    assert vec == z_var(shape, 1, 1) ** 2 * w_var(shape, 1, 4)
    fam = supq_laplacians(1, 1, 4)
    assert fam["delta"][(1, 1)].apply(vec).is_zero()
    two_row = hwv("upq", ((2, 1), (1,)), (2, 1), 5)
    fam = supq_laplacians(2, 1, 5)
    for key, op in fam["delta"].items():
        assert op.apply(two_row).is_zero(), key


def test_hwv_guards():
    with pytest.raises(BadSignature):
        hwv("gl", (1, 1, 1), 2, 5)
    with pytest.raises(BadSignature):
        hwv("so_general", (1, 1), 2, 3)
    with pytest.raises(BadSignature):
        hwv("upq", ((1,), (1,)), (1, 1), 1)
    with pytest.raises(BadSignature):
        hwv("so_rank1", 2, 1, 1)
    # upq takes pairs; a mis-shaped pair is a signature error, not an unpacking one.
    for data, n in (((1,), (1, 1)), (((1,), (), ()), (1, 1)), (((1,), ()), (1,))):
        with pytest.raises(BadSignature, match=r"^upq needs data = \(nu, lam\) and n = \(p, q\)$"):
            hwv("upq", data, n, 2)
    with pytest.raises(TypeError):
        hwv("upq", 5, (1, 1), 2)


def test_so_rank1_rejects_a_signature_of_several_parts():
    for data in ((2, 1), (1, 1), [3, 1, 1]):
        with pytest.raises(BadSignature, match="more than one part"):
            hwv("so_rank1", data, 1, 4)
    # One part, trailing zeros trimmed, is the degree.
    assert hwv("so_rank1", (3, 0), 1, 4) == hwv("so_rank1", 3, 1, 4)
    assert hwv("so_rank1", (), 1, 4) == hwv("so_rank1", 0, 1, 4)


def test_so_rank1_lives_on_one_row():
    """n other than 1 is an error, not the one-row vector reported at n."""
    for n in (0, 2, 3):
        with pytest.raises(BadSignature, match=f"^an isotropic linear form needs n = 1, got n={n}$"):
            hwv("so_rank1", 2, n, 4)
    assert hwv("so_rank1", 2, 1, 4).shape == FockShape(1, 4)


def test_hwv_needs_positive_ranks():
    """A shape with no variables raises RankTooSmall, as the generators do;
    a signature error keeps its class."""
    for call, message in (
        (lambda: hwv("gl", (), 0, 0), "n >= 1, got n=0"),
        (lambda: hwv("gl", (), 1, 0), "k >= 1, got k=0"),
        (lambda: hwv("so_general", (), 1, 0), "k >= 1, got k=0"),
        (lambda: hwv("so_general", (), 0, 3), "n >= 1, got n=0"),
        (lambda: hwv("upq", ((), ()), (0, 0), 0), "p >= 1, got p=0"),
        (lambda: hwv("upq", ((), ()), (1, 0), 2), "q >= 1, got q=0"),
        (lambda: hwv("so_rank1", 0, 1, 0), "k >= 1, got k=0"),
    ):
        with pytest.raises(RankTooSmall, match=f"^highest weight vectors needs {message}$"):
            call()
    for call in (
        lambda: hwv("gl", (1,), 0, 1),
        lambda: hwv("so_general", (1,), 1, 0),
        lambda: hwv("upq", ((1,), ()), (0, 1), 1),
        lambda: hwv("so_rank1", 1, 1, 0),
    ):
        with pytest.raises(BadSignature):
            call()


def test_translate_examples():
    shape = FockShape(1, 2)
    f = z_var(shape, 1, 1)
    swap = [[0, 1], [1, 0]]
    assert translate(f, swap, "right") == z_var(shape, 1, 2)
    eye = [[1, 0], [0, 1]]
    assert translate(f, eye, "right") == f
    with pytest.raises(DimensionMismatch):
        translate(f, [[1]], "right")


def test_translate_is_multiplicative():
    rng = random.Random(23)
    shape = FockShape(2, 2)
    f = random_poly(shape, rng)
    g = [[1, 2], [0, 1]]
    h = [[1, 0], [Fraction(1, 2), 1]]
    hg = [
        [sum(h[i][t] * g[t][j] for t in range(2)) for j in range(2)]
        for i in range(2)
    ]
    assert translate(translate(f, g, "right"), h, "right") == translate(
        f, hg, "right"
    )


def test_translate_left_transpose():
    shape = FockShape(2, 3)
    f = z_var(shape, 1, 1)
    g = [[2, 0], [1, 1]]
    # f((g^t) Z) replaces row terms: Z[1][1] -> 2 Z[1][1] + 1 Z[2][1].
    expected = 2 * z_var(shape, 1, 1) + z_var(shape, 2, 1)
    assert translate(f, g, "left_transpose") == expected


def test_translation_unitarity():
    u = [
        [Fraction(3, 5), Fraction(4, 5)],
        [Fraction(-4, 5), Fraction(3, 5)],
    ]
    rng = random.Random(31)
    for shape in (FockShape(1, 2), FockShape(2, 2)):
        for _ in range(8):
            f = random_poly(shape, rng)
            g = random_poly(shape, rng)
            assert pairing(
                translate(f, u, "right"), translate(g, u, "right")
            ) == pairing(f, g)


def _reference_terms(op):
    return {key: gauss_ref(c.re, c.im) for key, c in op.terms.items()}


def test_conjugation_identity():
    """R(g) p(D) R(g)^-1 = (p o g^-T)(D) and R(g) p R(g)^-1 = p o g, with the
    left sides from the conjugation oracle and the right ones from translate."""
    shape = FockShape(1, 2)
    p = z_var(shape, 1, 1) ** 2
    for g in ([[0, 1], [1, 0]], [[1, 2], [0, 1]], [[1, 1], [1, 2]]):
        ginv = matrix_inverse(g)
        gcheck = [[ginv[j][i] for j in range(2)] for i in range(2)]
        lhs = conjugate_by_right_translation(WeylOp.differential(p), g)
        rhs = WeylOp.differential(translate(p, gcheck, "right"))
        assert lhs == _reference_terms(rhs), g
        lhs = conjugate_by_right_translation(WeylOp.multiplication(p), g)
        assert lhs == _reference_terms(WeylOp.multiplication(translate(p, g, "right"))), g


def test_poly_text_round_trip():
    shape = FockShape(2, 2, 1)
    rng = random.Random(41)
    for _ in range(12):
        f = random_poly(shape, rng)
        assert parse_poly(render_poly(f), shape) == f
    assert render_poly(FockPoly.zero(shape)) == "0"
    text = "(1/2+3/2*i) * Z[1][1]^2 * W[1][2]"
    f = parse_poly(text)
    assert render_poly(f) == text
    assert parse_poly("Z[1][1] + 2*i*Z[1][2] - 1") == parse_poly(
        "-1 + Z[1][1] + 2*i*Z[1][2]"
    )


def test_every_i_factor_multiplies():
    """A bare i is one more factor, wherever it stands in a term."""
    assert parse_poly("Z[1][1]*i*i") == parse_poly("-Z[1][1]")
    assert parse_poly("2*i*i") == parse_poly("-2")
    assert parse_poly("i*i*i") == parse_poly("-i")
    assert parse_poly("1/2*i*Z[1][1]") == parse_poly("(1/2*i)*Z[1][1]")
    assert parse_poly("Z[3][2]-i*i") == parse_poly("Z[3][2]+1")


POLY_TEXT_ERRORS = [
    # A dangling sign in any term is reported before any coefficient error.
    ("", None, "empty polynomial text"),
    ("+", None, "dangling sign in '+'"),
    ("1/0*Z[1][1] + -", None, "dangling sign in '1/0*Z[1][1] + -'"),
    # With no shape, variables are checked against the extent (rows, cols >= 1).
    ("Z[0][1]", None, "Z[0][1] outside shape FockShape(rows=1, cols=1, wrows=0)"),
    # Then coefficient and shape errors come in text order.
    ("Z[3][1] + 1/0", FockShape(1, 1), "Z[3][1] outside shape FockShape(rows=1, cols=1, wrows=0)"),
    ("1/0 + Z[3][1]", FockShape(1, 1), "zero denominator in coefficient '1/0'"),
    ("(1+2*i", None, "Invalid literal for Fraction: '(1'"),
    ("Z[1][1]^", None, "Invalid literal for Fraction: 'Z[1][1]^'"),
    ("1/0", None, "zero denominator in coefficient '1/0'"),
]


def test_poly_text_error_contract():
    for text, shape, message in POLY_TEXT_ERRORS:
        with pytest.raises(ValueError) as info:
            parse_poly(text, shape)
        assert (type(info.value), str(info.value)) == (ValueError, message), text
    # The variable pattern's $ accepts a trailing newline.
    assert parse_poly("Z[1][1]\n") == parse_poly("Z[1][1]")


COEFFS = st.builds(
    GaussRat,
    st.fractions(min_value=-3, max_value=3, max_denominator=3),
    st.sampled_from([0, 0, 1, -2, Fraction(1, 2)]),
)


@st.composite
def weyl_pairs(draw):
    """Two operators on one shape, with or without W rows, exponents <= 3."""
    shape = FockShape(draw(st.integers(1, 2)), draw(st.integers(1, 2)), draw(st.integers(0, 1)))
    exps = st.lists(st.sampled_from([0, 0, 1, 2, 3]), min_size=shape.nvars, max_size=shape.nvars)
    ops = st.dictionaries(st.tuples(exps.map(tuple), exps.map(tuple)), COEFFS, max_size=3)
    return WeylOp(shape, draw(ops)), WeylOp(shape, draw(ops))


def test_commutator_keeps_contractions_on_several_indices():
    shape = FockShape(1, 2, 1)
    a = WeylOp(shape, {((3, 1, 0), (2, 3, 1)): GaussRat(Fraction(1, 2), 1)})
    b = WeylOp(shape, {((2, 3, 2), (1, 0, 3)): GaussRat(-3), ((0, 0, 1), (0, 0, 0)): GaussRat(2)})
    # a's derivatives meet b's first term on all three indices, with j up to 3.
    bracket = weyl_commutator(a, b)
    assert bracket == (a @ b) - (b @ a) == -weyl_commutator(b, a)
    assert len(bracket.terms) > 10


@settings(max_examples=200, deadline=None)
@given(weyl_pairs())
def test_commutator_matches_both_compositions(pair):
    """The contracted-only commutator against the two full products."""
    a, b = pair
    bracket = weyl_commutator(a, b)
    assert bracket == (a @ b) - (b @ a)
    assert bracket == -weyl_commutator(b, a)
    assert weyl_commutator(a, a).is_zero()


def test_commutator_shape_guard():
    with pytest.raises(ShapeMismatch):
        weyl_commutator(WeylOp.zero(FockShape(1, 2)), WeylOp.zero(FockShape(1, 2, 1)))
    with pytest.raises(ShapeMismatch):
        weyl_commutator(sl2_generators(2)[0], sl2_generators(3)[1])


def sl2_relations(k):
    e_op, xp, xm = sl2_generators(k)
    return [(e_op, xp, [(2, xp)]), (e_op, xm, [(-2, xm)]), (xm, xp, [(1, e_op)])]


def sp2n_relations(n, k):
    """Every index instance of the six families of verify_sp2n, in its order."""
    fam = sp2n_generators(n, k)
    e, p, d = fam["E"], fam["P"], fam["D"]

    def deltas(table, *pieces):
        """(coeff, table[idx]) for each (coeff, i, j, idx) piece with i == j."""
        return [(coeff, table[idx]) for coeff, i, j, idx in pieces if i == j]

    out = []
    for a, b, c, f in product(range(1, n + 1), repeat=4):
        out += [
            (e[(a, b)], e[(c, f)], deltas(e, (1, b, c, (a, f)), (-1, a, f, (c, b)))),
            (e[(a, b)], p[(c, f)], deltas(p, (1, b, c, (a, f)), (1, b, f, (a, c)))),
            (e[(a, b)], d[(c, f)], deltas(d, (-1, a, c, (b, f)), (-1, a, f, (b, c)))),
            (p[(a, b)], d[(c, f)], deltas(
                e, (1, a, c, (b, f)), (1, a, f, (b, c)), (1, b, c, (a, f)), (1, b, f, (a, c))
            )),
            (p[(a, b)], p[(c, f)], []),
            (d[(a, b)], d[(c, f)], []),
        ]
    return out


def supq_relations(p, q, k):
    fam = supq_laplacians(p, q, k)
    out = []
    for first, second in product(fam["p"], repeat=2):
        out += [(fam["p"][first], fam["p"][second], []), (fam["delta"][first], fam["delta"][second], [])]
    return out


# The rank range the fock_identities benchmark draws its verifier queries from.
WORKLOAD_RANKS = {
    "sl2": [(k,) for k in range(2, 7)],
    "sp2n": [(1, k) for k in range(1, 6)] + [(2, k) for k in (2, 3)],
    "supq": [(p, q, k) for p in (1, 2) for q in (1, 2) for k in range(2, 5 if p * q < 4 else 4)],
}


def test_ad_matrix_oracle_rechecks_every_verifier_relation():
    verifiers = {"sl2": verify_sl2, "sp2n": verify_sp2n, "supq": verify_supq}
    tables = {"sl2": sl2_relations, "sp2n": sp2n_relations, "supq": supq_relations}
    for name, ranks in WORKLOAD_RANKS.items():
        for args in ranks:
            relations = tables[name](*args)
            for x, y, rhs in relations:
                assert quadratic_relation_holds(x, y, rhs), (name, args)
            assert verifiers[name](*args) == (len(relations), True), (name, args)


def test_ad_matrix_oracle_agrees_with_the_commutator_kernel():
    for ops in (
        list(sl2_generators(4)),
        [op for f in "EPD" for op in sp2n_generators(2, 3)[f].values()],
        [op for f in ("p", "delta") for op in supq_laplacians(2, 2, 3)[f].values()],
    ):
        for x, y in product(ops, repeat=2):
            assert quadratic_relation_holds(x, y, [(1, weyl_commutator(x, y))])


def test_ad_matrix_oracle_rejects_mutant_relations():
    fam = sp2n_generators(1, 3)
    e, p, d = fam["E"][(1, 1)], fam["P"][(1, 1)], fam["D"][(1, 1)]
    identity = WeylOp.multiplication(FockPoly.constant(FockShape(1, 3), 1))
    assert quadratic_relation_holds(p, d, [(4, e)])
    # ad cannot see a constant; the vacuum check does.
    assert ad_matrix(identity) == {}
    assert not quadratic_relation_holds(p, d, [(4, e), (1, identity)])
    assert quadratic_relation_holds(e, p, [(2, p)])
    assert not quadratic_relation_holds(e, p, [(3, p)])
    with pytest.raises(ValueError):
        quadratic_relation_holds(p @ p, d, [])


def test_commutator_kernel_on_reused_operators_matches_every_term_pair():
    """Operators keep their term index across calls: reuse the same objects
    on both sides, interleaving @ with the commutator."""
    rng = random.Random(5)
    shape = FockShape(1, 3)

    def rand_op():
        terms = {}
        for _ in range(rng.randint(1, 4)):
            z = tuple(rng.choice((0, 0, 1, 2)) for _ in range(3))
            d = tuple(rng.choice((0, 1, 1, 2)) for _ in range(3))
            terms[(z, d)] = GaussRat(rng.choice((-2, -1, 1, 3)), rng.choice((-1, 0, 1)))
        return WeylOp(shape, terms)

    # x differentiates in both indices where y multiplies, so y's term sits
    # in two of the buckets x's term visits.
    x = WeylOp(shape, {((0, 0, 1), (1, 2, 0)): GaussRat(1), ((1, 0, 0), (0, 1, 1)): GaussRat(2, -1)})
    y = WeylOp(shape, {((2, 1, 0), (0, 0, 1)): GaussRat(-3), ((0, 1, 1), (1, 0, 0)): GaussRat(1, 1)})
    pool = [x, y] + [rand_op() for _ in range(6)]
    for _ in range(3):
        for a, b in product(pool, repeat=2):
            assert weyl_terms(weyl_commutator(a, b)) == weyl_bracket(a, b)
            assert weyl_terms(a @ b) == weyl_compose(a, b)
    assert not weyl_commutator(x, y).is_zero()


def test_each_kernel_path_matches_the_term_pair_reference():
    """One deterministic pair per path of the Weyl kernel, under @ and the
    commutator both ways round, twice so that the second pass reads the
    built contraction index: no overlap, one overlapping index with j up to
    min(x, y) = 2, and two overlapping indices."""
    shape = FockShape(1, 3)

    def term(z, d, c):
        return WeylOp(shape, {(z, d): c})

    cases = [
        # a's derivative meets no multiplication of b, nor b's one of a.
        (term((1, 0, 0), (0, 1, 0), GaussRat(2)), term((0, 0, 2), (0, 0, 1), GaussRat(-3, 1)), 1),
        # Index 0: a differentiates twice where b multiplies three times, so
        # a @ b has j = 0, 1, 2; b @ a overlaps in index 1 with j <= 1.
        (term((0, 1, 0), (2, 0, 1), GaussRat(Fraction(1, 2))), term((3, 0, 0), (0, 1, 0), GaussRat(1, -1)), 3),
        # Indices 0 and 2 overlap: j runs over a 2 x 3 grid.
        (term((0, 0, 0), (1, 0, 2), GaussRat(3)), term((2, 1, 2), (0, 0, 0), GaussRat(-1)), 6),
    ]
    for _ in range(2):
        for a, b, terms_ab in cases:
            assert len(weyl_compose(a, b)) == terms_ab
            for x, y in ((a, b), (b, a)):
                assert weyl_terms(x @ y) == weyl_compose(x, y)
                assert weyl_terms(weyl_commutator(x, y)) == weyl_bracket(x, y)
    assert weyl_commutator(*cases[0][:2]).is_zero()
    assert all(not weyl_commutator(a, b).is_zero() for a, b, _ in cases[1:])


def _distinct_ops(fam):
    """The distinct operator objects of a generator family, in table order."""
    return list({id(op): op for ops in fam.values() for op in ops.values()}.values())


def _count_compositions(monkeypatch):
    """Patch the Weyl kernel to record its calls; return the record."""
    import isotypic.fock as fock

    calls = []
    compose = fock._compose_into

    def counted(*args):
        calls.append(args)
        return compose(*args)

    monkeypatch.setattr(fock, "_compose_into", counted)
    return calls


def test_verify_sp2n_computes_each_distinct_commutator_once(monkeypatch):
    """At n = 2 the 96 relations meet 67 distinct (x, y) pairs, since P_ab
    and P_ba (and D_ab and D_ba) are one object; a commutator is two
    compositions, and a second call recomputes them all.  verify_sl2 has 3
    distinct pairs and verify_supq(2, 2, 3) 32, one per relation.  Each
    bracket comes from the module-level fock.weyl_commutator, the count that
    a trace reports, once per distinct pair on every call."""
    import isotypic.fock as fock

    calls = _count_compositions(monkeypatch)
    brackets = []
    real = fock.weyl_commutator

    def counted(x, y):
        brackets.append((id(x), id(y)))
        return real(x, y)

    monkeypatch.setattr(fock, "weyl_commutator", counted)
    for verify, args, result, per_call, pairs in (
        (verify_sp2n, (2, 3), (96, True), 134, 67),
        (verify_sl2, (4,), (3, True), 6, 3),
        (verify_supq, (2, 2, 3), (32, True), 64, 32),
    ):
        calls.clear()
        for rounds in (1, 2):
            brackets.clear()
            assert verify(*args) == result
            assert len(calls) == per_call * rounds, verify.__name__
            assert len(brackets) == len(set(brackets)) == pairs, verify.__name__


def test_verify_sl2_multiplies_no_fraction(monkeypatch):
    """verify_sl2 decides the ladder relations on the integer generators:
    with them built, a call makes no Fraction product at even k and at most
    one at odd k (the k/2 constant of E_11 times 4)."""
    products = []
    for name in ("__mul__", "__rmul__"):
        real = getattr(Fraction, name)

        def counted(a, b, real=real):
            products.append((a, b))
            return real(a, b)

        monkeypatch.setattr(Fraction, name, counted)
    for k in range(2, 7):
        verify_sl2(k)
        products.clear()
        assert verify_sl2(k) == (3, True)
        assert len(products) <= k % 2, (k, products)


def test_relations_hold_rejects_mutant_rows_and_runs_every_row(monkeypatch):
    """The primitive behind the three verifiers: a wrong coefficient, a
    missing piece or an extra piece fails its row, a zero coefficient is
    skipped, and a failing first row still leaves every later commutator
    computed, so the composition count does not change."""
    import isotypic.fock as fock

    fam = sp2n_generators(2, 3)
    e, p, d = fam["E"], fam["P"], fam["D"]
    rows = [
        (e[1, 1], p[1, 1], [(2, p[1, 1])]),
        (p[1, 2], d[1, 2], [(1, e[1, 1]), (1, e[2, 2])]),
        (e[2, 1], d[1, 2], [(-1, d[1, 1])]),
        (p[1, 1], p[1, 2], []),
    ]
    calls = _count_compositions(monkeypatch)
    assert fock._relations_hold(rows) == (4, True)
    assert len(calls) == 8
    zeros = [(x, y, [(0, d[2, 2])] + pieces + [(0, e[1, 2])]) for x, y, pieces in rows]
    assert fock._relations_hold(zeros) == (4, True)
    for mutant in (
        (e[1, 1], p[1, 1], [(3, p[1, 1])]),
        (p[1, 2], d[1, 2], [(1, e[1, 1])]),
        (p[1, 2], d[1, 2], []),
        (p[1, 2], d[1, 2], [(1, e[1, 1]), (1, e[2, 2]), (1, e[1, 2])]),
        (e[2, 1], d[1, 2], [(-1, d[1, 1]), (1, p[1, 1])]),
    ):
        calls.clear()
        assert fock._relations_hold([mutant] + rows) == (5, False)
        assert len(calls) == 8
        assert fock._relations_hold(rows + [mutant]) == (5, False)


def test_contraction_index_lists_rows_and_is_built_once():
    """Each operator's contraction index maps a left term's derivative
    exponents to the very rows of the operator whose multiplications they
    meet, each next to its overlap, the (index, derivative, multiplication)
    triples where both are nonzero; a second verifier call finds every
    entry it needs built."""
    import isotypic.fock as fock

    ops = _distinct_ops(sp2n_generators(2, 3))
    verify_sp2n(2, 3)
    entries = {}
    for op in ops:
        rows, index = fock._weyl_view(op)
        for d, listed in index.items():
            assert type(d) is tuple and len(d) == op.shape.nvars
            assert [id(r) for r, _ in listed] == [
                id(r) for r in rows if any(x and r[0][i] for i, x in enumerate(d))
            ]
            for r, overlap in listed:
                assert overlap == [(i, x, r[0][i]) for i, x in enumerate(d) if x and r[0][i]]
        entries[id(op)] = list(index)
    assert any(entries.values())
    verify_sp2n(2, 3)
    assert {id(op): list(fock._weyl_view(op)[1]) for op in ops} == entries


def test_per_call_commutators_do_not_hide_a_broken_generator(monkeypatch):
    """A broken generator fails its relations with the same counts, on every
    call, and the verifiers hold again once it is gone: no commutator
    outlives its call.  Scaling P_12 (one object, also P_21) by 2 breaks
    [P_12, D_ce], and scaling P_11 at n = 1 breaks verify_sl2's
    [P, D] = 4E; a scaled Laplacian still commutes with the others, so the
    u(p,q) poison adds the multiplication p_11 to delta_11."""
    import isotypic.fock as fock

    real_sp2n, real_supq = fock._sp2n_family, fock._supq_family

    def poisoned_sp2n(n, k):
        fam = {name: dict(ops) for name, ops in real_sp2n(n, k).items()}
        ab = (1, 2) if n > 1 else (1, 1)
        fam["P"][ab] = fam["P"][ab[::-1]] = fam["P"][ab] * 2
        return fam

    def poisoned_supq(p, q, k):
        fam = {name: dict(ops) for name, ops in real_supq(p, q, k).items()}
        fam["delta"][(1, 1)] = fam["delta"][(1, 1)] + fam["p"][(1, 1)]
        return fam

    assert verify_sp2n(2, 3) == (96, True)
    assert verify_supq(2, 2, 3) == (32, True)
    assert verify_sl2(3) == (3, True)
    monkeypatch.setattr(fock, "_sp2n_family", poisoned_sp2n)
    monkeypatch.setattr(fock, "_supq_family", poisoned_supq)
    fam = sp2n_generators(2, 3)
    assert fam["P"][(1, 2)] is fam["P"][(2, 1)]
    for _ in range(2):
        assert verify_sp2n(2, 3) == (96, False)
        assert verify_supq(2, 2, 3) == (32, False)
        assert verify_sl2(3) == (3, False)
    monkeypatch.undo()
    assert verify_sp2n(2, 3) == (96, True)
    assert verify_supq(2, 2, 3) == (32, True)
    assert verify_sl2(3) == (3, True)


def _typed_terms(op):
    return {key: (type(c), type(c.re), c.re, type(c.im), c.im) for key, c in op.terms.items()}


def test_kernel_values_are_gaussrat_and_generators_stay_unchanged():
    """Plain int and Fraction coefficients stay inside the Weyl kernel: over
    the benchmark's rank range every value of @, weyl_commutator and apply
    is a GaussRat whose integral parts are ints, and the verifiers leave
    every generator's terms as they were."""
    rng = random.Random(29)
    families = [list(sl2_generators(*args)) for args in WORKLOAD_RANKS["sl2"]]
    families += [_distinct_ops(sp2n_generators(*args)) for args in WORKLOAD_RANKS["sp2n"]]
    families += [_distinct_ops(supq_laplacians(*args)) for args in WORKLOAD_RANKS["supq"]]
    before = [[(op.terms, _typed_terms(op)) for op in ops] for ops in families]

    def check(result):
        for c in result.terms.values():
            assert type(c) is GaussRat
            for part in (c.re, c.im):
                assert type(part) is int or part.denominator != 1

    for ops in families:
        f = random_poly(ops[0].shape, rng)
        for x in ops:
            check(x.apply(f))
            check(x.apply(f * f))
            for y in ops:
                check(x @ y)
                check(weyl_commutator(x, y))
    verifiers = {"sl2": verify_sl2, "sp2n": verify_sp2n, "supq": verify_supq}
    for name, ranks in WORKLOAD_RANKS.items():
        for args in ranks:
            assert verifiers[name](*args)[1], (name, args)
    after = [[(op.terms, _typed_terms(op)) for op in ops] for ops in families]
    assert all(
        old_terms is new_terms and old == new
        for old_ops, new_ops in zip(before, after)
        for (old_terms, old), (new_terms, new) in zip(old_ops, new_ops)
    )


# The highest weight vectors the fock_identities benchmark draws, with the
# signature each is tested against: (kind, data, n, k, exponents).
def _workload_hwvs():
    small = [(1,), (2,), (1, 1), (3,), (2, 1), (1, 1, 1)]
    out = []
    for sig in small:
        for n in (len(sig), len(sig) + 1):
            for k in (n, n + 1):
                out.append(("gl", sig, n, k, sig))
    for r in range(6):
        for k in range(2, 7):
            out.append(("so_rank1", r, 1, k, (r,)))
    for n in (1, 2):
        for mu in (sig for sig in small if len(sig) <= n):
            for k in range(max(3, 2 * len(mu)), 6):
                out.append(("so_general", mu, n, k, mu))
    for p, q in product((1, 2), repeat=2):
        for nu in (sig for sig in small if len(sig) <= p):
            for lam in (sig for sig in small[:3] if len(sig) <= q):
                for k in (len(nu) + len(lam), len(nu) + len(lam) + 1):
                    out.append(("upq", (nu, lam), (p, q), k, nu))
    return out


def test_integer_covariance_trials_agree_with_the_fraction_route():
    """The polarization decision of check_covariance against the rational
    trials of the oracle, which substitutes triangular B itself."""
    results = []

    def both(f, side, exps, seed, trials=8):
        got = check_covariance(f, side, exps, seed=seed)
        assert got == covariance_by_fraction_trials(f, side, exps, trials, seed), (
            render_poly(f), side, exps, seed)
        results.append(got)
        return got

    for kind, data, n, k, exps in _workload_hwvs():
        vec = hwv(kind, data, n, k)
        for side, seed in product(("left_lower", "right_upper"), range(10)):
            both(vec, side, exps, seed, trials=2)
    shape = FockShape(2, 2, 1)
    z11, z12, z21, w11 = z_var(shape, 1, 1), z_var(shape, 1, 2), z_var(shape, 2, 1), w_var(shape, 1, 1)
    gl21 = hwv("gl", (2, 1), 2, 3)
    cases = [
        # Not homogeneous: W is fixed on the left, so z11 + z11 w11 is covariant there.
        (z11 + z11 * w11, (1,)),
        (z11 + z11 * z11, (1,)),
        (z11 * z12 + 3 * z11 + FockPoly.constant(shape, 2), (2,)),
        # Gaussian and fractional coefficients.
        (GaussRat(2, -3) * z11 * w11, (1,)),
        (I_UNIT * gl21, (2, 1)),
        (GaussRat(Fraction(1, 3), Fraction(-5, 2)) * gl21 + gl21 * gl21, (2, 1)),
        (hwv("so_rank1", 3, 1, 4), (3,)),
        # Constants.
        (FockPoly.constant(shape, GaussRat(1, 1)), ()),
        (FockPoly.constant(shape, 5), (1,)),
    ]
    for f, exps in cases:
        for side, seed in product(("left_lower", "right_upper"), range(10)):
            both(f, side, exps, seed)
    # Wrong exponent vectors: both routes must reject.
    for f, exps in [(gl21, (1, 2)), (gl21, (3,)), (gl21, (2, 1, 1)), (z21, (0, 1)), (z11 * w11, (3,))]:
        for side, seed in product(("left_lower", "right_upper"), range(10)):
            if side == "left_lower" and len(exps) > f.shape.rows:
                continue
            assert both(f, side, exps, seed) is False
    assert results.count(True) > 500 and results.count(False) > 500


def test_check_covariance_never_renders_a_polynomial(monkeypatch):
    """A GaussRat times a FockPoly defers to FockPoly without printing it."""
    import isotypic.fock as fock

    calls = []
    real = fock.render_poly
    monkeypatch.setattr(fock, "render_poly", lambda f: calls.append(f) or real(f))
    vec = hwv("gl", (2, 1), 2, 3)
    assert check_covariance(vec, "left_lower", (2, 1), seed=3)
    assert check_covariance(vec, "right_upper", (2, 1), seed=3)
    assert GaussRat(2) * vec == 2 * vec and vec * GaussRat(2) == 2 * vec
    assert (GaussRat(1) == vec) is False
    assert calls == []
    with pytest.raises(TypeError):
        GaussRat(vec)
    assert calls


def test_check_covariance_checks_only_the_simple_roots(monkeypatch):
    """One polarization check per simple root: size - 1 on each side, not one per a > b."""
    import isotypic.fock as fock

    calls = []
    real = fock._annihilates
    monkeypatch.setattr(fock, "_annihilates", lambda f, moves: calls.append(moves) or real(f, moves))
    for lam, n, k in (((2, 1), 2, 3), ((3, 1, 1), 3, 5), ((4, 3, 2, 1), 4, 6)):
        vec = hwv("gl", lam, n, k)
        for side, size in (("left_lower", n), ("right_upper", k)):
            calls.clear()
            assert check_covariance(vec, side, lam)
            assert len(calls) == size - 1, (lam, side)


def test_check_covariance_rejects_negative_exponents_before_any_trial():
    vec = hwv("gl", (1,), 1, 2)
    for seed in (0, -3, 1, 8):
        with pytest.raises(BadSignature, match="nonnegative"):
            check_covariance(vec, "left_lower", (-1,), seed=seed)
        with pytest.raises(BadSignature, match="nonnegative"):
            check_covariance(vec, "right_upper", (1, -1), seed=seed)


@st.composite
def _substitution_cases(draw):
    """A polynomial on a random shape and a triangular int matrix for one side."""
    shape = FockShape(draw(st.integers(1, 3)), draw(st.integers(1, 3)), draw(st.integers(0, 2)))
    left = draw(st.booleans())
    size = shape.rows if left else shape.cols
    entry = st.integers(-4, 4)
    m = [
        [draw(entry) if (j <= i if left else i <= j) else 0 for j in range(size)]
        for i in range(size)
    ]
    part = st.one_of(st.integers(-3, 3), st.fractions(-3, 3, max_denominator=4))
    terms = {}
    for _ in range(draw(st.integers(1, 5))):
        exps = [0] * shape.nvars
        # Degree 0 gives constant terms.
        for idx in draw(st.lists(st.integers(0, shape.nvars - 1), max_size=3)):
            exps[idx] += 1
        terms[tuple(exps)] = GaussRat(draw(part), draw(part))
    return FockPoly(shape, terms), m, left


@settings(max_examples=80, deadline=None)
@given(_substitution_cases())
def test_integer_expansion_matches_substitute(case):
    """The int kernel of the integer-trial oracle against translate (FockPoly.substitute)."""
    f, m, left = case
    terms = [(index_key(e), c) for e, c in f.terms.items()]
    used = {i for key, _ in terms for i in key}
    re_part, im_part = int_expand(terms, int_images(f.shape, m, left, used))
    got = {key: GaussRat(re_part.get(key, 0), im_part.get(key, 0)) for key in re_part.keys() | im_part.keys()}
    if left:
        image = translate(f, [list(col) for col in zip(*m)], "left_transpose")
    else:
        image = translate(f, m, "right")
    assert {key: c for key, c in got.items() if c} == {index_key(e): c for e, c in image.terms.items()}


def test_integer_covariance_trials_make_no_gaussrat_products(monkeypatch):
    """Trials on an integer-coefficient f never reach GaussRat arithmetic."""
    cases = [
        (hwv("gl", (2, 1), 2, 3), (2, 1), (1, 2)),
        (hwv("gl", (1, 1, 1), 3, 3), (1, 1, 1), (2, 1)),
        (hwv("gl", (3,), 1, 2), (3,), (2,)),
    ]
    calls = []
    real = GaussRat.__mul__

    def counted(self, other):
        calls.append(other)
        return real(self, other)

    monkeypatch.setattr(GaussRat, "__mul__", counted)
    monkeypatch.setattr(GaussRat, "__rmul__", counted)
    for vec, exps, wrong in cases:
        for side in ("left_lower", "right_upper"):
            assert check_covariance(vec, side, exps, seed=4)
            assert not check_covariance(vec, side, wrong, seed=4)
    assert calls == []


def test_permanent_is_not_covariant_for_any_seed():
    """A false True of random trials: the permanent passes some of them."""
    shape = FockShape(2, 2)
    perm = z_var(shape, 1, 1) * z_var(shape, 2, 2) + z_var(shape, 1, 2) * z_var(shape, 2, 1)
    # Times i, the polarization image is purely imaginary.
    for f in (perm, I_UNIT * perm):
        for side, seed in product(("left_lower", "right_upper"), range(200)):
            assert check_covariance(f, side, (1, 1), seed=seed) is False


@st.composite
def _minor_products(draw):
    """A sum of products of minors, covariant by construction, with its side and exponents.

    Left: minors on Z-rows 1..s and any s columns, times any W monomial,
    which the left side fixes.  Right: minors on columns 1..s and any s
    rows of Z stacked over W.  Row (column) a gets the number of minors
    of size >= a.
    """
    shape = FockShape(draw(st.integers(1, 3)), draw(st.integers(1, 3)), draw(st.integers(0, 2)))
    left = draw(st.booleans())
    size = shape.rows if left else shape.cols
    other = shape.cols if left else shape.rows + shape.wrows
    sizes = [s for s in range(1, min(size, other) + 1) for _ in range(draw(st.integers(0, 2 if s == 1 else 1)))]
    exponents = tuple(sum(s >= a for s in sizes) for a in range(1, size + 1))

    def var(a, b):
        row, col = (a, b) if left else (b, a)
        return FockPoly.variable(shape, row * shape.cols + col)

    part = st.one_of(st.integers(-3, 3), st.fractions(-3, 3, max_denominator=4))
    f = FockPoly.zero(shape)
    for _ in range(draw(st.integers(1, 2))):
        term = FockPoly.constant(shape, GaussRat(draw(part), draw(part)))
        for s in sizes:
            picks = draw(st.lists(st.integers(0, other - 1), min_size=s, max_size=s, unique=True))
            entries = [[var(a, t) for t in picks] for a in range(s)]
            term = term * leibniz_det(entries, FockPoly.constant(shape, 1))
        if left:
            for _ in range(draw(st.integers(0, 2 * shape.wrows))):
                term = term * w_var(shape, draw(st.integers(1, shape.wrows)), draw(st.integers(1, shape.cols)))
        f = f + term
    assume(not f.is_zero())
    return f, "left_lower" if left else "right_upper", exponents


@settings(max_examples=60, deadline=None)
@given(_minor_products(), st.data())
def test_exact_covariance_against_both_trial_oracles(case, data):
    """Covariant by construction is decided True; after one term is
    perturbed, a trial that fails is a witness the decision must share."""
    f, side, exps = case
    seed = data.draw(st.integers(0, 999))
    assert check_covariance(f, side, exps)
    assert covariance_by_integer_trials(f, side, exps, 2, seed)
    assert covariance_by_fraction_trials(f, side, exps, 2, seed)
    e = data.draw(st.sampled_from(sorted(f.terms)))
    if data.draw(st.booleans()):
        delta = GaussRat(data.draw(st.integers(-2, 2)), data.draw(st.integers(-2, 2)))
        assume(delta)
        g = f + FockPoly(f.shape, {e: delta})
    else:
        moved = list(e)
        src = data.draw(st.sampled_from([i for i, x in enumerate(e) if x] or [0]))
        dst = data.draw(st.integers(0, f.shape.nvars - 1))
        if moved[src]:
            moved[src] -= 1
            moved[dst] += 1
        g = f + FockPoly(f.shape, {tuple(moved): f.terms[e]}) - FockPoly(f.shape, {e: f.terms[e]})
    assume(not g.is_zero())
    by_ints = covariance_by_integer_trials(g, side, exps, 2, seed)
    assert by_ints == covariance_by_fraction_trials(g, side, exps, 2, seed)
    if not by_ints:
        assert check_covariance(g, side, exps, seed=seed) is False


def test_generators_are_built_once_and_handed_out_in_fresh_dicts():
    import isotypic.fock as fock

    assert sl2_generators(3) is sl2_generators(3)
    for build in (lambda: sp2n_generators(2, 3), lambda: supq_laplacians(2, 1, 3)):
        first, second = build(), build()
        assert first is not second
        for name, ops in first.items():
            assert ops is not second[name]
            assert all(op is second[name][key] for key, op in ops.items())
        # A caller's edit stays in its own dicts.
        for ops in first.values():
            ops.clear()
        assert build() == second and all(build().values())
    fam = sp2n_generators(2, 3)
    assert all(fam[name][(a, b)] is fam[name][(b, a)] for name in "PD" for a in (1, 2) for b in (1, 2))
    for memo in (fock.sl2_generators, fock._sp2n_family, fock._supq_family):
        assert memo.cache_info().maxsize is not None
    for call in (lambda: sp2n_generators(0, 3), lambda: sl2_generators(0), lambda: supq_laplacians(1, 0, 2)):
        for _ in range(2):
            with pytest.raises(RankTooSmall):
                call()


def test_generators_match_explicit_term_maps():
    """The generators built from the one shared quadratic against term maps
    written monomial by monomial, and the ladder triple as the rank-1 case."""
    for k in range(1, 7):
        triple = sl2_generators(k)
        assert [_reference_terms(op) for op in triple] == list(sl2_terms(k)), k
        assert triple[0] is sp2n_generators(1, k)["E"][(1, 1)]
    for n, k in product(range(1, 4), range(1, 6)):
        fam = sp2n_generators(n, k)
        want = sp2n_terms(n, k)
        assert {name: {key: _reference_terms(op) for key, op in ops.items()}
                for name, ops in fam.items()} == want, (n, k)
    for p, q, k in product(range(1, 3), range(1, 3), range(1, 5)):
        fam = supq_laplacians(p, q, k)
        want = supq_terms(p, q, k)
        assert {name: {key: _reference_terms(op) for key, op in ops.items()}
                for name, ops in fam.items()} == want, (p, q, k)
