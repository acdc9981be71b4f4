import random
from fractions import Fraction

import pytest

from isotypic.characters import LaurentPoly
from isotypic.errors import ShapeMismatch
from isotypic.fock import FockPoly, FockShape, GaussRat, I_UNIT, WeylOp, sl2_generators


def _clean(terms):
    return {e: c for e, c in terms.items() if c}


def _ref_sum(f, g, sign=1):
    out = dict(f)
    for e, c in g.items():
        out[e] = out.get(e, 0) + sign * c
    return _clean(out)


def _ref_product(f, g):
    out = {}
    for e1, c1 in f.items():
        for e2, c2 in g.items():
            e = tuple(a + b for a, b in zip(e1, e2))
            out[e] = out.get(e, 0) + c1 * c2
    return _clean(out)


def _laurent_coeff(rng):
    return rng.choice([-3, -2, -1, 1, 2, 3])


def _fock_coeff(rng):
    return GaussRat(rng.choice([-2, -1, 1, 2]), rng.choice([-1, 0, 1]))


@pytest.mark.parametrize(
    "cls, shape, nvars, exps, coeff, scalars",
    [
        (LaurentPoly, 2, 2, (-2, -1, 0, 1, 2), _laurent_coeff, (3, -1, 0)),
        (
            FockPoly,
            FockShape(1, 3),
            3,
            (0, 1, 2),
            _fock_coeff,
            (2, Fraction(-1, 2), GaussRat(1, -1), 0),
        ),
    ],
    ids=["laurent", "fock"],
)
def test_term_map_arithmetic_matches_a_plain_dict_reference(cls, shape, nvars, exps, coeff, scalars):
    rng = random.Random(11)

    def rand_terms(size):
        return {tuple(rng.choice(exps) for _ in range(nvars)): coeff(rng) for _ in range(size)}

    for _ in range(150):
        f = rand_terms(rng.randint(0, 5))
        # g repeats some of f's terms negated, so sums and products cancel.
        g = rand_terms(rng.randint(0, 4))
        g.update({e: -c for e, c in f.items() if rng.random() < 0.5})
        pf, pg = cls(shape, f), cls(shape, g)
        assert (pf + pg).terms == _ref_sum(f, g)
        assert (pf - pg).terms == _ref_sum(f, g, -1)
        assert (-pf).terms == {e: -c for e, c in f.items()}
        assert (pf * pg).terms == _ref_product(f, g)
        assert (pf - pf).is_zero() and (pf + (-pf)) == cls.zero(shape)
        for s in scalars:
            expected = _clean({e: c * s for e, c in f.items()})
            assert (pf * s).terms == expected and (s * pf).terms == expected
        for poly in (pf + pg, pf - pg, pf * pg):
            assert type(poly) is cls and poly.shape == shape
            assert all(poly.terms.values())


def test_laurent_polys_in_different_torus_ranks_do_not_combine():
    x = LaurentPoly(1, {(1,): 1})
    y = LaurentPoly(2, {(0, 1): 1})
    assert (x.shape, y.shape) == (1, 2)
    for op in (lambda a, b: a + b, lambda a, b: a - b, lambda a, b: a * b):
        with pytest.raises(ShapeMismatch):
            op(x, y)


def test_weyl_ops_multiply_by_scalars_only():
    _, xp, xm = sl2_generators(2)
    with pytest.raises(TypeError):
        xp * xm
    assert (2 * xp).terms == {key: c * 2 for key, c in xp.terms.items()}
    assert (xp * I_UNIT).terms == {key: c * I_UNIT for key, c in xp.terms.items()}
    assert isinstance(2 * xp, WeylOp) and (xp * 0).is_zero()


def test_polynomial_operands_are_not_scalars_and_are_never_rendered(monkeypatch):
    """A term map times another term map is Python's plain operand TypeError."""
    import isotypic.fock as fock

    calls = []
    for cls in (FockPoly, WeylOp, LaurentPoly):
        real = cls.__repr__
        monkeypatch.setattr(cls, "__repr__", lambda self, real=real: calls.append(self) or real(self))
    render = fock.render_poly
    monkeypatch.setattr(fock, "render_poly", lambda f: calls.append(f) or render(f))
    _, xp, xm = sl2_generators(2)
    f = FockPoly.constant(FockShape(1, 2), 3)
    x = LaurentPoly(1, {(1,): 1})
    for a, b in [(xp, xm), (f, x), (x, f), (xp, f), (f, xp)]:
        with pytest.raises(TypeError, match="unsupported operand"):
            a * b
    assert calls == []
    assert (f * 2).terms == (2 * f).terms == {(0, 0): GaussRat(6)}
