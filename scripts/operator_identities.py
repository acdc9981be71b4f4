#!/usr/bin/env python3
"""Exercise the symbolic operator algebra end to end.

Checks the ladder-triple and oscillator commutation relations over a
grid of ranks, then walks one explicit harmonic decomposition, printing
each component and its eigenvalue under the number operator.
"""

from fractions import Fraction

from isotypic import (
    FockPoly,
    FockShape,
    harmonic_project_rank1,
    render_poly,
    sl2_generators,
    verify_sl2,
    verify_sp2n,
    verify_supq,
    z_var,
)
from isotypic.fock import radial_square


def main():
    for k in (2, 4, 6):
        checked, holds = verify_sl2(k)
        print(f"ladder triple     k={k}:  {checked} relations  {'ok' if holds else 'FAIL'}")
    for n, k in ((1, 4), (2, 5), (3, 6)):
        checked, holds = verify_sp2n(n, k)
        print(f"oscillator n={n}   k={k}:  {checked} relations  {'ok' if holds else 'FAIL'}")
    for p, q, k in ((1, 1, 4), (2, 2, 5)):
        checked, holds = verify_supq(p, q, k)
        print(f"mixed p={p} q={q}    k={k}:  {checked} relations  {'ok' if holds else 'FAIL'}")

    k = 4
    shape = FockShape(1, k)
    f = z_var(shape, 1, 1) ** 2 * z_var(shape, 1, 2) ** 2
    print(f"\nharmonic split of {render_poly(f)} over {k} variables:")
    e_op, _, lower = sl2_generators(k)
    p0 = radial_square(k)
    rebuilt = FockPoly.zero(shape)
    for j, h in harmonic_project_rank1(f, k):
        degree = h.degree() or 0
        eig = Fraction(k, 2) + degree + 2 * j
        assert lower.apply(h).is_zero()
        assert e_op.apply(p0 ** j * h) == eig * (p0 ** j * h)
        print(f"  j={j}  degree {degree}  number-eigenvalue {eig}:  {render_poly(h)}")
        rebuilt = rebuilt + p0 ** j * h
    assert rebuilt == f
    print("reconstruction exact")


if __name__ == "__main__":
    main()
