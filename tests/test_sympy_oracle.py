"""sympy as an independent oracle: the closed forms expanded by sympy's own
series code must match the builders far past the orders of the goldens."""

from fractions import Fraction

import pytest

sympy = pytest.importorskip("sympy")

from ospdim.characters import d21_sdim_closed, osp1_dim_t, spinor_tdim  # noqa: E402

ORDER = 150
t = sympy.symbols("t")


def expand(expr, order=ORDER):
    poly = sympy.Poly(sympy.series(expr, t, 0, order + 1).removeO(), t)
    out = []
    for k in range(order + 1):
        c = poly.coeff_monomial(t**k)
        out.append(Fraction(int(c.p), int(c.q)))
    return out


def test_spinor_against_sympy():
    m, n = 2, 3
    assert list(spinor_tdim(m, n, ORDER).coeffs) == expand(2**m / (1 - t) ** n)


def test_d21_closed_against_sympy():
    p = 3
    assert list(d21_sdim_closed(p, ORDER).coeffs) == expand((1 - p) + 2 * p / (1 + t))


def test_osp1_closed_route_against_sympy():
    # for p = 1 the numerator (1-t^2)^(n(n-1)/2) cancels, leaving 1/(1-t)^n
    n = 4
    got = osp1_dim_t(n, 1, ORDER, route="closed")
    assert list(got.coeffs) == expand(1 / (1 - t) ** n)
