"""Polynomial random variables and exact Wick/Isserlis expectations."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chaoslab.polyrv import PolyRV, wick_expectation
from chaoslab.space import GaussianSpace


def test_standard_gaussian_moments():
    space = GaussianSpace.standard(1)
    z = PolyRV.coordinate(space, 0)
    assert wick_expectation(z) == 0.0
    assert wick_expectation(z * z) == pytest.approx(1.0, abs=1e-14)
    assert wick_expectation(z * z * z) == 0.0
    assert wick_expectation(z**4) == pytest.approx(3.0, abs=1e-12)
    assert wick_expectation(z**6) == pytest.approx(15.0, abs=1e-12)


def test_correlated_square_product():
    # E[X^2 Y^2] = 1 + 2 rho^2 for jointly standard Gaussians with corr rho.
    for rho in (0.0, 0.3, -0.8, 1.0):
        space = GaussianSpace([[1.0, rho], [rho, 1.0]])
        x = space.basis_rv(0)
        y = space.basis_rv(1)
        assert wick_expectation(x * x * y * y) == pytest.approx(1.0 + 2.0 * rho**2, abs=1e-12)


def test_independent_coordinates_factorize():
    space = GaussianSpace.standard(2)
    z1 = PolyRV.coordinate(space, 0)
    z2 = PolyRV.coordinate(space, 1)
    assert wick_expectation(z1**2 * z2**2) == pytest.approx(1.0, abs=1e-14)
    assert wick_expectation(z1**3 * z2) == 0.0
    assert wick_expectation(z1**4 * z2**2) == pytest.approx(3.0, abs=1e-12)


def test_constant_and_arithmetic():
    space = GaussianSpace.standard(2)
    z1 = PolyRV.coordinate(space, 0)
    z2 = PolyRV.coordinate(space, 1)
    p = (z1 + z2) * (z1 - z2) + PolyRV.constant(space, 2.0)
    # z1^2 - z2^2 + 2 has expectation 1 - 1 + 2
    assert wick_expectation(p) == pytest.approx(2.0, abs=1e-14)
    assert p.degree == 2
    assert p.coefficient((2, 0)) == pytest.approx(1.0)
    assert p.coefficient((0, 2)) == pytest.approx(-1.0)
    assert p.coefficient((0, 0)) == pytest.approx(2.0)
    assert p.coefficient((1, 1)) == 0.0


def test_tiny_coefficients_are_pruned():
    space = GaussianSpace.standard(1)
    z = PolyRV.coordinate(space, 0)
    p = z + z * 1e-16
    assert p.coefficient((1,)) == pytest.approx(1.0, abs=1e-15)
    q = PolyRV(space, {(3,): 1e-15})
    assert q.is_zero


def test_degree_cap_error():
    space = GaussianSpace.standard(1)
    with pytest.raises(ValueError, match="degree cap"):
        PolyRV(space, {(41,): 1.0})


def test_from_univariate_matches_manual_composition():
    space = GaussianSpace.standard(2)
    z = PolyRV.coordinate(space, 1)
    # p(x) = 2 - x + 3 x^2 evaluated at z
    p = PolyRV.from_univariate([2.0, -1.0, 3.0], z)
    manual = PolyRV.constant(space, 2.0) - z + z * z * 3.0
    assert (p - manual).is_zero


def test_eval_agrees_with_terms():
    space = GaussianSpace.standard(2)
    z1 = PolyRV.coordinate(space, 0)
    z2 = PolyRV.coordinate(space, 1)
    p = z1 * z1 * z2 - z2 * 2.0 + PolyRV.constant(space, 0.5)
    pt = np.array([1.3, -0.7])
    expected = 1.3**2 * (-0.7) - 2.0 * (-0.7) + 0.5
    assert p.eval(pt) == pytest.approx(expected, abs=1e-12)


def test_diff_is_partial_derivative():
    space = GaussianSpace.standard(2)
    z1 = PolyRV.coordinate(space, 0)
    z2 = PolyRV.coordinate(space, 1)
    p = z1**3 * z2 + z2 * z2
    d0 = p.diff(0)
    d1 = p.diff(1)
    assert (d0 - z1 * z1 * z2 * 3.0).is_zero
    assert (d1 - (z1**3 + z2 * 2.0)).is_zero


@given(
    c2=st.floats(min_value=-3, max_value=3, allow_nan=False),
    c4=st.floats(min_value=-3, max_value=3, allow_nan=False),
)
@settings(max_examples=50, deadline=None)
def test_univariate_moments_linear_combination(c2, c4):
    # E[c2 Z^2 + c4 Z^4] = c2 + 3 c4 exactly.
    space = GaussianSpace.standard(1)
    z = PolyRV.coordinate(space, 0)
    p = z * z * c2 + z**4 * c4
    assert wick_expectation(p) == pytest.approx(c2 + 3.0 * c4, abs=1e-9)


def test_wick_against_gauss_hermite_quadrature():
    # A cross-check of Isserlis against numerical integration, d = 2 correlated.
    rho = 0.45
    space = GaussianSpace([[1.0, rho], [rho, 1.0]])
    x = space.basis_rv(0)
    y = space.basis_rv(1)
    p = x**3 * y + x * y + y**2
    nodes, weights = np.polynomial.hermite_e.hermegauss(24)
    weights = weights / weights.sum()
    total = 0.0
    # X = Z1, Y = rho Z1 + sqrt(1-rho^2) Z2 over the product quadrature grid
    s = np.sqrt(1.0 - rho**2)
    for zi, wi in zip(nodes, weights):
        xv = zi
        yv = rho * zi + s * nodes
        total += wi * float(np.sum(weights * (xv**3 * yv + xv * yv + yv**2)))
    assert wick_expectation(p) == pytest.approx(total, abs=1e-8)


def test_operands_from_different_spaces_are_rejected():
    space = GaussianSpace([[1.0, 0.6], [0.6, 1.0]])
    other = GaussianSpace([[1.0, -0.3], [-0.3, 1.0]])
    with pytest.raises(ValueError, match="different spaces"):
        space.basis_rv(0) * other.basis_rv(1)
    with pytest.raises(ValueError, match="different spaces"):
        space.basis_rv(0) + other.basis_rv(1)
    # a separately built space with an equal Gram matrix is the same space
    twin = GaussianSpace([[1.0, 0.6], [0.6, 1.0]])
    assert wick_expectation(space.basis_rv(0) * twin.basis_rv(1)) == pytest.approx(0.6, abs=1e-12)


def test_items_iterates_sparse_terms():
    space = GaussianSpace.standard(2)
    z1 = PolyRV.coordinate(space, 0)
    p = z1 * z1 * 2.0
    terms = dict(p.items())
    assert terms == {(2, 0): pytest.approx(2.0)}
    assert p.max_abs_coeff() == pytest.approx(2.0)
