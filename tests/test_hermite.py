"""Hermite polynomial evaluation and basis-conversion tests."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.polynomial import hermite_e

from chaoslab.hermite import (
    hermite_eval,
    hermite_monomial_coeffs,
    monomial_hermite_coeffs,
    normalization_scale,
)


def test_pinned_values_monic():
    assert hermite_eval(0, 1.7) == 1.0
    assert hermite_eval(1, 1.7) == pytest.approx(1.7, abs=1e-15)
    # He_2(x) = x^2 - 1 at x = 3
    assert hermite_eval(2, 3.0) == pytest.approx(8.0, abs=1e-12)
    # He_3(x) = x^3 - 3x at x = 2
    assert hermite_eval(3, 2.0) == pytest.approx(2.0, abs=1e-12)


def test_pinned_values_scaled():
    # scaled convention divides by q!
    assert hermite_eval(3, 2.0, normalization="scaled") == pytest.approx(1.0 / 3.0, abs=1e-12)
    assert hermite_eval(2, 3.0, normalization="scaled") == pytest.approx(4.0, abs=1e-12)
    assert hermite_eval(0, 0.3, normalization="scaled") == 1.0


def test_normalization_scale_is_one_or_q_factorial():
    assert [normalization_scale(q, "monic") for q in range(5)] == [1.0] * 5
    assert [normalization_scale(q, "scaled") for q in range(5)] == [1.0, 1.0, 2.0, 6.0, 24.0]
    with pytest.raises(ValueError, match="normalization"):
        normalization_scale(2, "physicist")


def test_array_broadcast():
    x = np.linspace(-4.0, 4.0, 17).reshape(17, 1)
    vals = hermite_eval(2, x)
    assert vals.shape == (17, 1)
    np.testing.assert_allclose(vals, x**2 - 1.0, atol=1e-12)


@pytest.mark.parametrize("q", range(9))
def test_in_place_recurrence_matches_hermeval_byte_for_byte(q):
    # hermite_eval runs hermeval's Clenshaw steps in place: same operations, same order
    basis = np.zeros(q + 1)
    basis[q] = 1.0
    x = 3.0 * np.random.default_rng(q).standard_normal((7, 33))
    x[0, :3] = [0.0, -0.0, 1e200]  # signed zeros and overflow take the same path
    with np.errstate(over="ignore", invalid="ignore"):
        expected = hermite_e.hermeval(x, basis)
        assert hermite_eval(q, x).tobytes() == expected.tobytes()
        assert hermite_eval(q, x, "scaled").tobytes() == (expected / math.factorial(q)).tobytes()
    for point in (-1.7, -0.0, 0.3, 2.0):
        value = hermite_eval(q, point)
        assert type(value) is float
        assert np.float64(value).tobytes() == np.float64(hermite_e.hermeval(point, basis)).tobytes()


def test_input_validation():
    with pytest.raises(ValueError):
        hermite_eval(-1, 0.0)
    with pytest.raises(ValueError):
        hermite_eval(2, 0.0, normalization="physicist")


@given(
    q=st.integers(min_value=1, max_value=8),
    x=st.floats(min_value=-5.0, max_value=5.0, allow_nan=False),
)
@settings(max_examples=200, deadline=None)
def test_three_term_recurrence(q, x):
    # He_{q+1}(x) = x He_q(x) - q He_{q-1}(x)
    lhs = hermite_eval(q + 1, x)
    rhs = x * hermite_eval(q, x) - q * hermite_eval(q - 1, x)
    assert lhs == pytest.approx(rhs, abs=1e-8 * max(1.0, abs(rhs)))


def test_derivative_ladder_finite_differences():
    # d/dx He_q = q He_{q-1}, checked by central differences on [-5, 5]
    h = 1e-6
    x = np.linspace(-5.0, 5.0, 101)
    for q in range(1, 7):
        numeric = (hermite_eval(q, x + h) - hermite_eval(q, x - h)) / (2.0 * h)
        exact = q * hermite_eval(q - 1, x)
        assert np.max(np.abs(numeric - exact)) < 1e-5 * max(1.0, float(np.max(np.abs(exact))))


def test_monomial_coeff_tables_invert_each_other():
    # x^m = sum_j monomial_hermite_coeffs(m)[j] He_j(x) and
    # He_q(x) = sum_j hermite_monomial_coeffs(q)[j] x^j must compose to identity.
    for m in range(9):
        to_hermite = monomial_hermite_coeffs(m)
        assert to_hermite.shape == (m + 1,)
        back = np.zeros(m + 1)
        for j, c in enumerate(to_hermite):
            mono = hermite_monomial_coeffs(j)
            back[: j + 1] += c * mono
        expected = np.zeros(m + 1)
        expected[m] = 1.0
        np.testing.assert_allclose(back, expected, atol=1e-10)


def test_monomial_hermite_expansion_evaluates_correctly():
    x = np.linspace(-3.0, 3.0, 25)
    for m in range(8):
        coeffs = monomial_hermite_coeffs(m)
        total = sum(c * hermite_eval(j, x) for j, c in enumerate(coeffs))
        np.testing.assert_allclose(total, x**m, atol=1e-9)


def test_hermite_monomial_known_rows():
    np.testing.assert_allclose(hermite_monomial_coeffs(2), [-1.0, 0.0, 1.0])
    np.testing.assert_allclose(hermite_monomial_coeffs(3), [0.0, -3.0, 0.0, 1.0])
    np.testing.assert_allclose(hermite_monomial_coeffs(4), [3.0, 0.0, -6.0, 0.0, 1.0])


def test_gaussian_orthogonality_quadrature():
    # E[He_p(Z) He_q(Z)] = 1{p=q} q!, via Gauss-Hermite quadrature.
    nodes, weights = np.polynomial.hermite_e.hermegauss(40)
    weights = weights / weights.sum()
    for p in range(5):
        for q in range(5):
            moment = float(np.sum(weights * hermite_eval(p, nodes) * hermite_eval(q, nodes)))
            expected = math.factorial(q) if p == q else 0.0
            assert moment == pytest.approx(expected, abs=1e-8)
