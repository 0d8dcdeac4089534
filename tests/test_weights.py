"""Weight functions: exact derivatives, parsing, and validation."""

import numpy as np
import pytest

from chaoslab.weights import WeightFunction, parse_weight


def _finite_diff(f, x, order, h=1e-5):
    if order == 0:
        return f(x)
    lower = _finite_diff(f, x - h, order - 1, h)
    upper = _finite_diff(f, x + h, order - 1, h)
    return (upper - lower) / (2.0 * h)


def test_polynomial_values_and_derivatives():
    f = WeightFunction.polynomial(1.0, 0.0, 2.0)  # 1 + 2 x^2
    x = np.linspace(-2.0, 2.0, 9)
    np.testing.assert_allclose(f(x), 1.0 + 2.0 * x**2, atol=1e-14)
    np.testing.assert_allclose(f(x, 1), 4.0 * x, atol=1e-14)
    np.testing.assert_allclose(f(x, 2), 4.0 * np.ones_like(x), atol=1e-14)
    np.testing.assert_allclose(f(x, 3), np.zeros_like(x), atol=1e-14)


def test_constant_weight():
    f = WeightFunction.polynomial(1.0)
    assert f(1.7) == 1.0
    assert f(1.7, 1) == 0.0
    assert f(np.array([0.0, 2.0]), 5).tolist() == [0.0, 0.0]


def test_cosine_derivative_cycle():
    a, b = 1.5, 2.0
    f = WeightFunction.cosine(a, b)
    x = np.linspace(-1.5, 1.5, 7)
    np.testing.assert_allclose(f(x), a * np.cos(b * x), atol=1e-14)
    np.testing.assert_allclose(f(x, 1), -a * b * np.sin(b * x), atol=1e-12)
    np.testing.assert_allclose(f(x, 2), -a * b**2 * np.cos(b * x), atol=1e-12)
    np.testing.assert_allclose(f(x, 4), a * b**4 * np.cos(b * x), atol=1e-12)


@pytest.mark.parametrize("order", range(5))
def test_cosine_in_place_evaluation_matches_the_formula_byte_for_byte(order):
    a, b = 0.7, -2.3
    f = WeightFunction.cosine(a, b)
    x = np.random.default_rng(order).standard_normal((6, 41))
    assert f(x, order).tobytes() == (a * b**order * np.cos(b * x + order * np.pi / 2)).tobytes()
    for point in (-1.2, 0.0, 0.5):
        value = f(point, order)
        assert type(value) is float
        assert value == a * b**order * np.cos(b * point + order * np.pi / 2)


def test_exp_neg_quadratic_derivatives_exact_forms():
    c = 0.7
    f = WeightFunction.exp_neg_quadratic(c)
    x = np.linspace(-2.0, 2.0, 11)
    base = np.exp(-c * x**2)
    np.testing.assert_allclose(f(x), base, atol=1e-14)
    np.testing.assert_allclose(f(x, 1), -2.0 * c * x * base, atol=1e-12)
    np.testing.assert_allclose(f(x, 2), (4.0 * c**2 * x**2 - 2.0 * c) * base, atol=1e-12)
    np.testing.assert_allclose(
        f(x, 3), (12.0 * c**2 * x - 8.0 * c**3 * x**3) * base, atol=1e-12
    )


def test_all_kinds_derivatives_against_finite_differences():
    x = np.linspace(-1.0, 1.0, 5)
    for f in (
        WeightFunction.polynomial(0.5, -1.0, 0.0, 2.0),
        WeightFunction.cosine(2.0, 0.5),
        WeightFunction.exp_neg_quadratic(1.0),
    ):
        for order in (1, 2):
            numeric = _finite_diff(lambda t: f(t), x, order)
            np.testing.assert_allclose(f(x, order), numeric, atol=1e-5)


def test_parse_round_trip():
    for text in ("poly:1", "poly:0.5,-1,2", "cos:1,1", "cos:2.5,0.25", "expq:0.8"):
        f = parse_weight(text)
        again = parse_weight(f.describe())
        assert again.kind == f.kind
        assert again.params == f.params
        x = np.linspace(-1, 1, 5)
        np.testing.assert_allclose(again(x, 1), f(x, 1), atol=1e-14)


def test_parse_errors():
    with pytest.raises(ValueError):
        parse_weight("sin:1,1")
    with pytest.raises(ValueError):
        parse_weight("poly:")
    with pytest.raises(ValueError):
        parse_weight("cos:1")  # needs exactly two parameters
    with pytest.raises(ValueError):
        parse_weight("expq:-1")  # c must be positive
    with pytest.raises(ValueError):
        parse_weight("expq:0")
    with pytest.raises(ValueError):
        parse_weight("poly:1,abc")
    with pytest.raises(ValueError):
        parse_weight("noseparator")


def test_negative_derivative_order_rejected():
    with pytest.raises(ValueError):
        WeightFunction.polynomial(1.0)(0.0, -1)


def test_scalar_input_returns_scalar():
    f = WeightFunction.polynomial(0.0, 1.0)
    out = f(2.0)
    assert isinstance(out, float) and out == 2.0


def test_broadcast_over_matrix():
    f = WeightFunction.cosine(1.0, 1.0)
    x = np.zeros((3, 4))
    assert f(x).shape == (3, 4)
    np.testing.assert_allclose(f(x), np.ones((3, 4)))
