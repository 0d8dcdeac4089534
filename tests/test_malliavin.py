"""Malliavin derivative, divergence, multiple integrals, and the OU generator."""

import numpy as np
import pytest

from chaoslab.malliavin import (
    PolyTensor,
    derivative,
    multiple_integral,
    ou_generator,
    skorohod,
)
from chaoslab.polyrv import PolyRV, wick_expectation
from chaoslab.space import GaussianSpace
from chaoslab.tensors import SymTensor


def _standard(d=2):
    return GaussianSpace.standard(d)


def test_derivative_of_cubed_field():
    # F = X(h)^3 with h the first ONB vector: DF = 3 X(h)^2 h, D^2 F = 6 X(h) h(x)h.
    space = _standard(2)
    z = PolyRV.coordinate(space, 0)
    F = z**3
    d1 = derivative(F, 1)
    assert d1.order == 1
    want = z * z * 3.0
    assert (d1.entries[(0,)] - want).is_zero
    assert (1,) not in d1.entries or d1.entries[(1,)].is_zero
    d2 = derivative(F, 2)
    assert d2.order == 2
    assert (d2.entries[(0, 0)] - z * 6.0).is_zero


def test_derivative_of_constant_is_zero():
    space = _standard(2)
    d = derivative(PolyRV.constant(space, 5.0), 1)
    assert all(v.is_zero for v in d.entries.flat)


def test_derivative_is_symmetric_in_slots():
    space = _standard(2)
    z1 = PolyRV.coordinate(space, 0)
    z2 = PolyRV.coordinate(space, 1)
    d2 = derivative(z1 * z1 * z2, 2)
    assert (d2.entries[(0, 1)] - d2.entries[(1, 0)]).is_zero


def test_skorohod_of_deterministic_vector_is_field():
    space = _standard(2)
    h = PolyTensor.from_constant_tensor(SymTensor.basis_vector(space, 0))
    out = skorohod(h, 1)
    z = PolyRV.coordinate(space, 0)
    assert (out - z).is_zero


def test_skorohod_pinned_first_order():
    # delta(X(h) h) = X(h)^2 - 1 for unit h.
    space = _standard(2)
    z = PolyRV.coordinate(space, 0)
    zero = PolyRV.constant(space, 0.0)
    u = PolyTensor(space, [z, zero])
    out = skorohod(u, 1)
    assert (out - (z * z - PolyRV.constant(space, 1.0))).is_zero


def test_skorohod_iterated_on_deterministic_tensor():
    # delta^2(h (x) h) = He_2(X(h)) = X(h)^2 - 1.
    space = _standard(2)
    coeffs = np.zeros((2, 2))
    coeffs[0, 0] = 1.0
    u = PolyTensor.from_constant_tensor(SymTensor(space, coeffs))
    out = skorohod(u, 2)
    z = PolyRV.coordinate(space, 0)
    assert (out - (z * z - PolyRV.constant(space, 1.0))).is_zero


def test_skorohod_partial_returns_tensor():
    space = _standard(2)
    coeffs = np.zeros((2, 2))
    coeffs[0, 0] = 1.0
    u = PolyTensor.from_constant_tensor(SymTensor(space, coeffs))
    partial = skorohod(u, 1)
    assert partial.order == 1
    z = PolyRV.coordinate(space, 0)
    assert (partial.entries[(0,)] - z).is_zero


def test_skorohod_rejects_raw_basis():
    space = GaussianSpace([[1.0, 0.5], [0.5, 1.0]])
    with pytest.raises(ValueError, match="orthonormal"):
        skorohod(SymTensor.basis_vector(space, 0))


def test_skorohod_order_validation():
    space = _standard(2)
    u = PolyTensor.from_constant_tensor(SymTensor.basis_vector(space, 0))
    with pytest.raises(ValueError):
        skorohod(u, 2)
    with pytest.raises(ValueError):
        skorohod(u, 0)


def test_skorohod_has_zero_mean():
    # E[delta(u)] = 0 for every field (duality against F = 1).
    space = _standard(2)
    z1 = PolyRV.coordinate(space, 0)
    z2 = PolyRV.coordinate(space, 1)
    u = PolyTensor(space, [z1 * z2 + z2 * z2, z1 * z1 * z2])
    assert wick_expectation(skorohod(u, 1)) == pytest.approx(0.0, abs=1e-12)


def test_multiple_integral_first_order():
    space = GaussianSpace([[1.0, 0.5], [0.5, 1.0]])
    h = np.array([2.0, -1.0])
    F = multiple_integral(SymTensor(space, h))
    assert (F - space.field_rv(h)).is_zero


def test_multiple_integral_squared_field():
    # f = h (x) h with ||h|| = c gives X(h)^2 - c^2.
    space = GaussianSpace([[1.0, 0.5], [0.5, 1.0]])
    h = np.array([1.0, 1.0])
    c2 = space.inner(h, h)  # = 3
    F = multiple_integral(SymTensor(space, np.outer(h, h)))
    x = space.field_rv(h)
    assert (F - (x * x - PolyRV.constant(space, c2))).is_zero


def test_multiple_integral_off_diagonal():
    space = _standard(2)
    coeffs = np.zeros((2, 2))
    coeffs[0, 1] = coeffs[1, 0] = 0.5
    F = multiple_integral(SymTensor(space, coeffs))
    z1 = PolyRV.coordinate(space, 0)
    z2 = PolyRV.coordinate(space, 1)
    assert (F - z1 * z2).is_zero
    assert F.meta.get("symmetrized") is False


def test_multiple_integral_symmetrizes_with_flag():
    space = _standard(2)
    coeffs = np.zeros((2, 2))
    coeffs[0, 1] = 1.0  # asymmetric input
    F = multiple_integral(SymTensor(space, coeffs))
    z1 = PolyRV.coordinate(space, 0)
    z2 = PolyRV.coordinate(space, 1)
    assert (F - z1 * z2).is_zero
    assert F.meta.get("symmetrized") is True


def test_multiple_integral_isometry_random():
    rng = np.random.default_rng(17)
    space = GaussianSpace([[1.0, 0.3], [0.3, 1.0]])
    import math

    from chaoslab.tensors import contract

    for q in (1, 2, 3):
        f = SymTensor(space, rng.normal(size=(2,) * q)).symmetrize()
        g = SymTensor(space, rng.normal(size=(2,) * q)).symmetrize()
        lhs = wick_expectation(multiple_integral(f) * multiple_integral(g))
        rhs = math.factorial(q) * contract(f, g, q)
        assert lhs == pytest.approx(rhs, abs=1e-10)
    # cross order: orthogonal chaoses
    f1 = SymTensor(space, rng.normal(size=(2,)))
    g2 = SymTensor(space, rng.normal(size=(2, 2))).symmetrize()
    assert wick_expectation(multiple_integral(f1) * multiple_integral(g2)) == pytest.approx(
        0.0, abs=1e-12
    )


def test_ou_generator_pinned_eigenfunctions():
    space = _standard(1)
    z = PolyRV.coordinate(space, 0)
    one = PolyRV.constant(space, 1.0)
    assert (ou_generator(z) + z).is_zero
    he2 = z * z - one
    assert (ou_generator(he2) + he2 * 2.0).is_zero
    # L(Z^3) = -3 Z^3 + 6 Z  (Z^3 = He_3 + 3 He_1)
    assert (ou_generator(z**3) - (z * 6.0 - z**3 * 3.0)).is_zero


def test_ou_generator_routes_agree():
    rng = np.random.default_rng(23)
    space = GaussianSpace.standard(3)
    for _ in range(10):
        terms = {}
        for _k in range(4):
            expo = tuple(int(e) for e in rng.integers(0, 3, size=3))
            terms[expo] = float(rng.normal())
        F = PolyRV(space, terms)
        gap = ou_generator(F, method="divergence") - ou_generator(F, method="chaos")
        assert gap.max_abs_coeff() <= 1e-9


def test_ou_generator_method_validation():
    space = _standard(1)
    with pytest.raises(ValueError):
        ou_generator(PolyRV.coordinate(space, 0), method="spectral")


def test_duality_single_instance():
    # E[F delta(u)] = E[<DF, u>] on a handcrafted pair.
    space = _standard(2)
    z1 = PolyRV.coordinate(space, 0)
    z2 = PolyRV.coordinate(space, 1)
    F = z1 * z1 * z2
    u = PolyTensor(space, [z2 * z2, z1])
    lhs = wick_expectation(F * skorohod(u, 1))
    df = derivative(F, 1)
    rhs = sum(wick_expectation(df.entries[a] * u.entries[a]) for a in range(2))
    assert lhs == pytest.approx(rhs, abs=1e-12)
