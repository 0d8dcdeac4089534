"""Malliavin derivative, divergence, multiple integrals, and the OU generator."""

import numpy as np
import pytest

from chaoslab.malliavin import (
    PolyTensor,
    derivative,
    expected_inner,
    multiple_integral,
    ou_generator,
    ou_generator_chaos,
    pairwise_inner,
    partial_inner,
    skorohod,
)
from chaoslab.polyrv import PolyRV, wick_expectation
from chaoslab.space import GaussianSpace
from chaoslab.tensors import SymTensor, inner


def _standard(d=2):
    return GaussianSpace.standard(d)


def test_mixed_gaussian_spaces_raise_naming_both_dimensions():
    A, B = _standard(2), GaussianSpace(np.array([[1.0, 0.5], [0.5, 1.0]]))
    y0, y1 = B.basis_rv(0), B.basis_rv(1)
    # entries from B in a tensor over A would give a wrong number silently
    with pytest.raises(ValueError, match="dimension 2 and dimension 2"):
        expected_inner(derivative(y0 * y1), PolyTensor(A, [y0, y1]))
    on_a, on_c = derivative(A.basis_rv(0) * A.basis_rv(1)), derivative(_standard(3).basis_rv(0), 2)
    for mixed in (lambda: on_a + on_c, lambda: pairwise_inner(on_a, on_c), lambda: partial_inner(on_a, on_c, 1)):
        with pytest.raises(ValueError, match="dimension 2 and dimension 3"):
            mixed()
    # the PolyRV arithmetic and the kernel pairing check their spaces the same way
    x0, z0 = A.basis_rv(0), _standard(3).basis_rv(0)
    kernel_a, kernel_c = SymTensor(A, np.eye(2)), SymTensor(_standard(3), np.eye(3))
    for mixed in (lambda: x0 + z0, lambda: x0 * z0, lambda: inner(kernel_a, kernel_c)):
        with pytest.raises(ValueError, match="different spaces: dimension 2 and dimension 3"):
            mixed()
    # a space with the same Gram matrix is the same space
    assert expected_inner(on_a, PolyTensor(_standard(2), [A.basis_rv(1), A.basis_rv(0)])) == 2.0


def test_derivative_of_cubed_field():
    # F = X(h)^3 with h the first ONB vector: DF = 3 X(h)^2 h, D^2 F = 6 X(h) h(x)h.
    space = _standard(2)
    z = PolyRV.coordinate(space, 0)
    F = z * z * z
    d1 = derivative(F, 1)
    assert d1.order == 1
    want = z * z * 3.0
    assert not (d1.entries[(0,)] - want).terms
    assert not d1.entries[(1,)].terms
    d2 = derivative(F, 2)
    assert d2.order == 2
    assert not (d2.entries[(0, 0)] - z * 6.0).terms


def test_derivative_of_constant_is_zero():
    space = _standard(2)
    d = derivative(PolyRV.constant(space, 5.0), 1)
    assert not any(v.terms for v in d.entries.flat)


def test_derivative_is_symmetric_in_slots():
    space = _standard(2)
    z1 = PolyRV.coordinate(space, 0)
    z2 = PolyRV.coordinate(space, 1)
    d2 = derivative(z1 * z1 * z2, 2)
    assert not (d2.entries[(0, 1)] - d2.entries[(1, 0)]).terms


def test_skorohod_of_deterministic_vector_is_field():
    space = _standard(2)
    h = PolyTensor.from_constant_tensor(SymTensor(space, [1.0, 0.0]))
    out = skorohod(h, 1)
    z = PolyRV.coordinate(space, 0)
    assert not (out - z).terms


def test_skorohod_pinned_first_order():
    # delta(X(h) h) = X(h)^2 - 1 for unit h.
    space = _standard(2)
    z = PolyRV.coordinate(space, 0)
    zero = PolyRV.constant(space, 0.0)
    u = PolyTensor(space, [z, zero])
    out = skorohod(u, 1)
    assert not (out - (z * z - PolyRV.constant(space, 1.0))).terms


def test_skorohod_iterated_on_deterministic_tensor():
    # delta^2(h (x) h) = He_2(X(h)) = X(h)^2 - 1.
    space = _standard(2)
    coeffs = np.zeros((2, 2))
    coeffs[0, 0] = 1.0
    u = PolyTensor.from_constant_tensor(SymTensor(space, coeffs))
    out = skorohod(u, 2)
    z = PolyRV.coordinate(space, 0)
    assert not (out - (z * z - PolyRV.constant(space, 1.0))).terms


def test_skorohod_partial_returns_tensor():
    space = _standard(2)
    coeffs = np.zeros((2, 2))
    coeffs[0, 0] = 1.0
    u = PolyTensor.from_constant_tensor(SymTensor(space, coeffs))
    partial = skorohod(u, 1)
    assert partial.order == 1
    z = PolyRV.coordinate(space, 0)
    assert not (partial.entries[(0,)] - z).terms


def test_skorohod_rejects_raw_basis():
    space = GaussianSpace([[1.0, 0.5], [0.5, 1.0]])
    with pytest.raises(ValueError, match="orthonormal"):
        skorohod(SymTensor(space, [1.0, 0.0]))


def test_skorohod_order_validation():
    space = _standard(2)
    u = PolyTensor.from_constant_tensor(SymTensor(space, [1.0, 0.0]))
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
    assert not (F - space.field_rv(h)).terms


def test_multiple_integral_squared_field():
    # f = h (x) h with ||h|| = c gives X(h)^2 - c^2.
    space = GaussianSpace([[1.0, 0.5], [0.5, 1.0]])
    h = np.array([1.0, 1.0])
    c2 = wick_expectation(space.field_rv(h) * space.field_rv(h))  # = 3
    F = multiple_integral(SymTensor(space, np.outer(h, h)))
    x = space.field_rv(h)
    assert not (F - (x * x - PolyRV.constant(space, c2))).terms


def test_multiple_integral_off_diagonal():
    space = _standard(2)
    coeffs = np.zeros((2, 2))
    coeffs[0, 1] = coeffs[1, 0] = 0.5
    F = multiple_integral(SymTensor(space, coeffs))
    z1 = PolyRV.coordinate(space, 0)
    z2 = PolyRV.coordinate(space, 1)
    assert not (F - z1 * z2).terms


def test_multiple_integral_symmetrizes_with_flag():
    space = _standard(2)
    coeffs = np.zeros((2, 2))
    coeffs[0, 1] = 1.0  # asymmetric input: the kernel stores its symmetrization
    F = multiple_integral(SymTensor(space, coeffs))
    z1 = PolyRV.coordinate(space, 0)
    z2 = PolyRV.coordinate(space, 1)
    assert not (F - z1 * z2).terms


def test_multiple_integral_isometry_random():
    rng = np.random.default_rng(17)
    space = GaussianSpace([[1.0, 0.3], [0.3, 1.0]])
    import math

    for q in (1, 2, 3):
        f = SymTensor(space, rng.normal(size=(2,) * q))
        g = SymTensor(space, rng.normal(size=(2,) * q))
        lhs = wick_expectation(multiple_integral(f) * multiple_integral(g))
        rhs = math.factorial(q) * inner(f, g)
        assert lhs == pytest.approx(rhs, abs=1e-10)
    # cross order: orthogonal chaoses
    f1 = SymTensor(space, rng.normal(size=(2,)))
    g2 = SymTensor(space, rng.normal(size=(2, 2)))
    assert wick_expectation(multiple_integral(f1) * multiple_integral(g2)) == pytest.approx(
        0.0, abs=1e-12
    )


def test_ou_generator_pinned_eigenfunctions():
    space = _standard(1)
    z = PolyRV.coordinate(space, 0)
    one = PolyRV.constant(space, 1.0)
    assert not (ou_generator(z) + z).terms
    he2 = z * z - one
    assert not (ou_generator(he2) + he2 * 2.0).terms
    # L(Z^3) = -3 Z^3 + 6 Z  (Z^3 = He_3 + 3 He_1)
    z3 = z * z * z
    assert not (ou_generator(z3) - (z * 6.0 - z3 * 3.0)).terms


def test_ou_generator_routes_agree():
    rng = np.random.default_rng(23)
    space = GaussianSpace.standard(3)
    for _ in range(10):
        terms = {}
        for _k in range(4):
            expo = tuple(int(e) for e in rng.integers(0, 3, size=3))
            terms[expo] = float(rng.normal())
        F = PolyRV(space, terms)
        gap = ou_generator(F) - ou_generator_chaos(F)
        assert gap.max_abs_coeff() <= 1e-9


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
