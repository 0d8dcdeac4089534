"""Symmetric tensor storage and contraction tests."""

import math

import numpy as np
import pytest

from chaoslab.space import GaussianSpace
from chaoslab.tensors import SymTensor, contract


def _basis_tensor(space, *indices):
    coeffs = np.zeros((space.dim,) * len(indices))
    coeffs[indices] = 1.0
    return SymTensor(space, coeffs)


def test_contract_one_slot_identity_gram():
    space = GaussianSpace.standard(2)
    f = _basis_tensor(space, 0, 1)  # e1 (x) e2
    g = _basis_tensor(space, 0, 1)
    out = contract(f, g, 1)
    expected = np.zeros((2, 2))
    expected[0, 0] = 1.0  # pairing the last slots (both e2) leaves e1 (x) e1
    np.testing.assert_allclose(out.coeffs, expected, atol=1e-14)


def test_contract_all_slots_gives_scalar():
    space = GaussianSpace.standard(2)
    f = _basis_tensor(space, 0, 1)
    out = contract(f, f, 2)
    assert isinstance(out, float)
    assert out == pytest.approx(1.0, abs=1e-14)


def test_contract_zero_slots_is_tensor_product():
    space = GaussianSpace.standard(2)
    f = _basis_tensor(space, 0, 1)
    g = _basis_tensor(space, 1, 1)
    out = contract(f, g, 0)
    assert out.order == 4
    expected = np.zeros((2, 2, 2, 2))
    expected[0, 1, 1, 1] = 1.0
    np.testing.assert_allclose(out.coeffs, expected, atol=1e-14)


def test_contract_uses_the_gram_pairing():
    rho = 0.37
    space = GaussianSpace([[1.0, rho], [rho, 1.0]])
    e1 = _basis_tensor(space, 0)
    e2 = _basis_tensor(space, 1)
    assert contract(e1, e2, 1) == pytest.approx(rho, abs=1e-12)


def test_contract_validation():
    space = GaussianSpace.standard(2)
    other = GaussianSpace.standard(3)
    f = _basis_tensor(space, 0, 1)
    with pytest.raises(ValueError):
        contract(f, f, 3)  # more slots than either tensor has
    with pytest.raises(ValueError):
        contract(f, f, -1)
    with pytest.raises(ValueError):
        contract(f, _basis_tensor(other, 0, 1), 1)


def test_contract_symmetrize_flag():
    space = GaussianSpace.standard(2)
    f = _basis_tensor(space, 0, 0)
    g = _basis_tensor(space, 1, 1)
    plain = contract(f, g, 1)
    assert not plain.symmetric
    sym = contract(f, g, 1).symmetrize()
    assert sym.symmetric
    np.testing.assert_allclose(
        sym.coeffs, 0.5 * (plain.coeffs + plain.coeffs.T), atol=1e-14
    )


def test_symmetric_autodetection():
    space = GaussianSpace.standard(2)
    sym = SymTensor(space, np.array([[1.0, 2.0], [2.0, 5.0]]))
    assert sym.symmetric
    asym = SymTensor(space, np.array([[1.0, 2.0], [0.0, 5.0]]))
    assert not asym.symmetric


def test_symmetrize_averages_permutations():
    space = GaussianSpace.standard(2)
    t = _basis_tensor(space, 0, 1)
    s = t.symmetrize()
    expected = np.zeros((2, 2))
    expected[0, 1] = expected[1, 0] = 0.5
    np.testing.assert_allclose(s.coeffs, expected, atol=1e-14)
    assert s.symmetric


def test_order_cap_enforced():
    space = GaussianSpace.standard(2)
    with pytest.raises(ValueError):
        SymTensor(space, np.zeros((2,) * 7))


def test_zeros_and_basis_vector_helpers():
    space = GaussianSpace.standard(3)
    z = SymTensor(space, np.zeros((3, 3)))
    assert z.order == 2 and not np.any(z.coeffs) and z.symmetric
    e = SymTensor(space, np.eye(3)[1])
    np.testing.assert_allclose(e.coeffs, [0.0, 1.0, 0.0])
    assert e.order == 1 and e.symmetric


def test_contraction_bilinearity():
    rng = np.random.default_rng(5)
    space = GaussianSpace([[1.0, 0.2], [0.2, 2.0]])
    f1 = SymTensor(space, rng.normal(size=(2, 2)))
    f2 = SymTensor(space, rng.normal(size=(2, 2)))
    g = SymTensor(space, rng.normal(size=(2, 2)))
    lhs = contract(SymTensor(space, f1.coeffs + 2.0 * f2.coeffs), g, 1)
    rhs = contract(f1, g, 1).coeffs + 2.0 * contract(f2, g, 1).coeffs
    np.testing.assert_allclose(lhs.coeffs, rhs, atol=1e-12)


def test_full_contraction_of_symmetrized_tensors_matches_manual_sum():
    # <f, g> with gram weights on every slot, against an explicit loop.
    rng = np.random.default_rng(9)
    gram = np.array([[1.0, 0.4], [0.4, 1.5]])
    space = GaussianSpace(gram)
    f = SymTensor(space, rng.normal(size=(2, 2))).symmetrize()
    g = SymTensor(space, rng.normal(size=(2, 2))).symmetrize()
    manual = 0.0
    for i in range(2):
        for j in range(2):
            for k in range(2):
                for l in range(2):
                    manual += f.coeffs[i, j] * g.coeffs[k, l] * gram[i, k] * gram[j, l]
    assert contract(f, g, 2) == pytest.approx(manual, abs=1e-12)
    assert math.isfinite(manual)
