"""Symmetric kernel storage and the Gram inner product."""

import itertools
import math

import numpy as np
import pytest

from chaoslab.space import GaussianSpace
from chaoslab.tensors import SymTensor, inner


def _basis_tensor(space, *indices):
    coeffs = np.zeros((space.dim,) * len(indices))
    coeffs[indices] = 1.0
    return SymTensor(space, coeffs)


def _average_over_permutations(coeffs):
    """The permutation average, summed in ``itertools.permutations`` order."""
    perms = list(itertools.permutations(range(coeffs.ndim)))
    acc = np.zeros_like(coeffs)
    for perm in perms:
        acc += np.transpose(coeffs, perm)
    return acc / len(perms)


@pytest.mark.parametrize("q", [2, 3])
@pytest.mark.parametrize("d", [1, 2, 3, 4])
def test_constructor_stores_the_permutation_average_bytes(d, q):
    rng = np.random.default_rng(100 * d + q)
    coeffs = rng.normal(size=(d,) * q)
    stored = SymTensor(GaussianSpace.standard(d), coeffs).coeffs
    # at d = 1 every array is symmetric and kept as given
    expected = coeffs if d == 1 else _average_over_permutations(coeffs)
    assert stored.tobytes() == expected.tobytes()


def test_constructor_keeps_symmetric_coefficients_exactly():
    coeffs = np.full((1, 1, 1), 0.1)
    # averaging six copies of 0.1 would move its last bit
    assert _average_over_permutations(coeffs)[0, 0, 0] != 0.1
    assert SymTensor(GaussianSpace.standard(1), coeffs).coeffs[0, 0, 0] == 0.1


def test_contract_all_slots_gives_scalar():
    space = GaussianSpace.standard(2)
    f = _basis_tensor(space, 0, 1)  # stored as (e1 (x) e2 + e2 (x) e1) / 2
    out = inner(f, f)
    assert isinstance(out, float)
    assert out == pytest.approx(0.5, abs=1e-14)


def test_contract_uses_the_gram_pairing():
    rho = 0.37
    space = GaussianSpace([[1.0, rho], [rho, 1.0]])
    e1 = _basis_tensor(space, 0)
    e2 = _basis_tensor(space, 1)
    assert inner(e1, e2) == pytest.approx(rho, abs=1e-12)


def test_contract_validation():
    space = GaussianSpace.standard(2)
    other = GaussianSpace.standard(3)
    f = _basis_tensor(space, 0, 1)
    with pytest.raises(ValueError, match="one order"):
        inner(f, _basis_tensor(space, 0))
    with pytest.raises(ValueError, match="different spaces: dimension 2 and dimension 3"):
        inner(f, _basis_tensor(other, 0, 1))


def test_symmetric_autodetection():
    space = GaussianSpace.standard(2)
    # symmetric within 1e-12: kept as given, asymmetry included
    near = np.array([[1.0, 2.0], [2.0 + 1e-13, 5.0]])
    np.testing.assert_array_equal(SymTensor(space, near).coeffs, near)
    asym = SymTensor(space, np.array([[1.0, 2.0], [0.0, 5.0]]))
    np.testing.assert_array_equal(asym.coeffs, [[1.0, 1.0], [1.0, 5.0]])


def test_symmetrize_averages_permutations():
    space = GaussianSpace.standard(2)
    s = _basis_tensor(space, 0, 1)
    expected = np.zeros((2, 2))
    expected[0, 1] = expected[1, 0] = 0.5
    np.testing.assert_allclose(s.coeffs, expected, atol=1e-14)


def test_order_cap_enforced():
    space = GaussianSpace.standard(2)
    with pytest.raises(ValueError):
        SymTensor(space, np.zeros((2,) * 7))


def test_zeros_and_basis_vector_helpers():
    space = GaussianSpace.standard(3)
    z = SymTensor(space, np.zeros((3, 3)))
    assert z.order == 2 and not np.any(z.coeffs)
    e = SymTensor(space, np.eye(3)[1])
    np.testing.assert_allclose(e.coeffs, [0.0, 1.0, 0.0])
    assert e.order == 1


def test_contraction_bilinearity():
    rng = np.random.default_rng(5)
    space = GaussianSpace([[1.0, 0.2], [0.2, 2.0]])
    f1 = SymTensor(space, rng.normal(size=(2, 2)))
    f2 = SymTensor(space, rng.normal(size=(2, 2)))
    g = SymTensor(space, rng.normal(size=(2, 2)))
    lhs = inner(SymTensor(space, f1.coeffs + 2.0 * f2.coeffs), g)
    assert lhs == pytest.approx(inner(f1, g) + 2.0 * inner(f2, g), abs=1e-12)


def test_full_contraction_of_symmetrized_tensors_matches_manual_sum():
    # <f, g> with gram weights on every slot, against an explicit loop.
    rng = np.random.default_rng(9)
    gram = np.array([[1.0, 0.4], [0.4, 1.5]])
    space = GaussianSpace(gram)
    f = SymTensor(space, rng.normal(size=(2, 2)))
    g = SymTensor(space, rng.normal(size=(2, 2)))
    manual = 0.0
    for i in range(2):
        for j in range(2):
            for k in range(2):
                for l in range(2):
                    manual += f.coeffs[i, j] * g.coeffs[k, l] * gram[i, k] * gram[j, l]
    assert inner(f, g) == pytest.approx(manual, abs=1e-12)
    assert math.isfinite(manual)
