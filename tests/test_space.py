"""Gaussian space construction, inner products, and orthonormalization tests."""

import numpy as np
import pytest

from chaoslab.polyrv import wick_expectation
from chaoslab.space import GaussianSpace


def test_identity_gram_inner_products():
    space = GaussianSpace.standard(3)
    e1 = np.array([1.0, 0.0, 0.0])
    e2 = np.array([0.0, 1.0, 0.0])
    assert space.inner(e1, e1) == pytest.approx(1.0, abs=1e-14)
    assert space.inner(e1, e2) == pytest.approx(0.0, abs=1e-14)


def test_correlated_gram_inner_product():
    space = GaussianSpace([[1.0, 0.5], [0.5, 1.0]])
    e1 = np.array([1.0, 0.0])
    e2 = np.array([0.0, 1.0])
    assert space.inner(e1, e2) == pytest.approx(0.5, abs=1e-14)
    assert space.norm(np.array([1.0, 1.0])) == pytest.approx(np.sqrt(3.0), abs=1e-12)


def test_dimension_mismatch_error():
    space = GaussianSpace.standard(2)
    with pytest.raises(ValueError, match="dimension"):
        space.inner(np.array([1.0, 0.0, 0.0]), np.array([1.0, 0.0, 0.0]))


def test_asymmetric_gram_rejected():
    with pytest.raises(ValueError, match="symmetric"):
        GaussianSpace([[1.0, 0.3], [0.2, 1.0]])


def test_indefinite_gram_rejected():
    with pytest.raises(ValueError):
        GaussianSpace([[1.0, 2.0], [2.0, 1.0]])  # eigenvalues 3, -1


def test_onb_transform_reproduces_gram():
    rng = np.random.default_rng(7)
    for trial in range(20):
        d = int(rng.integers(1, 6))
        a = rng.normal(size=(d, d))
        space = GaussianSpace(a @ a.T)
        assert space.check_onb() <= 1e-10


def test_rank_deficient_gram_supported():
    # gram of rank 2 inside d = 3: duplicate direction must not break the ONB.
    a = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
    space = GaussianSpace(a @ a.T)
    assert space.check_onb() <= 1e-10
    v = np.array([1.0, 1.0, -1.0])  # lies in the kernel of the gram
    assert space.norm(v) == pytest.approx(0.0, abs=1e-7)


def test_basis_rv_second_moments_match_gram():
    gram = np.array([[2.0, 0.6], [0.6, 1.0]])
    space = GaussianSpace(gram)
    for i in range(2):
        for j in range(2):
            moment = wick_expectation(space.basis_rv(i) * space.basis_rv(j))
            assert moment == pytest.approx(gram[i, j], abs=1e-12)


def test_field_rv_is_linear_in_coefficients():
    space = GaussianSpace([[1.0, 0.25], [0.25, 1.0]])
    u = np.array([0.7, -0.2])
    v = np.array([0.1, 0.4])
    lhs = space.field_rv(u + v)
    rhs = space.field_rv(u) + space.field_rv(v)
    assert (lhs - rhs).is_zero
    # E[X(u) X(v)] = <u, v>_H
    cov = wick_expectation(space.field_rv(u) * space.field_rv(v))
    assert cov == pytest.approx(space.inner(u, v), abs=1e-12)


def test_onb_coords_roundtrip_inner_product():
    rng = np.random.default_rng(11)
    a = rng.normal(size=(4, 4))
    space = GaussianSpace(a @ a.T)
    u = rng.normal(size=4)
    v = rng.normal(size=4)
    # the euclidean product of ONB coordinates equals the H inner product
    dot = float(space.onb_coords(u) @ space.onb_coords(v))
    assert dot == pytest.approx(space.inner(u, v), abs=1e-10)


def test_standard_space_properties():
    space = GaussianSpace.standard(4)
    np.testing.assert_allclose(space.gram, np.eye(4))
    assert space.dim == 4
    z = space.coordinate(2)
    assert wick_expectation(z * z) == pytest.approx(1.0, abs=1e-14)
