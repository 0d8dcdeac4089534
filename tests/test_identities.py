"""Randomized exact verification of the integration-by-parts identity family."""

import numpy as np
import pytest

from chaoslab.identities import (
    commutation_gap,
    covariance_gap,
    duality_gap,
    generator_gap,
    isometry_gap,
    product_gap,
    run_identity_suite,
)
from chaoslab.malliavin import PolyTensor, skorohod
from chaoslab.polyrv import PolyRV, wick_expectation
from chaoslab.space import GaussianSpace
from chaoslab.tensors import SymTensor


def test_suite_all_identities_pass():
    report = run_identity_suite(seed=0, instances=120, tolerance=1e-9)
    assert report.passed, report.summary_line()
    per = report.extras["per_identity"]
    assert set(per) == {
        "duality",
        "product",
        "commutation",
        "covariance",
        "isometry",
        "generator",
    }
    for name, cell in per.items():
        assert cell["instances"] == 20
        assert cell["failures"] == 0, name
        assert cell["max_gap"] <= 1e-9


def test_suite_is_deterministic():
    a = run_identity_suite(seed=5, instances=60)
    b = run_identity_suite(seed=5, instances=60)
    assert a.statistic == b.statistic
    assert a.extras["per_identity"] == b.extras["per_identity"]


def test_suite_seed_changes_instances():
    a = run_identity_suite(seed=1, instances=60)
    b = run_identity_suite(seed=2, instances=60)
    assert a.statistic != b.statistic  # different random draws, both tiny
    assert a.passed and b.passed


def _poly_field(space, entries_by_index):
    zero = PolyRV.constant(space, 0.0)
    flat = [entries_by_index.get(a, zero) for a in range(space.dim)]
    return PolyTensor(space, flat)


def test_duality_accepts_arbitrary_fields():
    # the adjoint identity holds without any symmetry assumption on u
    space = GaussianSpace.standard(2)
    z1 = PolyRV.coordinate(space, 0)
    z2 = PolyRV.coordinate(space, 1)
    entries = np.empty((2, 2), dtype=object)
    entries[0, 0] = z2 * z2
    entries[0, 1] = z1
    entries[1, 0] = PolyRV.constant(space, 0.0)  # deliberately asymmetric
    entries[1, 1] = z1 * z2
    u = PolyTensor(space, entries)
    F = z1 * z1 * z2
    assert duality_gap(F, u) <= 1e-12


def test_product_rule_gap_small_on_symmetric_field():
    space = GaussianSpace.standard(2)
    z1 = PolyRV.coordinate(space, 0)
    z2 = PolyRV.coordinate(space, 1)
    entries = np.empty((2, 2), dtype=object)
    entries[0, 0] = z2
    entries[0, 1] = z1 * z2
    entries[1, 0] = z1 * z2
    entries[1, 1] = z1 * z1
    u = PolyTensor(space, entries)
    F = z1 * z2 + z2 * z2
    assert product_gap(F, u) <= 1e-12


def test_commutation_gap_first_and_second_order():
    space = GaussianSpace.standard(2)
    z1 = PolyRV.coordinate(space, 0)
    z2 = PolyRV.coordinate(space, 1)
    u1 = _poly_field(space, {0: z2 * z2 * z1, 1: z1 * z1})
    assert commutation_gap(u1, 1) <= 1e-12
    assert commutation_gap(u1, 2) <= 1e-12


def test_covariance_gap_matches_hand_formula_first_order():
    # E[delta(u) delta(v)] = E<u, v> + E[sum_{a,b} d_a u_b d_b v_a]
    space = GaussianSpace.standard(2)
    z1 = PolyRV.coordinate(space, 0)
    z2 = PolyRV.coordinate(space, 1)
    u = _poly_field(space, {0: z1 * z2, 1: z2 * z2})
    v = _poly_field(space, {0: z2, 1: z1 * z1 * z2})
    lhs = wick_expectation(skorohod(u, 1) * skorohod(v, 1))
    inner = sum(wick_expectation(u.entries[a] * v.entries[a]) for a in range(2))
    trace = sum(
        wick_expectation(u.entries[b].diff(a) * v.entries[a].diff(b))
        for a in range(2)
        for b in range(2)
    )
    assert lhs == pytest.approx(inner + trace, abs=1e-12)
    assert covariance_gap(u, v) <= 1e-12


def _rank_one_case():
    space = GaussianSpace([[1.0, 1.0], [1.0, 1.0]])
    x0 = space.basis_rv(0)
    u = PolyTensor(space, [x0 * x0, x0])
    return u, u


def _rank_two_case():
    space = GaussianSpace([[1.0, 0.5, 1.0], [0.5, 1.0, 0.5], [1.0, 0.5, 1.0]])
    x0, x1, x2 = (space.basis_rv(i) for i in range(3))
    return PolyTensor(space, [x0 * x1, x1 * x1, x2]), PolyTensor(space, [x2, x0 * x1, x1])


@pytest.mark.parametrize("case", [_rank_one_case, _rank_two_case], ids=["rank1-dim2", "rank2-dim3"])
def test_covariance_gap_on_rank_deficient_spaces(case):
    # tensor slots run over every coordinate of the space, not only its rank
    u, v = case()
    assert u.space.rank < u.space.dim
    assert covariance_gap(u, u) <= 1e-12
    assert covariance_gap(u, v) <= 1e-12


def test_covariance_gap_rejects_fields_from_different_spaces():
    a = GaussianSpace([[1.0, 0.3], [0.3, 1.0]])
    b = GaussianSpace([[1.0, -0.3], [-0.3, 1.0]])
    u = PolyTensor(a, [a.basis_rv(0), a.basis_rv(1)])
    v = PolyTensor(b, [b.basis_rv(1), b.basis_rv(0)])
    with pytest.raises(ValueError, match="different spaces"):
        covariance_gap(u, v)


def test_isometry_gap_same_and_cross_order():
    rng = np.random.default_rng(31)
    space = GaussianSpace([[1.0, 0.6], [0.6, 1.0]])
    f = SymTensor(space, rng.normal(size=(2, 2)))
    g = SymTensor(space, rng.normal(size=(2, 2)))
    assert isometry_gap(f, g) <= 1e-10
    h = SymTensor(space, rng.normal(size=(2,)))
    assert isometry_gap(h, g) <= 1e-10  # cross order: expectation must vanish


def test_generator_gap_on_random_polynomials():
    rng = np.random.default_rng(37)
    space = GaussianSpace.standard(2)
    for _ in range(5):
        terms = {
            tuple(int(e) for e in rng.integers(0, 3, size=2)): float(rng.normal())
            for _ in range(4)
        }
        F = PolyRV(space, terms)
        assert generator_gap(F) <= 1e-10


@pytest.mark.parametrize("instances", [0, -5, 5])
def test_suite_needs_one_instance_per_identity(instances):
    # with fewer instances than identities some identity goes unchecked
    with pytest.raises(ValueError, match="instances"):
        run_identity_suite(seed=0, instances=instances)


@pytest.mark.parametrize("tolerance", [0.0, -1.0, float("nan")])
def test_suite_rejects_a_nonpositive_tolerance(tolerance):
    # no gap is ever within a negative tolerance, which would read as a
    # failed identity rather than a bad setting
    with pytest.raises(ValueError, match="tolerance"):
        run_identity_suite(seed=0, instances=6, tolerance=tolerance)


def test_suite_caps_are_reported():
    report = run_identity_suite(seed=0, instances=6)
    assert report.extras["caps"] == {"max_dim": 4, "max_order": 3, "max_degree": 5}
    assert all(cell["instances"] == 1 for cell in report.extras["per_identity"].values())
