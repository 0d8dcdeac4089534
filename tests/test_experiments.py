"""End-to-end comparison pipelines: variation statistics vs their limit laws."""

import numpy as np
import pytest

from chaoslab.experiments import mixture_comparison, riemann_comparison
from chaoslab.fbm import PATH_CHUNK, FbmGrid, sample_paths
from chaoslab.weights import WeightFunction

COS = WeightFunction.cosine(1.0, 1.0)
X4 = WeightFunction.polynomial(0.0, 0.0, 0.0, 0.0, 1.0)


def test_mixture_comparison_smoke_mixed_clt():
    report, arrays = mixture_comparison(2, 0.3, COS, 512, 400, seed=1, n_fine=1024)
    assert report.passed, report.extras
    assert report.name == "mixture-comparison-q2-h0.3"
    assert report.extras["regime"] == "mixed_clt"
    assert report.extras["shift_coefficient"] == 0.0
    assert set(arrays) == {"statistic", "own_s2", "own_shift", "reference", "reference_s2"}
    assert arrays["statistic"].shape == (400,)
    assert arrays["reference"].shape == (400,)
    np.testing.assert_allclose(arrays["own_shift"], 0.0, atol=0)
    assert "ks_statistic" in report.extras and "cf_ratio" in report.extras


def test_mixture_comparison_critical_lower_sets_shift():
    report, arrays = mixture_comparison(2, 0.25, COS, 512, 400, seed=1, n_fine=1024)
    assert report.extras["regime"] == "critical_lower"
    assert report.extras["shift_coefficient"] == pytest.approx(0.25)
    assert float(np.std(arrays["own_shift"])) > 0


def test_critical_lower_shift_reuses_the_correction_derivative(monkeypatch):
    calls = []
    original = WeightFunction.__call__

    def counting(self, x, order=0):
        calls.append((np.shape(x), order))
        return original(self, x, order)

    monkeypatch.setattr(WeightFunction, "__call__", counting)
    m, n = PATH_CHUNK + 5, 256  # two statistic batches
    _, arrays = mixture_comparison(2, 0.25, COS, n, m, seed=2, n_fine=1024)
    # one f'' evaluation per statistic batch (the reference paths have n_fine columns)
    assert [shape[0] for shape, order in calls if order == 2 and shape[1] == n] == [PATH_CHUNK, 5]
    monkeypatch.undo()
    levels = sample_paths(FbmGrid(0.25, n), m, 2, "circulant").levels_at_increment_start()
    np.testing.assert_array_equal(arrays["own_shift"], 0.25 * np.mean(COS(levels, 2), axis=1))


def test_mixture_comparison_is_deterministic():
    a, _ = mixture_comparison(2, 0.3, COS, 256, 300, seed=9, n_fine=1024)
    b, _ = mixture_comparison(2, 0.3, COS, 256, 300, seed=9, n_fine=1024)
    assert a.statistic == b.statistic
    assert a.extras["ks_statistic"] == b.extras["ks_statistic"]


def test_mixture_comparison_regime_validation():
    with pytest.raises(ValueError, match="regime"):
        mixture_comparison(2, 0.1, COS, 64, 10, seed=0)  # lower regime
    with pytest.raises(ValueError, match="regime"):
        mixture_comparison(2, 0.9, COS, 64, 10, seed=0)  # hermite regime


def test_mixture_comparison_mismatched_conventions_fail_variance():
    # statistic normalized "scaled" but limit constants computed "monic":
    # every moment is off by (q!)^2 = 4, so the variance gate must trip
    report, _ = mixture_comparison(
        2,
        0.3,
        COS,
        1024,
        2000,
        seed=5,
        normalization="scaled",
        constants_normalization="monic",
        n_fine=1024,
        variance_tolerance=0.05,
    )
    assert not report.passed
    assert report.name.endswith("-mismatched")
    ratio = report.extras["variance_statistic"] / report.extras["variance_target"]
    assert ratio == pytest.approx(0.25, abs=0.05)


def test_mixture_comparison_scaled_consistent_passes():
    # scaled on BOTH sides is a consistent convention and must pass
    report, _ = mixture_comparison(
        2, 0.3, COS, 512, 400, seed=3, normalization="scaled", n_fine=1024
    )
    assert report.passed
    assert "-mismatched" not in report.name
    # sigma^2 under scaled normalization is the monic one divided by (q!)^2
    from chaoslab.variations import sigma_hq

    assert report.extras["sigma_sq"] == pytest.approx(
        sigma_hq(0.3, 2).sigma_sq / 4.0, rel=1e-12
    )


def test_mixture_comparison_variance_gate_optional():
    report, _ = mixture_comparison(2, 0.3, COS, 256, 300, seed=7, n_fine=1024)
    assert "variance" not in report.extras["sub_scores"]
    gated, _ = mixture_comparison(
        2, 0.3, COS, 256, 300, seed=7, n_fine=1024, variance_tolerance=0.2
    )
    assert "variance" in gated.extras["sub_scores"]


def test_riemann_comparison_structure():
    report, arrays = riemann_comparison(2, 0.1, X4, (64, 256), 300, seed=1)
    assert report.extras["regime"] == "lower"
    distances = report.extras["distances"]
    assert set(distances) == {"64", "256"}
    assert all(d > 0 for d in distances.values())
    assert len(report.extras["decrease_ratios"]) == 1
    assert arrays["n"].shape == (600,)
    assert arrays["renormalized"].shape == (600,)
    # long format: first 300 rows are n=64, next 300 are n=256
    assert set(arrays["n"][:300]) == {64}
    assert set(arrays["n"][300:]) == {256}


def test_riemann_comparison_distance_decreases():
    report, _ = riemann_comparison(2, 0.1, X4, (64, 256, 1024), 400, seed=2)
    d = [report.extras["distances"][str(n)] for n in (64, 256, 1024)]
    assert d[0] > d[1] > d[2]
    assert all(r < 1.0 for r in report.extras["decrease_ratios"])


def test_riemann_comparison_determinism():
    a, _ = riemann_comparison(2, 0.1, X4, (64, 256), 200, seed=11)
    b, _ = riemann_comparison(2, 0.1, X4, (64, 256), 200, seed=11)
    assert a.statistic == b.statistic
    assert a.extras["distances"] == b.extras["distances"]


def test_riemann_comparison_rejects_identically_zero_limit():
    # f = 1 has f'' = 0: the Riemann term, which each distance is relative to, vanishes
    with pytest.raises(ValueError, match="identically zero"):
        riemann_comparison(2, 0.2, WeightFunction.polynomial(1.0), (16, 32), 8, seed=0)


def test_riemann_comparison_validation():
    with pytest.raises(ValueError, match="regime"):
        riemann_comparison(2, 0.3, X4, (64, 256), 100, seed=0)  # mixed_clt, not lower
    with pytest.raises(ValueError):
        riemann_comparison(2, 0.1, X4, (64,), 100, seed=0)  # needs >= 2 sizes
    with pytest.raises(ValueError):
        riemann_comparison(2, 0.1, X4, (256, 64), 100, seed=0)  # must increase
