"""Fractional Brownian motion: covariances, samplers, file format, bound suite."""

import math

import numpy as np
import pytest

import chaoslab.fbm
import chaoslab.rng
from chaoslab.fbm import (
    FbmGrid,
    FbmPathBatch,
    PATH_CHUNK,
    abs_rho_power_sum,
    alpha,
    alpha_diag,
    beta,
    bounds_suite,
    cov_rh,
    del_norm,
    embedding_spectrum,
    eps_del,
    load_paths,
    rho,
    sample_paths,
    save_paths,
    signed_rho_power_sum,
    stream_paths,
)


# -- closed forms ------------------------------------------------------------


def test_rho_pinned_values():
    assert rho(0.37, 0) == pytest.approx(1.0, abs=1e-15)
    assert rho(0.5, 3) == pytest.approx(0.0, abs=1e-15)
    assert rho(0.5, 1) == pytest.approx(0.0, abs=1e-15)
    assert rho(0.25, 1) == pytest.approx((2.0**0.5 - 2.0) / 2.0, abs=1e-12)


def test_rho_even_and_vectorized():
    lags = np.arange(-6, 7)
    vals = np.asarray(rho(0.3, lags))
    np.testing.assert_allclose(vals, vals[::-1], atol=1e-15)
    assert vals[6] == 1.0
    # negative correlation for H < 1/2, positive for H > 1/2 at lag 1
    assert rho(0.3, 1) < 0 < rho(0.7, 1)


def test_rho_asymptotic_decay():
    # rho_H(r) ~ H(2H-1) r^{2H-2}: the ratio tends to 1
    H = 0.3
    r = 10_000
    asym = H * (2 * H - 1) * r ** (2 * H - 2)
    assert rho(H, r) / asym == pytest.approx(1.0, rel=1e-4)


def test_cov_rh_pinned_values():
    assert cov_rh(0.5, 0.3, 0.7) == pytest.approx(0.3, abs=1e-15)
    assert cov_rh(0.31, 0.6, 0.6) == pytest.approx(0.6 ** (2 * 0.31), abs=1e-14)
    assert cov_rh(0.25, 0.5, 1.0) == pytest.approx(0.5, abs=1e-14)
    assert cov_rh(0.4, 0.2, 0.9) == pytest.approx(cov_rh(0.4, 0.9, 0.2), abs=1e-15)


def test_hurst_validation():
    for bad in (0.0, 1.0, -0.3, 1.5):
        with pytest.raises(ValueError):
            rho(bad, 1)


def test_grid_inner_closed_forms():
    H, n = 0.25, 4
    assert alpha(H, n, 0, 0) == pytest.approx(0.0, abs=1e-15)
    assert alpha(H, n, 1, 1) == pytest.approx((2.0**0.5 - 2.0) / (2.0 * 4.0**0.5), abs=1e-12)
    assert beta(H, n, 2, 2) == pytest.approx(n ** (-2.0 * H), abs=1e-14)
    # beta(k, j) = n^{-2H} rho(k - j) across the grid
    for k in range(n):
        for j in range(n):
            assert beta(H, n, k, j) == pytest.approx(
                n ** (-2.0 * H) * rho(H, k - j), abs=1e-13
            )
    # alpha(k, j) = eps_del(k/n, j)
    for k in range(n):
        for j in range(n):
            assert alpha(H, n, k, j) == pytest.approx(eps_del(H, n, k / n, j), abs=1e-14)


def test_eps_del_is_an_inner_product_of_the_covariance():
    # <eps_t, del_{k/n}> = R(t, (k+1)/n) - R(t, k/n)
    H, n = 0.35, 8
    for t in (0.0, 0.31, 0.75, 1.0):
        for k in range(n):
            direct = cov_rh(H, t, (k + 1) / n) - cov_rh(H, t, k / n)
            assert eps_del(H, n, t, k) == pytest.approx(direct, abs=1e-13)


def test_alpha_diag_matches_alpha():
    H, n = 0.2, 16
    ks = np.arange(n)
    np.testing.assert_allclose(
        np.asarray(alpha_diag(H, n, ks)),
        [alpha(H, n, k, k) for k in ks],
        atol=1e-15,
    )


def test_del_norm_closed_form():
    assert del_norm(0.3, 64) == pytest.approx(64.0**-0.3, abs=1e-15)


def test_grid_index_range_errors():
    with pytest.raises(ValueError, match="range"):
        alpha(0.3, 4, 4, 0)
    with pytest.raises(ValueError, match="range"):
        beta(0.3, 4, 0, -1)
    with pytest.raises(ValueError):
        eps_del(0.3, 4, 1.2, 0)


def test_rho_power_sums():
    assert abs_rho_power_sum(0.5, 2) == pytest.approx(1.0, abs=1e-12)
    assert signed_rho_power_sum(0.5, 3) == pytest.approx(1.0, abs=1e-12)
    # symmetric series with positive terms dominates the signed one
    assert abs_rho_power_sum(0.3, 2) >= signed_rho_power_sum(0.3, 2)
    with pytest.raises(ValueError, match="diverge"):
        signed_rho_power_sum(0.8, 2)  # 2H - 2 = -0.4 per factor: q(2-2H) < 1
    # tightening the tolerance must not move the value by more than it
    loose = signed_rho_power_sum(0.3, 2, tol=1e-8)
    tight = signed_rho_power_sum(0.3, 2, tol=1e-12)
    assert abs(loose - tight) <= 2e-8


# -- grids and batches ---------------------------------------------------------


def test_grid_validation_and_times():
    with pytest.raises(ValueError):
        FbmGrid(0.3, 0)
    with pytest.raises(ValueError):
        FbmGrid(1.2, 4)
    grid = FbmGrid(0.3, 4)
    np.testing.assert_allclose(grid.times, [0.0, 0.25, 0.5, 0.75, 1.0])


def test_increment_covariance_matrix():
    grid = FbmGrid(0.3, 6)
    cov = grid.increment_covariance()
    assert cov.shape == (6, 6)
    np.testing.assert_allclose(np.diag(cov), 6.0**-0.6 * np.ones(6), atol=1e-14)
    for k in range(6):
        for j in range(6):
            assert cov[k, j] == pytest.approx(beta(0.3, 6, k, j), abs=1e-14)


def test_embedding_spectrum_h_half_is_flat():
    spectrum = embedding_spectrum(FbmGrid(0.5, 4))
    np.testing.assert_allclose(spectrum, 0.25 * np.ones(8), atol=1e-12)


def test_embedding_spectrum_trace_identity():
    for H, n in ((0.3, 64), (0.45, 128), (0.7, 32)):
        spectrum = embedding_spectrum(FbmGrid(H, n))
        assert spectrum.shape == (2 * n,)
        assert spectrum.sum() == pytest.approx(2.0 * n ** (1.0 - 2.0 * H), rel=1e-10)


def test_embedding_spectrum_nonnegative_across_hurst_range():
    for H in (0.05, 0.1, 0.3, 0.5, 0.7, 0.9):
        for n in (16, 256, 1024):
            spectrum = embedding_spectrum(FbmGrid(H, n))
            assert spectrum.min() >= -1e-12 * spectrum.max(), (H, n)


def test_sample_paths_basic_shape_and_validation():
    grid = FbmGrid(0.3, 16)
    batch = sample_paths(grid, 5, seed=1)
    assert batch.paths.shape == (5, 17)
    assert batch.increments.shape == (5, 16)
    assert np.all(batch.paths[:, 0] == 0.0)
    assert batch.m == 5
    np.testing.assert_allclose(
        batch.levels_at_increment_start(), batch.paths[:, :-1], atol=0
    )


def test_sample_paths_empty_batch():
    batch = sample_paths(FbmGrid(0.4, 8), 0, seed=3)
    assert batch.m == 0
    assert batch.paths.shape == (0, 9)


def test_sample_paths_determinism_and_chunk_invariance():
    grid = FbmGrid(0.3, 32)
    full = sample_paths(grid, 8, seed=9, method="circulant")
    again = sample_paths(grid, 8, seed=9, method="circulant")
    np.testing.assert_array_equal(full.paths, again.paths)
    # path i does not depend on m
    head = sample_paths(grid, 5, seed=9, method="circulant")
    np.testing.assert_array_equal(head.paths, full.paths[:5])
    chol = sample_paths(grid, 4, seed=9, method="cholesky")
    chol_head = sample_paths(grid, 3, seed=9, method="cholesky")
    np.testing.assert_array_equal(chol_head.paths, chol.paths[:3])


@pytest.mark.parametrize("method", ["cholesky", "circulant"])
def test_stream_paths_concatenate_to_sample_paths(method):
    grid = FbmGrid(0.3, 16)
    m = 2 * PATH_CHUNK + 3
    batches = list(stream_paths(grid, m, 9, method))
    assert [b.m for b in batches] == [PATH_CHUNK, PATH_CHUNK, 3]
    assert all(b.method == method and b.seed == 9 for b in batches)
    whole = sample_paths(grid, m, 9, method)
    np.testing.assert_array_equal(np.concatenate([b.increments for b in batches]), whole.increments)
    np.testing.assert_array_equal(np.concatenate([b.paths for b in batches]), whole.paths)


def _count_calls(monkeypatch, module, name):
    calls = []
    original = getattr(module, name)

    def counting(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, counting)
    return calls


@pytest.mark.parametrize(
    ("method", "plan_step"), [("cholesky", "cholesky"), ("circulant", "embedding_spectrum")]
)
def test_stream_builds_one_plan(monkeypatch, method, plan_step):
    calls = _count_calls(monkeypatch, chaoslab.fbm, plan_step)
    m = 3 * PATH_CHUNK + 1
    assert sum(b.m for b in stream_paths(FbmGrid(0.3, 16), m, 2, method)) == m
    assert len(calls) == 1
    assert list(stream_paths(FbmGrid(0.3, 16), 0, 2, method)) == []
    assert len(calls) == 1  # m = 0 builds no plan


def test_stream_draws_each_rng_block_once(monkeypatch):
    philox = _count_calls(monkeypatch, chaoslab.rng.np.random, "Philox")
    # 4096 circulant paths are 2048 pair rows: four 512-row blocks
    assert sum(b.m for b in stream_paths(FbmGrid(0.3, 1024), 4096, 1, "circulant")) == 4096
    assert len(philox) == 4096 // 2 // chaoslab.rng.BLOCK_ROWS == 4


def test_sample_paths_method_validation():
    grid = FbmGrid(0.3, 8)
    with pytest.raises(ValueError):
        sample_paths(grid, 1, 0, method="spectral")
    with pytest.raises(ValueError):
        sample_paths(grid, -1, 0)
    with pytest.raises(ValueError, match="cholesky"):
        sample_paths(FbmGrid(0.3, 8192), 1, 0, method="cholesky")


def test_cholesky_reconstructs_covariance_exactly():
    # Cholesky factor L must satisfy L L^T = increment covariance to 1e-10
    for H in (0.2, 0.45, 0.7):
        grid = FbmGrid(H, 64)
        cov = grid.increment_covariance()
        L = np.linalg.cholesky(cov)
        np.testing.assert_allclose(L @ L.T, cov, atol=1e-10)


def test_monte_carlo_increment_covariance_h_half():
    grid = FbmGrid(0.5, 4)
    batch = sample_paths(grid, 40_000, seed=11, method="circulant")
    emp = batch.increments.T @ batch.increments / batch.m
    se = 0.25 * math.sqrt(2.0 / batch.m)  # var of a variance estimate ~ 2 sigma^4 / m
    np.testing.assert_allclose(emp, 0.25 * np.eye(4), atol=5 * se + 3e-3)


def test_methods_agree_statistically_on_lag_one_correlation():
    grid = FbmGrid(0.3, 64)
    rho_target = rho(0.3, 1)
    for method in ("cholesky", "circulant"):
        batch = sample_paths(grid, 8000, seed=13, method=method)
        x = batch.increments * 64.0**0.3
        emp = float(np.mean(x[:, :-1] * x[:, 1:]))
        assert emp == pytest.approx(rho_target, abs=4.0 / math.sqrt(8000 * 63))


def test_batch_rejects_bad_increment_shape():
    grid = FbmGrid(0.3, 4)
    with pytest.raises(ValueError):
        FbmPathBatch(grid, np.zeros((2, 5)), seed=0, method="synthetic")


@pytest.mark.parametrize("method", ["cholesky", "circulant"])
def test_levels_are_the_zero_padded_cumsum_of_increments(method):
    batch = sample_paths(FbmGrid(0.3, 16), 5, seed=4, method=method)
    assert np.all(batch.paths[:, 0] == 0.0)
    expected = np.concatenate([np.zeros((5, 1)), np.cumsum(batch.increments, axis=1)], axis=1)
    np.testing.assert_array_equal(batch.paths, expected)
    assert batch.paths is batch.paths  # summed once, then kept


# -- file format ---------------------------------------------------------------


def test_save_load_roundtrip(tmp_path):
    grid = FbmGrid(0.35, 16)
    batch = sample_paths(grid, 7, seed=21)
    target = tmp_path / "paths.fbm"
    save_paths(batch, target)
    back = load_paths(target)
    np.testing.assert_array_equal(back.paths, batch.paths)
    assert back.grid.hurst == pytest.approx(0.35)
    assert back.grid.n == 16
    assert back.seed == 21
    assert back.method == "file"
    np.testing.assert_array_equal(back.increments, np.diff(batch.paths, axis=1))


def test_load_rejects_bad_magic(tmp_path):
    bad = tmp_path / "x.fbm"
    bad.write_bytes(b"NOTMAGIC" + b"\x00" * 64)
    with pytest.raises(ValueError, match="FBMPATH1"):
        load_paths(bad)


def test_load_rejects_truncation(tmp_path):
    grid = FbmGrid(0.35, 8)
    batch = sample_paths(grid, 3, seed=2)
    target = tmp_path / "t.fbm"
    save_paths(batch, target)
    data = target.read_bytes()
    target.write_bytes(data[:-8])
    with pytest.raises(ValueError, match="length"):
        load_paths(target)


# -- the covariance-bound suite -------------------------------------------------


def test_bounds_suite_smoke():
    reports = bounds_suite(
        H_values=(0.2, 0.45),
        q_values=(2,),
        n_values=(8, 64, 512),
        seed=0,
        triples=2000,
    )
    assert all(r.passed for r in reports), [r.summary_line() for r in reports]
    # 3 H-level bounds + 2 q-indexed bounds per (H, q): 2 * (3 + 2) reports here
    assert len(reports) == 10
    kinds = {
        "fbm-increment-covariance-bound",
        "fbm-eps-del-pointwise-bound",
        "fbm-eps-del-row-sum-uniformity",
        "fbm-alpha-diagonal-moment",
        "fbm-beta-double-sum",
    }
    for r in reports:
        assert any(r.name.startswith(k) for k in kinds), r.name


def test_bounds_suite_deterministic():
    a = bounds_suite(H_values=(0.3,), q_values=(2,), n_values=(8, 64), triples=500)
    b = bounds_suite(H_values=(0.3,), q_values=(2,), n_values=(8, 64), triples=500)
    assert [r.statistic for r in a] == [r.statistic for r in b]
