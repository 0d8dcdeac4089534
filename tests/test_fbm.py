"""Fractional Brownian motion: covariances, samplers, file format, bound suite."""

import hashlib
import math
import os
import subprocess
import sys
import threading
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
import scipy.fft
import scipy.linalg

import chaoslab.fbm
import chaoslab.rng
from chaoslab.fbm import (
    FbmGrid,
    FbmPathBatch,
    abs_rho_power_sum,
    alpha_diag,
    bounds_suite,
    cov_rh,
    del_norm,
    embedding_spectrum,
    eps_del,
    load_paths,
    map_paths,
    rho,
    sample_paths,
    save_paths,
    signed_rho_power_sum,
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


def _increment_cov(H, n, k, j):
    # E[(B_{(k+1)/n} - B_{k/n})(B_{(j+1)/n} - B_{j/n})] from the path covariance
    a, b, c, d = k / n, (k + 1) / n, j / n, (j + 1) / n
    return cov_rh(H, b, d) - cov_rh(H, b, c) - cov_rh(H, a, d) + cov_rh(H, a, c)


def test_grid_inner_closed_forms():
    H, n = 0.25, 4
    assert eps_del(H, n, 0 / n, 0) == pytest.approx(0.0, abs=1e-15)
    assert eps_del(H, n, 1 / n, 1) == pytest.approx((2.0**0.5 - 2.0) / (2.0 * 4.0**0.5), abs=1e-12)
    assert alpha_diag(H, n, 1) == pytest.approx((2.0**0.5 - 2.0) / (2.0 * 4.0**0.5), abs=1e-12)
    # <del_{k/n}, del_{j/n}> = n^{-2H} rho(k - j) across the grid
    for k in range(n):
        for j in range(n):
            assert n ** (-2.0 * H) * rho(H, k - j) == pytest.approx(
                _increment_cov(H, n, k, j), abs=1e-13
            )


def test_eps_del_is_an_inner_product_of_the_covariance():
    # <eps_t, del_{k/n}> = R(t, (k+1)/n) - R(t, k/n)
    H, n = 0.35, 8
    for t in (0.0, 0.31, 0.75, 1.0):
        for k in range(n):
            direct = cov_rh(H, t, (k + 1) / n) - cov_rh(H, t, k / n)
            assert eps_del(H, n, t, k) == pytest.approx(direct, abs=1e-13)


def test_alpha_diag_matches_alpha():
    # alpha_{k,k} = <eps_{k/n}, del_{k/n}>
    H, n = 0.2, 16
    ks = np.arange(n)
    np.testing.assert_allclose(
        np.asarray(alpha_diag(H, n, ks)),
        [eps_del(H, n, k / n, k) for k in ks],
        atol=1e-15,
    )


def test_del_norm_closed_form():
    assert del_norm(0.3, 64) == pytest.approx(64.0**-0.3, abs=1e-15)


def test_grid_index_range_errors():
    with pytest.raises(ValueError, match="range"):
        alpha_diag(0.3, 4, 4)
    with pytest.raises(ValueError, match="range"):
        eps_del(0.3, 4, 0.5, -1)
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


# float reprs of (signed, absolute) rho^q series at tol 1e-10, recorded while
# each lag raised its own three powers: perfbench's sigma points, and q = 3
# at H = 0.3, where rho changes sign and the two series differ
RHO_SERIES_PINS = {
    (2, 0.3): ("1.1251955053270797", "1.1251955053270797"),
    (2, 0.4): ("1.038803020130259", "1.038803020130259"),
    (2, 0.47): ("1.0042345141748998", "1.0042345141748998"),
    (3, 0.5): ("1.0", "1.0"),
    (3, 0.62): ("1.014939104322052", "1.014939104322052"),
    (4, 0.7): ("1.0258136324829423", "1.0258136324829423"),
    (3, 0.3): ("0.9713107840154244", "1.0286892159845755"),
}


@pytest.mark.parametrize("threads", ["1", "3"])
def test_rho_power_sums_bits_pinned_at_any_thread_count(monkeypatch, threads):
    monkeypatch.setenv("CHAOSLAB_THREADS", threads)
    for (q, H), pinned in RHO_SERIES_PINS.items():
        values = (signed_rho_power_sum(H, q, 1e-10), abs_rho_power_sum(H, q, 1e-10))
        assert tuple(repr(v) for v in values) == pinned, (q, H)


@pytest.mark.parametrize("exponent", [2, 3, 0.5, 2 * 0.47, 1.4])
def test_raise_in_place_matches_the_power_operator_bit_for_bit(exponent):
    # numpy's ** picks square for the int 2 and sqrt for the float 0.5; the
    # series leaves raise in place with the same choice
    x = np.random.default_rng(3).uniform(-2.0, 2.0, 5 * 2**16 + 7)
    if isinstance(exponent, float):
        x = np.abs(x)
    expected = x**exponent
    chaoslab.fbm._raise_in_place(x, exponent)
    assert x.tobytes() == expected.tobytes()


@pytest.mark.parametrize("n", [1, 8, 100, 128, 129, 1000, 2**16, 2**16 + 8, 3 * 2**17 + 5, 2**22])
def test_pairwise_fold_of_leaf_sums_is_np_sum_bit_for_bit(n):
    # the series folds its leaf sums along numpy's pairwise-summation tree; a
    # numpy release that sums differently fails here, not only in the pins
    gen = np.random.default_rng(n)
    x = gen.standard_normal(n) * 10.0 ** gen.uniform(-8.0, 8.0, n)  # magnitudes that round
    for leaf in (16, 200, 1000, 2**16):
        leaves = chaoslab.fbm._pairwise_leaves(0, n, leaf)
        assert [lo for lo, _ in leaves[1:]] == [hi for _, hi in leaves[:-1]]
        assert max(hi - lo for lo, hi in leaves) <= max(leaf, 128)
        sums = {(lo, hi): float(np.sum(x[lo:hi])) for lo, hi in leaves}
        assert chaoslab.fbm._pairwise_fold(0, n, sums).hex() == float(np.sum(x)).hex(), leaf


@pytest.mark.parametrize("signed", [True, False])
def test_rho_power_series_matches_the_chunked_rho_loop(monkeypatch, signed):
    # short chunks that do not divide R = 1024 (the shortest truncation, taken
    # at this tolerance), each cut into leaves on three threads
    monkeypatch.setattr(chaoslab.fbm, "SERIES_CHUNK", 100)
    monkeypatch.setattr(chaoslab.fbm, "SERIES_LEAF", 16)
    monkeypatch.setenv("CHAOSLAB_THREADS", "3")
    H, q = 0.3, 3
    total = 0.0
    for lo in range(1, 1025, 100):
        powers = rho(H, np.arange(lo, min(lo + 100, 1025))) ** q
        total += float(np.sum(powers if signed else np.abs(powers)))
    expected = 1.0 + 2.0 * total
    series = signed_rho_power_sum if signed else abs_rho_power_sum
    assert series(H, q, 1e-6).hex() == expected.hex()


def test_rho_power_sum_peak_memory_is_a_few_leaves(monkeypatch):
    # each running leaf holds its powers and its terms, SERIES_LEAF doubles each
    threads = 3
    monkeypatch.setenv("CHAOSLAB_THREADS", str(threads))
    tracemalloc.start()
    try:
        signed_rho_power_sum(0.47, 2, 1e-10)  # two chunks of lags
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= threads * 16 * chaoslab.fbm.SERIES_LEAF + 2**20


# -- grids and batches ---------------------------------------------------------


def test_grid_validation():
    with pytest.raises(ValueError):
        FbmGrid(0.3, 0)
    with pytest.raises(ValueError):
        FbmGrid(1.2, 4)


def test_increment_covariance_matrix():
    grid = FbmGrid(0.3, 6)
    cov = grid.increment_covariance()
    assert cov.shape == (6, 6)
    np.testing.assert_allclose(np.diag(cov), 6.0**-0.6 * np.ones(6), atol=1e-14)
    for k in range(6):
        for j in range(6):
            assert cov[k, j] == pytest.approx(_increment_cov(0.3, 6, k, j), abs=1e-14)


def test_embedding_spectrum_h_half_is_flat():
    spectrum = embedding_spectrum(FbmGrid(0.5, 4))
    np.testing.assert_allclose(spectrum, 0.25 * np.ones(8), atol=1e-12)


def test_embedding_spectrum_trace_identity():
    for H, n in ((0.3, 64), (0.45, 128), (0.7, 32)):
        spectrum = embedding_spectrum(FbmGrid(H, n))
        assert spectrum.shape == (2 * n,)
        assert spectrum.sum() == pytest.approx(2.0 * n ** (1.0 - 2.0 * H), rel=1e-10)


# -- numpy.fft and the sliding-window Toeplitz give scipy's bits -----------------


def _embedding_row(grid):
    n = grid.n
    cov = n ** (-2.0 * grid.hurst) * np.asarray(rho(grid.hurst, np.arange(n + 1)))
    return np.concatenate([cov[:n], cov[n:], cov[n - 1 : 0 : -1]])


def _same_bits(a, b):
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


@pytest.mark.parametrize("n", [1, 2, 7, 64, 513, 4096, 5000])
def test_embedding_spectrum_has_the_bits_of_the_complex_fft(n):
    for H in (0.05, 0.3, 0.5, 0.8, 0.99):
        grid = FbmGrid(H, n)
        assert _same_bits(embedding_spectrum(grid), np.real(scipy.fft.fft(_embedding_row(grid)))), H


@pytest.mark.parametrize("n", [1, 2, 5, 64, 777])
def test_toeplitz_rows_copy_is_scipys_toeplitz(n):
    first_row = np.random.default_rng(n).standard_normal(n)
    rows = chaoslab.fbm.toeplitz_rows(first_row)
    assert not rows.flags.writeable
    dense = rows.copy()
    assert dense.flags.c_contiguous
    assert _same_bits(dense, scipy.linalg.toeplitz(first_row))
    grid = FbmGrid(0.3, n)
    first_cov = n ** -0.6 * np.asarray(rho(0.3, np.arange(n)))
    assert _same_bits(grid.increment_covariance(), scipy.linalg.toeplitz(first_cov))


def _scipy_circulant_transform(grid, raw):
    """The circulant transform as it ran on scipy.fft: the spectrum from the
    full complex FFT, and ``scipy.fft.ifft(..., workers=1, overwrite_x=True)``."""
    n = grid.n
    M = 2 * n
    lam = np.real(scipy.fft.fft(_embedding_row(grid)))
    weights = np.sqrt(np.clip(lam, 0.0, None) / M)
    z = np.empty((len(raw), M), dtype=complex)
    z.real = raw[:, :M]
    z.imag = raw[:, M:]
    z *= weights
    z = scipy.fft.ifft(z, axis=1, workers=1, overwrite_x=True)
    z *= M
    pairs = np.empty((len(raw), 2, n))
    pairs[:, 0] = z.real[:, :n]
    pairs[:, 1] = z.imag[:, :n]
    return pairs.reshape(2 * len(raw), n)


@pytest.mark.parametrize("n", [1, 3, 1000, 4096])
def test_circulant_transform_has_the_bits_of_the_scipy_transform(n):
    rng_local = np.random.default_rng(n)
    for H in (0.3, 0.8):
        grid = FbmGrid(H, n)
        transform = chaoslab.fbm._circulant(grid).transform
        # two full slabs through the same per-thread buffer, then a short one
        for height in (chaoslab.rng.slab_rows(4 * n),) * 2 + (3,):
            raw = rng_local.standard_normal((height, 4 * n))
            assert _same_bits(transform(raw), _scipy_circulant_transform(grid, raw)), (H, height)


_BLAS_PROBE = """
import hashlib
from chaoslab.fbm import FbmGrid, sample_paths
from chaoslab.limits import brownian_example_run

fbm = hashlib.sha256()
for n in (3, 64, 1000):
    for H in (0.1, 0.5, 0.8):
        fbm.update(sample_paths(FbmGrid(H, n), 301, 9).increments.tobytes())
_, arrays = brownian_example_run(16, 64, 5, resolution=2048)
brownian = hashlib.sha256(b"".join(column.tobytes() for column in arrays.values()))
print(fbm.hexdigest(), brownian.hexdigest())
"""


def test_circulant_and_brownian_bits_do_not_depend_on_the_blas_thread_count():
    # no sampled bit passes through a BLAS call: the circulant plan runs FFTs,
    # the white-noise plan of H = 1/2 scales elementwise, and the Brownian
    # example draws its normals directly
    src = str(Path(chaoslab.fbm.__file__).resolve().parents[1])
    pythonpath = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    digests = set()
    for threads in ("1", "2"):
        env = {**os.environ, "PYTHONPATH": pythonpath, "CHAOSLAB_THREADS": "2",
               "OPENBLAS_NUM_THREADS": threads, "OMP_NUM_THREADS": threads}
        done = subprocess.run([sys.executable, "-c", _BLAS_PROBE], env=env,
                              capture_output=True, text=True, timeout=300)
        assert done.returncode == 0, done.stderr[-2000:]
        digests.add(done.stdout.strip())
    assert len(digests) == 1, digests


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
    with pytest.raises(ValueError, match="non-negative"):
        sample_paths(FbmGrid(0.4, 8), -1, seed=3)


def test_sample_paths_determinism_and_chunk_invariance():
    grid = FbmGrid(0.3, 32)
    full = sample_paths(grid, 8, seed=9)
    again = sample_paths(grid, 8, seed=9)
    np.testing.assert_array_equal(full.paths, again.paths)
    # path i does not depend on m
    head = sample_paths(grid, 5, seed=9)
    np.testing.assert_array_equal(head.paths, full.paths[:5])
    white = sample_paths(FbmGrid(0.5, 32), 4, seed=9)
    white_head = sample_paths(FbmGrid(0.5, 32), 3, seed=9)
    np.testing.assert_array_equal(white_head.paths, white.paths[:3])


# the Hurst index at which a test runs each plan.  The white-noise plan is
# named "cholesky-diagonal" in test ids: it scales by the diagonal Cholesky
# factor of the covariance, and keeps that plan's RNG label "fgn-cholesky"
PLAN_HURST = {"cholesky-diagonal": 0.5, "circulant": 0.3}


@pytest.mark.parametrize(
    ("H", "n", "plan"),
    [(0.5, n, "fgn-cholesky") for n in (1, 16, 512, 513, 4096)]
    + [(0.3, 1, "fgn-cholesky")]
    + [
        (H, n, "fgn-circulant")
        # the floats next to 1/2 too: the plan tests rho at lag 1 alone
        for H in (0.05, 0.3, 0.49, np.nextafter(0.5, 0.0), np.nextafter(0.5, 1.0), 0.51, 0.7, 0.95)
        for n in (2, 16, 512, 513, 4096)
    ],
)
def test_white_noise_plan_exactly_where_rho_vanishes_off_lag_zero(H, n, plan):
    vanishes = not np.asarray(rho(H, np.arange(n)))[1:].any()
    assert vanishes == (plan == "fgn-cholesky")
    assert chaoslab.fbm._sampler(FbmGrid(H, n)).label == plan


def test_circulant_plan_raises_on_a_clearly_negative_embedding_eigenvalue(monkeypatch):
    # the spectrum is non-negative at every H, so only a spectrum changed on
    # purpose reaches the check; a dip within EIGENVALUE_CLIP is clipped to 0
    grid = FbmGrid(0.3, 16)
    spectrum = embedding_spectrum(grid)
    monkeypatch.setattr(chaoslab.fbm, "embedding_spectrum", lambda grid: spectrum)
    spectrum[3] = -0.5 * chaoslab.fbm.EIGENVALUE_CLIP * spectrum.max()
    assert chaoslab.fbm._sampler(grid).label == "fgn-circulant"
    spectrum[3] = -2.0 * chaoslab.fbm.EIGENVALUE_CLIP * spectrum.max()
    with pytest.raises(ValueError, match="circulant embedding failed"):
        chaoslab.fbm._sampler(grid)


def _collect(grid, m, seed):
    """The batches map_paths hands over, keyed by their first path."""
    batches = {}
    lock = threading.Lock()

    def consume(start, batch):
        with lock:
            batches[start] = batch

    map_paths(grid, m, seed, consume)
    return [batches[start] for start in sorted(batches)]


@pytest.mark.parametrize("threads", ["1", "3"])
@pytest.mark.parametrize(
    ("plan", "n", "slab_paths"),
    [
        pytest.param("cholesky-diagonal", 16, 256, id="cholesky-diagonal-256"),
        # a white-noise row at n = 4096 holds 4096 normals, so its 1 MiB slab is 32 rows
        pytest.param("cholesky-diagonal", 4096, 32, id="cholesky-diagonal-n4096-32"),
        pytest.param("circulant", 16, 512, id="circulant-512"),
        # a circulant row at n = 4096 holds 16384 normals, so its 1 MiB slab is 8 rows
        pytest.param("circulant", 4096, 16, id="circulant-n4096-16"),
    ],
)
def test_map_paths_concatenate_to_sample_paths(monkeypatch, threads, plan, n, slab_paths):
    # at "3" the pool may outnumber the cores; a short switch interval interleaves blocks
    monkeypatch.setenv("CHAOSLAB_THREADS", threads)
    grid = FbmGrid(PLAN_HURST[plan], n)
    m = 4 * slab_paths + 3
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        batches = _collect(grid, m, 9)
    finally:
        sys.setswitchinterval(interval)
    assert [b.m for b in batches] == [slab_paths] * 4 + [3]
    assert all(b.seed == 9 for b in batches)
    whole = sample_paths(grid, m, 9)
    np.testing.assert_array_equal(np.concatenate([b.increments for b in batches]), whole.increments)
    np.testing.assert_array_equal(np.concatenate([b.paths for b in batches]), whole.paths)


def _digest(batch):
    return hashlib.sha256(batch.increments.tobytes() + batch.paths.tobytes()).hexdigest()


# sha256 of sample_paths(FbmGrid(0.3, 16), 1537, 9) increments then levels,
# recorded while the circulant plan was still chosen there by name
CIRCULANT_16_1537 = "b438ca11f8cf3ebb8d2c9335c47c593f329437f3c1bc3570afa50da7f20101d1"


@pytest.mark.parametrize("threads", ["1", "3"])
def test_map_paths_transforms_full_slabs_when_m_ends_mid_slab(monkeypatch, threads):
    # 1537 paths need one pair row of the last slab: the whole slab is
    # transformed, and the batch is cut to one path after the transform
    monkeypatch.setenv("CHAOSLAB_THREADS", threads)
    grid = FbmGrid(0.3, 16)
    batches = _collect(grid, 1537, 9)
    assert [b.m for b in batches] == [512, 512, 512, 1]
    whole = sample_paths(grid, 1537, 9)
    np.testing.assert_array_equal(np.concatenate([b.increments for b in batches]), whole.increments)
    assert _digest(whole) == CIRCULANT_16_1537


# sha256 of increments then levels at H = 0.3, and the plan that samples them;
# recorded while every slab was 256 rows
SLAB_PINS = {
    (4096, 1029, "circulant"): "839bfa91b9a1717fbd7eabb6add9c111a1db8986d2b11133311466e24cfefa81",
}


@pytest.mark.parametrize("threads", ["1", "3"])
@pytest.mark.parametrize(("n", "m", "plan"), sorted(SLAB_PINS))
def test_sample_paths_bits_survive_byte_sized_slabs(monkeypatch, threads, n, m, plan):
    monkeypatch.setenv("CHAOSLAB_THREADS", threads)
    grid = FbmGrid(0.3, n)
    assert chaoslab.fbm._sampler(grid).label == f"fgn-{plan}"
    assert _digest(sample_paths(grid, m, 9)) == SLAB_PINS[n, m, plan]


# sha256 of sample_paths(FbmGrid(H, n), 769, 9) increments then levels,
# recorded while a diagonal Cholesky factor still went through a one-thread
# GEMM; the white-noise plan's elementwise scale keeps them.  At n = 1 every
# H gives N(0, 1) * 1, so (0.3, 1) and (0.5, 1) agree
CHOLESKY_DIAGONAL_PINS = {
    (0.5, 1): "b4c6e7ca84e18202ff9f99139b12e777b4d24d9fb847b0c163694c4b1427ed30",
    (0.5, 64): "220cde2137bcfe822a8457231553ed1d8db7b6a25672ddcc438fb8e3e0c7f02c",
    (0.5, 512): "e6574036597bbaaca8f66aa7cc54bbb6266fe4b01d4a8888c044b361d769f5ec",
    (0.3, 1): "b4c6e7ca84e18202ff9f99139b12e777b4d24d9fb847b0c163694c4b1427ed30",
}


@pytest.mark.parametrize("threads", ["1", "3"])
@pytest.mark.parametrize(("H", "n"), sorted(CHOLESKY_DIAGONAL_PINS))
def test_diagonal_cholesky_scale_has_the_gemm_bits(monkeypatch, threads, H, n):
    monkeypatch.setenv("CHAOSLAB_THREADS", threads)
    digest = _digest(sample_paths(FbmGrid(H, n), 769, 9))
    assert digest == CHOLESKY_DIAGONAL_PINS[H, n]


def test_circulant_stream_peak_memory_is_a_few_slabs(monkeypatch):
    # 256-row slabs of 16384 normals made this 288 MiB: 32 MB slabs and their temporaries
    monkeypatch.setenv("CHAOSLAB_THREADS", "2")
    tracemalloc.start()
    try:
        map_paths(FbmGrid(0.3, 4096), 2048, 1, lambda start, batch: None)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20


def test_map_paths_propagates_consumer_errors(monkeypatch):
    monkeypatch.setenv("CHAOSLAB_THREADS", "2")

    def consume(start, batch):
        if start == 1024:
            raise RuntimeError("bad batch")

    with pytest.raises(RuntimeError, match="bad batch"):
        map_paths(FbmGrid(0.3, 16), 4096, 1, consume)


@pytest.mark.parametrize("plan", ["circulant", "cholesky-diagonal"])
def test_map_paths_consumer_owns_and_may_overwrite_each_batch(monkeypatch, plan):
    # a consumer may scale increments in place: no batch may share memory with
    # another batch or with a buffer that a later slab reads or fills
    monkeypatch.setenv("CHAOSLAB_THREADS", "3")
    grid = FbmGrid(PLAN_HURST[plan], 16)
    m = 4 * 512 + 3
    recorded, held = {}, []
    lock = threading.Lock()

    def consume(start, batch):
        with lock:
            recorded[start] = batch.increments.copy()
            held.append(batch.increments)
        batch.increments[...] = np.nan

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        map_paths(grid, m, 9, consume)
    finally:
        sys.setswitchinterval(interval)
    rows = np.concatenate([recorded[start] for start in sorted(recorded)])
    np.testing.assert_array_equal(rows, sample_paths(grid, m, 9).increments)
    assert not any(np.may_share_memory(a, b) for i, a in enumerate(held) for b in held[:i])


def _count_calls(monkeypatch, module, name):
    calls = []
    original = getattr(module, name)

    def counting(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, counting)
    return calls


@pytest.mark.parametrize(
    ("plan", "plan_step"), [("circulant", "embedding_spectrum"), ("cholesky-diagonal", "_sampler")]
)
def test_map_paths_builds_one_plan(monkeypatch, plan, plan_step):
    calls = _count_calls(monkeypatch, chaoslab.fbm, plan_step)
    grid = FbmGrid(PLAN_HURST[plan], 16)
    m = 3 * 2048 + 1
    assert sum(b.m for b in _collect(grid, m, 2)) == m
    assert len(calls) == 1
    assert _collect(grid, 0, 2) == []
    assert len(calls) == 1  # m = 0 builds no plan


def test_map_paths_draws_each_rng_block_once(monkeypatch):
    philox = _count_calls(monkeypatch, chaoslab.rng.np.random, "Philox")
    # 4096 circulant paths are 2048 pair rows: four 512-row blocks
    assert sum(b.m for b in _collect(FbmGrid(0.3, 1024), 4096, 1)) == 4096
    assert len(philox) == 4096 // 2 // chaoslab.rng.BLOCK_ROWS == 4


@pytest.mark.parametrize("plan", [pytest.param(plan, id=f"{plan}-3") for plan in PLAN_HURST])
def test_map_paths_pool_size_is_a_property_of_the_plan(monkeypatch, plan):
    # neither transform calls the BLAS, so every plan gets the whole pool
    monkeypatch.setenv("CHAOSLAB_THREADS", "3")
    pools = []

    class RecordingPool(chaoslab.rng.ThreadPoolExecutor):
        def __init__(self, max_workers):
            pools.append(max_workers)
            super().__init__(max_workers)

    monkeypatch.setattr(chaoslab.rng, "ThreadPoolExecutor", RecordingPool)
    map_paths(FbmGrid(PLAN_HURST[plan], 16), 4 * 2048, 1, lambda start, batch: None)
    assert pools == [3]


def _circulant_maps(grid):
    """The transposes of the circulant transform's two n x 4n maps A0, A1 from a
    raw row to its even and odd path, fed the 4n unit rows one slab at a time."""
    n = grid.n
    transform = chaoslab.fbm._circulant(grid).transform
    height = chaoslab.rng.slab_rows(4 * n)
    maps = np.empty((2, 4 * n, n))
    for lo in range(0, 4 * n, height):
        out = transform(np.eye(height, 4 * n, lo)[: 4 * n - lo])
        maps[0, lo : lo + height] = out[0::2]
        maps[1, lo : lo + height] = out[1::2]
    return maps


@pytest.mark.parametrize("n", [1, 2, 3, 16, 100, 513, 1024])
def test_circulant_transform_has_the_exact_increment_covariance(n):
    # the transform is linear, so its unit-row images give the covariance exactly
    for H in (0.05, 0.3, 0.5, 0.7, 0.95):
        grid = FbmGrid(H, n)
        target = grid.increment_covariance()
        scale = np.abs(target).max()
        a0t, a1t = _circulant_maps(grid)
        assert np.abs(a0t.T @ a0t - target).max() <= 1e-12 * scale
        assert np.abs(a1t.T @ a1t - target).max() <= 1e-12 * scale
        assert np.abs(a0t.T @ a1t).max() <= 1e-12 * scale


def test_cholesky_reconstructs_covariance_exactly():
    # Cholesky factor L must satisfy L L^T = increment covariance to 1e-10
    for H in (0.2, 0.45, 0.7):
        grid = FbmGrid(H, 64)
        cov = grid.increment_covariance()
        L = np.linalg.cholesky(cov)
        np.testing.assert_allclose(L @ L.T, cov, atol=1e-10)


def test_monte_carlo_increment_covariance_h_half():
    grid = FbmGrid(0.5, 4)
    batch = sample_paths(grid, 40_000, seed=11)
    emp = batch.increments.T @ batch.increments / batch.m
    se = 0.25 * math.sqrt(2.0 / batch.m)  # var of a variance estimate ~ 2 sigma^4 / m
    np.testing.assert_allclose(emp, 0.25 * np.eye(4), atol=5 * se + 3e-3)


def test_batch_rejects_bad_increment_shape():
    grid = FbmGrid(0.3, 4)
    with pytest.raises(ValueError):
        FbmPathBatch(grid, np.zeros((2, 5)), seed=0)


@pytest.mark.parametrize("plan", ["cholesky-diagonal", "circulant"])
def test_levels_are_the_zero_padded_cumsum_of_increments(plan):
    batch = sample_paths(FbmGrid(PLAN_HURST[plan], 16), 5, seed=4)
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
    reports = bounds_suite(seed=0)
    assert all(r.passed for r in reports), [r.summary_line() for r in reports]
    # 3 H-level bounds per H + 2 q-indexed bounds per (H, q): 5 * 3 + 5 * 2 * 2
    assert len(reports) == 35
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
    a = bounds_suite(seed=3)
    b = bounds_suite(seed=3)
    assert [r.statistic for r in a] == [r.statistic for r in b]
