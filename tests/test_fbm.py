"""Fractional Brownian motion: covariances, samplers, bound suite."""

import math
import sys
import threading
import tracemalloc

import numpy as np
import pytest

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
    map_paths,
    rho,
    sample_paths,
    signed_rho_power_sum,
)

from determinism import PINS, circulant_transforms, embedding_spectra, sha256


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
    for n in (4.5, 4.0, True, "4"):  # none is truncated or cast to a grid size
        with pytest.raises(ValueError, match=f"got {n!r}"):
            FbmGrid(0.3, n)
    grid = FbmGrid(0.3, np.int64(16))
    assert grid.n == 16 and type(grid.n) is int
    for H in ("0.3", True):  # float() would take both
        with pytest.raises(ValueError, match=f"got {H!r}"):
            FbmGrid(H, 4)
    # a numpy H is stored as a Python float, so no power of it rounds to float32
    for H in (np.float32(0.3), np.float64(0.3)):
        grid = FbmGrid(H, 16)
        assert type(grid.hurst) is float and grid.hurst == float(H)
    np.testing.assert_array_equal(
        embedding_spectrum(FbmGrid(np.float32(0.3), 16)),
        embedding_spectrum(FbmGrid(float(np.float32(0.3)), 16)),
    )


def test_increment_covariance_matrix():
    grid = FbmGrid(0.3, 6)
    cov = grid.increment_covariance()
    assert cov.shape == (6, 6)
    np.testing.assert_allclose(np.diag(cov), 6.0**-0.6 * np.ones(6), atol=1e-14)
    for k in range(6):
        for j in range(6):
            assert cov[k, j] == pytest.approx(_increment_cov(0.3, 6, k, j), abs=1e-14)
    # cov[i, j] is exactly first_row[|i - j|], down every diagonal
    for H, n in ((0.3, 1), (0.3, 2), (0.7, 5), (0.05, 64), (0.3, 777)):
        first_row = n ** (-2.0 * H) * np.asarray(rho(H, np.arange(n)))
        cov = FbmGrid(H, n).increment_covariance()
        assert cov.shape == (n, n) and cov.flags.c_contiguous and cov.flags.writeable
        for d in range(1 - n, n):
            assert (np.diagonal(cov, d) == first_row[abs(d)]).all(), (H, n, d)


def test_embedding_spectrum_h_half_is_flat():
    spectrum = embedding_spectrum(FbmGrid(0.5, 4))
    np.testing.assert_allclose(spectrum, 0.25 * np.ones(8), atol=1e-12)


def test_embedding_spectrum_trace_identity():
    for H, n in ((0.3, 64), (0.45, 128), (0.7, 32)):
        spectrum = embedding_spectrum(FbmGrid(H, n))
        assert spectrum.shape == (2 * n,)
        assert spectrum.sum() == pytest.approx(2.0 * n ** (1.0 - 2.0 * H), rel=1e-10)


# -- the circulant plan keeps the bits it had on scipy.fft ----------------------


@pytest.mark.parametrize("n", [1, 2, 7, 64, 513, 4096, 5000])
def test_embedding_spectrum_has_the_bits_of_the_complex_fft(n):
    spectra = embedding_spectra(n)
    for H, spectrum in spectra.items():
        assert spectrum.shape == (2 * n,) and (spectrum[1:] == spectrum[:0:-1]).all(), H
        # numpy's complex FFT of the embedding row agrees to rounding, not to the bit
        cov = n ** (-2.0 * H) * np.asarray(rho(H, np.arange(n + 1)))
        row = np.concatenate([cov, cov[-2:0:-1]])
        assert np.abs(spectrum - np.fft.fft(row).real).max() <= 1e-14 * np.abs(row).sum(), H
    assert sha256(*spectra.values()) == PINS[f"embedding_spectra({n})"].recorded


@pytest.mark.parametrize("n", [1, 3, 1000, 4096])
def test_circulant_transform_has_the_bits_of_the_scipy_transform(n):
    outs = circulant_transforms(n)
    heights = (chaoslab.rng.slab_rows(4 * n),) * 2 + (3,)
    assert [out.shape for out in outs] == [(2 * height, n) for height in heights * 2]
    assert sha256(*outs) == PINS[f"circulant_transforms({n})"].recorded


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


# the Hurst index at which a test runs each plan.  The white-noise plan keeps
# the RNG label "fgn-cholesky" of the diagonal Cholesky factor it replaced
PLAN_HURST = {"white-noise": 0.5, "circulant": 0.3}


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
        pytest.param("white-noise", 16, 256, id="white-noise-256"),
        # a white-noise row at n = 4096 holds 4096 normals, so its 1 MiB slab is 32 rows
        pytest.param("white-noise", 4096, 32, id="white-noise-n4096-32"),
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


@pytest.mark.parametrize("threads", ["1", "3"])
def test_map_paths_transforms_full_slabs_when_m_ends_mid_slab(monkeypatch, threads):
    # 1537 paths need one pair row of the last slab: the whole slab is
    # transformed, and the batch is cut to one path after the transform,
    # both serially and on a block pool that runs the last slab alongside others
    monkeypatch.setenv("CHAOSLAB_THREADS", threads)
    grid = FbmGrid(0.3, 16)
    batches = _collect(grid, 1537, 9)
    assert [b.m for b in batches] == [512, 512, 512, 1]
    whole = sample_paths(grid, 1537, 9)
    np.testing.assert_array_equal(np.concatenate([b.increments for b in batches]), whole.increments)
    assert sha256(whole.increments, whole.paths) == PINS["sample_paths(0.3, 16, 1537, 9)"].recorded


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


@pytest.mark.parametrize("plan", ["circulant", "white-noise"])
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
    ("plan", "plan_step"), [("circulant", "embedding_spectrum"), ("white-noise", "_sampler")]
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


@pytest.mark.parametrize("plan", ["white-noise", "circulant"])
def test_levels_are_the_zero_padded_cumsum_of_increments(plan):
    batch = sample_paths(FbmGrid(PLAN_HURST[plan], 16), 5, seed=4)
    assert np.all(batch.paths[:, 0] == 0.0)
    expected = np.concatenate([np.zeros((5, 1)), np.cumsum(batch.increments, axis=1)], axis=1)
    np.testing.assert_array_equal(batch.paths, expected)
    assert batch.paths is batch.paths  # summed once, then kept


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
