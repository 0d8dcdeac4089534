"""Counter-based RNG: determinism, slot addressing, and stream derivation."""

import sys
import threading

import numpy as np
import pytest

from chaoslab import rng
from chaoslab.rng import SLAB_ROWS, derive_seed, map_slabs, normal_rows, worker_count


def test_rows_are_deterministic():
    a = normal_rows(123, 0, 50, 16)
    b = normal_rows(123, 0, 50, 16)
    np.testing.assert_array_equal(a, b)
    assert a.shape == (50, 16)


def test_row_depends_only_on_seed_and_index():
    # row 37 of a batch starting at 0 equals a single-row batch starting at 37
    big = normal_rows(9, 0, 100, 8)
    single = normal_rows(9, 37, 1, 8)
    np.testing.assert_array_equal(big[37], single[0])


def test_batches_tile_consistently_across_block_boundaries():
    # the generator blocks rows internally; spans crossing the block edge must agree
    edge = 512
    whole = normal_rows(4, edge - 3, 6, 5)
    for offset in range(6):
        row = normal_rows(4, edge - 3 + offset, 1, 5)
        np.testing.assert_array_equal(whole[offset], row[0])


def test_row_length_is_part_of_the_address():
    # a row is "row i of an infinite matrix with row_len columns": changing
    # row_len re-addresses every row past the first
    short = normal_rows(2, 1, 1, 4)
    long = normal_rows(2, 1, 1, 8)
    assert not np.array_equal(short[0], long[0, :4])


def test_different_seeds_differ():
    assert not np.array_equal(normal_rows(1, 0, 4, 8), normal_rows(2, 0, 4, 8))


def test_zero_rows_allowed():
    out = normal_rows(5, 0, 0, 8)
    assert out.shape == (0, 8)


def test_derive_seed_stable_and_label_sensitive():
    s1 = derive_seed(42, "fgn-circulant")
    s2 = derive_seed(42, "fgn-circulant")
    s3 = derive_seed(42, "mixture-z")
    s4 = derive_seed(43, "fgn-circulant")
    assert s1 == s2
    assert s1 != s3
    assert s1 != s4
    assert 0 <= s1 < 2**64


def test_worker_count_env_override(monkeypatch):
    monkeypatch.setenv("CHAOSLAB_THREADS", "3")
    assert worker_count() == 3
    for bad in ("not-a-number", "0", "-3"):
        monkeypatch.setenv("CHAOSLAB_THREADS", bad)
        with pytest.raises(ValueError, match="CHAOSLAB_THREADS"):
            worker_count()
    monkeypatch.delenv("CHAOSLAB_THREADS")
    assert worker_count() >= 1


def test_marginals_are_standard_normal():
    x = normal_rows(7, 0, 200, 500).ravel()
    n = x.size
    assert abs(x.mean()) < 4.0 / np.sqrt(n)
    assert abs(x.var() - 1.0) < 4.0 * np.sqrt(2.0 / n)
    # lag-1 serial correlation within the same row ordering
    corr = float(np.corrcoef(x[:-1], x[1:])[0, 1])
    assert abs(corr) < 4.0 / np.sqrt(n)


@pytest.mark.parametrize("threads", ["1", "3"])
@pytest.mark.parametrize("rows", [1, 255, 256, 700, 1024])
def test_map_slabs_delivers_each_row_once_as_normal_rows(monkeypatch, threads, rows):
    # at "3" the pool may outnumber the cores; a short switch interval interleaves blocks
    monkeypatch.setenv("CHAOSLAB_THREADS", threads)
    row_len = 3
    delivered = np.zeros(rows, dtype=int)
    seen = []
    lock = threading.Lock()

    def consume(start, slab):
        assert slab.shape[1] == row_len and 0 < len(slab) <= SLAB_ROWS
        with lock:
            delivered[start : start + len(slab)] += 1
            seen.append((start, slab.copy()))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        map_slabs(11, row_len, rows, consume)
    finally:
        sys.setswitchinterval(interval)
    np.testing.assert_array_equal(delivered, 1)
    for start, slab in seen:
        np.testing.assert_array_equal(slab, normal_rows(11, start, len(slab), row_len))


def test_map_slabs_propagates_consumer_errors(monkeypatch):
    monkeypatch.setenv("CHAOSLAB_THREADS", "2")

    def consume(start, slab):
        if start == 512:
            raise RuntimeError("bad slab")

    with pytest.raises(RuntimeError, match="bad slab"):
        map_slabs(1, 4, 2048, consume)


def test_map_slabs_pool_is_capped_by_block_count(monkeypatch):
    monkeypatch.setenv("CHAOSLAB_THREADS", "16")
    pools = []

    class RecordingPool(rng.ThreadPoolExecutor):
        def __init__(self, max_workers):
            pools.append(max_workers)
            super().__init__(max_workers)

    monkeypatch.setattr(rng, "ThreadPoolExecutor", RecordingPool)
    before = threading.active_count()
    counts = []
    map_slabs(2, 4, 2 * rng.BLOCK_ROWS, lambda start, slab: counts.append(threading.active_count()))
    assert pools == [2]
    assert len(counts) == 4
    assert max(counts) - before <= 2


def test_map_slabs_zero_rows_builds_no_generator(monkeypatch):
    built = []
    philox = np.random.Philox

    def counting_philox(*args, **kwargs):
        built.append(kwargs.get("counter"))
        return philox(*args, **kwargs)

    monkeypatch.setattr(np.random, "Philox", counting_philox)
    delivered = []
    map_slabs(3, 8, 0, lambda start, slab: delivered.append(start))
    assert built == [] and delivered == []
    map_slabs(3, 8, 1, lambda start, slab: delivered.append(start))
    assert len(built) == 1 and delivered == [0]


def test_map_slabs_draws_each_block_into_one_buffer(monkeypatch):
    monkeypatch.setenv("CHAOSLAB_THREADS", "2")
    addresses = {}
    lock = threading.Lock()

    def consume(start, slab):
        with lock:
            addresses[start] = slab.__array_interface__["data"][0]

    map_slabs(4, 8, 2 * rng.BLOCK_ROWS, consume)
    assert addresses[0] == addresses[SLAB_ROWS]
    assert addresses[rng.BLOCK_ROWS] == addresses[rng.BLOCK_ROWS + SLAB_ROWS]


def test_slab_rows_is_the_tallest_power_of_two_within_slab_bytes():
    assert rng.slab_rows(1) == SLAB_ROWS
    assert rng.slab_rows(rng.SLAB_BYTES // (8 * SLAB_ROWS)) == SLAB_ROWS
    assert rng.slab_rows(rng.SLAB_BYTES // (8 * SLAB_ROWS) + 1) == SLAB_ROWS // 2
    assert rng.slab_rows(4 * 4096) == 8  # a circulant row at n = 4096
    assert rng.slab_rows(rng.SLAB_BYTES) == 1  # one row larger than a slab
    for row_len in (3, 1000, 5000, 8194, 1 << 17):
        assert rng.BLOCK_ROWS % rng.slab_rows(row_len) == 0


@pytest.mark.parametrize("threads", ["1", "3"])
def test_map_slabs_numbers_do_not_depend_on_the_slab_height(monkeypatch, threads):
    monkeypatch.setenv("CHAOSLAB_THREADS", threads)
    row_len, rows = 5000, 600  # 16-row default slabs; 600 rows end mid-slab in block 2
    drawn = {}
    lock = threading.Lock()

    def collect(height):
        def consume(start, slab):
            with lock:
                drawn[height, start] = slab.copy()

        return consume

    map_slabs(8, row_len, rows, collect(None))
    heights = {len(slab) for (height, _), slab in drawn.items() if height is None}
    assert heights == {rng.slab_rows(row_len), rows % rng.slab_rows(row_len)}
    # room for SLAB_ROWS of these rows in a slab
    monkeypatch.setattr(rng, "SLAB_BYTES", SLAB_ROWS * row_len * 8)
    assert rng.slab_rows(row_len) == SLAB_ROWS
    map_slabs(8, row_len, rows, collect(SLAB_ROWS))

    def joined(height):
        return np.concatenate([drawn[key] for key in sorted(k for k in drawn if k[0] == height)])

    np.testing.assert_array_equal(joined(None), joined(SLAB_ROWS))
    np.testing.assert_array_equal(joined(None), normal_rows(8, 0, rows, row_len))
