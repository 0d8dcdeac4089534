"""Deterministic, order-independent random-number plumbing.

Monte Carlo batches must satisfy a strong reproducibility contract: the i-th
path is a deterministic function of (master seed, i), independent of the batch
size, of chunking, and of thread scheduling.  This is achieved with
counter-based Philox streams addressed by row blocks:

- rows are grouped in fixed blocks of ``BLOCK_ROWS``;
- block b of a stream uses ``Philox(key=stream key, counter=b << 128)`` and
  fills its rows sequentially, drawn as consecutive slabs from that one
  generator.  A slab is measured in bytes: :func:`slab_rows` gives the
  largest power of two of rows, at most ``SLAB_ROWS``, that holds at most
  ``SLAB_BYTES`` of normals (and at least one row), so a pass over a slab
  works in cache even when rows are long.  The generator fills its rows in
  the same order whatever the slab height, so the slab height changes no
  number;
- :func:`normal_rows` serves rows [start, start+count) by drawing the covered
  slabs (and the slabs before them in the first block) and slicing, so any
  chunking of a batch yields identical rows.
- :func:`map_slabs` hands the ``slab_rows(row_len)``-row slabs of rows
  [0, rows) to a consumer on a pool of at most ``worker_count()`` threads,
  one block per task.  Rows of at most 512 normals (``SLAB_BYTES`` over
  ``SLAB_ROWS`` doubles) get full ``SLAB_ROWS``-row slabs.  A block's slabs
  come from its own generator, drawn in order on one thread into one buffer,
  so every slab holds the same numbers whatever the thread count or the
  order in which blocks finish; consumers write disjoint rows of their
  outputs.  :func:`fbm.map_paths` and the Brownian example run on it.

Distinct consumers derive independent stream seeds from the master seed with
:func:`derive_seed` using a string label, so adding a consumer never perturbs
existing streams.
"""

from __future__ import annotations

import hashlib
import os
from concurrent.futures import ThreadPoolExecutor
from typing import Callable, Iterator

import numpy as np

__all__ = [
    "BLOCK_ROWS",
    "SLAB_BYTES",
    "SLAB_ROWS",
    "derive_seed",
    "map_slabs",
    "normal_rows",
    "slab_rows",
    "worker_count",
]

BLOCK_ROWS = 512
SLAB_ROWS = 256  # the tallest slab; divides BLOCK_ROWS
SLAB_BYTES = 1 << 20  # most bytes of normals in a slab (unless one row is larger)
_MASK64 = (1 << 64) - 1


def derive_seed(seed: int, label: str) -> int:
    """Derive an independent 64-bit stream seed from a master seed and label."""
    tag = int.from_bytes(hashlib.sha256(label.encode("utf-8")).digest()[:8], "little")
    ss = np.random.SeedSequence((int(seed) & _MASK64, tag))
    return int(ss.generate_state(1, np.uint64)[0])


def _stream_key(seed: int) -> int:
    words = np.random.SeedSequence((int(seed) & _MASK64,)).generate_state(2, np.uint64)
    return int(words[0]) | (int(words[1]) << 64)


def slab_rows(row_len: int) -> int:
    """Rows per slab for rows of ``row_len`` normals: the largest power of two
    at most ``SLAB_ROWS`` whose rows hold at most ``SLAB_BYTES``, and at least 1.

    Being a power of two no larger than ``SLAB_ROWS``, it divides ``BLOCK_ROWS``.
    """
    rows = SLAB_ROWS
    while rows > 1 and rows * row_len * 8 > SLAB_BYTES:
        rows //= 2
    return rows


def _block_slabs(key: int, block: int, row_len: int, rows: int, out=None) -> Iterator[np.ndarray]:
    """The ``rows``-row slabs of one block, drawn lazily in order by the block's
    own generator; with ``out``, each into that array, so a slab lasts until
    the next is drawn.  ``rows`` must divide ``BLOCK_ROWS``."""
    gen = np.random.Generator(np.random.Philox(key=key, counter=block << 128))
    for _ in range(BLOCK_ROWS // rows):
        yield gen.standard_normal((rows, row_len), out=out)


def map_slabs(
    seed: int,
    row_len: int,
    rows: int,
    consume: Callable[[int, np.ndarray], None],
    max_threads: int | None = None,
) -> None:
    """Call ``consume(start, slab)`` for every slab of rows [0, rows), on a thread pool.

    ``slab`` holds rows [start, start + len(slab)): ``slab_rows(row_len)``
    rows, except that the last slab is cut at ``rows`` and slabs wholly past
    it are not drawn.  Each block's slabs are drawn into one buffer and
    consumed in order by one task, so ``consume`` must not keep a reference
    to ``slab``.  The pool has ``min(worker_count(), max_threads, blocks)``
    threads (``max_threads`` None means no cap; below 1 it is a ValueError),
    so ``consume`` may run concurrently for different blocks.  An exception
    raised in ``consume`` propagates to the caller.
    """
    if rows < 0 or row_len <= 0:
        raise ValueError("need rows >= 0, row_len >= 1")
    if max_threads is not None and max_threads < 1:
        raise ValueError(f"max_threads must be None or >= 1, got {max_threads}")
    height = slab_rows(row_len)
    blocks = -(-rows // BLOCK_ROWS)
    if blocks == 0:
        return
    key = _stream_key(seed)

    def run(block: int) -> None:
        start = block * BLOCK_ROWS
        for slab in _block_slabs(key, block, row_len, height, np.empty((height, row_len))):
            consume(start, slab[: rows - start])
            start += height
            if start >= rows:
                return

    with ThreadPoolExecutor(min(worker_count(), max_threads or blocks, blocks)) as pool:
        for _ in pool.map(run, range(blocks)):
            pass


def normal_rows(seed: int, start: int, count: int, row_len: int) -> np.ndarray:
    """Rows [start, start+count) of an infinite matrix of standard normals.

    Row i depends only on ``(seed, i, row_len)``; any partition of a row range
    into calls returns the same values.
    """
    if start < 0 or count < 0 or row_len <= 0:
        raise ValueError("need start >= 0, count >= 0, row_len >= 1")
    out = np.empty((count, row_len))
    key = _stream_key(seed)
    height = slab_rows(row_len)
    stop = start + count
    for block in range(start // BLOCK_ROWS, -(-stop // BLOCK_ROWS)):
        bases = range(block * BLOCK_ROWS, stop, height)
        for base, slab in zip(bases, _block_slabs(key, block, row_len, height)):
            lo, hi = max(start, base), min(stop, base + height)
            if lo < hi:
                out[lo - start : hi - start] = slab[lo - base : hi - base]
    return out


def worker_count() -> int:
    """Parallelism cap: ``CHAOSLAB_THREADS`` if set, else the CPU count."""
    env = os.environ.get("CHAOSLAB_THREADS")
    if env is None:
        return max(1, os.cpu_count() or 1)
    try:
        threads = int(env)
    except ValueError:
        threads = 0  # reported below, like any value under 1
    if threads < 1:
        raise ValueError(f"CHAOSLAB_THREADS must be a positive integer, got {env!r}")
    return threads
