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
- :func:`map_slabs` hands disjoint RNG blocks to a consumer, slab by slab,
  on a pool of at most ``worker_count()`` threads, one block per task.  Rows
  of at most 512 normals (``SLAB_BYTES`` over ``SLAB_ROWS`` doubles) get
  full ``SLAB_ROWS``-row slabs.  A block's slabs come from its own
  generator, drawn in order on one thread into one buffer, so every slab
  holds the same numbers whatever the thread count, the row count or the
  order in which blocks finish; consumers write disjoint rows of their
  outputs.  It is the one reader of the stream: :func:`fbm.map_paths`, the
  mixture sampler's mixing normals and the Brownian example run on it.

Distinct consumers derive independent stream seeds from the master seed with
:func:`derive_seed` using a string label, so adding a consumer never perturbs
existing streams.
"""

from __future__ import annotations

import hashlib
import os
from concurrent.futures import ThreadPoolExecutor
from typing import Callable

import numpy as np

__all__ = [
    "BLOCK_ROWS",
    "SLAB_BYTES",
    "SLAB_ROWS",
    "derive_seed",
    "map_slabs",
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


def map_slabs(
    seed: int,
    row_len: int,
    rows: int,
    consume: Callable[[int, np.ndarray], None],
) -> None:
    """Call ``consume(start, slab)`` for every slab of rows [0, rows), on a thread pool.

    ``slab`` holds rows [start, start + len(slab)): ``slab_rows(row_len)``
    rows, except that the last slab is cut at ``rows`` and slabs wholly past
    it are not drawn.  Each block's slabs are drawn into one buffer and
    consumed in order by one task, so ``consume`` must not keep a reference
    to ``slab``.  The pool has ``min(worker_count(), blocks)`` threads, so
    ``consume`` may run concurrently for different blocks.  An exception
    raised in ``consume`` propagates to the caller.
    """
    if rows < 0 or row_len <= 0:
        raise ValueError("need rows >= 0, row_len >= 1")
    height = slab_rows(row_len)
    blocks = -(-rows // BLOCK_ROWS)
    if blocks == 0:
        return
    key = _stream_key(seed)

    def run(block: int) -> None:
        gen = np.random.Generator(np.random.Philox(key=key, counter=block << 128))
        slab = np.empty((height, row_len))
        for start in range(block * BLOCK_ROWS, min(rows, (block + 1) * BLOCK_ROWS), height):
            gen.standard_normal((height, row_len), out=slab)
            consume(start, slab[: rows - start])

    with ThreadPoolExecutor(min(worker_count(), blocks)) as pool:
        for _ in pool.map(run, range(blocks)):
            pass


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
