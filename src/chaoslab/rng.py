"""Deterministic, order-independent random-number plumbing.

Monte Carlo batches must satisfy a strong reproducibility contract: the i-th
path is a deterministic function of (master seed, i), independent of the batch
size, of chunking, and of thread scheduling.  This is achieved with
counter-based Philox streams addressed by row blocks:

- rows are grouped in fixed blocks of ``BLOCK_ROWS``;
- block b of a stream uses ``Philox(key=stream key, counter=b << 128)`` and
  fills its rows sequentially, drawn as consecutive ``SLAB_ROWS``-row slabs
  from that one generator by :func:`normal_slabs`;
- a request for rows [start, start+count) draws the covered slabs (and the
  slabs before them in the first block) and slices, so any chunking of a
  batch yields identical rows.  :func:`fbm.stream_paths` reads one
  unbounded slab stream instead, so it draws each block once.

Distinct consumers derive independent stream seeds from the master seed with
:func:`derive_seed` using a string label, so adding a consumer never perturbs
existing streams.
"""

from __future__ import annotations

import hashlib
import itertools
import os
from typing import Iterator

import numpy as np

__all__ = ["BLOCK_ROWS", "SLAB_ROWS", "derive_seed", "normal_rows", "normal_slabs", "worker_count"]

BLOCK_ROWS = 512
SLAB_ROWS = 256  # divides BLOCK_ROWS
_MASK64 = (1 << 64) - 1


def derive_seed(seed: int, label: str) -> int:
    """Derive an independent 64-bit stream seed from a master seed and label."""
    tag = int.from_bytes(hashlib.sha256(label.encode("utf-8")).digest()[:8], "little")
    ss = np.random.SeedSequence((int(seed) & _MASK64, tag))
    return int(ss.generate_state(1, np.uint64)[0])


def _stream_key(seed: int) -> int:
    words = np.random.SeedSequence((int(seed) & _MASK64,)).generate_state(2, np.uint64)
    return int(words[0]) | (int(words[1]) << 64)


def normal_slabs(seed: int, row_len: int, first_slab: int = 0) -> Iterator[np.ndarray]:
    """Consecutive ``SLAB_ROWS``-row slabs of the normal matrix, from slab ``first_slab`` on.

    The stream is unbounded.  Each block's generator is made once, when the
    first of its slabs is needed, and draws its slabs in order, so slab s
    holds rows [s * SLAB_ROWS, (s + 1) * SLAB_ROWS) exactly as a draw of the
    whole block would.  Slabs of the first block before ``first_slab`` are
    drawn and dropped.
    """
    per_block = BLOCK_ROWS // SLAB_ROWS
    first_block, skip = divmod(first_slab, per_block)
    key = _stream_key(seed)
    for block in itertools.count(first_block):
        gen = np.random.Generator(np.random.Philox(key=key, counter=block << 128))
        slabs = (gen.standard_normal((SLAB_ROWS, row_len)) for _ in range(per_block))
        yield from itertools.islice(slabs, skip, None)
        skip = 0


def normal_rows(seed: int, start: int, count: int, row_len: int) -> np.ndarray:
    """Rows [start, start+count) of an infinite matrix of standard normals.

    Row i depends only on ``(seed, i, row_len)``; any partition of a row range
    into calls returns the same values.
    """
    if start < 0 or count < 0 or row_len <= 0:
        raise ValueError("need start >= 0, count >= 0, row_len >= 1")
    out = np.empty((count, row_len))
    first_slab = start // SLAB_ROWS
    bases = range(first_slab * SLAB_ROWS, start + count, SLAB_ROWS)
    for base, slab in zip(bases, normal_slabs(seed, row_len, first_slab)):
        lo = max(start, base)
        hi = min(start + count, base + SLAB_ROWS)
        out[lo - start : hi - start] = slab[lo - base : hi - base]
    return out


def worker_count() -> int:
    """Parallelism cap: ``CHAOSLAB_THREADS`` if set, else the CPU count."""
    env = os.environ.get("CHAOSLAB_THREADS")
    if env is not None:
        try:
            return max(1, int(env))
        except ValueError as exc:
            raise ValueError(f"CHAOSLAB_THREADS must be an integer, got {env!r}") from exc
    return max(1, os.cpu_count() or 1)
