"""Deterministic chunked Monte-Carlo driving.

Work is split into the fewest chunks that fit a size cap, with sizes
differing by at most one; each chunk gets an independent generator spawned
from the master seed, and results are combined in chunk order.  The
output is therefore identical for any worker count: threads change
wall-clock time, never the numbers.  EWENS_STEIN_THREADS caps the
worker pool.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
from typing import Callable, Sequence, TypeVar

import numpy as np

__all__ = [
    "worker_count",
    "chunk_counts",
    "batch_chunk_size",
    "map_chunks",
    "sample_statistic_batch",
]

DEFAULT_CHUNK = 65_536

T = TypeVar("T")


def worker_count() -> int:
    env = os.environ.get("EWENS_STEIN_THREADS")
    if env:
        try:
            return max(1, int(env))
        except ValueError:
            raise ValueError(
                f"EWENS_STEIN_THREADS must be an integer, got {env!r}"
            ) from None
    return min(os.cpu_count() or 1, 8)


def chunk_counts(total: int, chunk_size: int) -> list[int]:
    """ceil(total / chunk_size) chunk sizes summing to total, none above
    chunk_size, differing by at most 1, the larger ones first."""
    if total <= 0:
        return []
    k = -(-total // chunk_size)
    q, r = divmod(total, k)
    return [q + 1] * r + [q] * (k - r)


def batch_chunk_size(n: int) -> int:
    """Chunk cap for n-element CRP batches: at most 2**22 image entries."""
    return min(DEFAULT_CHUNK, 2**22 // n)


def map_chunks(
    total: int,
    fn: Callable[[np.random.Generator, int], T],
    seed,
    chunk_size: int = DEFAULT_CHUNK,
) -> list[T]:
    """Run fn(rng, count) over chunks summing to total; results in chunk order.

    The partition is chunk_counts(total, chunk_size), so no chunk runs much
    longer than another.  Each chunk's generator is spawned from
    SeedSequence(seed), so the partition — and hence every number produced
    — depends only on (total, seed, chunk_size), never on scheduling.
    """
    counts = chunk_counts(total, chunk_size)
    if not counts:
        return []
    seq = seed if isinstance(seed, np.random.SeedSequence) else np.random.SeedSequence(seed)
    children = seq.spawn(len(counts))
    workers = min(worker_count(), len(counts))
    if workers == 1:
        return [fn(np.random.default_rng(c), k) for c, k in zip(children, counts)]
    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(
            pool.map(lambda arg: fn(np.random.default_rng(arg[0]), arg[1]), zip(children, counts))
        )


def sample_statistic_batch(A, params, total: int, seed) -> np.ndarray:
    """total draws of Y = sum_i a_hat[i, pi(i)] under CRP sampling.

    Y is summed in index order i = 1..n from the CRP column block.  Chunks
    hold at most 2**22 image entries, so memory stays bounded as n grows;
    the chunk size depends on n alone, and the output on (n, total, seed).
    """
    from .ewens import sample_crp_images

    n = params.n
    # column 0 pads each row so that 1-based images index it directly
    padded = np.zeros((n, n + 1))
    padded[:, 1:] = A.centered

    def chunk(rng: np.random.Generator, count: int) -> np.ndarray:
        block = sample_crp_images(params, rng, count).T
        y = padded[0][block[0]]
        for i in range(1, n):
            y += padded[i][block[i]]
        return y

    parts = map_chunks(total, chunk, seed, chunk_size=batch_chunk_size(n))
    return np.concatenate(parts) if parts else np.empty(0)
