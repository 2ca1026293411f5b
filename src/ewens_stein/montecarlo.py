"""Deterministic chunked Monte-Carlo driving.

Work is split into the fewest chunks that fit a size cap, with sizes
differing by at most one; each chunk gets an independent generator spawned
from the master seed, and results are combined in chunk order.  The
output is therefore identical for any worker count: threads change
wall-clock time, never the numbers.  EWENS_STEIN_THREADS caps the
worker pool, which is made on first use and kept for the process.
"""

from __future__ import annotations

import os
import threading
from concurrent.futures import ThreadPoolExecutor
from typing import Callable, Sequence, TypeVar

import numpy as np

from .ewens import sample_crp_images
from .statistic import block_statistic, padded_scores

__all__ = [
    "worker_count",
    "chunk_counts",
    "batch_chunk_size",
    "map_chunks",
    "sample_statistic_batch",
]

DEFAULT_CHUNK = 65_536

T = TypeVar("T")

# (size, pool) of the process's worker pool, made by the first parallel call
_pool: tuple[int, ThreadPoolExecutor] | None = None
_pool_lock = threading.Lock()
_pool_thread = threading.local()


def _forget_pool() -> None:
    # a forked child has none of its parent's threads, and the parent's
    # lock may have been held by one of them at the fork
    global _pool, _pool_lock
    _pool, _pool_lock = None, threading.Lock()


if hasattr(os, "register_at_fork"):  # not on Windows, which cannot fork
    os.register_at_fork(after_in_child=_forget_pool)


def _mark_pool_thread() -> None:
    _pool_thread.active = True


def worker_count() -> int:
    env = os.environ.get("EWENS_STEIN_THREADS")
    if env:
        try:
            return max(1, int(env))
        except ValueError:
            raise ValueError(
                f"EWENS_STEIN_THREADS must be an integer, got {env!r}"
            ) from None
    usable = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    return min(usable or 1, 8)


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

    Chunks run on one pool per process, of worker_count() threads; it is
    replaced when that count changes and in a forked child.  A call made
    from a pool thread, or with one worker or one chunk, runs inline.
    """
    counts = chunk_counts(total, chunk_size)
    if not counts:
        return []
    seq = seed if isinstance(seed, np.random.SeedSequence) else np.random.SeedSequence(seed)
    children = seq.spawn(len(counts))
    workers = worker_count()

    def draw(c, k):
        return fn(np.random.default_rng(c), k)

    if min(workers, len(counts)) == 1 or getattr(_pool_thread, "active", False):
        return list(map(draw, children, counts))
    global _pool
    # one lock over lookup and submissions: no caller shuts the pool down between them
    with _pool_lock:
        if _pool is None or _pool[0] != workers:
            if _pool is not None:
                _pool[1].shutdown(wait=False)
            _pool = (workers, ThreadPoolExecutor(workers, initializer=_mark_pool_thread))
        futures = [_pool[1].submit(draw, c, k) for c, k in zip(children, counts)]
    return [f.result() for f in futures]


def sample_statistic_batch(A, params, total: int, seed) -> np.ndarray:
    """total draws of Y = sum_i a_hat[i, pi(i)] under CRP sampling.

    Y is summed in index order i = 1..n from the CRP column block.  Chunks
    hold at most 2**22 image entries, so memory stays bounded as n grows;
    the chunk size depends on n alone, and the output on (n, total, seed).
    """
    padded = padded_scores(A)

    def chunk(rng: np.random.Generator, count: int) -> np.ndarray:
        return block_statistic(padded, sample_crp_images(params, rng, count).T)

    parts = map_chunks(total, chunk, seed, chunk_size=batch_chunk_size(params.n))
    return np.concatenate(parts) if parts else np.empty(0)
