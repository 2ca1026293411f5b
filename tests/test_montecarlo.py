import multiprocessing
import os
import queue
import subprocess
import sys
import textwrap
import threading

import numpy as np
import pytest

from ewens_stein import montecarlo
from ewens_stein.ewens import EwensParams, sample_crp_images
from ewens_stein.montecarlo import (
    DEFAULT_CHUNK,
    batch_chunk_size,
    chunk_counts,
    map_chunks,
    sample_statistic_batch,
    worker_count,
)
from ewens_stein.oracle import exact_statistic_law
from ewens_stein.statistic import center


def test_map_chunks_partition():
    sizes = map_chunks(250, lambda rng, k: k, seed=0, chunk_size=100)
    assert sizes == [84, 83, 83]
    assert map_chunks(100, lambda rng, k: k, seed=0, chunk_size=100) == [100]
    assert map_chunks(0, lambda rng, k: k, seed=0) == []


@pytest.mark.parametrize("cap", [100, DEFAULT_CHUNK])
@pytest.mark.parametrize("total", [1, 99, 100, 101, 250, 10**5, 10**6])
def test_chunk_counts_are_near_equal(total, cap):
    sizes = chunk_counts(total, cap)
    assert sum(sizes) == total
    assert max(sizes) - min(sizes) <= 1
    assert max(sizes) <= cap
    assert len(sizes) == -(-total // cap)
    assert sizes == sorted(sizes, reverse=True)
    assert map_chunks(total, lambda rng, k: k, seed=0, chunk_size=cap) == sizes


def test_map_chunks_deterministic_across_workers(monkeypatch):
    def draw(rng, k):
        return rng.random(k)

    outs = []
    for workers in ("1", "4", "8"):
        monkeypatch.setenv("EWENS_STEIN_THREADS", workers)
        assert worker_count() == int(workers)
        parts = map_chunks(10_000, draw, seed=42, chunk_size=1_000)
        outs.append(np.concatenate(parts))
    assert np.array_equal(outs[0], outs[1])
    assert np.array_equal(outs[0], outs[2])


def test_map_chunks_streams_are_independent():
    parts = map_chunks(3_000, lambda rng, k: rng.random(k), seed=7, chunk_size=1_000)
    # spawned children never repeat each other
    assert not np.array_equal(parts[0], parts[1])
    assert not np.array_equal(parts[1], parts[2])


def test_map_chunks_accepts_seed_sequence():
    a = map_chunks(500, lambda rng, k: rng.random(k), seed=np.random.SeedSequence(9))
    b = map_chunks(500, lambda rng, k: rng.random(k), seed=9)
    assert np.array_equal(np.concatenate(a), np.concatenate(b))


def test_default_chunk_size():
    assert DEFAULT_CHUNK == 65_536


def test_sample_statistic_batch_matches_exact_law():
    n = 6
    params = EwensParams(n=n, theta=1.5)
    rng = np.random.default_rng(3)
    raw = rng.random((n, n))
    A = center((raw + raw.T) / 2, params)
    draws = sample_statistic_batch(A, params, 200_000, seed=11)
    assert draws.shape == (200_000,)
    law = exact_statistic_law(A.centered, params)
    se_mean = np.sqrt(law.variance() / draws.size)
    assert abs(draws.mean() - law.mean()) <= 5 * se_mean
    assert draws.var() == pytest.approx(law.variance(), rel=0.05)


def test_worker_count_default_positive():
    old = os.environ.pop("EWENS_STEIN_THREADS", None)
    try:
        assert worker_count() >= 1
    finally:
        if old is not None:
            os.environ["EWENS_STEIN_THREADS"] = old


@pytest.mark.parametrize("cpus, expected", [({0, 1, 2}, 3), (set(range(16)), 8)])
def test_worker_count_default_is_the_usable_cpus(monkeypatch, cpus, expected):
    monkeypatch.delenv("EWENS_STEIN_THREADS", raising=False)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: cpus, raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 64)
    assert worker_count() == expected
    monkeypatch.setenv("EWENS_STEIN_THREADS", "5")
    assert worker_count() == 5


@pytest.mark.parametrize("cpus, expected", [(5, 5), (64, 8), (None, 1)])
def test_worker_count_falls_back_to_cpu_count(monkeypatch, cpus, expected):
    monkeypatch.delenv("EWENS_STEIN_THREADS", raising=False)
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: cpus)
    assert worker_count() == expected


def test_worker_count_rejects_non_integer(monkeypatch):
    monkeypatch.setenv("EWENS_STEIN_THREADS", "abc")
    with pytest.raises(ValueError, match="EWENS_STEIN_THREADS must be an integer, got 'abc'"):
        worker_count()


@pytest.mark.parametrize("n, expected", [(8, 65_536), (64, 65_536), (65, 64_527), (1000, 4_194)])
def test_batch_chunk_size_is_bounded_by_n(monkeypatch, n, expected):
    params = EwensParams(n=n, theta=1.0)
    A = center(np.ones((n, n)) + np.eye(n), params)
    seen = []

    def capture(total, fn, seed, chunk_size=DEFAULT_CHUNK):
        seen.append(chunk_size)
        return []

    monkeypatch.setattr(montecarlo, "map_chunks", capture)
    sample_statistic_batch(A, params, 100_000, seed=0)
    assert seen == [expected]
    assert expected == batch_chunk_size(n) == min(DEFAULT_CHUNK, 2**22 // n)


@pytest.mark.parametrize("n, theta", [(6, 0.5), (7, 2.0), (9, 1.3), (30, 0.8)])
def test_batch_sums_y_in_index_order(n, theta):
    params = EwensParams(n=n, theta=theta)
    raw = np.random.default_rng([n, 5]).random((n, n))
    A = center((raw + raw.T) / 2, params)
    total = 70_000  # two chunks below n = 65
    images = np.concatenate(
        map_chunks(
            total,
            lambda rng, k: sample_crp_images(params, rng, k),
            seed=21,
            chunk_size=min(DEFAULT_CHUNK, 2**22 // n),
        )
    )
    expected = A.centered[0, images[:, 0] - 1]
    for i in range(1, n):
        expected = expected + A.centered[i, images[:, i] - 1]
    draws = sample_statistic_batch(A, params, total, seed=21)
    assert np.array_equal(draws, expected)
    if n < 8:
        # below 8 terms numpy's row sum adds in index order too
        gathered = A.centered[np.arange(n), np.ascontiguousarray(images) - 1]
        assert np.array_equal(draws, gathered.sum(axis=1))


def _pool_threads(workers: int, seed: int):
    """Draws from workers chunks that must all run at once, and their threads."""
    barrier = threading.Barrier(workers, timeout=30)
    threads = []

    def draw(rng, k):
        threads.append(threading.current_thread())
        barrier.wait()
        return rng.random(k)

    parts = map_chunks(workers * 100, draw, seed=seed, chunk_size=100)
    return np.concatenate(parts).tobytes(), set(threads)


def test_map_chunks_keeps_one_pool_per_worker_count(monkeypatch):
    # thread objects, not get_ident(): the OS reuses an exited thread's ident
    monkeypatch.setenv("EWENS_STEIN_THREADS", "2")
    first, threads = _pool_threads(2, seed=3)
    again, threads_again = _pool_threads(2, seed=3)
    assert len(threads) == 2 and threading.current_thread() not in threads
    assert threads_again == threads and again == first
    monkeypatch.setenv("EWENS_STEIN_THREADS", "3")
    _, threads_3 = _pool_threads(3, seed=3)
    assert len(threads_3) == 3 and not threads_3 & threads
    for workers in ("3", "1", "2"):
        monkeypatch.setenv("EWENS_STEIN_THREADS", workers)
        parts = map_chunks(200, lambda rng, k: rng.random(k), seed=3, chunk_size=100)
        assert np.concatenate(parts).tobytes() == first


def test_forked_child_samples_like_its_parent(monkeypatch):
    monkeypatch.setenv("EWENS_STEIN_THREADS", "2")
    params = EwensParams(n=6, theta=0.7)
    raw = np.random.default_rng(8).random((6, 6))
    A = center((raw + raw.T) / 2, params)
    total = DEFAULT_CHUNK + 10  # two chunks: the parent's pool is warm at the fork
    expected = sample_statistic_batch(A, params, total, seed=13)
    ctx = multiprocessing.get_context("fork")
    results = ctx.Queue()
    child = ctx.Process(
        target=lambda: results.put(sample_statistic_batch(A, params, total, seed=13))
    )
    child.start()
    try:
        draws = results.get(timeout=60)
    except queue.Empty:
        draws = None
    finally:
        child.join(timeout=5)
        if child.is_alive():
            child.kill()
            child.join(timeout=30)
    assert draws is not None, "forked child did not sample within 60 s"
    assert child.exitcode == 0
    assert np.array_equal(draws, expected)


NESTED = textwrap.dedent(
    """
    import os
    import numpy as np
    from ewens_stein.montecarlo import map_chunks

    def outer(rng, k):
        inner = map_chunks(k, lambda r, m: r.random(m), seed=int(rng.integers(2**32)), chunk_size=50)
        return np.concatenate(inner)

    runs = []
    for workers in ("1", "2", "3"):
        os.environ["EWENS_STEIN_THREADS"] = workers
        runs.append(np.concatenate(map_chunks(600, outer, seed=5, chunk_size=100)).tobytes())
    print(runs[0] == runs[1] == runs[2])
    """
)


def test_nested_map_chunks_runs_inline():
    # in its own process, so that a deadlock fails the test instead of hanging it
    src = os.path.dirname(os.path.dirname(montecarlo.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, "-c", NESTED], env=env, capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "True"
