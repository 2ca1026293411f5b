import os

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
