"""Property tests over (n, theta, A): against the exact law of Y for
n <= 8, and against the worker count for the sampled reports.

Each example draws n, theta and a seed for a random symmetric matrix.
Examples are derandomized so that the suite is deterministic.
"""

import json
import math
import os
from contextlib import contextmanager

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ewens_stein.bounds import alpha1, alpha2, bound_report
from ewens_stein.distances import kolmogorov_exact, wasserstein_exact
from ewens_stein.ewens import EwensParams
from ewens_stein.montecarlo import DEFAULT_CHUNK, sample_statistic_batch
from ewens_stein.oracle import exact_statistic_law
from ewens_stein.statistic import center, sigma_squared

EXAMPLES = settings(max_examples=50, deadline=None, derandomize=True)

ns = st.sampled_from([6, 7, 8])
thetas = st.floats(min_value=0.2, max_value=5.0)
seeds = st.integers(min_value=0, max_value=2**32 - 1)
integer_flags = st.booleans()


def random_symmetric(n, seed, integer):
    rng = np.random.default_rng(seed)
    raw = rng.integers(0, 10, size=(n, n)).astype(float) if integer else rng.random((n, n))
    return np.triu(raw) + np.triu(raw, 1).T


@EXAMPLES
@given(n=ns, theta=thetas, seed=seeds, integer=integer_flags)
def test_sigma_squared_is_the_exact_variance(n, theta, seed, integer):
    params = EwensParams(n=n, theta=theta)
    A = center(random_symmetric(n, seed, integer), params)
    law = exact_statistic_law(A.centered, params)
    assert math.isclose(sigma_squared(A, params), law.variance(), rel_tol=1e-10)


@EXAMPLES
@given(n=ns, theta=thetas, seed=seeds, integer=integer_flags)
def test_exact_distances_obey_the_bounds(n, theta, seed, integer):
    params = EwensParams(n=n, theta=theta)
    A = center(random_symmetric(n, seed, integer), params)
    sigma = math.sqrt(sigma_squared(A, params))
    law = exact_statistic_law(A.centered, params)
    assert wasserstein_exact(law, 0.0, sigma) <= alpha1(params, A.max_abs) / sigma
    assert kolmogorov_exact(law, 0.0, sigma) <= alpha2(params, A.max_abs) / sigma


@settings(max_examples=30, deadline=None, derandomize=True)
@given(
    n=ns,
    theta=thetas,
    seed=seeds,
    c=st.floats(min_value=0.1, max_value=10.0),
)
def test_scaling_the_matrix_scales_sigma_only(n, theta, seed, c):
    params = EwensParams(n=n, theta=theta)
    raw = random_symmetric(n, seed, integer=False)
    results = []
    for matrix in (raw, c * raw):
        A = center(matrix, params)
        sigma = math.sqrt(sigma_squared(A, params))
        law = exact_statistic_law(A.centered, params)
        results.append(
            (sigma, wasserstein_exact(law, 0.0, sigma), kolmogorov_exact(law, 0.0, sigma))
        )
    (sigma, d1, dinf), (sigma_c, d1_c, dinf_c) = results
    assert math.isclose(sigma_c, c * sigma, rel_tol=1e-9)
    assert math.isclose(d1_c, d1, rel_tol=1e-9)
    assert math.isclose(dinf_c, dinf, rel_tol=1e-9)


@contextmanager
def threads(count):
    old = os.environ.get("EWENS_STEIN_THREADS")
    os.environ["EWENS_STEIN_THREADS"] = str(count)
    try:
        yield
    finally:
        if old is None:
            del os.environ["EWENS_STEIN_THREADS"]
        else:
            os.environ["EWENS_STEIN_THREADS"] = old


# half the totals span two or three chunks, where the worker count could matter
totals = st.one_of(
    st.integers(min_value=1_000, max_value=140_000),
    st.integers(min_value=DEFAULT_CHUNK + 1, max_value=140_000),
)


@settings(max_examples=12, deadline=None, derandomize=True)
@given(n=st.integers(min_value=6, max_value=12), theta=thetas, total=totals, seed=seeds)
@example(n=12, theta=5.0, total=140_000, seed=3)
@example(n=6, theta=0.2, total=DEFAULT_CHUNK + 1, seed=4)
def test_sampled_results_do_not_depend_on_the_worker_count(n, theta, total, seed):
    params = EwensParams(n=n, theta=theta)
    raw = random_symmetric(n, seed, integer=False)
    A = center(raw, params)
    draws, reports = [], []
    for count in (1, 2, 3):
        with threads(count):
            draws.append(sample_statistic_batch(A, params, total, seed))
            reports.append(bound_report(raw, params, samples=total, seed=seed).to_json_str())
    assert np.array_equal(draws[0], draws[1]) and np.array_equal(draws[0], draws[2])
    assert reports[0] == reports[1] == reports[2]
    # the recorded partition is the near-equal split of total, which is
    # what keeps those bytes free of the worker count
    prov = json.loads(reports[0])["provenance"]
    assert prov["chunks"] == -(-total // DEFAULT_CHUNK)
    assert prov["largest_chunk"] == -(-total // prov["chunks"])
