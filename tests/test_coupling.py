import gc
import math
import tracemalloc

import numpy as np
import pytest

from chisquare import chi2_upper_quantile, pearson_chi2, pool_cells

from ewens_stein.coupling import (
    SquareBiasConfig,
    SquareBiasSampler,
    index_square_bias_weights,
    sample_zero_bias_batch,
)
from ewens_stein.ewens import (
    EwensParams,
    constrained_prob,
    falling_factorial,
    sample_crp_images,
)
from ewens_stein.oracle import (
    MAX_JOINT_N,
    _config_weight,
    _pair_case_sums_direct,
    construct_dagger,
    constructive_square_bias_law,
    exact_square_bias_law,
    iter_case_configs,
)
from ewens_stein.permutations import Permutation, reduce_delete
from ewens_stein.statistic import (
    DegenerateError,
    _pair_case_sums,
    b_value,
    center,
    classify,
    statistic,
    variance_decomposition,
)


def random_centered(n, theta, seed):
    rng = np.random.default_rng(seed)
    raw = rng.random((n, n))
    return center((raw + raw.T) / 2.0, EwensParams(n=n, theta=theta))


def test_square_bias_config_validation():
    cfg = SquareBiasConfig(i=1, j=2, r=3, s=4, k=3, l=5, case="A5_2", b=-0.1)
    assert cfg.constraint_map() == {3: 1, 4: 2, 1: 3, 2: 5}
    assert cfg.deleted_labels() == frozenset({1, 2, 3, 4})
    for b in (0.0, -0.0, float("nan")):
        with pytest.raises(ValueError, match="nonzero b"):
            SquareBiasConfig(i=1, j=2, r=3, s=4, k=3, l=5, case="A5_2", b=b)
    with pytest.raises(ValueError, match="inconsistent with case"):
        SquareBiasConfig(i=1, j=2, r=3, s=4, k=5, l=6, case="A5_1", b=0.1)


def test_index_weights_sum_to_ydiff():
    """grand sum of E[b^2] over ordered pairs = n(n-1) E(Y'-Y'')^2."""
    for n, theta in ((6, 0.5), (6, 1.0), (7, 2.0)):
        params = EwensParams(n=n, theta=theta)
        A = random_centered(n, theta, 10 + n)
        W = index_square_bias_weights(A, params)
        assert W.shape == (n, n)
        assert np.all(np.diag(W) == 0.0)
        assert np.all(W >= 0.0)
        dec = variance_decomposition(A, params)
        assert float(W.sum()) / (n * (n - 1)) == pytest.approx(
            dec.e_ydiff_sq, rel=1e-12
        )


def test_index_weights_degenerate():
    params = EwensParams(n=6, theta=1.0)
    A = center(np.zeros((6, 6)), params)
    with pytest.raises(DegenerateError, match="degenerate square bias"):
        index_square_bias_weights(A, params)


@pytest.mark.parametrize("n", [6, 10, 50, 200])
def test_sampler_weights_are_the_index_weights(n):
    """The sampler hands its own pair sums to index_square_bias_weights;
    W is the one computed from scratch."""
    params = EwensParams(n=n, theta=1.3)
    A = random_centered(n, 1.3, 5 + n)
    sampler = SquareBiasSampler(A, params)
    assert np.array_equal(sampler.pair_weights, index_square_bias_weights(A, params))


def test_sampler_agrees_between_routes():
    """The pair kernel's index weights W and per-pair case sums, which the
    sampler draws from, equal the per-pair, per-case reference summed over
    the enumerated configurations."""
    for n in (6, 9):
        for theta in (0.5, 1.2):
            params = EwensParams(n=n, theta=theta)
            A = random_centered(n, theta, 77 + n)
            direct = _pair_case_sums_direct(A, params)
            closed = _pair_case_sums(A, params)
            assert set(closed) == set(direct)
            for case, ref in direct.items():
                np.testing.assert_allclose(closed[case], ref, rtol=1e-12, atol=0)
            # A1-A4 configurations fix three images, A5 ones four
            W = sum(
                ref / falling_factorial(theta + n - 1, 4 if case.startswith("A5") else 3)
                for case, ref in direct.items()
            )
            np.testing.assert_allclose(
                index_square_bias_weights(A, params), W, rtol=1e-12, atol=0
            )


def test_pair_kernel_matches_monte_carlo_pairs_at_n30():
    """Above the oracle range: the kernel's E(Y'-Y'')^2 against the mean of
    (Y'-Y'')^2 over CRP permutations conjugated by uniform transpositions."""
    n, theta, count = 30, 1.3, 20_000
    params = EwensParams(n=n, theta=theta)
    A = random_centered(n, theta, 130)
    rng = np.random.default_rng(131)
    images = np.array(sample_crp_images(params, rng, count)) - 1
    i = rng.integers(0, n, count)
    j = (i + rng.integers(1, n, count)) % n
    rows = np.arange(count)[:, None]
    tau = np.tile(np.arange(n), (count, 1))
    tau[rows[:, 0], i], tau[rows[:, 0], j] = j, i
    conj = tau[rows, images[rows, tau]]  # tau pi tau, row by row
    cols = np.arange(n)
    diff_sq = (A.centered[cols, images].sum(axis=1) - A.centered[cols, conj].sum(axis=1)) ** 2
    kernel = float(index_square_bias_weights(A, params).sum()) / (n * (n - 1))
    se = float(diff_sq.std()) / math.sqrt(count)
    assert abs(float(diff_sq.mean()) - kernel) <= 5.0 * se


def test_sampled_configs_have_positive_exact_weight():
    n = 7
    params = EwensParams(n=n, theta=0.9)
    A = random_centered(n, 0.9, 23)
    sampler = SquareBiasSampler(A, params)
    rng = np.random.default_rng(5)
    for _ in range(400):
        cfg = sampler.sample(rng)
        assert cfg.case in ("A1", "A2", "A3", "A4", "A5_1", "A5_2", "A5_3", "A5_4")
        b = b_value(cfg.i, cfg.j, cfg.r, cfg.s, cfg.k, cfg.l, cfg.case, A)
        assert cfg.b == b
        assert b * b * constrained_prob(cfg.constraint_map(), params) > 0.0


def test_sequential_route_samples_the_same_law():
    """Pearson chi^2 of sampled (case, r, s, k, l) configurations against
    the exact per-pair law from enumeration, cells pooled to an expected
    count of at least 5, rejected above the null upper 1e-6 quantile."""
    n = 7
    params = EwensParams(n=n, theta=1.1)
    A = random_centered(n, 1.1, 31)
    sampler = SquareBiasSampler(A, params)
    rng = np.random.default_rng(9)
    draws = 40_000
    for i, j in ((2, 6), (5, 1)):
        law: dict[tuple, float] = {}
        for case, r, s, k, l in iter_case_configs(n, i, j):
            w = _config_weight(A, params, i, j, case, r, s, k, l)
            if w > 0.0:
                key = (case, r, s, k, l)
                law[key] = law.get(key, 0.0) + w
        cells = list(law)
        index = {key: t for t, key in enumerate(cells)}
        counts = np.zeros(len(cells))
        for _ in range(draws):
            cfg = sampler.sample_config(i, j, rng)
            # a configuration outside the exact support raises KeyError here
            counts[index[(cfg.case, cfg.r, cfg.s, cfg.k, cfg.l)]] += 1
        probs = np.array([law[key] for key in cells])
        probs /= probs.sum()
        pooled_counts, pooled_probs = pool_cells(counts, probs, 5.0)
        threshold = chi2_upper_quantile(len(pooled_probs) - 1, 1e-6)
        assert pearson_chi2(pooled_counts, pooled_probs) <= threshold


def test_sample_config_draws_for_the_given_pair():
    n = 6
    params = EwensParams(n=n, theta=1.3)
    A = random_centered(n, 1.3, 41)
    sampler = SquareBiasSampler(A, params)
    cfg = sampler.sample_config(2, 5, np.random.default_rng(0))
    assert (cfg.i, cfg.j) == (2, 5)
    assert cfg.b == b_value(2, 5, cfg.r, cfg.s, cfg.k, cfg.l, cfg.case, A) != 0.0


def test_sample_config_zero_weight_pair():
    # rows 1 and 2 identical (and equal diagonal) kill every b for (1, 2)
    n = 6
    raw = np.ones((n, n))
    raw[3, 3] = 5.0
    params = EwensParams(n=n, theta=1.0)
    A = center(raw, params)
    sampler = SquareBiasSampler(A, params)
    assert sampler.pair_weights[0, 1] == 0.0
    with pytest.raises(DegenerateError, match=r"pair \(1, 2\) carries zero weight"):
        sampler.sample_config(1, 2, np.random.default_rng(0))


@pytest.mark.parametrize("i, j", [(0, 3), (-1, 2), (8, 2), (3, 3)])
def test_sample_config_rejects_pairs_outside_the_index_range(i, j):
    # a wrapped index would read another pair's row of the set-up arrays
    params = EwensParams(n=7, theta=1.0)
    sampler = SquareBiasSampler(random_centered(7, 1.0, 5), params)
    with pytest.raises(ValueError, match=rf"index pair \({i}, {j}\)"):
        sampler.sample_config(i, j, np.random.default_rng(0))


def test_sampler_memory_stays_flat_over_draws():
    params = EwensParams(n=60, theta=1.0)
    sampler = SquareBiasSampler(random_centered(60, 1.0, 9), params)
    rng = np.random.default_rng(3)

    def held_after(draws):
        for _ in range(draws):
            sampler.sample(rng)
        gc.collect()
        return tracemalloc.get_traced_memory()[0]

    tracemalloc.start()
    try:
        early = held_after(500)
        late = held_after(5500)
    finally:
        tracemalloc.stop()
    # a per-pair cache would hold one more entry for each new pair drawn
    assert late - early < 64 * 1024, (early, late)


def test_construct_dagger_realizes_constraints():
    n = 8
    params = EwensParams(n=n, theta=1.4)
    A = random_centered(n, 1.4, 55)
    sampler = SquareBiasSampler(A, params)
    rng = np.random.default_rng(12)
    for _ in range(300):
        img = rng.permutation(np.arange(1, n + 1))
        pi = Permutation(img.tolist())
        cfg = sampler.sample(rng)
        dagger = construct_dagger(pi, cfg)
        assert dagger.inverse(cfg.i) == cfg.r
        assert dagger.inverse(cfg.j) == cfg.s
        assert dagger(cfg.i) == cfg.k
        assert dagger(cfg.j) == cfg.l
        assert classify(cfg.i, cfg.j, dagger) == cfg.case
        # outside the deleted labels the reduced permutation is untouched
        D = cfg.deleted_labels()
        assert reduce_delete(dagger, D) == reduce_delete(pi, D)
        assert sum(1 for x in range(1, n + 1) if dagger(x) != pi(x)) <= 10


def test_construct_dagger_hand_example():
    # pi = (1 2 3 4 5)(6 7 8); force pi(1) = 3 with 2 = pre(1), 4 = pre(5)... :
    # config in case A5_4 with i=1, j=5, r=2, s=4, k=3, l=6
    pi = Permutation.from_cycles(8, [(1, 2, 3, 4, 5), (6, 7, 8)])
    cfg = SquareBiasConfig(i=1, j=5, r=2, s=4, k=3, l=6, case="A5_4", b=1.0)
    dagger = construct_dagger(pi, cfg)
    assert dagger(2) == 1 and dagger(1) == 3
    assert dagger(4) == 5 and dagger(5) == 6
    # reduction by D = {1, 2, 4, 5} must match: pi reduced there is (3)(6 7 8)
    assert reduce_delete(dagger, {1, 2, 4, 5}) == {3: 3, 6: 7, 7: 8, 8: 6}


def test_constructive_law_matches_oracle():
    """The from-scratch construction has exactly the square-bias law."""
    n = 6
    for theta in (1.0, 2.0):
        params = EwensParams(n=n, theta=theta)
        A = random_centered(n, theta, 61)
        law = constructive_square_bias_law(A, params)
        oracle_law = exact_square_bias_law(A.centered, params)
        assert law.tv_distance(oracle_law) <= 1e-10
    with pytest.raises(ValueError, match="capped at n <= 6"):
        constructive_square_bias_law(random_centered(7, 1.0, 62), EwensParams(n=7, theta=1.0))


def test_sample_approx_zero_bias_invariants():
    """At n = 7 every row of the batch keeps the coupling's invariants,
    checked against the permutations the oracle builds from the same stream:
    Y' and Y† are the statistic at pi and pi†, pi‡ is pi† conjugated by
    (i, j), Y* lies between Y† and Y‡, and |Y* - Y'| stays within the gap
    bound."""
    n = 7
    params = EwensParams(n=n, theta=1.6)
    A = random_centered(n, 1.6, 71)
    sampler = SquareBiasSampler(A, params)
    limit = 20.0 * A.max_abs
    count = 200
    out = sample_zero_bias_batch(
        A, params, count, seed=np.random.default_rng(71), sampler=sampler
    )
    rng = np.random.default_rng(71)
    images = sample_crp_images(params, rng, count)
    for t in range(count):
        cfg = sampler.sample(rng)
        u = float(rng.random())
        pi = Permutation([int(v) for v in images[t]])
        pi_dagger = construct_dagger(pi, cfg)
        pi_ddagger = pi_dagger.conjugate_by_transposition(cfg.i, cfg.j)
        yp, yd, ydd, ys = (
            out[key][t] for key in ("y_prime", "y_dagger", "y_ddagger", "y_star")
        )
        assert out["u"][t] == u
        assert 0.0 <= u <= 1.0
        assert ys == pytest.approx(u * yd + (1.0 - u) * ydd)
        assert yp == pytest.approx(statistic(A, pi))
        assert yd == pytest.approx(statistic(A, pi_dagger))
        assert ydd == pytest.approx(statistic(A, pi_ddagger))
        assert pi_ddagger != pi_dagger
        assert yd != ydd
        assert abs(ys - yp) <= limit * (1.0 + 1e-9)
        assert classify(cfg.i, cfg.j, pi_dagger) == cfg.case


def test_batch_matches_scalar_construction():
    """The batch surgery reproduces the oracle's construct_dagger exactly on
    a shared randomness stream, at n = 8 and n = 13, and every row keeps the
    coupling's invariants."""
    for n, theta in ((8, 1.0), (13, 1.7)):
        params = EwensParams(n=n, theta=theta)
        A = random_centered(n, theta, 80 + n)
        sampler = SquareBiasSampler(A, params)
        limit = 20.0 * A.max_abs
        count = 60
        out = sample_zero_bias_batch(
            A, params, count, seed=np.random.default_rng([1, n]), sampler=sampler
        )
        rng = np.random.default_rng([1, n])
        images = sample_crp_images(params, rng, count)
        for t in range(count):
            cfg = sampler.sample(rng)
            u = float(rng.random())
            pi = Permutation([int(v) for v in images[t]])
            dagger = construct_dagger(pi, cfg)
            ddagger = dagger.conjugate_by_transposition(cfg.i, cfg.j)
            assert out["u"][t] == u
            assert out["y_prime"][t] == pytest.approx(statistic(A, pi), abs=1e-12)
            assert out["y_dagger"][t] == pytest.approx(
                statistic(A, dagger), abs=1e-12
            )
            assert out["y_ddagger"][t] == pytest.approx(
                statistic(A, ddagger), abs=1e-12
            )
            yp, yd, ydd, ys = (
                out[key][t] for key in ("y_prime", "y_dagger", "y_ddagger", "y_star")
            )
            assert 0.0 <= u <= 1.0
            assert ys == pytest.approx(u * yd + (1.0 - u) * ydd)
            assert yd != ydd
            assert yd - ydd == pytest.approx(cfg.b, abs=1e-12)
            assert abs(ys - yp) <= limit * (1.0 + 1e-9)


def test_batch_draws_the_square_bias_law():
    """Pearson chi^2 of the batch's own (Y†, Y‡) pairs against the exact
    square-bias law at n = 6, cells pooled to an expected count of at least
    5, rejected above the null upper 1e-6 quantile.  On an integer matrix
    Y + n * grand_mean is an integer, which keys every atom exactly."""
    n, theta, rows = 6, 1.4, 100_000
    params = EwensParams(n=n, theta=theta)
    raw = np.random.default_rng(17).integers(0, 3, (n, n))
    A = center((raw + raw.T).astype(float), params)
    law = exact_square_bias_law(A.centered, params)
    shift = n * A.grand_mean
    exact = law.values_array() + shift
    keys = np.rint(exact).astype(np.int64)
    assert np.abs(exact - keys).max() < 1e-9
    index = {key: t for t, key in enumerate(map(tuple, keys.tolist()))}
    assert len(index) == len(keys)
    out = sample_zero_bias_batch(A, params, rows, seed=19)
    drawn = np.rint(np.column_stack((out["y_dagger"], out["y_ddagger"])) + shift)
    cells, hits = np.unique(drawn.astype(np.int64), axis=0, return_counts=True)
    counts = np.zeros(len(keys))
    for key, hit in zip(map(tuple, cells.tolist()), hits.tolist()):
        # a pair outside the exact support raises KeyError here
        counts[index[key]] += hit
    pooled_counts, pooled_probs = pool_cells(counts, law.probs_array(), 5.0)
    threshold = chi2_upper_quantile(len(pooled_probs) - 1, 1e-6)
    assert pearson_chi2(pooled_counts, pooled_probs) <= threshold


def test_batch_respects_gap_bound():
    n = 10
    params = EwensParams(n=n, theta=0.5)
    A = random_centered(n, 0.5, 90)
    out = sample_zero_bias_batch(A, params, 5_000, seed=3)
    gaps = np.abs(out["y_star"] - out["y_prime"])
    assert float(gaps.max()) <= 20.0 * A.max_abs * (1.0 + 1e-9)
    assert out["y_prime"].shape == (5_000,)


def test_caps_are_what_they_claim():
    assert MAX_JOINT_N == 6
