import math

import numpy as np
import pytest

from ewens_stein.ewens import (
    C1Moments,
    EwensParams,
    c1_moments,
    conditional_remaining_prob,
    constrained_prob,
    cycle_count_factorial_moment,
    cycle_type_pmf,
    ewens_log_pmf,
    ewens_pmf,
    falling_factorial,
    rising_factorial,
    sample_crp_images,
)
from ewens_stein.oracle import enumerate_permutations
from ewens_stein.permutations import CycleType, Permutation, cycle_type


def test_params_validation():
    EwensParams(n=1, theta=0.1)
    with pytest.raises(ValueError, match="n must be at least 1"):
        EwensParams(n=0, theta=1.0)
    for bad in (0.0, -1.0, math.inf, math.nan):
        with pytest.raises(ValueError, match="theta must be finite and positive"):
            EwensParams(n=3, theta=bad)


def test_factorials():
    assert rising_factorial(2.0, 3) == 2.0 * 3.0 * 4.0
    assert rising_factorial(0.5, 0) == 1.0
    assert falling_factorial(5.0, 3) == 5.0 * 4.0 * 3.0
    assert falling_factorial(5.0, 0) == 1.0
    # rising at 1 is the ordinary factorial
    assert rising_factorial(1.0, 6) == math.factorial(6)
    with pytest.raises(ValueError):
        rising_factorial(1.0, -1)
    with pytest.raises(ValueError):
        falling_factorial(1.0, -1)


def test_pmf_sums_to_one():
    for theta in (0.5, 1.0, 2.0, 5.0):
        params = EwensParams(n=5, theta=theta)
        total = math.fsum(
            ewens_pmf(p, params) for p in enumerate_permutations(5)
        )
        assert abs(total - 1.0) <= 1e-13


def test_theta_one_is_uniform():
    params = EwensParams(n=5, theta=1.0)
    for p in enumerate_permutations(5):
        assert ewens_pmf(p, params) == pytest.approx(1.0 / 120.0, rel=1e-15)


def test_pmf_weights_by_cycle_count():
    # P(identity) = theta^n / theta^{(n)}; n = 3, theta = 2 gives 8/24
    params = EwensParams(n=3, theta=2.0)
    assert ewens_pmf(Permutation.identity(3), params) == pytest.approx(1.0 / 3.0)
    # a 3-cycle has one cycle: 2/24
    assert ewens_pmf(Permutation([2, 3, 1]), params) == pytest.approx(1.0 / 12.0)


def test_log_pmf_consistency():
    params = EwensParams(n=6, theta=1.7)
    for p in [Permutation.identity(6), Permutation([2, 3, 1, 5, 4, 6])]:
        assert math.exp(ewens_log_pmf(p, params)) == pytest.approx(
            ewens_pmf(p, params), rel=1e-13
        )


@pytest.mark.parametrize("theta", [1e-200, 1e120, 1e308])
def test_pmf_at_extreme_theta_matches_log_space(theta):
    # the direct quotient over/underflows at the ends; its log-space value
    # stands in wherever it would print 0 or raise
    params = EwensParams(n=3, theta=theta)
    # one representative per cycle type, with the size of its class
    for image, size in (([1, 2, 3], 1), ([2, 1, 3], 3), ([2, 3, 1], 2)):
        perm = Permutation(image)
        expected = math.exp(ewens_log_pmf(perm, params))
        assert ewens_pmf(perm, params) == pytest.approx(expected, rel=1e-12, abs=0)
        assert cycle_type_pmf(cycle_type(perm), params) == pytest.approx(
            size * expected, rel=1e-12, abs=0
        )


def test_pmf_size_mismatch():
    with pytest.raises(ValueError, match="params.n"):
        ewens_pmf(Permutation([1, 2]), EwensParams(n=3, theta=1.0))


def test_cycle_type_pmf_frozen():
    # one fixed point and two 2-cycles at n = 5, theta = 2
    params = EwensParams(n=5, theta=2.0)
    p = cycle_type_pmf(CycleType((1, 2, 0, 0, 0)), params)
    assert p == pytest.approx(0.16666666666666666, rel=1e-15)
    # invalid weight vectors carry no mass
    assert cycle_type_pmf(CycleType((2, 2, 0, 0, 0)), params) == 0.0


def test_cycle_type_pmf_matches_enumeration():
    params = EwensParams(n=5, theta=1.6)
    by_type = {}
    for perm in enumerate_permutations(5):
        ct = cycle_type(perm)
        by_type[ct] = by_type.get(ct, 0.0) + ewens_pmf(perm, params)
    for ct, mass in by_type.items():
        assert cycle_type_pmf(ct, params) == pytest.approx(mass, rel=1e-12)
    assert math.fsum(by_type.values()) == pytest.approx(1.0, abs=1e-13)


def test_crp_law_matches_pmf():
    """Empirical CRP frequencies agree with the exact pmf on S_4."""
    params = EwensParams(n=4, theta=1.5)
    rng = np.random.default_rng(123)
    counts = {}
    draws = 60_000
    for _ in range(draws):
        img = tuple(sample_crp_images(params, rng, 1)[0].tolist())
        counts[img] = counts.get(img, 0) + 1
    tv = 0.5 * math.fsum(
        abs(counts.get(p.image, 0) / draws - ewens_pmf(p, params))
        for p in enumerate_permutations(4)
    )
    assert tv < 0.02


def test_crp_images_shape_and_validity():
    params = EwensParams(n=7, theta=2.0)
    rng = np.random.default_rng(0)
    imgs = sample_crp_images(params, rng, 50)
    assert imgs.shape == (50, 7)
    for row in imgs:
        assert sorted(row.tolist()) == list(range(1, 8))


def masked_crp_images(params, rng, size):
    """The one-draw batch CRP step on a (size, n) int64 array, indexing only
    the rows that insert."""
    n, theta = params.n, params.theta
    img = np.tile(np.arange(1, n + 1, dtype=np.int64), (size, 1))
    rows = np.arange(size)
    for m in range(2, n + 1):
        u = rng.random(size) * (theta + m - 1) - theta
        insert = u >= 0
        r = rows[insert]
        zi = np.minimum(np.floor(u[insert]).astype(np.int64), m - 2)  # z - 1
        img[r, m - 1] = img[r, zi]
        img[r, zi] = m
    return img


@pytest.mark.parametrize(
    "n, theta, size",
    [(n, theta, size) for n in (1, 2, 8, 50) for theta in (0.3, 2.0) for size in (1, 7, 1000)]
    + [(2, 1e6, 1)],  # theta = 1e6: no row inserts, yet the step still draws its uniform
)
def test_crp_images_match_masked_reference(n, theta, size):
    params = EwensParams(n=n, theta=theta)
    r1 = np.random.default_rng([n, size, 3])
    r2 = np.random.default_rng([n, size, 3])
    got = sample_crp_images(params, r1, size)
    assert got.dtype == np.int32 and got.shape == (size, n)
    # the transpose is the C-ordered (n, size) column block itself
    assert got.T.flags.c_contiguous
    assert np.array_equal(got, masked_crp_images(params, r2, size))
    # one uniform per row and step, nothing else
    r3 = np.random.default_rng([n, size, 3])
    r3.random((n - 1) * size)
    assert r1.bit_generator.state == r2.bit_generator.state == r3.bit_generator.state


class TopUniform:
    """A generator stand-in whose every uniform is the largest double below 1."""

    top = np.nextafter(1.0, 0.0)

    def random(self, size=None):
        return self.top if size is None else np.full(size, self.top)


@pytest.mark.parametrize("theta", [0.3, 2.0])
def test_crp_clamps_insertion_point_at_rounding_edge(theta):
    n = 9
    params = EwensParams(n=n, theta=theta)
    # every step inserts after z = m - 1, which chains 1..n into one n-cycle
    cycle = tuple(range(2, n + 1)) + (1,)
    assert tuple(sample_crp_images(params, TopUniform(), 1)[0].tolist()) == cycle
    rows = sample_crp_images(params, TopUniform(), 3)
    assert [tuple(int(x) for x in row) for row in rows] == [cycle] * 3
    if theta == 0.3:
        # at m = 8 the product rounds up to theta + m - 1, so floor(u) = m - 1
        # and only the clamp keeps z on 1..m-1
        m = 8
        assert math.floor(TopUniform.top * (theta + m - 1) - theta) == m - 1


def test_constrained_prob_frozen():
    params = EwensParams(n=5, theta=2.0)
    # 1 -> 2 -> 1 closes a loop: theta / (theta+4)_(2)
    assert constrained_prob({1: 2, 2: 1}, params) == pytest.approx(
        0.06666666666666667, rel=1e-15
    )
    # 1 -> 2 -> 3 stays open: 1 / (theta+4)_(2)
    assert constrained_prob({1: 2, 2: 3}, params) == pytest.approx(
        0.03333333333333333, rel=1e-15
    )
    assert constrained_prob({}, params) == 1.0
    # two sources demanding the same image: unsatisfiable, not an error
    assert constrained_prob({1: 3, 2: 3}, params) == 0.0
    with pytest.raises(ValueError, match="outside"):
        constrained_prob({1: 6}, params)


def test_constrained_prob_matches_enumeration():
    params = EwensParams(n=5, theta=1.5)
    probes = [
        {1: 2},
        {1: 1},
        {1: 2, 3: 3},
        {1: 2, 2: 3, 3: 1},
        {1: 2, 2: 1, 3: 4, 4: 3},
        {2: 3, 4: 5},
    ]
    for pm in probes:
        brute = math.fsum(
            ewens_pmf(p, params)
            for p in enumerate_permutations(5)
            if all(p(a) == xi for a, xi in pm.items())
        )
        assert constrained_prob(pm, params) == pytest.approx(brute, rel=1e-12)


def test_conditional_remaining_prob():
    params = EwensParams(n=5, theta=2.0)
    full = {1: 2, 2: 1, 3: 4, 4: 3, 5: 5}
    # remaining cycles (3 4)(5): theta^2 / theta^{(3)}
    assert conditional_remaining_prob(full, {1: 2, 2: 1}, params) == pytest.approx(
        0.16666666666666666, rel=1e-15
    )
    # chain rule: constrained * conditional = pmf of the full permutation
    perm = Permutation([full[i] for i in range(1, 6)])
    given = {1: 2, 2: 1}
    assert constrained_prob(given, params) * conditional_remaining_prob(
        full, given, params
    ) == pytest.approx(ewens_pmf(perm, params), rel=1e-13)
    with pytest.raises(ValueError, match="contradicts"):
        conditional_remaining_prob(full, {1: 3}, params)
    with pytest.raises(ValueError, match="every label"):
        conditional_remaining_prob({1: 2, 2: 1}, {1: 2}, params)


def test_factorial_moment_frozen():
    # E[c1 (c1 - 1)] at n = 7, theta = 2: theta^2 7*6 / (8*7) = 3 exactly
    params = EwensParams(n=7, theta=2.0)
    m = (2, 0, 0, 0, 0, 0, 0)
    assert cycle_count_factorial_moment(m, params) == 3.0


def test_factorial_moment_matches_enumeration():
    params = EwensParams(n=6, theta=1.5)
    probes = [
        (1, 0, 0, 0, 0, 0),
        (2, 0, 0, 0, 0, 0),
        (0, 1, 0, 0, 0, 0),
        (1, 1, 0, 0, 0, 0),
        (0, 0, 1, 0, 0, 0),
        (2, 0, 1, 0, 0, 0),
        (0, 0, 0, 0, 0, 1),
    ]
    for m in probes:
        def g(perm, m=m):
            counts = cycle_type(perm).counts
            out = 1.0
            for j, mj in enumerate(m, start=1):
                out *= falling_factorial(counts[j - 1], mj)
            return out

        brute = math.fsum(
            g(p) * ewens_pmf(p, params) for p in enumerate_permutations(6)
        )
        assert cycle_count_factorial_moment(m, params) == pytest.approx(
            brute, rel=1e-12, abs=1e-15
        )


def test_factorial_moment_overweight_is_zero():
    params = EwensParams(n=6, theta=1.0)
    assert cycle_count_factorial_moment((7, 0, 0, 0, 0, 0), params) == 0.0
    assert cycle_count_factorial_moment((1, 0, 0, 0, 0, 1), params) == 0.0
    with pytest.raises(ValueError, match="length"):
        cycle_count_factorial_moment((1, 0), params)
    with pytest.raises(ValueError, match="nonnegative"):
        cycle_count_factorial_moment((-1, 0, 0, 0, 0, 0), params)


def test_c1_moments_frozen():
    m = c1_moments(EwensParams(n=7, theta=2.0))
    assert m == C1Moments(
        mean=1.75, factorial2=3.0, second=4.75, fourth_factorial_sq=34.0
    )


@pytest.mark.parametrize("theta", [1e80, 1e154, 1e308])
def test_c1_moments_at_huge_theta_tend_to_the_identity(theta):
    # c1 -> n as theta -> infinity; theta^k alone would overflow
    n = 7
    m = c1_moments(EwensParams(n=n, theta=theta))
    target = (n, n * (n - 1), n * n, n * n * (n - 1) * (n - 1))
    assert tuple(m.__dict__.values()) == pytest.approx(target, rel=1e-12, abs=0)


def test_c1_moments_match_enumeration():
    params = EwensParams(n=6, theta=1.5)
    m = c1_moments(params)
    def moment(g):
        return math.fsum(
            g(len(p.fixed_points())) * ewens_pmf(p, params)
            for p in enumerate_permutations(6)
        )

    assert m.mean == pytest.approx(moment(lambda c: c), rel=1e-13)
    assert m.factorial2 == pytest.approx(moment(lambda c: c * (c - 1)), rel=1e-13)
    assert m.second == pytest.approx(moment(lambda c: c * c), rel=1e-13)
    assert m.fourth_factorial_sq == pytest.approx(
        moment(lambda c: c * c * (c - 1) * (c - 1)), rel=1e-13
    )
