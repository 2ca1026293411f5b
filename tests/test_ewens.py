import math
from fractions import Fraction

import numpy as np
import pytest

from ewens_stein import ewens
from ewens_stein.ewens import (
    C1Moments,
    EwensParams,
    c1_moments,
    cycle_type_pmf,
    ewens_pmf,
    falling_factorial,
    rising_factorial,
    sample_crp_images,
)
from ewens_stein.oracle import (
    Permutation,
    conditional_remaining_prob,
    constrained_prob,
    cycle_count_factorial_moment,
    cycle_type,
    enumerate_permutations,
)


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
            ewens_pmf(p.image, params) for p in enumerate_permutations(5)
        )
        assert abs(total - 1.0) <= 1e-13


def test_theta_one_is_uniform():
    params = EwensParams(n=5, theta=1.0)
    for p in enumerate_permutations(5):
        assert ewens_pmf(p.image, params) == pytest.approx(1.0 / 120.0, rel=1e-15)


def test_pmf_weights_by_cycle_count():
    # P(identity) = theta^n / theta^{(n)}; n = 3, theta = 2 gives 8/24
    params = EwensParams(n=3, theta=2.0)
    assert ewens_pmf(Permutation.identity(3).image, params) == pytest.approx(1.0 / 3.0)
    # a 3-cycle has one cycle: 2/24
    assert ewens_pmf([2, 3, 1], params) == pytest.approx(1.0 / 12.0)


def exact_pmf(theta, n, cycles):
    """theta^cycles / theta^(n) as an exact rational at the float theta."""
    x = Fraction(theta)
    return x**cycles / math.prod(x + t for t in range(n))


@pytest.mark.parametrize("theta", [1e-200, 1e120, 1e308])
def test_pmf_at_extreme_theta_matches_log_space(theta):
    # the direct quotient over/underflows at the ends; the exact value
    # stands in wherever it would print 0 or raise
    params = EwensParams(n=3, theta=theta)
    # one representative per cycle type, with the size of its class
    for image, size in (([1, 2, 3], 1), ([2, 1, 3], 3), ([2, 3, 1], 2)):
        perm = Permutation(image)
        expected = float(exact_pmf(theta, 3, perm.cycle_count()))
        assert ewens_pmf(perm.image, params) == pytest.approx(expected, rel=1e-12, abs=0)
        assert cycle_type_pmf(cycle_type(perm), params) == pytest.approx(
            size * expected, rel=1e-12, abs=0
        )


@pytest.mark.parametrize(
    "n, theta",
    [(3, 1e120), (3, 1e200), (3, 1e308), (5, 1e70), (8, 1e40), (20, 1e16), (20, 1e300)],
)
def test_pmf_past_the_direct_route_is_correctly_rounded(n, theta):
    # theta^(n) overflows here, so both pmfs leave the direct quotient; the
    # reference is the exact rational value at the float theta, and 0 where
    # it lies below half the smallest subnormal
    params = EwensParams(n=n, theta=theta)
    exact_theta = Fraction(theta)
    rising = math.prod(exact_theta + t for t in range(n))
    assert not math.isfinite(rising_factorial(theta, n))
    # each permutation with the size of its cycle-type class
    for perm, size in (
        (Permutation.identity(n), 1),
        (Permutation.from_cycles(n, [(1, 2)]), n * (n - 1) // 2),
        (Permutation.from_cycles(n, [tuple(range(1, n + 1))]), math.factorial(n - 1)),
    ):
        p_exact = exact_theta ** perm.cycle_count() / rising
        for got, want in (
            (ewens_pmf(perm.image, params), float(p_exact)),
            (cycle_type_pmf(cycle_type(perm), params), float(size * p_exact)),
        ):
            assert got == want, (perm.image, got, want)


def ulps_off(got, want):
    """|got - want| in units in the last place of want rounded to a float."""
    return abs(Fraction(got) - want) / Fraction(math.ulp(float(want)))


@pytest.mark.parametrize("n", [1, 2, 7, 1000])
@pytest.mark.parametrize("theta", [0.3, 1.0, 2.5, 1e120])
def test_rising_product_tree_is_the_sequential_product(n, theta):
    a, b = theta.as_integer_ratio()
    assert ewens._rising_product(a, b, n) == math.prod(a + t * b for t in range(n))


@pytest.mark.parametrize("n", [21, 50, 150, 171, 300])
@pytest.mark.parametrize("theta", [0.001, 0.5, 1.0, 1e5, 1e120])
def test_pmf_past_n_20_is_accurate(n, theta, monkeypatch):
    # one route at every n: the direct float quotient, within 64 ulps of the
    # exact value, and the exact redo, correctly rounded, wherever a float
    # step leaves the normal range (n! itself stops being a float at 171)
    redone = []

    def spy(*args):
        redone.append(args)
        return exact_redo(*args)

    exact_redo = ewens._exact_pmf
    monkeypatch.setattr(ewens, "_exact_pmf", spy)
    params = EwensParams(n=n, theta=theta)
    for perm, size in (
        (Permutation.identity(n), 1),
        (Permutation.from_cycles(n, [(1, 2)]), n * (n - 1) // 2),
        (Permutation.from_cycles(n, [tuple(range(1, n + 1))]), math.factorial(n - 1)),
    ):
        p_exact = exact_pmf(theta, n, perm.cycle_count())
        for pmf, arg, want in (
            (ewens_pmf, perm.image, p_exact),
            (cycle_type_pmf, cycle_type(perm), size * p_exact),
        ):
            redone.clear()
            got = pmf(arg, params)
            if redone:
                assert got == float(want), (pmf.__name__, perm.cycles()[:2], got)
            else:
                assert ulps_off(got, want) <= 64, (pmf.__name__, perm.cycles()[:2], got)


@pytest.mark.parametrize("n, theta", [(2, 1e-160), (3, 1e-105), (20, 1e-15)])
def test_pmf_with_a_subnormal_step_stays_accurate(n, theta):
    # theta^c, or a cycle-type factor theta^c / (j^c c!), is subnormal here
    # while the pmf itself is normal: the direct quotient would carry the
    # subnormal's lost bits into a relative error near 1e-5
    params = EwensParams(n=n, theta=theta)
    identity = Permutation.identity(n)
    want = exact_pmf(theta, n, n)
    assert ulps_off(ewens_pmf(identity.image, params), want) <= 64
    assert ulps_off(cycle_type_pmf(cycle_type(identity), params), want) <= 64


def test_pmf_size_mismatch():
    with pytest.raises(ValueError, match="params.n"):
        ewens_pmf([1, 2], EwensParams(n=3, theta=1.0))
    with pytest.raises(ValueError, match="params.n"):
        cycle_type_pmf((1, 1), EwensParams(n=3, theta=1.0))


@pytest.mark.parametrize(
    "images, message",
    [
        ([1, 1, 2], "not a bijection: label 1 appears twice"),
        ([0, 1, 2], r"image label 0 is outside \[1, 3\]"),
        ([1, 2, 4], r"image label 4 is outside \[1, 3\]"),
    ],
)
def test_ewens_pmf_rejects_a_non_bijection(images, message):
    with pytest.raises(ValueError, match=message):
        ewens_pmf(images, EwensParams(n=3, theta=1.0))


def test_cycle_type_pmf_frozen():
    # one fixed point and two 2-cycles at n = 5, theta = 2
    params = EwensParams(n=5, theta=2.0)
    p = cycle_type_pmf((1, 2, 0, 0, 0), params)
    assert p == pytest.approx(0.16666666666666666, rel=1e-15)
    # invalid weight vectors carry no mass
    assert cycle_type_pmf((2, 2, 0, 0, 0), params) == 0.0


def test_cycle_type_pmf_matches_enumeration():
    params = EwensParams(n=5, theta=1.6)
    by_type = {}
    for perm in enumerate_permutations(5):
        ct = cycle_type(perm)
        by_type[ct] = by_type.get(ct, 0.0) + ewens_pmf(perm.image, params)
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
        abs(counts.get(p.image, 0) / draws - ewens_pmf(p.image, params))
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
            ewens_pmf(p.image, params)
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
    ) == pytest.approx(ewens_pmf(perm.image, params), rel=1e-13)
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
            counts = cycle_type(perm)
            out = 1.0
            for j, mj in enumerate(m, start=1):
                out *= falling_factorial(counts[j - 1], mj)
            return out

        brute = math.fsum(
            g(p) * ewens_pmf(p.image, params) for p in enumerate_permutations(6)
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
            g(len(p.fixed_points())) * ewens_pmf(p.image, params)
            for p in enumerate_permutations(6)
        )

    assert m.mean == pytest.approx(moment(lambda c: c), rel=1e-13)
    assert m.factorial2 == pytest.approx(moment(lambda c: c * (c - 1)), rel=1e-13)
    assert m.second == pytest.approx(moment(lambda c: c * c), rel=1e-13)
    assert m.fourth_factorial_sq == pytest.approx(
        moment(lambda c: c * c * (c - 1) * (c - 1)), rel=1e-13
    )
