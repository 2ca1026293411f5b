import itertools
import math
from fractions import Fraction

import numpy as np
import pytest

from ewens_stein.bounds import remainder_bounds
from ewens_stein.ewens import EwensParams, ewens_pmf
from ewens_stein.oracle import (
    CASE_LABELS,
    Permutation,
    _case_sums_direct,
    classify,
    construct_dagger,
    enumerate_permutations,
    exact_expectation,
    exact_remainder,
    exact_statistic_law,
    iter_case_configs,
    statistic,
)
from ewens_stein.statistic import (
    DegenerateError,
    _SQUARE_SUMS,
    SQUARE_BIAS_BUCKETS,
    ScoreMatrix,
    _bucket_factors,
    _bucket_weights,
    _case_constraints,
    _distinct_square_sum,
    _pair_sums,
    _square_sum_coefficients,
    b_value,
    center,
    grand_mean,
    sigma_squared,
    t_statistic,
    variance_decomposition,
)

# a fixed symmetric integer matrix: entry (i, j) = (i+1)(j+1) mod 7
INT_MATRIX = np.array(
    [
        [1, 2, 3, 4, 5, 6],
        [2, 4, 6, 1, 3, 5],
        [3, 6, 2, 5, 1, 4],
        [4, 1, 5, 2, 6, 3],
        [5, 3, 1, 6, 4, 2],
        [6, 5, 4, 3, 2, 1],
    ],
    dtype=float,
)


def random_centered(n, theta, seed):
    rng = np.random.default_rng(seed)
    raw = rng.random((n, n))
    return center((raw + raw.T) / 2.0, EwensParams(n=n, theta=theta))


def test_grand_mean_frozen():
    assert grand_mean(INT_MATRIX, EwensParams(n=6, theta=1.0)) == 3.5
    assert grand_mean(INT_MATRIX, EwensParams(n=6, theta=2.0)) == pytest.approx(
        10.0 / 3.0, rel=1e-15
    )


def test_grand_mean_is_mean_of_statistic():
    # n * grand_mean = E[Y] on the uncentered matrix
    for theta in (0.5, 1.0, 2.0):
        params = EwensParams(n=6, theta=theta)
        law = exact_statistic_law(INT_MATRIX, params)
        assert law.mean() == pytest.approx(6.0 * grand_mean(INT_MATRIX, params), rel=1e-13)


def test_center_is_idempotent_and_zero_mean():
    params = EwensParams(n=6, theta=1.5)
    A = center(INT_MATRIX, params)
    assert isinstance(A, ScoreMatrix)
    assert grand_mean(A.centered, params) == pytest.approx(0.0, abs=1e-14)
    again = center(A.centered, params)
    assert np.allclose(again.centered, A.centered, atol=1e-15)
    assert A.max_abs == np.abs(A.centered).max()
    assert A.is_integer  # built from integer entries
    assert not random_centered(6, 1.0, 0).is_integer


def test_matrix_validation():
    params = EwensParams(n=6, theta=1.0)
    with pytest.raises(ValueError, match="square"):
        center(np.ones((2, 3)), params)
    bad = INT_MATRIX.copy()
    bad[0, 1] += 0.5
    with pytest.raises(ValueError, match=r"\(1, 2\)"):
        center(bad, params)
    with pytest.raises(ValueError, match="params.n"):
        center(np.ones((5, 5)), params)


def test_statistic_frozen():
    pi = Permutation([2, 3, 1, 5, 4, 6])
    A1 = center(INT_MATRIX, EwensParams(n=6, theta=1.0))
    assert statistic(A1, pi) == 3.0
    A2 = center(INT_MATRIX, EwensParams(n=6, theta=2.0))
    assert statistic(A2, pi) == pytest.approx(4.0, rel=1e-13)


def test_t_statistic_frozen():
    pi = Permutation([2, 3, 1, 5, 4, 6])
    params1 = EwensParams(n=6, theta=1.0)
    assert t_statistic(center(INT_MATRIX, params1), pi.image, params1) == -16.0
    params2 = EwensParams(n=6, theta=2.0)
    assert t_statistic(center(INT_MATRIX, params2), pi.image, params2) == pytest.approx(
        4.0, rel=1e-12
    )


def test_t_statistic_has_zero_mean():
    for theta in (0.5, 1.0, 2.0):
        params = EwensParams(n=6, theta=theta)
        A = center(INT_MATRIX, params)
        mean_t = exact_expectation(lambda p: t_statistic(A, p.image, params), params)
        assert mean_t == pytest.approx(0.0, abs=1e-11)


def test_classify_cases():
    # pi = (1)(2 3)(4 5 6): fixed point, 2-cycle, 3-cycle
    pi = Permutation.from_cycles(6, [(2, 3), (4, 5, 6)])
    assert classify(2, 3, pi) == "A0_2"  # pi(2) = 3, pi(3) = 2
    assert classify(1, 2, pi) == "A1"  # i is a fixed point
    assert classify(4, 1, pi) == "A2"  # j is a fixed point
    assert classify(5, 6, pi) == "A3"  # pi maps i onto j
    assert classify(6, 5, pi) == "A4"  # pi maps j onto i
    assert classify(2, 4, pi) == "A5_2"  # |2| = 2, |4| = 3
    assert classify(4, 2, pi) == "A5_3"
    assert classify(4, 5, pi) == "A3"
    pi2 = Permutation.from_cycles(6, [(1, 2), (3, 4), (5, 6)])
    assert classify(1, 3, pi2) == "A5_1"
    pi3 = Permutation.from_cycles(6, [(1, 2, 3), (4, 5, 6)])
    assert classify(1, 4, pi3) == "A5_4"
    ident = Permutation.identity(6)
    assert classify(1, 2, ident) == "A0_1"
    with pytest.raises(ValueError, match="distinct labels"):
        classify(3, 3, pi)


def test_classify_covers_every_pair():
    counts = dict.fromkeys(CASE_LABELS, 0)
    for pi in enumerate_permutations(5):
        for i in range(1, 6):
            for j in range(1, 6):
                if i != j:
                    counts[classify(i, j, pi)] += 1
    assert sum(counts.values()) == 120 * 20
    assert all(c > 0 for c in counts.values())


def test_b_value_is_the_conjugation_difference():
    """b(i, j, pi) must equal Y(pi) - Y(tau pi tau) in every case."""
    rng = np.random.default_rng(8)
    for n, theta in ((6, 1.0), (7, 1.8)):
        raw = rng.random((n, n))
        A = center((raw + raw.T) / 2.0, EwensParams(n=n, theta=theta))
        for _ in range(60):
            img = rng.permutation(np.arange(1, n + 1))
            pi = Permutation(img.tolist())
            i, j = rng.choice(np.arange(1, n + 1), size=2, replace=False)
            i, j = int(i), int(j)
            got = b_value(i, j, pi.inverse(i), pi.inverse(j), pi(i), pi(j), A)
            expected = statistic(A, pi) - statistic(
                A, pi.conjugate_by_transposition(i, j)
            )
            assert got == pytest.approx(expected, abs=1e-10)


def test_b_value_zero_on_closed_patterns():
    A = random_centered(8, 1.0, 5)
    # A0: transposing two fixed points or a 2-cycle changes nothing
    assert b_value(1, 2, 1, 2, 1, 2, A) == 0.0
    assert b_value(1, 2, 2, 1, 2, 1, A) == 0.0
    # symmetric matrices kill the 3-cycle (A3, A4) and 4-cycle (A5_4)
    # patterns exactly
    assert b_value(1, 2, 3, 1, 2, 3, A) == 0.0
    assert b_value(1, 2, 2, 3, 3, 1, A) == 0.0
    assert b_value(1, 2, 3, 4, 4, 3, A) == 0.0


def test_b_value_is_correctly_rounded():
    """b is the exact signed sum of its entries, rounded once: for every
    configuration at n = 6 and 7, on a continuous and an integer-valued
    matrix, b_value equals the Fraction sum of c[x, C(x)] - c[tau x, tau C(x)]
    over the constraint map C, tau = (i j), converted to float."""
    rng = np.random.default_rng(17)
    for n in (6, 7):
        params = EwensParams(n=n, theta=1.3)
        raw = rng.random((n, n))
        ints = rng.integers(-9, 10, (n, n))
        for sym in ((raw + raw.T) / 2.0, ints + ints.T):
            A = center(sym, params)
            c = A.centered
            for i in range(1, n + 1):
                for j in range(1, n + 1):
                    if i == j:
                        continue
                    tau = {i: j, j: i}
                    for _, r, s, k, l in iter_case_configs(n, i, j):
                        C = _case_constraints(n, i, j, r, s, k, l)
                        exact = sum(
                            Fraction(c[x - 1, y - 1])
                            - Fraction(c[tau.get(x, x) - 1, tau.get(y, y) - 1])
                            for x, y in C.items()
                        )
                        got = b_value(i, j, r, s, k, l, A)
                        assert got == float(exact), (n, i, j, r, s, k, l)


def test_b_value_rejects_inconsistent_arguments():
    """b_value and construct_dagger accept exactly the tuples some
    permutation realizes: labels in [1, n], i != j, and a constraint map
    {r: i, s: j, i: k, j: l} that is a consistent injection."""
    n = 6
    A = random_centered(n, 1.0, 6)
    assert _case_constraints(n, 1, 2, 3, 4, 3, 5) == {3: 1, 4: 2, 1: 3, 2: 5}
    with pytest.raises(ValueError, match="send two labels to one"):
        b_value(1, 2, 3, 4, 1, 5, A)  # 3 and 1 both map to 1
    with pytest.raises(ValueError, match="inconsistent constraints"):
        b_value(1, 2, 1, 4, 3, 5, A)  # 1 maps to 1 and to 3
    with pytest.raises(ValueError, match="must be distinct"):
        b_value(3, 3, 1, 1, 4, 4, A)
    # the accepted set of one pair against enumeration
    i, j = 2, 5
    realized = {
        (pi.inverse(i), pi.inverse(j), pi(i), pi(j))
        for pi in enumerate_permutations(n)
    }
    ident = Permutation.identity(n)
    accepted = set()
    for tup in itertools.product(range(1, n + 1), repeat=4):
        try:
            b_value(i, j, *tup, A)
        except ValueError:
            with pytest.raises(ValueError):
                construct_dagger(ident, (i, j, *tup))
            continue
        construct_dagger(ident, (i, j, *tup))
        accepted.add(tup)
    assert len(accepted) == 210
    assert accepted == realized


@pytest.mark.parametrize("label", [0, 7])
@pytest.mark.parametrize("position", range(6))
def test_b_value_rejects_labels_outside_the_index_range(label, position):
    # a label 0 would wrap to the matrix's last row, 7 would overrun it
    A = random_centered(6, 1.0, 6)
    args = [1, 2, 3, 4, 3, 5]
    args[position] = label
    with pytest.raises(ValueError, match=r"must lie in \[1, 6\]"):
        b_value(*args, A)


def test_sum_of_b_matches_statistic_identity():
    """sum_{i != j} b(i, j, pi) = 4(n-1) Y'(pi) - T(pi) for every pi."""
    n = 6
    for theta, seed in ((1.0, 0), (2.3, 1)):
        params = EwensParams(n=n, theta=theta)
        A = random_centered(n, theta, seed)
        for pi in enumerate_permutations(n):
            total = math.fsum(
                b_value(i, j, pi.inverse(i), pi.inverse(j), pi(i), pi(j), A)
                for i in range(1, n + 1)
                for j in range(1, n + 1)
                if i != j
            )
            rhs = 4.0 * (n - 1) * statistic(A, pi) - t_statistic(A, pi.image, params)
            assert total == pytest.approx(rhs, abs=1e-9 * max(1.0, abs(rhs)))


def test_iter_case_configs_agree_with_realized_permutations():
    """The config stream must be exactly the set of (case, r, s, k, l)
    shapes that permutations actually realize, pair by pair, and the case
    must be a function of (r, s, k, l): dropping it loses no
    configuration of any pair at n = 6 and 7."""
    n = 6
    i, j = 2, 5
    iterated = set(iter_case_configs(n, i, j))
    realized = set()
    for pi in enumerate_permutations(n):
        case = classify(i, j, pi)
        if case in ("A0_1", "A0_2"):
            continue
        realized.add((case, pi.inverse(i), pi.inverse(j), pi(i), pi(j)))
    assert iterated == realized
    for n in (6, 7):
        for i, j in itertools.permutations(range(1, n + 1), 2):
            configs = list(iter_case_configs(n, i, j))
            assert len({config[1:] for config in configs}) == len(configs)


def test_variance_decomposition_frozen():
    params = EwensParams(n=6, theta=1.0)
    dec = variance_decomposition(center(INT_MATRIX, params), params)
    assert dec.sigma_sq == pytest.approx(21.0, rel=1e-13)
    assert dec.e_ydiff_sq == pytest.approx(23.893333333333334, rel=1e-13)
    assert dec.e_yr == pytest.approx(2.0533333333333332, rel=1e-13)


def test_variance_matches_exact_law():
    """Closed-form sigma^2 against the enumerated law, and E[Y'R] from the
    decomposition identity against enumerated E[Y'T]/(n(n-1))."""
    for n in (6, 7, 8):
        for k, theta in enumerate((0.3, 1.0, 2.5)):
            params = EwensParams(n=n, theta=theta)
            A = random_centered(n, theta, [60, n, k])
            sigma_sq = sigma_squared(A, params)
            law = exact_statistic_law(A.centered, params)
            assert sigma_sq == pytest.approx(law.variance(), rel=1e-12)
            dec = variance_decomposition(A, params)
            assert dec.sigma_sq == sigma_sq
            e_yt = exact_expectation(
                lambda pi: statistic(A, pi) * t_statistic(A, pi.image, params), params
            )
            assert abs(dec.e_yr - e_yt / (n * (n - 1))) <= 1e-10 * sigma_sq
    # and on the integer matrix
    for theta in (0.5, 1.0, 2.0):
        params = EwensParams(n=6, theta=theta)
        A = center(INT_MATRIX, params)
        law = exact_statistic_law(A.centered, params)
        assert sigma_squared(A, params) == pytest.approx(law.variance(), rel=1e-12)


def test_ydiff_matches_conjugation_enumeration():
    """E(Y'-Y'')^2 from the case sums vs direct conjugation enumeration."""
    n = 6
    params = EwensParams(n=n, theta=1.5)
    A = random_centered(n, 1.5, 21)
    dec = variance_decomposition(A, params)
    brute = 0.0
    for pi in enumerate_permutations(n):
        p = ewens_pmf(pi.image, params) / (n * (n - 1))
        y1 = statistic(A, pi)
        for i in range(1, n + 1):
            for j in range(1, n + 1):
                if i != j:
                    y2 = statistic(A, pi.conjugate_by_transposition(i, j))
                    brute += p * (y1 - y2) ** 2
    assert dec.e_ydiff_sq == pytest.approx(brute, rel=1e-12)


def test_direct_and_closed_case_sums_agree():
    for n in (6, 7, 8):
        params = EwensParams(n=n, theta=1.7)
        A = random_centered(n, 1.7, 30 + n)
        direct = _case_sums_direct(A, params)
        # the sampler's bucket weights, grouped by case and multiplied
        # back by their (theta+n-1)_(k)
        factors = _bucket_factors(params)
        weights = _bucket_weights(_pair_sums(A.centered)[1], factors)
        closed = {}
        for (bucket, *_), (_, _, falling), weight in zip(
            SQUARE_BIAS_BUCKETS, factors, weights
        ):
            case = bucket.partition(":")[0]
            closed[case] = closed.get(case, 0.0) + float(weight.sum()) * falling
        assert set(direct) == set(closed)
        for case, value in direct.items():
            assert closed[case] == pytest.approx(value, rel=1e-11, abs=1e-13)


def test_variance_guards():
    params = EwensParams(n=5, theta=1.0)
    A = center(np.ones((5, 5)) + np.eye(5), params)
    with pytest.raises(ValueError, match="n >= 6"):
        variance_decomposition(A, params)
    params6 = EwensParams(n=6, theta=1.0)
    flat = center(np.full((6, 6), 2.5), params6)
    with pytest.raises(DegenerateError, match="degenerate variance"):
        variance_decomposition(flat, params6)
    with pytest.raises(DegenerateError, match="degenerate variance"):
        sigma_squared(flat, params6)


def test_variance_rejects_matrix_centered_under_other_theta():
    # centered at theta = 1, E[Y] != 0 under theta = 2, so E[Y^2] != Var(Y)
    A = random_centered(7, 1.0, 40)
    params = EwensParams(n=7, theta=2.0)
    for fn in (sigma_squared, variance_decomposition):
        with pytest.raises(ValueError, match=r"centered under theta = 1\.0 but params\.theta = 2\.0"):
            fn(A, params)


def test_exact_remainder_properties():
    params = EwensParams(n=6, theta=1.5)
    A = center(INT_MATRIX, params)
    rem = exact_remainder(A, params)
    assert rem.lam == pytest.approx(4.0 / 6.0)
    law = exact_statistic_law(A.centered, params)
    # E[R(Y')] = E[T]/(n(n-1)) = 0
    mean_r = math.fsum(
        rem.r_of(y) * p for y, p in zip(law.values, law.probs)
    )
    assert mean_r == pytest.approx(0.0, abs=1e-12)
    # E[Y' R(Y')] agrees with the decomposition
    dec = variance_decomposition(A, params)
    e_yr = math.fsum(
        y * rem.r_of(y) * p for y, p in zip(law.values, law.probs)
    )
    assert e_yr == pytest.approx(dec.e_yr, rel=1e-11)
    with pytest.raises(KeyError):
        rem.r_of(1e9)


def test_remainder_linearity_of_stein_pair():
    """E[Y''|Y' = y] = (1 - lambda) y + R(y) atom by atom."""
    n = 6
    params = EwensParams(n=n, theta=1.2)
    A = random_centered(n, 1.2, 40)
    rem = exact_remainder(A, params)
    cond = {}
    for pi in enumerate_permutations(n):
        p = ewens_pmf(pi.image, params)
        y1 = statistic(A, pi)
        for i in range(1, n + 1):
            for j in range(1, n + 1):
                if i == j:
                    continue
                y2 = statistic(A, pi.conjugate_by_transposition(i, j))
                key = round(y1, 11)
                mass, acc = cond.get(key, (0.0, 0.0))
                cond[key] = (mass + p, acc + p * y2)
    lam = 4.0 / n
    for y, (mass, acc) in cond.items():
        mean_y2 = acc / mass
        assert mean_y2 == pytest.approx(
            (1.0 - lam) * y + rem.r_of(y, tol=1e-8), abs=1e-10
        )


def test_remainder_bounds_hold_at_small_n():
    """The closed-form remainder bounds dominate the exact quantities."""
    for theta in (0.5, 1.0, 2.0):
        params = EwensParams(n=6, theta=theta)
        A = center(INT_MATRIX, params)
        dec = variance_decomposition(A, params)
        sigma = math.sqrt(dec.sigma_sq)
        e_abs_r_bound, e_yr_bound = remainder_bounds(params, A.max_abs, sigma)
        rem = exact_remainder(A, params)
        law = exact_statistic_law(A.centered, params)
        e_abs_r = math.fsum(
            abs(rem.r_of(y)) * p for y, p in zip(law.values, law.probs)
        )
        assert e_abs_r <= e_abs_r_bound
        assert abs(dec.e_yr) <= e_yr_bound


def test_remainder_bounds_validation():
    with pytest.raises(ValueError, match="n >= 6"):
        remainder_bounds(EwensParams(n=5, theta=1.0), 1.0, 1.0)
    with pytest.raises(ValueError, match="sigma"):
        remainder_bounds(EwensParams(n=6, theta=1.0), 1.0, 0.0)
    with pytest.raises(ValueError, match="M must be nonnegative"):
        remainder_bounds(EwensParams(n=6, theta=1.0), -1.0, 1.0)


def test_statistic_size_mismatch():
    A = random_centered(6, 1.0, 50)
    with pytest.raises(ValueError):
        statistic(A, Permutation([1, 2, 3]))


@pytest.mark.parametrize("eps", [eps for _, eps in _SQUARE_SUMS.values()] + [()])
@pytest.mark.parametrize("m", [4, 6, 7])
def test_distinct_square_sum_matches_brute_force(m, eps):
    """The closed-form square sum equals the sum of (alpha + sum_t eps_t
    u_{x_t})^2 over distinct tuples, and its coordinate-1 weights, one per
    first label, add back up to it: the chain rule the sampler draws by."""
    rng = np.random.default_rng(100 * m + len(eps))
    u = rng.uniform(-1.0, 1.0, m)
    q1, q2 = float(u.sum()), float((u * u).sum())
    for alpha in (0.0, float(rng.uniform(-2.0, 2.0))):
        brute = math.fsum(
            (alpha + sum(e * u[x] for e, x in zip(eps, xs))) ** 2
            for xs in itertools.permutations(range(m), len(eps))
        )
        closed = _distinct_square_sum(m, q1, q2, alpha, eps)
        assert closed == pytest.approx(brute, rel=1e-12)
        if eps:
            first = _distinct_square_sum(
                m - 1, q1 - u, q2 - u * u, alpha + eps[0] * u, eps[1:]
            )
            assert math.fsum(first) == pytest.approx(closed, rel=1e-12)


@pytest.mark.parametrize("m", [3, 8, 47])
def test_square_sum_coefficients_are_the_kernel_in_u(m):
    """c0 + c1 u + c2 u^2 is the kernel with one label of value u drawn for
    a coordinate of sign e ahead of the tail: every coordinate and tail of
    every square sum, checked at every label of a random pool."""
    rng = np.random.default_rng(m)
    for name, (_, eps) in _SQUARE_SUMS.items():
        for t, e in enumerate(eps):
            tail = eps[t + 1 :]
            u = rng.uniform(-2.0, 2.0, m + 1)
            q1, q2 = float(u.sum()), float((u * u).sum())
            for alpha in (0.0, float(rng.uniform(-3.0, 3.0))):
                c0, c1, c2 = _square_sum_coefficients(m, q1, q2, alpha, e, tail)
                direct = _distinct_square_sum(m, q1 - u, q2 - u * u, alpha + e * u, tail)
                terms = np.abs(c0) + np.abs(c1 * u) + np.abs(c2 * u * u)
                gap = np.abs(c0 + c1 * u + c2 * u * u - direct)
                assert np.all(gap <= 1e-12 * terms), (name, t, alpha)
