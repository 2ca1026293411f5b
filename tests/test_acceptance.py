"""End-to-end acceptance checks.

Every test below prints exactly one PASS/FAIL line for its criterion
(with the measured quantity and elapsed time) before asserting, so a
plain pytest run doubles as a checklist.  Tolerances are fixed here and
are not tuned to the implementation: a red line means the stated check
genuinely does not hold on this machine with these seeds.  A statistical
criterion states the probability that a correct program fails it and its
power against the departure it guards.
"""

import math
import os
import subprocess
import sys
import time

import numpy as np
from chisquare import chi2_upper_quantile, pearson_chi2

from ewens_stein.bounds import (
    KOLMOGOROV_GAP_COEFF,
    alpha1,
    alpha2,
    bound_report,
    generic_zero_bias_bounds,
    kappa1,
    kappa2,
)
from ewens_stein.coupling import SquareBiasSampler, sample_zero_bias_batch
from ewens_stein.ewens import EwensParams, c1_moments, ewens_pmf, sample_crp_images
from ewens_stein.oracle import (
    constructive_square_bias_law,
    cycle_count_factorial_moment,
    cycle_type,
    enumerate_permutations,
    exact_square_bias_law,
    exact_statistic_law,
    statistic,
)
from ewens_stein.statistic import (
    b_value,
    center,
    t_statistic,
    variance_decomposition,
)


def report(num, name, ok, detail):
    print(f"criterion {num:02d} {name}: {'PASS' if ok else 'FAIL'} — {detail}")


def random_symmetric(n, seed, integer=False):
    rng = np.random.default_rng(seed)
    if integer:
        raw = rng.integers(0, 10, size=(n, n)).astype(float)
    else:
        raw = rng.random((n, n))
    return (raw + raw.T) / 2.0 if not integer else np.triu(raw) + np.triu(raw, 1).T


def test_criterion_01_ewens_exactness():
    t0 = time.perf_counter()
    worst_sum = 0.0
    worst_uniform = 0.0
    for n in range(1, 8):
        perms = list(enumerate_permutations(n))
        for theta in (0.5, 1.0, 2.0, 5.0):
            params = EwensParams(n=n, theta=theta)
            probs = [ewens_pmf(pi.image, params) for pi in perms]
            worst_sum = max(worst_sum, abs(math.fsum(probs) - 1.0))
            if theta == 1.0:
                uniform = 1.0 / math.factorial(n)
                worst_uniform = max(
                    worst_uniform, max(abs(p / uniform - 1.0) for p in probs)
                )
    elapsed = time.perf_counter() - t0
    ok = worst_sum <= 1e-12 and worst_uniform <= 1e-12 and elapsed < 10.0
    report(1, "ewens-exactness", ok,
           f"max |sum-1| {worst_sum:.2e}, max uniform dev {worst_uniform:.2e}, {elapsed:.1f}s")
    assert ok


def test_criterion_02_moments():
    t0 = time.perf_counter()
    shapes = ((1,), (0, 1), (1, 1), (0, 0, 1), (2, 1))
    worst = 0.0

    def rel(a, b):
        scale = max(abs(a), abs(b))
        return abs(a - b) / scale if scale else 0.0

    for n in range(2, 8):
        perms = list(enumerate_permutations(n))
        for theta in (0.5, 1.0, 2.0, 5.0):
            params = EwensParams(n=n, theta=theta)
            weights = [ewens_pmf(pi.image, params) for pi in perms]
            fixed = [sum(1 for x in range(1, n + 1) if pi(x) == x) for pi in perms]
            m = c1_moments(params)
            worst = max(
                worst,
                rel(m.mean, math.fsum(w * c for w, c in zip(weights, fixed))),
                rel(m.factorial2,
                    math.fsum(w * c * (c - 1) for w, c in zip(weights, fixed))),
                rel(m.second,
                    math.fsum(w * c * c for w, c in zip(weights, fixed))),
                rel(m.fourth_factorial_sq,
                    math.fsum(w * (c * (c - 1)) ** 2 for w, c in zip(weights, fixed))),
            )
            if n < 4:
                continue
            types = [cycle_type(pi) for pi in perms]
            for shape in shapes:
                m_vec = tuple(shape) + (0,) * (n - len(shape))
                value = cycle_count_factorial_moment(m_vec, params)
                oracle = math.fsum(
                    w * math.prod(
                        math.prod(ct[j] - t for t in range(mj))
                        for j, mj in enumerate(m_vec) if mj
                    )
                    for w, ct in zip(weights, types)
                )
                worst = max(worst, rel(value, oracle))
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-12 and elapsed < 30.0
    report(2, "cycle-count-moments", ok, f"max rel dev {worst:.2e}, {elapsed:.1f}s")
    assert ok


def test_criterion_03_crp_sampler_law():
    # The sampler must draw a law within TV 0.01 of E_theta.  The plug-in TV
    # of 10^6 draws cannot gate that: its upward bias alone is ~0.0105 at
    # n = 6.  Pearson chi^2 over all n! permutations, rejected above its null
    # upper 1e-6 quantile, fails a correct sampler with probability 1e-6 per
    # (n, theta).  Since chi^2(q||p) >= 4 TV^2 (Cauchy-Schwarz), any law at
    # TV >= 0.01 has noncentrality >= 400 at 10^6 draws and is rejected with
    # probability >= 0.99996 at df 719; the departure draws below check that.
    t0 = time.perf_counter()
    draws = 1_000_000
    tv_limit = 0.01
    worst_tv = (0.0, None)
    # (chi^2 / threshold, chi^2, threshold, df, (n, theta)) at the worst case
    worst = (0.0, None, None, None, None)
    departures_rejected = 0
    for n in (5, 6):
        params_list = [(theta, EwensParams(n=n, theta=theta)) for theta in (0.5, 1.0, 2.0)]
        perms = list(enumerate_permutations(n))
        codes = []
        for pi in perms:
            code = 0
            for v in pi.image:
                code = code * (n + 1) + v
            codes.append(code)
        even = np.array([(n - pi.cycle_count()) % 2 == 0 for pi in perms])
        df = len(perms) - 1
        threshold = chi2_upper_quantile(df, 1e-6)
        for k, (theta, params) in enumerate(params_list):
            probs = np.array([ewens_pmf(pi.image, params) for pi in perms])
            rng = np.random.default_rng([30, n, k])
            images = sample_crp_images(params, rng, draws)
            enc = np.zeros(draws, dtype=np.int64)
            for col in range(n):
                enc = enc * (n + 1) + images[:, col]
            uniq, counts = np.unique(enc, return_counts=True)
            emp = dict(zip(uniq.tolist(), counts.tolist()))
            observed = np.array([emp.get(code, 0) for code in codes], dtype=float)
            tv = 0.5 * math.fsum(np.abs(observed / draws - probs))
            if tv > worst_tv[0]:
                worst_tv = (tv, (n, theta))
            chi2 = pearson_chi2(observed, probs)
            if chi2 / threshold > worst[0]:
                worst = (chi2 / threshold, chi2, threshold, df, (n, theta))
            # a law at TV exactly 0.01 whose shift is proportional to probs,
            # the shape that keeps chi^2 nearest its 4 TV^2 floor
            shifted = probs + tv_limit * np.where(
                even, probs / probs[even].sum(), -probs / probs[~even].sum()
            )
            departure = np.random.default_rng([31, n, k]).multinomial(draws, shifted)
            departures_rejected += pearson_chi2(departure, probs) > threshold
    elapsed = time.perf_counter() - t0
    ok = worst[0] <= 1.0 and departures_rejected == 6 and elapsed < 60.0
    report(3, "crp-sampler-law", ok,
           f"chi2 {worst[1]:.1f} vs upper 1e-06 quantile "
           f"{worst[2]:.1f} (df {worst[3]}) at (n, theta) = {worst[4]}, "
           f"max plug-in TV {worst_tv[0]:.5f} at {worst_tv[1]}, "
           f"TV-{tv_limit} departures rejected {departures_rejected}/6, {elapsed:.1f}s")
    assert ok


def test_criterion_04_stein_pair_identity():
    t0 = time.perf_counter()
    worst = 0.0
    for n in (6, 7):
        params = EwensParams(n=n, theta=1.0)
        perms = list(enumerate_permutations(n))
        for m_idx in range(20):
            A = center(random_symmetric(n, [40, n, m_idx]), params)
            for pi in perms:
                total = 0.0
                for i in range(1, n + 1):
                    for j in range(1, n + 1):
                        if i == j:
                            continue
                        total += b_value(
                            i, j, pi.inverse(i), pi.inverse(j), pi(i), pi(j), A
                        )
                rhs = 4.0 * (n - 1) * statistic(A, pi) - t_statistic(A, pi.image, params)
                worst = max(worst, abs(total - rhs) / max(abs(rhs), A.max_abs))
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-9 and elapsed < 120.0
    report(4, "stein-pair-identity", ok, f"max rel dev {worst:.2e}, {elapsed:.1f}s")
    assert ok


def test_criterion_05_variance_decomposition():
    t0 = time.perf_counter()
    worst = 0.0
    for n in (6, 7):
        perms = list(enumerate_permutations(n))
        for k, theta in enumerate((0.5, 1.0, 2.0)):
            params = EwensParams(n=n, theta=theta)
            A = center(random_symmetric(n, [50, n, k]), params)
            dec = variance_decomposition(A, params)
            law = exact_statistic_law(A.centered, params)
            acc = 0.0
            for pi in perms:
                y = statistic(A, pi)
                w = ewens_pmf(pi.image, params)
                for i in range(1, n + 1):
                    for j in range(1, n + 1):
                        if i == j:
                            continue
                        d = y - statistic(A, pi.conjugate_by_transposition(i, j))
                        acc += w * d * d
            oracle_ydiff = acc / (n * (n - 1))
            worst = max(
                worst,
                abs(dec.e_ydiff_sq - oracle_ydiff) / oracle_ydiff,
                abs(dec.sigma_sq - law.variance()) / law.variance(),
            )
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-9 and elapsed < 120.0
    report(5, "variance-decomposition", ok, f"max rel dev {worst:.2e}, {elapsed:.1f}s")
    assert ok


def test_criterion_06_square_bias_construction():
    t0 = time.perf_counter()
    n = 6
    worst = 0.0
    for m_idx in range(5):
        raw = random_symmetric(n, [60, m_idx])
        for theta in (1.0, 2.0):
            params = EwensParams(n=n, theta=theta)
            A = center(raw, params)
            law = constructive_square_bias_law(A, params)
            oracle = exact_square_bias_law(A.centered, params)
            worst = max(worst, law.tv_distance(oracle))
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-8 and elapsed < 300.0
    report(6, "square-bias-construction", ok, f"max TV {worst:.2e}, {elapsed:.1f}s")
    assert ok


def test_criterion_07_zero_bias_identity():
    t0 = time.perf_counter()
    n = 6
    worst = 0.0
    for m_idx in range(2):
        raw = random_symmetric(n, [70, m_idx])
        for theta in (1.0, 2.0):
            params = EwensParams(n=n, theta=theta)
            A = center(raw, params)
            dec = variance_decomposition(A, params)
            lam = 4.0 / n
            law = exact_statistic_law(A.centered, params)
            sq = constructive_square_bias_law(A, params)
            for power in (2, 3, 4):
                f = lambda y: y**power
                lhs = law.expectation(lambda y: y * f(y))
                e_f_prime = math.fsum(
                    p * (f(yd) - f(ydd)) / (yd - ydd)
                    for (yd, ydd), p in sq.atoms
                )
                e_rf = math.fsum(
                    ewens_pmf(pi.image, params)
                    * t_statistic(A, pi.image, params)
                    * f(statistic(A, pi))
                    for pi in enumerate_permutations(n)
                ) / (n * (n - 1))
                rhs = (
                    dec.sigma_sq * e_f_prime
                    - dec.e_yr / lam * e_f_prime
                    + e_rf / lam
                )
                worst = max(worst, abs(lhs - rhs) / max(abs(lhs), abs(rhs)))
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-8 and elapsed < 60.0
    report(7, "zero-bias-identity", ok, f"max rel dev {worst:.2e}, {elapsed:.1f}s")
    assert ok


def test_criterion_08_coupling_gap():
    t0 = time.perf_counter()
    per_combo = 167_000
    violations = 0
    total = 0
    worst_ratio = 0.0
    for n in (10, 50):
        for k, theta in enumerate((0.5, 1.0, 2.0)):
            params = EwensParams(n=n, theta=theta)
            A = center(random_symmetric(n, [80, n, k]), params)
            sampler = SquareBiasSampler(A, params)
            out = sample_zero_bias_batch(
                A, params, per_combo, seed=[81, n, k], sampler=sampler
            )
            gaps = np.abs(out["y_star"] - out["y_prime"])
            limit = 20.0 * A.max_abs
            violations += int((gaps > limit).sum())
            worst_ratio = max(worst_ratio, float(gaps.max()) / limit)
            total += per_combo
    elapsed = time.perf_counter() - t0
    ok = violations == 0 and total >= 1_000_000 and elapsed < 180.0
    report(8, "coupling-gap-20M", ok,
           f"{violations} violations in {total} samples, max gap/20M {worst_ratio:.3f}, {elapsed:.1f}s")
    assert ok


def test_criterion_09_bound_validity():
    t0 = time.perf_counter()
    matrices = 0
    violations = 0
    lower_checked = 0
    for n in (6, 7):
        for k, theta in enumerate((0.5, 1.0, 2.0)):
            params = EwensParams(n=n, theta=theta)
            for m_idx in range(17):
                integer = m_idx % 3 == 0
                raw = random_symmetric(n, [90, n, k, m_idx], integer=integer)
                rep = bound_report(raw, params, exact=True)
                matrices += 1
                if not rep.d1_exact <= rep.d1_upper:
                    violations += 1
                if not rep.dinf_exact <= rep.dinf_upper:
                    violations += 1
                if rep.dinf_lower is not None:
                    lower_checked += 1
                    if not rep.dinf_lower <= rep.dinf_exact:
                        violations += 1
    elapsed = time.perf_counter() - t0
    ok = violations == 0 and matrices >= 100 and elapsed < 600.0
    report(9, "bound-validity", ok,
           f"{violations} violations over {matrices} matrices "
           f"({lower_checked} with integer lower bound), {elapsed:.1f}s")
    assert ok


def test_criterion_10_constants():
    t0 = time.perf_counter()
    worst_kappa = 0.0
    alpha_ok = True
    for n in range(6, 10_001):
        p = EwensParams(n=n, theta=1.0)
        worst_kappa = max(
            worst_kappa,
            abs(kappa1(p) - math.sqrt(2.0)),
            abs(kappa2(p) - math.sqrt(7.0)),
        )
        if alpha1(p, 1.0) > 53.0 or alpha2(p, 1.0) > 50.0:
            alpha_ok = False
    grid = np.linspace(0.1, 10.0, 100)
    v1 = [alpha1(EwensParams(n=20, theta=float(t)), 1.0) for t in grid]
    v2 = [alpha2(EwensParams(n=20, theta=float(t)), 1.0) for t in grid]
    monotone = all(b > a for a, b in zip(v1, v1[1:])) and all(
        b > a for a, b in zip(v2, v2[1:])
    )
    # alpha(theta) = limit + c sqrt(theta) + O(theta), because kappa1 =
    # sqrt(E c1^2) ~ sqrt(theta).  Removing the sqrt(theta) term by
    # Richardson extrapolation over theta and theta/100 leaves the limit to
    # O(theta); the ratio of the two deviations checks the rate itself.
    theta = 1e-8
    limit2 = 20.0 * KOLMOGOROV_GAP_COEFF
    raw_dev = limit_dev = 0.0
    ratios = []
    for n in (6, 50, 10_000):
        p, q = EwensParams(n=n, theta=theta), EwensParams(n=n, theta=theta / 100)
        for alpha, limit in ((alpha1, 40.0), (alpha2, limit2)):
            a, b = alpha(p, 1.0), alpha(q, 1.0)
            raw_dev = max(raw_dev, abs(a - limit))
            limit_dev = max(limit_dev, abs((10.0 * b - a) / 9.0 - limit))
            ratios.append((a - limit) / (b - limit))
    rate_ok = all(abs(r / 10.0 - 1.0) <= 0.01 for r in ratios)
    elapsed = time.perf_counter() - t0
    ok = (
        worst_kappa <= 1e-14
        and alpha_ok
        and monotone
        and limit_dev <= 1e-6
        and rate_ok
        and elapsed < 10.0
    )
    report(10, "constants", ok,
           f"kappa dev {worst_kappa:.2e}, alpha caps {'ok' if alpha_ok else 'BROKEN'}, "
           f"monotone {'ok' if monotone else 'BROKEN'}, theta->0 at theta={theta:.0e}: "
           f"raw dev {raw_dev:.2e}, sqrt(theta)-corrected dev {limit_dev:.2e} vs 1e-06, "
           f"dev ratio theta/(theta/100) {min(ratios):.4f}..{max(ratios):.4f} "
           f"(10 within 1%), {elapsed:.1f}s")
    assert ok


def test_criterion_11_r_zero_reduction():
    t0 = time.perf_counter()
    # dyadic inputs make both evaluation orders exact, so equality is literal
    exact = all(
        generic_zero_bias_bounds(sigma, lam, gap, 0.0, 0.0, "L1")
        == 2.0 * gap / sigma
        and generic_zero_bias_bounds(sigma, lam, gap, 0.0, 0.0, "Linf")
        == KOLMOGOROV_GAP_COEFF * gap / sigma
        for sigma, lam, gap in ((2.0, 0.5, 0.5), (4.0, 0.25, 1.0), (0.5, 0.5, 8.0))
    )
    generic_close = all(
        abs(generic_zero_bias_bounds(s, l, g, 0.0, 0.0, "L1") - 2.0 * g / s)
        <= 1e-15 * (2.0 * g / s)
        for s, l, g in ((3.0, 0.4, 0.7), (1.7, 0.9, 2.3))
    )
    elapsed = time.perf_counter() - t0
    ok = exact and generic_close and elapsed < 1.0
    report(11, "r-zero-reduction", ok,
           f"dyadic equality {'exact' if exact else 'BROKEN'}, "
           f"generic within 1 ulp {'ok' if generic_close else 'BROKEN'}, {elapsed:.2f}s")
    assert ok


def test_criterion_12_reproducibility(tmp_path):
    t0 = time.perf_counter()
    jobs = [
        ["bounds", "--n", "13", "--theta", "1.3", "--samples", "200000",
         "--seed", "9", "--format", "json"],
        ["experiment", "--n-grid", "6,7", "--theta-grid", "0.5,2",
         "--samples", "100000", "--seed", "4", "--format", "csv"],
        ["experiment", "--n-grid", "7,8", "--theta-grid", "0.5,2", "--exact",
         "--samples", "100000", "--seed", "4", "--format", "csv"],
    ]
    identical = True
    for job_idx, job in enumerate(jobs):
        outputs = []
        for workers in ("1", "4", "8"):
            out = tmp_path / f"job{job_idx}_w{workers}.txt"
            env = dict(os.environ, EWENS_STEIN_THREADS=workers)
            proc = subprocess.run(
                [sys.executable, "-m", "ewens_stein.cli", *job, "--out", str(out)],
                env=env, capture_output=True, text=True,
            )
            assert proc.returncode == 0, proc.stderr
            outputs.append(out.read_bytes())
        if not (outputs[0] == outputs[1] == outputs[2]):
            identical = False
    elapsed = time.perf_counter() - t0
    ok = identical
    report(12, "reproducibility", ok,
           f"byte-identical at 1/4/8 workers: {identical}, {elapsed:.1f}s")
    assert ok
