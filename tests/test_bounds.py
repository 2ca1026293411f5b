import dataclasses
import json
import math
import tracemalloc

import numpy as np
import pytest

from ewens_stein.bounds import (
    CSV_COLUMNS,
    KOLMOGOROV_GAP_COEFF,
    BoundReport,
    alpha1,
    alpha2,
    bound_report,
    generic_zero_bias_bounds,
    integer_lower_bound,
    kappa1,
    kappa2,
)
from ewens_stein.ewens import EwensParams, falling_factorial

INT_MATRIX = np.array(
    [[(i + 1) * (j + 1) % 7 for j in range(6)] for i in range(6)], dtype=float
)


def test_kappa_frozen_at_theta_one():
    # theta = 1 collapses both to n-free constants: sqrt(2) and sqrt(7)
    p = EwensParams(n=10, theta=1.0)
    assert kappa1(p) == 1.4142135623730951
    assert kappa2(p) == 2.6457513110645907
    for n in (6, 100, 10_000):
        q = EwensParams(n=n, theta=1.0)
        assert abs(kappa1(q) - math.sqrt(2.0)) <= 1e-14
        assert abs(kappa2(q) - math.sqrt(7.0)) <= 1e-14


def test_kappa_against_moment_definition():
    from ewens_stein.ewens import c1_moments

    for n, theta in ((7, 0.5), (9, 2.0), (6, 5.0)):
        p = EwensParams(n=n, theta=theta)
        m = c1_moments(p)
        assert kappa1(p) == pytest.approx(math.sqrt(m.second), rel=1e-14)
        # E[c1^2 (c1-1)^2] = E[(c1)_2 ((c1)_2 + 2 c1 - 2)]... easiest via
        # the factorial moments: c1^2(c1-1)^2 = (c1)_4 + 4(c1)_3 + 2(c1)_2
        assert kappa2(p) == pytest.approx(
            math.sqrt(m.fourth_factorial_sq), rel=1e-14
        )


def test_alpha_frozen_values():
    p = EwensParams(n=10, theta=1.0)
    assert alpha1(p, 1.0) == 52.01901702502924
    assert alpha2(p, 1.0) == 48.81605002136689
    assert alpha1(EwensParams(n=10, theta=2.0), 1.0) == 62.5856111872273
    # both scale linearly in M
    assert alpha1(p, 2.5) == pytest.approx(2.5 * alpha1(p, 1.0), rel=1e-15)
    assert alpha2(p, 2.5) == pytest.approx(2.5 * alpha2(p, 1.0), rel=1e-15)


def test_alpha_uniform_bounds_at_theta_one():
    for n in (6, 7, 10, 50, 100, 1000, 10_000):
        p = EwensParams(n=n, theta=1.0)
        assert alpha1(p, 1.0) <= 53.0
        assert alpha2(p, 1.0) <= 50.0


def test_alpha_monotone_in_theta():
    thetas = np.linspace(0.01, 8.0, 100)
    for n in (6, 25):
        v1 = [alpha1(EwensParams(n=n, theta=float(t)), 1.0) for t in thetas]
        v2 = [alpha2(EwensParams(n=n, theta=float(t)), 1.0) for t in thetas]
        assert all(b > a for a, b in zip(v1, v1[1:]))
        assert all(b > a for a, b in zip(v2, v2[1:]))


def test_alpha_small_theta_limits():
    # as theta -> 0 only the gap terms survive; the approach is at rate
    # sqrt(theta) because kappa1 = sqrt(E c1^2) ~ sqrt(theta), so at
    # theta = 1e-8 the residual sits near kappa1 * sqrt(2/pi) * 3 ~ 2.4e-4
    limit2 = 20.0 * (1.0 + 1.0 / math.sqrt(2 * math.pi) + math.sqrt(2 * math.pi) / 4.0)
    p = EwensParams(n=50, theta=1e-8)
    assert 1e-5 <= alpha1(p, 1.0) - 40.0 <= 1e-3
    assert 1e-5 <= alpha2(p, 1.0) - limit2 <= 1e-3
    q = EwensParams(n=50, theta=1e-14)
    assert alpha1(q, 1.0) == pytest.approx(40.0, abs=1e-6)
    assert alpha2(q, 1.0) == pytest.approx(limit2, abs=1e-6)
    assert KOLMOGOROV_GAP_COEFF == pytest.approx(limit2 / 20.0, rel=1e-15)


def test_alpha_argument_guards():
    with pytest.raises(ValueError, match="n >= 6"):
        alpha1(EwensParams(n=5, theta=1.0), 1.0)
    with pytest.raises(ValueError, match="nonnegative"):
        alpha2(EwensParams(n=6, theta=1.0), -0.5)


def test_generic_bounds_reduce_to_classic():
    # with no remainder the three-term bounds collapse to the first term
    sigma, lam, delta = 3.0, 0.5, 0.7
    assert generic_zero_bias_bounds(sigma, lam, delta, 0.0, 0.0, "L1") == (
        2.0 * delta / sigma
    )
    assert generic_zero_bias_bounds(sigma, lam, delta, 0.0, 0.0, "Linf") == (
        KOLMOGOROV_GAP_COEFF * delta / sigma
    )


def test_generic_bounds_reproduce_alpha():
    """Feeding the rounded remainder estimates into the generic bounds and
    multiplying back by sigma must land on alpha1/alpha2 exactly (their
    derivation is precisely this substitution)."""
    M = 1.3
    for n in (6, 10, 47, 1000):
        for theta in (0.5, 1.0, 2.0, 5.0):
            p = EwensParams(n=n, theta=theta)
            lam = 4.0 / n
            k1, k2 = kappa1(p), kappa2(p)
            sigma = 3.7
            e_yr = lam * sigma * M * (
                3.0 * k1 + 1.2 * theta + (k1 * (theta + 1.0) + k2) / (n - 1.0)
            )
            e_absr = lam * (
                0.6 * theta * M * (6.0 * n + 4.0 * theta - 5.0) / (theta + n - 1.0)
                + 0.5 * theta * theta * M * n / falling_factorial(theta + n - 1.0, 2)
            )
            got1 = sigma * generic_zero_bias_bounds(sigma, lam, 20.0 * M, e_yr, e_absr, "L1")
            got2 = sigma * generic_zero_bias_bounds(sigma, lam, 20.0 * M, e_yr, e_absr, "Linf")
            assert got1 == pytest.approx(alpha1(p, M), rel=1e-12)
            assert got2 == pytest.approx(alpha2(p, M), rel=1e-12)


def test_generic_bounds_validation():
    with pytest.raises(ValueError, match="sigma must be positive"):
        generic_zero_bias_bounds(0.0, 0.5, 1.0, 0.0, 0.0, "L1")
    with pytest.raises(ValueError, match="lambda"):
        generic_zero_bias_bounds(1.0, 1.5, 1.0, 0.0, 0.0, "L1")
    with pytest.raises(ValueError, match="e_abs_r must be nonnegative"):
        generic_zero_bias_bounds(1.0, 0.5, 1.0, 0.0, -1.0, "L1")
    with pytest.raises(ValueError, match="mode"):
        generic_zero_bias_bounds(1.0, 0.5, 1.0, 0.0, 0.0, "sup")


def test_integer_lower_bound_values():
    assert integer_lower_bound(2.0) == 0.042043994540961055
    assert integer_lower_bound(1.0) > integer_lower_bound(2.0)
    with pytest.raises(ValueError, match="sigma must be positive"):
        integer_lower_bound(0.0)


def test_bound_report_exact_on_integer_matrix():
    rep = bound_report(INT_MATRIX, EwensParams(n=6, theta=1.0), exact=True)
    assert rep.sigma**2 == pytest.approx(21.0, rel=1e-12)
    assert rep.d1_exact == pytest.approx(0.05927253634784978, abs=1e-14)
    assert rep.dinf_exact == pytest.approx(0.05303699338531098, abs=1e-14)
    # the upper bounds hold with lots of room and the lower bound is live
    assert rep.d1_exact <= rep.d1_upper
    assert rep.dinf_exact <= rep.dinf_upper
    assert rep.dinf_lower is not None
    assert rep.dinf_lower <= rep.dinf_exact
    assert rep.d1_upper == pytest.approx(rep.alpha1 / rep.sigma, rel=1e-15)
    assert rep.dinf_upper == pytest.approx(rep.alpha2 / rep.sigma, rel=1e-15)
    assert rep.provenance["sigma_method"] == "closed-form"
    assert rep.provenance["samples"] is None
    assert "chunks" not in rep.provenance and "largest_chunk" not in rep.provenance


def test_bound_report_non_integer_has_no_lower_bound():
    rng = np.random.default_rng(4)
    raw = rng.random((6, 6))
    rep = bound_report((raw + raw.T) / 2, EwensParams(n=6, theta=1.0))
    assert rep.dinf_lower is None


def test_bound_report_empirical_consistency():
    rep = bound_report(
        INT_MATRIX, EwensParams(n=6, theta=1.0), samples=40_000, seed=11, exact=True
    )
    assert rep.d1_empirical.samples == 40_000
    assert abs(rep.dinf_empirical.d_inf - rep.dinf_exact) <= (
        rep.dinf_empirical.ci_halfwidth + 0.01
    )
    assert abs(rep.d1_empirical.d1 - rep.d1_exact) <= 0.02
    assert rep.provenance["samples"] == 40_000
    assert rep.provenance["seed"] == 11
    assert rep.provenance["chunks"] == 1
    assert rep.provenance["largest_chunk"] == 40_000


def test_bound_report_sigma_is_deterministic(monkeypatch):
    """Without --samples nothing in a report is random: sigma is the same
    bits for any seed and any worker count."""
    rng = np.random.default_rng(16)
    raw = rng.random((50, 50))
    raw = (raw + raw.T) / 2
    p = EwensParams(n=50, theta=1.3)
    reports = []
    for seed, threads in ((0, "1"), (1, "1"), (1, "2")):
        monkeypatch.setenv("EWENS_STEIN_THREADS", threads)
        reports.append(bound_report(raw, p, seed=seed))
    assert reports[0].sigma == reports[1].sigma == reports[2].sigma
    for rep in reports:
        assert "eyr_ci" not in rep.provenance
        assert "mc_eyr_samples" not in rep.provenance
        assert rep.provenance["sigma_method"] == "closed-form"


def test_bound_report_memory_is_a_few_matrices():
    """Without samples a report holds the centered matrix plus one
    matrix-sized temporary at a time: at n = 1000 its tracemalloc peak
    stays below three times the 8 MB input."""
    n = 1000
    raw = np.random.default_rng(17).random((n, n))
    raw = (raw + raw.T) / 2
    tracemalloc.start()
    try:
        bound_report(raw, EwensParams(n=n, theta=1.3))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 3 * raw.nbytes, peak


def test_bound_report_scale_equivariance():
    """Scaling the matrix scales sigma, M, alpha but leaves the distance
    bounds (which are ratios) unchanged."""
    p = EwensParams(n=7, theta=2.0)
    rng = np.random.default_rng(14)
    raw = rng.random((7, 7))
    raw = (raw + raw.T) / 2
    a = bound_report(raw, p)
    b = bound_report(10.0 * raw, p)
    assert b.sigma == pytest.approx(10.0 * a.sigma, rel=1e-12)
    assert b.M == pytest.approx(10.0 * a.M, rel=1e-12)
    assert b.d1_upper == pytest.approx(a.d1_upper, rel=1e-12)
    assert b.dinf_upper == pytest.approx(a.dinf_upper, rel=1e-12)


def test_bound_report_error_paths():
    rng = np.random.default_rng(15)
    raw = rng.random((9, 9))
    raw = (raw + raw.T) / 2
    with pytest.raises(ValueError, match="capped at n <= 8"):
        bound_report(raw, EwensParams(n=9, theta=1.0), exact=True)
    with pytest.raises(ValueError, match="at least 1000 samples"):
        bound_report(INT_MATRIX, EwensParams(n=6, theta=1.0), samples=10)


def test_bound_report_serialization():
    rep = bound_report(INT_MATRIX, EwensParams(n=6, theta=1.0), exact=True)
    js = rep.to_json()
    assert js["n"] == 6 and js["theta"] == 1.0
    assert js["d1_empirical"] is None
    assert js["d1_exact"] == rep.d1_exact
    parsed = json.loads(rep.to_json_str())
    assert parsed["alpha1"] == rep.alpha1
    row = rep.csv_row()
    fields = row.split(",")
    assert len(fields) == len(CSV_COLUMNS.split(","))
    assert fields[0] == "6"
    assert float(fields[2]) == rep.sigma
    # empirical columns are empty when no samples were drawn
    assert fields[11] == "" and fields[12] == "" and fields[13] == ""
    assert isinstance(rep, BoundReport)


def test_report_schema_comes_from_the_dataclass():
    """to_json's keys are BoundReport's fields, and every CSV column is a
    field or one of the four columns derived from the empirical estimates
    and the provenance, so a new field is written in the dataclass and
    CSV_COLUMNS only."""
    names = [f.name for f in dataclasses.fields(BoundReport)]
    for kwargs in ({}, {"exact": True, "samples": 2000, "seed": 4}):
        rep = bound_report(INT_MATRIX, EwensParams(n=6, theta=1.0), **kwargs)
        assert list(rep.to_json()) == names
        assert json.loads(rep.to_json_str()) == json.loads(
            json.dumps(dataclasses.asdict(rep), sort_keys=True)
        )
    derived = {"d1_emp", "dinf_emp", "samples", "seed"}
    columns = CSV_COLUMNS.split(",")
    assert set(columns) - set(names) == derived
    assert len(columns) == len(set(columns))
    row = dict(zip(columns, rep.csv_row().split(",")))
    assert float(row["d1_emp"]) == rep.d1_empirical.d1
    assert float(row["dinf_emp"]) == rep.dinf_empirical.d_inf
    assert row["samples"] == "2000" and row["seed"] == "4"
