import math
from itertools import accumulate
from statistics import NormalDist

import numpy as np
import pytest

from ewens_stein import distances
from ewens_stein.distances import (
    MIN_EMPIRICAL_SAMPLES,
    DistanceEstimate,
    kolmogorov_empirical,
    kolmogorov_exact,
    normal_cdf,
    normal_pdf,
    wasserstein_empirical,
    wasserstein_exact,
)
from ewens_stein.ewens import EwensParams, sample_crp_images
from ewens_stein.oracle import DiscreteLaw, exact_statistic_law
from ewens_stein.statistic import center


def coin_law():
    return DiscreteLaw([-1.0, 1.0], [0.5, 0.5])


def test_normal_cdf_values():
    assert normal_cdf(0.0) == pytest.approx(0.5, abs=1e-15)
    assert normal_cdf(1.959963985) == pytest.approx(0.975, abs=1e-9)
    assert normal_cdf(-1.959963985) == pytest.approx(0.025, abs=1e-9)
    # symmetric and clamped to [0, 1] far out in the tails
    for x in (0.3, 1.7, 4.0):
        assert normal_cdf(x) + normal_cdf(-x) == pytest.approx(1.0, abs=1e-15)
    assert normal_cdf(50.0) == 1.0
    assert normal_cdf(-50.0) == 0.0


def test_normal_pdf_values():
    assert normal_pdf(0.0) == pytest.approx(1.0 / math.sqrt(2.0 * math.pi))
    assert normal_pdf(1.3) == normal_pdf(-1.3)


def test_kolmogorov_exact_coin():
    # standard coin vs N(0,1): sup gap is at the atoms, Phi(1) - 1/2
    d = kolmogorov_exact(coin_law(), 0.0, 1.0)
    assert d == pytest.approx(0.3413447460685429, abs=1e-15)


def test_wasserstein_exact_coin():
    # hand integration of |F_coin - Phi|: 2*(I(1) - I(0)) - 1/2 with
    # I(t) = t*Phi(t) + phi(t)
    d = wasserstein_exact(coin_law(), 0.0, 1.0)
    assert d == pytest.approx(0.5353773215478799, abs=1e-12)


def test_point_mass_distances():
    law = DiscreteLaw([0.0], [1.0])
    assert kolmogorov_exact(law, 0.0, 1.0) == pytest.approx(0.5)
    assert wasserstein_exact(law, 0.0, 1.0) == pytest.approx(
        math.sqrt(2.0 / math.pi), rel=1e-12
    )


def test_exact_distances_are_scale_invariant():
    law = DiscreteLaw([-2.0, 0.0, 2.0], [0.25, 0.5, 0.25])
    scaled = DiscreteLaw([-6.0, 0.0, 6.0], [0.25, 0.5, 0.25])
    assert kolmogorov_exact(law, 0.0, 1.0) == pytest.approx(
        kolmogorov_exact(scaled, 0.0, 3.0), rel=1e-12
    )
    # d1 is measured after standardizing, so it is scale-invariant too
    assert wasserstein_exact(law, 0.0, 1.0) == pytest.approx(
        wasserstein_exact(scaled, 0.0, 3.0), rel=1e-12
    )


def test_exact_distances_validate_sigma():
    with pytest.raises(ValueError, match="sigma must be positive"):
        kolmogorov_exact(coin_law(), 0.0, 0.0)
    with pytest.raises(ValueError, match="sigma must be positive"):
        wasserstein_exact(coin_law(), 0.0, -1.0)


def test_kolmogorov_empirical_against_exact():
    rng = np.random.default_rng(7)
    draws = rng.choice([-1.0, 1.0], size=200_000)
    est = kolmogorov_empirical(draws)
    exact = kolmogorov_exact(coin_law(), 0.0, 1.0)
    assert est.d_inf is not None and est.d1 is None
    assert est.method == "empirical"
    assert est.samples == 200_000
    assert abs(est.d_inf - exact) <= est.ci_halfwidth + 0.01
    # DKW halfwidth at level 0.05
    expected_hw = math.sqrt(math.log(2.0 / 0.05) / (2.0 * 200_000))
    assert est.ci_halfwidth == pytest.approx(expected_hw, rel=1e-12)


def test_wasserstein_empirical_against_exact():
    rng = np.random.default_rng(8)
    draws = rng.choice([-1.0, 1.0], size=200_000)
    est = wasserstein_empirical(draws)
    exact = wasserstein_exact(coin_law(), 0.0, 1.0)
    assert est.d1 is not None and est.d_inf is None
    assert abs(est.d1 - exact) <= max(3.0 * est.ci_halfwidth, 0.01)


def test_empirical_standard_normal_is_close():
    rng = np.random.default_rng(9)
    z = rng.standard_normal(100_000)
    k = kolmogorov_empirical(z)
    w = wasserstein_empirical(z)
    assert k.d_inf <= 0.01
    assert w.d1 <= 0.02


def test_empirical_needs_enough_samples():
    assert MIN_EMPIRICAL_SAMPLES == 1000
    with pytest.raises(ValueError, match="at least 1000 samples"):
        kolmogorov_empirical(np.zeros(999))
    with pytest.raises(ValueError, match="at least 1000 samples"):
        wasserstein_empirical(np.zeros(10))


def test_distance_estimate_round_trip():
    est = DistanceEstimate(d1=0.1, d_inf=None, method="empirical",
                           samples=5000, seed=3, ci_halfwidth=0.004)
    js = est.to_json()
    assert js["d1"] == 0.1
    assert js["d_inf"] is None
    assert js["method"] == "empirical"
    assert js["samples"] == 5000
    assert js["ci_halfwidth"] == 0.004


# ---------------------------------------------------------------------------
# Scalar references: the per-atom loops the array kernels replaced
# ---------------------------------------------------------------------------


def _antiderivative_reference(t):
    return t * normal_cdf(t) + normal_pdf(t)


def piecewise_l1_reference(atoms):
    """(total, pieces, straddles) of the integral of |F - Phi|, one atom at
    a time with a running level."""
    pieces = [_antiderivative_reference(atoms[0][0])]
    straddles = 0
    cum = 0.0
    for idx in range(len(atoms) - 1):
        cum += atoms[idx][1]
        c = min(max(cum, 0.0), 1.0)
        a, b = atoms[idx][0], atoms[idx + 1][0]
        phi_a, phi_b = normal_cdf(a), normal_cdf(b)
        ia, ib = _antiderivative_reference(a), _antiderivative_reference(b)
        if phi_b <= c:
            pieces.append(c * (b - a) - (ib - ia))
        elif phi_a >= c:
            pieces.append((ib - ia) - c * (b - a))
        else:
            straddles += 1
            z = NormalDist().inv_cdf(c)
            iz = _antiderivative_reference(z)
            pieces.append((c * (z - a) - (iz - ia)) + ((ib - iz) - c * (b - z)))
    last = atoms[-1][0]
    pieces.append(normal_pdf(last) - last * (1.0 - normal_cdf(last)))
    return math.fsum(pieces), pieces, straddles


def kolmogorov_reference(values, levels):
    """max of |F(w-) - Phi(w)| and |F(w) - Phi(w)| over the atoms, where
    levels[k] is F at values[k]."""
    best = 0.0
    before = 0.0
    for w, after in zip(values, levels):
        phi = normal_cdf(w)
        best = max(best, abs(before - phi), abs(after - phi))
        before = after
    return best


def _tie_heavy_case():
    """Y under Ewens(1.5) for an integer matrix at n = 6: few atoms, many
    tied samples."""
    n = 6
    params = EwensParams(n=n, theta=1.5)
    raw = np.array([[(i + 1) * (j + 1) % 7 for j in range(n)] for i in range(n)], float)
    A = center(raw, params)
    law = exact_statistic_law(A.centered, params)
    sigma = math.sqrt(law.variance())
    images = sample_crp_images(params, np.random.default_rng(11), 20_000)
    samples = A.centered[np.arange(n), images - 1].sum(axis=1) / sigma
    return law, sigma, samples


def _normal_case():
    rng = np.random.default_rng(12)
    samples = 0.1 + 1.2 * rng.standard_normal(5_000)
    law = DiscreteLaw(samples, np.full(len(samples), 1.0 / len(samples)), normalize=True)
    return law, 1.0, samples


def _crossing_case():
    # a five-atom law whose step CDF crosses Phi between atoms
    law = DiscreteLaw([-2.0, -0.8, 0.1, 0.9, 2.5], [0.05, 0.35, 0.3, 0.2, 0.1])
    rng = np.random.default_rng(13)
    samples = rng.choice(law.values_array(), p=law.probs_array(), size=5_000)
    return law, 1.0, samples


@pytest.mark.parametrize("make", [_tie_heavy_case, _normal_case, _crossing_case])
def test_array_kernels_match_scalar_references(make):
    law, sigma, samples = make()
    atoms = [(v / sigma, p) for v, p in law.atoms]
    total, _, straddles = piecewise_l1_reference(atoms)
    assert wasserstein_exact(law, 0.0, sigma) == pytest.approx(total, rel=1e-12)
    values = [w for w, _ in atoms]
    levels = list(accumulate(p for _, p in atoms))
    assert kolmogorov_exact(law, 0.0, sigma) == pytest.approx(
        kolmogorov_reference(values, levels), rel=1e-12
    )
    if make is _crossing_case:
        assert straddles >= 1

    w = np.sort(samples)
    count = len(w)
    emp_total, emp_pieces, _ = piecewise_l1_reference([(float(x), 1.0 / count) for x in w])
    est = wasserstein_empirical(samples)
    assert est.d1 == pytest.approx(emp_total, rel=1e-12)
    halfwidth = 1.96 * np.std(emp_pieces) * math.sqrt(len(emp_pieces))
    assert est.ci_halfwidth == pytest.approx(halfwidth, rel=1e-12)
    levels = [(k + 1) / count for k in range(count)]
    assert kolmogorov_empirical(samples).d_inf == pytest.approx(
        kolmogorov_reference(w.tolist(), levels), rel=1e-12
    )


def normal_cdf_per_element(x):
    """Phi with one erfc call per element, duplicates included."""
    return np.array([normal_cdf(v) for v in x.tolist()])


@pytest.mark.parametrize("theta", [0.5, 1.5])
def test_empirical_distances_equal_per_element_phi(monkeypatch, theta):
    n = 6
    params = EwensParams(n=n, theta=theta)
    raw = np.array([[(i + 1) * (j + 1) % 7 for j in range(n)] for i in range(n)], float)
    A = center(raw, params)
    images = sample_crp_images(params, np.random.default_rng([12, n]), 20_000)
    samples = A.centered[np.arange(n), images - 1].sum(axis=1) / 1.7
    assert len(np.unique(samples)) < 200
    d1 = wasserstein_empirical(samples)
    d_inf = kolmogorov_empirical(samples)
    monkeypatch.setattr(distances, "_normal_cdf_array", normal_cdf_per_element)
    assert wasserstein_empirical(samples) == d1
    assert kolmogorov_empirical(samples) == d_inf


# ---------------------------------------------------------------------------
# Per-sample reference: the empirical distances before ties were collapsed
# ---------------------------------------------------------------------------


def per_sample_empirical_reference(samples):
    """(d1, d1 halfwidth, d_inf) with one piece and one level per sample,
    as computed before the sample was collapsed to its distinct values."""
    w = np.sort(np.asarray(samples, dtype=float))
    count = len(w)
    phi = normal_cdf_per_element(w)
    # d_inf at every sample, levels k/N
    levels = np.arange(1, count + 1) / count
    before = np.concatenate(([0.0], levels[:-1]))
    d_inf = float(np.max(np.maximum(np.abs(before - phi), np.abs(levels - phi))))
    # one W1 piece per gap between consecutive samples, masses 1/N
    anti = w * phi + (1.0 / math.sqrt(2.0 * math.pi)) * np.exp(-0.5 * w * w)
    level = np.clip(np.cumsum(np.full(count, 1.0 / count)[:-1]), 0.0, 1.0)
    a, b = w[:-1], w[1:]
    ia, ib = anti[:-1], anti[1:]
    below = level * (b - a) - (ib - ia)
    inner = np.where(phi[1:] <= level, below, -below)
    for k in np.flatnonzero((phi[:-1] < level) & (phi[1:] > level)):
        c = level[k]
        z = NormalDist().inv_cdf(c)
        iz = _antiderivative_reference(z)
        inner[k] = (c * (z - a[k]) - (iz - ia[k])) + ((ib[k] - iz) - c * (b[k] - z))
    left = _antiderivative_reference(w[0])
    right = normal_pdf(w[-1]) - w[-1] * (1.0 - normal_cdf(w[-1]))
    pieces = np.concatenate(([left], inner, [right]))
    halfwidth = float(1.96 * pieces.std() * math.sqrt(len(pieces)))
    return math.fsum(pieces.tolist()), halfwidth, min(d_inf, 1.0)


def _single_value_case():
    return None, 1.0, np.full(3_000, 0.4)


@pytest.mark.parametrize(
    "make", [_tie_heavy_case, _normal_case, _crossing_case, _single_value_case]
)
def test_collapsed_empirical_distances_equal_per_sample_reference(make):
    samples = make()[2]
    d1, halfwidth, d_inf = per_sample_empirical_reference(samples)
    w1_est, dinf_est = distances.empirical_distances(samples)
    assert (w1_est.d1, w1_est.ci_halfwidth, dinf_est.d_inf) == (d1, halfwidth, d_inf)
    assert wasserstein_empirical(samples) == w1_est
    assert kolmogorov_empirical(samples) == dinf_est
    if make is _tie_heavy_case:
        assert len(np.unique(samples)) < len(samples) // 100


@pytest.mark.parametrize("make", [_tie_heavy_case, _normal_case, _crossing_case])
def test_exact_distances_equal_the_single_distance_functions(make):
    law, sigma, _ = make()
    assert distances.exact_distances(law, 0.0, sigma) == (
        wasserstein_exact(law, 0.0, sigma),
        kolmogorov_exact(law, 0.0, sigma),
    )


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_empirical_distances_name_the_first_non_finite_sample(bad):
    samples = np.linspace(-2.0, 2.0, 2_000)
    samples[[17, 1500]] = bad
    message = f"need finite samples; sample 17 is {bad}"
    for fn in (wasserstein_empirical, kolmogorov_empirical, distances.empirical_distances):
        with pytest.raises(ValueError, match=message):
            fn(samples)
