"""Kolmogorov (sup) and Wasserstein (L1) distances to the standard normal.

Exact variants take a discrete law plus standardization constants and use
closed-form piecewise integration against Phi; empirical variants take a
sorted sample of already-standardized values.  The Kolmogorov distance is
evaluated from both one-sided limits at every atom, which dominates either
convention for the inequality at jump points.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from statistics import NormalDist

import numpy as np

__all__ = [
    "DistanceEstimate",
    "normal_cdf",
    "normal_pdf",
    "kolmogorov_exact",
    "kolmogorov_empirical",
    "wasserstein_exact",
    "wasserstein_empirical",
]

_SQRT2 = math.sqrt(2.0)
_INV_SQRT_2PI = 1.0 / math.sqrt(2.0 * math.pi)
_NORMAL = NormalDist()

MIN_EMPIRICAL_SAMPLES = 1_000


def normal_cdf(x: float) -> float:
    """Phi(x) via the complementary error function; clamped to [0, 1]."""
    v = 0.5 * math.erfc(-x / _SQRT2)
    if v < 0.0:
        return 0.0
    if v > 1.0:
        return 1.0
    return v


def normal_pdf(x: float) -> float:
    return _INV_SQRT_2PI * math.exp(-0.5 * x * x)


def _phi_antiderivative(t: float) -> float:
    """integral of Phi from -inf to t, equal to t*Phi(t) + phi(t)."""
    return t * normal_cdf(t) + normal_pdf(t)


def _upper_tail_integral(t: float) -> float:
    """integral of (1 - Phi) from t to +inf, equal to phi(t) - t*(1-Phi(t))."""
    return normal_pdf(t) - t * (1.0 - normal_cdf(t))


@dataclass(frozen=True)
class DistanceEstimate:
    """A distance measurement; empirical ones carry provenance and a CI.

    Exactly one of d1 / d_inf may be None when only one metric was
    computed.  ci_halfwidth is the DKW 95% halfwidth for empirical d_inf
    and a heuristic piecewise-variance standard error for empirical d1.
    """

    d1: float | None
    d_inf: float | None
    method: str  # "exact" or "empirical"
    samples: int | None = None
    seed: object = None
    ci_halfwidth: float | None = None

    def __post_init__(self) -> None:
        if self.d_inf is not None and not (0.0 <= self.d_inf <= 1.0):
            raise ValueError(f"d_inf must lie in [0, 1], got {self.d_inf}")
        if self.d1 is not None and self.d1 < 0.0:
            raise ValueError(f"d1 must be nonnegative, got {self.d1}")
        if self.method not in ("exact", "empirical"):
            raise ValueError(f"method must be 'exact' or 'empirical', got {self.method!r}")

    def to_json(self) -> dict:
        return {
            "d1": self.d1,
            "d_inf": self.d_inf,
            "method": self.method,
            "samples": self.samples,
            "seed": self.seed,
            "ci_halfwidth": self.ci_halfwidth,
        }


def _normal_cdf_array(x: np.ndarray) -> np.ndarray:
    """Phi at every element of x, each equal to ``normal_cdf`` of it.

    x is sorted, so equal values sit in runs: erfc runs once per run and
    the result is broadcast back through the run index.
    """
    starts = np.ones(len(x), dtype=bool)
    np.not_equal(x[1:], x[:-1], out=starts[1:])
    distinct = x[starts]
    erfc = np.fromiter(
        map(math.erfc, (-distinct / _SQRT2).tolist()), dtype=float, count=len(distinct)
    )
    return np.clip(0.5 * erfc, 0.0, 1.0)[np.cumsum(starts) - 1]


def _sorted_samples(samples) -> np.ndarray:
    w = np.sort(np.asarray(samples, dtype=float))
    if len(w) < MIN_EMPIRICAL_SAMPLES:
        raise ValueError(
            f"empirical distances need at least {MIN_EMPIRICAL_SAMPLES} samples; got {len(w)}"
        )
    return w


def _standardized_atoms(law, mean: float, sigma: float) -> tuple[np.ndarray, np.ndarray]:
    """The law's atoms as (standardized values, probabilities) arrays."""
    if not sigma > 0.0:
        raise ValueError(f"sigma must be positive, got {sigma}")
    total = law.total_mass()
    if abs(total - 1.0) > 1e-9:
        raise ValueError(f"law must be normalized; total mass is {total}")
    return (law.values_array() - mean) / sigma, law.probs_array()


def _sup_gap(x: np.ndarray, levels: np.ndarray) -> float:
    """max over atoms of |F(w-) - Phi(w)| and |F(w) - Phi(w)|, where
    ``levels`` holds F(w) at each sorted atom w of x."""
    phis = _normal_cdf_array(x)
    before = np.concatenate(([0.0], levels[:-1]))
    return float(np.max(np.maximum(np.abs(before - phis), np.abs(levels - phis))))


def kolmogorov_exact(law, mean: float, sigma: float) -> float:
    """sup_t |P(W < t) - Phi(t)| for the standardized discrete law.

    The supremum over t is attained at an atom from one side or the other,
    so both F(w-) and F(w) are compared against Phi(w) at every atom.
    """
    x, probs = _standardized_atoms(law, mean, sigma)
    return _sup_gap(x, np.cumsum(probs))


def kolmogorov_empirical(samples) -> DistanceEstimate:
    """Empirical Kolmogorov distance of standardized samples to N(0,1).

    The 95% confidence halfwidth comes from the DKW inequality.
    """
    w = _sorted_samples(samples)
    count = len(w)
    d_inf = _sup_gap(w, np.arange(1, count + 1) / count)
    halfwidth = math.sqrt(math.log(2.0 / 0.05) / (2.0 * count))
    return DistanceEstimate(
        d1=None,
        d_inf=min(d_inf, 1.0),
        method="empirical",
        samples=count,
        ci_halfwidth=halfwidth,
    )


def _piecewise_l1(x: np.ndarray, masses: np.ndarray) -> np.ndarray:
    """Per-piece integrals of |F - Phi| for the step CDF with the given
    masses at the sorted atoms x, tails included.

    Each piece is closed-form in Phi's antiderivative I; a piece where F
    crosses Phi splits at Phi^{-1}(c).  The total is the fsum of the pieces.
    """
    phi = _normal_cdf_array(x)
    anti = x * phi + _INV_SQRT_2PI * np.exp(-0.5 * x * x)
    # F on (x[k], x[k+1]) is the running mass through atom k
    level = np.clip(np.cumsum(masses[:-1]), 0.0, 1.0)
    a, b = x[:-1], x[1:]
    phi_a, phi_b = phi[:-1], phi[1:]
    ia, ib = anti[:-1], anti[1:]
    below = level * (b - a) - (ib - ia)  # Phi <= c on the whole piece
    inner = np.where(phi_b <= level, below, -below)
    for k in np.flatnonzero((phi_a < level) & (phi_b > level)):
        c = level[k]
        z = _NORMAL.inv_cdf(c)
        iz = _phi_antiderivative(z)
        inner[k] = (c * (z - a[k]) - (iz - ia[k])) + ((ib[k] - iz) - c * (b[k] - z))
    left = _phi_antiderivative(x[0])  # F = 0
    right = _upper_tail_integral(x[-1])  # F = 1
    return np.concatenate(([left], inner, [right]))


def wasserstein_exact(law, mean: float, sigma: float) -> float:
    """integral over t of |F_W(t) - Phi(t)| for the standardized law."""
    return math.fsum(_piecewise_l1(*_standardized_atoms(law, mean, sigma)).tolist())


def wasserstein_empirical(samples) -> DistanceEstimate:
    """Empirical L1 distance of standardized samples to N(0,1).

    The empirical CDF (mass 1/N per sorted sample) goes through the exact
    piecewise integral; the reported halfwidth is a heuristic from the
    per-piece contribution variance, not a rigorous confidence bound.
    """
    w = _sorted_samples(samples)
    count = len(w)
    pieces = _piecewise_l1(w, np.full(count, 1.0 / count))
    halfwidth = float(1.96 * pieces.std() * math.sqrt(len(pieces)))
    return DistanceEstimate(
        d1=math.fsum(pieces.tolist()),
        d_inf=None,
        method="empirical",
        samples=count,
        ci_halfwidth=halfwidth,
    )
