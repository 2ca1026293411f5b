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
    "exact_distances",
    "empirical_distances",
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
    """Phi at every element of x, each equal to ``normal_cdf`` of it."""
    erfc = np.fromiter(map(math.erfc, (-x / _SQRT2).tolist()), dtype=float, count=len(x))
    return np.clip(0.5 * erfc, 0.0, 1.0)


def _sorted_samples(samples) -> np.ndarray:
    raw = np.asarray(samples, dtype=float)
    w = np.sort(raw)
    if len(w) < MIN_EMPIRICAL_SAMPLES:
        raise ValueError(
            f"empirical distances need at least {MIN_EMPIRICAL_SAMPLES} samples; got {len(w)}"
        )
    # sorting puts -inf first and +inf and NaN last
    if not (math.isfinite(w[0]) and math.isfinite(w[-1])):
        k = int(np.flatnonzero(~np.isfinite(raw))[0])
        raise ValueError(f"empirical distances need finite samples; sample {k} is {raw[k]}")
    return w


def _standardized_atoms(law, mean: float, sigma: float) -> tuple[np.ndarray, np.ndarray]:
    """The law's atoms as (standardized values, probabilities) arrays."""
    if not sigma > 0.0:
        raise ValueError(f"sigma must be positive, got {sigma}")
    total = law.total_mass()
    if abs(total - 1.0) > 1e-9:
        raise ValueError(f"law must be normalized; total mass is {total}")
    return (law.values_array() - mean) / sigma, law.probs_array()


def _sup_gap(phi: np.ndarray, levels: np.ndarray) -> float:
    """max over atoms of |F(w-) - Phi(w)| and |F(w) - Phi(w)|, where
    ``levels`` holds F(w) and ``phi`` holds Phi(w) at each sorted atom w."""
    before = np.concatenate(([0.0], levels[:-1]))
    return float(np.max(np.maximum(np.abs(before - phi), np.abs(levels - phi))))


def _piecewise_l1(x: np.ndarray, phi: np.ndarray, level: np.ndarray) -> np.ndarray:
    """Per-piece integrals of |F - Phi| for a step CDF at the sorted atoms
    x, tails included; Phi(x) is ``phi`` and F on (x[k], x[k+1]) is
    ``level[k]``.

    Each piece is closed-form in Phi's antiderivative I; a piece where F
    crosses Phi splits at Phi^{-1}(c).  The total is the fsum of the pieces.
    """
    anti = x * phi + _INV_SQRT_2PI * np.exp(-0.5 * x * x)
    level = np.clip(level, 0.0, 1.0)
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


def exact_distances(law, mean: float, sigma: float) -> tuple[float, float]:
    """(d1, d_inf) of the standardized discrete law to N(0,1), from one Phi
    pass over its atoms.

    d1 integrates |F_W(t) - Phi(t)| over t.  d_inf = sup_t |P(W < t) -
    Phi(t)| is attained at an atom from one side or the other, so both
    F(w-) and F(w) are compared against Phi(w) at every atom.
    """
    x, probs = _standardized_atoms(law, mean, sigma)
    phi = _normal_cdf_array(x)
    levels = np.cumsum(probs)
    return math.fsum(_piecewise_l1(x, phi, levels[:-1]).tolist()), _sup_gap(phi, levels)


def empirical_distances(samples) -> tuple[DistanceEstimate, DistanceEstimate]:
    """Empirical (d1, d_inf) estimates of standardized samples to N(0,1).

    The empirical CDF (mass 1/N per sample) is collapsed to the sample's
    distinct values, with one Phi pass over them.  d1 goes through the
    exact piecewise integral; its halfwidth is a heuristic from the
    variance of the N + 1 per-sample pieces (ties give pieces of width 0),
    not a rigorous confidence bound.  d_inf's 95% confidence halfwidth
    comes from the DKW inequality.
    """
    w = _sorted_samples(samples)
    count = len(w)
    ends = np.flatnonzero(np.append(w[1:] != w[:-1], True))
    x = w[ends]
    phi = _normal_cdf_array(x)
    running = np.cumsum(np.full(count, 1.0 / count))[ends]
    distinct = _piecewise_l1(x, phi, running[:-1])
    pieces = np.zeros(count + 1)
    pieces[0], pieces[-1] = distinct[0], distinct[-1]
    pieces[1 + ends[:-1]] = distinct[1:-1]
    d1 = DistanceEstimate(
        d1=math.fsum(distinct.tolist()),
        d_inf=None,
        method="empirical",
        samples=count,
        ci_halfwidth=float(1.96 * pieces.std() * math.sqrt(count + 1)),
    )
    d_inf = DistanceEstimate(
        d1=None,
        d_inf=min(_sup_gap(phi, (ends + 1) / count), 1.0),
        method="empirical",
        samples=count,
        ci_halfwidth=math.sqrt(math.log(2.0 / 0.05) / (2.0 * count)),
    )
    return d1, d_inf


def wasserstein_exact(law, mean: float, sigma: float) -> float:
    """integral over t of |F_W(t) - Phi(t)| for the standardized law."""
    return exact_distances(law, mean, sigma)[0]


def kolmogorov_exact(law, mean: float, sigma: float) -> float:
    """sup_t |P(W < t) - Phi(t)| for the standardized discrete law."""
    return exact_distances(law, mean, sigma)[1]


def wasserstein_empirical(samples) -> DistanceEstimate:
    """Empirical L1 distance of standardized samples to N(0,1)."""
    return empirical_distances(samples)[0]


def kolmogorov_empirical(samples) -> DistanceEstimate:
    """Empirical Kolmogorov distance of standardized samples to N(0,1)."""
    return empirical_distances(samples)[1]
