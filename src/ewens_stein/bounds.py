"""Explicit Berry-Esseen constants for the combinatorial CLT under Ewens
measure, and the generic three-term zero-bias bounds they instantiate.

kappa1/kappa2 are the square roots of the fixed-point count's second and
squared second-factorial moments; alpha1/alpha2 are the closed-form bound
numerators, so that d1 <= alpha1/sigma and d_inf <= alpha2/sigma, with the
integer-matrix lower bound 1/(6*sqrt(3)*sigma + 3) on d_inf.  The
closed-form bounds on the remainder moments E|R| and |E Y'R| that the
constants rest on are ``remainder_bounds``.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from . import montecarlo
from .distances import (
    MIN_EMPIRICAL_SAMPLES,
    DistanceEstimate,
    empirical_distances,
    exact_distances,
)
from .ewens import EwensParams, c1_moments, falling_factorial
from .oracle import MAX_MARGINAL_N, exact_statistic_law
from .statistic import center, sigma_squared

__all__ = [
    "kappa1",
    "kappa2",
    "remainder_bounds",
    "alpha1",
    "alpha2",
    "generic_zero_bias_bounds",
    "integer_lower_bound",
    "BoundReport",
    "bound_report",
    "CSV_COLUMNS",
]

_SQRT_2_OVER_PI = math.sqrt(2.0 / math.pi)
_SQRT_2PI = math.sqrt(2.0 * math.pi)

# delta/sigma coefficient of the Kolmogorov bound: 1 + 1/sqrt(2 pi) + sqrt(2 pi)/4
KOLMOGOROV_GAP_COEFF = 1.0 + 1.0 / _SQRT_2PI + _SQRT_2PI / 4.0


def kappa1(params: EwensParams) -> float:
    """sqrt of E[c1^2], the fixed-point count's second moment."""
    if params.n < 2:
        raise ValueError(f"kappa1 needs n >= 2, got n = {params.n}")
    return math.sqrt(c1_moments(params).second)


def kappa2(params: EwensParams) -> float:
    """sqrt of E[c1^2 (c1-1)^2], via factorial moments of the fixed-point count."""
    if params.n < 4:
        raise ValueError(f"kappa2 needs n >= 4, got n = {params.n}")
    return math.sqrt(c1_moments(params).fourth_factorial_sq)


def remainder_bounds(
    params: EwensParams, M: float, sigma: float
) -> tuple[float, float]:
    """Closed-form bounds (E|R| bound, |E Y'R| bound) for the remainder.

        E|R|    <= theta M (12n + 8 theta - 10)/((n-1)(theta+n-1))
                   + 2 theta^2 M / (theta+n-1)_(2)
        |E Y'R| <= (10 kappa1 + 4 theta + 4(kappa1(theta+1) + kappa2)/n)
                   * M sigma/(n-1)
    """
    n, theta = params.n, params.theta
    if n < 6:
        raise ValueError(f"the case analysis requires n >= 6, got n = {n}")
    if not sigma > 0:
        raise ValueError(f"sigma must be positive, got {sigma}")
    if M < 0:
        raise ValueError(f"M must be nonnegative, got {M}")
    k1, k2 = kappa1(params), kappa2(params)
    e_abs_r = theta * M * (12 * n + 8 * theta - 10) / (
        (n - 1) * (theta + n - 1)
    ) + 2 * theta**2 * M / falling_factorial(theta + n - 1, 2)
    e_yr = (10 * k1 + 4 * theta + 4 * (k1 * (theta + 1) + k2) / n) * M * sigma / (
        n - 1
    )
    return e_abs_r, e_yr


def _check_alpha_args(params: EwensParams, M: float) -> None:
    if params.n < 6:
        raise ValueError(f"the case analysis requires n >= 6, got n = {params.n}")
    if M < 0:
        raise ValueError(f"M must be nonnegative, got {M}")


def alpha1(params: EwensParams, M: float) -> float:
    """Numerator of the L1 bound: d1(L(W), L(Z)) <= alpha1 / sigma."""
    _check_alpha_args(params, M)
    n, theta = params.n, params.theta
    k1, k2 = kappa1(params), kappa2(params)
    return (
        40.0 * M
        + k1 * _SQRT_2_OVER_PI * M * (3.0 + (theta + 1.0) / (n - 1.0))
        + k2 * _SQRT_2_OVER_PI * M / (n - 1.0)
        + theta
        * M
        * (
            1.2 * _SQRT_2_OVER_PI
            + 1.2 * (6.0 * n + 4.0 * theta - 5.0) / (theta + n - 1.0)
            + theta * n / falling_factorial(theta + n - 1, 2)
        )
    )


def alpha2(params: EwensParams, M: float) -> float:
    """Numerator of the Kolmogorov bound: d_inf(L(W), L(Z)) <= alpha2 / sigma."""
    _check_alpha_args(params, M)
    n, theta = params.n, params.theta
    k1, k2 = kappa1(params), kappa2(params)
    return (
        20.0 * KOLMOGOROV_GAP_COEFF * M
        + k1 * M * (3.0 + (theta + 1.0) / (n - 1.0))
        + k2 * M / (n - 1.0)
        + theta
        * M
        * (
            1.2
            + 0.15 * _SQRT_2PI * (6.0 * n + 4.0 * theta - 5.0) / (theta + n - 1.0)
            + 0.125 * _SQRT_2PI * theta * n / falling_factorial(theta + n - 1, 2)
        )
    )


def generic_zero_bias_bounds(
    sigma: float,
    lam: float,
    gap_or_delta: float,
    e_yr: float,
    e_abs_r: float,
    mode: str,
) -> float:
    """Three-term normal-approximation bound from an approximate zero-bias
    coupling with remainder R.

    mode "L1":   (2/sigma) E|Y*-Y'| + sqrt(2/pi) |E Y'R|/(sigma^2 lam)
                 + 2 E|R|/(sigma lam)
    mode "Linf": (1 + 1/sqrt(2 pi) + sqrt(2 pi)/4) delta/sigma
                 + |E Y'R|/(sigma^2 lam) + sqrt(2 pi) E|R|/(4 sigma lam)
    where gap_or_delta is E|Y*-Y'| for L1 and the a.s. bound delta for Linf.
    With both remainder terms zero the classic coupling bounds reappear.
    """
    if not sigma > 0.0:
        raise ValueError(f"sigma must be positive, got {sigma}")
    if not 0.0 < lam < 1.0:
        raise ValueError(f"lambda must lie in (0, 1), got {lam}")
    for name, value in (
        ("gap_or_delta", gap_or_delta),
        ("e_yr", e_yr),
        ("e_abs_r", e_abs_r),
    ):
        if value < 0.0:
            raise ValueError(f"{name} must be nonnegative, got {value}")
    if mode == "L1":
        return (
            2.0 / sigma * gap_or_delta
            + _SQRT_2_OVER_PI * e_yr / (sigma * sigma * lam)
            + 2.0 * e_abs_r / (sigma * lam)
        )
    if mode == "Linf":
        return (
            KOLMOGOROV_GAP_COEFF * gap_or_delta / sigma
            + e_yr / (sigma * sigma * lam)
            + _SQRT_2PI * e_abs_r / (4.0 * sigma * lam)
        )
    raise ValueError(f"mode must be 'L1' or 'Linf', got {mode!r}")


def integer_lower_bound(sigma: float) -> float:
    """1/(6 sqrt(3) sigma + 3): no integer-matrix statistic is closer than
    this to the normal in Kolmogorov distance."""
    if not sigma > 0.0:
        raise ValueError(f"sigma must be positive, got {sigma}")
    return 1.0 / (6.0 * math.sqrt(3.0) * sigma + 3.0)


@dataclass(frozen=True)
class BoundReport:
    """Everything the bound pipeline produces for one (A, theta, n)."""

    n: int
    theta: float
    sigma: float
    M: float
    kappa1: float
    kappa2: float
    alpha1: float
    alpha2: float
    d1_upper: float
    dinf_upper: float
    dinf_lower: float | None
    d1_empirical: DistanceEstimate | None
    dinf_empirical: DistanceEstimate | None
    d1_exact: float | None
    dinf_exact: float | None
    provenance: dict

    def to_json(self) -> dict:
        return {
            "n": self.n,
            "theta": self.theta,
            "sigma": self.sigma,
            "M": self.M,
            "kappa1": self.kappa1,
            "kappa2": self.kappa2,
            "alpha1": self.alpha1,
            "alpha2": self.alpha2,
            "d1_upper": self.d1_upper,
            "dinf_upper": self.dinf_upper,
            "dinf_lower": self.dinf_lower,
            "d1_empirical": self.d1_empirical.to_json() if self.d1_empirical else None,
            "dinf_empirical": self.dinf_empirical.to_json() if self.dinf_empirical else None,
            "d1_exact": self.d1_exact,
            "dinf_exact": self.dinf_exact,
            "provenance": self.provenance,
        }

    def to_json_str(self) -> str:
        return json.dumps(self.to_json(), sort_keys=True, indent=2)

    def csv_row(self) -> str:
        def fmt(x) -> str:
            if x is None:
                return ""
            if isinstance(x, float):
                return repr(x)
            return str(x)

        return ",".join(
            fmt(x)
            for x in (
                self.n,
                self.theta,
                self.sigma,
                self.M,
                self.kappa1,
                self.kappa2,
                self.alpha1,
                self.alpha2,
                self.d1_upper,
                self.dinf_upper,
                self.dinf_lower,
                self.d1_empirical.d1 if self.d1_empirical else None,
                self.dinf_empirical.d_inf if self.dinf_empirical else None,
                self.provenance.get("samples"),
                self.provenance.get("seed"),
                self.d1_exact,
                self.dinf_exact,
            )
        )


# new columns go last, so existing column positions never move
CSV_COLUMNS = (
    "n,theta,sigma,M,kappa1,kappa2,alpha1,alpha2,"
    "d1_upper,dinf_upper,dinf_lower,d1_emp,dinf_emp,samples,seed,d1_exact,dinf_exact"
)


def bound_report(
    A,
    params: EwensParams,
    *,
    samples: int = 0,
    seed=0,
    exact: bool = False,
) -> BoundReport:
    """Full pipeline: center, variance, constants, bounds, and (optionally)
    exact or empirical distances.

    sigma comes from the closed-form Var(Y) at every n, so it depends on
    neither the seed nor the sample stream used for the empirical distances.
    """
    score = center(A, params)
    M = score.max_abs
    # alpha1 first: it rejects n < 6, which kappa2 and sigma^2 would not name
    a1, a2 = alpha1(params, M), alpha2(params, M)
    k1, k2 = kappa1(params), kappa2(params)
    sigma = math.sqrt(sigma_squared(score, params))
    lower = integer_lower_bound(sigma) if score.is_integer else None

    d1_exact = dinf_exact = None
    if exact:
        if params.n > MAX_MARGINAL_N:
            raise ValueError(
                f"exact distances need full enumeration, capped at n <= {MAX_MARGINAL_N}; "
                f"got n = {params.n}"
            )
        law = exact_statistic_law(score.centered, params)
        d1_exact, dinf_exact = exact_distances(law, 0.0, sigma)

    d1_emp = dinf_emp = None
    if samples:
        if samples < MIN_EMPIRICAL_SAMPLES:
            raise ValueError(
                f"empirical distances need at least {MIN_EMPIRICAL_SAMPLES} samples; "
                f"got {samples}"
            )
        draws = montecarlo.sample_statistic_batch(
            score, params, samples, np.random.SeedSequence([int(0 if seed is None else seed), 2])
        )
        d1_emp, dinf_emp = empirical_distances(draws / sigma)

    provenance = {
        "seed": seed,
        "samples": samples or None,
        "sigma_method": "closed-form",
    }
    if samples:
        # the partition depends on (n, samples) alone, never on the workers
        chunks = montecarlo.chunk_counts(samples, montecarlo.batch_chunk_size(params.n))
        provenance["chunks"] = len(chunks)
        provenance["largest_chunk"] = chunks[0]
    return BoundReport(
        n=params.n,
        theta=params.theta,
        sigma=sigma,
        M=M,
        kappa1=k1,
        kappa2=k2,
        alpha1=a1,
        alpha2=a2,
        d1_upper=a1 / sigma,
        dinf_upper=a2 / sigma,
        dinf_lower=lower,
        d1_empirical=d1_emp,
        dinf_empirical=dinf_emp,
        d1_exact=d1_exact,
        dinf_exact=dinf_exact,
        provenance=provenance,
    )
