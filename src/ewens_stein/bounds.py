"""Explicit Berry-Esseen constants for the combinatorial CLT under Ewens
measure, and the generic three-term zero-bias bounds they instantiate.

kappa1/kappa2 are the square roots of the fixed-point count's second and
squared second-factorial moments; alpha1/alpha2 are the bound numerators,
so that d1 <= alpha1/sigma and d_inf <= alpha2/sigma, with the
integer-matrix lower bound 1/(6*sqrt(3)*sigma + 3) on d_inf.  Each alpha
is ``generic_zero_bias_bounds`` at lam = 4/n, delta = 20M and the
closed-form bounds ``remainder_bounds`` on E|R| and |E Y'R|, rounded.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, fields

import numpy as np

from . import montecarlo
from .distances import (
    DistanceEstimate,
    _check_sample_count,
    empirical_distances,
    exact_distances,
)
from .ewens import EwensParams, c1_moments, falling_factorial
from .oracle import exact_statistic_law
from .statistic import _check_case_n, center, sigma_squared

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
    _check_alpha_args(params, M)
    if not sigma > 0:
        raise ValueError(f"sigma must be positive, got {sigma}")
    n, theta = params.n, params.theta
    k1, k2 = kappa1(params), kappa2(params)
    e_abs_r = theta * M * (12 * n + 8 * theta - 10) / (
        (n - 1) * (theta + n - 1)
    ) + 2 * theta**2 * M / falling_factorial(theta + n - 1, 2)
    e_yr = (10 * k1 + 4 * theta + 4 * (k1 * (theta + 1) + k2) / n) * M * sigma / (
        n - 1
    )
    return e_abs_r, e_yr


def _check_alpha_args(params: EwensParams, M: float) -> None:
    _check_case_n(params.n)
    if M < 0:
        raise ValueError(f"M must be nonnegative, got {M}")


def _alpha_inputs(params: EwensParams, M: float) -> tuple[float, float, float, float]:
    """The three-term bound's (lam, delta, e_yr, e_abs_r) behind alpha1 and
    alpha2, at sigma = 1: lam = 4/n, delta = 20M, and ``remainder_bounds``
    with n/(n-1) <= 6/5 folded in."""
    _check_alpha_args(params, M)
    n, theta = params.n, params.theta
    k1, k2 = kappa1(params), kappa2(params)
    lam = 4.0 / n
    e_yr = lam * M * (3.0 * k1 + 1.2 * theta + (k1 * (theta + 1.0) + k2) / (n - 1.0))
    e_abs_r = lam * theta * M * (
        0.6 * (6.0 * n + 4.0 * theta - 5.0) / (theta + n - 1.0)
        + 0.5 * theta * n / falling_factorial(theta + n - 1, 2)
    )
    return lam, 20.0 * M, e_yr, e_abs_r


def alpha1(params: EwensParams, M: float) -> float:
    """Numerator of the L1 bound, d1(L(W), L(Z)) <= alpha1 / sigma: sigma
    times the three-term L1 bound at lam = 4/n, delta = 20M and the rounded
    remainder inputs of ``_alpha_inputs``; sigma cancels, so the bound is
    taken at sigma = 1."""
    return generic_zero_bias_bounds(1.0, *_alpha_inputs(params, M), "L1")


def alpha2(params: EwensParams, M: float) -> float:
    """Numerator of the Kolmogorov bound, d_inf(L(W), L(Z)) <= alpha2 / sigma:
    sigma times the three-term Linf bound at lam = 4/n, delta = 20M and the
    rounded remainder inputs of ``_alpha_inputs``; sigma cancels, so the
    bound is taken at sigma = 1."""
    return generic_zero_bias_bounds(1.0, *_alpha_inputs(params, M), "Linf")


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
        values = {f.name: getattr(self, f.name) for f in fields(self)}
        return {k: v.to_json() if isinstance(v, DistanceEstimate) else v for k, v in values.items()}

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
            fmt(_DERIVED_COLUMNS[c](self) if c in _DERIVED_COLUMNS else getattr(self, c))
            for c in CSV_COLUMNS.split(",")
        )


# new columns go last, so existing column positions never move
CSV_COLUMNS = (
    "n,theta,sigma,M,kappa1,kappa2,alpha1,alpha2,"
    "d1_upper,dinf_upper,dinf_lower,d1_emp,dinf_emp,samples,seed,d1_exact,dinf_exact"
)

# the CSV columns that are not BoundReport fields; every other column is one
_DERIVED_COLUMNS = {
    "d1_emp": lambda r: r.d1_empirical.d1 if r.d1_empirical else None,
    "dinf_emp": lambda r: r.dinf_empirical.d_inf if r.dinf_empirical else None,
    "samples": lambda r: r.provenance.get("samples"),
    "seed": lambda r: r.provenance.get("seed"),
}


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
        # exact_statistic_law enumerates S_n and rejects n above its cap
        law = exact_statistic_law(score.centered, params)
        d1_exact, dinf_exact = exact_distances(law, 0.0, sigma)

    provenance = {"seed": seed, "samples": samples or None, "sigma_method": "closed-form"}
    d1_emp = dinf_emp = None
    if samples:
        _check_sample_count(samples)
        draws = montecarlo.sample_statistic_batch(
            score, params, samples, np.random.SeedSequence([int(0 if seed is None else seed), 2])
        )
        d1_emp, dinf_emp = empirical_distances(draws / sigma)
        # the partition depends on (n, samples) alone, never on the workers
        chunks = montecarlo.chunk_counts(samples, montecarlo.batch_chunk_size(params.n))
        provenance["chunks"] = len(chunks)
        provenance["largest_chunk"] = chunks[0]
    # positional, in field order: the field names stand only in the dataclass
    return BoundReport(
        params.n, params.theta, sigma, M, k1, k2, a1, a2, a1 / sigma, a2 / sigma, lower,
        d1_emp, dinf_emp, d1_exact, dinf_exact, provenance,
    )
