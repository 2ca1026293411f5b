"""Ewens-measure combinatorial CLT toolkit.

Sampling and exact computation for the Ewens measure on permutations,
Stein exchangeable pairs and approximate zero-bias couplings for the
statistic Y = sum_i a_{i, pi(i)}, explicit Berry-Esseen bound constants,
and normal-distance estimation.  The root exports the production names;
the small-n enumeration references live in ``ewens_stein.oracle``, of
which only ``exact_statistic_law``, the exact law behind ``bound_report``
at n <= 8, is exported here.
"""

from .bounds import (
    BoundReport,
    alpha1,
    alpha2,
    bound_report,
    generic_zero_bias_bounds,
    integer_lower_bound,
    kappa1,
    kappa2,
    remainder_bounds,
)
from .coupling import (
    SquareBiasSampler,
    index_square_bias_weights,
    sample_zero_bias_batch,
)
from .distances import (
    DistanceEstimate,
    empirical_distances,
    exact_distances,
    kolmogorov_empirical,
    kolmogorov_exact,
    normal_cdf,
    wasserstein_empirical,
    wasserstein_exact,
)
from .ewens import (
    C1Moments,
    EwensParams,
    c1_moments,
    cycle_type_pmf,
    ewens_pmf,
    falling_factorial,
    rising_factorial,
    sample_crp_images,
)
from .oracle import exact_statistic_law
from .statistic import (
    DegenerateError,
    ScoreMatrix,
    VarianceDecomposition,
    b_value,
    center,
    grand_mean,
    sigma_squared,
    t_statistic,
    variance_decomposition,
)

__version__ = "0.1.0"

__all__ = [
    "BoundReport",
    "C1Moments",
    "DegenerateError",
    "DistanceEstimate",
    "EwensParams",
    "ScoreMatrix",
    "SquareBiasSampler",
    "VarianceDecomposition",
    "alpha1",
    "alpha2",
    "b_value",
    "bound_report",
    "c1_moments",
    "center",
    "cycle_type_pmf",
    "empirical_distances",
    "ewens_pmf",
    "exact_distances",
    "exact_statistic_law",
    "falling_factorial",
    "generic_zero_bias_bounds",
    "grand_mean",
    "index_square_bias_weights",
    "integer_lower_bound",
    "kappa1",
    "kappa2",
    "kolmogorov_empirical",
    "kolmogorov_exact",
    "normal_cdf",
    "remainder_bounds",
    "rising_factorial",
    "sample_crp_images",
    "sample_zero_bias_batch",
    "sigma_squared",
    "t_statistic",
    "variance_decomposition",
    "wasserstein_empirical",
    "wasserstein_exact",
]
