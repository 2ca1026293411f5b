"""The combinatorial statistic Y = sum_i a_{i,pi(i)} and its Stein machinery.

Takes a symmetric score matrix through centering, the column-block sum of
Y over batches of image rows, the pair-difference value b of a
configuration (i, j, r, s, k, l), read off its constraint map
{r: i, s: j, i: k, j: l}, the remainder statistic T (linear in the fixed
points; its conditional expectation is the Stein remainder R), the
closed-form variance sigma^2 = Var(Y) and E[Y'R], which give E(Y'-Y'')^2
through the paper's decomposition, and the square-sum kernel behind the
square-bias weights.  The scalar Y of one permutation, the ten case labels
and the case of one pair (``statistic``, ``CASE_LABELS``, ``classify``)
serve only as references and live in ``oracle.py``; the closed-form
remainder bounds live in ``bounds.py``.

Conventions fixed here and used everywhere downstream:
  * matrices are centered internally (grand mean removed), so all Stein
    formulas may assume mean zero;
  * a permutation is the sequence of its 1-based images, images[i-1] =
    pi(i), the form of a ``sample_crp_images`` row;
  * b = y' - y'' where pi'' = tau pi' tau is the transposition conjugate;
  * only symmetric matrices are accepted.
"""

from __future__ import annotations

import functools
import math
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .ewens import EwensParams, falling_factorial

__all__ = [
    "DegenerateError",
    "ScoreMatrix",
    "VarianceDecomposition",
    "grand_mean",
    "center",
    "b_value",
    "t_statistic",
    "sigma_squared",
    "variance_decomposition",
]

# sigma^2 at or below 1e-12 (n M)^2 is floating-point noise for sums of
# n^2 products and is treated as exactly degenerate.
DEGENERATE_SIGMA_FACTOR = 1e-12


class DegenerateError(ValueError):
    """The input is valid but the quantity asked for is degenerate: zero
    variance or a square-bias law with no mass."""


@dataclass(frozen=True)
class ScoreMatrix:
    """A symmetric score matrix together with its centered form.

    ``centered`` is the entries less grand_mean, the matrix actually
    entering every statistic; ``max_abs`` is M = max |centered|;
    ``theta_used`` records the Ewens parameter under which the grand mean
    was taken (it enters the diagonal weighting).
    """

    n: int
    grand_mean: float
    centered: np.ndarray
    max_abs: float
    theta_used: float
    is_integer: bool


def grand_mean(A: np.ndarray, params: EwensParams) -> float:
    """The Ewens-weighted grand mean: (theta * tr A + off-diagonal sum) / (n(theta+n-1)).

    This is exactly E[Y]/n, the constant whose removal centers the statistic.
    A must be a finite, square, symmetric matrix.
    """
    a = np.asarray(A, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"score matrix must be square, got shape {a.shape}")
    bad = np.argwhere(~np.isfinite(a))
    if bad.size:
        i, j = bad[0]
        raise ValueError(
            f"score matrix has a non-finite entry ({i + 1}, {j + 1}) = {a[i, j]}"
        )
    bad = np.argwhere(a != a.T)
    if bad.size:
        i, j = bad[0]
        raise ValueError(
            f"score matrix is not symmetric: entry ({i + 1}, {j + 1}) = {a[i, j]} "
            f"but ({j + 1}, {i + 1}) = {a[j, i]}"
        )
    n = params.n
    if a.shape[0] != n:
        raise ValueError(f"matrix is {a.shape[0]}x{a.shape[0]} but params.n = {n}")
    theta = params.theta
    tr = float(np.trace(a))
    off = float(a.sum()) - tr
    return (theta * tr + off) / (n * (theta + n - 1))


def center(A: np.ndarray, params: EwensParams) -> ScoreMatrix:
    """Subtract the grand mean so that E[Y] = 0; idempotent."""
    a = np.asarray(A, dtype=float)
    # grand_mean checks a
    mean = grand_mean(a, params)
    centered = a - mean
    max_abs = float(max(centered.max(), -centered.min()))
    if not math.isfinite(max_abs):
        raise OverflowError(
            f"centering overflows double precision at theta = {params.theta}"
        )
    is_int = bool(np.all(a == np.round(a)))
    return ScoreMatrix(
        n=params.n,
        grand_mean=mean,
        centered=centered,
        max_abs=max_abs,
        theta_used=params.theta,
        is_integer=is_int,
    )


def padded_scores(A: ScoreMatrix) -> np.ndarray:
    """The centered matrix behind a zero column 0, so that a 1-based image
    pi(i) indexes row i directly: ``padded[i - 1][pi(i)]`` is a_hat[i, pi(i)]."""
    padded = np.zeros((A.n, A.n + 1))
    padded[:, 1:] = A.centered
    return padded


def block_statistic(padded: np.ndarray, block: np.ndarray) -> np.ndarray:
    """Y for every column of an (n, size) block of 1-based images, such as
    ``sample_crp_images(...).T``, summed in index order i = 1..n."""
    y = padded[0][block[0]]
    for i in range(1, len(padded)):
        y += padded[i][block[i]]
    return y


def _check_case_n(n: int) -> None:
    """The paper's case analysis of a pair's configurations needs n >= 6."""
    if n < 6:
        raise ValueError(f"the case analysis requires n >= 6, got n = {n}")


def _check_matrix_params(A: ScoreMatrix, params: EwensParams, *, cases: bool = False) -> None:
    """A must be n x n and centered under params.theta (with ``cases``, also
    n >= 6): under another theta E[Y] != 0, and no Stein identity holds."""
    if A.n != params.n:
        raise ValueError(f"matrix is {A.n}x{A.n} but params.n = {params.n}")
    if A.theta_used != params.theta:
        raise ValueError(
            f"matrix was centered under theta = {A.theta_used} "
            f"but params.theta = {params.theta}"
        )
    if cases:
        _check_case_n(params.n)


def _case_constraints(
    n: int, i: int, j: int, r: int, s: int, k: int, l: int
) -> dict[int, int]:
    """The deduplicated constraint map {r: i, s: j, i: k, j: l} of the
    configuration (i, j, r, s, k, l), i.e. pi(r) = i, pi(s) = j, pi(i) = k
    and pi(j) = l.  Some permutation of [n] realizes the configuration
    exactly when its labels lie in [1, n], i != j and the map is a
    consistent injection; any other tuple raises ValueError."""
    labels = (i, j, r, s, k, l)
    if min(labels) < 1 or max(labels) > n:
        raise ValueError(f"labels {labels} must lie in [1, {n}]")
    if i == j:
        raise ValueError("labels i and j must be distinct")
    pm: dict[int, int] = {}
    for a, b in ((r, i), (s, j), (i, k), (j, l)):
        if pm.setdefault(a, b) != b:
            raise ValueError(f"inconsistent constraints: {a} -> {pm[a]} and {a} -> {b}")
    if len(set(pm.values())) < len(pm):
        raise ValueError(f"constraints {pm} send two labels to one")
    return pm


def _constraint_b(c: np.ndarray, i: int, j: int, C: dict[int, int]) -> float:
    """b = Y' - Y'' of the constraint map C of a configuration at (i, j).

    Y'' sums c[tau x, tau pi(x)] over x, with tau = (i j), so the terms of
    Y' and Y'' cancel wherever x and pi(x) both lie outside {i, j}.  What
    is left sums c[x, C(x)] - c[tau x, tau C(x)] over the sources
    x in {i, j, r, s} of C.  ``math.fsum`` adds the 2|C| entries exactly
    and rounds once, so b is correctly rounded, and it is exactly 0
    wherever the entries cancel in pairs, as on the closed patterns of a
    symmetric matrix."""
    tau = {i: j, j: i}
    terms = []
    for x, y in C.items():
        terms.append(c[x - 1, y - 1])
        terms.append(-c[tau.get(x, x) - 1, tau.get(y, y) - 1])
    return math.fsum(terms)


def b_value(
    i: int,
    j: int,
    pre_i: int,
    pre_j: int,
    post_i: int,
    post_j: int,
    A: ScoreMatrix,
) -> float:
    """b = Y' - Y'' as a function of the pre/post images of i and j.

    Only the entries in rows and columns i and j change under the
    transposition conjugation, so b is a short signed sum of centered
    entries read off the constraint map (``_constraint_b``), correctly
    rounded; it is exactly 0 on the A0 cases and on the closed A3/A4
    3-cycles and A5_4 4-cycle.  A tuple that no permutation of [n]
    realizes raises ValueError (``_case_constraints``)."""
    C = _case_constraints(A.n, i, j, pre_i, pre_j, post_i, post_j)
    return _constraint_b(A.centered, i, j, C)


def _t_weights(c: np.ndarray) -> tuple[np.ndarray, float]:
    """(w, tr A_hat) of the linear form T = sum_{i in F} w_i - 4 theta tr A_hat,
    with w_i = 2n a_ii + 2 tr A_hat - 4 rho_i and rho_i = sum_j a_ij."""
    tr = float(np.trace(c))
    return 2.0 * len(c) * np.diag(c) + 2.0 * tr - 4.0 * c.sum(axis=1), tr


def t_statistic(A: ScoreMatrix, images: Sequence[int], params: EwensParams) -> float:
    """The remainder statistic T(pi), linear in the fixed-point set F, for
    pi given by its 1-based images.

    T = sum_{i in F} w_i - 4 theta tr A_hat (``_t_weights``), and the
    Stein remainder is R(Y') = E[T | Y']/(n(n-1)).
    """
    _check_matrix_params(A, params)
    images = np.asarray(images)
    if images.shape != (params.n,):
        raise ValueError(f"permutation has shape {images.shape} but params.n = {params.n}")
    w, tr = _t_weights(A.centered)
    fixed = images == np.arange(1, params.n + 1)
    return float(w[fixed].sum()) - 4.0 * params.theta * tr


# ---------------------------------------------------------------------------
# Variance decomposition
# ---------------------------------------------------------------------------


def sigma_squared(A: ScoreMatrix, params: EwensParams) -> float:
    """sigma^2 = Var(Y) in closed form: the Ewens analogue of Hoeffding's
    variance formula for the combinatorial CLT.

    With E[Y] = 0 on the centered matrix, E[Y^2] needs only the one- and
    two-point constraint probabilities theta^loops / (theta+n-1)_(m).  On
    the symmetric A_hat, with d = diag A_hat, rho its row sums,
    Q = sum A_hat^2 + (theta-1) |d|^2 and r = rho + (theta-1) d:

        sigma^2 = Q/(theta+n-1) + (theta Q - 2|r|^2 + (sum r)^2)/(theta+n-1)_(2)

    one pass over A_hat and O(n) temporaries.  The second term sums the
    products of entries at i != k, j != l; theta Q gives the 2-cycles
    i <-> j their closed-loop weight theta.
    """
    n, theta = params.n, params.theta
    _check_matrix_params(A, params)
    if n < 2:
        raise ValueError(f"sigma^2 needs n >= 2, got n = {n}")
    a = A.centered
    d = a.diagonal()
    flat = a.ravel()
    # theta * a_ii enters squared: past ~1e154 / (n M) the sums overflow
    try:
        with np.errstate(over="raise", invalid="raise"):
            q = flat @ flat + (theta - 1.0) * (d @ d)
            r = a.sum(axis=1) + (theta - 1.0) * d
            sigma_sq = float(
                q / (theta + n - 1)
                + (theta * q - 2.0 * (r @ r) + r.sum() ** 2)
                / falling_factorial(theta + n - 1, 2)
            )
    except FloatingPointError:
        raise OverflowError(
            f"sigma^2 overflows double precision at theta = {theta} "
            f"with max|a| = {A.max_abs}"
        ) from None
    if sigma_sq <= DEGENERATE_SIGMA_FACTOR * (n * A.max_abs) ** 2:
        raise DegenerateError(
            f"degenerate variance: sigma^2 = {sigma_sq} is at the noise floor"
        )
    return sigma_sq


@dataclass(frozen=True)
class VarianceDecomposition:
    """The paper's decomposition sigma_sq = (n/8) e_ydiff_sq + (n/4) e_yr,
    with e_ydiff_sq = E(Y'-Y'')^2 and e_yr = E[Y'R]."""

    e_ydiff_sq: float
    e_yr: float
    sigma_sq: float


def variance_decomposition(
    A: ScoreMatrix, params: EwensParams
) -> VarianceDecomposition:
    """E[Y'R] in closed form and the paper's decomposition of sigma^2.

    E[Y'R] = E[Y T]/(n(n-1)) = sum_i w_i E[Y f_i]/(n(n-1)), with f_i the
    indicator that i is fixed, since E[Y] = 0.  Given that i is fixed the
    other labels are Ewens on n - 1 labels, so with p1 = theta/(theta+n-1)

        E[Y f_i] = p1 (a_ii + sum_{k != i} (theta a_kk + rho_k - a_kk - a_ki)
                                / (theta+n-2)).

    sigma^2 comes from ``sigma_squared``, and E(Y'-Y'')^2 follows from
    sigma^2 = (n/8) E(Y'-Y'')^2 + (n/4) E[Y'R].
    """
    n, theta = params.n, params.theta
    _check_matrix_params(A, params, cases=True)
    sigma_sq = sigma_squared(A, params)
    c = A.centered
    w, _ = _t_weights(c)
    d = np.diag(c)
    rho = c.sum(axis=1)
    # sum_{k != i} a_ki = rho_i - a_ii, as A_hat is symmetric
    s = theta * d + rho - d
    e_yf = theta / (theta + n - 1) * (
        d + (s.sum() - s - rho + d) / (theta + n - 2)
    )
    e_yr = float(w @ e_yf) / (n * (n - 1))
    return VarianceDecomposition(
        e_ydiff_sq=8.0 / n * (sigma_sq - n / 4.0 * e_yr),
        e_yr=e_yr,
        sigma_sq=sigma_sq,
    )


# The seven distinct-tuple square sums of an ordered pair (i, j).  Every b
# of the pair is affine in u_x = a_{x,i} - a_{x,j} (x outside {i, j}) with
# offset 0 or c = a_ii - a_jj; the entry names whether the offset is c and
# gives b's signs on its distinct labels:
#     A1 2-cycle (s): c - 2 u_s            A1 chain (s, l): c - u_s - u_l
#     A2 mirrors A1 with b -> -b; A3 chain (r, l): u_r - u_l (A4 mirrored,
#     the 3-cycles have b = 0)
#     A5_1 (r, s): 2(u_r - u_s)           A5_2 (r, s, l): 2 u_r - u_s - u_l
#     A5_3 mirrors A5_2; A5_4 free (r, s, k, l): u_r + u_k - u_s - u_l,
#     its two chains u_r - u_l and u_k - u_s with a free middle label, and
#     its 4-cycle b = 0.
_SQUARE_SUMS = {
    "A1_cycle": (True, (-2.0,)),
    "A1_chain": (True, (-1.0, -1.0)),
    "A3": (False, (1.0, -1.0)),
    "A5_1": (False, (2.0, -2.0)),
    "A5_2": (False, (2.0, -1.0, -1.0)),
    "A5_4_chain": (False, (1.0, 0.0, -1.0)),
    "A5_4_free": (False, (1.0, -1.0, 1.0, -1.0)),
}

# The sub-case buckets of a pair's square-bias weight: the bucket (its case
# before the colon), its square sum, the power of theta its closed loops
# give, its number k of constraints, and its slots.  The bucket weighs
# theta^power * sum / (theta+n-1)_(k); summed over a case it is the case's
# share of E[b^2(i, j, ...)].  The slots say where the bucket's
# (r, s, k, l) = (pre_i, pre_j, post_i, post_j) come from: indices into
# (i, j, x_1, x_2, ...), with x_t the label drawn for coordinate t of the
# square sum.  A2, A4 and A5_3 mirror A1, A3 and A5_2; an A5_4 chain's
# zero-sign coordinate is its free middle label.
SQUARE_BIAS_BUCKETS = (
    ("A1:cycle", "A1_cycle", 2, 3, (0, 2, 0, 2)),
    ("A1:chain", "A1_chain", 1, 3, (0, 2, 0, 3)),
    ("A2:cycle", "A1_cycle", 2, 3, (2, 1, 2, 1)),
    ("A2:chain", "A1_chain", 1, 3, (2, 1, 3, 1)),
    ("A3:chain", "A3", 0, 3, (2, 0, 1, 3)),
    ("A4:chain", "A3", 0, 3, (1, 2, 3, 0)),
    ("A5_1", "A5_1", 2, 4, (2, 3, 2, 3)),
    ("A5_2", "A5_2", 1, 4, (2, 3, 2, 4)),
    ("A5_3", "A5_2", 1, 4, (3, 2, 4, 2)),
    ("A5_4:chain_sk", "A5_4_chain", 0, 4, (2, 3, 3, 4)),
    ("A5_4:chain_lr", "A5_4_chain", 0, 4, (3, 4, 2, 3)),
    ("A5_4:free", "A5_4_free", 0, 4, (2, 3, 4, 5)),
)


# a few dozen entries per matrix size n
@functools.lru_cache(maxsize=256)
def _square_sum_factors(m: int, eps: tuple[float, ...]) -> tuple[float, ...]:
    """The scalars of ``_distinct_square_sum`` over a pool of m labels:
    (n_tuples, per_coord, per_pair, sum eps, sum eps^2, sum over ordered
    pairs t != t' of eps_t eps_t').  A pool too small for eps has no
    tuples, and every factor is 0."""
    T = len(eps)
    if m < T:
        return (0.0,) * 6
    sum_eps = sum(eps)
    sum_eps_sq = sum(e * e for e in eps)
    return (
        falling_factorial(m, T),
        falling_factorial(m - 1, T - 1) if T >= 1 else 0.0,
        falling_factorial(m - 2, T - 2) if T >= 2 else 0.0,
        sum_eps,
        sum_eps_sq,
        sum_eps * sum_eps - sum_eps_sq,
    )


def _distinct_square_sum(m: int, q1, q2, alpha, eps: tuple[float, ...]):
    """sum over distinct tuples (x_1..x_T) from a pool of m labels of
    (alpha + sum_t eps_t u_{x_t})^2, given the power sums q1, q2 of u.

    Expanding the square, every term reduces by symmetry to q1, q2 and
    counting factors: distinct tuples number m_(T), each fixed coordinate
    ranges with multiplicity (m-1)_(T-1), and unordered coordinate pairs
    with multiplicity (m-2)_(T-2) against (q1^2 - q2).  Works elementwise
    on arrays of (q1, q2, alpha).  With no coordinates left (eps = ()) the
    one empty tuple gives alpha^2.
    """
    if not eps:
        return alpha * alpha
    if m < len(eps):
        return 0.0
    n_tuples, per_coord, per_pair, sum_eps, sum_eps_sq, sum_cross = (
        _square_sum_factors(m, eps)
    )
    return (
        n_tuples * alpha * alpha
        + 2.0 * alpha * sum_eps * per_coord * q1
        + sum_eps_sq * per_coord * q2
        + sum_cross * per_pair * (q1 * q1 - q2)
    )


def _square_sum_coefficients(
    m: int, q1: float, q2: float, alpha: float, e: float, eps: tuple[float, ...]
) -> tuple[float, float, float]:
    """(c0, c1, c2) with c0 + c1 u + c2 u^2 equal to
    ``_distinct_square_sum(m, q1 - u, q2 - u^2, alpha + e u, eps)``: the
    weight of a label with value u drawn for a coordinate of sign e ahead
    of the coordinates eps.  c0 is the kernel at (q1, q2, alpha)."""
    n_tuples, per_coord, per_pair, sum_eps, sum_eps_sq, sum_cross = (
        _square_sum_factors(m, eps)
    )
    coord = sum_eps * per_coord
    pair = sum_cross * per_pair
    return (
        _distinct_square_sum(m, q1, q2, alpha, eps),
        2.0 * (n_tuples * alpha * e + coord * (e * q1 - alpha) - pair * q1),
        n_tuples * e * e - 2.0 * coord * e - sum_eps_sq * per_coord + 2.0 * pair,
    )


def _pair_sums(
    centered: np.ndarray,
) -> tuple[tuple[np.ndarray, np.ndarray, np.ndarray], dict[str, np.ndarray]]:
    """The pair statistics and square sums of every ordered pair at once.

    Returns (c, q1, q2) and the _SQUARE_SUMS by name, all (n, n) arrays
    indexed [i-1, j-1]: c = a_ii - a_jj and q1, q2 the first two power
    sums of u_x = a_{x,i} - a_{x,j} over x outside {i, j}.  q2 is the
    squared distance of columns i and j, read off the Gram matrix, less
    the x in {i, j} terms.  The square sums are sums of squares, so the
    round-off below zero is clipped; the diagonal of every array is 0.
    """
    n = len(centered)
    d = np.diag(centered)
    u_i = d[:, None] - centered  # u_x at x = i: a_ii - a_ij
    u_j = centered.T - d  # u_x at x = j: a_ji - a_jj
    col = centered.sum(axis=0)
    gram = centered.T @ centered
    g = np.diag(gram)
    c = d[:, None] - d
    q1 = col[:, None] - col - u_i - u_j
    q2 = g[:, None] + g - 2.0 * gram - u_i * u_i - u_j * u_j
    sums = {
        name: np.maximum(
            _distinct_square_sum(n - 2, q1, q2, c if offset else 0.0, eps), 0.0
        )
        for name, (offset, eps) in _SQUARE_SUMS.items()
    }
    return (c, q1, q2), sums


def _bucket_factors(params: EwensParams) -> list[tuple[str, float, float]]:
    """Per SQUARE_BIAS_BUCKETS entry: its square sum's name, theta^power
    and (theta+n-1)_(k)."""
    theta = params.theta
    return [
        (name, theta**power, falling_factorial(theta + params.n - 1, k))
        for _, name, power, k, _ in SQUARE_BIAS_BUCKETS
    ]


def _bucket_weights(sums: dict, factors: list) -> list:
    """The weight theta^power * sum / (theta+n-1)_(k) of each
    SQUARE_BIAS_BUCKETS entry, from the square sums by name and the
    _bucket_factors: (n, n) arrays over every pair, or one pair's floats."""
    return [power * sums[name] / falling for name, power, falling in factors]
