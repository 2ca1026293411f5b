"""The combinatorial statistic Y = sum_i a_{i,pi(i)} and its Stein machinery.

Takes a symmetric score matrix through centering, the ten-case partition of
ordered index pairs, the pair-difference values b, the remainder statistic T
(whose conditional expectation is the Stein remainder R), the closed-form
variance sigma^2 = Var(Y), the decomposition of E(Y'-Y'')^2 into case sums,
and closed-form bounds on the remainder moments.

Conventions fixed here and used everywhere downstream:
  * matrices are centered internally (grand mean removed), so all Stein
    formulas may assume mean zero;
  * b = y' - y'' where pi'' = tau pi' tau is the transposition conjugate;
  * only symmetric matrices are accepted.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .ewens import EwensParams, falling_factorial
from .permutations import Permutation

__all__ = [
    "DegenerateError",
    "ScoreMatrix",
    "CASE_LABELS",
    "VarianceDecomposition",
    "grand_mean",
    "center",
    "statistic",
    "classify",
    "b_value",
    "t_statistic",
    "sigma_squared",
    "variance_decomposition",
    "remainder_bounds",
]

# The ten-case partition of ordered pairs (i, j), i != j: A0 cases have
# b = 0, A1/A2 fix one of the two labels, A3/A4 map one onto the other,
# A5 subcases have {i, j, pi(i), pi(j)} all distinct and split by the
# cycle lengths |i|, |j|.
CASE_LABELS = (
    "A0_1",
    "A0_2",
    "A1",
    "A2",
    "A3",
    "A4",
    "A5_1",
    "A5_2",
    "A5_3",
    "A5_4",
)

# sigma^2 at or below 1e-12 (n M)^2 is floating-point noise for sums of
# n^2 products and is treated as exactly degenerate.
DEGENERATE_SIGMA_FACTOR = 1e-12


class DegenerateError(ValueError):
    """The input is valid but the quantity asked for is degenerate: zero
    variance or a square-bias law with no mass."""


@dataclass(frozen=True)
class ScoreMatrix:
    """A symmetric score matrix together with its centered form.

    ``centered`` is entries - grand_mean, the matrix actually entering every
    statistic; ``max_abs`` is M = max |centered|; ``theta_used`` records the
    Ewens parameter under which the grand mean was taken (it enters the
    diagonal weighting).
    """

    n: int
    entries: np.ndarray
    grand_mean: float
    centered: np.ndarray
    max_abs: float
    theta_used: float
    is_integer: bool

    def row_lists(self) -> list[list[float]]:
        # plain nested lists index faster than ndarray in the hot loops
        return self.centered.tolist()


def _check_square_symmetric(A: np.ndarray) -> np.ndarray:
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
    return a


def grand_mean(A: np.ndarray, params: EwensParams) -> float:
    """The Ewens-weighted grand mean: (theta * tr A + off-diagonal sum) / (n(theta+n-1)).

    This is exactly E[Y]/n, the constant whose removal centers the statistic.
    """
    a = _check_square_symmetric(A)
    n = params.n
    if a.shape[0] != n:
        raise ValueError(f"matrix is {a.shape[0]}x{a.shape[0]} but params.n = {n}")
    theta = params.theta
    tr = float(np.trace(a))
    off = float(a.sum()) - tr
    return (theta * tr + off) / (n * (theta + n - 1))


def center(A: np.ndarray, params: EwensParams) -> ScoreMatrix:
    """Subtract the grand mean so that E[Y] = 0; idempotent."""
    a = _check_square_symmetric(A)
    mean = grand_mean(a, params)
    centered = a - mean
    max_abs = float(np.max(np.abs(centered)))
    if not math.isfinite(max_abs):
        raise OverflowError(
            f"centering overflows double precision at theta = {params.theta}"
        )
    is_int = bool(np.all(a == np.round(a)))
    return ScoreMatrix(
        n=params.n,
        entries=a,
        grand_mean=mean,
        centered=centered,
        max_abs=max_abs,
        theta_used=params.theta,
        is_integer=is_int,
    )


def statistic(A: ScoreMatrix, perm: Permutation) -> float:
    """Y = sum_i a_hat[i, pi(i)] on the centered matrix."""
    if perm.n != A.n:
        raise ValueError(f"permutation of [{perm.n}] vs matrix of size {A.n}")
    c = A.centered
    return math.fsum(c[i, x - 1] for i, x in enumerate(perm.image))


def classify(i: int, j: int, perm: Permutation) -> str:
    """Which of the ten cases the ordered pair (i, j) falls in under pi.

    Decided from pi(i), pi(j) alone except for the A5 split, which also
    needs the cycle lengths of i and j.
    """
    if i == j:
        raise ValueError(f"classify needs distinct labels, got i = j = {i}")
    k, l = perm(i), perm(j)
    if k == i:
        return "A0_1" if l == j else "A1"
    if l == j:
        return "A2"
    if k == j:
        return "A0_2" if l == i else "A3"
    if l == i:
        return "A4"
    # all four of i, j, k, l distinct
    len_i2 = perm.cycle_len(i) == 2
    len_j2 = perm.cycle_len(j) == 2
    if len_i2 and len_j2:
        return "A5_1"
    if len_i2:
        return "A5_2"
    if len_j2:
        return "A5_3"
    return "A5_4"


def _check_case_args(
    case: str, i: int, j: int, r: int, s: int, k: int, l: int
) -> None:
    """Validate that (r, s, k, l) = (pre_i, pre_j, post_i, post_j) is a
    shape some permutation in the given case actually produces."""
    if i == j:
        raise ValueError("labels i and j must be distinct")
    others = {i, j}

    def outside(*labels: int) -> bool:
        return all(x not in others for x in labels)

    ok = False
    if case == "A0_1":
        ok = r == i and k == i and s == j and l == j
    elif case == "A0_2":
        ok = r == j and k == j and s == i and l == i
    elif case == "A1":
        ok = r == i and k == i and outside(s, l)
    elif case == "A2":
        ok = s == j and l == j and outside(r, k)
    elif case == "A3":
        ok = s == i and k == j and outside(r, l)
    elif case == "A4":
        ok = r == j and l == i and outside(s, k)
    elif case in ("A5_1", "A5_2", "A5_3", "A5_4"):
        ok = outside(r, s, k, l) and r != s and k != l
        if ok:
            if case == "A5_1":
                ok = k == r and l == s
            elif case == "A5_2":
                ok = k == r and l != s
            elif case == "A5_3":
                ok = l == s and k != r
            else:
                ok = k != r and l != s
    else:
        raise ValueError(f"unknown case label {case!r}")
    if not ok:
        raise ValueError(
            f"arguments (i={i}, j={j}, pre_i={r}, pre_j={s}, post_i={k}, "
            f"post_j={l}) are inconsistent with case {case}"
        )


def b_value(
    i: int,
    j: int,
    pre_i: int,
    pre_j: int,
    post_i: int,
    post_j: int,
    case: str,
    A: ScoreMatrix,
) -> float:
    """b = Y' - Y'' as a function of the pre/post images of i and j.

    Only the rows/columns touching i and j change under the transposition
    conjugation, so the difference is a short signed sum of matrix entries
    depending on the case."""
    _check_case_args(case, i, j, pre_i, pre_j, post_i, post_j)
    c = A.centered
    r, s, k, l = pre_i - 1, pre_j - 1, post_i - 1, post_j - 1
    ii, jj = i - 1, j - 1
    if case in ("A0_1", "A0_2"):
        return 0.0
    # symmetry forces exact cancellation on the closed patterns (the A3/A4
    # 3-cycles and the A5_4 4-cycle); return a clean zero rather than the
    # roundoff of two differently-ordered sums of the same entries
    if case == "A3" and l == r:
        return 0.0
    if case == "A4" and k == s:
        return 0.0
    if case == "A5_4" and k == s and l == r:
        return 0.0
    if case == "A1":
        return (c[ii, ii] + c[s, jj] + c[jj, l]) - (
            c[jj, jj] + c[s, ii] + c[ii, l]
        )
    if case == "A2":
        return (c[jj, jj] + c[r, ii] + c[ii, k]) - (
            c[ii, ii] + c[r, jj] + c[jj, k]
        )
    if case == "A3":
        return (c[r, ii] + c[ii, jj] + c[jj, l]) - (
            c[r, jj] + c[jj, ii] + c[ii, l]
        )
    if case == "A4":
        return (c[s, jj] + c[jj, ii] + c[ii, k]) - (
            c[s, ii] + c[ii, jj] + c[jj, k]
        )
    # A5 subcases share the eight-term expression
    return (c[r, ii] + c[ii, k] + c[s, jj] + c[jj, l]) - (
        c[r, jj] + c[jj, k] + c[s, ii] + c[ii, l]
    )


def t_statistic(A: ScoreMatrix, perm: Permutation, params: EwensParams) -> float:
    """The remainder statistic T(pi), a four-sum expression in the fixed points.

    With F the fixed-point set and c1 = |F|:
      T = 2(n + c1 - 2(theta+1)) sum_{i in F} a_ii
        + 2(c1 - 2 theta)        sum_{i not in F} a_ii
        - 4 sum_{i,j in F, i != j} a_ij
        - 4 sum_{i in F, j not in F} a_ij
    The Stein remainder is R(Y') = E[T | Y']/(n(n-1)).
    """
    n, theta = params.n, params.theta
    if perm.n != n or A.n != n:
        raise ValueError("size mismatch between matrix, permutation, and params")
    c = A.centered
    fix = np.array([x - 1 for x in perm.fixed_points()], dtype=np.intp)
    c1 = len(fix)
    tr = float(np.trace(c))
    if c1:
        diag_fix = float(c[fix, fix].sum())
        block = float(c[np.ix_(fix, fix)].sum())
        rows_fix = float(c[fix, :].sum())
    else:
        diag_fix = block = rows_fix = 0.0
    diag_rest = tr - diag_fix
    cross_ff = block - diag_fix  # i, j in F, i != j
    cross_fr = rows_fix - block  # i in F, j not in F
    return (
        2.0 * (n + c1 - 2.0 * (theta + 1.0)) * diag_fix
        + 2.0 * (c1 - 2.0 * theta) * diag_rest
        - 4.0 * cross_ff
        - 4.0 * cross_fr
    )


# ---------------------------------------------------------------------------
# Variance decomposition
# ---------------------------------------------------------------------------


def _check_matrix_params(A: ScoreMatrix, params: EwensParams) -> None:
    """A must be n x n and centered under params.theta: a matrix centered
    under another theta has E[Y] != 0, so E[Y^2] would not be Var(Y)."""
    if A.n != params.n:
        raise ValueError(f"matrix is {A.n}x{A.n} but params.n = {params.n}")
    if A.theta_used != params.theta:
        raise ValueError(
            f"matrix was centered under theta = {A.theta_used} "
            f"but params.theta = {params.theta}"
        )


def sigma_squared(A: ScoreMatrix, params: EwensParams) -> float:
    """sigma^2 = Var(Y) in closed form: the Ewens analogue of Hoeffding's
    variance formula for the combinatorial CLT.

    With E[Y] = 0 on the centered matrix, E[Y^2] needs only the one- and
    two-point constraint probabilities theta^loops / (theta+n-1)_(m).  With
    G = theta I + (1 - I) and B = A_hat o G:

        sigma^2 = sum(A_hat^2 o G) / (theta+n-1)
                + [ (sum B)^2 - |rowsum B|^2 - |colsum B|^2 + sum B^2
                    + (theta-1) sum_{i != j} a_ij a_ji ] / (theta+n-1)_(2)

    The bracket sums b_ij b_kl over i != k, j != l; the last term gives the
    2-cycles i <-> j their closed-loop weight theta.
    """
    n, theta = params.n, params.theta
    _check_matrix_params(A, params)
    if n < 2:
        raise ValueError(f"sigma^2 needs n >= 2, got n = {n}")
    a = A.centered
    g = np.ones((n, n))
    np.fill_diagonal(g, theta)
    swap = a * a.T
    # theta * a_ii enters squared: past ~1e154 / (n M) the sums overflow
    try:
        with np.errstate(over="raise", invalid="raise"):
            b = a * g
            one_point = float((a * b).sum()) / (theta + n - 1)
            two_point = (
                float(b.sum()) ** 2
                - float((b.sum(axis=1) ** 2).sum())
                - float((b.sum(axis=0) ** 2).sum())
                + float((b * b).sum())
                + (theta - 1.0) * float(swap.sum() - np.trace(swap))
            ) / falling_factorial(theta + n - 1, 2)
    except (OverflowError, FloatingPointError):
        raise OverflowError(
            f"sigma^2 overflows double precision at theta = {theta} "
            f"with max|a| = {A.max_abs}"
        ) from None
    sigma_sq = one_point + two_point
    if sigma_sq <= DEGENERATE_SIGMA_FACTOR * (n * A.max_abs) ** 2:
        raise DegenerateError(
            f"degenerate variance: sigma^2 = {sigma_sq} is at the noise floor"
        )
    return sigma_sq


@dataclass(frozen=True)
class VarianceDecomposition:
    """Case-by-case decomposition of E(Y'-Y'')^2 and the assembled variance.

    e_ydiff_sq = 2*beta1 + 2*beta3 + beta51 + 2*beta52 + beta54 and
    sigma_sq = (n/8) e_ydiff_sq + (n/4) e_yr.
    """

    beta1: float
    beta3: float
    beta51: float
    beta52: float
    beta54: float
    e_ydiff_sq: float
    e_yr: float
    sigma_sq: float


def _case_constraints(
    i: int, j: int, r: int, s: int, k: int, l: int
) -> dict[int, int]:
    """The deduplicated constraint map {pi(r)=i, pi(s)=j, pi(i)=k, pi(j)=l}."""
    pm: dict[int, int] = {}
    for a, b in ((r, i), (s, j), (i, k), (j, l)):
        if a in pm and pm[a] != b:
            raise ValueError(f"inconsistent constraints: {a} -> {pm[a]} and {a} -> {b}")
        pm[a] = b
    return pm


def variance_decomposition(
    A: ScoreMatrix, params: EwensParams
) -> VarianceDecomposition:
    """Evaluate the five case sums and the paper's decomposition of sigma^2.

    The case sums come from the closed form over per-pair power sums;
    sigma^2 comes from ``sigma_squared``.  E[Y'R] then follows exactly from
    sigma^2 = (n/8) E(Y'-Y'')^2 + (n/4) E[Y'R].
    """
    n, theta = params.n, params.theta
    _check_matrix_params(A, params)
    if n < 6:
        raise ValueError(f"the case analysis requires n >= 6, got n = {n}")

    sums = _case_sums_closed(A, params)
    d3 = n * (n - 1) * falling_factorial(theta + n - 1, 3)
    d4 = n * (n - 1) * falling_factorial(theta + n - 1, 4)
    beta1 = sums["A1"] / d3
    beta3 = sums["A3"] / d3
    beta51 = sums["A5_1"] / d4
    beta52 = sums["A5_2"] / d4
    beta54 = sums["A5_4"] / d4
    e_ydiff = (
        sums["A1"] / d3
        + sums["A2"] / d3
        + sums["A3"] / d3
        + sums["A4"] / d3
        + (sums["A5_1"] + sums["A5_2"] + sums["A5_3"] + sums["A5_4"]) / d4
    )
    sigma_sq = sigma_squared(A, params)
    return VarianceDecomposition(
        beta1=beta1,
        beta3=beta3,
        beta51=beta51,
        beta52=beta52,
        beta54=beta54,
        e_ydiff_sq=e_ydiff,
        e_yr=4.0 / n * (sigma_sq - n / 8.0 * e_ydiff),
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
# give, and its number k of constraints.  The bucket weighs
# theta^power * sum / (theta+n-1)_(k); summed over a case it is the case's
# share of E[b^2(i, j, ...)].
SQUARE_BIAS_BUCKETS = (
    ("A1:cycle", "A1_cycle", 2, 3),
    ("A1:chain", "A1_chain", 1, 3),
    ("A2:cycle", "A1_cycle", 2, 3),
    ("A2:chain", "A1_chain", 1, 3),
    ("A3:chain", "A3", 0, 3),
    ("A4:chain", "A3", 0, 3),
    ("A5_1", "A5_1", 2, 4),
    ("A5_2", "A5_2", 1, 4),
    ("A5_3", "A5_2", 1, 4),
    ("A5_4:chain_sk", "A5_4_chain", 0, 4),
    ("A5_4:chain_lr", "A5_4_chain", 0, 4),
    ("A5_4:free", "A5_4_free", 0, 4),
)

# Where each bucket's (r, s, k, l) = (pre_i, pre_j, post_i, post_j) come
# from: slot indices into (i, j, x_1, x_2, ...), with x_t the label drawn
# for coordinate t of the bucket's square sum.  A2, A4 and A5_3 mirror A1,
# A3 and A5_2; an A5_4 chain's zero-sign coordinate is its free middle label.
BUCKET_SLOTS = {
    "A1:cycle": (0, 2, 0, 2),
    "A1:chain": (0, 2, 0, 3),
    "A2:cycle": (2, 1, 2, 1),
    "A2:chain": (2, 1, 3, 1),
    "A3:chain": (2, 0, 1, 3),
    "A4:chain": (1, 2, 3, 0),
    "A5_1": (2, 3, 2, 3),
    "A5_2": (2, 3, 2, 4),
    "A5_3": (3, 2, 4, 2),
    "A5_4:chain_sk": (2, 3, 3, 4),
    "A5_4:chain_lr": (3, 4, 2, 3),
    "A5_4:free": (2, 3, 4, 5),
}


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
    T = len(eps)
    if T == 0:
        return alpha * alpha
    if m < T:
        return 0.0
    n_tuples = falling_factorial(m, T)
    per_coord = falling_factorial(m - 1, T - 1)
    per_pair = falling_factorial(m - 2, T - 2) if T >= 2 else 0.0
    sum_eps = sum(eps)
    sum_eps_sq = sum(e * e for e in eps)
    sum_cross = sum_eps * sum_eps - sum_eps_sq  # sum over ordered pairs t != t'
    return (
        n_tuples * alpha * alpha
        + 2.0 * alpha * sum_eps * per_coord * q1
        + sum_eps_sq * per_coord * q2
        + sum_cross * per_pair * (q1 * q1 - q2)
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
        for _, name, power, k in SQUARE_BIAS_BUCKETS
    ]


def _bucket_weights(sums: dict, factors: list) -> list:
    """The weight theta^power * sum / (theta+n-1)_(k) of each
    SQUARE_BIAS_BUCKETS entry, from the square sums by name and the
    _bucket_factors: (n, n) arrays over every pair, or one pair's floats."""
    return [power * sums[name] / falling for name, power, falling in factors]


def _pair_case_sums(A: ScoreMatrix, params: EwensParams) -> dict[str, np.ndarray]:
    """Per ordered pair, the sum over each case's configurations of
    b^2 theta^{loops}: an (n, n) array for each case that can carry b != 0."""
    _, sums = _pair_sums(A.centered)
    out: dict[str, np.ndarray] = {}
    for bucket, name, power, _ in SQUARE_BIAS_BUCKETS:
        case = bucket.partition(":")[0]
        out[case] = out.get(case, 0.0) + params.theta**power * sums[name]
    return out


def _case_sums_closed(A: ScoreMatrix, params: EwensParams) -> dict[str, float]:
    """The per-case sums of b^2 theta^{loops} over all ordered pairs."""
    return {case: float(v.sum()) for case, v in _pair_case_sums(A, params).items()}


def remainder_bounds(
    params: EwensParams, M: float, sigma: float
) -> tuple[float, float]:
    """Closed-form bounds (E|R| bound, |E Y'R| bound) for the remainder.

        E|R|    <= theta M (12n + 8 theta - 10)/((n-1)(theta+n-1))
                   + 2 theta^2 M / (theta+n-1)_(2)
        |E Y'R| <= (10 kappa1 + 4 theta + 4(kappa1(theta+1) + kappa2)/n)
                   * M sigma/(n-1)
    """
    from .bounds import kappa1, kappa2  # deferred: bounds imports this module

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
