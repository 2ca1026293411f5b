"""Square-bias index/configuration sampling and the approximate zero-bias
coupling.

The exchangeable pair (Y', Y'') conjugates an Ewens permutation pi' by a
uniformly chosen transposition (i j); reweighting its law by (y'-y'')^2
gives the square-bias pair (Y†, Y‡).  ``SquareBiasSampler`` draws that
pair's randomness in closed form: the index pair (I†, J†), then the
pre/post-image constraints pi(r)=i, pi(s)=j, pi(i)=k, pi(j)=l, one label
at a time from conditional marginals that ``statistic._distinct_square_sum``
gives, the same kernel as the index-pair weights.
``sample_zero_bias_batch`` draws pi' from the CRP, deletes
D = {i, j, r, s} from its cycles and reinserts them to realize the
constraints, working on image and inverse arrays, and returns
Y* = U Y† + (1-U) Y‡, which lies within 20 M of Y'.  The Permutation-level
reference for that surgery is ``oracle.construct_dagger``.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass
from itertools import accumulate

import numpy as np

from .ewens import EwensParams, sample_crp_images
from .statistic import (
    BUCKET_SLOTS,
    SQUARE_BIAS_BUCKETS,
    _SQUARE_SUMS,
    DegenerateError,
    ScoreMatrix,
    _bucket_factors,
    _bucket_weights,
    _case_constraints,
    _check_case_args,
    _distinct_square_sum,
    _pair_sums,
    b_value,
)

__all__ = [
    "SquareBiasConfig",
    "index_square_bias_weights",
    "SquareBiasSampler",
    "sample_zero_bias_batch",
]

def _as_rng(seed) -> np.random.Generator:
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(seed)


# ---------------------------------------------------------------------------
# Square-bias configurations
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SquareBiasConfig:
    """A sampled index pair with pre/post-image constraints.

    r, s are the required pre-images of i, j; k, l the required images.
    b = Y† - Y‡ is the configuration's signed difference, never zero.
    """

    i: int
    j: int
    r: int
    s: int
    k: int
    l: int
    case: str
    b: float

    def __post_init__(self) -> None:
        _check_case_args(self.case, self.i, self.j, self.r, self.s, self.k, self.l)
        if not abs(self.b) > 0.0:
            raise ValueError(
                f"square-bias configurations carry nonzero b; got {self.b}"
            )

    def constraint_map(self) -> dict[int, int]:
        return _case_constraints(self.i, self.j, self.r, self.s, self.k, self.l)

    def deleted_labels(self) -> frozenset[int]:
        return frozenset((self.i, self.j, self.r, self.s))


def index_square_bias_weights(
    A: ScoreMatrix, params: EwensParams, *, _sums: dict | None = None
) -> np.ndarray:
    """Unnormalized sampling weights for the index pair (I†, J†).

    Entry (i, j), i != j, is E[b^2(i, j, ...)] = sum over configurations of
    b^2 times the constraint probability.  Normalizing the matrix gives the
    index-pair law; the grand sum divided by n(n-1) is E(Y'-Y'')^2.
    """
    n = params.n
    if A.n != n:
        raise ValueError(f"matrix is {A.n}x{A.n} but params.n = {n}")
    if n < 6:
        raise ValueError(f"the case analysis requires n >= 6, got n = {n}")
    # SquareBiasSampler passes the _pair_sums of A it already holds
    if _sums is None:
        _sums = _pair_sums(A.centered)[1]
    W = sum(_bucket_weights(_sums, _bucket_factors(params)))
    if not W.any():
        raise DegenerateError(
            "degenerate square bias: (Y'-Y'')^2 has zero expectation for this matrix"
        )
    return W


def _pick(cum, rng: np.random.Generator) -> int:
    """An index drawn with probability proportional to the steps of cum."""
    pos = bisect.bisect_right(cum, rng.random() * cum[-1])
    return min(pos, len(cum) - 1)


class SquareBiasSampler:
    """Sampler for (I†, J†) and their pre/post-image configuration.

    The index pair is drawn from the closed-form weights.  Given the pair,
    the sub-case bucket is drawn from its closed-form weight.  In every
    bucket b = alpha + sum_t eps_t u_{x_t} over distinct labels x_t, so the
    labels are then drawn one coordinate at a time: x weighs the
    ``_distinct_square_sum`` of b^2 over the coordinates still to come,
    an O(n) vectorized computation, and ``BUCKET_SLOTS`` turns the drawn
    labels into the bucket's (case, r, s, k, l).  Each draw reads its
    pair's (c, q1, q2), square sums and u = a[:, i] - a[:, j] from the
    arrays set up here, so the sampler's memory does not grow with draws.
    """

    def __init__(self, A: ScoreMatrix, params: EwensParams):
        if A.n != params.n:
            raise ValueError(f"matrix is {A.n}x{A.n} but params.n = {params.n}")
        if params.n < 6:
            raise ValueError(
                f"the case analysis requires n >= 6, got n = {params.n}"
            )
        self.A = A
        self.params = params
        self.n = params.n
        self._stats, self._sums = _pair_sums(A.centered)
        W = index_square_bias_weights(A, params, _sums=self._sums)
        self.pair_weights = W
        self._pair_cum = np.cumsum(W.ravel())
        self._factors = _bucket_factors(params)

    # -- pair level --------------------------------------------------------

    def sample_pair(self, rng: np.random.Generator) -> tuple[int, int]:
        pos = _pick(self._pair_cum, rng)
        return pos // self.n + 1, pos % self.n + 1

    # -- configuration level ------------------------------------------------

    def _sample_sequential(
        self, i: int, j: int, rng: np.random.Generator
    ) -> tuple[str, int, int, int, int]:
        at = (i - 1, j - 1)
        pair_sums = {name: float(sums[at]) for name, sums in self._sums.items()}
        cum = list(accumulate(_bucket_weights(pair_sums, self._factors)))
        if not cum[-1] > 0.0:
            raise DegenerateError(
                f"degenerate square bias: pair ({i}, {j}) carries zero weight"
            )
        bucket, name, _, _ = SQUARE_BIAS_BUCKETS[_pick(cum, rng)]
        offset, eps = _SQUARE_SUMS[name]
        c, q1, q2 = (float(stat[at]) for stat in self._stats)
        u = self.A.centered[:, i - 1] - self.A.centered[:, j - 1]
        # b = alpha + sum_t eps_t u_{x_t}: alpha absorbs each drawn label and
        # (q1, q2) keep the power sums of the labels still free; index x is
        # label x + 1, and i, j are never free
        alpha = c if offset else 0.0
        free = np.ones(self.n, dtype=bool)
        free[i - 1] = free[j - 1] = False
        labels = [i, j]
        for t, e in enumerate(eps):
            # the weight of x sums b^2 over the distinct tails drawn after it
            w = _distinct_square_sum(
                self.n - t - 3, q1 - u, q2 - u * u, alpha + e * u, eps[t + 1 :]
            )
            cum_w = np.where(free, np.maximum(w, 0.0), 0.0).cumsum()
            if not cum_w[-1] > 0.0:
                raise DegenerateError(
                    "degenerate square bias: conditional weights sum to zero"
                )
            x = _pick(cum_w, rng)
            free[x] = False
            ux = float(u[x])
            alpha += e * ux
            q1 -= ux
            q2 -= ux * ux
            labels.append(x + 1)
        r, s, k, l = (labels[slot] for slot in BUCKET_SLOTS[bucket])
        return bucket.partition(":")[0], r, s, k, l

    # -- public sampling ----------------------------------------------------

    def sample_config(
        self, i: int, j: int, rng: np.random.Generator
    ) -> SquareBiasConfig:
        if not (1 <= i <= self.n and 1 <= j <= self.n and i != j):
            raise ValueError(
                f"index pair ({i}, {j}) needs 1 <= i, j <= {self.n} and i != j"
            )
        case, r, s, k, l = self._sample_sequential(i, j, rng)
        b = b_value(i, j, r, s, k, l, case, self.A)
        return SquareBiasConfig(i=i, j=j, r=r, s=s, k=k, l=l, case=case, b=b)

    def sample(self, rng: np.random.Generator) -> SquareBiasConfig:
        i, j = self.sample_pair(rng)
        return self.sample_config(i, j, rng)


def sample_zero_bias_batch(
    A: ScoreMatrix,
    params: EwensParams,
    count: int,
    seed=None,
    *,
    sampler: SquareBiasSampler | None = None,
) -> dict[str, np.ndarray]:
    """Zero-bias sampling returning arrays of Y', Y†, Y‡, Y* and U.

    Each row edits a CRP permutation in place of building a Permutation
    object: the surgery touches at most 10 positions, so Y† is computed
    incrementally from Y', and Y‡ = Y† - b.  ``oracle.construct_dagger``
    is the Permutation-level reference for the edit.
    """
    rng = _as_rng(seed)
    if sampler is None:
        sampler = SquareBiasSampler(A, params)
    n = params.n
    centered = A.centered
    rows_c = A.row_lists()
    # C order keeps the row sums of Y' and the per-row loop below as they were
    images = np.ascontiguousarray(sample_crp_images(params, rng, count))
    inverses = np.empty_like(images)
    cols = np.arange(1, n + 1)
    rowidx = np.arange(count)[:, None]
    inverses[rowidx, images - 1] = cols[None, :]
    y_prime = centered[np.arange(n)[None, :], images - 1].sum(axis=1)

    y_dagger = np.empty(count)
    y_ddagger = np.empty(count)
    us = np.empty(count)
    limit = 20.0 * A.max_abs + 1e-9 * max(20.0 * A.max_abs, 1.0)
    for t in range(count):
        img = images[t]
        inv = inverses[t]
        config = sampler.sample(rng)
        Dset = config.deleted_labels()
        C = config.constraint_map()
        change: dict[int, int] = {}
        # survivors that pointed into D now skip through it
        for d in Dset:
            x = int(inv[d - 1])
            if x in Dset:
                continue
            y = int(img[d - 1])
            while y in Dset:
                y = int(img[y - 1])
            change[x] = y
        # chain insertions and cycle closures
        values = set(C.values())
        visited: set[int] = set()
        for head in sorted(x for x in C if x not in values):
            x = head
            while x in C:
                change[x] = C[x]
                visited.add(x)
                x = C[x]
            # back-walk to the survivor that reduces onto the chain's end
            y = int(inv[x - 1])
            while y in Dset:
                y = int(inv[y - 1])
            change[y] = head
        for start in sorted(C):
            if start in visited:
                continue
            x = start
            while x not in visited:
                change[x] = C[x]
                visited.add(x)
                x = C[x]
        yd = float(y_prime[t]) + math.fsum(
            rows_c[x - 1][new - 1] - rows_c[x - 1][img[x - 1] - 1]
            for x, new in change.items()
        )
        u = float(rng.random())
        y_dagger[t] = yd
        y_ddagger[t] = yd - config.b
        us[t] = u
    y_star = us * y_dagger + (1.0 - us) * y_ddagger
    gaps = np.abs(y_star - y_prime)
    worst = float(gaps.max()) if count else 0.0
    if worst > limit:
        raise RuntimeError(f"coupling gap {worst} exceeds the 20 M bound")
    return {
        "y_prime": y_prime,
        "y_dagger": y_dagger,
        "y_ddagger": y_ddagger,
        "y_star": y_star,
        "u": us,
    }
