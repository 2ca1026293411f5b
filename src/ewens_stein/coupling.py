"""Square-bias index/configuration sampling and the approximate zero-bias
coupling.

The exchangeable pair (Y', Y'') conjugates an Ewens permutation pi' by a
uniformly chosen transposition (i j); reweighting its law by (y'-y'')^2
gives the square-bias pair (Y†, Y‡).  ``SquareBiasSampler`` draws that
pair's randomness in closed form: the index pair (I†, J†), then the
pre/post-image constraints pi(r)=i, pi(s)=j, pi(i)=k, pi(j)=l, one label
at a time from conditional marginals that ``statistic._distinct_square_sum``
gives, the same kernel as the index-pair weights.  A configuration is the
plain tuple (i, j, r, s, k, l); its case is a function of that tuple and
is not carried.
``sample_zero_bias_batch`` draws pi' from the CRP, one fixed-size chunk
of rows at a time, deletes
D = {i, j, r, s} from its cycles and reinserts them to realize the
constraints, working on image and inverse arrays, and returns
Y* = U Y† + (1-U) Y‡, which lies within 20 M of Y'.  The enumeration
reference for that surgery is ``oracle.construct_dagger``.  Both the
surgery and b = Y† - Y‡ are read off the configuration's constraint map
{r: i, s: j, i: k, j: l}; b is its signed sum of at most eight centered
entries, correctly rounded (``statistic._constraint_b``).
"""

from __future__ import annotations

import bisect
from itertools import accumulate

import numpy as np

from .ewens import EwensParams, sample_crp_images
from .statistic import (
    SQUARE_BIAS_BUCKETS,
    _SQUARE_SUMS,
    DegenerateError,
    ScoreMatrix,
    _bucket_factors,
    _bucket_weights,
    _case_constraints,
    _constraint_b,
    _pair_sums,
    _square_sum_coefficients,
    block_statistic,
    padded_scores,
)

__all__ = [
    "index_square_bias_weights",
    "SquareBiasSampler",
    "sample_zero_bias_batch",
    "ZERO_BIAS_CHUNK_ROWS",
]

# rows per sample_zero_bias_batch chunk; a chunk's images and inverses are
# the batch's only (rows x n) arrays
ZERO_BIAS_CHUNK_ROWS = 1024


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
    ``_distinct_square_sum`` of b^2 over the coordinates still to come.
    That weight is a quadratic c0 + c1 u_x + c2 u_x^2 whose scalar
    coefficients ``_square_sum_coefficients`` builds from the kernel's
    counting factors, so a step costs four array operations on u; the
    last coordinate weighs b^2 itself, so a label leaving b = 0 weighs
    exactly 0.  The bucket's slots in ``SQUARE_BIAS_BUCKETS`` turn the
    drawn labels into (r, s, k, l).  Each draw reads its pair's
    (c, q1, q2), square sums and u = a[:, i] - a[:, j] from the arrays
    set up here, so the sampler's memory does not grow with draws.
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

    def sample_config(
        self, i: int, j: int, rng: np.random.Generator
    ) -> tuple[int, int, int, int]:
        """The pre/post images (r, s, k, l) of a configuration drawn for
        the index pair (i, j)."""
        if not (1 <= i <= self.n and 1 <= j <= self.n and i != j):
            raise ValueError(
                f"index pair ({i}, {j}) needs 1 <= i, j <= {self.n} and i != j"
            )
        at = (i - 1, j - 1)
        pair_sums = {name: float(sums[at]) for name, sums in self._sums.items()}
        cum = list(accumulate(_bucket_weights(pair_sums, self._factors)))
        if not cum[-1] > 0.0:
            raise DegenerateError(
                f"degenerate square bias: pair ({i}, {j}) carries zero weight"
            )
        _, name, _, _, slots = SQUARE_BIAS_BUCKETS[_pick(cum, rng)]
        offset, eps = _SQUARE_SUMS[name]
        c, q1, q2 = (float(stat[at]) for stat in self._stats)
        # the matrix is symmetric, so rows i and j are its columns i and j
        u = self.A.centered[i - 1] - self.A.centered[j - 1]
        # b = alpha + sum_t eps_t u_{x_t}: alpha absorbs each drawn label and
        # (q1, q2) keep the power sums of the labels still free; index x is
        # label x + 1, and i, j are never free
        alpha = c if offset else 0.0
        drawn = [i - 1, j - 1]
        for t, e in enumerate(eps):
            # the weight of x sums b^2 over the distinct tails drawn after
            # it, a quadratic in u_x; the last coordinate squares b itself,
            # so a label that leaves b = 0 weighs exactly 0
            tail = eps[t + 1 :]
            if tail:
                c0, c1, c2 = _square_sum_coefficients(
                    self.n - t - 3, q1, q2, alpha, e, tail
                )
                w = c2 * u
                w += c1
                w *= u
                w += c0
            else:
                w = e * u
                w += alpha
                w *= w
            np.maximum(w, 0.0, out=w)
            for x in drawn:
                w[x] = 0.0
            cum_w = w.cumsum()
            if not cum_w[-1] > 0.0:
                raise DegenerateError(
                    "degenerate square bias: conditional weights sum to zero"
                )
            x = _pick(cum_w, rng)
            drawn.append(x)
            ux = float(u[x])
            alpha += e * ux
            q1 -= ux
            q2 -= ux * ux
        labels = [x + 1 for x in drawn]
        r, s, k, l = (labels[slot] for slot in slots)
        return r, s, k, l

    def sample(self, rng: np.random.Generator) -> tuple[int, int, int, int, int, int]:
        """A configuration (i, j, r, s, k, l): the pair, then its images."""
        i, j = self.sample_pair(rng)
        return (i, j) + self.sample_config(i, j, rng)


def _dagger_changes(img, inv, C: dict[int, int]) -> dict[int, int]:
    """The new images {x: pi†(x)} of the positions where pi† differs from
    pi, given pi's image and inverse rows: D = {i, j, r, s}, the sources of
    the constraint map C, is deleted from pi's cycles and reinserted to
    realize C."""
    change: dict[int, int] = {}
    # survivors that pointed into D now skip through it
    for d in C:
        x = int(inv[d - 1])
        if x in C:
            continue
        y = int(img[d - 1])
        while y in C:
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
        while y in C:
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
    return change


def sample_zero_bias_batch(
    A: ScoreMatrix,
    params: EwensParams,
    count: int,
    seed=None,
    *,
    sampler: SquareBiasSampler | None = None,
) -> dict[str, np.ndarray]:
    """Zero-bias sampling returning arrays of Y', Y†, Y‡, Y* and U.

    Each row edits the image row of a CRP permutation in place: it draws
    its pair and labels from the sampler and builds their constraint map
    once, which gives both the surgery and b.  Once Y' is
    summed from the chunk's images, the surgery's at most 10 changes are
    written into the row's images, one more ``block_statistic`` call gives
    the chunk's Y†, and Y‡ = Y† - b.
    ``oracle.construct_dagger`` is the reference for the edit.

    Rows run in chunks of ``ZERO_BIAS_CHUNK_ROWS`` on the one generator: a
    chunk draws its CRP images, then each of its rows draws its
    configuration and then U, and the next chunk follows.  A batch of at
    most one chunk thus draws all its images before any configuration.
    Only the five (count,) outputs grow with count; a chunk's images,
    inverses and index temporaries take at most 16 bytes per image entry.
    A ``sampler`` must be built for the same centered matrix and params.
    """
    if count < 0:
        raise ValueError(f"count must be nonnegative, got {count}")
    rng = np.random.default_rng(seed)
    if sampler is None:
        sampler = SquareBiasSampler(A, params)
    elif sampler.params != params or not np.array_equal(sampler.A.centered, A.centered):
        # b and the pair law would come from the sampler's matrix, Y' from A
        raise ValueError("sampler was built for another matrix or params")
    padded = padded_scores(A)
    centered = sampler.A.centered
    cols = np.arange(1, params.n + 1)
    limit = 20.0 * A.max_abs + 1e-9 * max(20.0 * A.max_abs, 1.0)
    y_prime, y_dagger, y_ddagger, y_star, us = (np.empty(count) for _ in range(5))

    def chunk(lo: int, hi: int) -> None:
        # the chunk's arrays, and any row views of them, die on return
        images = sample_crp_images(params, rng, hi - lo)
        y_prime[lo:hi] = block_statistic(padded, images.T)
        inverses = np.empty_like(images)
        inverses[np.arange(hi - lo)[:, None], images - 1] = cols
        for t, img, inv in zip(range(lo, hi), images, inverses):
            i, j, r, s, k, l = sampler.sample(rng)
            C = _case_constraints(params.n, i, j, r, s, k, l)
            # the row becomes pi†'s images; its inverse row is not read again
            for x, new in _dagger_changes(img, inv, C).items():
                img[x - 1] = new
            # b until the chunk's Y† is known
            y_ddagger[t] = _constraint_b(centered, i, j, C)
            us[t] = float(rng.random())
        y_dagger[lo:hi] = block_statistic(padded, images.T)
        y_ddagger[lo:hi] = y_dagger[lo:hi] - y_ddagger[lo:hi]
        u = us[lo:hi]
        y_star[lo:hi] = u * y_dagger[lo:hi] + (1.0 - u) * y_ddagger[lo:hi]
        worst = float(np.abs(y_star[lo:hi] - y_prime[lo:hi]).max())
        if worst > limit:
            raise RuntimeError(f"coupling gap {worst} exceeds the 20 M bound")

    for lo in range(0, count, ZERO_BIAS_CHUNK_ROWS):
        chunk(lo, min(lo + ZERO_BIAS_CHUNK_ROWS, count))
    return {
        "y_prime": y_prime,
        "y_dagger": y_dagger,
        "y_ddagger": y_ddagger,
        "y_star": y_star,
        "u": us,
    }
