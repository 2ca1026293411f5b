"""Square-bias index/configuration sampling and the approximate zero-bias
coupling.

The exchangeable pair (Y', Y'') conjugates an Ewens permutation pi' by a
uniformly chosen transposition (i j); reweighting its law by (y'-y'')^2
gives the square-bias pair (Y†, Y‡).  ``SquareBiasSampler`` draws that
pair's randomness in closed form: the index pair (I†, J†), then the
pre/post-image constraints pi(r)=i, pi(s)=j, pi(i)=k, pi(j)=l.
``sample_zero_bias_batch`` draws pi' from the CRP, deletes
D = {i, j, r, s} from its cycles and reinserts them to realize the
constraints, working on image and inverse arrays, and returns
Y* = U Y† + (1-U) Y‡, which lies within 20 M of Y'.  The Permutation-level
reference for that surgery is ``oracle.construct_dagger``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .ewens import EwensParams, falling_factorial, sample_crp_images
from .statistic import (
    SQUARE_BIAS_BUCKETS,
    DegenerateError,
    ScoreMatrix,
    _bucket_weights,
    _case_constraints,
    _check_case_args,
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
    W = sum(_bucket_weights(_sums, params))
    if not W.any():
        raise DegenerateError(
            "degenerate square bias: (Y'-Y'')^2 has zero expectation for this matrix"
        )
    return W


def _zero_weight(i: int, j: int) -> DegenerateError:
    return DegenerateError(
        f"degenerate square bias: pair ({i}, {j}) carries zero weight"
    )


class SquareBiasSampler:
    """Sampler for (I†, J†) and their pre/post-image configuration.

    The index pair is drawn from the closed-form weights.  Given the pair,
    the sub-case bucket is drawn from its closed-form weight and the
    constrained labels are then drawn one coordinate at a time from their
    exact conditional marginals, each an O(n) vectorized computation.
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
        self._total = self._pair_cum[-1]
        self._labels = np.arange(1, self.n + 1, dtype=np.intp)
        self._buckets: dict[tuple[int, int], tuple] = {}

    # -- pair level --------------------------------------------------------

    def sample_pair(self, rng: np.random.Generator) -> tuple[int, int]:
        pos = int(np.searchsorted(self._pair_cum, rng.random() * self._total, side="right"))
        pos = min(pos, self.n * self.n - 1)
        return pos // self.n + 1, pos % self.n + 1

    # -- configuration level ------------------------------------------------

    def _pair_context(self, i: int, j: int):
        """u-vector machinery for one pair: pool labels, u values, stats and
        the cumulative bucket weights."""
        key = (i, j)
        ctx = self._buckets.get(key)
        if ctx is None:
            centered = self.A.centered
            pool = np.delete(self._labels, (i - 1, j - 1))
            u = centered[pool - 1, i - 1] - centered[pool - 1, j - 1]
            c, q1, q2 = (float(stat[i - 1, j - 1]) for stat in self._stats)
            cum = np.cumsum(_bucket_weights(self._sums, self.params, (i - 1, j - 1)))
            if not cum[-1] > 0.0:
                raise _zero_weight(i, j)
            ctx = (pool, u, c, q1, q2, cum)
            self._buckets[key] = ctx
        return ctx

    @staticmethod
    def _draw(weights: np.ndarray, rng: np.random.Generator) -> int:
        w = np.clip(weights, 0.0, None)
        cum = np.cumsum(w)
        total = cum[-1]
        if not total > 0.0:
            raise DegenerateError(
                "degenerate square bias: conditional weights sum to zero"
            )
        pos = int(np.searchsorted(cum, rng.random() * total, side="right"))
        return min(pos, len(w) - 1)

    def _sample_sequential(
        self, i: int, j: int, rng: np.random.Generator
    ) -> tuple[str, int, int, int, int]:
        pool, u, c, q1, q2, cum = self._pair_context(i, j)
        m = len(pool)
        pos = int(np.searchsorted(cum, rng.random() * cum[-1], side="right"))
        bucket = SQUARE_BIAS_BUCKETS[min(pos, len(cum) - 1)][0]

        def pick(weights) -> int:
            return self._draw(weights, rng)

        if bucket in ("A1:cycle", "A2:cycle"):
            w = (c - 2.0 * u) ** 2
            x = pick(w)
            lab = int(pool[x])
            if bucket.startswith("A1"):
                return "A1", i, lab, i, lab
            return "A2", lab, j, lab, j
        if bucket in ("A1:chain", "A2:chain"):
            alpha = c - u
            q1e, q2e = q1 - u, q2 - u * u
            w = (m - 1) * alpha**2 - 2.0 * alpha * q1e + q2e
            x = pick(w)
            first = int(pool[x])
            mask = pool != first
            w2 = (c - u[x] - u[mask]) ** 2
            second = int(pool[mask][pick(w2)])
            if bucket.startswith("A1"):
                return "A1", i, first, i, second  # s = first, l = second
            return "A2", first, j, second, j  # r = first, k = second
        if bucket in ("A3:chain", "A4:chain"):
            w = (m - 1) * u**2 - 2.0 * u * (q1 - u) + (q2 - u * u)
            x = pick(w)
            first = int(pool[x])
            mask = pool != first
            w2 = (u[x] - u[mask]) ** 2
            second = int(pool[mask][pick(w2)])
            if bucket.startswith("A3"):
                return "A3", first, i, j, second  # r = first, l = second
            return "A4", j, first, second, i  # s = first, k = second
        if bucket == "A5_1":
            w = (m - 1) * u**2 - 2.0 * u * (q1 - u) + (q2 - u * u)
            x = pick(w)
            r = int(pool[x])
            mask = pool != r
            s = int(pool[mask][pick((u[x] - u[mask]) ** 2)])
            return "A5_1", r, s, r, s
        if bucket in ("A5_2", "A5_3"):
            # |b| = |2u_first - u_second - u_third| with first the 2-cycle label
            alpha = 2.0 * u
            q1e, q2e = q1 - u, q2 - u * u
            w = (
                falling_factorial(m - 1, 2) * alpha**2
                - 4.0 * alpha * (m - 2) * q1e
                + 2.0 * (m - 2) * q2e
                + 2.0 * (q1e * q1e - q2e)
            )
            x = pick(w)
            first = int(pool[x])
            mask = pool != first
            up = u[mask]
            alpha2 = 2.0 * u[x] - up
            q1f, q2f = q1 - u[x] - up, q2 - u[x] ** 2 - up * up
            w2 = (m - 2) * alpha2**2 - 2.0 * alpha2 * q1f + q2f
            y = pick(w2)
            second = int(pool[mask][y])
            mask2 = mask & (pool != second)
            w3 = (2.0 * u[x] - u[pool == second][0] - u[mask2]) ** 2
            third = int(pool[mask2][pick(w3)])
            if bucket == "A5_2":
                return "A5_2", first, second, first, third
            return "A5_3", second, first, third, first
        if bucket in ("A5_4:chain_sk", "A5_4:chain_lr"):
            # squared gap (u_a - u_b)^2 over ordered distinct (a, b), free middle
            w = (m - 1) * u**2 - 2.0 * u * (q1 - u) + (q2 - u * u)
            x = pick(w)
            a = int(pool[x])
            mask = pool != a
            b_lab = int(pool[mask][pick((u[x] - u[mask]) ** 2)])
            rest = pool[(pool != a) & (pool != b_lab)]
            free = int(rest[int(rng.integers(0, len(rest)))])
            if bucket.endswith("chain_sk"):
                # chain r -> i -> k -> j -> l with k free: b = u_r - u_l
                return "A5_4", a, free, free, b_lab
            # chain s -> j -> r -> i -> k with r = l free: b = u_k - u_s
            return "A5_4", free, b_lab, a, free
        # A5_4:free
        alpha = u
        q1e, q2e = q1 - u, q2 - u * u
        w = (
            falling_factorial(m - 1, 3) * alpha**2
            - 2.0 * alpha * falling_factorial(m - 2, 2) * q1e
            + 3.0 * falling_factorial(m - 2, 2) * q2e
            - 2.0 * (m - 3) * (q1e * q1e - q2e)
        )
        x = pick(w)
        r = int(pool[x])
        ur = u[x]
        mask_r = pool != r
        up = u[mask_r]
        alpha2 = ur - up
        q1f, q2f = q1 - ur - up, q2 - ur**2 - up * up
        w2 = (
            falling_factorial(m - 2, 2) * alpha2**2
            + 2.0 * (m - 3) * q2f
            - 2.0 * (q1f * q1f - q2f)
        )
        y = pick(w2)
        s = int(pool[mask_r][y])
        us = u[pool == s][0]
        mask_rs = mask_r & (pool != s)
        uq = u[mask_rs]
        alpha3 = ur + uq - us
        q1g = q1 - ur - us - uq
        q2g = q2 - ur**2 - us**2 - uq * uq
        w3 = (m - 3) * alpha3**2 - 2.0 * alpha3 * q1g + q2g
        z = pick(w3)
        k = int(pool[mask_rs][z])
        uk = u[pool == k][0]
        mask_rsk = mask_rs & (pool != k)
        w4 = (ur + uk - us - u[mask_rsk]) ** 2
        l = int(pool[mask_rsk][pick(w4)])
        return "A5_4", r, s, k, l

    # -- public sampling ----------------------------------------------------

    def sample_config(
        self, i: int, j: int, rng: np.random.Generator
    ) -> SquareBiasConfig:
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
