"""The Ewens measure on S_n: pmf, CRP sampling, and exact constraint formulas.

The measure with parameter theta > 0 puts mass theta^{#(pi)} / theta^{(n)}
on each permutation pi, where #(pi) is the cycle count and x^{(n)} denotes
the rising factorial.  theta = 1 is the uniform distribution.  Probabilities
of partially specified permutations come from the closed forms

    P(pi(a) = xi_a, a in B)          = theta^{loops} / (theta+n-1)_(|B|)
    P(rest | pi fixed on B)          = theta^{#(pi\\B)} / theta^{(n-|B|)}

where ``loops`` counts the constraint chains that close into cycles and
x_(m) is the falling factorial.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping, Sequence

import numpy as np

from .permutations import CycleType, Permutation, mapping_cycle_count, reduce_delete

__all__ = [
    "EwensParams",
    "rising_factorial",
    "falling_factorial",
    "log_rising_factorial",
    "ewens_pmf",
    "ewens_log_pmf",
    "cycle_type_pmf",
    "sample_crp_images",
    "constrained_prob",
    "conditional_remaining_prob",
    "cycle_count_factorial_moment",
    "c1_moments",
    "C1Moments",
]

# pmf switches to log-space evaluation past this size to dodge overflow in
# theta^{(n)}; well below any float trouble for the n used in tests.
_LOG_SPACE_N = 20


@dataclass(frozen=True)
class EwensParams:
    """Ground-set size n and Ewens parameter theta."""

    n: int
    theta: float

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValueError(f"n must be at least 1, got {self.n}")
        if not (math.isfinite(self.theta) and self.theta > 0):
            raise ValueError(f"theta must be finite and positive, got {self.theta}")


def rising_factorial(x: float, m: int) -> float:
    """x^{(m)} = x (x+1) ... (x+m-1); empty product is 1."""
    if m < 0:
        raise ValueError("m must be nonnegative")
    out = 1.0
    for t in range(m):
        out *= x + t
    return out


def falling_factorial(x: float, m: int) -> float:
    """x_{(m)} = x (x-1) ... (x-m+1); empty product is 1."""
    if m < 0:
        raise ValueError("m must be nonnegative")
    out = 1.0
    for t in range(m):
        out *= x - t
    return out


def log_rising_factorial(x: float, m: int) -> float:
    """log x^{(m)} for x > 0."""
    return math.fsum(math.log(x + t) for t in range(m))


def ewens_log_pmf(perm: Permutation, params: EwensParams) -> float:
    if perm.n != params.n:
        raise ValueError(f"permutation is on [{perm.n}] but params.n = {params.n}")
    theta = params.theta
    return perm.cycle_count() * math.log(theta) - log_rising_factorial(theta, params.n)


def _exact_pmf(theta: float, n: int, cycles: int, scale: int = 1) -> float:
    """scale * theta^cycles / theta^(n) in exact rational arithmetic at the
    float theta, rounded once.  A float product of the ratios theta/(theta+t)
    and 1/(theta+t) lost up to 10 ulps at n = 12, since for theta >> n every
    1/(theta+t) rounds the same way."""
    x = Fraction(theta)
    return float(scale * x**cycles / math.prod(x + t for t in range(n)))


def ewens_pmf(perm: Permutation, params: EwensParams) -> float:
    """P_theta(pi) = theta^{#(pi)} / theta^{(n)}."""
    if perm.n != params.n:
        raise ValueError(f"permutation is on [{perm.n}] but params.n = {params.n}")
    if params.n > _LOG_SPACE_N:
        return math.exp(ewens_log_pmf(perm, params))
    rising = rising_factorial(params.theta, params.n)
    # theta^c <= theta^(n), so the power is finite wherever rising is; a
    # quotient that overflows or underflows to 0 is redone exactly
    if math.isfinite(rising):
        p = params.theta ** perm.cycle_count() / rising
        if p > 0.0:
            return p
    return _exact_pmf(params.theta, params.n, perm.cycle_count())


def cycle_type_pmf(ctype: CycleType, params: EwensParams) -> float:
    """Probability of observing the cycle-count vector c under Ewens(theta).

    Equals n!/theta^{(n)} * prod_j theta^{c_j} / (j^{c_j} c_j!), and 0 for
    vectors with sum_j j*c_j != n.
    """
    n = params.n
    if ctype.n != n:
        raise ValueError(f"cycle type is for n = {ctype.n}, params.n = {n}")
    if not ctype.is_valid():
        return 0.0
    theta = params.theta
    if n <= _LOG_SPACE_N:
        rising = rising_factorial(theta, n)
        # as in ewens_pmf: finite powers wherever rising is finite, and an
        # overflow or an underflow to 0 is redone exactly
        if math.isfinite(rising):
            p = math.factorial(n) / rising
            for j, c in enumerate(ctype.counts, start=1):
                if c:
                    p *= theta**c / (j**c * math.factorial(c))
            if p > 0.0:
                return p
        # n! / prod_j j^{c_j} c_j! permutations share the cycle type
        size = math.factorial(n)
        for j, c in enumerate(ctype.counts, start=1):
            size //= j**c * math.factorial(c)
        return _exact_pmf(theta, n, sum(ctype.counts), size)
    log_p = math.lgamma(n + 1) - log_rising_factorial(theta, n)
    for j, c in enumerate(ctype.counts, start=1):
        if c:
            log_p += c * (math.log(theta) - math.log(j)) - math.lgamma(c + 1)
    return math.exp(log_p)


def sample_crp_images(
    params: EwensParams, rng: np.random.Generator, size: int
) -> np.ndarray:
    """Batch CRP sampler: a (size, n) int32 array of 1-based image rows,
    each an Ewens(theta) draw via the Chinese-restaurant construction.

    Element m joins as a fixed point with probability theta/(theta+m-1),
    otherwise it is inserted just after a uniformly chosen existing element
    z (pi(m) <- pi(z); pi(z) <- m).  Each step draws one uniform r per row
    and sets u = r (theta+m-1) - theta: u < 0 makes m a fixed point, and
    u >= 0 inserts after z = min(floor(u), m-2) + 1.  Given u >= 0, z is
    uniform on 1..m-1 up to the (theta+m-1) 2^-53 granularity of r; the
    clamp catches an r whose product rounds up to theta+m-1.  The images
    are built as an (n, size) C-ordered column block, row i-1 holding
    pi(i) for every sample, and returned as its transpose: a
    Fortran-ordered view whose ``.T`` gives the block back without a copy.
    """
    n, theta = params.n, params.theta
    block = np.empty((n, size), dtype=np.int32)
    block[0] = 1
    flat = block.reshape(-1)
    samples = np.arange(size)
    for m in range(2, n + 1):
        block[m - 1] = m
        u = rng.random(size)
        u *= theta + m - 1
        u -= theta
        # floor(clip(u, -1, m-2)) is z-1 for an insertion and -1 for a fixed
        # point; row -1 of the first m rows is row m-1, so a fixed point
        # swaps its own entry with itself and no mask is needed
        np.clip(u, -1, m - 2, out=u)
        np.floor(u, out=u)
        src = u.astype(np.intp)
        src *= size
        src += samples
        head = flat[: m * size]
        block[m - 1] = head[src]
        head[src] = m
    return block.T


def _constraint_loops(pm: Mapping[int, int]) -> int:
    """Number of chains in the constraint graph that close into cycles."""
    loops = 0
    visited: set[int] = set()
    for start in pm:
        if start in visited:
            continue
        x = start
        while x in pm and x not in visited:
            visited.add(x)
            x = pm[x]
        # pm is injective, so the walk closed a loop iff it returned to
        # its own starting point
        if x == start:
            loops += 1
    return loops


def constrained_prob(pm: Mapping[int, int], params: EwensParams) -> float:
    """P(pi(a) = xi_a for every constraint a -> xi_a).

    Equals theta^{loops} / (theta+n-1)_(|B|) where ``loops`` counts the
    constraint chains closed into cycles.  A non-injective constraint set
    is unsatisfiable and yields 0 (square-bias enumeration generates and
    discards such sets, so this is not an error).
    """
    n, theta = params.n, params.theta
    if not pm:
        return 1.0
    targets = set()
    for a, xi in pm.items():
        if not (1 <= a <= n and 1 <= xi <= n):
            raise ValueError(f"constraint {a} -> {xi} is outside [1, {n}]")
        if xi in targets:
            return 0.0  # inconsistent: two sources demand the same image
        targets.add(xi)
    loops = _constraint_loops(pm)
    return theta**loops / falling_factorial(theta + n - 1, len(pm))


def conditional_remaining_prob(
    full: Mapping[int, int], given: Mapping[int, int], params: EwensParams
) -> float:
    """P(pi agrees with ``full`` off B | pi agrees with ``given`` on B).

    B is the domain of ``given``; ``full`` must be a complete bijection of
    [n] extending it.  The value is theta^{#(pi\\B)} / theta^{(n-|B|)}.
    """
    n, theta = params.n, params.theta
    if len(full) != n or set(full.keys()) != set(range(1, n + 1)):
        raise ValueError("'full' must specify an image for every label in [n]")
    for a, xi in given.items():
        if full.get(a) != xi:
            raise ValueError(f"'full' contradicts the given constraint {a} -> {xi}")
    perm = Permutation([full[i] for i in range(1, n + 1)])
    reduced = reduce_delete(perm, given.keys())
    loops = mapping_cycle_count(reduced) if reduced else 0
    return theta**loops / rising_factorial(theta, n - len(given))


def cycle_count_factorial_moment(m: Sequence[int], params: EwensParams) -> float:
    """E[prod_j (c_j)_(m_j)] for the cycle counts under Ewens(theta).

    With w = sum_j j*m_j the value is n_(w)/(theta+n-1)_(w) * prod (theta/j)^{m_j}
    when w <= n, and 0 otherwise.
    """
    n, theta = params.n, params.theta
    if len(m) != n:
        raise ValueError(f"moment vector must have length n = {n}, got {len(m)}")
    if any(mj < 0 for mj in m):
        raise ValueError("moment orders must be nonnegative")
    w = sum(j * mj for j, mj in enumerate(m, start=1))
    if w > n:
        return 0.0
    out = falling_factorial(n, w) / falling_factorial(theta + n - 1, w)
    for j, mj in enumerate(m, start=1):
        if mj:
            out *= (theta / j) ** mj
    return out


@dataclass(frozen=True)
class C1Moments:
    """The four fixed-point count moments used by the bound constants."""

    mean: float  # E[c1]
    factorial2: float  # E[c1(c1-1)]
    second: float  # E[c1^2]
    fourth_factorial_sq: float  # E[c1^2 (c1-1)^2]


def c1_moments(params: EwensParams) -> C1Moments:
    """E[c1], E[c1(c1-1)], E[c1^2], and E[c1^2(c1-1)^2] in closed form.

    All four reduce to joint factorial moments of c1:
    c1^2 = c1(c1-1) + c1 and c1^2(c1-1)^2 = (c1)_4 + 4(c1)_3 + 2(c1)_2.
    """
    n, theta = params.n, params.theta

    def fm(k: int) -> float:
        # E[(c1)_(k)] = theta^k n_(k) / (theta+n-1)_(k), zero when k > n
        if k > n:
            return 0.0
        falling = falling_factorial(theta + n - 1, k)
        if math.isfinite(falling):
            value = theta**k * falling_factorial(n, k) / falling
            if math.isfinite(value):
                return value
        # theta^k n_(k) overflows: take the ratio factor by factor
        return math.prod(theta / (theta + n - 1 - t) * (n - t) for t in range(k))

    mean = fm(1)
    f2 = fm(2)
    return C1Moments(
        mean=mean,
        factorial2=f2,
        second=f2 + mean,
        fourth_factorial_sq=fm(4) + 4 * fm(3) + 2 * f2,
    )
