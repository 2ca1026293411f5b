"""The Ewens measure on S_n: pmf, cycle-type pmf, CRP sampling and the
fixed-point moments.

The measure with parameter theta > 0 puts mass theta^{#(pi)} / theta^{(n)}
on each permutation pi, where #(pi) is the cycle count and x^{(n)} denotes
the rising factorial.  theta = 1 is the uniform distribution.  A
permutation is the sequence of its 1-based images, the form of a
``sample_crp_images`` row; a cycle type is its count vector
(c_1, ..., c_n).  Both pmfs share one kernel, which evaluates the
quotient directly in floats and redoes it exactly in integers where an
operand or the result leaves the normal range.  The permutation objects
of the enumerating references, and the closed forms for partially
specified permutations and joint cycle-count moments, which only the
tests use, live in ``oracle.py``.
"""

from __future__ import annotations

import math
import sys
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np


__all__ = [
    "EwensParams",
    "rising_factorial",
    "falling_factorial",
    "ewens_pmf",
    "cycle_type_pmf",
    "sample_crp_images",
    "c1_moments",
    "C1Moments",
]

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


def _normal(*values: float) -> bool:
    """Every value is a finite float at or above the smallest normal one."""
    return all(sys.float_info.min <= v <= sys.float_info.max for v in values)


def _rising_product(a: int, b: int, n: int) -> int:
    """prod_{t < n} (a + t b) as a balanced product tree: each round
    multiplies neighbours, so every product joins operands of similar size
    instead of growing one operand a factor at a time."""
    factors = [a + t * b for t in range(n)]
    while len(factors) > 1:
        paired = [x * y for x, y in zip(factors[::2], factors[1::2])]
        if len(factors) % 2:
            paired.append(factors[-1])
        factors = paired
    return factors[0] if factors else 1


def _exact_pmf(theta: float, n: int, cycles: int, size: int) -> float:
    """size * theta^cycles / theta^(n) exactly at the float theta = a/b,
    rounded once: size a^cycles b^(n-cycles) / prod_t (a + t b) is a single
    int / int division, which Python rounds correctly."""
    a, b = theta.as_integer_ratio()
    return size * a**cycles * b ** (n - cycles) / _rising_product(a, b, n)


def _pmf(theta: float, n: int, cycles: int, size: int = 1) -> float:
    """size * theta^cycles / theta^(n): the mass of ``size`` permutations
    with ``cycles`` cycles each.

    The direct float quotient stands where size is a float and theta^(n),
    theta^cycles and the result are normal; theta^c <= theta^(n), so the
    power is finite wherever rising is.  A quotient with an operand or
    result outside the normal range (an overflow, or a subnormal that has
    lost bits) is redone exactly.
    """
    rising = rising_factorial(theta, n)
    if size <= sys.float_info.max and _normal(rising):
        power = theta**cycles
        p = size * power / rising
        if _normal(power, p):
            return p
    return _exact_pmf(theta, n, cycles, size)


def ewens_pmf(images: Sequence[int], params: EwensParams) -> float:
    """P_theta(pi) = theta^{#(pi)} / theta^{(n)}, pi given by its 1-based
    images (images[i-1] = pi(i)), as in a ``sample_crp_images`` row."""
    n = params.n
    if len(images) != n:
        raise ValueError(f"permutation is on [{len(images)}] but params.n = {n}")
    seen = [False] * (n + 1)
    for x in images:
        if not 1 <= x <= n:
            raise ValueError(f"image label {x} is outside [1, {n}]")
        if seen[x]:
            raise ValueError(f"not a bijection: label {x} appears twice")
        seen[x] = True
    # every label is seen; walking a cycle clears its labels
    cycles = 0
    for start in range(1, n + 1):
        if seen[start]:
            cycles += 1
            x = start
            while seen[x]:
                seen[x] = False
                x = images[x - 1]
    return _pmf(params.theta, n, cycles)


def cycle_type_pmf(counts: Sequence[int], params: EwensParams) -> float:
    """Probability of observing the cycle-count vector (c_1, ..., c_n)
    under Ewens(theta).

    Equals n!/theta^{(n)} * prod_j theta^{c_j} / (j^{c_j} c_j!), and 0 for
    vectors with sum_j j*c_j != n.
    """
    n = params.n
    counts = [int(c) for c in counts]
    if any(c < 0 for c in counts):
        raise ValueError("cycle counts must be nonnegative")
    if len(counts) != n:
        raise ValueError(f"cycle type is for n = {len(counts)}, params.n = {n}")
    if sum(j * c for j, c in enumerate(counts, start=1)) != n:
        return 0.0
    # n! / prod_j j^{c_j} c_j! permutations share the cycle type
    size = math.factorial(n)
    for j, c in enumerate(counts, start=1):
        size //= j**c * math.factorial(c)
    return _pmf(params.theta, n, sum(counts), size)


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
