"""Brute-force exact computation over S_n, used as ground truth.

Everything here works by enumerating all n! permutations and weighting them
with the Ewens pmf, so it is deliberately independent of the constructive
samplers and case-by-case formulas it is used to check.  Hard caps keep
enumeration affordable: n <= 8 for marginal quantities (40320 permutations),
n <= 6 for the joint square-bias law (720 permutations x 30 index pairs).
The one exception is ``_case_sums_direct``, which enumerates index
configurations rather than permutations: the O(n^6) reference the closed
case sums of the variance decomposition are checked against.
"""

from __future__ import annotations

import math
from itertools import chain
from itertools import permutations as _itertools_permutations
from typing import Callable, Iterator, Sequence

import numpy as np

from .ewens import EwensParams, ewens_pmf, rising_factorial
from .permutations import Permutation
from .statistic import (
    CASE_LABELS,
    DegenerateError,
    ScoreMatrix,
    _case_constraints,
    b_value,
    iter_case_configs,
)

__all__ = [
    "MAX_MARGINAL_N",
    "MAX_JOINT_N",
    "DiscreteLaw",
    "enumerate_permutations",
    "exact_statistic_law",
    "exact_expectation",
    "exact_square_bias_law",
]

MAX_MARGINAL_N = 8
MAX_JOINT_N = 6

# Atoms closer than this (max-norm) are true ties between short sums of
# doubles, not distinct values.
ATOM_MERGE_TOL = 1e-12


def _check_cap(n: int, cap: int, what: str) -> None:
    if n > cap:
        raise ValueError(
            f"{what} enumerates S_n exhaustively and is capped at n <= {cap}; got n = {n}"
        )
    if n < 1:
        raise ValueError(f"n must be at least 1, got {n}")


class DiscreteLaw:
    """A finite law: atoms (value, probability), values sorted ascending.

    Values are either floats or equal-length tuples of floats (for joint
    laws).  Construction merges atoms whose values differ by at most
    ATOM_MERGE_TOL in every coordinate and checks normalization.
    """

    __slots__ = ("_values", "_probs")

    def __init__(self, atoms: Sequence[tuple], *, normalize: bool = False):
        if not atoms:
            raise ValueError("a discrete law needs at least one atom")
        pairs = sorted(atoms, key=lambda vp: vp[0])
        values: list = []
        masses: list[list[float]] = []
        for value, prob in pairs:
            if prob < -1e-15:
                raise ValueError(f"negative probability {prob} at value {value}")
            if values and _close(values[-1], value):
                masses[-1].append(prob)
            else:
                values.append(value)
                masses.append([prob])
        probs = [math.fsum(group) for group in masses]
        total = math.fsum(probs)
        if normalize:
            if total <= 0:
                raise ValueError("total mass is zero; cannot normalize")
            probs = [p / total for p in probs]
        elif abs(total - 1.0) > 1e-12:
            raise ValueError(f"probabilities sum to {total}, not 1")
        self._values = tuple(values)
        self._probs = tuple(probs)

    @property
    def atoms(self) -> tuple[tuple, ...]:
        return tuple(zip(self._values, self._probs))

    @property
    def values(self) -> tuple:
        return self._values

    @property
    def probs(self) -> tuple[float, ...]:
        return self._probs

    def __len__(self) -> int:
        return len(self._values)

    def total_mass(self) -> float:
        return math.fsum(self._probs)

    def expectation(self, f: Callable | None = None) -> float:
        if f is None:
            return math.fsum(v * p for v, p in zip(self._values, self._probs))
        return math.fsum(f(v) * p for v, p in zip(self._values, self._probs))

    def mean(self) -> float:
        return self.expectation()

    def variance(self) -> float:
        mu = self.mean()
        return math.fsum((v - mu) ** 2 * p for v, p in zip(self._values, self._probs))

    def values_array(self) -> np.ndarray:
        return np.asarray(self._values, dtype=float)

    def probs_array(self) -> np.ndarray:
        return np.asarray(self._probs, dtype=float)

    def to_json(self) -> list[dict]:
        out = []
        for v, p in zip(self._values, self._probs):
            jv = list(v) if isinstance(v, tuple) else v
            out.append({"value": jv, "prob": p})
        return out

    def tv_distance(self, other: "DiscreteLaw") -> float:
        """Total variation distance, matching atoms by merge tolerance."""
        i = j = 0
        acc = []
        sv, sp = self._values, self._probs
        ov, op = other._values, other._probs
        while i < len(sv) and j < len(ov):
            if _close(sv[i], ov[j]):
                acc.append(abs(sp[i] - op[j]))
                i += 1
                j += 1
            elif sv[i] < ov[j]:
                acc.append(sp[i])
                i += 1
            else:
                acc.append(op[j])
                j += 1
        acc.extend(sp[i:])
        acc.extend(op[j:])
        return 0.5 * math.fsum(acc)


def _close(a, b) -> bool:
    if isinstance(a, tuple):
        return all(abs(x - y) <= ATOM_MERGE_TOL for x, y in zip(a, b))
    return abs(a - b) <= ATOM_MERGE_TOL


def enumerate_permutations(n: int) -> Iterator[Permutation]:
    """All n! permutations of [n], in lexicographic image order."""
    _check_cap(n, MAX_MARGINAL_N, "enumerate_permutations")
    for image in _itertools_permutations(range(1, n + 1)):
        yield Permutation(image)


def exact_statistic_law(A: np.ndarray, params: EwensParams) -> DiscreteLaw:
    """Exact law of Y = sum_i A[i, pi(i)] under Ewens(theta).

    ``A`` is used exactly as given (pass the centered matrix for the
    centered statistic); this routine does its own summation rather than
    calling the statistic module, so the two paths stay independent.  S_n
    is one (n!, n) array of 0-based images, Y one gather-sum over A, and
    the pmf theta^{#cycles} / theta^{(n)}.
    """
    n, theta = params.n, params.theta
    _check_cap(n, MAX_MARGINAL_N, "exact_statistic_law")
    a = np.asarray(A, dtype=float)
    if a.shape != (n, n):
        raise ValueError(f"matrix shape {a.shape} does not match n = {n}")
    images = np.fromiter(
        chain.from_iterable(_itertools_permutations(range(n))),
        dtype=np.intp,
        count=math.factorial(n) * n,
    ).reshape(-1, n)
    labels = np.arange(n)
    # least label on each point's cycle, from pi^1(i), ..., pi^{n-1}(i)
    walk = images
    least = np.minimum(labels, walk)
    for _ in range(n - 2):
        walk = np.take_along_axis(images, walk, axis=1)
        np.minimum(least, walk, out=least)
    cycles = (least == labels).sum(axis=1)
    theta_powers = np.array([theta**k for k in range(n + 1)])
    probs = theta_powers[cycles] / rising_factorial(theta, n)
    ys = a[labels, images].sum(axis=1)
    return DiscreteLaw(list(zip(ys.tolist(), probs.tolist())))


def exact_expectation(
    g: Callable[[Permutation], float], params: EwensParams
) -> float:
    """E[g(pi)] by full enumeration, compensated summation."""
    _check_cap(params.n, MAX_MARGINAL_N, "exact_expectation")
    return math.fsum(
        g(perm) * ewens_pmf(perm, params)
        for perm in enumerate_permutations(params.n)
    )


def exact_square_bias_law(A: np.ndarray, params: EwensParams) -> DiscreteLaw:
    """Exact square-bias pair law: dF'(y', y'') ∝ (y'-y'')² dF(y', y'').

    F is the joint law of (Y(pi), Y(tau pi tau)) with pi ~ Ewens(theta) and
    (i, j) an independent uniform ordered pair, tau the transposition (i j).
    Pairs with y' = y'' carry zero weight and are dropped.
    """
    n = params.n
    _check_cap(n, MAX_JOINT_N, "exact_square_bias_law")
    a = np.asarray(A, dtype=float)
    if a.shape != (n, n):
        raise ValueError(f"matrix shape {a.shape} does not match n = {n}")
    rows = a.tolist()

    def y_of(img: tuple[int, ...]) -> float:
        return math.fsum(rows[i][x - 1] for i, x in enumerate(img))

    pair_weight = 1.0 / (n * (n - 1))
    atoms = []
    for perm in enumerate_permutations(n):
        p = ewens_pmf(perm, params) * pair_weight
        y1 = y_of(perm.image)
        for i in range(1, n + 1):
            for j in range(1, n + 1):
                if i == j:
                    continue
                y2 = y_of(perm.conjugate_by_transposition(i, j).image)
                w = p * (y1 - y2) ** 2
                if w > 0.0:
                    atoms.append(((y1, y2), w))
    if not atoms:
        raise DegenerateError(
            "degenerate square bias: (Y'-Y'')^2 has zero expectation for this matrix"
        )
    return DiscreteLaw(atoms, normalize=True)


def _case_sums_direct(A: ScoreMatrix, params: EwensParams) -> dict[str, float]:
    """sum over ordered pairs and configurations of b^2 * theta^{loops},
    per case, by explicit loops with skip tests."""
    n, theta = params.n, params.theta
    pieces: dict[str, list[float]] = {
        case: [] for case in CASE_LABELS if not case.startswith("A0")
    }
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            if i == j:
                continue
            for case, r, s, k, l in iter_case_configs(n, i, j):
                b = b_value(i, j, r, s, k, l, case, A)
                if b == 0.0:
                    continue
                loops = _config_loops(i, j, r, s, k, l)
                pieces[case].append(b * b * theta**loops)
    return {case: math.fsum(vals) for case, vals in pieces.items()}


def _config_loops(i: int, j: int, r: int, s: int, k: int, l: int) -> int:
    """Closed loops in the deduplicated constraint map for this config."""
    pm = _case_constraints(i, j, r, s, k, l)
    loops = 0
    visited: set[int] = set()
    for start in pm:
        if start in visited:
            continue
        x = start
        while x in pm and x not in visited:
            visited.add(x)
            x = pm[x]
        if x == start:
            loops += 1
    return loops
