"""Reference computations for the tests: brute-force enumeration over S_n,
and closed forms that no production route calls.

Production passes a permutation as the sequence of its 1-based images;
the references here walk ``Permutation`` objects, an image tuple with
cached cycles, inverse and transposition conjugates, and hand
``perm.image`` to the production pmf and ``t_statistic``.  The
enumerating references weight all n! permutations with the Ewens pmf,
so they are deliberately independent of the constructive samplers and
case-by-case formulas they are used to check.
``exact_statistic_law`` builds S_n by insertion (label m becomes a fixed
point or goes in just after an earlier label), once per n and process,
which yields each permutation's cycle count as it goes; it calls nothing
in ``statistic.py`` and no sampler.  Hard caps keep enumeration
affordable: n <= 8 for marginal quantities (40320 permutations), n <= 6
for the joint square-bias law (720 permutations x 30 index pairs).
``exact_remainder`` enumerates S_n through the scalar ``statistic`` and
``t_statistic``.  Two references enumerate something else:
``_pair_case_sums_direct`` walks the index configurations of every pair
(``iter_case_configs``), the O(n^6) reference for the square-sum kernel
behind the sampler's bucket weights and the index-pair weights;
``constructive_square_bias_law`` enumerates the randomness of the
coupling's own construction, so that it can be compared with
``exact_square_bias_law``.  The coupling's references live here too:
``construct_dagger`` and ``_realize`` redo the batch's delete-and-reinsert
surgery on ``Permutation`` objects for a configuration tuple
(i, j, r, s, k, l), checking every invariant it promises,
and ``_config_weight`` gives a configuration's exact mass
b^2 * P(constraints).

The closed-form references sit beside them: a permutation's cycle type
as its count tuple (c_1, ..., c_n), the form ``cycle_type_pmf`` takes,
and the deletion of labels from its cycles (``cycle_type``,
``reduce_delete``, ``mapping_cycles``); the Ewens probabilities of
partially specified permutations,

    P(pi(a) = xi_a, a in B)          = theta^{loops} / (theta+n-1)_(|B|)
    P(rest | pi fixed on B)          = theta^{#(pi\\B)} / theta^{(n-|B|)}

where ``loops`` counts the constraint chains that close into cycles and
x_(m) is the falling factorial (``constrained_prob``,
``conditional_remaining_prob``), and the joint factorial moments of the
cycle counts (``cycle_count_factorial_moment``); the scalar Y of one
permutation, and the ten case labels and the case of one ordered pair
(``statistic``, ``CASE_LABELS``, ``classify``), by which the references
and the tests group configurations.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from itertools import permutations as _itertools_permutations
from typing import Callable, Iterable, Iterator, Mapping, Sequence

import numpy as np

from .coupling import index_square_bias_weights
from .ewens import EwensParams, ewens_pmf, falling_factorial, rising_factorial
from .statistic import (
    DegenerateError,
    ScoreMatrix,
    _case_constraints,
    b_value,
    t_statistic,
)

__all__ = [
    "Permutation",
    "CASE_LABELS",
    "MAX_MARGINAL_N",
    "MAX_JOINT_N",
    "DiscreteLaw",
    "Remainder",
    "enumerate_permutations",
    "exact_statistic_law",
    "exact_expectation",
    "exact_square_bias_law",
    "exact_remainder",
    "constructive_square_bias_law",
    "construct_dagger",
    "iter_case_configs",
    "cycle_type",
    "reduce_delete",
    "mapping_cycles",
    "mapping_cycle_count",
    "constrained_prob",
    "conditional_remaining_prob",
    "cycle_count_factorial_moment",
    "statistic",
    "classify",
]

MAX_MARGINAL_N = 8
MAX_JOINT_N = 6

# The ten-case partition of ordered pairs (i, j), i != j: A0 cases have
# b = 0, A1/A2 fix one of the two labels, A3/A4 map one onto the other,
# A5 subcases have {i, j, pi(i), pi(j)} all distinct and split by the
# cycle lengths |i|, |j|.  Production never reads a case: a configuration
# is its tuple (i, j, r, s, k, l), and the case is a function of it.
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


# ---------------------------------------------------------------------------
# The Permutation object of the enumerating references
# ---------------------------------------------------------------------------


class Permutation:
    """A bijection of [n], stored as a one-line image array.

    ``Permutation([2, 3, 1])`` is the 3-cycle sending 1 -> 2 -> 3 -> 1.
    Instances are immutable; cycle data is computed lazily and cached.
    """

    __slots__ = ("_image", "_inverse", "_cycles", "_cycle_len")

    def __init__(self, images: Sequence[int]):
        image = tuple(int(x) for x in images)
        n = len(image)
        if n == 0:
            raise ValueError("a permutation needs at least one element")
        seen = [False] * (n + 1)
        for x in image:
            if not 1 <= x <= n:
                raise ValueError(f"image label {x} is outside [1, {n}]")
            if seen[x]:
                raise ValueError(f"not a bijection: label {x} appears twice")
            seen[x] = True
        self._image = image
        self._inverse: tuple[int, ...] | None = None
        self._cycles: tuple[tuple[int, ...], ...] | None = None
        self._cycle_len: tuple[int, ...] | None = None

    # -- construction helpers -------------------------------------------

    @classmethod
    def identity(cls, n: int) -> "Permutation":
        return cls(range(1, n + 1))

    @classmethod
    def from_cycles(cls, n: int, cycles: Iterable[Iterable[int]]) -> "Permutation":
        """Build from a cycle decomposition; omitted labels are fixed points."""
        image = list(range(1, n + 1))
        touched = set()
        for cyc in cycles:
            cyc = list(cyc)
            for a in cyc:
                if a in touched:
                    raise ValueError(f"label {a} appears in two cycles")
                touched.add(a)
            for a, b in zip(cyc, cyc[1:] + cyc[:1]):
                image[a - 1] = b
        return cls(image)

    # -- basic protocol ---------------------------------------------------

    @property
    def n(self) -> int:
        return len(self._image)

    @property
    def image(self) -> tuple[int, ...]:
        """The one-line image tuple, 1-based: image[i-1] = pi(i)."""
        return self._image

    def __call__(self, i: int) -> int:
        return self._image[i - 1]

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Permutation) and self._image == other._image

    def __hash__(self) -> int:
        return hash(self._image)

    def __repr__(self) -> str:
        body = "".join(
            "(" + " ".join(str(x) for x in cyc) + ")" for cyc in self.cycles()
        )
        return f"Permutation[{body}]"

    # -- cycle structure --------------------------------------------------

    def inverse(self, i: int) -> int:
        """pi^{-1}(i)."""
        if self._inverse is None:
            inv = [0] * self.n
            for pos, x in enumerate(self._image):
                inv[x - 1] = pos + 1
            self._inverse = tuple(inv)
        return self._inverse[i - 1]

    def cycles(self) -> tuple[tuple[int, ...], ...]:
        """Cycle decomposition; each cycle starts at its least label,
        cycles ordered by least label."""
        if self._cycles is None:
            n = self.n
            img = self._image
            seen = [False] * (n + 1)
            out = []
            for start in range(1, n + 1):
                if seen[start]:
                    continue
                cyc = []
                x = start
                while not seen[x]:
                    seen[x] = True
                    cyc.append(x)
                    x = img[x - 1]
                out.append(tuple(cyc))
            self._cycles = tuple(out)
        return self._cycles

    def cycle_count(self) -> int:
        return len(self.cycles())

    def cycle_len(self, i: int) -> int:
        """Length of the cycle containing label i."""
        if self._cycle_len is None:
            lens = [0] * (self.n + 1)
            for cyc in self.cycles():
                for a in cyc:
                    lens[a] = len(cyc)
            self._cycle_len = tuple(lens)
        return self._cycle_len[i]

    def fixed_points(self) -> tuple[int, ...]:
        return tuple(i for i, x in enumerate(self._image, start=1) if x == i)

    # -- operations used by the Stein-pair machinery ----------------------

    def conjugate_by_transposition(self, i: int, j: int) -> "Permutation":
        """tau pi tau for the transposition tau = (i j)."""
        if i == j:
            return self
        img = list(self._image)
        # conjugation relabels i <-> j in the cycle representation:
        # swap the rows, then swap occurrences of i and j in the images.
        img[i - 1], img[j - 1] = img[j - 1], img[i - 1]
        pi, pj = self.inverse(i), self.inverse(j)
        pi = j if pi == i else (i if pi == j else pi)
        pj = j if pj == i else (i if pj == j else pj)
        img[pi - 1], img[pj - 1] = j, i
        return Permutation(img)


# ---------------------------------------------------------------------------
# Closed-form references: the cycle-count tuple and label deletion, the
# Ewens constraint probabilities and cycle-count moments, and Y and the
# case of one pair
# ---------------------------------------------------------------------------


def cycle_type(perm: Permutation) -> tuple[int, ...]:
    """The vector (c_1, ..., c_n) where c_q is the number of q-cycles."""
    counts = [0] * perm.n
    for cyc in perm.cycles():
        counts[len(cyc) - 1] += 1
    return tuple(counts)


def reduce_delete(perm: Permutation, B: Iterable[int]) -> dict[int, int]:
    """The permutation pi\\B on [n] \\ B, keeping original labels.

    Each element of B is deleted from its cycle and the gap is closed, so
    the successor of a surviving x is the first iterate of pi past any
    deleted elements.  Returned as a plain {label: image} mapping since the
    ground set is no longer [m].
    """
    dropped = set(B)
    img = perm.image
    out: dict[int, int] = {}
    for x in range(1, perm.n + 1):
        if x in dropped:
            continue
        y = img[x - 1]
        while y in dropped:
            y = img[y - 1]
        out[x] = y
    return out


def mapping_cycles(mapping: Mapping[int, int]) -> list[tuple[int, ...]]:
    """Cycle decomposition of a bijection given as a {label: image} dict."""
    if set(mapping.keys()) != set(mapping.values()):
        raise ValueError("mapping is not a bijection of its support")
    seen: set[int] = set()
    out = []
    for start in sorted(mapping):
        if start in seen:
            continue
        cyc = []
        x = start
        while x not in seen:
            seen.add(x)
            cyc.append(x)
            x = mapping[x]
        out.append(tuple(cyc))
    return out


def mapping_cycle_count(mapping: Mapping[int, int]) -> int:
    return len(mapping_cycles(mapping))


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


class DiscreteLaw:
    """A finite law: atoms (value, probability), values sorted ascending.

    ``values`` is 1-D (floats) or (m, 2) (pairs, for joint laws), with one
    probability per row.  Construction sorts the atoms (lexicographically
    for pairs), merges atoms whose values differ by at most ATOM_MERGE_TOL
    in every coordinate and checks normalization.  Merging is greedy in
    sorted order: a new atom starts at the first value more than the
    tolerance from the current atom's first value; a merged atom's mass is
    the correctly rounded sum of its parts.  The merged values and masses
    are kept as read-only arrays; the tuple views are built on request.
    """

    __slots__ = ("_values", "_probs")

    def __init__(self, values, probs, *, normalize: bool = False):
        vals = np.asarray(values, dtype=float)
        masses = np.asarray(probs, dtype=float)
        if len(vals) == 0:
            raise ValueError("a discrete law needs at least one atom")
        if vals.shape[1:] not in ((), (2,)) or masses.shape != vals.shape[:1]:
            raise ValueError(
                f"need 1-D or (m, 2) values and one probability per value; "
                f"got shapes {vals.shape} and {masses.shape}"
            )
        vals, probs = _merge_atoms(vals, masses)
        total = math.fsum(probs.tolist())
        if normalize:
            if total <= 0:
                raise ValueError("total mass is zero; cannot normalize")
            probs = probs / total
        elif abs(total - 1.0) > 1e-12:
            raise ValueError(f"probabilities sum to {total}, not 1")
        vals.flags.writeable = probs.flags.writeable = False
        self._values, self._probs = vals, probs

    @property
    def atoms(self) -> tuple[tuple, ...]:
        return tuple(zip(self.values, self.probs))

    @property
    def values(self) -> tuple:
        vals = self._values.tolist()
        return tuple(map(tuple, vals) if self._values.ndim == 2 else vals)

    @property
    def probs(self) -> tuple[float, ...]:
        return tuple(self._probs.tolist())

    def __len__(self) -> int:
        return len(self._values)

    def total_mass(self) -> float:
        return math.fsum(self._probs.tolist())

    def expectation(self, f: Callable | None = None) -> float:
        if f is None:
            return math.fsum(v * p for v, p in self.atoms)
        return math.fsum(f(v) * p for v, p in self.atoms)

    def mean(self) -> float:
        return self.expectation()

    def variance(self) -> float:
        mu = self.mean()
        return math.fsum((v - mu) ** 2 * p for v, p in self.atoms)

    def values_array(self) -> np.ndarray:
        """The merged values, as a read-only float array."""
        return self._values

    def probs_array(self) -> np.ndarray:
        """The merged probabilities, as a read-only float array."""
        return self._probs

    def to_json(self) -> list[dict]:
        out = []
        for v, p in self.atoms:
            jv = list(v) if isinstance(v, tuple) else v
            out.append({"value": jv, "prob": p})
        return out

    def tv_distance(self, other: "DiscreteLaw") -> float:
        """Total variation distance, matching atoms by merge tolerance."""
        i = j = 0
        acc = []
        sv, sp = self.values, self.probs
        ov, op = other.values, other.probs
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


def _merge_atoms(values: np.ndarray, probs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Sort the atoms and merge near-ties; returns the merged (values, probs).

    A run of sorted values whose consecutive gaps are all within the
    tolerance is one atom when it spans at most the tolerance, which is what
    the greedy rule gives; a wider run is split by the greedy rule itself.
    Pairs sort lexicographically, so their second coordinates are in order
    only where the first is constant: a run whose first coordinate varies
    goes to the greedy rule whole.
    """
    if values.ndim == 1:
        # tied values' order is free: group masses are order-free sums
        order = np.argsort(values)
    else:
        order = np.lexsort((values[:, 1], values[:, 0]))
    values, probs = values[order], probs[order]
    negative = np.flatnonzero(probs < -1e-15)
    if len(negative):
        k = negative[0]
        raise ValueError(f"negative probability {probs[k]} at value {values[k].tolist()}")
    last = values if values.ndim == 1 else values[:, 1]
    cut = _gaps(last)
    mixed = np.zeros(len(values), dtype=bool)
    if values.ndim == 2:
        lead_cut = _gaps(values[:, 0])
        segment = np.cumsum(lead_cut) - 1
        varies = values[:, 0] != values[lead_cut, 0][segment]
        mixed = np.isin(segment, segment[varies])
        cut = lead_cut | (cut & ~mixed)
    starts = np.flatnonzero(cut)
    ends = np.append(starts[1:], len(values))
    wide = mixed[starts] | (last[ends - 1] - last[starts] > ATOM_MERGE_TOL)
    if wide.any():
        rows = list(map(tuple, values.tolist())) if values.ndim == 2 else values.tolist()
        restarts = []
        for a, b in zip(starts[wide].tolist(), ends[wide].tolist()):
            first = rows[a]
            for k in range(a + 1, b):
                if not _close(first, rows[k]):
                    restarts.append(k)
                    first = rows[k]
        starts = np.union1d(starts, restarts).astype(starts.dtype)
    # k parts of one mass p: k p, which like fsum rounds the exact sum once;
    # two mixed parts: one correctly rounded addition; more: fsum
    sizes = np.diff(np.append(starts, len(values)))
    first = probs[starts]
    uniform = np.logical_and.reduceat(probs == np.repeat(first, sizes), starts)
    merged = sizes * first
    two = (sizes == 2) & ~uniform
    pairs = starts[two]
    merged[two] = probs[pairs] + probs[pairs + 1]
    plist = probs.tolist()
    for k in np.flatnonzero((sizes > 2) & ~uniform).tolist():
        merged[k] = math.fsum(plist[starts[k] : starts[k] + sizes[k]])
    return values[starts], merged


def _gaps(x: np.ndarray) -> np.ndarray:
    """True at the first element and after every gap wider than the tolerance."""
    return np.concatenate(([True], np.diff(x) > ATOM_MERGE_TOL))


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
    comes from the per-process cache of ``_sn_columns``, Y from one gather
    per row of A summed in numpy's row-sum order, and the pmf
    theta^{#cycles} / theta^{(n)}.
    """
    n, theta = params.n, params.theta
    _check_cap(n, MAX_MARGINAL_N, "exact_statistic_law")
    a = np.asarray(A, dtype=float)
    if a.shape != (n, n):
        raise ValueError(f"matrix shape {a.shape} does not match n = {n}")
    columns, cycles = _sn_columns(n)
    theta_powers = np.array([theta**k for k in range(n + 1)])
    probs = theta_powers[cycles] / rising_factorial(theta, n)
    # bit for bit a[arange(n), images].sum(axis=1): 0 plus numpy's pairwise
    # sum, which adds left to right below 8 terms and as a tree at 8
    t = [a[k].take(columns[k]) for k in range(n)]
    if n == 8:
        ys = ((t[0] + t[1]) + (t[2] + t[3])) + ((t[4] + t[5]) + (t[6] + t[7]))
        ys += 0.0
    else:
        ys = sum(t, 0.0)
    return DiscreteLaw(ys, probs)


@functools.lru_cache(maxsize=MAX_MARGINAL_N)
def _sn_columns(n: int) -> tuple[np.ndarray, np.ndarray]:
    """All of S_n as a read-only (n, n!) block of 0-based images, row k
    holding pi(k) of every permutation, with the cycle counts; built once
    per n and process.

    Each permutation of {0, ..., m-1} has m + 1 extensions to label m: m
    as a fixed point (one more cycle), or m inserted just after z in z's
    cycle, pi(m) <- pi(z) and pi(z) <- m (same cycles).  This is the
    bijection behind the Chinese-restaurant construction.
    """
    images = np.zeros((1, 1), dtype=np.intp)
    cycles = np.ones(1, dtype=np.intp)
    for m in range(1, n):
        count = len(images)
        grown = np.empty((m + 1, count, m + 1), dtype=np.intp)
        grown[:, :, :m] = images
        grown[:, :, m] = m
        z = np.arange(m)
        grown[z, :, m] = images.T
        grown[z, :, z] = m
        images = grown.reshape(-1, m + 1)
        cycles = np.concatenate((np.tile(cycles, m), cycles + 1))
    columns = np.ascontiguousarray(images.T)
    columns.flags.writeable = cycles.flags.writeable = False
    return columns, cycles


def exact_expectation(
    g: Callable[[Permutation], float], params: EwensParams
) -> float:
    """E[g(pi)] by full enumeration, compensated summation."""
    _check_cap(params.n, MAX_MARGINAL_N, "exact_expectation")
    return math.fsum(
        g(perm) * ewens_pmf(perm.image, params)
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
    values, weights = [], []
    for perm in enumerate_permutations(n):
        p = ewens_pmf(perm.image, params) * pair_weight
        y1 = y_of(perm.image)
        for i in range(1, n + 1):
            for j in range(1, n + 1):
                if i == j:
                    continue
                y2 = y_of(perm.conjugate_by_transposition(i, j).image)
                w = p * (y1 - y2) ** 2
                if w > 0.0:
                    values.append((y1, y2))
                    weights.append(w)
    if not weights:
        raise DegenerateError(
            "degenerate square bias: (Y'-Y'')^2 has zero expectation for this matrix"
        )
    return DiscreteLaw(values, weights, normalize=True)


def iter_case_configs(
    n: int, i: int, j: int
) -> Iterator[tuple[str, int, int, int, int]]:
    """All pre/post-image configurations (case, r, s, k, l) for the ordered
    pair (i, j) in the cases that can carry nonzero b.

    r, s are the pre-images of i, j under pi; k, l their images.  A0 cases
    are omitted (b is identically zero there).  Configurations whose b
    happens to vanish for a particular matrix (e.g. the A3 three-cycle under
    symmetry) are still yielded; callers weight by b^2 so they drop out.
    Within A5_4 the stream walks the four coincidence patterns —
    closed 4-cycle (s=k, l=r), the two five-label chains (s=k only, l=r
    only), and all six labels distinct — exactly once each.
    """
    others = [x for x in range(1, n + 1) if x != i and x != j]
    for s in others:
        yield "A1", i, s, i, s
        for l in others:
            if l != s:
                yield "A1", i, s, i, l
    for r in others:
        yield "A2", r, j, r, j
        for k in others:
            if k != r:
                yield "A2", r, j, k, j
    for r in others:
        yield "A3", r, i, j, r
        for l in others:
            if l != r:
                yield "A3", r, i, j, l
    for s in others:
        yield "A4", j, s, s, i
        for k in others:
            if k != s:
                yield "A4", j, s, k, i
    for r in others:
        for s in others:
            if s == r:
                continue
            yield "A5_1", r, s, r, s
            for l in others:
                if l != r and l != s:
                    yield "A5_2", r, s, r, l
            for k in others:
                if k != r and k != s:
                    yield "A5_3", r, s, k, s
    # A5_4 coincidence patterns
    for r in others:
        for k in others:
            if k == r:
                continue
            # 4-cycle: s = k and l = r
            yield "A5_4", r, k, k, r
            for l in others:
                if l != r and l != k:
                    # chain with s = k: r -> i -> k -> j -> l
                    yield "A5_4", r, k, k, l
    for s in others:
        for l in others:
            if l == s:
                continue
            for k in others:
                if k != s and k != l:
                    # chain with l = r: s -> j -> l(=r) -> i -> k
                    yield "A5_4", l, s, k, l
    for r in others:
        for s in others:
            if s == r:
                continue
            for k in others:
                if k == r or k == s:
                    continue
                for l in others:
                    if l == r or l == s or l == k:
                        continue
                    yield "A5_4", r, s, k, l


def _pair_case_sums_direct(A: ScoreMatrix, params: EwensParams) -> dict[str, np.ndarray]:
    """Per ordered pair (i, j), the sum over each case's configurations of
    b^2 * theta^{loops}, by explicit loops with skip tests: one (n, n)
    array for each case that can carry b != 0."""
    n, theta = params.n, params.theta
    sums = {case: np.zeros((n, n)) for case in CASE_LABELS if not case.startswith("A0")}
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            if i == j:
                continue
            pieces: dict[str, list[float]] = {case: [] for case in sums}
            for case, r, s, k, l in iter_case_configs(n, i, j):
                b = b_value(i, j, r, s, k, l, A)
                if b == 0.0:
                    continue
                loops = _constraint_loops(_case_constraints(n, i, j, r, s, k, l))
                pieces[case].append(b * b * theta**loops)
            for case, vals in pieces.items():
                sums[case][i - 1, j - 1] = math.fsum(vals)
    return sums


def _case_sums_direct(A: ScoreMatrix, params: EwensParams) -> dict[str, float]:
    """The per-case sums of b^2 * theta^{loops} over all ordered pairs."""
    return {
        case: math.fsum(v.ravel().tolist())
        for case, v in _pair_case_sums_direct(A, params).items()
    }


@dataclass(frozen=True)
class Remainder:
    """R(Y') = E[T | Y']/(n(n-1)) in exact-atom form.

    ``atoms`` maps each Y'-value to its conditional remainder; built by
    exact enumeration (small n only).  lam is the Stein pair's lambda = 4/n.
    """

    lam: float
    atoms: dict[float, float]

    def r_of(self, y: float, tol: float = 1e-9) -> float:
        if y in self.atoms:
            return self.atoms[y]
        for value, r in self.atoms.items():
            if abs(value - y) <= tol:
                return r
        raise KeyError(f"no Y' atom within {tol} of {y}")


def exact_remainder(A: ScoreMatrix, params: EwensParams) -> Remainder:
    """Exact conditional-expectation remainder via enumeration (n <= 8).

    The Y' values are sorted once; a value within ATOM_MERGE_TOL of the one
    before it joins that value's atom, which is keyed by its smallest value.
    """
    n = params.n
    _check_cap(n, MAX_MARGINAL_N, "exact_remainder")
    perms = list(enumerate_permutations(n))
    ys = np.array([statistic(A, perm) for perm in perms])
    ps = np.array([ewens_pmf(perm.image, params) for perm in perms])
    ts = np.array([t_statistic(A, perm.image, params) for perm in perms])
    order = np.argsort(ys, kind="stable")
    ys = ys[order]
    starts = np.flatnonzero(_gaps(ys))
    mass = np.add.reduceat(ps[order], starts)
    t_mass = np.add.reduceat((ps * ts)[order], starts)
    r = t_mass / mass / (n * (n - 1))
    return Remainder(lam=4.0 / n, atoms=dict(zip(ys[starts].tolist(), r.tolist())))


def constructive_square_bias_law(A: ScoreMatrix, params: EwensParams) -> DiscreteLaw:
    """Exact law of (Y†, Y‡) under the constructive sampler, by enumerating
    all of its randomness: the index pair, the configuration, and the
    reduced permutation left after deleting D.

    The reduced permutation's law is the push-forward of the Ewens measure
    under deletion, tabulated once per deleted-label set.  Comparing the
    result to the direct (y', y'')-reweighted law validates the construction
    end to end.
    """
    n = params.n
    _check_cap(n, MAX_JOINT_N, "constructive_square_bias_law")
    if A.n != n:
        raise ValueError(f"matrix is {A.n}x{A.n} but params.n = {n}")
    all_perms = list(enumerate_permutations(n))
    pmfs = [ewens_pmf(p.image, params) for p in all_perms]

    reduced_cache: dict[frozenset[int], dict[tuple, float]] = {}

    def reduced_law(D: frozenset[int]) -> dict[tuple, float]:
        law = reduced_cache.get(D)
        if law is None:
            law = {}
            survivors = sorted(x for x in range(1, n + 1) if x not in D)
            for perm, p in zip(all_perms, pmfs):
                rho = reduce_delete(perm, D)
                key = tuple(rho[x] for x in survivors)
                law[key] = law.get(key, 0.0) + p
            reduced_cache[D] = law
        return law

    W = index_square_bias_weights(A, params)
    total = float(W.sum())
    values: list[tuple[float, float]] = []
    weights: list[float] = []
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            if i == j:
                continue
            for _, r, s, k, l in iter_case_configs(n, i, j):
                w = _config_weight(A, params, i, j, r, s, k, l)
                if w <= 0.0:
                    continue
                D = frozenset((i, j, r, s))
                survivors = sorted(x for x in range(1, n + 1) if x not in D)
                C = _case_constraints(n, i, j, r, s, k, l)
                for key, p_rho in reduced_law(D).items():
                    rho = dict(zip(survivors, key))
                    dagger = _realize(rho, C, n)
                    ddagger = dagger.conjugate_by_transposition(i, j)
                    y_d = statistic(A, dagger)
                    y_dd = statistic(A, ddagger)
                    values.append((y_d, y_dd))
                    weights.append(w / total * p_rho)
    return DiscreteLaw(values, weights, normalize=True)


def _config_weight(
    A: ScoreMatrix,
    params: EwensParams,
    i: int,
    j: int,
    r: int,
    s: int,
    k: int,
    l: int,
) -> float:
    b = b_value(i, j, r, s, k, l, A)
    if b == 0.0:
        return 0.0
    pm = _case_constraints(params.n, i, j, r, s, k, l)
    return b * b * constrained_prob(pm, params)


def _realize(rho: dict[int, int], C: dict[int, int], n: int) -> Permutation:
    """Insert the constraint map C into the reduced permutation rho.

    rho is a permutation of the survivors [n] minus the deleted labels;
    every deleted label is a source of C.  Components of C that close into
    cycles are inserted as new cycles; components that end at a survivor t
    are spliced in front of t (the survivor previously mapping to t now
    maps to the chain's head).  Chains are processed in sorted-head order;
    their ends are distinct so the insertions commute.
    """
    image = dict(rho)
    values = set(C.values())
    rho_inv = {v: k for k, v in rho.items()}
    visited: set[int] = set()
    for head in sorted(x for x in C if x not in values):
        x = head
        while x in C:
            image[x] = C[x]
            visited.add(x)
            x = C[x]
        image[rho_inv[x]] = head
    for start in sorted(C):
        if start in visited:
            continue
        x = start
        while x not in visited:
            image[x] = C[x]
            visited.add(x)
            x = C[x]
    return Permutation([image[x] for x in range(1, n + 1)])


def construct_dagger(
    pi: Permutation, config: tuple[int, int, int, int, int, int]
) -> Permutation:
    """Edit pi to satisfy the configuration (i, j, r, s, k, l), leaving the
    rest intact.

    The distinct members of D = {i, j, r, s} are deleted from pi's cycle
    representation and reinserted to realize {pi(r)=i, pi(s)=j, pi(i)=k,
    pi(j)=l}; all other elements keep their (reduced) images, so
    reduce_delete(pi, D) == reduce_delete(pi_dagger, D).  A tuple that no
    permutation of [n] realizes raises ValueError (``_case_constraints``).
    """
    n = pi.n
    i, j, r, s, k, l = config
    C = _case_constraints(n, i, j, r, s, k, l)
    D = frozenset((i, j, r, s))
    rho = reduce_delete(pi, D)
    dagger = _realize(rho, C, n)
    if dagger(r) != i or dagger(s) != j or dagger(i) != k or dagger(j) != l:
        raise RuntimeError(f"construction failed to realize constraints {C}")
    if reduce_delete(dagger, D) != rho:
        raise RuntimeError(
            "construction disturbed the permutation outside the deleted labels"
        )
    diffs = sum(1 for x in range(1, n + 1) if dagger(x) != pi(x))
    if diffs > 10:
        raise RuntimeError(
            f"construction changed {diffs} positions; the case bound is 10"
        )
    return dagger
