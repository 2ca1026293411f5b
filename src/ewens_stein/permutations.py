"""Permutations of {1, ..., n} with cycle bookkeeping, and cycle-count
vectors.

All public labels are 1-based (elements of [n] = {1, ..., n}), and so is
the internal image array.  Cycle structure is computed once and cached,
since the Ewens weight and the oracle's case classification keep asking
for it.  The cycle type of a permutation and the deletion of labels from
its cycles (``cycle_type``, ``reduce_delete``) serve only as references
and live in ``oracle.py``.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence

__all__ = ["Permutation", "CycleType"]


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


class CycleType:
    """Cycle-count vector c = (c_1, ..., c_n); c_j counts the j-cycles."""

    __slots__ = ("_counts",)

    def __init__(self, counts: Sequence[int]):
        counts = tuple(int(c) for c in counts)
        if any(c < 0 for c in counts):
            raise ValueError("cycle counts must be nonnegative")
        self._counts = counts

    @property
    def counts(self) -> tuple[int, ...]:
        return self._counts

    @property
    def n(self) -> int:
        return len(self._counts)

    def weight(self) -> int:
        """sum_j j * c_j — equals n exactly when the type is realizable."""
        return sum(j * c for j, c in enumerate(self._counts, start=1))

    def is_valid(self) -> bool:
        return self.weight() == self.n

    def cycle_count(self) -> int:
        return sum(self._counts)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, CycleType) and self._counts == other._counts

    def __hash__(self) -> int:
        return hash(self._counts)

    def __repr__(self) -> str:
        return f"CycleType{self._counts}"
