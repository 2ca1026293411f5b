"""The benchmark's workloads: generated inputs, timed operations, output checks.

Every matrix and every program seed is derived from the workload seed, so
the same seed gives the same inputs.  An operation's `call` is the only
part that is timed; `collect` and `check` run after the timed section.
"""

from __future__ import annotations

import json
import math
import sys
import zlib
from pathlib import Path

import numpy as np

import reference

# While sigma^2 rests on a Monte-Carlo E[Y'R], it may sit this many 95%
# halfwidths of sigma^2 ((n/4) * eyr_ci) from the closed form.  Offsets
# measured at the seed commit were 0.57 and 0.26 halfwidths.
SIGMA_CI_MULTIPLE = 3.0
# Any other sigma^2 route must match the closed form to rounding.
SIGMA_REL_TOL = 1e-9
# mean Y' may sit this many standard errors from its true value 0.
MEAN_SE_MULTIPLE = 5.0
COUPLING_BATCH = 10_000


def _seed(*key: int) -> int:
    return int(np.random.SeedSequence(list(key)).generate_state(1)[0])


def _matrix(rng: np.random.Generator, n: int, integer: bool) -> np.ndarray:
    raw = rng.integers(0, 10, size=(n, n)).astype(float) if integer else rng.random((n, n))
    return np.triu(raw) + np.triu(raw, 1).T


def _non_finite(value, path="") -> list[str]:
    if isinstance(value, dict):
        return [p for k, v in value.items() for p in _non_finite(v, f"{path}.{k}")]
    if isinstance(value, list):
        return [p for i, v in enumerate(value) for p in _non_finite(v, f"{path}[{i}]")]
    if isinstance(value, float) and not math.isfinite(value):
        return [f"{path} = {value}"]
    return []


class BoundsOp:
    """One `ewens-stein bounds` run through cli.main, in process."""

    def __init__(self, workdir: Path, label: str, n: int, theta: float,
                 matrix: np.ndarray, seed: int, extra: list[str]):
        self.label, self.n, self.theta, self.matrix = label, n, theta, matrix
        path = workdir / f"{label}.csv"
        np.savetxt(path, matrix, delimiter=",", fmt="%.17g")
        self.out = workdir / f"{label}.json"
        self.argv = ["bounds", "--n", str(n), "--theta", repr(theta),
                     "--matrix", str(path), "--seed", str(seed), *extra,
                     "--out", str(self.out)]

    def call(self, span):
        return sys.modules["ewens_stein.cli"].main(self.argv)

    def collect(self, rc):
        text = self.out.read_text() if rc == 0 else None
        self.out.unlink(missing_ok=True)
        return rc, text

    def check(self, output) -> list[str]:
        rc, text = output
        if rc != 0:
            return [f"exit code {rc}"]
        report = json.loads(text)
        problems = _non_finite(report)
        if problems:
            return [f"non-finite output {p}" for p in problems]
        sigma, prov = report["sigma"], report["provenance"]
        ref = reference.variance(self.matrix, self.theta)
        ci = prov.get("eyr_ci")
        if prov.get("sigma_method") == "monte-carlo" and ci is not None:
            tol = SIGMA_CI_MULTIPLE * self.n / 4.0 * ci
        else:
            tol = SIGMA_REL_TOL * ref
        if not abs(sigma * sigma - ref) <= tol:
            problems.append(f"sigma^2 {sigma * sigma!r} vs closed form {ref!r}, tolerance {tol:.3g}")
        d1_bound = report["alpha1"] / sigma
        dinf_bound = report["alpha2"] / sigma
        d1, dinf, lower = report["d1_exact"], report["dinf_exact"], report["dinf_lower"]
        if d1 is not None and not d1 <= d1_bound:
            problems.append(f"d1_exact {d1} above alpha1/sigma {d1_bound}")
        if dinf is not None and not dinf <= dinf_bound:
            problems.append(f"dinf_exact {dinf} above alpha2/sigma {dinf_bound}")
        if dinf is not None and lower is not None and not lower <= dinf:
            problems.append(f"dinf_lower {lower} above dinf_exact {dinf}")
        emp = report["dinf_empirical"]
        if emp is not None and not emp["d_inf"] - emp["ci_halfwidth"] <= report["dinf_upper"]:
            problems.append(f"dinf_empirical {emp['d_inf']} beyond dinf_upper {report['dinf_upper']}")
        return problems


class CouplingOp:
    """SquareBiasSampler plus one sample_zero_bias_batch, through the API."""

    def __init__(self, label: str, n: int, theta: float, matrix: np.ndarray, seed: int):
        es = sys.modules["ewens_stein"]
        self.label, self.matrix = label, matrix
        self.params = es.EwensParams(n=n, theta=theta)
        self.score = es.center(matrix, self.params)
        self.seed = seed
        self.argv = ["SquareBiasSampler", "sample_zero_bias_batch", f"n={n}",
                     f"theta={theta!r}", f"count={COUPLING_BATCH}", f"seed={seed}"]

    def call(self, span):
        es = sys.modules["ewens_stein"]
        with span("coupling.SquareBiasSampler"):
            sampler = es.SquareBiasSampler(self.score, self.params)
        return es.sample_zero_bias_batch(
            self.score, self.params, COUPLING_BATCH, seed=self.seed, sampler=sampler
        )

    def collect(self, batch):
        return batch

    def check(self, batch) -> list[str]:
        y1, yd, ydd, ys = (np.asarray(batch[k]) for k in ("y_prime", "y_dagger", "y_ddagger", "y_star"))
        if not all(np.isfinite(a).all() for a in (y1, yd, ydd, ys)):
            return ["non-finite coupling output"]
        problems = []
        limit = 20.0 * np.abs(reference.centered(self.matrix, self.params.theta)).max()
        worst = float(np.abs(ys - y1).max())
        if worst > limit * (1 + 1e-9):
            problems.append(f"|Y*-Y'| reaches {worst}, above 20M = {limit}")
        lo, hi = np.minimum(yd, ydd), np.maximum(yd, ydd)
        slack = 1e-12 * limit
        outside = int(((ys < lo - slack) | (ys > hi + slack)).sum())
        if outside:
            problems.append(f"{outside} samples with Y* outside [Y-double-dagger, Y-dagger]")
        se = float(y1.std()) / math.sqrt(len(y1))
        if abs(float(y1.mean())) > MEAN_SE_MULTIPLE * se:
            problems.append(f"mean Y' {float(y1.mean())} is more than {MEAN_SE_MULTIPLE} SE from 0")
        return problems


def report_large(seed, key, workdir):
    rng = np.random.default_rng([seed, key, 0])
    return [BoundsOp(workdir, "bounds-n30", 30, 1.3, _matrix(rng, 30, False),
                     _seed(seed, key, 0, 1), [])]


def report_exact(seed, key, workdir):
    ops = []
    for idx, (n, theta) in enumerate((n, t) for n in (6, 7, 8) for t in (0.5, 2.0)):
        rng = np.random.default_rng([seed, key, idx])
        integer = idx % 2 == n % 2  # three of six, one of each n
        ops.append(BoundsOp(workdir, f"bounds-n{n}-theta{theta}", n, theta,
                            _matrix(rng, n, integer), _seed(seed, key, idx, 1),
                            ["--exact", "--samples", "100000"]))
    return ops


def coupling(seed, key, workdir):
    ops = []
    for idx, n in enumerate((10, 50)):
        rng = np.random.default_rng([seed, key, idx])
        ops.append(CouplingOp(f"coupling-n{n}", n, 1.0, _matrix(rng, n, False),
                              _seed(seed, key, idx, 1)))
    return ops


# name -> builder(workload seed, workload key, input directory) -> operations
WORKLOADS = {
    "report-large": report_large,
    "report-exact": report_exact,
    "coupling": coupling,
}


# Cycles an untraced run makes however short --seconds is.  report-large's
# peak memory depends on whether the two pool threads' CRP chunks overlap,
# so its run takes the peak over four cycles.
MIN_CYCLES = {"report-large": 4}


def build(name: str, seed: int, workdir: Path) -> list:
    """Generate the workload's inputs into workdir and return its operations."""
    workdir.mkdir(parents=True, exist_ok=True)
    return WORKLOADS[name](seed, zlib.crc32(name.encode()), workdir)
