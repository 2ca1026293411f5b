"""In-memory span tracer for the benchmark's traced run.

The tracer rebinds the layer entry points of the ewens_stein package, from
outside the package, to wrappers that record one span per call: name,
parent span, start, end and the counts the per-layer metrics need.  Spans
stay in memory until the run ends.  A span's parent is the innermost span
open on the same thread; chunks that montecarlo.map_chunks runs on pool
threads keep the map_chunks span as their parent.

Only layer entry points are traced.  Scalar helpers that are called once
per element (b_value, falling_factorial, ...) are left alone: at 10^6 calls
per run a wrapper would time itself rather than the layer.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import itertools
import math
import sys
import threading
from collections import defaultdict
from time import perf_counter

PACKAGE = "ewens_stein"

TRACED = {
    "cli": ("main",),
    "bounds": ("bound_report",),
    "statistic": ("variance_decomposition", "t_statistic"),
    "ewens": ("sample_crp_images",),
    "montecarlo": ("map_chunks",),
    "distances": (
        "wasserstein_empirical",
        "kolmogorov_empirical",
        "wasserstein_exact",
        "kolmogorov_exact",
    ),
    "oracle": ("exact_statistic_law", "exact_expectation"),
    "coupling": ("index_square_bias_weights", "sample_zero_bias_batch"),
}

MAP_CHUNKS = "montecarlo.map_chunks"
CHUNK = "montecarlo.chunk"
SAMPLER = "coupling.SquareBiasSampler"


def _perms(args, kwargs, result) -> dict:
    params = kwargs["params"] if "params" in kwargs else args[1]
    return {"perms": math.factorial(params.n)}


def _chunks(args, kwargs, result) -> dict:
    workers = sys.modules[f"{PACKAGE}.montecarlo"].worker_count()
    return {"chunks": len(result), "workers": min(workers, len(result))}


# Counts taken from each call's arguments and result, outside its span.
COUNTERS = {
    "ewens.sample_crp_images": lambda a, k, r: {"rows": r.shape[0], "bytes": r.nbytes},
    "distances.wasserstein_empirical": lambda a, k, r: {"samples": r.samples},
    "distances.kolmogorov_empirical": lambda a, k, r: {"samples": r.samples},
    "oracle.exact_statistic_law": _perms,
    "oracle.exact_expectation": _perms,
    "coupling.sample_zero_bias_batch": lambda a, k, r: {"samples": len(r["y_star"])},
    MAP_CHUNKS: _chunks,
}

# (name, unit) of every per-layer metric, in report order.
LAYER_METRICS = (
    ("cli.main.self_s", "s"),
    ("bounds.bound_report.calls", "count"),
    ("bounds.bound_report.self_s", "s"),
    ("statistic.variance_decomposition.busy_s", "s"),
    ("statistic.variance_decomposition.self_s", "s"),
    ("statistic.t_statistic.calls", "count"),
    ("statistic.t_statistic.busy_s", "s"),
    ("ewens.sample_crp_images.rows", "count"),
    ("ewens.sample_crp_images.busy_s", "s"),
    ("ewens.crp_rows_per_s", "1/s"),
    ("ewens.crp_bytes", "B"),
    ("montecarlo.map_chunks.chunks", "count"),
    ("montecarlo.map_chunks.self_s", "s"),
    ("montecarlo.worker_util", "ratio"),
    ("distances.wasserstein_empirical.busy_s", "s"),
    ("distances.kolmogorov_empirical.busy_s", "s"),
    ("distances.empirical_samples", "count"),
    ("distances.wasserstein_exact.busy_s", "s"),
    ("distances.kolmogorov_exact.busy_s", "s"),
    ("oracle.exact_statistic_law.busy_s", "s"),
    ("oracle.exact_expectation.busy_s", "s"),
    ("oracle.exact_expectation.self_s", "s"),
    ("oracle.perms_enumerated", "count"),
    ("coupling.sampler_setup_s", "s"),
    ("coupling.index_square_bias_weights.busy_s", "s"),
    ("coupling.sample_zero_bias_batch.busy_s", "s"),
    ("coupling.samples_per_s", "1/s"),
    ("trace.overhead_s", "s"),
    ("error_rate", "ratio"),
)

_FAILED = object()


class Tracer:
    """Records spans as (id, parent, name, start, end, counts) tuples."""

    def __init__(self):
        self.spans: list[tuple] = []
        # next() on a count and list.append are single calls into C, so
        # pool threads can share them without a lock.
        self._ids = itertools.count(1)
        self._local = threading.local()

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _parent(self) -> int | None:
        stack = self._stack()
        return stack[-1] if stack else None

    def call(self, name: str, parent: int | None, fn, args, kwargs):
        sid = next(self._ids)
        if name == MAP_CHUNKS:
            args, kwargs = self._trace_chunks(sid, args, kwargs)
        stack = self._stack()
        stack.append(sid)
        result = _FAILED
        t0 = perf_counter()
        try:
            result = fn(*args, **kwargs)
            return result
        finally:
            t1 = perf_counter()
            stack.pop()
            counter = COUNTERS.get(name)
            counts = counter(args, kwargs, result) if counter and result is not _FAILED else None
            self.spans.append((sid, parent, name, t0, t1, counts))

    def _trace_chunks(self, sid: int, args, kwargs):
        """Give map_chunks a chunk function whose spans hang under sid."""
        args = list(args)
        fn = kwargs["fn"] if "fn" in kwargs else args[1]

        def chunk(rng, count):
            return self.call(CHUNK, sid, fn, (rng, count), {})

        if "fn" in kwargs:
            kwargs = {**kwargs, "fn": chunk}
        else:
            args[1] = chunk
        return args, kwargs

    def _wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self.call(name, self._parent(), fn, args, kwargs)

        return traced

    @contextlib.contextmanager
    def span(self, name: str):
        """A span around a block of the benchmark's own code."""
        sid = next(self._ids)
        parent = self._parent()
        stack = self._stack()
        stack.append(sid)
        t0 = perf_counter()
        try:
            yield
        finally:
            t1 = perf_counter()
            stack.pop()
            self.spans.append((sid, parent, name, t0, t1, None))

    @contextlib.contextmanager
    def installed(self):
        """Rebind every traced function, under every alias in the package."""
        modules = {name: importlib.import_module(f"{PACKAGE}.{name}") for name in TRACED}
        package_modules = [
            m for key, m in list(sys.modules.items())
            if key == PACKAGE or key.startswith(PACKAGE + ".")
        ]
        undo = []
        try:
            for modname, fnames in TRACED.items():
                for fname in fnames:
                    original = getattr(modules[modname], fname)
                    traced = self._wrap(f"{modname}.{fname}", original)
                    for module in package_modules:
                        for attr, value in list(vars(module).items()):
                            if value is original:
                                setattr(module, attr, traced)
                                undo.append((module, attr, original))
            yield self
        finally:
            for module, attr, original in reversed(undo):
                setattr(module, attr, original)


def _covered(t0: float, t1: float, children: list[tuple]) -> float:
    """Length of [t0, t1] covered by the union of the children's intervals."""
    intervals = sorted((max(c[3], t0), min(c[4], t1)) for c in children)
    covered = 0.0
    start = end = None
    for a, b in intervals:
        if b <= a:
            continue
        if end is None or a > end:
            if end is not None:
                covered += end - start
            start, end = a, b
        else:
            end = max(end, b)
    if end is not None:
        covered += end - start
    return covered


def layer_metrics(spans: list[tuple], cycles: int) -> dict[str, float]:
    """Per-layer metrics from the spans of `cycles` traced cycles, per cycle.

    busy_s sums span durations (spans on pool threads overlap, so busy time
    can exceed wall time); self_s subtracts the union of each span's
    children from its duration.
    """
    by_name = defaultdict(list)
    children = defaultdict(list)
    for s in spans:
        by_name[s[2]].append(s)
        children[s[1]].append(s)

    def busy(name):
        return sum(s[4] - s[3] for s in by_name[name])

    def self_s(name):
        return sum(s[4] - s[3] - _covered(s[3], s[4], children[s[0]]) for s in by_name[name])

    def total(name, key):
        return sum(s[5][key] for s in by_name[name] if s[5])

    def ratio(num, den):
        return num / den if den > 0 else 0.0

    crp_busy = busy("ewens.sample_crp_images")
    batch_busy = busy("coupling.sample_zero_bias_batch")
    pool_capacity = sum((s[4] - s[3]) * s[5]["workers"] for s in by_name[MAP_CHUNKS] if s[5])
    values = {
        "cli.main.self_s": self_s("cli.main"),
        "bounds.bound_report.calls": len(by_name["bounds.bound_report"]),
        "bounds.bound_report.self_s": self_s("bounds.bound_report"),
        "statistic.variance_decomposition.busy_s": busy("statistic.variance_decomposition"),
        "statistic.variance_decomposition.self_s": self_s("statistic.variance_decomposition"),
        "statistic.t_statistic.calls": len(by_name["statistic.t_statistic"]),
        "statistic.t_statistic.busy_s": busy("statistic.t_statistic"),
        "ewens.sample_crp_images.rows": total("ewens.sample_crp_images", "rows"),
        "ewens.sample_crp_images.busy_s": crp_busy,
        "ewens.crp_bytes": total("ewens.sample_crp_images", "bytes"),
        "montecarlo.map_chunks.chunks": total(MAP_CHUNKS, "chunks"),
        "montecarlo.map_chunks.self_s": self_s(MAP_CHUNKS),
        "distances.wasserstein_empirical.busy_s": busy("distances.wasserstein_empirical"),
        "distances.kolmogorov_empirical.busy_s": busy("distances.kolmogorov_empirical"),
        "distances.empirical_samples": total("distances.wasserstein_empirical", "samples")
        + total("distances.kolmogorov_empirical", "samples"),
        "distances.wasserstein_exact.busy_s": busy("distances.wasserstein_exact"),
        "distances.kolmogorov_exact.busy_s": busy("distances.kolmogorov_exact"),
        "oracle.exact_statistic_law.busy_s": busy("oracle.exact_statistic_law"),
        "oracle.exact_expectation.busy_s": busy("oracle.exact_expectation"),
        "oracle.exact_expectation.self_s": self_s("oracle.exact_expectation"),
        "oracle.perms_enumerated": total("oracle.exact_statistic_law", "perms")
        + total("oracle.exact_expectation", "perms"),
        "coupling.sampler_setup_s": busy(SAMPLER),
        "coupling.index_square_bias_weights.busy_s": busy("coupling.index_square_bias_weights"),
        "coupling.sample_zero_bias_batch.busy_s": batch_busy,
    }
    values = {k: v / cycles for k, v in values.items()}
    # ratios are already per unit of work
    values["ewens.crp_rows_per_s"] = ratio(total("ewens.sample_crp_images", "rows"), crp_busy)
    values["montecarlo.worker_util"] = ratio(busy(CHUNK), pool_capacity)
    values["coupling.samples_per_s"] = ratio(
        total("coupling.sample_zero_bias_batch", "samples"), batch_busy
    )
    return values


def summary(spans: list[tuple]) -> dict[str, dict]:
    """Calls and busy time per span name, for the run record."""
    out: dict[str, dict] = {}
    for s in spans:
        entry = out.setdefault(s[2], {"calls": 0, "busy_s": 0.0})
        entry["calls"] += 1
        entry["busy_s"] += s[4] - s[3]
    return dict(sorted(out.items()))
