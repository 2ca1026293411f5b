#!/usr/bin/env python3
"""Benchmark of the ewens_stein package, run from the repository root:

    python3 perfbench/run.py --workload report-exact --seed 1 --seconds 36 --trace 0

One benchmark process per run imports the package from ./src, generates the
workload's inputs from --seed, then repeats the workload's operations (one
cycle) for --seconds: a cycle starts only while a cycle of median length
still fits, and every run makes at least one (report-large: two).
Outputs are checked after the timed section.  The last line of stdout is
one JSON object: {"correct", "attempted", "failed", "metrics"}; the line
before it records the run environment.

--trace 0 reports the end-to-end metrics: wall_s and cpu_s sum each
operation's median over cycles, peak_rss_mb covers the whole run and setup_s
is a median over fresh set-up processes.  --trace 1 runs untraced cycles for half of
--seconds and traced cycles for the other half and reports the per-layer
metrics of spans.py, per traced cycle.  Spans and the run record are written
under .perfbench_work/.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from contextlib import nullcontext
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
SETUP_PROBES = 7


def pin_threads() -> int:
    """One package worker per CPU and single-threaded BLAS; before numpy loads."""
    nproc = len(os.sched_getaffinity(0))
    os.environ["EWENS_STEIN_THREADS"] = str(nproc)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    return nproc


def import_package() -> None:
    package_dir = SRC / "ewens_stein"
    if not (package_dir / "__init__.py").is_file():
        sys.exit(f"error: {package_dir} not found; run from a checkout of the repository")
    sys.path.insert(0, str(SRC))
    import ewens_stein
    import ewens_stein.cli  # noqa: F401  (the operations call cli.main)

    if Path(ewens_stein.__file__).resolve().parent != package_dir.resolve():
        sys.exit(f"error: ewens_stein was imported from {ewens_stein.__file__}, not {package_dir}")


def measure_setup(args, workdir: Path) -> list[float]:
    """Seconds from launching a fresh benchmark process until it could start timing."""
    times = []
    for i in range(SETUP_PROBES):
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
               "--seed", str(args.seed), "--setup-probe", str(workdir / f"probe{i}")]
        launched = time.monotonic()
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=120)
        if proc.returncode != 0:
            sys.exit(f"error: set-up probe failed:\n{proc.stderr}")
        times.append(float(proc.stdout.split()[-1]) - launched)
    return times


def run_cycles(ops, seconds: float, min_cycles: int = 1, tracer=None) -> list[dict]:
    """Repeat the operations for `seconds`; only op.call is timed.

    A cycle starts only if a cycle of median length still ends within
    `seconds`, so a run does not overshoot by a whole cycle; at least
    `min_cycles` run.
    """
    span = tracer.span if tracer else (lambda name: nullcontext())
    cycles, lengths = [], []
    start = time.perf_counter()
    while len(cycles) < min_cycles or (
            time.perf_counter() - start + statistics.median(lengths) <= seconds):
        began = time.perf_counter()
        walls, cpus, results = [], [], []
        for op in ops:
            gc.collect()  # no op pays for garbage left by the one before
            c0, t0 = time.process_time(), time.perf_counter()
            try:
                ret, error = op.call(span), None
            except Exception:
                ret, error = None, traceback.format_exc()
            walls.append(time.perf_counter() - t0)
            cpus.append(time.process_time() - c0)
            results.append((ret, error))
        outputs = [(op.collect(ret), None) if error is None else (None, error)
                   for op, (ret, error) in zip(ops, results)]
        cycles.append({"op_wall_s": walls, "op_cpu_s": cpus, "outputs": outputs})
        lengths.append(time.perf_counter() - began)
    return cycles


def per_cycle(cycles, key: str) -> float:
    """Sum over operations of each operation's median over cycles."""
    return sum(statistics.median(times) for times in zip(*(c[key] for c in cycles)))


def _same(a, b) -> bool:
    if isinstance(a, dict):
        import numpy as np

        return a.keys() == b.keys() and all(np.array_equal(a[k], b[k]) for k in a)
    return a == b


def check(ops, cycles) -> tuple[int, int, list[str]]:
    """Check every output; repeated cycles must also reproduce the first."""
    attempted = failed = 0
    problems = []
    for c, cycle in enumerate(cycles):
        for i, (op, (output, error)) in enumerate(zip(ops, cycle["outputs"])):
            attempted += 1
            if error is not None:
                found = [f"raised:\n{error}"]
            else:
                try:
                    found = op.check(output)
                except Exception:  # output the check cannot read fails it
                    found = [f"check raised:\n{traceback.format_exc()}"]
                first = cycles[0]["outputs"][i][0]
                if c and first is not None and not _same(output, first):
                    found.append("output differs from the first cycle's")
            if found:
                failed += 1
                problems += [f"{op.label} (cycle {c}): {p}" for p in found]
    return attempted, failed, problems


def environment(args, nproc: int, ops, np) -> dict:
    commit = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
        commit = proc.stdout.strip() or None
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    return {
        "git_commit": commit,
        "src_sha256": digest.hexdigest(),
        "nproc": nproc,
        "EWENS_STEIN_THREADS": os.environ["EWENS_STEIN_THREADS"],
        "python": platform.python_version(),
        "numpy": np.__version__,
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "ops": [{"label": op.label, "argv": op.argv} for op in ops],
    }


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=36.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", type=Path, default=None, help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    nproc = pin_threads()
    import_package()
    import numpy as np

    import spans
    import workloads

    if args.workload not in workloads.WORKLOADS:
        sys.exit(f"error: unknown workload {args.workload!r}; "
                 f"available: {', '.join(workloads.WORKLOADS)}")
    if args.setup_probe is not None:
        workloads.build(args.workload, args.seed, args.setup_probe)
        print(repr(time.monotonic()))
        return 0

    workdir = WORK / f"{args.workload}-{os.getpid()}"
    try:
        ops = workloads.build(args.workload, args.seed, workdir)
        env = environment(args, nproc, ops, np)
        tracer = None
        if args.trace:
            cycles = run_cycles(ops, args.seconds / 2)
            tracer = spans.Tracer()
            with tracer.installed():
                traced = run_cycles(ops, args.seconds / 2, tracer=tracer)
        else:
            setup = measure_setup(args, workdir)
            min_cycles = workloads.MIN_CYCLES.get(args.workload, 1)
            cycles, traced = run_cycles(ops, args.seconds, min_cycles), []
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        attempted, failed, problems = check(ops, cycles + traced)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    for p in problems:
        print(f"check failed: {p}", file=sys.stderr)
    wall = per_cycle(cycles, "op_wall_s")
    if args.trace:
        values = spans.layer_metrics(tracer.spans, len(traced))
        values["trace.overhead_s"] = per_cycle(traced, "op_wall_s") - wall
        values["error_rate"] = failed / attempted
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in spans.LAYER_METRICS}
        env["span_summary"] = spans.summary(tracer.spans)
        (WORK / f"spans-{args.workload}.json").write_text(json.dumps(tracer.spans))
    else:
        metrics = {
            "wall_s": {"value": wall, "unit": "s"},
            "setup_s": {"value": statistics.median(setup), "unit": "s"},
            "cpu_s": {"value": per_cycle(cycles, "op_cpu_s"), "unit": "s"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
        }
        env["setup_probes_s"] = setup
    env["op_wall_s"] = [c["op_wall_s"] for c in cycles]
    env["traced_op_wall_s"] = [c["op_wall_s"] for c in traced]
    (WORK / f"run-{args.workload}.json").write_text(json.dumps(env, indent=1))
    print(json.dumps({"env": env}))
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
