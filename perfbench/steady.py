#!/usr/bin/env python3
"""Run the benchmark once per seed and report each end-to-end metric's spread.

    python3 perfbench/steady.py --workload report-exact --seeds 1-10 [--out FILE]

For every metric: the median, the quartiles (statistics.quantiles, n=4) and
the spread (Q3 - Q1) / median, beside the metric's bound from BENCHMARK.json.
Runs are sequential, one benchmark process at a time.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=seeds, default=seeds("1-10"))
    parser.add_argument("--out", type=Path, default=None, help="write the runs and summary as JSON")
    args = parser.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    runs = []
    for seed in args.seeds:
        cmd = [sys.executable, *spec["command"][1:], "--workload", args.workload,
               "--seed", str(seed), "--seconds", str(spec["run_seconds"]), "--trace", "0"]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
        if proc.returncode != 0:
            print(proc.stderr, file=sys.stderr)
            return 1
        result = json.loads(proc.stdout.splitlines()[-1])
        runs.append({"seed": seed, **result})
        values = {k: round(v["value"], 4) for k, v in result["metrics"].items()}
        print(f"seed {seed}: correct={result['correct']} failed={result['failed']}/"
              f"{result['attempted']} {values}", flush=True)
    summary = {}
    for metric in spec["end_to_end"]:
        values = [r["metrics"][metric["name"]]["value"] for r in runs]
        q1, med, q3 = statistics.quantiles(values, n=4)
        summary[metric["name"]] = {"median": med, "q1": q1, "q3": q3,
                                   "spread": (q3 - q1) / med, "bound": metric["bound"]}
        print(f"{metric['name']:>12}: median {med:.4f} {metric['unit']}, quartiles "
              f"[{q1:.4f}, {q3:.4f}], spread {(q3 - q1) / med:.3f} (bound {metric['bound']})")
    if args.out:
        args.out.write_text(json.dumps({"workload": args.workload, "runs": runs,
                                        "summary": summary}, indent=1))
    return 0 if all(r["correct"] for r in runs) else 1


if __name__ == "__main__":
    sys.exit(main())
