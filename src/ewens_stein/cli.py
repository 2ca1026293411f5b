"""Command-line interface.

Subcommands: pmf (probability queries), bounds (one bound report),
experiment (parameter sweeps to CSV).
Exit codes: 0 success, 1 runtime/numeric failure (a DegenerateError,
e.g. degenerate variance), 2 usage or validation error.  An experiment
cell that fails prints one error line with its n and theta and is left
out; the healthy cells still print, and the sweep exits with the largest
of its failing cells' codes.
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from .bounds import CSV_COLUMNS, bound_report
from .ewens import EwensParams, cycle_type_pmf, ewens_pmf
from .statistic import DegenerateError

EXIT_OK = 0
EXIT_RUNTIME = 1
EXIT_USAGE = 2

GENERATORS = ("uniform01", "integer-range")


class UsageError(Exception):
    pass


# the errors that end a command with a message instead of a traceback
_FAILURES = (UsageError, ValueError, RuntimeError, OverflowError)


def _exit_code(exc: Exception) -> int:
    # a DegenerateError is a ValueError, but a runtime failure
    if isinstance(exc, (DegenerateError, RuntimeError, OverflowError)):
        return EXIT_RUNTIME
    return EXIT_USAGE


def _parse_ints(text: str, kind: str) -> list[int]:
    values = []
    for pos, token in enumerate(text.split(","), start=1):
        token = token.strip()
        try:
            values.append(int(token))
        except ValueError:
            raise UsageError(
                f"cannot parse {kind}: entry {token!r} at position {pos} "
                "is not an integer"
            ) from None
    return values


def _parse_grid(text: str, kind: str, cast):
    items = []
    for pos, token in enumerate(text.split(","), start=1):
        token = token.strip()
        if not token:
            continue
        try:
            items.append(cast(token))
        except ValueError:
            raise UsageError(
                f"cannot parse {kind} grid: entry {token!r} at position {pos}"
            ) from None
    return items


def _load_matrix(path: str, symmetrize: bool) -> np.ndarray:
    try:
        if path.endswith(".json"):
            with open(path) as fh:
                A = np.asarray(json.load(fh), dtype=float)
        else:
            A = np.loadtxt(path, delimiter=",", dtype=float, ndmin=2)
    except OSError as exc:
        raise UsageError(f"cannot read matrix file {path}: {exc}") from None
    except ValueError as exc:
        raise UsageError(f"cannot parse matrix file {path}: {exc}") from None
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise UsageError(f"matrix in {path} is not square: shape {A.shape}")
    if symmetrize:
        A = (A + A.T) / 2.0
    return A


def _generate_matrix(name: str, n: int, rng: np.random.Generator) -> np.ndarray:
    if name == "uniform01":
        raw = rng.random((n, n))
    elif name == "integer-range":
        raw = rng.integers(0, 10, size=(n, n)).astype(float)
    else:
        raise UsageError(
            f"unknown generator {name!r}; available: {', '.join(GENERATORS)}"
        )
    upper = np.triu(raw)
    return upper + np.triu(raw, 1).T


def _resolve_matrix(args, n: int, seed_key: list[int]) -> np.ndarray:
    if args.matrix:
        A = _load_matrix(args.matrix, args.symmetrize)
        if A.shape[0] != n:
            raise UsageError(
                f"matrix in {args.matrix} is {A.shape[0]}x{A.shape[0]} but n = {n}"
            )
        return A
    rng = np.random.default_rng(np.random.SeedSequence(seed_key))
    return _generate_matrix(args.generator, n, rng)


def _emit(text: str, out: str | None) -> None:
    if out:
        with open(out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------


def cmd_pmf(args) -> int:
    if (args.perm is None) == (args.ctype is None):
        raise UsageError("pmf needs exactly one of --perm or --ctype")
    params = EwensParams(n=args.n, theta=args.theta)
    if args.perm is not None:
        images = _parse_ints(args.perm, "permutation")
        if len(images) != args.n:
            raise UsageError(f"permutation has {len(images)} entries but n = {args.n}")
        value = ewens_pmf(images, params)
    else:
        counts = _parse_ints(args.ctype, "cycle type")
        if len(counts) > args.n:
            raise UsageError(f"cycle type has {len(counts)} entries but n = {args.n}")
        value = cycle_type_pmf(counts + [0] * (args.n - len(counts)), params)
    print(value)
    return EXIT_OK


def cmd_bounds(args) -> int:
    params = EwensParams(n=args.n, theta=args.theta)
    A = _resolve_matrix(args, args.n, [args.seed, 0])
    report = bound_report(A, params, samples=args.samples, seed=args.seed, exact=args.exact)
    if args.format == "json":
        _emit(report.to_json_str() + "\n", args.out)
    else:
        _emit(CSV_COLUMNS + "\n" + report.csv_row() + "\n", args.out)
    return EXIT_OK


def cmd_experiment(args) -> int:
    ns = _parse_grid(args.n_grid, "n", int) if args.n_grid else (
        [args.n] if args.n else []
    )
    thetas = _parse_grid(args.theta_grid, "theta", float) if args.theta_grid else (
        [args.theta] if args.theta is not None else []
    )
    if not ns or not thetas:
        raise UsageError("experiment grid is empty: provide --n/--n-grid and --theta/--theta-grid")
    reports = []
    failed = EXIT_OK
    for combo, (n, theta) in enumerate((n, t) for n in ns for t in thetas):
        # a failing cell is reported and skipped; the healthy rows still print
        try:
            params = EwensParams(n=n, theta=theta)
            A = _resolve_matrix(args, n, [args.seed, combo])
            reports.append(
                bound_report(A, params, samples=args.samples, seed=args.seed, exact=args.exact)
            )
        except _FAILURES as exc:
            print(f"error: n = {n}, theta = {theta!r}: {exc}", file=sys.stderr)
            failed = max(failed, _exit_code(exc))
    if args.format == "json":
        text = json.dumps([r.to_json() for r in reports], sort_keys=True, indent=2) + "\n"
    else:
        text = CSV_COLUMNS + "\n" + "".join(r.csv_row() + "\n" for r in reports)
    _emit(text, args.out)
    return failed


# ---------------------------------------------------------------------------
# Argument parsing
# ---------------------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ewens-stein",
        description="Ewens-measure combinatorial CLT: probabilities, bounds, sweeps.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_pmf = sub.add_parser("pmf", help="probability of a permutation or cycle type")
    p_pmf.add_argument("--n", type=int, required=True)
    p_pmf.add_argument("--theta", type=float, default=1.0)
    p_pmf.add_argument("--perm", type=str, default=None, help="comma-separated images")
    p_pmf.add_argument("--ctype", type=str, default=None, help="comma-separated cycle counts")
    p_pmf.set_defaults(func=cmd_pmf)

    def add_common(p, need_n=True):
        p.add_argument("--n", type=int, required=need_n)
        p.add_argument("--theta", type=float, default=None)
        p.add_argument("--matrix", type=str, default=None, help="CSV or JSON matrix path")
        p.add_argument("--generator", type=str, default="uniform01", choices=GENERATORS)
        p.add_argument("--samples", type=int, default=0)
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--exact", action="store_true")
        p.add_argument("--symmetrize", action="store_true")
        p.add_argument("--format", type=str, default="json", choices=("json", "csv"))
        p.add_argument("--out", type=str, default=None)

    p_bounds = sub.add_parser("bounds", help="one bound report for (A, n, theta)")
    add_common(p_bounds)
    # experiment keeps theta None, so a sweep without one is an empty grid
    p_bounds.set_defaults(func=cmd_bounds, theta=1.0)

    p_exp = sub.add_parser("experiment", help="sweep n and/or theta, emit CSV rows")
    add_common(p_exp, need_n=False)
    p_exp.add_argument("--n-grid", type=str, default=None, help="comma-separated n values")
    p_exp.add_argument("--theta-grid", type=str, default=None)
    p_exp.set_defaults(func=cmd_experiment)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse uses exit code 2 for usage errors already
        return int(exc.code or 0)
    try:
        return args.func(args)
    except _FAILURES as exc:
        print(f"error: {exc}", file=sys.stderr)
        return _exit_code(exc)


if __name__ == "__main__":
    sys.exit(main())
