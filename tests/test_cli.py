import json

import numpy as np
import pytest

from ewens_stein.bounds import CSV_COLUMNS
from ewens_stein.cli import GENERATORS, _generate_matrix, _load_matrix, main


def write_int_matrix_csv(path):
    A = [[(i + 1) * (j + 1) % 7 for j in range(6)] for i in range(6)]
    path.write_text("\n".join(",".join(str(v) for v in row) for row in A) + "\n")
    return A


def test_pmf_of_permutation(capsys):
    assert main(["pmf", "--n", "3", "--perm", "2,3,1"]) == 0
    out = capsys.readouterr().out.strip()
    assert float(out) == 0.16666666666666666


def test_pmf_identity_weighted_by_theta(capsys):
    assert main(["pmf", "--n", "2", "--theta", "2", "--perm", "1,2"]) == 0
    assert float(capsys.readouterr().out) == 0.6666666666666666


def test_pmf_of_cycle_type(capsys):
    # three fixed points is the identity's type; short --ctype is padded
    assert main(["pmf", "--n", "3", "--ctype", "3"]) == 0
    assert float(capsys.readouterr().out) == 0.16666666666666666


def test_pmf_needs_exactly_one_query(capsys):
    assert main(["pmf", "--n", "3"]) == 2
    assert "exactly one of" in capsys.readouterr().err
    assert main(["pmf", "--n", "3", "--perm", "1,2,3", "--ctype", "3"]) == 2


def test_pmf_parse_and_size_errors(capsys):
    assert main(["pmf", "--n", "3", "--perm", "2,x,1"]) == 2
    assert "position 2" in capsys.readouterr().err
    assert main(["pmf", "--n", "4", "--perm", "2,3,1"]) == 2
    assert main(["pmf", "--n", "3", "--ctype", "1,1,1,1"]) == 2


@pytest.mark.parametrize(
    "query, message",
    [
        (["--perm", "1,1,2"], "error: not a bijection: label 1 appears twice"),
        (["--perm", "0,1,2"], "error: image label 0 is outside [1, 3]"),
        (["--ctype=1,-1,1"], "error: cycle counts must be nonnegative"),
    ],
)
def test_pmf_bad_input_is_a_usage_error(capsys, query, message):
    assert main(["pmf", "--n", "3", *query]) == 2
    assert capsys.readouterr().err.strip() == message


def test_bounds_json_stdout(capsys):
    assert main(["bounds", "--n", "6", "--seed", "3"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["n"] == 6 and report["theta"] == 1.0
    assert report["sigma"] > 0
    assert report["d1_upper"] == report["alpha1"] / report["sigma"]
    assert report["d1_empirical"] is None


def test_bounds_csv_to_file(tmp_path, capsys):
    out = tmp_path / "row.csv"
    code = main(
        ["bounds", "--n", "6", "--theta", "2.0", "--format", "csv",
         "--out", str(out), "--samples", "2000"]
    )
    assert code == 0
    assert capsys.readouterr().out == ""
    header, row = out.read_text().strip().split("\n")
    assert header == CSV_COLUMNS
    fields = row.split(",")
    assert fields[0] == "6" and fields[1] == "2.0"
    assert fields[13] == "2000"  # samples column
    assert float(fields[11]) > 0  # empirical d1 present


def test_bounds_csv_row_round_trips_to_json_report(tmp_path, capsys):
    path = tmp_path / "scores.csv"
    write_int_matrix_csv(path)
    args = ["bounds", "--n", "6", "--matrix", str(path), "--exact",
            "--samples", "2000", "--seed", "3"]
    assert main([*args, "--format", "csv", "--out", str(tmp_path / "row.csv")]) == 0
    assert main([*args, "--format", "json", "--out", str(tmp_path / "report.json")]) == 0
    header, row = (tmp_path / "row.csv").read_text().strip().split("\n")
    fields = dict(zip(header.split(","), row.split(",")))
    assert list(fields) == CSV_COLUMNS.split(",")
    report = json.loads((tmp_path / "report.json").read_text())
    expected = {
        "d1_emp": report["d1_empirical"]["d1"],
        "dinf_emp": report["dinf_empirical"]["d_inf"],
        "samples": report["provenance"]["samples"],
        "seed": report["provenance"]["seed"],
    }
    for column, text in fields.items():
        value = expected[column] if column in expected else report[column]
        assert value is not None, column
        assert text == repr(value), column
        assert type(value)(text) == value, column
    assert report["d1_exact"] > 0 and report["dinf_exact"] > 0


def test_bounds_matrix_csv_file(tmp_path, capsys):
    path = tmp_path / "m.csv"
    write_int_matrix_csv(path)
    assert main(["bounds", "--n", "6", "--matrix", str(path), "--exact"]) == 0
    report = json.loads(capsys.readouterr().out)
    # integer entries switch on the Kolmogorov lower bound
    assert report["dinf_lower"] is not None
    assert report["dinf_lower"] <= report["dinf_exact"] <= report["dinf_upper"]
    assert report["d1_exact"] <= report["d1_upper"]
    assert report["sigma"] ** 2 == pytest.approx(21.0, rel=1e-12)


def test_bounds_matrix_json_file(tmp_path, capsys):
    path = tmp_path / "m.json"
    rng = np.random.default_rng(0)
    raw = rng.random((6, 6))
    sym = ((raw + raw.T) / 2).tolist()
    path.write_text(json.dumps(sym))
    assert main(["bounds", "--n", "6", "--matrix", str(path)]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["dinf_lower"] is None
    # the integer-matrix bound need not hold here, and no option forces it
    argv = ["bounds", "--n", "6", "--matrix", str(path), "--force-integer-lower-bound"]
    assert main(argv) == 2
    assert "unrecognized arguments" in capsys.readouterr().err


def test_bounds_matrix_errors(tmp_path, capsys):
    path = tmp_path / "bad.csv"
    path.write_text("1,2\n3,4\n")
    assert main(["bounds", "--n", "6", "--matrix", str(path)]) == 2
    assert "but n = 6" in capsys.readouterr().err
    missing = tmp_path / "nope.csv"
    assert main(["bounds", "--n", "6", "--matrix", str(missing)]) == 2
    ragged = tmp_path / "ragged.csv"
    ragged.write_text("1,2,3\n4,5\n")
    assert main(["bounds", "--n", "3", "--matrix", str(ragged)]) == 2


def test_bounds_asymmetric_needs_symmetrize(tmp_path, capsys):
    path = tmp_path / "asym.csv"
    rows = [[float(i * j + i) for j in range(6)] for i in range(6)]
    path.write_text("\n".join(",".join(str(v) for v in r) for r in rows))
    assert main(["bounds", "--n", "6", "--matrix", str(path)]) == 2
    assert "symmetric" in capsys.readouterr().err
    assert main(
        ["bounds", "--n", "6", "--matrix", str(path), "--symmetrize"]
    ) == 0


def test_bounds_non_finite_entry_is_named(tmp_path, capsys):
    path = tmp_path / "nan.csv"
    rows = [[(i + 1) * (j + 1) % 7 for j in range(6)] for i in range(6)]
    rows[2][2] = "nan"
    path.write_text("\n".join(",".join(str(v) for v in r) for r in rows))
    assert main(["bounds", "--n", "6", "--matrix", str(path)]) == 2
    assert "non-finite entry (3, 3) = nan" in capsys.readouterr().err


def test_bounds_infinite_theta_is_usage_error(capsys):
    assert main(["bounds", "--n", "6", "--theta", "inf"]) == 2
    captured = capsys.readouterr()
    assert "theta must be finite and positive" in captured.err
    assert captured.out == ""


@pytest.mark.parametrize(
    "args, value",
    [
        # theta / (theta (theta+1) (theta+2)): the direct quotient underflows
        (["--perm", "2,3,1", "--theta", "1e120"], 1e-240),
        # theta^3 and the rising factorial both overflow; the ratio is ~1
        (["--perm", "1,2,3", "--theta", "1e120"], 1.0),
        (["--ctype", "3", "--theta", "1e308"], 1.0),
    ],
)
def test_pmf_huge_finite_theta_takes_the_log_route(args, value, capsys):
    assert main(["pmf", "--n", "3"] + args) == 0
    assert float(capsys.readouterr().out) == pytest.approx(value, rel=1e-12, abs=0)


def test_bounds_huge_finite_theta_is_degenerate_variance(capsys):
    # theta^4 overflows in the fixed-point moments; sigma^2 is then at the
    # noise floor, as it already is at theta = 1e60
    assert main(["bounds", "--n", "7", "--theta", "1e80"]) == 1
    captured = capsys.readouterr()
    assert "degenerate variance" in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("theta, stage", [("1e200", "sigma^2"), ("1e308", "centering")])
def test_bounds_overflowing_theta_is_runtime_error(theta, stage, capsys):
    assert main(["bounds", "--n", "7", "--theta", theta]) == 1
    captured = capsys.readouterr()
    assert f"error: {stage} overflows double precision" in captured.err
    assert captured.out == ""


def test_bounds_small_n_is_usage_error(capsys):
    assert main(["bounds", "--n", "5"]) == 2
    assert "n >= 6" in capsys.readouterr().err


def test_bounds_degenerate_matrix_is_runtime_error(tmp_path, capsys):
    path = tmp_path / "zeros.csv"
    path.write_text("\n".join(",".join("0" for _ in range(6)) for _ in range(6)))
    assert main(["bounds", "--n", "6", "--matrix", str(path)]) == 1
    assert "degenerate" in capsys.readouterr().err


def test_invalid_thread_count_is_usage_error_whatever_its_text(monkeypatch, capsys):
    # the exit code follows the error type, not words in the message
    for value in ("abc", "degenerate"):
        monkeypatch.setenv("EWENS_STEIN_THREADS", value)
        assert main(["bounds", "--n", "6", "--samples", "2000"]) == 2
        assert "EWENS_STEIN_THREADS must be an integer" in capsys.readouterr().err


def test_generators():
    rng = np.random.default_rng(1)
    for name in GENERATORS:
        A = _generate_matrix(name, 7, rng)
        assert A.shape == (7, 7)
        assert np.array_equal(A, A.T)
    B = _generate_matrix("integer-range", 6, rng)
    assert np.array_equal(B, np.round(B))
    assert B.min() >= 0 and B.max() <= 9


def test_experiment_csv_grid(tmp_path):
    out = tmp_path / "sweep.csv"
    code = main(
        ["experiment", "--n-grid", "6,7", "--theta-grid", "0.5,1,2",
         "--format", "csv", "--out", str(out), "--seed", "5"]
    )
    assert code == 0
    lines = out.read_text().strip().split("\n")
    assert lines[0] == CSV_COLUMNS
    assert len(lines) == 1 + 2 * 3
    ns = [row.split(",")[0] for row in lines[1:]]
    assert ns == ["6", "6", "6", "7", "7", "7"]


def test_experiment_keeps_its_healthy_cells(capsys):
    # theta = 1e80 leaves sigma^2 at the noise floor; the theta = 1 cells
    # still print, each failing cell names itself, and the exit code is 1
    args = ["experiment", "--n-grid", "7,9", "--theta-grid", "1,1e80", "--format", "csv"]
    assert main(args) == 1
    captured = capsys.readouterr()
    lines = captured.out.strip().split("\n")
    assert lines[0] == CSV_COLUMNS
    assert [row.split(",")[:2] for row in lines[1:]] == [["7", "1.0"], ["9", "1.0"]]
    errors = captured.err.strip().split("\n")
    assert len(errors) == 2
    for error, n in zip(errors, (7, 9)):
        assert error.startswith(f"error: n = {n}, theta = 1e+80: degenerate variance")
    # a usage error in any cell sets the exit code to 2
    assert main(["experiment", "--n-grid", "5,6", "--theta", "1"]) == 2
    captured = capsys.readouterr()
    assert "error: n = 5, theta = 1.0: the case analysis requires n >= 6" in captured.err
    assert [r["n"] for r in json.loads(captured.out)] == [6]


def test_experiment_json_list(capsys):
    assert main(["experiment", "--n", "6", "--theta-grid", "1,2"]) == 0
    reports = json.loads(capsys.readouterr().out)
    assert [r["theta"] for r in reports] == [1.0, 2.0]


def test_experiment_empty_grid(capsys):
    assert main(["experiment", "--theta-grid", "1,2"]) == 2
    assert "grid is empty" in capsys.readouterr().err
    # unlike bounds, experiment has no default theta
    assert main(["experiment", "--n", "6"]) == 2
    assert "grid is empty" in capsys.readouterr().err


@pytest.mark.parametrize("command", [["bounds", "--n", "6"], ["experiment", "--n", "6", "--theta", "1"]])
def test_unwritable_out_is_a_usage_error(tmp_path, capsys, command):
    out = tmp_path / "missing" / "report.json"
    assert main([*command, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: cannot write {out}: ") and "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("command", [["bounds", "--n", "6"], ["experiment", "--n", "6", "--theta", "1"]])
@pytest.mark.parametrize("seed", ["-1", "x"])
def test_bad_seed_names_the_flag(capsys, command, seed):
    assert main([*command, "--seed", seed]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"argument --seed: expected a nonnegative integer, got {seed!r}" in captured.err


def test_argparse_errors_exit_2(capsys):
    assert main(["bounds"]) == 2  # missing required --n
    capsys.readouterr()
    assert main(["frobnicate"]) == 2  # unknown subcommand
    capsys.readouterr()
    assert main(["bounds", "--n", "6", "--format", "yaml"]) == 2
    capsys.readouterr()


def test_load_matrix_roundtrip(tmp_path):
    path = tmp_path / "m.csv"
    write_int_matrix_csv(path)
    A = _load_matrix(str(path), symmetrize=False)
    assert A.shape == (6, 6)
    assert A[1, 2] == 6.0  # (2*3) % 7
