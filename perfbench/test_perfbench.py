"""Tests of the benchmark's own parts: python3 -m pytest perfbench"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import ewens_stein  # noqa: E402
import ewens_stein.cli  # noqa: E402,F401
from ewens_stein import EwensParams, exact_statistic_law  # noqa: E402

import reference  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402


def _symmetric(n, seed, integer):
    return workloads._matrix(np.random.default_rng(seed), n, integer)


@pytest.mark.parametrize("n", [6, 7, 8])
@pytest.mark.parametrize("theta", [0.3, 1.0, 2.5])
@pytest.mark.parametrize("integer", [False, True])
def test_variance_reference_matches_oracle(n, theta, integer):
    A = _symmetric(n, [n, int(theta * 10), integer], integer)
    law = exact_statistic_law(reference.centered(A, theta), EwensParams(n=n, theta=theta))
    assert abs(law.mean()) < 1e-12
    assert reference.variance(A, theta) == pytest.approx(law.variance(), rel=1e-12)


def test_covered_is_union_clipped_to_parent():
    kids = [(0, 0, "c", 1.0, 3.0, None), (0, 0, "c", 2.0, 4.0, None), (0, 0, "c", 6.0, 12.0, None)]
    assert spans._covered(0.0, 10.0, kids) == pytest.approx(3.0 + 4.0)
    assert spans._covered(0.0, 10.0, []) == 0.0


def test_tracer_rebinds_aliases_and_restores_them():
    # ewens_stein.statistic is the re-exported function, not the module
    statistic_mod = sys.modules["ewens_stein.statistic"]
    cli_mod = sys.modules["ewens_stein.cli"]
    crp, report = statistic_mod.sample_crp_images, cli_mod.bound_report
    tracer = spans.Tracer()
    with tracer.installed():
        for module in (statistic_mod, sys.modules["ewens_stein.coupling"], ewens_stein):
            assert module.sample_crp_images is not crp
        assert cli_mod.bound_report is not report
    assert statistic_mod.sample_crp_images is crp and ewens_stein.sample_crp_images is crp
    assert cli_mod.bound_report is report


def test_traced_report_has_layer_spans_with_parents():
    A = _symmetric(6, 3, True)
    tracer = spans.Tracer()
    with tracer.installed():
        ewens_stein.bound_report(A, EwensParams(n=6, theta=2.0), exact=True, samples=70_000)
    by_id = {s[0]: s for s in tracer.spans}
    names = {s[2] for s in tracer.spans}
    assert {"bounds.bound_report", "statistic.variance_decomposition", "oracle.exact_expectation",
            "oracle.exact_statistic_law", "montecarlo.map_chunks", "montecarlo.chunk",
            "ewens.sample_crp_images", "distances.wasserstein_empirical"} <= names
    for s in tracer.spans:
        if s[2] == "montecarlo.chunk":  # run on pool threads, parented explicitly
            assert by_id[s[1]][2] == "montecarlo.map_chunks"
        if s[2] == "ewens.sample_crp_images":
            assert by_id[s[1]][2] == "montecarlo.chunk"
    values = spans.layer_metrics(tracer.spans, cycles=1)
    assert values["montecarlo.map_chunks.chunks"] == 2
    assert values["ewens.sample_crp_images.rows"] == 70_000
    assert values["oracle.perms_enumerated"] == 2 * 720
    assert values["statistic.t_statistic.calls"] == 720
    assert values["distances.empirical_samples"] == 2 * 70_000
    assert 0.0 < values["statistic.variance_decomposition.self_s"] < values[
        "statistic.variance_decomposition.busy_s"]


def test_bounds_check_accepts_report_and_flags_wrong_sigma(tmp_path):
    (op,) = [o for o in workloads.build("report-exact", 1, tmp_path) if o.n == 6 and o.theta == 0.5]
    output = op.collect(op.call(lambda name: None))
    assert op.check(output) == []
    report = json.loads(output[1])
    report["sigma"] *= 1.0 + 1e-6
    assert any("sigma^2" in p for p in op.check((0, json.dumps(report))))
    report["sigma"] = float("nan")
    assert op.check((0, json.dumps(report)))
    assert op.check((2, None)) == ["exit code 2"]


def test_benchmark_json_lists_the_layer_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(spans.LAYER_METRICS)
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
