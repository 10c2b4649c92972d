"""Tests of the benchmark's own code, on small fixtures (no full workload)."""

import copy
import json
from pathlib import Path

import pytest

from perfbench import layers, run, spans, workloads

ROOT = Path(__file__).resolve().parents[2]


def _failed(checks):
    return [name for name, ok in checks if not ok]


@pytest.mark.parametrize(
    "ref_name, check, path",
    [
        ("code_profile_q2", workloads.check_code_profile,
         ("result", "profile", "checks", "hyperplane_weight_hist", "3")),
        ("verify_scattered_q2", workloads.check_verify_q2,
         ("result", "oracle", "details", "weight_hist", "1")),
        ("saturating_q2", workloads.check_saturating,
         ("result", "verdict", "details", "covered_points")),
    ],
)
def test_corrupted_certificate_counts_as_failure(ref_name, check, path):
    cert = workloads.load_reference(ref_name)
    assert _failed(check(cert)) == []
    bad = copy.deepcopy(cert)
    node = bad
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] += 1
    failed = _failed(check(bad))
    assert "reference_result" in failed
    # a closed form catches it too, without the stored reference
    assert len(failed) >= 2


def test_malformed_certificate_fails_every_check():
    checks = workloads.check_code_profile({"command": "code-profile"})
    assert [n for n, ok in checks if ok] == ["command"]


def test_closed_forms():
    assert workloads.CODEWORDS == {4: 166005, 5: 3630690, 6: 12980520}
    assert workloads.INCIDENCES == 1_061_055
    assert workloads.LINES == 17_047_617
    assert workloads.HYPERPLANES == 266_305
    assert workloads.TRIPLES == 2_731_135


def _span(sid, name, start, end, parent):
    return {"id": sid, "name": name, "start": start, "end": end,
            "parent": parent, "run": "t", "attrs": {}}


def test_self_time_of_nested_and_overlapping_spans():
    tree = [
        _span(0, "root", 0.0, 10.0, None),
        _span(1, "a", 1.0, 4.0, 0),
        _span(2, "b", 3.0, 6.0, 0),  # overlaps a, as fork workers do
        _span(3, "a.child", 2.0, 3.0, 1),
        _span(4, "late", 9.0, 12.0, 0),  # runs past its parent's end
    ]
    selfs = spans.self_times(tree)
    assert selfs[0] == pytest.approx(10.0 - 5.0 - 1.0)
    assert selfs[1] == pytest.approx(2.0)
    assert selfs[2] == pytest.approx(3.0)
    assert selfs[3] == pytest.approx(1.0)
    summary = spans.span_summary(tree)
    assert summary["a"] == {"calls": 1, "s": 3.0, "self_s": pytest.approx(2.0)}


def test_graft_renumbers_worker_spans():
    tracer = spans.Tracer("t")
    call = tracer.begin("parallel.call")
    tracer.end(call)
    worker = [_span(0, "parallel.worker", 0.0, 1.0, None), _span(1, "x", 0.2, 0.5, 0)]
    tracer.graft(worker, {"rng.draws": [5, 0.0]}, call["id"])
    assert [(s["id"], s["parent"]) for s in tracer.spans] == [(0, None), (1, 0), (2, 1)]
    assert tracer.counts["rng.draws"] == [5, 0.0]


def test_seed_reaches_seeded_inputs_only():
    for name in ("q8_sampled", "q2_agreement"):
        steps = workloads.WORKLOADS[name].steps(7)
        assert "7" in steps[0].args
        assert steps[0].args != workloads.WORKLOADS[name].steps(8)[0].args
    q8 = workloads.WORKLOADS["q8_sampled"].steps(7)[0].args
    assert q8[q8.index("--seed") + 1] == "7"
    for name in ("q2_certify", "q2_saturate"):
        w = workloads.WORKLOADS[name]
        assert [s.args for s in w.steps(7)] == [s.args for s in w.steps(8)]


def test_seeded_checks_use_the_seed():
    verdict = {"ok": True, "mode": "sampled", "checked_count": 10, "witness": None,
               "details": {"seed": 7}}
    cert = {"command": "verify-scattered", "ok": True,
            "result": {"fast": verdict, "oracle": dict(verdict)}}
    assert _failed(workloads.check_sampled_q8(cert, 7, 10)) == []
    assert _failed(workloads.check_sampled_q8(cert, 8, 10)) == ["fast", "oracle"]
    agree = {"ok": True, "result": {"seed": 7, "mismatches": [], "indices": [0, 1]}}
    assert _failed(workloads.check_agreement(agree, 7, 2)) == []
    assert _failed(workloads.check_agreement(agree, 7, 3)) == ["rows"]


def test_traced_fork_workers_report_back():
    from qscat import parallel, scatter
    from qscat.field import default_field

    original = scatter.run_partitioned
    tracer = spans.Tracer("test")
    uninstall = spans.install(tracer)
    try:
        mismatches, rows = scatter.fast_oracle_agreement(
            default_field(1), 2, seed=3, orders=(1,), workers=2
        )
    finally:
        uninstall()
    assert scatter.run_partitioned is original is parallel.run_partitioned
    assert not mismatches and len(rows) == 2
    m = layers.layer_metrics(tracer.spans, tracer.counts)
    # one outer call with 2 fork workers, each running 2 inner calls
    assert m["parallel.calls"][0] == 1 + 2 * 2
    assert m["parallel.worker0.busy_s"][0] > 0 and m["parallel.worker1.busy_s"][0] > 0
    assert m["rng.draws"][0] > 0  # counted in the workers, merged back
    assert m["scatter.oracle.useful_ratio"][0] > 0
    assert m["gfbatch.tables.builds"][0] == 4


def test_benchmark_json_names_every_metric():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    e2e = run.end_to_end([{"wall_s": 1.0, "items_per_s": 1.0, "peak_rss_mb": 1.0,
                           "cpu_s": 1.0}], 1.0)
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == {
        k: v["unit"] for k, v in e2e.items()}
    per_layer = layers.layer_metrics([], {})
    per_layer["trace.overhead_s"] = (0.0, "s")
    per_layer["fail_ratio"] = (0.0, "ratio")
    assert {m["name"]: m["unit"] for m in bench["per_layer"]} == {
        k: u for k, (_, u) in per_layer.items()}
    assert [w["name"] for w in bench["workloads"]] == list(workloads.WORKLOADS)
