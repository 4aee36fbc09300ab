"""Tests of the benchmark itself, at smoke sizes.

Run from the repository root:  python3 -m pytest perfbench
"""

import json
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import tracing  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
RUN = [sys.executable, str(HERE / "run.py")]


@pytest.mark.parametrize("trace", [0, 1])
def test_smoke_suite_runs_every_workload_and_meets_the_output_contract(trace):
    proc = subprocess.run(
        RUN + ["--repeat", "1", "--smoke", "--seconds", "0", "--trace", str(trace), "--seed", "3"],
        capture_output=True, text=True, timeout=600,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    summary = json.loads((HERE / "results" / f"suite-trace{trace}-smoke.json").read_text())
    expected = {m["name"]: m["unit"] for m in SPEC["per_layer" if trace else "end_to_end"]}
    assert list(summary) == [w["name"] for w in SPEC["workloads"]]
    for name, result in summary.items():
        (run,) = result["runs"]
        line = run["line"]
        assert set(line) == {"correct", "attempted", "failed", "metrics"}
        assert line["correct"] and line["failed"] == 0 and line["attempted"] >= (3 if trace else 1), name
        assert {k: m["unit"] for k, m in line["metrics"].items()} == expected
        if not trace:
            assert all(m["value"] > 0 for m in line["metrics"].values()), name


def test_spec_lists_every_layer_metric_and_workload():
    assert [(m["name"], m["unit"], m["better"]) for m in SPEC["per_layer"]] == [
        (name, unit, better) for name, (unit, better) in tracing.LAYER_METRICS.items()
    ]
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)


def test_fails_without_a_result_where_the_sources_are_missing(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / HERE.name, ignore=shutil.ignore_patterns("results", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "outsider_production", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert "correct" not in proc.stdout


def _nested_calls(tracer):
    leaf = tracer.leaf("work", lambda n: sum(range(n)), lambda args, kwargs, out: args[0])
    inner = tracer.span("inner", lambda: leaf(20_000) + leaf(10_000))
    outer = tracer.span("outer", lambda: (inner(), inner(), sum(range(50_000))))
    tracer.run_id = "t"
    outer()


def test_tracer_self_times_fit_inside_their_parents():
    tracer = tracing.Tracer()
    _nested_calls(tracer)
    inner_a, inner_b, outer = tracer.spans
    assert [s.name for s in tracer.spans] == ["inner", "inner", "outer"]
    assert inner_a.parent_id == inner_b.parent_id == outer.span_id
    assert outer.child_s == pytest.approx(inner_a.duration + inner_b.duration)
    assert [(leaf.calls, leaf.work) for leaf in tracer.leaves] == [(2, 30_000), (2, 30_000)]
    assert all(0.0 <= s.self_s <= s.duration for s in tracer.spans)
    assert tracing.check_spans(tracer.spans, tracer.leaves) == []


def test_trace_check_flags_a_child_outside_its_parent():
    tracer = tracing.Tracer()
    _nested_calls(tracer)
    inner, outer = tracer.spans[0], tracer.spans[2]
    inner.end = outer.end + 1.0
    problems = tracing.check_spans(tracer.spans, tracer.leaves)
    assert any("outside its parent" in p for p in problems)
    assert any("self time exceeds parent" in p for p in problems)


def test_install_restores_every_wrapped_attribute():
    from esocp import cli, filtering, full_info, lattice, partial_info, simulate

    owners = (cli, filtering.FilterGrid, full_info, lattice.Lattice, partial_info, simulate)
    before = [dict(vars(owner)) for owner in owners]
    restore, missing = tracing.install(tracing.Tracer())
    assert missing == []
    assert simulate.update_belief is not filtering.update_belief
    restore()
    assert [dict(vars(owner)) for owner in owners] == before


def _smoke(name):
    workload = WORKLOADS[name]
    inputs = workload.setup(workload.smoke_sizes, 1, HERE)
    return workload, inputs, workload.op(inputs)


def test_checks_pass_on_smoke_outputs_and_fail_on_wrong_ones(tmp_path):
    workload, inputs, (full, partial) = _smoke("outsider_production")
    assert workload.check(inputs, (full, partial)).failures == []
    shifted = replace(full, v1_root=full.v1_root + 1.0)
    failures = workload.check(inputs, (shifted, partial)).failures
    assert any("stored values" in f for f in failures) and any("v1 <= u(y) <= v0" in f for f in failures)

    workload, inputs, out = _smoke("replay_100k")
    assert workload.check(inputs, out).failures == []
    out["insider"].payoff[:] *= 2.0
    assert any("|z|" in f for f in workload.check(inputs, out).failures)

    workload = WORKLOADS["table1_cli"]
    inputs = workload.setup(workload.smoke_sizes, 1, tmp_path)
    assert workload.check(inputs, workload.op(inputs)).failures == []
    assert workload.check(inputs, 1).failures == ["table1 exited with code 1"]
    with open(inputs["out_dir"] / "table1.csv", "a") as fh:
        fh.write(",".join(["0.1"] * 8) + "\n")
    assert any("rows" in f for f in workload.check(inputs, 0).failures)
    workload.teardown(inputs)
    assert not inputs["out_dir"].exists()


def test_insider_check_reports_the_perpetual_gap():
    workload, inputs, (full, sol) = _smoke("insider_long_horizon")
    check = workload.check(inputs, (full, sol))
    assert check.failures == [] and 0.0 < check.ref_gap < 0.02
    bad = replace(full, v0_root=full.v0_root * 1.5)
    assert any("perpetual" in f for f in workload.check(inputs, (bad, sol)).failures)
