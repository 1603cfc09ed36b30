"""Self-tests of the benchmark harness: its declared metrics, its output
checks, and that tracing changes no item's output.

Run from the repository root:  python3 -m pytest -q bench/tests
"""

import dataclasses
import json
import os
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import hostspeed
import run
import tracer
import workloads
from chdisc import validate_quadrangle

ROOT = Path(__file__).resolve().parents[2]


def test_benchmark_json_declares_the_harness_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert spec["command"] == ["python3", "bench/run.py"]
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]} == {
        name: spec_[:2] for name, spec_ in tracer.LAYER_METRICS.items()}
    mapped = {w for spec_ in tracer.LAYER_METRICS.values() for w in spec_[3]}
    assert mapped == set(workloads.WORKLOADS)


def test_certify_expectations_are_the_verdicts_before_the_isometry():
    for kind, (quad, verdict) in workloads.certify_bases().items():
        cert = validate_quadrangle(quad)
        assert (cert.k1, cert.k2, cert.k3) == verdict, kind


def _sample(name, workload):
    """A few cheap items that together reach every layer mapped to the workload."""
    items = workload.round(0)
    if name == "certify":
        return [next(i for i in items if i.expected == workloads.PASS),
                next(i for i in items if i.expected != workloads.PASS)]
    if name == "invariants":
        return [next(i for i in items if i.label == "turnover_3-3-4_r8"),
                next(i for i in items if i.label == "octagon_lagrangian_r4")]
    return items[:1]


def _wrong(name, item):
    """The item with a deliberately wrong expected verdict or snapped value."""
    if name == "certify":
        bad = (True, True, False) if item.expected == workloads.PASS else workloads.PASS
    elif name == "invariants":
        chi, tau, e, holomorphic = item.expected
        bad = (chi, tau + Fraction(1, 12), e, holomorphic)
    elif name == "solve":
        bad = (True, False)
    else:
        bad = dict(item.expected, **{"2-3-7": True})
    return dataclasses.replace(item, expected=bad)


def _traced_round(workload, items, tally):
    tr = tracer.Tracer()
    with tr.installed():
        outs = [run.run_item(workload, item, tally, True, tr) for item in items]
    return outs, tracer.round_metrics(tr.spans, tr.counters)


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_checks_fail_on_wrong_expectations_and_tracing_changes_no_output(name, tmp_path):
    workload = workloads.WORKLOADS[name](7, tmp_path)
    items = _sample(name, workload)
    tally = run.Tally()
    outs = [run.run_item(workload, item, tally, True) for item in items]
    assert (tally.failed, tally.timed_correct) == (0, len(items)), tally.failures

    wrong = run.Tally()
    for item, out in zip(items, outs):
        problem = workload.check(_wrong(name, item), out)
        assert problem is not None
        wrong.record(item.label, 0.0, problem, True)
    assert wrong.failed / wrong.attempted == 1.0

    traced_outs, metrics = _traced_round(workload, items, tally)
    assert traced_outs == outs
    for metric, (unit, _, _, mapped) in tracer.LAYER_METRICS.items():
        if name in mapped:
            assert metrics[metric] > 0, metric

    again_outs, again = _traced_round(workload, items, tally)
    assert again_outs == outs
    counts = [m for m, spec in tracer.LAYER_METRICS.items() if spec[0] == "count"]
    assert {m: again[m] for m in counts} == {m: metrics[m] for m in counts}
    assert tally.failed == 0, tally.failures


def test_a_raising_item_counts_as_failed(tmp_path):
    workload = workloads.Certify(0, tmp_path)
    item = dataclasses.replace(workload.round(0)[0], payload=None)
    tally = run.Tally()
    run.run_item(workload, item, tally, True)
    assert (tally.attempted, tally.failed) == (1, 1)


def test_pipeline_check_rejects_artifacts_that_differ_from_the_reference(tmp_path):
    workload = workloads.Pipeline(0, tmp_path)
    item = workload.round(0)[0]
    out = {"scan_code": 0, "check_codes": {}, "converged": [True], "artifacts": {"a.json": "1"},
           "written": {}, "read_back": {}}
    workload.reference = {"a.json": "0"}
    assert "differ" in workload.check(item, out)


def test_sampler_covers_the_budget_and_restores_the_cpu_set():
    sampler = hostspeed.Sampler()
    before = os.sched_getaffinity(0) if sampler.cpus else None
    times = sampler.sample(0.0)
    assert len(times) == 1 and times[0] > 0
    times = sampler.sample(3 * times[0])
    assert sum(times) >= 3 * times[0]
    if sampler.cpus:
        assert os.sched_getaffinity(0) == before
        assert sampler.turn == len(times) + 1


class _SlowHost:
    """A host on which the reference always takes four times ``NOMINAL_S``."""

    NOMINAL_S = 0.25
    SENSITIVITY = 0.5

    class Sampler:
        cpus = [0, 1]

        def sample(self, budget):
            return [1.0]


def test_throughput_is_scaled_to_the_nominal_host_speed(tmp_path):
    workload = workloads.Certify(0, tmp_path)
    tally = run.Tally()
    metrics, detail = run.measure(workload, 0.0, tally, _SlowHost)
    assert tally.failed == 0, tally.failures
    assert metrics["hostnorm_items_per_s"] == pytest.approx(2 * detail["raw"]["items_per_s"])
    assert detail["hostnorm_item_p50_ms"] == pytest.approx(detail["raw"]["item_p50_ms"] / 2)


def _run_cli(cwd, *args):
    return subprocess.run([sys.executable, "bench/run.py", *args], cwd=cwd, capture_output=True,
                          text=True, timeout=170)


@pytest.mark.parametrize("trace", ["0", "1"])
def test_command_prints_one_result_line(trace):
    proc = _run_cli(ROOT, "--workload", "certify", "--seed", "5", "--seconds", "0",
                    "--trace", trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 1
    declared = tracer.LAYER_METRICS if trace == "1" else run.END_TO_END
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        name: spec[0] for name, spec in declared.items()}


def test_command_fails_without_the_program_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "bench", tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run_cli(tmp_path, "--workload", "certify", "--seed", "0", "--seconds", "1",
                    "--trace", "0")
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
