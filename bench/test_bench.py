"""Tests of the benchmark itself: `python3 -m pytest bench -q`.

Every workload runs end to end at smoke size, traced and untraced, with
its outputs checked; the self-time arithmetic and the counting rule are
checked on hand-made spans.
"""

import sys
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

# The layer each workload exists to exercise, and a count that shows it ran.
EXERCISED = {
    "simulate-dense": "cli.bytes_out",
    "analyze-slow-clearance": "steady_state.gap_calls",
    "fit-mc": "fit.calls",
    "verify-mixed": "oracle.dose_terms",
    "trajectory-query": "bateman.points",
}


def test_every_workload_has_a_smoke_case():
    assert set(EXERCISED) == set(workloads.WORKLOADS)


def test_self_time_subtracts_direct_children():
    spans = [
        ["cli.main", 0.0, 10.0, -1],
        ["cli.load", 1.0, 2.0, 0],
        ["bateman.eval", 3.0, 7.0, 0],
        ["bateman.eval", 4.0, 5.5, 2],
        ["oracle.verify", 8.0, 9.0, 0],
    ]
    assert tracer.self_times(spans) == [4.0, 1.0, 2.5, 1.5, 1.0]
    totals = tracer.span_self_totals(spans)
    assert totals["bateman.eval"] == 4.0
    layers = tracer.layer_self_times(totals)
    assert layers["cli"] == 5.0 and layers["bateman"] == 4.0 and layers["fit"] == 0
    assert sum(layers.values()) == 10.0


def test_work_is_counted_once_per_layer_boundary():
    recorder = tracer.Tracer()

    def count(counts, args, result):
        counts["n"] += args[0]

    inner = recorder.wrap(lambda k: k, "layer", count)
    outer = recorder.wrap(lambda k: inner(k) + inner(k), "layer", count)
    other = recorder.wrap(lambda k: inner(k), "caller", None)
    assert outer(3) == 6 and other(5) == 5
    assert recorder.counts["n"] == 8
    assert [s[3] for s in recorder.spans] == [-1, 0, 0, -1, 3]


def test_layer_metrics_report_zero_for_layers_that_did_not_run():
    metrics = tracer.layer_metrics(Counter({"fit.fit": 2.0}),
                                   Counter({"fit.calls": 4, "fit.ok": 3}), 0)
    assert metrics["fit.ok_ratio"] == (0.75, "ratio")
    assert metrics["bateman.ns_per_point"] == (0.0, "ns")
    assert metrics["oracle.dose_terms"] == (0, "count")


def test_times_are_scaled_by_the_calibrations_around_each_child(monkeypatch):
    times = iter([0.1, 0.1, 0.2, 0.2, 0.05, 0.05])
    monkeypatch.setattr(run.calibrate, "calibrate", lambda: next(times))
    speed = run.Speed()
    ref = run.calibrate.REFERENCE_S
    assert speed.factor() == pytest.approx(ref / 0.15)
    assert speed.factor() == pytest.approx(ref / 0.125)


def test_inputs_depend_only_on_the_seed(tmp_path):
    for name in workloads.WORKLOADS:
        files = []
        for sub in ("a", "b"):
            (tmp_path / sub).mkdir(exist_ok=True)
            assert workloads.make(name, 7, tmp_path / sub, smoke=True)
            files.append({p.name: _content(p) for p in (tmp_path / sub).iterdir()})
        assert files[0] == files[1]


def _content(path):
    if path.suffix != ".npz":
        return path.read_bytes()
    with np.load(path) as arrays:  # the zip container stamps the time
        return {key: arrays[key].tobytes() for key in arrays}


@pytest.mark.parametrize("name", sorted(EXERCISED))
def test_workload_runs_checked_and_traced(name, tmp_path, monkeypatch):
    monkeypatch.setattr(run, "STATE", tmp_path)
    record = run.measure(name, seed=3, seconds=0.0, trace=True, smoke=True)
    assert record["problems"] == [] and record["correct"]
    assert record["failed"] == 0 and record["attempted"] >= 2 * run.MIN_ROUNDS

    line = run.result_line(record)
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert set(line["metrics"]) == {*tracer.layer_metrics(Counter(), Counter(), 0),
                                    "trace.overhead_s", "fail_frac"}
    assert line["metrics"][EXERCISED[name]]["value"] > 0
    for key, (value, _) in record["end_to_end"].items():
        assert value > 0, key

    # A second run of the same code and seed must repeat every count.
    again = run.measure(name, seed=3, seconds=0.0, trace=True, smoke=True)
    assert again["correct"], again["problems"]


def test_a_wrong_output_is_counted_as_failed(tmp_path, monkeypatch):
    monkeypatch.setattr(run, "STATE", tmp_path)
    real = workloads.make

    def broken(name, seed, workdir, smoke=False):
        jobs = real(name, seed, workdir, smoke)
        for job in jobs:
            job.check = lambda out: ["forced mismatch"]
        return jobs

    monkeypatch.setattr(workloads, "make", broken)
    record = run.measure("fit-mc", seed=3, seconds=0.0, trace=False, smoke=True)
    assert not record["correct"]
    assert record["failed"] == record["attempted"] == run.MIN_ROUNDS
    assert "end_to_end" not in record


def test_without_sources_the_benchmark_refuses(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(run, "ROOT", tmp_path)
    assert run.main(["--workload", "fit-mc", "--seconds", "0"]) == 2
    assert capsys.readouterr().out == ""
