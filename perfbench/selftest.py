"""Tests of the benchmark's own logic.

Run from the repository root::

    python3 -m pytest -q perfbench/selftest.py

The percentile rule, the publish-lag computation, the fingerprint
check, the host-speed scaling and the fork server are tested directly;
the last tests run every workload end to end on the tiny scale and check
the benchmark's output contract.
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

from checks import check_run, percentile, publish_lags_us, tail_percentile  # noqa: E402
from workloads import WORKLOADS, get_workload  # noqa: E402

CATALOGUE = json.loads((HERE / "metrics.json").read_text())


# --- the percentile rule ----------------------------------------------------


def test_nearest_rank_percentile():
    samples = list(range(1, 101))
    assert percentile(samples, 50) == 50
    assert percentile(samples, 95) == 95
    assert percentile([3.0], 99) == 3.0


@pytest.mark.parametrize(
    "n, expected_p",
    [(5, None), (19, None), (20, 50.0), (99, 50.0), (100, 90.0),
     (199, 90.0), (200, 95.0), (1000, 99.0), (10000, 99.9)],
)
def test_tail_percentile_needs_ten_samples_beyond(n, expected_p):
    samples = [float(i) for i in range(n, 0, -1)]  # order must not matter
    tail = tail_percentile(samples)
    if expected_p is None:
        assert tail is None
        return
    p, value, count = tail
    assert (p, count) == (expected_p, n)
    assert value == percentile(samples, p)
    assert sum(1 for s in samples if s > value) >= 10


# --- publish lag ------------------------------------------------------------


def test_publish_lag_on_a_hand_built_log():
    offsets = {1: 100.0, 2: -50.0, 3: 0.0}  # radio 4 is quarantined
    log = [
        # Radio 2 is furthest behind: min(1000+100, 900-50, 2000) = 850.
        (500, {1: 1000, 2: 900, 3: 2000, 4: 10}, set()),
        # Radio 2 is done, so radio 1 (1200+100) is furthest behind.
        (1000, {1: 1200, 2: 950, 3: 2500, 4: 10}, {2}),
        # Everyone is done: the newest record of any radio (3000) stands in.
        (2000, {1: 1300, 2: 950, 3: 3000}, {1, 2, 3}),
    ]
    assert publish_lags_us(log, offsets) == [350.0, 300.0, 1000.0]


# --- the fingerprint check --------------------------------------------------


def _tiny_report():
    from probes import FingerprintPass
    from repro.core import JigsawPipeline
    from repro.sim import run_scenario
    from repro.sim.registry import scenario_config

    artifacts = run_scenario(scenario_config("building", "tiny", seed=3))
    return JigsawPipeline().run(
        artifacts.radio_traces,
        clock_groups=artifacts.clock_groups(),
        passes=[FingerprintPass()],
    )


def _replayed_fingerprint(report, jframes):
    from checks import fingerprint
    from probes import FingerprintPass, report_counts

    fp = FingerprintPass()
    for jframe in jframes:
        fp.on_jframe(jframe)
    return fingerprint(fp.crc, report_counts(report))


def test_fingerprint_check_fails_on_a_perturbed_jframe():
    from probes import report_fingerprint

    report = _tiny_report()
    good = report_fingerprint(report)
    assert _replayed_fingerprint(report, report.jframes) == good

    workload = get_workload("building_stream", smoke=True)
    records = report.unification.stats.records_in
    reference = {"fingerprint": good, "counts": {}}
    run = {"records": records, "fingerprint": good, "counts": {}}
    assert check_run(run, workload, reference, None, records) == []

    middle = len(report.jframes) // 2
    for change in ({"fcs": report.jframes[middle].fcs ^ 1},
                   {"timestamp_us": report.jframes[middle].timestamp_us + 1},
                   {"channel": report.jframes[middle].channel + 1}):
        jframes = list(report.jframes)
        jframes[middle] = dataclasses.replace(jframes[middle], **change)
        bad = dict(run, fingerprint=_replayed_fingerprint(report, jframes))
        problems = check_run(bad, workload, reference, None, records)
        assert len(problems) == 1 and "fingerprint" in problems[0]

    stored = {"config_digest": workload.config_digest(), "fingerprint": "0" * 24}
    assert check_run(run, workload, reference, stored, records)


def test_service_run_is_checked_against_batch_and_uninterrupted_daemon():
    workload = get_workload("live_service", smoke=True)
    stats = {"unify": {"jframes": 5}}
    outcome = {"fingerprint": "f", "stats": stats, "window_keys": "w",
               "publish_lag_ms": [1.0, 2.0]}
    reference = {"fingerprint": "f", "counts": {}, "stats": stats,
                 "uninterrupted": dict(outcome)}
    run = {"records": 9, "counts": {}, **outcome}
    assert check_run(run, workload, reference, None, 9) == []
    for change in ({"stats": {"unify": {"jframes": 6}}}, {"window_keys": "x"},
                   {"publish_lag_ms": [1.0, 3.0]}):
        assert len(check_run(dict(run, **change), workload, reference, None, 9)) == 1


# --- host-speed scaling and the fork server ---------------------------------


def test_times_are_scaled_by_the_probe():
    import hostspeed

    assert hostspeed.probe_s([0.03, 0.01], [0.02, 0.05]) == 0.025
    quiet = hostspeed.REFERENCE_PROBE_S
    assert hostspeed.to_reference(2.0, quiet) == 2.0
    assert hostspeed.to_reference(2.0, 2 * quiet) == 1.0
    assert all(t > 0 for t in hostspeed.sample(2))


def test_fork_server_survives_a_failed_step_and_stops(tmp_path):
    import run

    forker = run._Forker(tmp_path, smoke=True)
    try:
        with pytest.raises(run.StepFailed, match="exit 1"):
            forker.run("setup", "no_such_workload", "1", str(tmp_path / "x"))
        server = forker.proc
        out = tmp_path / "input"
        setup = forker.run("setup", "sparse_report", "5", str(out))
        assert forker.proc is server
        assert setup["records"] > 0 and setup["probe_s"] > 0
        decoded = forker.run("decode", str(out))["inputs"]
        assert decoded[0]["records"] == setup["records"]
    finally:
        forker.close()
    assert server.returncode == 0


# --- the benchmark contract -------------------------------------------------


def test_benchmark_json_matches_the_catalogue():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in bench["workloads"]] == list(WORKLOADS)
    assert [w["why"] for w in bench["workloads"]] == [
        w.why for w in WORKLOADS.values()
    ]
    strip = ("name", "unit", "better", "bound")
    assert bench["end_to_end"] == [
        {k: m[k] for k in strip} for m in CATALOGUE["end_to_end"]
    ]
    assert bench["per_layer"] == [
        {k: m[k] for k in strip[:3]} for m in CATALOGUE["per_layer"]
    ]


def _run(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


@pytest.mark.parametrize("workload", list(WORKLOADS))
@pytest.mark.parametrize("trace", ["0", "1"])
def test_smoke_run(workload, trace):
    proc = _run("--workload", workload, "--seed", "5", "--seconds", "1",
                "--trace", trace, "--smoke")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True, proc.stdout
    assert result["failed"] == 0 and result["attempted"] >= 1
    expected = CATALOGUE["per_layer" if trace == "1" else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in expected]
    for metric, spec in zip(result["metrics"].values(), expected):
        assert metric["unit"] == spec["unit"]
        assert isinstance(metric["value"], float)
    if trace == "0":
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run("--workload", "building_stream", "--seed", "7",
                "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
