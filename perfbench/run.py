"""Jigsaw end-to-end benchmark: simulated trace files in, checked report out.

Run from the repository root::

    python3 perfbench/run.py --workload building_stream --seed 7 --seconds 10 --trace 0

One invocation

1. sets up three inputs derived from ``--seed`` (simulate the workload's
   scenario, then write its gzip trace files), each in its own process,
   and reports the median set-up time as ``setup_s``;
2. computes what the outputs are checked against, in another process
   (see ``worker.py reference``);
3. for ``--seconds``, runs the workload's call over the inputs in turn,
   each run in a fresh process under the default GC (``worker.py
   timed``), checks every run's output, and reports the end-to-end
   metrics from the per-input medians;
4. with ``--trace 1`` the timed runs are traced instead; one untraced
   run per input gives the tracing overhead, a single-threaded drain
   gives ``jtrace.decode_s``, and the per-layer metrics are reported.

Every step runs in a child forked from ``worker.py serve``, an
interpreter that has imported the program and done nothing else.

The gated times (``records_per_s``, ``first_output_s``, ``setup_s``)
are scaled to the speed of a quiet host: each phase is bracketed by the
probe in ``hostspeed.py``, and its time is multiplied by the probe's
quiet-host time over its time around the phase.  The shared host this
benchmark runs on runs up to about twice as slowly for minutes at a
time; the raw clock readings are printed next to the scaled ones.

No timed run executes in a process that simulated anything, and none
runs under ``gc.freeze()``: the worker asserts ``gc.isenabled()`` and
``gc.get_freeze_count() == 0`` before it starts the clock.

Every run's output is checked: the fingerprint (a CRC over every jframe's
timestamp, kind, channel and FCS plus the record, jframe, attempt,
exchange and flow counts) must equal the reference run's and, for the
seeds in ``references.json``, the stored value; the run must not be
degraded; a materialized report's lists must match its statistics; and
a restored service run must equal the batch pipeline and publish the
windows an uninterrupted daemon publishes.  A run failing a check
counts in ``failed``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  Everything before
it is for people: every metric by name with its unit, the percentile
rule applied to the samples, and the provenance of the result.
``--smoke`` runs the same steps on the family's tiny scale.
``--record-reference`` stores the fingerprint of this seed in
``references.json``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import select
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
REFERENCES = HERE / "references.json"
CATALOGUE = json.loads((HERE / "metrics.json").read_text())

#: Inputs per invocation.  Input ``i`` of ``--seed s`` is the workload's
#: scenario simulated with seed ``100 * s + i``.  Record counts of one
#: scenario vary by about a tenth between seeds (placement and traffic
#: are drawn from the seed), so each invocation measures a set of three
#: and reports the set's totals; ``setup_s`` is the median of the three
#: set-ups.
INPUTS = 3
#: Hard ceiling on one invocation, kept under the 180 s contract.
DEADLINE_S = 170.0
STEP_TIMEOUT_S = 120.0

sys.path.insert(0, str(HERE))

import hostspeed  # noqa: E402
from checks import check_run, percentile, tail_percentile  # noqa: E402
from workloads import WORKLOADS, get_workload  # noqa: E402


class StepFailed(Exception):
    pass


class _Forker:
    """``worker.py serve``: runs every step in a process of its own.

    The server has imported the program and done nothing else, and forks
    one child per step, so every step starts in a new process in the
    same state as a fresh interpreter after its imports.  The server is
    started on first use and again after a step that timed out (killing
    the server kills its child too).
    """

    def __init__(self, work: Path, smoke: bool):
        self.work, self.smoke = work, smoke
        self.stderr = work / "serve.stderr"
        self.proc: Optional[subprocess.Popen] = None
        self.requests = 0

    def run(self, step: str, *args: str, traced: bool = False,
            timeout: float = STEP_TIMEOUT_S) -> Dict[str, Any]:
        if self.proc is None:
            with self.stderr.open("a") as stderr:
                self.proc = subprocess.Popen(
                    [sys.executable, str(HERE / "worker.py"), "serve"],
                    cwd=ROOT, env=dict(os.environ, PYTHONPATH=str(SRC)),
                    stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                    stderr=stderr, text=True,
                )
        self.requests += 1
        out = self.work / f"request-{self.requests}.json"
        self.proc.stdin.write(json.dumps({
            "step": step, "args": list(args), "traced": traced,
            "smoke": self.smoke, "out": str(out),
        }) + "\n")
        self.proc.stdin.flush()
        ready, _, _ = select.select([self.proc.stdout], [], [], max(1.0, timeout))
        reply = self.proc.stdout.readline() if ready else ""
        if not reply:
            self.close(kill=True)
            raise StepFailed(f"{step}: no reply within {timeout:.0f}s")
        code = json.loads(reply)["exit"]
        if code != 0:
            tail = self.stderr.read_text().strip().splitlines()
            raise StepFailed(f"{step}: exit {code}\n" + "\n".join(tail[-12:]))
        result = json.loads(out.read_text())
        out.unlink()
        return result

    def close(self, kill: bool = False) -> None:
        proc, self.proc = self.proc, None
        if proc is None:
            return
        if not kill:
            proc.stdin.close()
            try:
                proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                kill = True
        if kill:
            proc.kill()
            proc.wait()
            try:
                proc.stdin.close()
            except BrokenPipeError:
                pass
        proc.stdout.close()


def _src_digest() -> str:
    h = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        h.update(path.relative_to(SRC).as_posix().encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def _git_commit() -> Optional[str]:
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() or None


def _numpy_version() -> Optional[str]:
    try:
        import numpy
    except ImportError:
        return None
    return numpy.__version__


def input_seed(seed: int, index: int) -> int:
    return 100 * seed + index


def _stored_reference(workload, seed: int) -> Optional[Dict[str, Any]]:
    if not REFERENCES.exists():
        return None
    return json.loads(REFERENCES.read_text()).get(workload.name, {}).get(str(seed))


def _record_reference(workload, seed: int, runs: List[Dict[str, Any]]) -> None:
    table = json.loads(REFERENCES.read_text()) if REFERENCES.exists() else {}
    table.setdefault(workload.name, {})[str(seed)] = {
        "config_digest": workload.config_digest(),
        "inputs": [
            {"fingerprint": r["fingerprint"], "counts": r["counts"]} for r in runs
        ],
    }
    REFERENCES.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")


def _fmt(value: float) -> str:
    return f"{value:.6g}"


def _scaled(key: str):
    """Reads ``key`` of a run or set-up, scaled to the quiet host's speed."""
    return lambda r: hostspeed.to_reference(r[key], r["probe_s"])


def _set_median(per_input: List[List[Dict[str, Any]]], key) -> List[float]:
    """Per input, the median of ``key`` over that input's runs."""
    return [statistics.median(key(r) for r in runs) for runs in per_input]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="Jigsaw end-to-end benchmark (see module docstring)."
    )
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny scale, one input: exercises the benchmark itself")
    parser.add_argument("--record-reference", action="store_true",
                        help="store this seed's fingerprints in references.json")
    opts = parser.parse_args(argv)

    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no program source under {SRC}", file=sys.stderr)
        return 2

    started = time.monotonic()
    workload = get_workload(opts.workload, smoke=opts.smoke)
    traced = bool(opts.trace)
    smoke = opts.smoke
    work = WORK / f"{workload.name}-{opts.seed}-{opts.trace}{'-smoke' if smoke else ''}"
    if work.exists():
        shutil.rmtree(work)
    work.mkdir(parents=True)
    attempted = failed = 0
    problems: List[str] = []
    n_inputs = 1 if smoke else INPUTS
    inputs = [work / f"input-{i}" for i in range(n_inputs)]
    seeds = [input_seed(opts.seed, i) for i in range(n_inputs)]

    def remaining() -> float:
        return DEADLINE_S - (time.monotonic() - started)

    forker = _Forker(work, smoke)
    try:
        # 1. set-up: one scenario per input, each in its own process.
        setups = [
            forker.run("setup", workload.name, str(seed), str(path))
            for seed, path in zip(seeds, inputs)
        ]
        records = [s["records"] for s in setups]

        # 2. what every run is checked against.
        references = forker.run(
            "reference", workload.name, *map(str, inputs)
        )["inputs"]
        stored = None if smoke else _stored_reference(workload, opts.seed)
        if stored is not None and stored["config_digest"] != workload.config_digest():
            problems.append("references.json holds this seed for another "
                            "workload configuration; record it again")
            stored = None
        for i, ref in enumerate(references):
            if ref["counts"]["records"] != records[i]:
                problems.append(f"input {i}: reference read a different record count")

        # 3. timed runs, each in a fresh process, cycling the inputs.
        per_input: List[List[Dict[str, Any]]] = [[] for _ in inputs]
        measure_until = time.monotonic() + opts.seconds
        while attempted < n_inputs or time.monotonic() < measure_until:
            if remaining() < 30:
                break
            i = attempted % n_inputs
            attempted += 1
            try:
                run = forker.run("timed", workload.name, str(inputs[i]), str(work),
                                 traced=traced, timeout=remaining() - 5)
            except StepFailed as exc:
                failed += 1
                problems.append(f"input {i}: {exc}")
                continue
            bad = check_run(run, workload, references[i],
                            stored["inputs"][i] if stored else None, records[i])
            if bad:
                failed += 1
                problems.extend(f"input {i}: {p}" for p in bad)
            # A run with wrong output is still timed; ``correct`` says so.
            per_input[i].append(run)
        if not all(per_input):
            raise StepFailed("some input has no completed timed run")

        untraced = decoded = None
        if traced:
            untraced = []
            for i, path in enumerate(inputs):
                attempted += 1
                run = forker.run("timed", workload.name, str(path), str(work),
                                 timeout=remaining() - 5)
                bad = check_run(run, workload, references[i], None, records[i])
                if bad:
                    failed += 1
                    problems.extend(f"input {i}: {p}" for p in bad)
                untraced.append(run)
            decoded = forker.run("decode", *map(str, inputs))["inputs"]
    except StepFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        forker.close()

    if opts.record_reference and not smoke and not problems:
        _record_reference(workload, opts.seed, [runs[0] for runs in per_input])
        print(f"stored references for {workload.name} seed {opts.seed}")

    # Gated times are scaled to the quiet host's speed (hostspeed.py);
    # ``measured`` holds the same figures on the raw clock.
    walls = _set_median(per_input, _scaled("wall_s"))
    raw_walls = _set_median(per_input, lambda r: r["wall_s"])
    duration_s = workload.duration_us / 1e6
    e2e = {
        "records_per_s": sum(records) / sum(walls),
        "realtime_factor": duration_s * n_inputs / sum(raw_walls),
        "first_output_s": statistics.fmean(
            _set_median(per_input, _scaled("first_output_s"))),
        "peak_rss_mb": statistics.fmean(
            _set_median(per_input, lambda r: r["peak_rss_mb"])),
        "setup_s": statistics.median(map(_scaled("setup_s"), setups)),
    }
    measured = {
        "records_per_s": sum(records) / sum(raw_walls),
        "first_output_s": statistics.fmean(
            _set_median(per_input, lambda r: r["first_output_s"])),
        "setup_s": statistics.median(s["setup_s"] for s in setups),
    }
    probes = [r["probe_s"] for r in setups + [r for runs in per_input for r in runs]]
    service = {}
    if workload.mode == "service":
        lags = [lag for runs in per_input for lag in runs[0]["publish_lag_ms"]]
        service = {
            "restore_s": statistics.fmean(
                _set_median(per_input, lambda r: r["restore_s"])),
            "publish_lag_ms_p50": percentile(lags, 50.0),
            "publish_lag_ms_p95": percentile(lags, 95.0),
        }
    units = {m["name"]: m["unit"] for m in CATALOGUE["end_to_end"]}
    units.update({m["name"]: m["unit"] for m in CATALOGUE["reported"]})

    all_runs = [r for runs in per_input for r in runs]
    print(f"workload {workload.name}: {workload.family}/{workload.scale}, "
          f"{duration_s:.2f} s simulated, seed {opts.seed} -> input seeds "
          f"{seeds}, records {records}")
    print(f"timed runs: {len(all_runs)} of {attempted} attempted, {failed} failed"
          f"{' (traced)' if traced else ''}")
    for name, value in {**e2e, **service}.items():
        raw = (f"   (raw clock {_fmt(measured[name])})" if name in measured
               else "")
        print(f"  {name:<20} {_fmt(value):>14} {units[name]}{raw}")
    print(f"  host probe: median {_fmt(statistics.median(probes) * 1e3)} ms over "
          f"n={len(probes)} phases (quiet host "
          f"{_fmt(hostspeed.REFERENCE_PROBE_S * 1e3)} ms), range "
          f"{_fmt(min(probes) * 1e3)}-{_fmt(max(probes) * 1e3)} ms")
    run_walls = [r["wall_s"] for r in all_runs]
    tail = tail_percentile(run_walls)
    print(f"  wall per run: median {_fmt(statistics.median(run_walls))} s over "
          f"n={len(run_walls)}; " + (f"p{tail[0]:g} {_fmt(tail[1])} s" if tail
                                     else "no percentile has 10 runs beyond it"))
    if service:
        lag_tail = tail_percentile(lags)
        print(f"  publish lag: n={len(lags)} first publications; highest "
              "percentile with 10 beyond: "
              + (f"p{lag_tail[0]:g} = {_fmt(lag_tail[1])} ms" if lag_tail else "none"))
    for problem in problems:
        print(f"CHECK FAILED: {problem}")

    provenance = {
        "git_commit": _git_commit(),
        "src_digest": _src_digest(),
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": _numpy_version(),
        "seed": opts.seed,
        "input_seeds": seeds,
        "workload": workload.name,
        "family": workload.family,
        "scale": workload.scale,
        "overrides": dict(workload.overrides),
        "duration_s": duration_s,
        "records_in": records,
        "gc_mode": all_runs[0]["gc_mode"],
        "stored_reference": stored is not None,
        "fingerprints": [runs[0]["fingerprint"] for runs in per_input],
    }
    print("provenance " + json.dumps(provenance, sort_keys=True))

    if traced:
        metrics = _per_layer(per_input, untraced, decoded, setups, references, service)
        out_units = {m["name"]: m["unit"] for m in CATALOGUE["per_layer"]}
        print("per-layer (traced runs; per run, averaged over the inputs):")
        for name, value in metrics.items():
            print(f"  {name:<34} {_fmt(value):>14} {out_units[name]}")
    else:
        metrics = {m["name"]: e2e[m["name"]] for m in CATALOGUE["end_to_end"]}
        out_units = units
    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": out_units[name]}
            for name, value in metrics.items()
        },
    }
    runs_made = [
        {k: v for k, v in r.items() if k != "publish_lag_ms"} for r in all_runs
    ]
    (work / "result.json").write_text(json.dumps(
        {"result": result, "provenance": provenance, "service": service,
         "measured": measured,
         "problems": problems, "setups": setups, "runs": runs_made}, indent=1))
    for path in inputs:
        shutil.rmtree(path, ignore_errors=True)
    print(json.dumps(result))
    return 0


def _per_layer(per_input, untraced, decoded, setups, references, service) -> Dict[str, float]:
    """Per-layer values of one run, averaged over the inputs.

    For each input the median over its traced runs is taken; the value
    reported is the mean of those medians, so counts read "per input"
    and times "per run".
    """
    names = [m["name"] for m in CATALOGUE["per_layer"]]
    mean = statistics.fmean
    layers = {
        name: mean(_set_median(per_input, lambda r: r["layers"].get(name, 0.0)))
        for name in names
    }
    # Scaled like records_per_s, since the two sides run at different times.
    wall = _scaled("wall_s")
    traced_rps = mean(_set_median(per_input, lambda r: r["records"] / wall(r)))
    untraced_rps = mean(r["records"] / wall(r) for r in untraced)
    layers.update({
        "sim.simulate_s": mean(s["simulate_s"] for s in setups),
        "sim.write_s": mean(s["write_s"] for s in setups),
        "sim.records": mean(s["records"] for s in setups),
        "jtrace.decode_s": mean(d["decode_s"] for d in decoded),
        "jtrace.bytes_in": mean(d["bytes_in"] for d in decoded),
        "trace.records_per_s_traced": traced_rps,
        "trace.records_per_s_untraced": untraced_rps,
        "trace.overhead_pct": 100.0 * (untraced_rps / traced_rps - 1.0),
    })
    if service:
        layers.update({
            "service.batch_equiv_s": mean(r["batch_equiv_s"] for r in references),
            "service.restore_s": mean(r["restore_s"] for r in untraced),
            "service.publish_lag_ms_p50": service["publish_lag_ms_p50"],
            "service.publish_lag_ms_p95": service["publish_lag_ms_p95"],
        })
    return {name: float(layers[name]) for name in names}


if __name__ == "__main__":
    sys.exit(main())
