"""One benchmark step, run in a fresh process by ``run.py``.

Usage (``PYTHONPATH`` must reach the program's ``src``)::

    python3 perfbench/worker.py setup     WORKLOAD SEED OUT_DIR [--smoke]
    python3 perfbench/worker.py timed     WORKLOAD TRACE_DIR WORK_DIR [--traced] [--smoke]
    python3 perfbench/worker.py reference WORKLOAD TRACE_DIR... [--smoke]
    python3 perfbench/worker.py decode    TRACE_DIR...
    python3 perfbench/worker.py serve     (requests on standard input)

Every step prints one JSON object as its last line of standard output.
``setup`` simulates the scenario and writes its trace files plus a
``manifest.json`` (record count, duration and the clock groups: the
deployment metadata a real caller also holds).  ``timed`` runs the
workload's call once, exactly as a caller does, under the interpreter's
default GC and in a process that never simulated anything; with
``--traced`` it also installs the layer tracing.  ``reference`` computes
what a timed run's output is checked against: the batch pipeline in the
other materialization mode, and for the service workload the batch
pipeline over the same windowed passes plus an uninterrupted daemon.
``decode`` drains every file single-threaded through
``iter_record_batches``.  ``serve`` runs steps in forked children of an
interpreter that has only imported the program (see ``serve``);
``run.py`` makes its timed runs that way.

``setup`` and ``timed`` sample the host-speed probe (``hostspeed.py``)
just before and just after the phase they time, outside the timing, and
report the probe time as ``probe_s``.
"""

from __future__ import annotations

import argparse
import ctypes
import gc
import json
import os
import resource
import shutil
import signal
import sys
import time
import traceback
from pathlib import Path
from typing import Any, Dict

import hostspeed

_PC = time.perf_counter
_PR_SET_PDEATHSIG = 1


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _check_gc() -> str:
    """The timed phase runs under the interpreter's default GC."""
    if not gc.isenabled() or gc.get_freeze_count() != 0:
        raise AssertionError(
            f"GC not in default mode: enabled={gc.isenabled()} "
            f"frozen={gc.get_freeze_count()}"
        )
    return f"default (enabled, thresholds={gc.get_threshold()}, frozen=0)"


def _manifest(trace_dir: Path) -> Dict[str, Any]:
    return json.loads((trace_dir / "manifest.json").read_text())


# --- setup ------------------------------------------------------------------


def setup(workload, seed: int, out_dir: Path) -> Dict[str, Any]:
    from repro.jtrace import write_traces
    from repro.sim import run_scenario

    from workloads import scenario

    config = scenario(workload, seed)
    if out_dir.exists():
        shutil.rmtree(out_dir)
    before = hostspeed.sample()
    started = _PC()
    artifacts = run_scenario(config)
    simulated = _PC()
    paths = write_traces(artifacts.radio_traces, out_dir)
    written = _PC()
    probe = hostspeed.probe_s(before, hostspeed.sample())
    radio_records = {t.radio_id: len(t) for t in artifacts.radio_traces}
    records = sum(radio_records.values())
    manifest = {
        "workload": workload.name,
        "seed": seed,
        "config_digest": workload.config_digest(),
        "duration_us": config.duration_us,
        "records": records,
        "radio_records": radio_records,
        "clock_groups": artifacts.clock_groups(),
    }
    (out_dir / "manifest.json").write_text(json.dumps(manifest))
    return {
        "simulate_s": simulated - started,
        "write_s": written - simulated,
        "setup_s": written - started,
        "probe_s": probe,
        "records": records,
        "bytes": sum(p.stat().st_size for p in paths),
    }


# --- the timed call ---------------------------------------------------------


def _batch_checks(report, manifest) -> None:
    stats = report.unification.stats
    if report.health.degraded:
        raise AssertionError(f"degraded run: {report.health.summary()}")
    if stats.records_in != manifest["records"]:
        raise AssertionError(
            f"merge read {stats.records_in} records, "
            f"{manifest['records']} were written"
        )
    if report.materialized:
        lengths = (len(report.jframes), len(report.attempts), len(report.exchanges))
        expected = (
            stats.jframes,
            report.attempt_stats.attempts,
            report.exchange_stats.exchanges,
        )
        if lengths != expected:
            raise AssertionError(
                f"materialized lists {lengths} disagree with stats {expected}"
            )


def _report_layers(report) -> Dict[str, float]:
    """Per-layer counts read off a finished report."""
    return {
        "sync.widen_rounds": report.health.sync.widen_rounds,
        "sync.quarantined": len(report.health.sync.quarantined),
        "link.attempts": report.attempt_stats.attempts,
        "link.exchanges": report.exchange_stats.exchanges,
        "transport.flows": len(report.flows),
    }


def _run_batch(trace_dir: Path, materialize: bool, passes, tracer=None):
    from repro.core import JigsawPipeline
    from repro.jtrace import open_trace_streams

    from probes import MARKS

    manifest = _manifest(trace_dir)
    MARKS.clear()
    started = _PC()
    traces = open_trace_streams(trace_dir)
    if tracer is not None:
        tracer.sample_threads()
    report = JigsawPipeline().run(
        traces,
        clock_groups=manifest["clock_groups"],
        passes=passes,
        materialize=materialize,
    )
    wall = _PC() - started
    if tracer is not None:
        tracer.sample_threads()
    for trace in traces:
        trace.close()
    _batch_checks(report, manifest)
    return report, wall, MARKS["first_jframe"] - started


def timed_batch(workload, trace_dir: Path, tracer=None) -> Dict[str, Any]:
    from probes import report_counts, report_fingerprint
    from workloads import workload_passes

    passes = workload_passes(workload)
    if tracer is not None:
        import tracing

        tracing.install(tracer, passes)
    gc_mode = _check_gc()
    before = hostspeed.sample()
    report, wall, first = _run_batch(
        trace_dir, workload.materialize, passes, tracer
    )
    after = hostspeed.sample()
    manifest = _manifest(trace_dir)
    result = {
        "wall_s": wall,
        "first_output_s": first,
        "probe_s": hostspeed.probe_s(before, after),
        "peak_rss_mb": _peak_rss_mb(),
        "records": report.unification.stats.records_in,
        "duration_us": manifest["duration_us"],
        "fingerprint": report_fingerprint(report),
        "counts": report_counts(report),
        "gc_mode": gc_mode,
    }
    if tracer is not None:
        import tracing

        stats = report.unification.stats
        result["layers"] = tracing.per_layer(
            tracer,
            {
                **_report_layers(report),
                "unify.jframes": stats.jframes,
                "unify.records_per_jframe": stats.events_per_jframe,
                "unify.records_skipped": stats.records_skipped_unsynchronized,
            },
        )
    return result


def _service_outcome(svc, feed_entries, manifest) -> Dict[str, Any]:
    from checks import digest, publish_lags_us
    from probes import report_counts, report_fingerprint, report_stats

    report = svc.report
    _batch_checks(report, manifest)
    lags = publish_lags_us(feed_entries, report.bootstrap.offsets_us)
    return {
        "fingerprint": report_fingerprint(report),
        "counts": report_counts(report),
        "stats": report_stats(report),
        "window_keys": digest(w.key for w in svc.published),
        "windows_published": len(svc.published),
        "publish_lag_ms": [lag / 1e3 for lag in lags],
    }


def timed_service(workload, trace_dir: Path, work_dir: Path, tracer=None) -> Dict[str, Any]:
    from repro.service import JigsawDaemon
    from repro.service.daemon import DEFAULT_CHECKPOINT_EVERY

    from probes import MARKS, PUBLICATIONS, FileFeed
    from workloads import workload_passes

    manifest = _manifest(trace_dir)
    groups = manifest["clock_groups"]
    radio_records = {int(r): n for r, n in manifest["radio_records"].items()}
    crash_at = manifest["records"] // 2
    cadence = workload.checkpoint_every or DEFAULT_CHECKPOINT_EVERY
    passes = workload_passes(workload)
    if tracer is not None:
        import tracing

        tracing.install(tracer, passes)
    ckpt_dir = work_dir / "checkpoint"
    if ckpt_dir.exists():
        shutil.rmtree(ckpt_dir)
    ckpt_dir.mkdir(parents=True)
    checkpoint = ckpt_dir / "service.ckpt"
    timed = tracer is not None
    gc_mode = _check_gc()
    MARKS.clear()

    before = hostspeed.sample()
    started = _PC()
    feed = FileFeed(trace_dir, groups, radio_records, timed=timed)
    if tracer is not None:
        tracer.sample_threads()
    PUBLICATIONS.reset(feed)
    daemon = JigsawDaemon(
        feed,
        passes=passes,
        materialize=workload.materialize,
        checkpoint_path=checkpoint,
        checkpoint_every=cadence,
    )
    if daemon.serve(stop_after_records=crash_at) is not None:
        raise AssertionError("the daemon finished before the planned crash")
    crashed_at = daemon.total_consumed
    feed_s = feed.feed_s
    feed.close()
    del daemon

    feed = FileFeed(trace_dir, groups, radio_records, timed=timed)
    restore_called = _PC()
    PUBLICATIONS.mark_restore(feed)
    restored = JigsawDaemon.restore(
        checkpoint,
        feed,
        checkpoint_every=cadence,
        materialize=workload.materialize,
    )
    svc = restored.serve()
    wall = _PC() - started
    after = hostspeed.sample()
    feed.close()
    feed_s += feed.feed_s
    if svc is None or not svc.resumed:
        raise AssertionError("the restored daemon did not finish")
    if PUBLICATIONS.first_after_restore is None:
        raise AssertionError("the restored daemon published no window")

    result = {
        "wall_s": wall,
        "first_output_s": MARKS["first_jframe"] - started,
        "restore_s": PUBLICATIONS.first_after_restore - restore_called,
        "probe_s": hostspeed.probe_s(before, after),
        "peak_rss_mb": _peak_rss_mb(),
        "records": svc.report.unification.stats.records_in,
        "duration_us": manifest["duration_us"],
        "crashed_at": crashed_at,
        "checkpoints_written": svc.checkpoints_written,
        "gc_mode": gc_mode,
        **_service_outcome(svc, PUBLICATIONS.entries, manifest),
    }
    if tracer is not None:
        import tracing
        from repro.service import load_checkpoint

        w = tracer.wall
        loop = w["service.serve"] - (
            feed_s
            + w["sync.bootstrap"]
            + w["drive.feed"]
            + w["drive.seal"]
            + w["drive.finish"]
            + w["service.checkpoint"]
        )
        last = load_checkpoint(checkpoint)
        result["layers"] = tracing.per_layer(
            tracer,
            {
                **_report_layers(svc.report),
                "jtrace.feed_s": feed_s,
                "service.loop_s": loop,
                "service.fifo_jframes": sum(len(f) for f in last.fifos),
                "service.windows_published": len(svc.published),
            },
        )
    return result


# --- references -------------------------------------------------------------


def reference(workload, trace_dir: Path) -> Dict[str, Any]:
    """What every timed run of this input is checked against."""
    from probes import PUBLICATIONS, report_counts, report_fingerprint, report_stats
    from workloads import workload_passes

    if workload.mode == "batch":
        report, _, _ = _run_batch(
            trace_dir, not workload.materialize, workload_passes(workload)
        )
        return {
            "fingerprint": report_fingerprint(report),
            "counts": report_counts(report),
        }

    from repro.service import JigsawDaemon

    from probes import FileFeed

    report, batch_wall, _ = _run_batch(
        trace_dir, workload.materialize, workload_passes(workload)
    )
    manifest = _manifest(trace_dir)
    feed = FileFeed(
        trace_dir,
        manifest["clock_groups"],
        {int(r): n for r, n in manifest["radio_records"].items()},
    )
    PUBLICATIONS.reset(feed)
    svc = JigsawDaemon(
        feed, passes=workload_passes(workload), materialize=workload.materialize
    ).serve()
    feed.close()
    outcome = _service_outcome(svc, PUBLICATIONS.entries, manifest)
    return {
        "fingerprint": report_fingerprint(report),
        "counts": report_counts(report),
        "stats": report_stats(report),
        "batch_equiv_s": batch_wall,
        "uninterrupted": outcome,
    }


def decode(trace_dir: Path) -> Dict[str, Any]:
    """Single-threaded drain of every file through ``iter_record_batches``."""
    from repro.jtrace.io import iter_record_batches

    paths = sorted(trace_dir.glob("radio_*.jtr.gz"))
    records = 0
    started = _PC()
    for path in paths:
        for batch in iter_record_batches(path):
            records += len(batch.records)
    return {
        "decode_s": _PC() - started,
        "records": records,
        "bytes_in": sum(p.stat().st_size for p in paths),
    }


def run_step(step: str, args, traced: bool = False, smoke: bool = False) -> Dict[str, Any]:
    from workloads import get_workload

    if step == "decode":
        return {"inputs": [decode(Path(d)) for d in args]}
    workload = get_workload(args[0], smoke=smoke)
    if step == "setup":
        return setup(workload, int(args[1]), Path(args[2]))
    if step == "reference":
        return {"inputs": [reference(workload, Path(d)) for d in args[1:]]}
    tracer = None
    if traced:
        import tracing

        tracer = tracing.Tracer()
    trace_dir, work_dir = Path(args[1]), Path(args[2])
    if workload.mode == "service":
        result = timed_service(workload, trace_dir, work_dir, tracer)
    else:
        result = timed_batch(workload, trace_dir, tracer)
    if tracer is not None:
        tracer.dump(work_dir / "spans.json")
    return result


def _die_with_parent() -> None:
    """Have the kernel kill this process when its parent exits (Linux)."""
    parent = os.getppid()
    try:
        ctypes.CDLL(None, use_errno=True).prctl(_PR_SET_PDEATHSIG, signal.SIGKILL)
    except (OSError, AttributeError):
        return
    if os.getppid() != parent:
        os._exit(1)


def serve() -> int:
    """Fork one child per request: a fresh process without the imports.

    Each line on standard input is a JSON request ``{"step", "args",
    "traced", "smoke", "out"}``.  This interpreter imports the program
    and then only forks: the child runs the step, writes its result to
    ``out`` and exits; this process answers with one line
    ``{"exit": <child's exit code>}``.  So every run still starts in a
    process that holds nothing but the imported modules (no simulation,
    no earlier run, default GC), without paying about half a second of
    imports each time.  The server dies with ``run.py`` and a child with
    the server, so killing either one leaves no process behind.
    """
    _die_with_parent()
    # Forking is safe here: this process runs no Python thread, and the
    # one native thread the imports start (numpy's BLAS pool) is stopped
    # and restarted around fork by the library's own atfork handlers.
    import repro.core  # noqa: F401
    import repro.core.analysis  # noqa: F401
    import repro.jtrace  # noqa: F401
    import repro.service  # noqa: F401

    import probes  # noqa: F401
    import workloads  # noqa: F401

    for line in sys.stdin:
        request = json.loads(line)
        pid = os.fork()
        if pid == 0:
            code = 1
            try:
                _die_with_parent()
                os.dup2(2, 1)  # standard output carries this server's replies
                result = run_step(
                    request["step"], request["args"],
                    request["traced"], request["smoke"],
                )
                Path(request["out"]).write_text(json.dumps(result))
                code = 0
            except Exception:
                traceback.print_exc()
            finally:
                sys.stdout.flush()
                sys.stderr.flush()
                os._exit(code)
        _, status = os.waitpid(pid, 0)
        sys.stdout.write(
            json.dumps({"exit": os.waitstatus_to_exitcode(status)}) + "\n"
        )
        sys.stdout.flush()
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "step", choices=("setup", "timed", "reference", "decode", "serve")
    )
    parser.add_argument("args", nargs="*")
    parser.add_argument("--traced", action="store_true")
    parser.add_argument("--smoke", action="store_true")
    opts = parser.parse_args(argv)
    if opts.step == "serve":
        return serve()
    result = run_step(opts.step, opts.args, opts.traced, opts.smoke)
    sys.stdout.write(json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
