"""Spans and counts around the calls into each layer's public objects.

:func:`install` wraps, in the current process only, the entry points a
run passes through — ``iter_record_batches``, ``ShardedBootstrap.bootstrap``,
iteration of ``Unifier.stream_unify``, the ``ReconstructionDrive``
assemblers and collector, ``TransportInference.run``, every registered
pass's hooks, the daemon's ``serve`` and its checkpoint codec — and
registers a ``gc.callbacks`` hook.  Nothing in the program is edited; the
wrappers sit on the classes and module attributes the program looks up.

Coarse boundaries (bootstrap, serve, checkpoint save/load, transport
inference, the end-of-stream flush) are kept as spans — name, parent,
start, end and main-thread CPU — and written out with the result.
Per-record boundaries (merge iteration, assembler feeds, pass hooks)
are summed in place so that tracing does not allocate per record.
A span's *wait* is its wall time minus the main thread's CPU time over
it (``time.thread_time``): time the caller spent blocked, not working.
"""

from __future__ import annotations

import gc
import itertools
import threading
import time
from collections import defaultdict
from pathlib import Path
from typing import Any, Callable, Dict, Iterable, List, Optional

_PC = time.perf_counter
_TT = time.thread_time


class Tracer:
    def __init__(self) -> None:
        self.wall: Dict[str, float] = defaultdict(float)
        self.cpu: Dict[str, float] = defaultdict(float)
        self.counts: Dict[str, int] = defaultdict(int)
        self.spans: List[Dict[str, Any]] = []
        self._stack: List[int] = []
        self.peak_threads = threading.active_count()
        self._threads_lock = threading.Lock()
        self.batches = itertools.count()
        self.gc_pauses: List[float] = []
        self._gc_started = 0.0
        self.origin = _PC()

    # --- coarse spans -------------------------------------------------------

    def call_span(self, name: str, fn: Callable, *args, **kwargs):
        """Run ``fn`` inside a span named ``name``; returns its result."""
        span_id = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self._stack.append(span_id)
        record: Dict[str, Any] = {"id": span_id, "name": name, "parent": parent}
        self.spans.append(record)
        started, cpu_started = _PC(), _TT()
        try:
            return fn(*args, **kwargs)
        finally:
            ended, cpu_ended = _PC(), _TT()
            self._stack.pop()
            record["start_s"] = started - self.origin
            record["end_s"] = ended - self.origin
            record["cpu_s"] = cpu_ended - cpu_started
            self.wall[name] += ended - started
            self.cpu[name] += cpu_ended - cpu_started
            self.sample_threads()

    def sample_threads(self) -> None:
        """Fold the live thread count into the peak (called from readers too)."""
        count = threading.active_count()
        with self._threads_lock:
            if count > self.peak_threads:
                self.peak_threads = count

    # --- gc -----------------------------------------------------------------

    def _on_gc(self, phase: str, info: Dict[str, Any]) -> None:
        if phase == "start":
            self._gc_started = _PC()
        else:
            self.gc_pauses.append(_PC() - self._gc_started)

    def wait(self, name: str) -> float:
        return max(0.0, self.wall[name] - self.cpu[name])

    def dump(self, path: Path) -> None:
        import json

        path.write_text(json.dumps({"spans": self.spans}, indent=0))


def _summed(tracer: Tracer, key: str, fn: Callable) -> Callable:
    wall = tracer.wall

    def wrapper(*args, **kwargs):
        started = _PC()
        try:
            return fn(*args, **kwargs)
        finally:
            wall[key] += _PC() - started

    wrapper.__wrapped__ = fn  # type: ignore[attr-defined]
    return wrapper


def _spanned(tracer: Tracer, key: str, fn: Callable) -> Callable:
    def wrapper(*args, **kwargs):
        return tracer.call_span(key, fn, *args, **kwargs)

    wrapper.__wrapped__ = fn  # type: ignore[attr-defined]
    return wrapper


class _TracedStream:
    """Proxy for a ``UnifyStream``: times each step of the merge."""

    def __init__(self, stream: Any, tracer: Tracer) -> None:
        self._stream = stream
        self._tracer = tracer

    def __getattr__(self, name: str) -> Any:
        return getattr(self._stream, name)

    def __iter__(self):
        tracer = self._tracer
        it = iter(self._stream)
        wall = cpu = 0.0
        n = 0
        try:
            while True:
                started, cpu_started = _PC(), _TT()
                try:
                    jframe = next(it)
                except StopIteration:
                    return
                finally:
                    wall += _PC() - started
                    cpu += _TT() - cpu_started
                n += 1
                if not n & 0xFFF:
                    tracer.sample_threads()
                yield jframe
        finally:
            tracer.wall["unify.merge"] += wall
            tracer.cpu["unify.merge"] += cpu


_PASS_HOOKS = ("on_jframe", "on_attempt", "on_exchange", "on_flow", "finish", "seal_ready")


def install(tracer: Tracer, passes: Iterable[Any]) -> None:
    """Wrap every layer boundary named in the module docstring."""
    import repro.jtrace.io as jio
    import repro.service.daemon as daemon_mod
    from repro.core.link.attempt import AttemptAssembler
    from repro.core.link.exchange import ExchangeAssembler
    from repro.core.passes import MaterializePass
    from repro.core.pipeline import ReconstructionDrive
    from repro.core.sync.sharded import ShardedBootstrap
    from repro.core.transport.flows import FlowCollector
    from repro.core.transport.inference import TransportInference
    from repro.core.unify.unifier import Unifier
    from repro.service.daemon import JigsawDaemon

    original_batches = jio.iter_record_batches
    counter = tracer.batches

    def iter_record_batches(*args, **kwargs):
        # Runs in the decode-ahead reader threads: count the batch and
        # sample the thread count while the readers are alive.
        for batch in original_batches(*args, **kwargs):
            next(counter)
            tracer.sample_threads()
            yield batch

    jio.iter_record_batches = iter_record_batches

    ShardedBootstrap.bootstrap = _spanned(
        tracer, "sync.bootstrap", ShardedBootstrap.bootstrap
    )

    original_stream = Unifier.stream_unify

    def stream_unify(self, traces, bootstrap):
        return _TracedStream(original_stream(self, traces, bootstrap), tracer)

    Unifier.stream_unify = stream_unify

    for cls, key in (
        (AttemptAssembler, "link.attempt"),
        (ExchangeAssembler, "link.exchange"),
        (FlowCollector, "transport.flows"),
    ):
        cls.feed = _summed(tracer, key, cls.feed)
        cls.finish = _summed(tracer, key, cls.finish)
    TransportInference.run = _spanned(
        tracer, "transport.inference", TransportInference.run
    )
    ReconstructionDrive.feed = _summed(
        tracer, "drive.feed", ReconstructionDrive.feed
    )
    ReconstructionDrive.seal_ready = _summed(
        tracer, "drive.seal", ReconstructionDrive.seal_ready
    )
    ReconstructionDrive.finish_streams = _spanned(
        tracer, "drive.finish", ReconstructionDrive.finish_streams
    )

    for cls in {type(p) for p in passes} | {MaterializePass}:
        if cls.name == "bench_fingerprint":
            continue
        for hook in _PASS_HOOKS:
            setattr(
                cls, hook,
                _summed(tracer, f"analysis.{cls.name}", getattr(cls, hook)),
            )

    original_save = daemon_mod.save_checkpoint

    def save_checkpoint(path, state):
        tracer.call_span("service.checkpoint", original_save, path, state)
        tracer.counts["service.checkpoints"] += 1
        tracer.counts["service.checkpoint_bytes"] += Path(path).stat().st_size

    daemon_mod.save_checkpoint = save_checkpoint
    daemon_mod.load_checkpoint = _spanned(
        tracer, "service.restore_load", daemon_mod.load_checkpoint
    )
    JigsawDaemon.serve = _spanned(tracer, "service.serve", JigsawDaemon.serve)

    gc.callbacks.append(tracer._on_gc)


def per_layer(tracer: Tracer, extra: Optional[Dict[str, float]] = None) -> Dict[str, float]:
    """Fold the tracer's totals into the named per-layer metrics."""
    w, c = tracer.wall, tracer.counts
    out: Dict[str, float] = {
        "sync.bootstrap_s": w["sync.bootstrap"],
        "sync.bootstrap_wait_s": tracer.wait("sync.bootstrap"),
        "unify.merge_s": w["unify.merge"],
        "unify.merge_wait_s": tracer.wait("unify.merge"),
        "link.attempt_s": w["link.attempt"],
        "link.exchange_s": w["link.exchange"],
        "transport.flows_s": w["transport.flows"],
        "transport.inference_s": w["transport.inference"],
        "service.checkpoint_s": w["service.checkpoint"],
        "service.checkpoints": c["service.checkpoints"],
        "service.checkpoint_bytes": (
            c["service.checkpoint_bytes"] / c["service.checkpoints"]
            if c["service.checkpoints"] else 0
        ),
        "service.restore_load_s": w["service.restore_load"],
        "jtrace.reader_threads": tracer.peak_threads,
        "jtrace.batches": next(tracer.batches),
        "gc.pause_s": sum(tracer.gc_pauses),
        "gc.pause_max_ms": 1e3 * max(tracer.gc_pauses, default=0.0),
        "gc.collections": len(tracer.gc_pauses),
    }
    for key, value in w.items():
        if key.startswith("analysis."):
            out[f"{key}_s"] = value
    if extra:
        out.update(extra)
    return out
