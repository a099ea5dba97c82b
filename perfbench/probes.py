"""Benchmark-owned observers run inside the worker processes: the
fingerprint pass, the per-radio file feed and the probed windowed passes.

Nothing here changes what the program computes.  The fingerprint pass
only reads jframes; the probed windowed passes inherit every hook from
the shipped passes and only note, in a process-local log, when a window
is sealed; the file feed hands the daemon the records of the on-disk
trace files, one at a time, in the order it asks for them.
"""

from __future__ import annotations

import dataclasses
import struct
import time
import zlib
from pathlib import Path
from typing import Dict, List, Optional, Set, Tuple

from checks import fingerprint
from repro.core.passes import PipelinePass
from repro.core.unify.jframe import JFrameKind
from repro.jtrace import open_trace_streams
from repro.service.windows import (
    WindowedInterferencePass,
    WindowedLossPass,
    WindowedSummaryPass,
)

#: Wall-clock marks of the current run.  Process-local on purpose: pass
#: instances are pickled into checkpoints and come back as new objects,
#: so what must survive a restore in the same process cannot live on them.
MARKS: Dict[str, float] = {}

_KIND_CODE = {JFrameKind.VALID: 0, JFrameKind.CORRUPT: 1, JFrameKind.PHY_ERROR: 2}
_JFRAME = struct.Struct("<qBiq")


class FingerprintPass(PipelinePass):
    """Folds every jframe's ``(timestamp_us, kind, channel, fcs)`` into a CRC.

    The running CRC is a plain int, so the pass checkpoints with the
    daemon like any shipped pass.  The first jframe it sees stamps
    ``MARKS["first_jframe"]``: the moment analysis could first start.
    """

    name = "bench_fingerprint"

    def __init__(self) -> None:
        self.crc = 0
        self.count = 0

    def on_jframe(self, jframe) -> None:
        if not self.count:
            MARKS.setdefault("first_jframe", time.perf_counter())
        self.count += 1
        self.crc = zlib.crc32(
            _JFRAME.pack(
                jframe.timestamp_us,
                _KIND_CODE[jframe.kind],
                jframe.channel,
                jframe.fcs,
            ),
            self.crc,
        )

    def finish(self, context) -> Dict[str, int]:
        return {"crc": self.crc, "jframes": self.count}


def report_counts(report) -> Dict[str, int]:
    """The counts the fingerprint covers, read from a finished report."""
    return {
        "records": report.unification.stats.records_in,
        "jframes": report.unification.stats.jframes,
        "attempts": report.attempt_stats.attempts,
        "exchanges": report.exchange_stats.exchanges,
        "flows": len(report.flows),
    }


def report_stats(report) -> Dict[str, Dict[str, int]]:
    """Every per-layer statistics record of a finished report."""
    return {
        "unify": dataclasses.asdict(report.unification.stats),
        "attempt": dataclasses.asdict(report.attempt_stats),
        "exchange": dataclasses.asdict(report.exchange_stats),
        "transport": dataclasses.asdict(report.transport_stats),
    }


def report_fingerprint(report) -> str:
    result = report.passes[FingerprintPass.name]
    if result["jframes"] != report.unification.stats.jframes:
        raise AssertionError(
            f"fingerprint pass saw {result['jframes']} jframes, the "
            f"report counts {report.unification.stats.jframes}"
        )
    return fingerprint(result["crc"], report_counts(report))


# --- the service feed and the publication log ---------------------------------------


class FileFeed:
    """A per-radio record cursor over on-disk trace files (daemon feed).

    Implements the daemon's feed protocol — ``traces``,
    ``clock_groups()``, ``next_record``, ``consumed()`` and ``seek()`` —
    over :func:`repro.jtrace.open_trace_streams`, so the daemon decodes
    the same files the batch pipeline does.  It remembers the local
    timestamp of the newest record handed to each radio and, from the
    per-radio record counts of the set-up manifest, which radios have
    been handed their last record: what the publish-lag metric reads.
    Both are functions of the consumed counts alone, so a feed that was
    ``seek``-ed after a restore reports what the crashed one did.  With
    ``timed`` set it also accumulates the wall time spent in
    :meth:`next_record`.
    """

    def __init__(
        self,
        directory: Path,
        clock_groups: List[List[int]],
        radio_records: Dict[int, int],
        timed: bool = False,
    ) -> None:
        self.traces = open_trace_streams(directory)
        self._groups = [list(g) for g in clock_groups]
        self._by_radio = {t.radio_id: t for t in self.traces}
        self._cursor = {rid: 0 for rid in self._by_radio}
        self._totals = dict(radio_records)
        self.newest: Dict[int, int] = {}
        self.feed_s = 0.0
        if timed:
            self.next_record = self._timed_next_record  # type: ignore[method-assign]

    def clock_groups(self) -> List[List[int]]:
        return [list(g) for g in self._groups]

    def consumed(self) -> Dict[int, int]:
        return dict(self._cursor)

    def done(self) -> Set[int]:
        """Radios that have been handed every record they have."""
        totals = self._totals
        return {r for r, n in self._cursor.items() if n >= totals[r]}

    def seek(self, consumed: Dict[int, int]) -> None:
        for radio_id, count in consumed.items():
            self._cursor[radio_id] = count
            if count:
                trace = self._by_radio[radio_id]
                trace.ensure_index(count - 1)
                self.newest[radio_id] = trace.replay_buffer[count - 1].timestamp_us

    def next_record(self, radio_id: int):
        trace = self._by_radio[radio_id]
        index = self._cursor[radio_id]
        if not trace.ensure_index(index):
            return None
        self._cursor[radio_id] = index + 1
        record = trace.replay_buffer[index]
        self.newest[radio_id] = record.timestamp_us
        return record

    def _timed_next_record(self, radio_id: int):
        started = time.perf_counter()
        try:
            return FileFeed.next_record(self, radio_id)
        finally:
            self.feed_s += time.perf_counter() - started

    def close(self) -> None:
        for trace in self.traces:
            trace.close()


class PublicationLog:
    """What the daemon published, when, and how far its feed had got.

    Each first publication of a ``(pass, window)`` key is logged as
    ``(window_end_us, newest, done)``: the window's end on the universal
    timeline, the newest local timestamp handed to each radio, and the
    radios that had been handed their last record.  Re-publications after a restore are
    not first publications and are skipped.  ``first_after_restore``
    is the wall time of the first seal after :meth:`mark_restore`.
    """

    def __init__(self) -> None:
        self.reset(None)

    def reset(self, feed: Optional[FileFeed]) -> None:
        """Start a new daemon run reading ``feed``."""
        self.feed = feed
        self.entries: List[Tuple[int, Dict[int, int], Set[int]]] = []
        self.keys: Set[Tuple[str, int]] = set()
        self.restore_marked = False
        self.first_after_restore: Optional[float] = None

    def mark_restore(self, feed: FileFeed) -> None:
        self.feed = feed
        self.restore_marked = True
        self.first_after_restore = None

    def record(self, sealed) -> None:
        if self.restore_marked and self.first_after_restore is None:
            self.first_after_restore = time.perf_counter()
        feed = self.feed
        if feed is None:
            return
        snapshot = None
        for window in sealed:
            if window.key in self.keys:
                continue
            self.keys.add(window.key)
            if snapshot is None:
                snapshot = (dict(feed.newest), feed.done())
            self.entries.append((window.end_us, *snapshot))


#: The log the probed passes report to (process-local, like ``MARKS``).
PUBLICATIONS = PublicationLog()


class _Probed:
    """Mixin: log each seal with :data:`PUBLICATIONS`, change nothing else."""

    def seal_ready(self, watermark_us: float):
        sealed = super().seal_ready(watermark_us)  # type: ignore[misc]
        if sealed:
            PUBLICATIONS.record(sealed)
        return sealed


class ProbedSummaryPass(_Probed, WindowedSummaryPass):
    pass


class ProbedLossPass(_Probed, WindowedLossPass):
    pass


class ProbedInterferencePass(_Probed, WindowedInterferencePass):
    pass
