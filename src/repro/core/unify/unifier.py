"""Frame unification with continual resynchronization (Section 4.2).

The unifier consumes all radio traces through "a single priority queue
sorted by time with the earliest instance from each trace", groups
instances into jframes by content within a search window, timestamps each
jframe with "the median instance timestamp", and uses every unified unique
frame to resynchronize the contributing radios' clocks — gated on the
group dispersion threshold, with EWMA skew/drift compensation applied
proactively to every subsequent timestamp.

Grouping is implemented with an open-group index (content key -> group)
instead of literal pop-and-push-back, which gives identical grouping
decisions in O(n log n) — each record is pushed and popped exactly once —
satisfying the paper's requirement that merging "execute faster than
real-time ... in a single pass over the data".

Architecture: one engine, two drivers
-------------------------------------

Content keys, open-group queues and clock tracks are all channel-local: a
frame on channel 1 can never group with — or resynchronize against — a
record captured on channel 11.  :func:`partition_traces` therefore splits
the traces into independent *shards* (channel components, further split
by building when every trace carries a ``building_id`` stamp), and one
:class:`_MergeEngine` merges each shard.  The engine owns the single
placement routine (:meth:`_MergeEngine._place`) and finalization; two
drivers feed it records in the same order:

* the **batch driver**, :meth:`_MergeEngine.run`, behind
  :meth:`Unifier.stream_unify` — a generator pulling records through
  per-trace cursors.  Inside a shard, finalization lags arrival by at
  most the search window, so a small bounded reorder heap (rather than
  an end-of-run sort) yields incrementally ordered output, and
  :func:`merge_shard_streams` k-way merges the shard streams by
  timestamp.  :meth:`Unifier.unify` drains the stream into a
  :class:`UnificationResult`;
* the **live driver**, :class:`LiveMergeShard`, used by the service
  daemon — the same heap held in plain attributes, stepped one record
  at a time so it pickles into checkpoints.

Everything runs serially in one process: the merge is a single pass,
and the shards are a locality structure, not a parallelism one.  Batch,
streaming and live unification produce jframe-for-jframe identical
output (``tests/test_streaming_equivalence.py`` and
``tests/test_service_parity.py`` hold this property).
"""

from __future__ import annotations

import heapq
import itertools
from collections import defaultdict, deque
from dataclasses import dataclass, fields
from typing import (
    Callable,
    Dict,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
    cast,
)

from ...dot11.address import MacAddress
from ...dot11.frame import Frame
from ...dot11.serialize import transmitter_from_corrupt_bytes
from ...jtrace.io import RadioTrace
from ...jtrace.records import RecordKind, TraceRecord
from ..sync.bootstrap import BootstrapResult
from ..sync.refs import _PARSE_CACHE, ReferenceKey, parse_record_frame
from ..sync.skew import ClockTrack
from .jframe import Instance, JFrame, JFrameKind

#: Paper defaults: 10 ms search window, 10 us resync threshold.
DEFAULT_SEARCH_WINDOW_US = 10_000
DEFAULT_RESYNC_THRESHOLD_US = 10.0

#: Attachment windows for content-less instances (corrupt/PHY-error).
DEFAULT_CORRUPT_ATTACH_US = 120.0
DEFAULT_PHY_ATTACH_US = 60.0

_INF = float("inf")
_KIND_VALID = RecordKind.VALID
_KIND_CORRUPT = RecordKind.CORRUPT
_new_instance = Instance.__new__


@dataclass
class UnifyStats:
    """Counters describing one unification run (Table 1 inputs)."""

    records_in: int = 0
    records_skipped_unsynchronized: int = 0
    jframes: int = 0
    valid_jframes: int = 0
    corrupt_jframes: int = 0
    phy_error_jframes: int = 0
    instances_unified: int = 0
    resyncs: int = 0

    @property
    def events_per_jframe(self) -> float:
        if self.jframes == 0:
            return 0.0
        return self.instances_unified / self.jframes

    def merge(self, other: "UnifyStats") -> None:
        """Fold another shard's counters into this one."""
        for f in fields(self):
            setattr(self, f.name, getattr(self, f.name) + getattr(other, f.name))


@dataclass
class UnificationResult:
    jframes: List[JFrame]
    tracks: Dict[int, ClockTrack]
    stats: UnifyStats

    def dispersions_us(self, min_instances: int = 2) -> List[float]:
        """Group dispersion samples (Figure 4's population)."""
        return [
            jf.dispersion_us
            for jf in self.jframes
            if jf.n_instances >= min_instances
        ]


class _Group:
    """An open (not yet finalized) jframe under construction."""

    __slots__ = (
        "first_universal",
        "channel",
        "key",
        "instances",
        "rep_record",
        "rep_frame",
        "transmitter",
        "radios",
    )

    def __init__(
        self,
        instance: Instance,
        channel: int,
        key: Optional[ReferenceKey],
        rep_record: Optional[TraceRecord],
        rep_frame: Optional[Frame],
        transmitter: Optional[MacAddress],
    ) -> None:
        self.first_universal = instance.universal_us
        self.channel = channel
        self.key = key
        self.instances = [instance]
        self.rep_record = rep_record
        self.rep_frame = rep_frame
        self.transmitter = transmitter
        self.radios = {instance.radio_id}


def trace_locality(trace: RadioTrace) -> Optional[int]:
    """The trace's locality key for merge sharding.

    Campus-scale captures stamp each trace with the building its radio is
    mounted in (``building_id`` — written by the simulator's campus
    composition and by the trace-file metadata sidecar).  Radios in
    different buildings are RF-isolated: no transmission is audible in
    two buildings, so their records can never legitimately share a
    jframe, and the merge may shard by (building, channel) instead of by
    channel alone.  Legacy traces carry no stamp and return ``None``.
    """
    return getattr(trace, "building_id", None)


def partition_traces(
    traces: Sequence[RadioTrace],
    locality: Callable[[RadioTrace], Optional[int]] = trace_locality,
) -> List[List[RadioTrace]]:
    """Partition traces into independent merge shards.

    Two traces land in the same shard iff they share (transitively) any
    channel among their records *within the same locality* — the exact
    condition under which their records could interact during
    unification.  Locality comes from ``locality(trace)`` (the
    ``building_id`` metadata stamp by default); if **any** trace lacks a
    locality key the whole input falls back to channel-only sharding, so
    legacy inputs — and mixed fleets where the stamp cannot be trusted —
    behave exactly as before.  Shards are ordered by (locality, smallest
    channel), one deterministic global order the batch and live drivers
    enumerate identically; with a single locality this reduces to the
    historical smallest-channel order.
    """
    keys = [locality(t) for t in traces]
    if traces and all(k is not None for k in keys):
        shards: List[List[RadioTrace]] = []
        by_key: Dict[int, List[RadioTrace]] = defaultdict(list)
        for key, trace in zip(keys, traces):
            by_key[cast(int, key)].append(trace)
        for key in sorted(by_key):
            shards.extend(_partition_by_channel(by_key[key]))
        return shards
    return _partition_by_channel(traces)


def _partition_by_channel(
    traces: Sequence[RadioTrace],
) -> List[List[RadioTrace]]:
    """Channel-component shards (ordered by smallest channel)."""
    # Union-find over channels.
    parent: Dict[int, int] = {}

    def find(c: int) -> int:
        root = c
        while parent[root] != root:
            root = parent[root]
        while parent[c] != root:
            parent[c], c = root, parent[c]
        return root

    trace_channels: List[frozenset] = []
    for trace in traces:
        channels = {trace.channel}
        declared = getattr(trace, "channel_set", None)
        if declared is not None:
            # File-backed streams carry the writer's channel index in the
            # metadata sidecar; partitioning off it keeps the partition a
            # metadata-only pass instead of forcing a full decode before
            # the merge can even start.
            channels.update(declared)
        else:
            channels.update(r.channel for r in trace.records)
        trace_channels.append(frozenset(channels))
        # Union-by-min makes the final roots order-independent, but the
        # sorted walk keeps every intermediate parent table identical
        # across runs too — the structure is deterministic by inspection,
        # not by argument.
        first = min(channels)
        for c in sorted(channels):
            parent.setdefault(c, c)
            ra, rb = find(first), find(c)
            if ra != rb:
                parent[max(ra, rb)] = min(ra, rb)

    shards: Dict[int, List[RadioTrace]] = defaultdict(list)
    for trace, channels in zip(traces, trace_channels):
        shards[find(min(channels))].append(trace)
    return [shards[root] for root in sorted(shards)]


class _TraceCursor:
    """Incremental record access for the merge hot loop.

    Materialized traces index their record list directly.  Streaming
    traces decode on demand through
    :meth:`~repro.jtrace.io.StreamingRadioTrace.ensure_index`, so the
    merge pulls batches as its heap advances instead of draining every
    trace before the first jframe — the seam that lets decode-ahead
    reader threads overlap decoding with the merge.

    ``counted`` tracks whether this cursor's records have been added to
    ``records_in`` yet: materialized traces are counted up front (their
    length is free), streaming traces at exhaustion (their length is
    only known once decoded).
    """

    __slots__ = ("buffer", "ensure", "counted")

    def __init__(self, trace: RadioTrace) -> None:
        ensure = getattr(trace, "ensure_index", None)
        if ensure is None:
            self.buffer: List[TraceRecord] = trace.records
            self.ensure = None
            self.counted = True
        else:
            self.buffer = trace.replay_buffer
            self.ensure = ensure
            self.counted = False

    def get(self, index: int) -> Optional[TraceRecord]:
        buffer = self.buffer
        if index < len(buffer):
            return buffer[index]
        if self.ensure is not None and self.ensure(index):
            return buffer[index]
        return None

    def drained_length(self) -> int:
        """Total record count, decoding the remainder if necessary."""
        if self.ensure is not None:
            index = len(self.buffer)
            while self.ensure(index):
                index = len(self.buffer)
        return len(self.buffer)


class _MergeEngine:
    """Merges one shard's records into time-ordered jframes.

    The engine owns the open-group state, the clock tracks and the one
    placement routine, :meth:`_place`.  Two drivers feed it records in
    the same order:

    * :meth:`run`, the batch driver: a generator that pulls records
      through :class:`_TraceCursor` heaps as the merge clock reaches
      them, so decode and merge overlap instead of serializing;
    * :class:`LiveMergeShard`, the live driver: the same heap held in
      plain attributes and stepped one record at a time, so it pickles
      into service checkpoints.

    Groups are finalized when the merge clock passes their search-window
    deadline and emitted through a small reorder heap once no
    later-finalized group can precede them.  The emission watermark
    trails the merge clock by twice the search window plus the larger
    attachment window, which dominates both the window lag itself and
    any jitter introduced by resynchronization corrections.
    """

    def __init__(
        self,
        unifier: "Unifier",
        traces: Sequence[RadioTrace],
        bootstrap: BootstrapResult,
    ) -> None:
        self._init_state(unifier)
        self._cursors: Dict[int, _TraceCursor] = {}
        offsets = bootstrap.offsets_us
        for trace in traces:
            offset = offsets.get(trace.radio_id)
            if offset is None:
                # Quarantined radios contribute nothing; their length is
                # needed for the ledger, which drains them here exactly
                # as the materializing engine did.
                skipped = len(trace)
                self.stats.records_in += skipped
                self.stats.records_skipped_unsynchronized += skipped
                continue
            displaced = self._cursors.get(trace.radio_id)
            if displaced is not None and not displaced.counted:
                # Duplicate radio id: the later trace wins (dict
                # semantics, unchanged), but the displaced records still
                # count as engine input like they always did.
                displaced.counted = True
                self.stats.records_in += displaced.drained_length()
            self._add_track(trace.radio_id, offset)
            cursor = _TraceCursor(trace)
            if cursor.counted:
                self.stats.records_in += len(cursor.buffer)
            self._cursors[trace.radio_id] = cursor

    def _init_state(self, unifier: "Unifier") -> None:
        """The merge state both drivers share (everything but the heap)."""
        self.unifier = unifier
        self.stats = UnifyStats()
        self.tracks: Dict[int, ClockTrack] = {}
        # Open-group state (channel-local by construction of the shard).
        self.open_by_key: Dict[ReferenceKey, _Group] = {}
        self.open_by_channel: Dict[int, deque] = defaultdict(deque)
        self.open_order: deque = deque()
        #: Emission watermark: every jframe with ``timestamp_us`` at or
        #: below this has been emitted.  Advances with the reorder-heap
        #: drain; ``inf`` once the shard is fully drained.
        self.watermark_us: float = -_INF
        # Emission lag: a future-finalized group's timestamp can precede
        # the merge clock by (search window + attachment window + resync
        # jitter).  The attachment windows enter explicitly so the bound
        # holds even when the search window is configured smaller than
        # them; the extra search window of slack dominates resync
        # corrections (instance-gap scale, which itself scales with the
        # window).
        self._emit_lag = 2.0 * unifier.search_window_us + max(
            unifier.corrupt_attach_us, unifier.phy_attach_us
        )
        # Placement thresholds, bound once: _place reads them per record.
        self._gap_limit = unifier.instance_gap_us
        self._corrupt_attach = unifier.corrupt_attach_us
        self._phy_attach = unifier.phy_attach_us

    def _add_track(self, radio_id: int, offset_us: float) -> None:
        unifier = self.unifier
        self.tracks[radio_id] = ClockTrack(
            radio_id=radio_id,
            offset_us=offset_us,
            alpha=unifier.skew_alpha,
            compensate_skew=unifier.compensate_skew,
        )

    # --- the batch driver --------------------------------------------------

    def run(self) -> Iterator[JFrame]:
        """Yield this shard's jframes in (timestamp, finalization) order."""
        tracks = self.tracks
        cursors = self._cursors
        stats = self.stats
        search_window = self.unifier.search_window_us
        emit_lag = self._emit_lag
        finalize_stale = self._finalize_stale
        place = self._place
        heappush, heappop = heapq.heappush, heapq.heappop

        # One entry per radio: (est universal, tiebreak, radio, record,
        # next index, track generation at push time, track, cursor).  The
        # generation lets the pop skip recomputing ``universal_us`` when
        # no resync touched the track since the push — the common case by
        # far.  The trailing track/cursor references sit past the unique
        # tiebreak, so tuple comparison never reaches them; carrying them
        # in the entry saves two per-record dict lookups.
        heap: List[tuple] = []
        counter = itertools.count()
        for radio_id, cursor in cursors.items():
            first = cursor.get(0)
            if first is not None:
                track = tracks[radio_id]
                heappush(
                    heap,
                    (
                        track.universal_us(first.timestamp_us),
                        next(counter),
                        radio_id,
                        first,
                        1,
                        track.generation,
                        track,
                        cursor,
                    ),
                )
            elif not cursor.counted:
                cursor.counted = True

        #: Finalized jframes awaiting ordered emission: (ts, seq, jframe).
        reorder: List[Tuple[int, int, JFrame]] = []
        #: Merge clock at which the oldest open group goes stale.
        oldest_deadline = _INF

        while heap:
            est, _, radio_id, record, idx, gen, track, cursor = heappop(heap)
            # _TraceCursor.get, inlined: one attribute walk per record
            # beats a method call at building scale.
            buffer = cursor.buffer
            if idx < len(buffer):
                nxt = buffer[idx]
            else:
                ensure = cursor.ensure
                if ensure is not None and ensure(idx):
                    nxt = buffer[idx]
                else:
                    nxt = None
            if nxt is not None:
                # ClockTrack.universal_us, inlined verbatim (the resync
                # paths still go through the method): one method call per
                # record is real money at 1.5M records.
                local = nxt.timestamp_us
                heappush(
                    heap,
                    (
                        local
                        + track.offset_us
                        + (
                            track.skew_ppm * 1e-6 * (local - track.anchor_local_us)
                            if track.compensate_skew
                            else 0.0
                        ),
                        next(counter),
                        radio_id,
                        nxt,
                        idx + 1,
                        track.generation,
                        track,
                        cursor,
                    ),
                )
            elif not cursor.counted:
                cursor.counted = True
                stats.records_in += idx
            # Recompute with the current (possibly resynced) track state;
            # skip when the push-time estimate is still exact.
            if gen == track.generation:
                universal = est
            else:
                universal = track.universal_us(record.timestamp_us)

            if universal > oldest_deadline:
                oldest_deadline = finalize_stale(universal, reorder)
                bound = universal - emit_lag
                if bound > self.watermark_us:
                    self.watermark_us = bound
                while reorder and reorder[0][0] <= bound:
                    yield heappop(reorder)[2]

            if place(radio_id, record, universal) and oldest_deadline == _INF:
                oldest_deadline = universal + search_window

        self._finalize_stale(_INF, reorder)
        while reorder:
            yield heappop(reorder)[2]
        self.watermark_us = _INF

    # --- placement ---------------------------------------------------------

    def _place(
        self, radio_id: int, record: TraceRecord, universal: float
    ) -> bool:
        """Put one record's instance into an open group, or open one.

        Valid captures join the open group with the same content key.
        Failing that, every kind scans the open groups on its channel
        for the nearest one within its attachment window: corrupt
        captures "simply match on the transmitter's address field" when
        it is readable and fall back to temporal proximity; PHY errors
        match on proximity alone; a valid capture adopts only a
        headless group (one opened by a corrupt or PHY-error
        observation of the same transmission).  Returns True when the
        record opened a new group, so the driver can arm the staleness
        deadline.
        """
        kind = record.kind
        if kind is _KIND_VALID:
            # parse_record_frame's hit path, inlined: a valid record
            # always satisfies its kind/snap preconditions, so a bare
            # cache probe replaces the call for the common repeat
            # (control frames and duplicate receptions).
            frame = _PARSE_CACHE.get((record.snap, record.frame_len), False)
            if frame is False:
                frame = parse_record_frame(record)
        else:
            frame = None
        # Instance(...), with the dataclass-__init__ call layer peeled
        # off: five slot stores per record.
        instance = _new_instance(Instance)
        instance.radio_id = radio_id
        instance.local_us = record.timestamp_us
        instance.universal_us = universal
        instance.record = record
        instance.frame = frame

        channel = record.channel
        if kind is _KIND_VALID:
            key: Optional[ReferenceKey] = (
                channel, record.frame_len, record.fcs, record.snap
            )
            group = self.open_by_key.get(key)
            if (
                group is not None
                and radio_id not in group.radios
                and universal - group.first_universal <= self._gap_limit
            ):
                group.instances.append(instance)
                group.radios.add(radio_id)
                return False
            # CTS-to-self carries the sender in RA; a plain receiver
            # cannot know which it is, so RA doubles as the hint.
            transmitter = (
                (frame.transmitter or frame.addr1)
                if frame is not None else None
            )
            window = self._corrupt_attach
            match = None
        elif kind is _KIND_CORRUPT:
            key = None
            transmitter = match = transmitter_from_corrupt_bytes(record.snap)
            window = self._corrupt_attach
        else:  # PHY_ERROR
            key = transmitter = match = None
            window = self._phy_attach

        groups = self.open_by_channel[channel]
        best: Optional[_Group] = None
        best_gap = window
        for candidate in reversed(groups):
            gap = universal - candidate.first_universal
            if gap > window:
                break  # creation order: older ones only further away
            if gap < 0.0:
                gap = -gap
                if gap > window:
                    continue
            if radio_id in candidate.radios:
                continue
            if key is not None and candidate.rep_record is not None:
                continue
            if (
                match is not None
                and candidate.transmitter is not None
                and match != candidate.transmitter
            ):
                continue
            if gap <= best_gap:
                best = candidate
                best_gap = gap

        if best is not None:
            best.instances.append(instance)
            best.radios.add(radio_id)
            if key is not None:
                best.key = key
                best.rep_record = record
                best.rep_frame = frame
                best.transmitter = transmitter
                self.open_by_key[key] = best
            return False
        group = _Group(
            instance,
            channel,
            key,
            record if key is not None else None,
            frame,
            transmitter,
        )
        if key is not None:
            self.open_by_key[key] = group
        groups.append(group)
        self.open_order.append(group)
        return True

    # --- finalization ------------------------------------------------------

    def _finalize_stale(
        self,
        now_universal: float,
        reorder: List[Tuple[int, int, JFrame]],
    ) -> float:
        """Finalize groups older than the search window.

        Returns the merge-clock deadline at which the (new) oldest open
        group goes stale, so the drivers can gate on a float compare.
        """
        open_order = self.open_order
        open_by_channel = self.open_by_channel
        open_by_key = self.open_by_key
        window = self.unifier.search_window_us
        stats = self.stats
        while open_order and (
            now_universal - open_order[0].first_universal > window
        ):
            group = open_order.popleft()
            channel_queue = open_by_channel[group.channel]
            if channel_queue and channel_queue[0] is group:
                channel_queue.popleft()
            else:  # rare: out-of-order creation across channels
                try:
                    channel_queue.remove(group)
                except ValueError:
                    pass
            if group.key is not None and open_by_key.get(group.key) is group:
                del open_by_key[group.key]
            jframe = self._finalize(group)
            heapq.heappush(
                reorder, (jframe.timestamp_us, stats.jframes, jframe)
            )
        if open_order:
            return open_order[0].first_universal + window
        return _INF

    def _finalize(self, group: _Group) -> JFrame:
        unifier = self.unifier
        stats = self.stats
        # Timing (median, dispersion, resync) uses only FCS-good instances:
        # corrupt and PHY-error attachments identify *which* radios saw the
        # event but their timestamps are not synchronization-grade.
        kind_valid = RecordKind.VALID
        instances = group.instances
        timing_instances = [
            inst for inst in instances if inst.record.kind is kind_valid
        ] or instances
        n_timing = len(timing_instances)
        if n_timing == 1:
            timestamp = timing_instances[0].universal_us
            dispersion = 0.0
        else:
            times = sorted(inst.universal_us for inst in timing_instances)
            mid = n_timing // 2
            if unifier.use_median_timestamp:
                if n_timing % 2:
                    timestamp = times[mid]
                else:
                    timestamp = 0.5 * (times[mid - 1] + times[mid])
            else:
                timestamp = sum(times) / n_timing
            dispersion = times[-1] - times[0]

        rep = group.rep_record
        if rep is not None:
            kind = JFrameKind.VALID
            frame = group.rep_frame
            frame_len, fcs, rate = rep.frame_len, rep.fcs, rep.rate_mbps
            duration = rep.duration_us
        else:
            frame = None
            any_record = instances[0].record
            if any(
                inst.record.kind is RecordKind.CORRUPT for inst in instances
            ):
                kind = JFrameKind.CORRUPT
            else:
                kind = JFrameKind.PHY_ERROR
            frame_len, fcs, rate = (
                any_record.frame_len,
                any_record.fcs,
                any_record.rate_mbps,
            )
            duration = any_record.duration_us

        # Resynchronize contributing clocks — unique frames only, gated on
        # the dispersion threshold (Section 4.2's accuracy/overhead trade).
        rep_frame = group.rep_frame
        if (
            rep is not None
            and rep_frame is not None
            and n_timing >= 2
            and dispersion >= unifier.resync_threshold_us
            and rep_frame.ftype.carries_sequence
            and not rep_frame.retry
        ):
            tracks = self.tracks
            for inst in timing_instances:
                track = tracks.get(inst.radio_id)
                if track is not None:
                    track.resync(inst.local_us, timestamp)
                    stats.resyncs += 1

        stats.jframes += 1
        stats.instances_unified += len(instances)
        if kind is JFrameKind.VALID:
            stats.valid_jframes += 1
        elif kind is JFrameKind.CORRUPT:
            stats.corrupt_jframes += 1
        else:
            stats.phy_error_jframes += 1

        return JFrame(
            timestamp_us=int(round(timestamp)),
            kind=kind,
            channel=group.channel,
            instances=instances,
            frame=frame,
            frame_len=frame_len,
            fcs=fcs,
            rate_mbps=rate,
            duration_us=duration,
            dispersion_us=float(dispersion),
            transmitter=group.transmitter
            if group.transmitter is not None
            else (frame.transmitter if frame is not None else None),
        )


class LiveMergeShard(_MergeEngine):
    """The live driver: the shard merge, stepped one record at a time.

    The batch driver (:meth:`_MergeEngine.run`) is a generator pulling
    records through trace cursors — its continuation state (the
    suspended frame, the heap's cursor references) cannot be serialized.
    This driver holds the heap in plain attributes and is stepped from
    outside, so the whole object pickles and a restored instance
    continues bit-identically.  Placement and finalization are the
    engine's own; this class adds only the drive bookkeeping and the
    emit gate.

    The drive protocol is a **blocking-successor discipline**: after the
    engine pops a radio's record off the heap, it demands that radio's
    next record (or its end-of-stream) before anything else happens.
    This makes the processing order a pure function of the per-radio
    record sequences — never of arrival timing — which is what lets a
    daemon killed and restored mid-trace replay into the identical
    state, and what keeps live output jframe-for-jframe identical to a
    batch run over the same records:

    * :meth:`needed` — the radio id whose next record must be supplied,
      or ``None`` when the engine can :meth:`step`;
    * :meth:`supply` — hand over that radio's next record (``None`` at
      end of stream);
    * :meth:`step` — process exactly one heap pop; returns any jframes
      whose emission watermark passed;
    * :meth:`finish` — finalize remaining open groups, drain the rest.

    Heap entries carry only scalars (estimate, push counter, radio id) —
    records and track generations ride in side tables keyed by radio —
    so a pickled engine rebinds nothing on restore.  The push counter
    replicates the batch driver's tie-break exactly: under the
    blocking-successor discipline pushes happen in the same order as the
    batch hot loop's (initial records in trace order, then each popped
    radio's successor immediately after its pop).
    """

    def __init__(
        self,
        unifier: "Unifier",
        radio_ids: Sequence[int],
        offsets_us: Dict[int, float],
    ) -> None:
        self._init_state(unifier)
        self.radio_ids = list(radio_ids)
        for radio_id in self.radio_ids:
            self._add_track(radio_id, offsets_us[radio_id])
        #: (est universal, push counter, radio id); records/generations
        #: ride in the side tables below so entries stay picklable.
        self._heap: List[Tuple[float, int, int]] = []
        self._pending: Dict[int, TraceRecord] = {}
        self._pending_gen: Dict[int, int] = {}
        self._counter = 0
        #: Radios awaiting their first record, in trace order.
        self._to_prime: deque = deque(self.radio_ids)
        #: Radio whose successor must be supplied before the next step.
        self._await: Optional[int] = None
        #: Popped-but-unprocessed record (est, radio, record, generation).
        self._current: Optional[Tuple[float, int, TraceRecord, int]] = None
        self._done: Dict[int, bool] = {}
        self._reorder: List[Tuple[int, int, JFrame]] = []
        self._oldest_deadline = _INF

    # --- drive protocol ----------------------------------------------------

    def needed(self) -> Optional[int]:
        """The radio whose next record is required, or None to step."""
        if self._to_prime:
            return self._to_prime[0]
        return self._await

    def supply(self, radio_id: int, record: Optional[TraceRecord]) -> None:
        """Provide ``radio_id``'s next record; ``None`` ends its stream."""
        expected = self.needed()
        if radio_id != expected:
            raise ValueError(
                f"supply order violation: engine needs radio {expected}, "
                f"got {radio_id}"
            )
        if self._to_prime:
            self._to_prime.popleft()
        else:
            self._await = None
        if record is None:
            self._done[radio_id] = True
            return
        self.stats.records_in += 1
        track = self.tracks[radio_id]
        heapq.heappush(
            self._heap,
            (track.universal_us(record.timestamp_us), self._counter, radio_id),
        )
        self._counter += 1
        self._pending[radio_id] = record
        self._pending_gen[radio_id] = track.generation

    @property
    def exhausted(self) -> bool:
        """True when every supplied stream has ended and drained."""
        return (
            not self._heap
            and self._current is None
            and not self._to_prime
            and self._await is None
        )

    def step(self) -> List[JFrame]:
        """Advance by one heap pop; returns newly emittable jframes.

        A step either pops the earliest pending record (and then demands
        its radio's successor — call :meth:`supply` before stepping
        again) or, once the successor is in, places the popped record.
        Mirrors the batch driver's sequencing exactly: the successor's
        heap estimate is computed *before* the popped record can trigger
        resynchronization.
        """
        if self.needed() is not None:
            raise RuntimeError(
                f"radio {self.needed()} must be supplied before stepping"
            )
        if self._current is None:
            if not self._heap:
                return []
            est, _, radio_id = heapq.heappop(self._heap)
            record = self._pending.pop(radio_id)
            gen = self._pending_gen.pop(radio_id)
            self._current = (est, radio_id, record, gen)
            if not self._done.get(radio_id):
                self._await = radio_id
                return []
            # Stream already ended: nothing to demand, process now.
        est, radio_id, record, gen = self._current
        self._current = None
        track = self.tracks[radio_id]
        if gen == track.generation:
            universal = est
        else:
            universal = track.universal_us(record.timestamp_us)

        # The emit gate: finalize stale groups, release what the
        # watermark passed.
        emitted: List[JFrame] = []
        if universal > self._oldest_deadline:
            reorder = self._reorder
            self._oldest_deadline = self._finalize_stale(universal, reorder)
            bound = universal - self._emit_lag
            if bound > self.watermark_us:
                self.watermark_us = bound
            while reorder and reorder[0][0] <= bound:
                emitted.append(heapq.heappop(reorder)[2])

        # Value (not identity) comparison: a pickle round trip rebuilds
        # the float, and ``is _INF`` would silently stop re-arming the
        # staleness deadline on a restored engine.
        if (
            self._place(radio_id, record, universal)
            and self._oldest_deadline == _INF
        ):
            self._oldest_deadline = universal + self.unifier.search_window_us
        return emitted

    def finish(self) -> List[JFrame]:
        """Finalize every open group and drain the reorder heap."""
        if not self.exhausted:
            raise RuntimeError("finish() before the shard drained")
        self._finalize_stale(_INF, self._reorder)
        out: List[JFrame] = []
        while self._reorder:
            out.append(heapq.heappop(self._reorder)[2])
        self.watermark_us = _INF
        return out


class UnifyStream:
    """A lazy unification in progress: iterate to drain the jframes.

    ``stats`` and ``tracks`` aggregate across shards; they are complete
    once the stream is exhausted (reading them mid-stream gives the
    progress so far, which is exactly what a live monitor wants).
    """

    def __init__(
        self,
        iterator: Iterator[JFrame],
        engines: Sequence[_MergeEngine],
        track_order: Sequence[int] = (),
    ) -> None:
        self._iterator = iterator
        self._engines = list(engines)
        self._track_order = list(track_order)

    def __iter__(self) -> Iterator[JFrame]:
        return self._iterator

    @property
    def stats(self) -> UnifyStats:
        merged = UnifyStats()
        for engine in self._engines:
            merged.merge(engine.stats)
        return merged

    @property
    def tracks(self) -> Dict[int, ClockTrack]:
        combined: Dict[int, ClockTrack] = {}
        for engine in self._engines:
            combined.update(engine.tracks)
        if self._track_order:
            return {
                rid: combined[rid]
                for rid in self._track_order
                if rid in combined
            }
        return combined

    @property
    def watermark_us(self) -> float:
        """Global emission bound: min over the shards' watermarks.

        Every jframe with ``timestamp_us`` at or below this has been
        yielded by the merged stream; ``-inf`` before the first shard
        drain, ``inf`` once the stream is exhausted.
        """
        if not self._engines:
            return _INF
        return min(engine.watermark_us for engine in self._engines)


def merge_shard_streams(
    streams: Sequence[Iterator[JFrame]],
) -> Iterator[JFrame]:
    """K-way merge per-shard jframe streams into one global timeline.

    Shard streams are each (timestamp, finalization)-ordered; ``heapq.merge``
    breaks timestamp ties by stream position, so the interleaving is
    deterministic given the (sorted-by-channel) shard order.
    """
    if len(streams) == 1:
        return iter(streams[0])
    return heapq.merge(*streams, key=_timestamp_key)


def _timestamp_key(jframe: JFrame) -> int:
    return jframe.timestamp_us


class Unifier:
    """Single-pass trace merger (batch and streaming APIs)."""

    def __init__(
        self,
        search_window_us: int = DEFAULT_SEARCH_WINDOW_US,
        resync_threshold_us: float = DEFAULT_RESYNC_THRESHOLD_US,
        skew_alpha: float = 0.2,
        compensate_skew: bool = True,
        corrupt_attach_us: float = DEFAULT_CORRUPT_ATTACH_US,
        phy_attach_us: float = DEFAULT_PHY_ATTACH_US,
        use_median_timestamp: bool = True,
        instance_gap_us: Optional[float] = None,
    ) -> None:
        if search_window_us <= 0:
            raise ValueError("search window must be positive")
        self.search_window_us = search_window_us
        self.resync_threshold_us = resync_threshold_us
        self.skew_alpha = skew_alpha
        self.compensate_skew = compensate_skew
        self.corrupt_attach_us = corrupt_attach_us
        self.phy_attach_us = phy_attach_us
        self.use_median_timestamp = use_median_timestamp
        # Instances of one transmission cluster within clock error; the
        # paper pops candidates only "until the timestamp of the next
        # instance differs by a significant amount".  Joining a group
        # therefore demands temporal proximity much tighter than the search
        # window — otherwise content-identical frames (ACKs to one station,
        # milliseconds apart) merge across distinct transmissions.  Scaling
        # with the window reproduces the paper's warning that overly large
        # windows become "dangerous".
        self.instance_gap_us = (
            float(instance_gap_us)
            if instance_gap_us is not None
            else max(50.0, search_window_us / 50.0)
        )

    # --- public API --------------------------------------------------------

    def stream_unify(
        self, traces: Sequence[RadioTrace], bootstrap: BootstrapResult
    ) -> UnifyStream:
        """Begin a lazy unification over channel shards.

        Returns a :class:`UnifyStream`: iterate it for globally
        time-ordered jframes; read ``.stats`` / ``.tracks`` when done.
        """
        shards = partition_traces(traces)
        engines = [
            _MergeEngine(self, shard, bootstrap) for shard in shards
        ]
        merged = merge_shard_streams([engine.run() for engine in engines])
        return UnifyStream(
            merged, engines, track_order=[t.radio_id for t in traces]
        )

    def iter_unify(
        self, traces: Sequence[RadioTrace], bootstrap: BootstrapResult
    ) -> Iterator[JFrame]:
        """Generator of globally time-ordered jframes (streaming API)."""
        return iter(self.stream_unify(traces, bootstrap))

    def unify(
        self, traces: Sequence[RadioTrace], bootstrap: BootstrapResult
    ) -> UnificationResult:
        """Merge all traces into a time-ordered list of jframes (batch)."""
        stream = self.stream_unify(traces, bootstrap)
        jframes = list(stream)
        # The stream is ordered by construction; the sort is a stable no-op
        # safety net that keeps the documented invariant unconditional.
        jframes.sort(key=_timestamp_key)
        return UnificationResult(
            jframes=jframes, tracks=stream.tracks, stats=stream.stats
        )
