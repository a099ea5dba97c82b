"""Single-read, incrementally widening bootstrap (Section 4.1 at scale).

``bootstrap_synchronization`` is the reference prepass: every widening
round re-reads every trace's examination window from the start.
:class:`ShardedBootstrap` computes the identical result in one serial
pass over each trace:

* collection is **single-read**: each trace's records are consumed
  incrementally, exactly once — the window cutoff is one bisect per
  trace, and the auto-widen loop feeds only the records between the old
  and the new limit instead of re-scanning from the start.  Traces
  backed by a replay-aware reader
  (:class:`~repro.jtrace.io.StreamingRadioTrace`) decode only the
  prefix the window needs; the buffered records are later replayed into
  unification without a second read of the file;
* one :class:`~repro.core.sync.bootstrap._BootstrapShard` is fed every
  trace in trace order.  Reference-set payloads union identically under
  any partition of the traces (see
  :func:`~repro.core.sync.bootstrap.union_shard_payloads`), so a single
  collector is all the prepass needs;
* the covering-family selection and offset BFS then run globally, with
  ``clock_groups`` providing the only cross-channel edges.

The result is bit-identical to
:func:`~repro.core.sync.bootstrap.bootstrap_synchronization`
(``tests/test_bootstrap_parity.py`` holds the property).
"""

from __future__ import annotations

from bisect import bisect_right
from typing import Iterable, List, Optional, Sequence, Set, Tuple

from ...jtrace.io import RadioTrace, StreamingRadioTrace
from ...jtrace.records import TraceRecord
from .bootstrap import (
    BootstrapResult,
    DEFAULT_BOOTSTRAP_WINDOW_US,
    DEFAULT_STABILITY_TOLERANCE_US,
    SyncPartitionError,
    _BootstrapShard,
    _resolve_offsets,
    _select_covering_family,
    _shared_sets,
    log_quarantine_warning,
    resolve_island_mode,
    resolve_locality_map,
)


def _window_cutoff(
    trace: RadioTrace, window_us: int, lo: int
) -> Tuple[Sequence[TraceRecord], int]:
    """Records of ``trace`` and the index one past its examination window.

    One bisect on the (local-time-ordered) records instead of a
    per-record compare; streaming traces decode just far enough to
    answer, buffering what they read for later replay.
    """
    first = trace.first_timestamp_us
    if first is None:
        return (), 0
    limit = first + window_us
    if isinstance(trace, StreamingRadioTrace):
        return trace.buffered_until(limit)
    records = trace.records
    if lo < len(records) and records[-1].timestamp_us <= limit:
        return records, len(records)
    return records, bisect_right(
        records, limit, lo=lo, key=lambda r: r.timestamp_us
    )


class ShardedBootstrap:
    """The pipeline's bootstrap prepass: serial, single-read, widening.

    Campus inputs (every trace stamped with ``building_id``) default to
    ``island_mode="local"`` — each building synchronizes on its own
    island timeline instead of being quarantined off building 0's (see
    :func:`~repro.core.sync.bootstrap.bootstrap_synchronization` for the
    mode semantics).
    """

    def __init__(
        self,
        window_us: int = DEFAULT_BOOTSTRAP_WINDOW_US,
        auto_widen: bool = True,
        max_window_us: int = 16_000_000,
        stability_tolerance_us: float = DEFAULT_STABILITY_TOLERANCE_US,
        island_mode: Optional[str] = None,
    ) -> None:
        if window_us <= 0:
            raise ValueError("bootstrap window must be positive")
        if island_mode not in (None, "quarantine", "local"):
            raise ValueError(f"unknown island_mode {island_mode!r}")
        #: Island policy; ``None`` resolves per input fleet (see
        #: :func:`~repro.core.sync.bootstrap.resolve_island_mode`).
        self.island_mode = island_mode
        self.window_us = window_us
        self.auto_widen = auto_widen
        self.max_window_us = max_window_us
        self.stability_tolerance_us = stability_tolerance_us

    def bootstrap(
        self,
        traces: Sequence[RadioTrace],
        clock_groups: Iterable[Sequence[int]] = (),
        strict: bool = False,
    ) -> BootstrapResult:
        """Compute bootstrap offsets with single-read collection.

        Bit-identical to
        :func:`~repro.core.sync.bootstrap.bootstrap_synchronization` on
        the same input.  ``strict=True`` raises
        :class:`~repro.core.sync.bootstrap.SyncPartitionError` when the
        reference graph stays partitioned after widening (the Section 6
        pod-reduction failure mode).
        """
        radios = [trace.radio_id for trace in traces]
        island_mode = self.island_mode
        if island_mode is None:
            island_mode = resolve_island_mode(traces)
        locality_of = (
            resolve_locality_map(traces) if island_mode == "local" else None
        )
        groups = [list(g) for g in clock_groups]
        shard = _BootstrapShard()
        positions: List[int] = [0] * len(traces)
        window = self.window_us
        widen_rounds = 0
        ever_unreachable: Set[int] = set()
        while True:
            # Feed every trace's unconsumed window records, in trace order.
            for pos, trace in enumerate(traces):
                lo = positions[pos]
                records, hi = _window_cutoff(trace, window, lo)
                if hi > lo:
                    shard.feed_slice(records, lo, hi, pos, trace.radio_id)
                    positions[pos] = hi
            sets, order, seen = shard.finish()
            family = _select_covering_family(_shared_sets(sets), radios, order)
            offsets, unreachable, quarantined, islands = _resolve_offsets(
                radios, family, groups,
                self.stability_tolerance_us,
                island_mode=island_mode, locality_of=locality_of,
            )
            if (
                not unreachable
                or not self.auto_widen
                or window >= self.max_window_us
            ):
                if unreachable and strict:
                    raise SyncPartitionError(unreachable)
                log_quarantine_warning(quarantined, "ShardedBootstrap")
                return BootstrapResult(
                    offsets_us=offsets,
                    unreachable=unreachable,
                    reference_sets_used=len(family),
                    reference_frames_seen=seen,
                    window_us=window,
                    quarantined=quarantined,
                    islands=islands,
                    rejoined=[
                        r for r in radios
                        if r in ever_unreachable and r in offsets
                    ],
                    widen_rounds=widen_rounds,
                )
            ever_unreachable.update(unreachable)
            widen_rounds += 1
            window = min(window * 2, self.max_window_us)
