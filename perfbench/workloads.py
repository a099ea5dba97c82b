"""The benchmark's workloads: which scenario, which call, which passes.

A workload names a simulated deployment (scenario family, scale and
duration) and the way a caller runs Jigsaw over its trace files:

* ``batch`` — ``JigsawPipeline().run(open_trace_streams(dir), ...)``;
* ``service`` — ``JigsawDaemon`` over a per-radio file feed, killed
  halfway with ``serve(stop_after_records=...)``, restored with
  ``JigsawDaemon.restore`` and run to the end.

``--smoke`` swaps every workload onto the family's ``tiny`` scale so the
whole benchmark can be exercised in seconds.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict, dataclass, replace
from typing import Any, Dict, List, Optional, Tuple

#: Width of the windowed service passes, in microseconds.
SERVICE_WINDOW_US = 20_000


@dataclass(frozen=True)
class Workload:
    name: str
    family: str
    scale: str
    duration_us: int
    mode: str  # "batch" or "service"
    materialize: bool
    why: str
    #: Scenario settings changed from the family's scale.
    overrides: Tuple[Tuple[str, Any], ...] = ()
    #: Service workloads only: checkpoint cadence in consumed records
    #: (``None``: the shipped ``DEFAULT_CHECKPOINT_EVERY``).
    checkpoint_every: Optional[int] = None

    def config_digest(self) -> str:
        """Identifies the inputs and call; stored references carry it."""
        fields = asdict(self)
        del fields["why"]
        blob = json.dumps(fields, sort_keys=True)
        return hashlib.sha256(blob.encode()).hexdigest()[:16]


#: Sizes are set by the run budget: every invocation simulates three
#: inputs and must finish well inside three minutes, and simulation
#: costs about five times what the pipeline does per record.  The
#: building family at full scale keeps its 156 radios but runs 0.25 s
#: (so the 1 s bootstrap window covers the whole trace).  The other two
#: use the hidden-terminal hotspot with 36 clients instead of the
#: scale's 12: with 12, one input's record count varied up to twofold
#: over six seeds (43k-75k records in 3 s; building/small: 28k-59k), as a
#: few bulk copies dominate; with 36 it varies by about a tenth.
WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            name="building_stream",
            family="building",
            scale="full",
            duration_us=250_000,
            mode="batch",
            materialize=False,
            why=(
                "paper deployment shape (156 radios): dense observation "
                "groups put the work on decode, bootstrap, the batch "
                "merge and GC"
            ),
        ),
        Workload(
            name="sparse_report",
            family="hidden_terminal",
            scale="small",
            duration_us=1_500_000,
            overrides=(("n_clients", 36),),
            mode="batch",
            materialize=True,
            why=(
                "small merge groups with a materialized report: the "
                "downstream link, transport and analysis layers take a "
                "large share of the time"
            ),
        ),
        Workload(
            name="live_service",
            family="hidden_terminal",
            scale="small",
            duration_us=600_000,
            overrides=(("n_clients", 36),),
            mode="service",
            materialize=False,
            why=(
                "the only path through the live merge, windowed sealing "
                "and checkpoints, with one crash and restore; never "
                "touches the batch merge"
            ),
        ),
    )
}

#: Simulated duration and checkpoint cadence under ``--smoke``: small
#: enough to run in seconds, with a few checkpoints before the crash.
SMOKE_DURATION_US = 400_000
SMOKE_CHECKPOINT_EVERY = 40


def get_workload(name: str, smoke: bool = False) -> Workload:
    workload = WORKLOADS[name]
    if smoke:
        workload = replace(
            workload,
            scale="tiny",
            duration_us=SMOKE_DURATION_US,
            checkpoint_every=SMOKE_CHECKPOINT_EVERY,
        )
    return workload


def scenario(workload: Workload, seed: int):
    from repro.sim.registry import scenario_config

    return scenario_config(
        workload.family,
        workload.scale,
        seed=seed,
        duration_us=workload.duration_us,
        **dict(workload.overrides),
    )


def analysis_passes(duration_us: int) -> List:
    """The six Section 6/7 passes every batch workload registers."""
    from repro.core.analysis import (
        ActivityPass,
        DispersionPass,
        InterferencePass,
        ProtectionPass,
        StationTracker,
        SummaryPass,
        TcpLossPass,
    )

    tracker = StationTracker()
    bin_us = max(1, duration_us // 24)
    return [
        ActivityPass(duration_us, bin_us=bin_us, tracker=tracker),
        DispersionPass(),
        InterferencePass(tracker=tracker),
        ProtectionPass(duration_us, bin_us=bin_us, tracker=tracker),
        SummaryPass(duration_us, tracker=tracker),
        TcpLossPass(),
    ]


def service_passes() -> List:
    """The shipped windowed passes, each logging its seals (see probes)."""
    from probes import (
        ProbedInterferencePass,
        ProbedLossPass,
        ProbedSummaryPass,
    )

    return [
        ProbedSummaryPass(SERVICE_WINDOW_US),
        ProbedLossPass(SERVICE_WINDOW_US),
        ProbedInterferencePass(SERVICE_WINDOW_US),
    ]


def workload_passes(workload: Workload) -> List:
    from probes import FingerprintPass

    if workload.mode == "service":
        passes = service_passes()
    else:
        passes = analysis_passes(workload.duration_us)
    return passes + [FingerprintPass()]
