"""Crash/resume parity: the service daemon against batch, and itself.

The acceptance property of service mode is **bit identity under
interruption**: a daemon killed mid-trace (SIGKILL-equivalent — no
flushing, no final checkpoint) and restored from its last periodic
checkpoint must finish with exactly the jframes, health ledger, flows
and sealed pass windows of one uninterrupted run.  And an uninterrupted
daemon run must itself be bit-identical to the batch pipeline over the
same records: the live and batch drivers share one merge engine.

The building scenario (compressed duration, full fleet shape) is the
acceptance case; flash_crowd covers a second traffic shape, every
registered family is checked daemon-vs-batch at tiny scale, and a
multi-building campus checks the (building, channel) shard split.
Crash points are randomized (seeded) so each run of the suite exercises
different cut positions in the record stream.
"""

import dataclasses
import pickle
import random
import zlib

import pytest

from repro.core.pipeline import JigsawPipeline
from repro.core.sync.sharded import ShardedBootstrap
from repro.core.unify import Unifier
from repro.service import (
    CHECKPOINT_MAGIC,
    CheckpointError,
    JigsawDaemon,
    load_checkpoint,
)
from repro.service.checkpoint import _CHECKPOINT_HEADER
from repro.service.windows import (
    WindowedInterferencePass,
    WindowedLossPass,
    WindowedSummaryPass,
)
from repro.sim import REGISTRY, ScenarioConfig
from repro.sim.campus import run_campus
from repro.sim.registry import scenario_config
from repro.sim.stream import live_feed, stream_scenario

pytestmark = pytest.mark.service

WINDOW_US = 200_000
#: Cadences are sized per scenario: a checkpoint pickles the daemon's
#: full state (which grows with records consumed when materializing),
#: so a fine cadence on a six-figure-record trace turns the suite
#: quadratic.  Both still force several checkpoints per run.
BUILDING_CHECKPOINT_EVERY = 40_000
FLASH_CHECKPOINT_EVERY = 4_000


def make_passes():
    return [
        WindowedSummaryPass(WINDOW_US),
        WindowedInterferencePass(WINDOW_US),
        WindowedLossPass(WINDOW_US),
    ]


def fingerprints(jframes):
    return [
        (
            jf.timestamp_us,
            jf.kind,
            jf.channel,
            jf.frame_len,
            jf.fcs,
            jf.rate_mbps,
            jf.duration_us,
            jf.dispersion_us,
            None if jf.transmitter is None else jf.transmitter.value,
            tuple(
                (i.radio_id, i.local_us, i.universal_us)
                for i in jf.instances
            ),
        )
        for jf in jframes
    ]


def published_map(service_report):
    return {
        w.key: (w.start_us, w.end_us, w.payload)
        for w in service_report.published
    }


def assert_reports_identical(report_a, report_b):
    """Jframes, stats, flows, offsets: the cross-mode parity contract."""
    assert fingerprints(report_a.jframes) == fingerprints(report_b.jframes)
    assert report_a.unification.stats == report_b.unification.stats
    assert report_a.attempt_stats == report_b.attempt_stats
    assert report_a.exchange_stats == report_b.exchange_stats
    assert [str(f.key) for f in report_a.flows] == [
        str(f.key) for f in report_b.flows
    ]
    assert report_a.bootstrap.offsets_us == report_b.bootstrap.offsets_us


def assert_service_identical(svc_a, svc_b):
    """The full crash/resume contract: report + health + sealed windows."""
    assert_reports_identical(svc_a.report, svc_b.report)
    assert dataclasses.asdict(svc_a.report.health) == dataclasses.asdict(
        svc_b.report.health
    )
    pub_a, pub_b = published_map(svc_a), published_map(svc_b)
    assert pub_a == pub_b
    assert pub_a, "parity over zero published windows proves nothing"


def run_daemon(config, tmp_path, cadence, stop_after=None, name="svc.ckpt"):
    checkpoint = tmp_path / name
    daemon = JigsawDaemon(
        live_feed(config),
        passes=make_passes(),
        checkpoint_path=checkpoint,
        checkpoint_every=cadence,
    )
    result = daemon.serve(stop_after_records=stop_after)
    return daemon, result, checkpoint


def crash_and_resume(config, tmp_path, cadence, stop_after):
    """Kill a daemon at ``stop_after`` records, restore, run to the end."""
    crashed, result, checkpoint = run_daemon(
        config, tmp_path, cadence, stop_after=stop_after
    )
    assert result is None, "daemon should have crashed, not finished"
    assert crashed.total_consumed == stop_after
    restored = JigsawDaemon.restore(
        checkpoint, live_feed(config), checkpoint_every=cadence
    )
    assert restored.total_consumed <= stop_after
    assert restored.total_consumed >= stop_after - 2 * cadence
    svc = restored.serve()
    assert svc is not None and svc.resumed, f"resume failed (stop={stop_after})"
    return svc


class TestBuildingScenario:
    """The acceptance case: building shape, compressed duration."""

    @pytest.fixture(scope="class")
    def config(self):
        return ScenarioConfig.building(seed=7, duration_us=2_000_000)

    @pytest.fixture(scope="class")
    def reference(self, config, tmp_path_factory):
        """One uninterrupted daemon run (checkpointing enabled)."""
        daemon, svc, _ = run_daemon(
            config,
            tmp_path_factory.mktemp("service-ref"),
            BUILDING_CHECKPOINT_EVERY,
        )
        assert svc is not None
        assert daemon.total_consumed > 3 * BUILDING_CHECKPOINT_EVERY, (
            "scenario too small to exercise multiple checkpoints"
        )
        return daemon, svc

    def test_daemon_matches_batch_serial(self, config, reference):
        _, svc = reference
        streamed = stream_scenario(config)
        batch = JigsawPipeline().run(
            streamed.traces, clock_groups=streamed.clock_groups()
        )
        assert_reports_identical(svc.report, batch)

    @pytest.mark.parametrize("crash_draw", [0, 1, 2])
    def test_crash_resume_bit_identical(
        self, config, reference, tmp_path, crash_draw
    ):
        daemon, svc_ref = reference
        rng = random.Random()  # fresh entropy: any cut point must work
        stop = rng.randrange(
            BUILDING_CHECKPOINT_EVERY + 1, daemon.total_consumed - 1
        )
        svc = crash_and_resume(
            config, tmp_path, BUILDING_CHECKPOINT_EVERY, stop_after=stop
        )
        try:
            assert_service_identical(svc, svc_ref)
        except AssertionError as err:
            raise AssertionError(
                f"crash/resume divergence at stop={stop}"
            ) from err

    def test_crash_before_first_checkpoint_has_no_recovery_point(
        self, config, tmp_path
    ):
        """A kill before any checkpoint leaves nothing to restore — the
        operator restarts from scratch and still converges."""
        crashed, result, checkpoint = run_daemon(
            config,
            tmp_path,
            BUILDING_CHECKPOINT_EVERY,
            stop_after=BUILDING_CHECKPOINT_EVERY // 2,
        )
        assert result is None
        assert not checkpoint.exists()
        with pytest.raises(FileNotFoundError):
            load_checkpoint(checkpoint)

    def test_checkpoint_survives_reload(self, config, reference, tmp_path):
        """The codec round-trips a mid-run state verbatim."""
        stop = 2 * BUILDING_CHECKPOINT_EVERY + 500
        crashed, result, checkpoint = run_daemon(
            config, tmp_path, BUILDING_CHECKPOINT_EVERY, stop_after=stop
        )
        assert result is None
        state = load_checkpoint(checkpoint)
        # Cadence fires at the first round boundary past the threshold,
        # so the captured count sits just past 2x the cadence.
        assert 2 * BUILDING_CHECKPOINT_EVERY <= state.total_consumed < stop
        assert sum(state.consumed.values()) == state.total_consumed
        assert state.engines and state.drive is not None


class TestFlashCrowdScenario:
    """Second traffic shape: bursty association storm."""

    @pytest.fixture(scope="class")
    def config(self):
        return scenario_config("flash_crowd", "tiny", seed=5)

    @pytest.fixture(scope="class")
    def reference(self, config, tmp_path_factory):
        daemon, svc, _ = run_daemon(
            config,
            tmp_path_factory.mktemp("service-fc"),
            FLASH_CHECKPOINT_EVERY,
        )
        assert svc is not None
        return daemon, svc

    def test_daemon_matches_batch_serial(self, config, reference):
        _, svc = reference
        streamed = stream_scenario(config)
        batch = JigsawPipeline().run(
            streamed.traces, clock_groups=streamed.clock_groups()
        )
        assert_reports_identical(svc.report, batch)

    def test_crash_resume_bit_identical(self, config, reference, tmp_path):
        daemon, svc_ref = reference
        rng = random.Random()
        stop = rng.randrange(
            FLASH_CHECKPOINT_EVERY + 1, daemon.total_consumed - 1
        )
        svc = crash_and_resume(
            config, tmp_path, FLASH_CHECKPOINT_EVERY, stop_after=stop
        )
        assert_service_identical(svc, svc_ref)

    def test_double_crash_double_resume(self, config, reference, tmp_path):
        """Two successive kills, two restores — checkpoints chain."""
        daemon, svc_ref = reference
        total = daemon.total_consumed
        first = FLASH_CHECKPOINT_EVERY + total // 3
        second = min(total - 1, first + total // 3)
        crashed, result, checkpoint = run_daemon(
            config, tmp_path, FLASH_CHECKPOINT_EVERY, stop_after=first
        )
        assert result is None
        d2 = JigsawDaemon.restore(
            checkpoint,
            live_feed(config),
            checkpoint_every=FLASH_CHECKPOINT_EVERY,
        )
        assert d2.serve(stop_after_records=second) is None
        d3 = JigsawDaemon.restore(
            checkpoint,
            live_feed(config),
            checkpoint_every=FLASH_CHECKPOINT_EVERY,
        )
        svc = d3.serve()
        assert svc is not None
        assert_service_identical(svc, svc_ref)


@pytest.mark.parametrize("family", REGISTRY.names())
def test_tiny_daemon_matches_batch(family):
    """Every registered family, tiny scale: the live driver places valid,
    corrupt and PHY-error records exactly as the batch driver does."""
    config = scenario_config(family, "tiny", seed=5)
    svc = JigsawDaemon(live_feed(config)).serve()
    assert svc is not None
    streamed = stream_scenario(config)
    batch = JigsawPipeline().run(
        streamed.traces, clock_groups=streamed.clock_groups()
    )
    assert_reports_identical(svc.report, batch)
    assert svc.report.health == batch.health


class ListFeed:
    """Minimal service feed over materialized (campus) traces."""

    def __init__(self, traces, clock_groups):
        self.traces = list(traces)
        self._clock_groups = [list(g) for g in clock_groups]
        self._by_radio = {t.radio_id: t for t in self.traces}
        self._cursor = {t.radio_id: 0 for t in self.traces}

    def clock_groups(self):
        return [list(g) for g in self._clock_groups]

    def consumed(self):
        return dict(self._cursor)

    def seek(self, consumed):
        self._cursor.update(consumed)

    def next_record(self, radio_id):
        trace = self._by_radio[radio_id]
        index = self._cursor[radio_id]
        if index >= len(trace.records):
            return None
        self._cursor[radio_id] = index + 1
        return trace.records[index]


class TestCampusScenario:
    def test_daemon_matches_batch_campus(self):
        """The live daemon over a four-building campus emits the batch
        merge's jframes, jframe for jframe: both shard through the same
        (building, channel) partition in the same tie-break order."""
        campus = run_campus(
            scenario_config("campus", "tiny", seed=17, n_buildings=4)
        )
        service = JigsawDaemon(
            ListFeed(campus.traces, campus.clock_groups)
        ).serve()
        assert service is not None
        # The daemon's bootstrap policy: the serial prepass, 1 s window,
        # auto-widen.
        boot = ShardedBootstrap().bootstrap(
            campus.traces, clock_groups=campus.clock_groups
        )
        batch = Unifier().unify(campus.traces, boot)
        report = service.report
        assert fingerprints(report.jframes) == fingerprints(batch.jframes)
        assert report.unification.stats == batch.stats
        assert report.bootstrap.offsets_us == boot.offsets_us
        assert report.bootstrap.quarantined == {}


def test_version_1_checkpoint_refused(tmp_path):
    """A well-formed version-1 file (pool health sections in its
    ``HealthReport``) is refused by version, not by a raw unpickling
    error about a class this build no longer has."""
    payload = pickle.dumps({"state": "from an older build"})
    path = tmp_path / "v1.ckpt"
    path.write_bytes(
        _CHECKPOINT_HEADER.pack(
            CHECKPOINT_MAGIC, 1, zlib.crc32(payload) & 0xFFFFFFFF, len(payload)
        )
        + payload
    )
    with pytest.raises(CheckpointError, match="version 1"):
        load_checkpoint(path)
