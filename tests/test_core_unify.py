"""Tests for frame unification: synthetic cases plus simulator integration."""

import pytest

from repro.core.sync.bootstrap import BootstrapResult, bootstrap_synchronization
from repro.core.unify.jframe import JFrameKind
from repro.core.unify.unifier import Unifier, partition_traces
from repro.dot11.address import MacAddress
from repro.dot11.frame import make_data
from repro.dot11.serialize import frame_to_bytes
from repro.jtrace.io import RadioTrace
from repro.jtrace.records import RecordKind, TraceRecord

SRC = MacAddress.parse("00:0c:0c:00:00:01")
SRC2 = MacAddress.parse("00:0c:0c:00:00:02")
DST = MacAddress.parse("00:0a:0a:00:00:01")


def record_for(frame, radio_id, ts, kind=RecordKind.VALID, channel=1,
               txid=0, corrupt_bytes=None):
    raw = frame_to_bytes(frame)
    if kind is RecordKind.PHY_ERROR:
        snap, frame_len, fcs = b"", 0, 0
    elif corrupt_bytes is not None:
        snap, frame_len = corrupt_bytes[:200], len(corrupt_bytes)
        fcs = int.from_bytes(corrupt_bytes[-4:], "little")
    else:
        snap, frame_len = raw[:200], len(raw)
        fcs = int.from_bytes(raw[-4:], "little")
    return TraceRecord(
        radio_id=radio_id, timestamp_us=ts, kind=kind, channel=channel,
        rate_mbps=11.0, rssi_dbm=-60.0, frame_len=frame_len, fcs=fcs,
        snap=snap, duration_us=100, truth_txid=txid,
    )


def perfect_bootstrap(radio_ids):
    return BootstrapResult(offsets_us={r: 0.0 for r in radio_ids})


def data_frame(seq=1, body=b"payload", retry=False, src=SRC):
    return make_data(src, DST, DST, seq=seq, body=body, retry=retry)


class TestBasicUnification:
    def test_duplicates_merge_into_one_jframe(self):
        frame = data_frame()
        traces = [
            RadioTrace(r, 1, [record_for(frame, r, 1000 + r, txid=1)])
            for r in range(4)
        ]
        result = Unifier().unify(traces, perfect_bootstrap(range(4)))
        assert len(result.jframes) == 1
        jf = result.jframes[0]
        assert jf.n_instances == 4
        assert jf.kind is JFrameKind.VALID
        assert jf.frame is not None and jf.frame.seq == 1
        assert jf.truth_txid() == 1

    def test_distinct_frames_stay_separate(self):
        a, b = data_frame(seq=1), data_frame(seq=2)
        traces = [
            RadioTrace(0, 1, [record_for(a, 0, 1000, txid=1),
                              record_for(b, 0, 1500, txid=2)]),
            RadioTrace(1, 1, [record_for(a, 1, 1002, txid=1),
                              record_for(b, 1, 1503, txid=2)]),
        ]
        result = Unifier().unify(traces, perfect_bootstrap(range(2)))
        assert len(result.jframes) == 2
        assert {jf.truth_txid() for jf in result.jframes} == {1, 2}

    def test_simultaneous_distinct_content_not_merged(self):
        """Distinct frames transmitted at the same instant must not merge —
        "it is still crucial to compare frame contents" (Section 4.2)."""
        a = data_frame(seq=5, src=SRC)
        b = data_frame(seq=9, src=SRC2)
        traces = [
            RadioTrace(0, 1, [record_for(a, 0, 1000, txid=1)]),
            RadioTrace(1, 1, [record_for(b, 1, 1000, txid=2)]),
        ]
        result = Unifier().unify(traces, perfect_bootstrap(range(2)))
        assert len(result.jframes) == 2

    def test_median_timestamp(self):
        frame = data_frame()
        traces = [
            RadioTrace(0, 1, [record_for(frame, 0, 1000)]),
            RadioTrace(1, 1, [record_for(frame, 1, 1004)]),
            RadioTrace(2, 1, [record_for(frame, 2, 1030)]),
        ]
        result = Unifier().unify(traces, perfect_bootstrap(range(3)))
        assert result.jframes[0].timestamp_us == 1004
        assert result.jframes[0].dispersion_us == pytest.approx(30.0)

    def test_bootstrap_offsets_applied(self):
        frame = data_frame()
        # Radio 1's clock reads 5000 ahead; bootstrap knows it.
        traces = [
            RadioTrace(0, 1, [record_for(frame, 0, 1000, txid=1)]),
            RadioTrace(1, 1, [record_for(frame, 1, 6003, txid=1)]),
        ]
        bootstrap = BootstrapResult(offsets_us={0: 0.0, 1: -5000.0})
        result = Unifier().unify(traces, bootstrap)
        assert len(result.jframes) == 1
        assert result.jframes[0].dispersion_us < 10

    def test_same_radio_never_twice_in_jframe(self):
        # Two identical retries heard by one radio stay two jframes.
        frame = data_frame(retry=True)
        trace = RadioTrace(0, 1, [
            record_for(frame, 0, 1000, txid=1),
            record_for(frame, 0, 2000, txid=2),
        ])
        result = Unifier().unify([trace], perfect_bootstrap([0]))
        assert len(result.jframes) == 2

    def test_unsynchronized_radio_skipped(self):
        frame = data_frame()
        traces = [
            RadioTrace(0, 1, [record_for(frame, 0, 1000)]),
            RadioTrace(1, 1, [record_for(frame, 1, 1003)]),
        ]
        bootstrap = BootstrapResult(offsets_us={0: 0.0}, unreachable=[1])
        result = Unifier().unify(traces, bootstrap)
        assert result.stats.records_skipped_unsynchronized == 1
        assert result.jframes[0].n_instances == 1

    def test_output_sorted_by_timestamp(self):
        frames = [data_frame(seq=i) for i in range(1, 20)]
        records = [
            record_for(f, 0, 1000 * i, txid=i)
            for i, f in enumerate(frames, start=1)
        ]
        result = Unifier().unify(
            [RadioTrace(0, 1, records)], perfect_bootstrap([0])
        )
        stamps = [jf.timestamp_us for jf in result.jframes]
        assert stamps == sorted(stamps)


class TestCorruptAndErrorHandling:
    def test_corrupt_attaches_by_transmitter(self):
        frame = data_frame(body=b"q" * 64)
        raw = bytearray(frame_to_bytes(frame))
        raw[-6] ^= 0xFF  # tail damage: header (and addr2) survive
        traces = [
            RadioTrace(0, 1, [record_for(frame, 0, 1000, txid=1)]),
            RadioTrace(1, 1, [record_for(
                frame, 1, 1005, kind=RecordKind.CORRUPT,
                corrupt_bytes=bytes(raw), txid=1,
            )]),
        ]
        result = Unifier().unify(traces, perfect_bootstrap(range(2)))
        assert len(result.jframes) == 1
        jf = result.jframes[0]
        assert jf.kind is JFrameKind.VALID
        assert jf.n_instances == 2

    def test_phy_error_attaches_by_time(self):
        frame = data_frame()
        traces = [
            RadioTrace(0, 1, [record_for(frame, 0, 1000, txid=1)]),
            RadioTrace(1, 1, [record_for(
                frame, 1, 1008, kind=RecordKind.PHY_ERROR, txid=1,
            )]),
        ]
        result = Unifier().unify(traces, perfect_bootstrap(range(2)))
        assert len(result.jframes) == 1
        assert result.jframes[0].kind is JFrameKind.VALID

    def test_valid_adopts_earlier_corrupt_group(self):
        frame = data_frame(body=b"w" * 64)
        raw = bytearray(frame_to_bytes(frame))
        raw[-6] ^= 0xFF
        traces = [
            RadioTrace(0, 1, [record_for(
                frame, 0, 1000, kind=RecordKind.CORRUPT,
                corrupt_bytes=bytes(raw), txid=1,
            )]),
            RadioTrace(1, 1, [record_for(frame, 1, 1006, txid=1)]),
        ]
        result = Unifier().unify(traces, perfect_bootstrap(range(2)))
        assert len(result.jframes) == 1
        assert result.jframes[0].kind is JFrameKind.VALID

    def test_lone_phy_error_becomes_error_jframe(self):
        frame = data_frame()
        trace = RadioTrace(0, 1, [
            record_for(frame, 0, 1000, kind=RecordKind.PHY_ERROR),
        ])
        result = Unifier().unify([trace], perfect_bootstrap([0]))
        assert result.jframes[0].kind is JFrameKind.PHY_ERROR

    def test_cross_channel_never_grouped(self):
        frame = data_frame()
        traces = [
            RadioTrace(0, 1, [record_for(frame, 0, 1000, channel=1)]),
            RadioTrace(1, 6, [record_for(frame, 1, 1000, channel=6)]),
        ]
        result = Unifier().unify(traces, perfect_bootstrap(range(2)))
        # Same content on different channels: physically distinct events.
        assert len(result.jframes) == 2


class TestResynchronization:
    def test_skewed_clock_tracked_across_trace(self):
        """A radio with +80 ppm skew stays unified with a perfect radio
        thanks to continual resynchronization."""
        frames = [data_frame(seq=i % 4096, body=bytes([i % 251]) * 8)
                  for i in range(200)]
        good = RadioTrace(0, 1, [
            record_for(f, 0, 5_000 * (i + 1), txid=i + 1)
            for i, f in enumerate(frames)
        ])
        skewed_records = []
        for i, f in enumerate(frames):
            true_ts = 5_000 * (i + 1)
            local = int(round(true_ts * (1 + 80e-6)))
            skewed_records.append(record_for(f, 1, local, txid=i + 1))
        skewed = RadioTrace(1, 1, skewed_records)
        result = Unifier().unify(
            [good, skewed], perfect_bootstrap(range(2))
        )
        assert len(result.jframes) == 200
        assert all(jf.n_instances == 2 for jf in result.jframes)
        # Dispersion stays bounded: the tracker absorbs the skew.
        late = result.jframes[150:]
        assert max(jf.dispersion_us for jf in late) < 20
        # Universal time is the fleet's consensus clock, not wall clock
        # (the paper: Jigsaw's universal clock "may diverge over time with
        # respect to a true time standard").  Only the *relative* skew
        # between the two radios is observable, and it must be ~80 ppm.
        relative = result.tracks[1].skew_ppm - result.tracks[0].skew_ppm
        assert relative == pytest.approx(-80, abs=20)

    def test_without_resync_skew_breaks_unification(self):
        """Ablation: huge resync threshold (never resync) plus a small
        window makes the skewed radio's frames split off — the failure mode
        Section 4.2 motivates resynchronization with."""
        frames = [data_frame(seq=i % 4096, body=bytes([i % 251]) * 8)
                  for i in range(200)]
        good = RadioTrace(0, 1, [
            record_for(f, 0, 5_000 * (i + 1), txid=i + 1)
            for i, f in enumerate(frames)
        ])
        skewed = RadioTrace(1, 1, [
            record_for(f, 1, int(round(5_000 * (i + 1) * (1 + 80e-6))),
                       txid=i + 1)
            for i, f in enumerate(frames)
        ])
        result = Unifier(
            search_window_us=60,
            resync_threshold_us=1e12,
            compensate_skew=False,
        ).unify([good, skewed], perfect_bootstrap(range(2)))
        split = sum(1 for jf in result.jframes if jf.n_instances == 1)
        assert split > 90  # most frames no longer unify

    def test_resync_stat_counted(self):
        frames = [data_frame(seq=i, body=bytes([i]) * 4) for i in range(50)]
        a = RadioTrace(0, 1, [
            record_for(f, 0, 20_000 * (i + 1), txid=i) for i, f in enumerate(frames)
        ])
        b = RadioTrace(1, 1, [
            record_for(f, 1, 20_000 * (i + 1) + 15, txid=i)
            for i, f in enumerate(frames)
        ])
        result = Unifier(resync_threshold_us=10).unify(
            [a, b], perfect_bootstrap(range(2))
        )
        assert result.stats.resyncs > 0


@pytest.fixture(scope="module")
def unified_small():
    from repro.sim import ScenarioConfig, run_scenario

    artifacts = run_scenario(ScenarioConfig.small(seed=42))
    bootstrap = bootstrap_synchronization(
        artifacts.radio_traces, clock_groups=artifacts.clock_groups()
    )
    result = Unifier().unify(artifacts.radio_traces, bootstrap)
    return artifacts, bootstrap, result


class TestSimulatorIntegration:
    def test_bootstrap_covers_fleet(self, unified_small):
        _, bootstrap, _ = unified_small
        assert bootstrap.fully_synchronized

    def test_unification_against_oracle(self, unified_small):
        """Each multi-radio-observed transmission should unify into exactly
        one jframe: compare against the simulator's txid oracle."""
        artifacts, _, result = unified_small
        from collections import defaultdict

        by_txid = defaultdict(list)
        for jf in result.jframes:
            if jf.kind is JFrameKind.VALID and jf.truth_txid():
                by_txid[jf.truth_txid()].append(jf)
        split = sum(1 for frames in by_txid.values() if len(frames) > 1)
        assert split / max(1, len(by_txid)) < 0.02

    def test_dispersion_mostly_tight(self, unified_small):
        """Figure 4's qualitative shape: the large majority of jframes see
        worst-case inter-radio offsets within tens of microseconds."""
        _, _, result = unified_small
        dispersions = sorted(result.dispersions_us())
        assert dispersions
        p90 = dispersions[int(0.9 * len(dispersions)) - 1]
        assert p90 < 40.0

    def test_events_per_jframe_above_one(self, unified_small):
        _, _, result = unified_small
        assert result.stats.events_per_jframe > 1.5

    def test_no_records_lost(self, unified_small):
        artifacts, _, result = unified_small
        total_records = sum(len(t) for t in artifacts.radio_traces)
        assert (
            result.stats.instances_unified
            + result.stats.records_skipped_unsynchronized
            == total_records
        )


# --------------------------------------------------------------------------
# Campus inputs: building stamps split the merge into (building, channel)
# shards
# --------------------------------------------------------------------------

N_BUILDINGS = 4


def stripped(traces):
    """The same records with the locality stamps removed (legacy input)."""
    return [RadioTrace(t.radio_id, t.channel, t.records) for t in traces]


def shard_ids(shards):
    return [[t.radio_id for t in shard] for shard in shards]


@pytest.fixture(scope="module")
def campus():
    from repro.sim.campus import run_campus
    from repro.sim.registry import scenario_config

    return run_campus(
        scenario_config("campus", "tiny", seed=17, n_buildings=N_BUILDINGS)
    )


@pytest.fixture(scope="module")
def campus_bootstrap(campus):
    result = bootstrap_synchronization(
        campus.traces, clock_groups=campus.clock_groups
    )
    # Stamped fleets default to island_mode="local": every building is
    # its own expected reference island, nobody gets quarantined off a
    # "primary" building's timeline.
    assert result.quarantined == {}
    assert sorted(len(i) for i in result.islands) == sorted(
        len([t for t in campus.traces if t.building_id == b])
        for b in range(N_BUILDINGS)
    )
    return result


class TestCampusLocality:
    def test_campus_shards_are_building_major(self, campus):
        shards = partition_traces(campus.traces)
        buildings = []
        for shard in shards:
            in_shard = {t.building_id for t in shard}
            assert len(in_shard) == 1, "a shard never spans buildings"
            buildings.append(in_shard.pop())
        assert buildings == sorted(buildings)
        assert len(set(buildings)) == N_BUILDINGS
        # Every (building, channel) pair with records lives in a shard.
        pairs = {(t.building_id, t.channel) for t in campus.traces if len(t)}
        assert len(shards) >= len(pairs)

    def test_legacy_traces_fall_back_to_channels(self, campus):
        shards = partition_traces(stripped(campus.traces))
        assert len(shards) < len(partition_traces(campus.traces))
        stamps = {t.radio_id: t.building_id for t in campus.traces}
        assert any(
            len({stamps[t.radio_id] for t in shard}) > 1 for shard in shards
        )

    def test_mixed_stamps_fall_back_to_channels(self, campus):
        """Locality is all-or-nothing: one unstamped trace demotes the
        whole partition to channel-only (never a half-split)."""
        traces = list(campus.traces)
        traces[0] = RadioTrace(
            traces[0].radio_id, traces[0].channel, traces[0].records
        )
        assert shard_ids(partition_traces(traces)) == shard_ids(
            partition_traces(stripped(campus.traces))
        )

    def test_locality_confines_headless_attachment(
        self, campus, campus_bootstrap
    ):
        """The one sanctioned divergence between the stamped and legacy
        partitions: a corrupt record whose header is unparseable attaches
        to the timestamp-nearest open group *in its shard*.  Channel-only
        shards can pick a group from another building; (building,
        channel) shards cannot, so the stamped merge emits at least as
        many jframes (the strays front their own groups).
        Re-partitioning only moves records between groups — it never
        drops or duplicates one — so the instance count is conserved."""
        stamped = Unifier().unify(campus.traces, campus_bootstrap)
        legacy = Unifier().unify(stripped(campus.traces), campus_bootstrap)
        assert len(stamped.jframes) >= len(legacy.jframes)

        def instances(result):
            return sum(len(jf.instances) for jf in result.jframes)

        assert instances(stamped) == instances(legacy)

    def test_campus_stream_matches_batch(self, campus, campus_bootstrap):
        batch = Unifier().unify(campus.traces, campus_bootstrap)
        streamed = list(
            Unifier().iter_unify(campus.traces, campus_bootstrap)
        )
        assert [
            (jf.timestamp_us, jf.channel, jf.fcs, jf.n_instances)
            for jf in streamed
        ] == [
            (jf.timestamp_us, jf.channel, jf.fcs, jf.n_instances)
            for jf in batch.jframes
        ]
