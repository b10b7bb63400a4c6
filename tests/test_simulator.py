"""Tests for the discrete-event simulator's core mechanics."""
from dataclasses import replace

import pytest

from helpers import run_query
from repro.dataflow.costs import SimCost
from repro.dataflow.kafka_sim import ReplayableLog
from repro.dataflow.messages import Record
from repro.dataflow.simulator import Simulation
from repro.nexmark.generator import topics_for_query
from repro.nexmark.queries import QUERIES
from repro.protocols import CoordinatedProtocol, NoneProtocol, UncoordinatedProtocol


def tiny(qname="q1", rate=200.0, duration=4.0, w=2, seed=0, **kw):
    topics = topics_for_query(qname, rate=rate, duration=duration, n_workers=w, seed=seed)
    return Simulation(QUERIES[qname](), w, NoneProtocol(), topics, seed=seed, **kw)


class TestBasicExecution:
    def test_all_records_reach_sink(self):
        res = tiny().run(4.0)
        assert res.telemetry.n_sinked == res.telemetry.n_source_emitted == 800

    def test_no_duplicates_without_failure(self):
        res = tiny().run(4.0)
        assert res.n_duplicate_sink_arrivals == 0 and res.n_dedup_drops == 0

    def test_latency_positive_and_bounded(self):
        res = tiny().run(4.0)
        lats = [s - i for s, i in res.telemetry.latencies]
        assert all(l > 0 for l in lats)
        assert min(lats) >= 2 * SimCost().channel_latency  # two hops

    def test_deterministic_rerun(self):
        r1, r2 = tiny().run(4.0), tiny().run(4.0)
        assert r1.sink_values() == r2.sink_values()
        assert r1.telemetry.latencies == r2.telemetry.latencies

    def test_duration_is_quiescence_time(self):
        res = tiny().run(4.0)
        assert res.duration >= 4.0

    def test_throughput_limited_by_capacity(self):
        # way-over-capacity input drains slower than its nominal duration
        res = tiny(rate=2000.0).run(4.0)
        assert res.duration > 5.0
        assert res.telemetry.n_sinked == 8000

    def test_source_partition_mismatch_rejected(self):
        topics = topics_for_query("q1", rate=10, duration=1, n_workers=3)
        with pytest.raises(ValueError, match="partitions"):
            Simulation(QUERIES["q1"](), 2, NoneProtocol(), topics)

    def test_initial_checkpoints_stored_for_all_instances(self):
        sim = tiny(w=3)
        assert sim.store.total_count() == 3 * 2  # src + map, 3 workers
        assert all(sim.store.get(i, 0).meta.kind == "initial" for i in sim.instances)


class TestChannelFifo:
    def test_per_channel_seqs_dense(self):
        sim = tiny()
        sim.run(4.0)
        for ch, n in sim.sent_seq.items():
            if ch[2] != "sink":
                assert sim.recv_seq.get(ch, 0) == n  # everything delivered

    def test_sink_arrival_order_monotone_per_channel(self):
        sim = tiny()
        res = sim.run(4.0)
        # arrivals at the sink are time-ordered overall (single collector)
        times = [t for t, _, _ in sim.sinks["sink"].arrivals]
        assert times == sorted(times)


class TestChannelLists:
    def test_every_sent_channel_is_listed(self):
        """A forward edge with a broadcast override also sends across
        workers; those channels must be listed so checkpoints record their
        counters."""
        g = QUERIES["q1"]()
        g.edges = [
            replace(e, broadcast_pred=lambda r: r.value["bidder"] % 3 == 0)
            if e.dst == "map" else e
            for e in g.edges
        ]
        topics = topics_for_query("q1", rate=200, duration=4.0, n_workers=3, seed=0)
        sim = Simulation(g, 3, UncoordinatedProtocol(1.0), topics, seed=0)
        sim.run(4.0)
        worker_chans = [ch for ch in sim.sent_seq if ch[2] not in sim.sinks]
        assert any(ch[1] != ch[3] for ch in worker_chans)  # broadcasts happened
        for ch in worker_chans:
            assert ch in sim.out_channels[(ch[0], ch[1])], ch
            assert ch in sim.in_channels[(ch[2], ch[3])], ch


class TestFailureFree:
    def test_none_protocol_takes_no_checkpoints(self):
        res = tiny().run(4.0)
        assert res.telemetry.checkpoints == [] and res.telemetry.rounds == []

    def test_none_protocol_cannot_recover(self):
        with pytest.raises(RuntimeError, match="cannot recover"):
            tiny().run(4.0, fail_at=2.0)


class TestFailureInjection:
    @pytest.mark.parametrize("protocol", ["COOR", "UNC", "CIC"])
    def test_recovery_bookkeeping_complete(self, protocol):
        res = run_query("q1", protocol, fail_at=6.0)
        rec = res.telemetry.recovery
        assert rec["t_fail"] == 6.0
        assert rec["t_detect"] > rec["t_fail"]
        assert rec["t_resume"] > rec["t_detect"]
        assert rec["restart_time"] > 0

    @pytest.mark.parametrize("protocol", ["COOR", "UNC", "CIC"])
    def test_all_records_eventually_sinked(self, protocol):
        res = run_query("q1", protocol, fail_at=6.0)
        assert len(res.sink_values()) == 4000  # every bid mapped exactly once

    def test_failure_creates_latency_spike(self):
        res = run_query("q1", "UNC", fail_at=6.0)
        lats = [(s, s - i) for s, i in res.telemetry.latencies]
        pre = max(l for s, l in lats if s < 6.0)
        post = max(l for s, l in lats if s >= 6.0)
        assert post > 10 * pre  # replayed records carry their old ingest ts

    def test_detect_delay_matches_cost_model(self):
        res = run_query("q12", "UNC", fail_at=6.0)
        rec = res.telemetry.recovery
        assert rec["t_detect"] - rec["t_fail"] == pytest.approx(SimCost().detect_delay)


class TestByteAccounting:
    def test_total_is_sum_of_parts(self):
        res = run_query("q12", "CIC", fail_at=None)
        t = res.telemetry
        assert t.total_message_bytes() == (
            t.data_payload_bytes + t.piggyback_bytes + t.marker_bytes + t.proto_msg_bytes
        )

    def test_none_has_zero_protocol_bytes(self):
        res = tiny().run(4.0)
        t = res.telemetry
        assert t.piggyback_bytes == t.marker_bytes == t.proto_msg_bytes == 0
        assert t.total_message_bytes() == t.data_payload_bytes > 0

    def test_telemetry_frames_shapes(self):
        res = run_query("q12", "UNC", fail_at=6.0)
        cf = res.telemetry.checkpoints_frame()
        assert set(cf.columns) >= {"op", "instance", "index", "ts", "kind", "duration"}


def _bids(times):
    return {"bids": ReplayableLog.from_records("bids", [
        Record(uid=f"b{i}", key=i, value={"auction": 1, "bidder": i, "price": 10.0},
               ingest_ts=ts, kind="bid")
        for i, ts in enumerate(times)
    ], 1)}


class TestSourceScheduling:
    def test_record_at_round_time_is_served_before_the_trigger(self):
        # the record at 5.0 ties with the first COOR round's timer; sources
        # are scheduled before the protocol starts, so the record pops first,
        # reaches the source before the round's trigger and is covered by
        # the round-1 source checkpoint
        sim = Simulation(QUERIES["q1"](), 1, CoordinatedProtocol(round_interval=5.0),
                         _bids([1.0, 2.0, 5.0, 6.0]))
        sim.run(8.0)
        assert sim.protocol.round_start[1] == 5.0
        src = ("src_bids", 0)
        cp = sim.store.get(src, sim.protocol.round_members[1][src])
        assert cp.meta.source_offset == 3

    def test_heap_stays_bounded_before_and_after_resume(self):
        # COOR replays nothing, so after resume the heap holds source
        # cursors, in-flight messages and timers only
        topics = topics_for_query("q1", rate=400.0, duration=20.0, n_workers=2, seed=0)
        n_records = sum(log.total_events() for log in topics.values())
        sim = Simulation(QUERIES["q1"](), 2, CoordinatedProtocol(round_interval=2.0), topics)
        peaks = {"before": [], "after": []}

        def sample(t):
            phase = "after" if "t_resume" in sim.telemetry.recovery else "before"
            peaks[phase].append(len(sim.heap))
            if t < sim.horizon:
                sim.call_at(t + 0.1, sample)

        resume = sim.protocol.on_resume

        def on_resume(t):
            resume(t)
            sample(t)

        sim.protocol.on_resume = on_resume
        sim.call_at(0.0, sample)
        res = sim.run(20.0, fail_at=6.0)
        assert len(res.sink_values()) == n_records
        for phase, sizes in peaks.items():
            assert len(sizes) > 20, phase
            assert max(sizes) < 0.01 * n_records, (phase, max(sizes))

    def test_out_of_order_partition_is_rejected(self):
        sim = Simulation(QUERIES["q1"](), 1, NoneProtocol(), _bids([1.0, 3.0, 2.0]))
        with pytest.raises(ValueError, match="ingest-time order"):
            sim.run(4.0)
