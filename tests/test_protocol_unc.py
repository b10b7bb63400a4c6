"""Tests for the uncoordinated protocol (paper §III-B)."""
from helpers import run_query
from repro.dataflow.simulator import Simulation
from repro.nexmark.generator import topics_for_query
from repro.nexmark.queries import QUERIES
from repro.protocols import UncoordinatedProtocol


def unc_run(qname="q12", fail_at=None, w=4, interval=2.0):
    topics = topics_for_query(qname, rate=400, duration=10, n_workers=w, seed=1)
    sim = Simulation(QUERIES[qname](), w, UncoordinatedProtocol(interval), topics, seed=0)
    return sim, sim.run(10.0, fail_at=fail_at)


class TestIndependentCheckpoints:
    def test_counted_participants_are_sources_and_stateful(self):
        sim, res = unc_run("q3")
        ops = {c.instance[0] for c in res.telemetry.checkpoints}
        assert ops == {"src_persons", "src_auctions", "join"}

    def test_stateless_ops_keep_counter_checkpoints(self):
        sim, res = unc_run("q3")
        # filter_p is not counted but still has stored (counter) checkpoints
        assert len(sim.store.checkpoints(("filter_p", 0))) > 1

    def test_checkpoints_spread_over_time(self):
        sim, res = unc_run("q12")
        ts = sorted(c.ts for c in res.telemetry.checkpoints)
        # independent jittered timers: not all at the same instant
        assert len({round(t, 1) for t in ts}) > 3

    def test_jitter_is_deterministic(self):
        s1, r1 = unc_run("q12")
        s2, r2 = unc_run("q12")
        assert [c.ts for c in r1.telemetry.checkpoints] == [
            c.ts for c in r2.telemetry.checkpoints
        ]


class TestMessageLogging:
    def test_worker_channels_logged(self):
        sim, res = unc_run("q12")
        assert sim.msg_log.total_logged() > 0
        for ch in sim.msg_log.channels():
            assert ch[2] != "sink"  # the external sink is never logged

    def test_log_covers_all_sent(self):
        sim, res = unc_run("q12")
        for ch in sim.msg_log.channels():
            logged = sim.msg_log.replay_range(ch, 0, 10**9)
            assert len(logged) == sim.lanes[ch].sent
            assert [s for s, _ in logged] == list(range(1, sim.lanes[ch].sent + 1))

    def test_log_matches_sent_after_rollback(self):
        """At resume each sender's log is cut back to its restored counter,
        so the re-sent messages replace the rolled-back ones."""
        sim, res = unc_run("q12", fail_at=6.0)
        assert res.telemetry.recovery["n_replay"] > 0
        for ch in sim.msg_log.channels():
            logged = sim.msg_log.replay_range(ch, 0, 10**9)
            assert [s for s, _ in logged] == list(range(1, sim.lanes[ch].sent + 1))


class TestRecovery:
    def test_replay_messages_prepared(self):
        sim, res = unc_run("q12", fail_at=6.0)
        assert res.telemetry.recovery["n_replay"] > 0

    def test_replay_intervals_respect_line(self):
        sim, res = unc_run("q12", fail_at=6.0)
        # after recovery everything is still exactly-once at the sink
        base = run_query("q12", "none")
        assert base.sink_values() == res.sink_values()

    def test_invalid_checkpoints_counted(self):
        sim, res = unc_run("q12", fail_at=6.0)
        inv = res.telemetry.recovery["invalid"]
        total = len(res.telemetry.checkpoints)
        assert 0 <= inv < total

    def test_duplicates_are_dropped_not_processed(self):
        sim, res = unc_run("q12", fail_at=6.0)
        # replay + regeneration causes duplicate sink arrivals, but the
        # deduplicated result set stays exact
        assert res.n_duplicate_sink_arrivals > 0
        assert len(res.sink_values()) == len(run_query("q12", "none").sink_values())

    def test_checkpoint_metadata_traffic_is_tiny(self):
        sim, res = unc_run("q12")
        t = res.telemetry
        assert t.proto_msg_bytes > 0
        assert t.proto_msg_bytes < 0.02 * t.data_payload_bytes

    def test_no_piggyback(self):
        sim, res = unc_run("q12")
        assert res.telemetry.piggyback_bytes == 0


class TestFeatures:
    def test_flags(self):
        f = UncoordinatedProtocol.features
        assert f["inflight_logging"] and f["dedup_required"]
        assert f["independent_checkpoints"] and f["unused_checkpoints"]
        assert not f["blocking_markers"] and not f["forced_checkpoints"]

    def test_supports_cycles(self):
        assert UncoordinatedProtocol.supports_cycles is True
