"""Tests for the coordinated aligned protocol (paper §III-A)."""
import pytest

from helpers import run_query
from repro.dataflow.simulator import Simulation
from repro.nexmark.cyclic import cyclic_topics, reachability_graph
from repro.nexmark.generator import topics_for_query
from repro.nexmark.queries import QUERIES
from repro.protocols import CoordinatedProtocol, UnsupportedTopologyError


def coor_run(qname="q3", fail_at=None, interval=2.0, w=4):
    topics = topics_for_query(qname, rate=400, duration=10, n_workers=w, seed=1)
    sim = Simulation(QUERIES[qname](), w, CoordinatedProtocol(interval), topics, seed=0)
    res = sim.run(10.0, fail_at=fail_at)
    return sim, res


class TestAlignment:
    def test_alignment_invariant(self):
        """Aligned cut: per channel, the sender's last_sent at its round-r
        snapshot equals the receiver's last_recv at its round-r snapshot."""
        sim, res = coor_run("q3")
        proto = sim.protocol
        for r, members, _ in proto.completed_rounds:
            for inst, idx in members.items():
                meta = sim.store.get(inst, idx).meta
                for ch in sim.out_channels[inst]:
                    dst = (ch[2], ch[3])
                    if dst not in members:
                        continue  # sink channels
                    dmeta = sim.store.get(dst, members[dst]).meta
                    assert meta.last_sent[ch] == dmeta.last_recv[ch], (r, ch)

    def test_every_participant_snapshots_each_round(self):
        sim, res = coor_run("q3")
        n_participants = len(sim.protocol.participants)
        for r, members, _ in sim.protocol.completed_rounds:
            assert len(members) == n_participants

    def test_rounds_complete_and_are_timed(self):
        sim, res = coor_run("q1")
        rf = res.telemetry.rounds_frame()
        assert len(rf) >= 3
        assert (rf["duration"] > 0).all()

    def test_no_channels_left_blocked(self):
        sim, res = coor_run("q3")
        assert sim.protocol.blocked == set()

    def test_round_ids_monotone(self):
        sim, res = coor_run("q1")
        rids = list(res.telemetry.rounds_frame()["round_id"])
        assert rids == sorted(rids)


class TestMarkers:
    def test_markers_flow_on_non_sink_channels_only(self):
        sim, res = coor_run("q1")
        # q1: src->map forward channels only; sink channels get no markers
        rounds = len(res.telemetry.rounds)
        assert res.telemetry.n_marker_msgs == rounds * sim.W

    def test_shuffle_edges_broadcast_markers(self):
        sim, res = coor_run("q12")  # src -> wincount is a hash edge
        rounds = len(res.telemetry.rounds)
        assert res.telemetry.n_marker_msgs == rounds * sim.W * sim.W

    def test_marker_bytes_counted(self):
        sim, res = coor_run("q1")
        assert res.telemetry.marker_bytes > 0
        assert res.telemetry.piggyback_bytes == 0


class TestRecovery:
    def test_rolls_back_to_last_completed_round(self):
        sim, res = coor_run("q3", fail_at=6.0)
        info = res.telemetry.recovery["line_info"]
        assert info["round"] is not None

    def test_no_replay_no_invalid(self):
        sim, res = coor_run("q3", fail_at=6.0)
        rec = res.telemetry.recovery
        assert rec["n_replay"] == 0 and rec["invalid"] == 0

    def test_failure_before_first_round_restores_initial(self):
        sim, res = coor_run("q1", fail_at=0.5, interval=5.0)
        assert res.telemetry.recovery["line_info"]["round"] is None
        assert len(res.sink_values()) == 4000  # full replay from offset 0

    def test_exactly_once_after_recovery(self):
        base = run_query("q3", "none")
        rec = run_query("q3", "COOR", fail_at=6.0)
        assert base.sink_values() == rec.sink_values()


class TestCyclicRejection:
    def test_raises_on_cyclic_graph(self):
        topics = cyclic_topics(rate=50, duration=2, n_workers=2, n_nodes=500)
        with pytest.raises(UnsupportedTopologyError, match="cyclic"):
            Simulation(reachability_graph(), 2, CoordinatedProtocol(), topics)

    def test_supports_cycles_flag(self):
        assert CoordinatedProtocol.supports_cycles is False


class TestAccounting:
    def test_counts_stateless_participants(self):
        res = run_query("q1", "COOR", fail_at=None)
        ops = {c["op"] for c in res.telemetry.checkpoints}
        assert ops == {"src_bids", "map"}

    def test_round_ctrl_messages_counted(self):
        sim, res = coor_run("q1")
        assert res.telemetry.proto_msg_bytes > 0
