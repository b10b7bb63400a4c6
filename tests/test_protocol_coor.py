"""Tests for the coordinated aligned protocol (paper §III-A)."""
import pytest

from helpers import rounds_frame, run_query
from repro.dataflow.simulator import Simulation
from repro.nexmark.cyclic import cyclic_topics, reachability_graph
from repro.nexmark.generator import topics_for_query
from repro.nexmark.queries import QUERIES
from repro.protocols import CoordinatedProtocol, UnsupportedTopologyError


def coor_sim(qname="q3", interval=2.0, w=4):
    topics = topics_for_query(qname, rate=400, duration=10, n_workers=w, seed=1)
    return Simulation(QUERIES[qname](), w, CoordinatedProtocol(interval), topics, seed=0)


def coor_run(qname="q3", fail_at=None, interval=2.0, w=4):
    sim = coor_sim(qname, interval, w)
    res = sim.run(10.0, fail_at=fail_at)
    return sim, res


def round_members(sim, r):
    """inst -> its checkpoint of round ``r``, read from the store."""
    return {inst: cp for inst in sim.instances
            for cp in sim.store.checkpoints(inst) if cp.round_id == r}


def assert_aligned(sim, rounds):
    """Aligned cut: per channel, the sender's last_sent at its round-r
    snapshot equals the receiver's last_recv at its round-r snapshot."""
    for r in rounds:
        members = round_members(sim, r)
        for inst, cp in members.items():
            for ch in (ln.ch for ln in sim.out_lanes[inst]):
                dst = (ch[2], ch[3])
                if dst not in members:
                    continue  # sink channels
                assert cp.last_sent[ch] == members[dst].last_recv[ch], (r, ch)


def alignment_waits(qname="q3"):
    """``(start, end)`` of every wait, in a failure-free run, from the
    first marker an instance holds a lane for until it aligns."""
    sim = coor_sim(qname)
    proto = sim.protocol
    on_marker, since, waits = proto.on_marker, {}, []

    def record(t, inst, msg):
        on_marker(t, inst, msg)
        if inst in proto.aligning:
            since.setdefault(inst, t)
        elif inst in since:
            waits.append((since.pop(inst), t))

    proto.on_marker = record
    sim.run(10.0)
    return waits


class TestAlignment:
    def test_alignment_invariant(self):
        sim, res = coor_run("q3")
        completed = [r for r, _, _ in res.telemetry.rounds]
        assert completed and sim.protocol.last_completed == completed[-1]
        assert_aligned(sim, completed)

    def test_every_participant_snapshots_each_round(self):
        sim, res = coor_run("q3")
        assert res.telemetry.rounds
        for r, _, _ in res.telemetry.rounds:
            assert round_members(sim, r).keys() == sim.instances.keys()

    def test_rounds_complete_and_are_timed(self):
        sim, res = coor_run("q1")
        rf = rounds_frame(res.telemetry)
        assert len(rf) >= 3
        assert (rf["duration"] > 0).all()

    def test_no_channels_left_blocked(self):
        sim, res = coor_run("q3")
        assert not any(ln.blocked for ln in sim.lanes.values())
        assert sim.protocol.aligning == {}

    def test_round_ids_monotone(self):
        sim, res = coor_run("q1")
        rids = list(rounds_frame(res.telemetry)["round_id"])
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

    def test_failure_in_the_middle_of_an_alignment(self):
        """A failure while lanes are held for alignment: the failure
        releases them before recovery plans, the output is exactly-once,
        and every round after the resume is an aligned cut."""
        # the longest wait that starts after the first round and leaves
        # time for rounds after the recovery
        start, end = max((w for w in alignment_waits() if 2.0 < w[0] < 6.0),
                         key=lambda w: w[1] - w[0])
        assert end > start
        t_fail = (start + end) / 2
        sim = coor_sim("q3")
        proto, seen = sim.protocol, {}

        def held(key):
            seen[key] = (sum(ln.blocked for ln in sim.lanes.values()), len(proto.aligning))

        # scheduled before the run starts, so it pops just before the failure
        sim.call_at(t_fail, lambda t: held("at_fail"))
        plan_recovery = proto.plan_recovery

        def plan(t):
            held("at_plan")
            return plan_recovery(t)

        proto.plan_recovery = plan
        res = sim.run(10.0, fail_at=t_fail)
        assert seen["at_fail"][0] > 0 and seen["at_fail"][1] > 0
        assert seen["at_plan"][0] == 0  # released by the failure itself
        assert res.sink_values() == run_query("q3", "none").sink_values()
        assert not any(ln.blocked for ln in sim.lanes.values()) and proto.aligning == {}
        t_resume = res.telemetry.recovery["t_resume"]
        after = [r for r, start, _ in res.telemetry.rounds if start > t_resume]
        assert after
        assert_aligned(sim, after)


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
        ops = {c.instance[0] for c in res.telemetry.checkpoints}
        assert ops == {"src_bids", "map"}

    def test_round_ctrl_messages_counted(self):
        sim, res = coor_run("q1")
        assert res.telemetry.proto_msg_bytes > 0
