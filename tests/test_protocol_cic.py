"""Tests for the communication-induced (HMNR) protocol (paper §III-C)."""
import pytest

from helpers import cyclic_workload, run_cyclic, run_query
from repro.dataflow.kafka_sim import ReplayableLog
from repro.dataflow.messages import Message
from repro.dataflow.simulator import Simulation
from repro.nexmark.cyclic import reachability_graph
from repro.nexmark.generator import topics_for_query
from repro.nexmark.queries import QUERIES
from repro.protocols import CICProtocol

#: the channel the hand-built messages below arrive on
CH = ("src_bids", 1, "wincount", 0)


def cic_sim(qname="q12", w=4, interval=2.0):
    topics = topics_for_query(qname, rate=400, duration=10, n_workers=w, seed=1)
    return Simulation(QUERIES[qname](), w, CICProtocol(interval), topics, seed=0)


class TestPiggyback:
    def test_piggyback_byte_model(self):
        sim = cic_sim("q1", w=4)
        # K logical non-sink ops = 2, N = 8 instances
        assert sim.protocol.piggyback_nbytes == 8 + 4 * 2 + 2 * ((8 + 7) // 8)

    def test_piggyback_grows_with_parallelism(self):
        small = cic_sim("q12", w=2).protocol.piggyback_nbytes
        big = cic_sim("q12", w=8).protocol.piggyback_nbytes
        assert big > small

    def test_every_data_message_carries_piggyback(self):
        sim = cic_sim("q12")
        res = sim.run(10.0)
        t = res.telemetry
        assert t.piggyback_bytes == t.n_data_msgs * sim.protocol.piggyback_nbytes

    def test_piggyback_is_reference_shared(self):
        """Vectors are immutable (ints/tuples) so piggybacking must not
        copy per message — this is what keeps 50-worker runs feasible."""
        sim = cic_sim("q12")
        st = sim.protocol.states[("src_bids", 0)]
        assert isinstance(st.taken, int) and isinstance(st.ckpt, tuple)

    @pytest.mark.parametrize("workload", ["q12", "cyclic"])
    def test_piggyback_matches_live_state_at_every_send(self, workload):
        """The cached piggyback is never stale: at every send it equals the
        sender's live clock and vectors, across checkpoints, forced
        checkpoints, merges and a recovery."""
        if workload == "q12":
            sim = cic_sim("q12")
        else:
            links, sources = cyclic_workload(deletions=True)
            topics = {
                "links": ReplayableLog.from_records("links", list(links), 4),
                "sources": ReplayableLog.from_records("sources", list(sources), 4),
            }
            sim = Simulation(reachability_graph(), 4, CICProtocol(1.0), topics, seed=0)
        proto, on_send, checked = sim.protocol, sim.protocol.on_send, []

        def check(t, inst, msg):
            on_send(t, inst, msg)
            st = proto.states[inst]
            live = (st.clock, st.ckpt, st.taken, st.greater, proto.inst_index[inst])
            assert msg.piggyback == live, (t, inst)
            checked.append(msg.piggyback)

        proto.on_send = check
        res = sim.run(5.0 if workload == "cyclic" else 10.0, fail_at=3.0)
        assert len(checked) == res.telemetry.n_data_msgs > 0
        assert res.telemetry.recovery["n_replay"] > 0
        assert len({pb[0] for pb in checked}) > 3  # clocks moved during the run
        assert len({id(pb) for pb in checked}) < len(checked) // 2  # and were reused


class TestForcedCheckpoints:
    def _state_after(self, sim, inst):
        return sim.protocol.states[inst]

    def test_checkpoint_advances_clock_and_resets_vectors(self):
        sim = cic_sim("q12")
        inst = ("wincount", 0)
        st = sim.protocol.states[inst]
        st.sent_to = 0b1010
        clock0 = st.clock
        sim.protocol.on_local_checkpoint(inst)
        assert st.clock == clock0 + 1
        assert st.sent_to == 0 and st.taken == 0
        me = sim.protocol.inst_index[inst]
        assert st.ckpt[me] == 1

    def test_force_condition_sent_to_sender_and_greater_clock(self):
        sim = cic_sim("q12")
        proto = sim.protocol
        inst = ("wincount", 0)
        sender = ("src_bids", 1)
        s = proto.inst_index[sender]
        st = proto.states[inst]
        st.sent_to = 1 << s  # we previously sent to the sender
        msg = Message(
            lane=sim.lanes[CH], seq=1,
            record=None,
            piggyback=(st.clock + 3, st.ckpt, 0, 0, s),
        )
        before = len(sim.store.checkpoints(inst))
        proto.before_process(0.5, inst, msg)
        assert len(sim.store.checkpoints(inst)) == before + 1
        assert sim.store.checkpoints(inst)[-1].kind == "forced"

    def test_no_force_without_condition(self):
        sim = cic_sim("q12")
        proto = sim.protocol
        inst = ("wincount", 0)
        sender = ("src_bids", 1)
        s = proto.inst_index[sender]
        msg = Message(
            lane=sim.lanes[CH], seq=1,
            record=None,
            piggyback=(proto.states[inst].clock + 3, proto.states[inst].ckpt, 0, 0, s),
        )
        before = len(sim.store.checkpoints(inst))
        proto.before_process(0.5, inst, msg)  # sent_to empty, taken empty
        assert len(sim.store.checkpoints(inst)) == before

    def test_taken_z_path_condition_forces(self):
        sim = cic_sim("q12")
        proto = sim.protocol
        inst = ("wincount", 0)
        me = proto.inst_index[inst]
        sender = ("src_bids", 1)
        s = proto.inst_index[sender]
        msg = Message(
            lane=sim.lanes[CH], seq=1,
            record=None,
            piggyback=(proto.states[inst].clock + 1, proto.states[inst].ckpt, 1 << me, 0, s),
        )
        before = len(sim.store.checkpoints(inst))
        proto.before_process(0.5, inst, msg)
        assert len(sim.store.checkpoints(inst)) == before + 1

    def test_clock_merged_from_piggyback(self):
        sim = cic_sim("q12")
        proto = sim.protocol
        inst = ("wincount", 0)
        sender = ("src_bids", 1)
        s = proto.inst_index[sender]
        msg = Message(
            lane=sim.lanes[CH], seq=1,
            record=None,
            piggyback=(7, proto.states[inst].ckpt, 0, 0, s),
        )
        proto.before_process(0.5, inst, msg)
        assert proto.states[inst].clock == 7

    def test_ckpt_vector_merged_elementwise(self):
        sim = cic_sim("q12")
        proto = sim.protocol
        inst = ("wincount", 0)
        sender = ("src_bids", 1)
        s = proto.inst_index[sender]
        other = tuple(3 if i == s else 0 for i in range(proto.n_instances))
        msg = Message(
            lane=sim.lanes[CH], seq=1,
            record=None,
            piggyback=(1, other, 0, 0, s),
        )
        proto.before_process(0.5, inst, msg)
        assert proto.states[inst].ckpt[s] == 3

    def test_ckpt_merge_not_skipped_for_a_new_tuple(self):
        """Successive vectors from one sender are all merged, even when a
        new tuple reuses the address of the previous, freed one."""
        sim = cic_sim("q12")
        proto = sim.protocol
        inst = ("wincount", 0)
        s = proto.inst_index[("src_bids", 1)]
        for k in (3, 5, 7, 9):
            ck = [0] * proto.n_instances
            ck[s] = k
            # tuple(list) takes an exact-size tuple, typically the one
            # freed in the previous iteration
            msg = Message(
                lane=sim.lanes[CH], seq=1,
                record=None, piggyback=(0, tuple(ck), 0, 0, s),
            )
            proto.before_process(0.5, inst, msg)
            del msg
        assert proto.states[inst].ckpt[s] == 9

    def test_replayed_message_without_piggyback_is_safe(self):
        sim = cic_sim("q12")
        msg = Message(lane=sim.lanes[CH], seq=1, record=None, piggyback=None)
        assert sim.protocol.before_process(0.5, ("wincount", 0), msg) == 0.0


class TestEndToEnd:
    def test_exactly_once_with_failure(self):
        base = run_query("q12", "none")
        rec = run_query("q12", "CIC", fail_at=6.0)
        assert base.sink_values() == rec.sink_values()

    def test_overhead_exceeds_unc(self):
        unc = run_query("q12", "UNC", fail_at=None)
        cic = run_query("q12", "CIC", fail_at=None)
        assert cic.telemetry.piggyback_bytes > 0 == unc.telemetry.piggyback_bytes

    def test_forced_checkpoints_counted_in_totals(self):
        res = run_cyclic("CIC", fail_at=None, duration=5.0)
        kinds = {c.kind for c in res.telemetry.checkpoints}
        assert "local" in kinds  # forced may or may not trigger on tiny runs

    def test_features(self):
        f = CICProtocol.features
        assert f["forced_checkpoints"] and f["message_overhead"]
        assert f["inflight_logging"] and f["independent_checkpoints"]
