"""Tests for the communication-induced (HMNR) protocol (paper §III-C)."""
import pytest

from helpers import run_cyclic, run_query
from repro.dataflow.messages import Kind, Message
from repro.dataflow.simulator import Simulation
from repro.nexmark.generator import topics_for_query
from repro.nexmark.queries import QUERIES
from repro.protocols import CICProtocol


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
            kind=Kind.DATA, channel=("src_bids", 1, "wincount", 0), seq=1,
            record=None, payload_bytes=10,
            piggyback={"clock": st.clock + 3, "ckpt": st.ckpt, "taken": 0,
                       "greater": 0, "sender": s},
        )
        before = len(sim.store.checkpoints(inst))
        proto.before_process(0.5, inst, msg)
        assert len(sim.store.checkpoints(inst)) == before + 1
        assert sim.store.checkpoints(inst)[-1].meta.kind == "forced"

    def test_no_force_without_condition(self):
        sim = cic_sim("q12")
        proto = sim.protocol
        inst = ("wincount", 0)
        sender = ("src_bids", 1)
        s = proto.inst_index[sender]
        msg = Message(
            kind=Kind.DATA, channel=("src_bids", 1, "wincount", 0), seq=1,
            record=None, payload_bytes=10,
            piggyback={"clock": proto.states[inst].clock + 3, "ckpt":
                       proto.states[inst].ckpt, "taken": 0, "greater": 0, "sender": s},
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
            kind=Kind.DATA, channel=("src_bids", 1, "wincount", 0), seq=1,
            record=None, payload_bytes=10,
            piggyback={"clock": proto.states[inst].clock + 1, "ckpt":
                       proto.states[inst].ckpt, "taken": 1 << me, "greater": 0,
                       "sender": s},
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
            kind=Kind.DATA, channel=("src_bids", 1, "wincount", 0), seq=1,
            record=None, payload_bytes=10,
            piggyback={"clock": 7, "ckpt": proto.states[inst].ckpt, "taken": 0,
                       "greater": 0, "sender": s},
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
            kind=Kind.DATA, channel=("src_bids", 1, "wincount", 0), seq=1,
            record=None, payload_bytes=10,
            piggyback={"clock": 1, "ckpt": other, "taken": 0, "greater": 0,
                       "sender": s},
        )
        proto.before_process(0.5, inst, msg)
        assert proto.states[inst].ckpt[s] == 3

    def test_replayed_message_without_piggyback_is_safe(self):
        sim = cic_sim("q12")
        msg = Message(kind=Kind.DATA, channel=("src_bids", 1, "wincount", 0),
                      seq=1, record=None, payload_bytes=10, piggyback=None)
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
        kinds = {c["kind"] for c in res.telemetry.checkpoints}
        assert "local" in kinds  # forced may or may not trigger on tiny runs

    def test_features(self):
        f = CICProtocol.features
        assert f["forced_checkpoints"] and f["message_overhead"]
        assert f["inflight_logging"] and f["independent_checkpoints"]
