"""Unit tests for the wire-level message model."""
from repro.dataflow.messages import (
    CKPT_META_BYTES,
    MARKER_BYTES,
    PAYLOAD_BYTES,
    Message,
    Record,
    payload_bytes_for,
    stable_hash,
)
from repro.dataflow.simulator import Simulation
from repro.nexmark.generator import topics_for_query
from repro.nexmark.queries import QUERIES
from repro.protocols import CoordinatedProtocol


def _rec(kind="bid", key=1, value=None, uid="r1", ts=1.0):
    return Record(uid=uid, key=key, value=value or {}, ingest_ts=ts, kind=kind)


class TestStableHash:
    def test_deterministic(self):
        assert stable_hash(42) == stable_hash(42)

    def test_distinct_keys_differ(self):
        assert stable_hash("a") != stable_hash("b")

    def test_nonnegative(self):
        for k in [0, -1, "x", (1, 2)]:
            assert stable_hash(k) >= 0

    def test_stable_across_types(self):
        # repr-based: ints and strings of same text must not collide silently
        assert stable_hash(1) != stable_hash("1")


class TestPayloadBytes:
    def test_known_kind(self):
        assert payload_bytes_for(_rec("bid")) == PAYLOAD_BYTES["bid"]

    def test_unknown_kind_falls_back(self):
        assert payload_bytes_for(_rec("mystery")) == PAYLOAD_BYTES["event"]

    def test_path_records_grow_with_path(self):
        short = _rec("source_node", value={"op": "source", "path": (1,)})
        long = _rec("source_node", value={"op": "source", "path": (1, 2, 3, 4)})
        assert payload_bytes_for(long) > payload_bytes_for(short)

    def test_bid_is_smallest_nexmark_payload(self):
        # Q1 has the largest CIC overhead ratio in the paper because bids
        # are the smallest records
        assert PAYLOAD_BYTES["bid"] < PAYLOAD_BYTES["person"]
        assert PAYLOAD_BYTES["bid"] < PAYLOAD_BYTES["auction"]


class TestMessage:
    def _msg(self, proto=0):
        return Message(
            seq=5,
            record=_rec(),
            lane=None,
            proto_bytes=proto,
        )

    def test_slotted_and_piggyback_unset_on_data(self):
        m = self._msg()
        assert not hasattr(m, "__dict__")
        assert m.piggyback is None

    def test_marker_seq_is_its_round(self):
        # COOR markers and coordinator triggers carry their round in seq; in
        # a failure-free run every marker belongs to the running round
        topics = topics_for_query("q3", rate=200, duration=6, n_workers=2, seed=1)
        sim = Simulation(QUERIES["q3"](), 2, CoordinatedProtocol(round_interval=1.0), topics)
        proto, seen = sim.protocol, []
        on_marker = proto.on_marker

        def record(t, inst, msg):
            seen.append((inst, msg.record, msg.seq, proto.round_id, msg.proto_bytes))
            on_marker(t, inst, msg)

        proto.on_marker = record
        sim.run(6.0)
        assert proto.round_id > 1
        assert {seq for _, _, seq, _, _ in seen} == set(range(1, proto.round_id + 1))
        for inst, record, seq, running, n_bytes in seen:
            assert record is None and seq == running
            # a source receives its coordinator's trigger, which has no bytes
            assert n_bytes == (0 if inst in sim.source_lanes else MARKER_BYTES)

    def test_marker_and_meta_sizes_positive(self):
        assert MARKER_BYTES > 0 and CKPT_META_BYTES > 0
