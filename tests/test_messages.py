"""Unit tests for the wire-level message model."""
import pytest

from repro.dataflow.messages import (
    CKPT_META_BYTES,
    MARKER_BYTES,
    PAYLOAD_BYTES,
    Kind,
    Message,
    Record,
    payload_bytes_for,
    stable_hash,
)


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
            kind=Kind.DATA,
            channel=("a", 0, "b", 1),
            seq=5,
            record=_rec(),
            payload_bytes=22,
            proto_bytes=proto,
        )

    def test_slotted_and_meta_unset_on_data(self):
        m = self._msg()
        assert not hasattr(m, "__dict__")
        assert m.meta is None and m.piggyback is None

    def test_marker_and_meta_sizes_positive(self):
        assert MARKER_BYTES > 0 and CKPT_META_BYTES > 0
