"""Unit tests for the replayable log (Kafka substitute) and the durable
checkpoint / message-log stores (Minio substitute)."""
import os

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dataflow.kafka_sim import ReplayableLog, SourceCursor
from repro.dataflow.messages import Record
from repro.dataflow.state import (
    CheckpointMeta,
    CheckpointStore,
    MessageLog,
    StoredCheckpoint,
)


def recs(n):
    return [
        Record(uid=f"r{i}", key=i, value={"i": i}, ingest_ts=float(i), kind="event")
        for i in range(n)
    ]


class TestReplayableLog:
    def test_round_robin_partitioning(self):
        log = ReplayableLog.from_records("t", recs(10), 3)
        assert [log.size(p) for p in range(3)] == [4, 3, 3]

    def test_partitions_time_ordered(self):
        log = ReplayableLog.from_records("t", recs(10), 3)
        for p in range(3):
            ts = [log.read(p, i).ingest_ts for i in range(log.size(p))]
            assert ts == sorted(ts)

    def test_key_partitioning_groups_keys(self):
        rs = recs(20)
        log = ReplayableLog.from_records("t", rs, 4, partition_by_key=True)
        for p in range(4):
            for i in range(log.size(p)):
                r = log.read(p, i)
                from repro.dataflow.messages import stable_hash
                assert stable_hash(r.key) % 4 == p

    def test_read_past_end_is_none(self):
        log = ReplayableLog.from_records("t", recs(2), 1)
        assert log.read(0, 99) is None

    def test_total_events(self):
        assert ReplayableLog.from_records("t", recs(7), 2).total_events() == 7


class TestSourceCursor:
    def test_replay_same_suffix_after_restore(self):
        log = ReplayableLog.from_records("t", recs(6), 1)
        cur = SourceCursor(log, 0)
        seen1 = []
        for _ in range(3):
            seen1.append(cur.peek().uid)
            cur.advance()
        snap = cur.snapshot()

        def drain3():
            out = []
            for _ in range(3):
                out.append(cur.peek().uid)
                cur.advance()
            return out

        rest = drain3()
        cur.restore(snap)
        assert drain3() == rest

    def test_exhausted(self):
        log = ReplayableLog.from_records("t", recs(1), 1)
        cur = SourceCursor(log, 0)
        assert not cur.exhausted()
        cur.advance()
        assert cur.exhausted()


def meta(inst, index, ts=0.0, last_sent=None, last_recv=None):
    return CheckpointMeta(
        instance=inst, index=index, ts=ts, kind="local", round_id=None,
        state_bytes=10, last_sent=last_sent or {}, last_recv=last_recv or {},
    )


class TestCheckpointStore:
    def test_put_get_roundtrip(self):
        st = CheckpointStore()
        st.put(StoredCheckpoint(meta(("a", 0), 0), state={"x": 1}))
        assert st.get(("a", 0), 0).state == {"x": 1}

    def test_dense_indices_enforced(self):
        st = CheckpointStore()
        st.put(StoredCheckpoint(meta(("a", 0), 0), None))
        with pytest.raises(AssertionError):
            st.put(StoredCheckpoint(meta(("a", 0), 5), None))

    def test_latest(self):
        st = CheckpointStore()
        st.put(StoredCheckpoint(meta(("a", 0), 0), None))
        st.put(StoredCheckpoint(meta(("a", 0), 1), None))
        assert st.latest(("a", 0)).meta.index == 1
        assert st.latest(("b", 0)) is None

    def test_counts(self):
        st = CheckpointStore()
        st.put(StoredCheckpoint(meta(("a", 0), 0), None))
        st.put(StoredCheckpoint(meta(("b", 1), 0), None))
        assert st.total_count() == 2
        assert st.counts_by_kind() == {"local": 2}
        assert st.instances() == [("a", 0), ("b", 1)]

    def test_spill_to_disk(self, tmp_path):
        st = CheckpointStore(spill_dir=str(tmp_path))
        st.put(StoredCheckpoint(meta(("op", 2), 0), state={"k": 3}))
        files = os.listdir(tmp_path)
        assert files == ["op-2-0.pkl"]


class TestMessageLog:
    def test_replay_range_inclusive_exclusive(self):
        ml = MessageLog()
        ch = ("a", 0, "b", 0)
        for s in range(1, 6):
            ml.append(ch, s, f"m{s}")
        assert [s for s, _ in ml.replay_range(ch, 2, 4)] == [3, 4]

    def test_replay_range_empty_channel(self):
        assert MessageLog().replay_range(("x", 0, "y", 0), 0, 10) == []

    def test_replay_preserves_order(self):
        ml = MessageLog()
        ch = ("a", 0, "b", 0)
        for s in [1, 2, 3, 4]:
            ml.append(ch, s, s * 10)
        assert [r for _, r in ml.replay_range(ch, 0, 4)] == [10, 20, 30, 40]

    def test_total_and_channels(self):
        ml = MessageLog()
        ml.append(("a", 0, "b", 0), 1, "x")
        ml.append(("a", 0, "c", 0), 1, "y")
        assert ml.total_logged() == 2
        assert len(ml.channels()) == 2


#: a channel's sends: runs of consecutive seqs (start, length); a run that
#: starts below the last logged seq is the re-send after a rollback
_runs = st.lists(st.tuples(st.integers(0, 20), st.integers(0, 12)), max_size=4)


@settings(max_examples=300, deadline=None)
@given(st.lists(_runs, min_size=1, max_size=3), st.integers(-1, 35), st.integers(-1, 35))
def test_replay_range_matches_linear_filter(channels, after, upto):
    ml = MessageLog()
    logged = {}
    for c, runs in enumerate(channels):
        ch = ("a", 0, "b", c)
        sent = logged.setdefault(ch, [])
        for start, n in runs:
            for seq in range(start + 1, start + n + 1):
                rec = f"{c}:{len(sent)}"  # distinct per append, also for a re-sent seq
                ml.append(ch, seq, rec)
                sent.append((seq, rec))
    for c in range(len(channels) + 1):  # the last channel has no log
        ch = ("a", 0, "b", c)
        expected = [(s, r) for s, r in logged.get(ch, []) if after < s <= upto]
        assert ml.replay_range(ch, after, upto) == expected
