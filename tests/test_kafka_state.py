"""Unit tests for the replayable log (Kafka substitute) and the durable
checkpoint / message-log stores (Minio substitute)."""
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.config import make_protocol
from repro.dataflow.kafka_sim import ReplayableLog, SourceCursor
from repro.dataflow.messages import Record
from repro.dataflow.simulator import Simulation
from repro.dataflow.state import (
    CheckpointMeta,
    CheckpointStore,
    MessageLog,
    StoredCheckpoint,
)
from repro.nexmark.generator import topics_for_query
from repro.nexmark.queries import QUERIES


def recs(n):
    return [
        Record(uid=f"r{i}", key=i, value={"i": i}, ingest_ts=float(i), kind="event")
        for i in range(n)
    ]


class TestReplayableLog:
    def test_round_robin_partitioning(self):
        log = ReplayableLog.from_records("t", recs(10), 3)
        assert [len(p) for p in log.partitions] == [4, 3, 3]
        assert [r.uid for r in log.partitions[1]] == ["r1", "r4", "r7"]

    def test_partitions_time_ordered(self):
        log = ReplayableLog.from_records("t", recs(10), 3)
        for part in log.partitions:
            ts = [r.ingest_ts for r in part]
            assert ts == sorted(ts)

    def test_total_events(self):
        assert ReplayableLog.from_records("t", recs(7), 2).total_events() == 7


class TestSourceCursor:
    def test_replay_same_suffix_after_restore(self):
        log = ReplayableLog.from_records("t", recs(6), 1)
        cur = SourceCursor(log, 0)
        part = log.partitions[cur.partition]
        for _ in range(3):
            cur.advance()
        snap = cur.snapshot()
        assert snap == 3

        def drain3():
            out = []
            for _ in range(3):
                out.append(part[cur.offset].uid)
                cur.advance()
            return out

        rest = drain3()
        assert cur.offset == len(part)
        cur.restore(snap)
        assert cur.offset == 3
        assert drain3() == rest == ["r3", "r4", "r5"]

    def test_exhausted(self):
        # a run serves every cursor to the end of its partition, the
        # rewound suffix again after the failure, and nothing past it
        topics = topics_for_query("q1", rate=50, duration=4, n_workers=2, seed=1)
        sim = Simulation(QUERIES["q1"](), 2, make_protocol("UNC", 1.0, 1.0), topics)
        sim.run(4.0, fail_at=2.5)
        assert sim.cursors
        for cur in sim.cursors.values():
            assert cur.offset == len(cur.log.partitions[cur.partition]) > 0
        assert sim.telemetry.recovery["n_replay"] > 0
        total = sum(log.total_events() for log in topics.values())
        assert sim.telemetry.n_source_emitted > total


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

    def test_checkpoints_in_index_order(self):
        st = CheckpointStore()
        st.put(StoredCheckpoint(meta(("a", 0), 0), None))
        st.put(StoredCheckpoint(meta(("a", 0), 1), None))
        assert [cp.meta.index for cp in st.checkpoints(("a", 0))] == [0, 1]
        assert st.checkpoints(("b", 0)) == []

    def test_counts(self):
        st = CheckpointStore()
        st.put(StoredCheckpoint(meta(("a", 0), 0), None))
        st.put(StoredCheckpoint(meta(("b", 1), 0), None))
        assert st.total_count() == 2


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
