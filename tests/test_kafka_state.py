"""Unit tests for the replayable log (Kafka substitute) and the durable
checkpoint / message-log stores (Minio substitute)."""
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import DURATION, FAIL_AT, cyclic_sim, query_sim
from repro.core.config import make_protocol
from repro.dataflow.kafka_sim import ReplayableLog
from repro.dataflow.messages import Record
from repro.dataflow.simulator import Simulation
from repro.dataflow.state import Checkpoint, CheckpointStore, MessageLog
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

    @pytest.mark.parametrize("n, parts", [(0, 3), (5, 8), (10, 1), (23, 4), (64, 7)])
    def test_partitions_are_the_round_robin_deal(self, n, parts):
        rs = recs(n)
        dealt = [[] for _ in range(parts)]
        for i, r in enumerate(rs):
            dealt[i % parts].append(r)
        log = ReplayableLog.from_records("t", rs, parts)
        assert len(log.partitions) == parts
        for got, want in zip(log.partitions, dealt):
            assert type(got) is list and len(got) == len(want)
            assert all(a is b for a, b in zip(got, want))


@pytest.fixture(scope="module")
def rewound_run():
    """A Q1 UNC run with a failure. Returns the simulation, the uids each
    source sent, in order, and per source its offset and the number of
    records it had sent when the resume rewound it."""
    topics = topics_for_query("q1", rate=50, duration=4, n_workers=2, seed=1)
    sim = Simulation(QUERIES["q1"](), 2, make_protocol("UNC", 1.0, 1.0), topics)
    served, rewound = {}, {}
    on_send, on_resume = sim.protocol.on_send, sim.protocol.on_resume

    def record(t, inst, msg):
        if inst in sim.source_lanes:  # Q1's sources send one message per record
            served.setdefault(inst, []).append(msg.record.uid)
        on_send(t, inst, msg)

    def resume(t):
        for inst, lane in sim.source_lanes.items():
            rewound[inst] = (lane.recv, len(served.get(inst, ())))
        on_resume(t)

    sim.protocol.on_send, sim.protocol.on_resume = record, resume
    sim.run(4.0, fail_at=2.5)
    return sim, served, rewound


class TestSourceCursor:
    """A source's cursor is its source lane: ``recv`` is the offset into
    the partition ``part``."""

    def test_replay_same_suffix_after_restore(self, rewound_run):
        # each source serves its partition in order up to the failure, is
        # rewound to a checkpointed offset behind that point, and then
        # re-serves exactly the partition's suffix from that offset
        sim, served, rewound = rewound_run
        assert set(rewound) == set(sim.source_lanes)
        for inst, lane in sim.source_lanes.items():
            offset, n_before = rewound[inst]
            uids = [r.uid for r in lane.part]
            assert 0 < offset < n_before
            assert served[inst][:n_before] == uids[:n_before]
            assert served[inst][n_before:] == uids[offset:]

    def test_exhausted(self, rewound_run):
        # a run serves every source to the end of its partition, the
        # rewound suffix again after the failure, and nothing past it
        sim, _, _ = rewound_run
        assert sim.source_lanes
        for lane in sim.source_lanes.values():
            assert lane.recv == len(lane.part) > 0
        assert sim.telemetry.recovery["n_replay"] > 0
        total = sum(len(lane.part) for lane in sim.source_lanes.values())
        assert sim.telemetry.n_source_emitted > total


def ckpt(inst, index, state=None):
    return Checkpoint(
        instance=inst, index=index, ts=0.0, kind="local", round_id=None,
        state_bytes=10, state=state,
    )


class TestCheckpointStore:
    def test_put_get_roundtrip(self):
        st = CheckpointStore()
        st.put(ckpt(("a", 0), 0, state={"x": 1}))
        assert st.get(("a", 0), 0).state == {"x": 1}

    def test_dense_indices_enforced(self):
        # a ValueError, not an assert, so that python -O keeps the check
        st = CheckpointStore()
        st.put(ckpt(("a", 0), 0))
        for index in (5, 0):  # a gap, a repeat
            with pytest.raises(ValueError, match="not the next 1"):
                st.put(ckpt(("a", 0), index))
        st.put(ckpt(("a", 0), 1))
        assert len(st.checkpoints(("a", 0))) == 2

    def test_checkpoints_in_index_order(self):
        st = CheckpointStore()
        st.put(ckpt(("a", 0), 0))
        st.put(ckpt(("a", 0), 1))
        assert [cp.index for cp in st.checkpoints(("a", 0))] == [0, 1]
        assert st.checkpoints(("b", 0)) == []

    def test_counts(self):
        st = CheckpointStore()
        st.put(ckpt(("a", 0), 0))
        st.put(ckpt(("b", 1), 0))
        assert st.total_count() == 2

    def test_retire_keeps_the_records_and_leaves_the_live_chain(self):
        st, a = CheckpointStore(), ("a", 0)
        for i in range(4):
            st.put(ckpt(a, i, state={"i": i}))
        st.retire_above(a, 1)
        st.put(ckpt(a, 4, state={"i": 4}))
        assert [cp.index for cp in st.checkpoints(a)] == [0, 1, 2, 3, 4]
        assert [cp.index for cp in st.live(a)] == [0, 1, 4]
        assert [(cp.dead, cp.state) for cp in st.checkpoints(a)[2:4]] == [(True, None)] * 2
        assert st.get(a, 1).state == {"i": 1} and not st.get(a, 1).dead

    def test_release_drops_payloads_below_the_index_only(self):
        st, a = CheckpointStore(), ("a", 0)
        for i in range(5):
            st.put(ckpt(a, i, state={"i": i}))
        st.release_below(a, 2)
        st.release_below(a, 3)
        assert [cp.state is None for cp in st.checkpoints(a)] == [True] * 3 + [False] * 2
        assert not any(cp.dead for cp in st.checkpoints(a))


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

    def test_append_rejects_non_increasing_seq(self):
        ml = MessageLog()
        ch = ("a", 0, "b", 0)
        ml.append(ch, 1, "x")
        ml.append(ch, 2, "y")
        for seq in (2, 1):
            with pytest.raises(ValueError, match="not above"):
                ml.append(ch, seq, "z")
        ml.truncate(ch, 1)  # the sender rolled back to seq 1
        ml.append(ch, 2, "z")
        assert ml.replay_range(ch, 0, 2) == [(1, "x"), (2, "z")]

    def test_append_rejects_a_gap(self):
        ml = MessageLog()
        ch = ("a", 0, "b", 0)
        with pytest.raises(ValueError, match="gap"):
            ml.append(ch, 2, "x")  # seq 1 was never logged
        ml.append(ch, 1, "x")
        with pytest.raises(ValueError, match="gap"):
            ml.append(ch, 3, "z")
        assert ml.replay_range(ch, 0, 10) == [(1, "x")]


class TestDenseLog:
    """A channel's log holds exactly the seqs 1..sent of its lane: at the end
    of every failure run, rollback included, on every logged channel."""

    @pytest.mark.parametrize("protocol", ["UNC", "CIC"])
    @pytest.mark.parametrize("query", ["q1", "q3", "q8", "q12", "cyclic"])
    def test_log_length_is_sent_after_failure(self, query, protocol):
        if query == "cyclic":
            sim = cyclic_sim(protocol)
            res = sim.run(5.0, fail_at=3.0)
        else:
            sim = query_sim(query, protocol)
            res = sim.run(DURATION, fail_at=FAIL_AT)
        assert res.telemetry.recovery["t_resume"] > 0
        ml = sim.msg_log
        logged = set(ml.channels())
        assert logged >= {ln.ch for ln in sim.lanes.values()
                          if ln.sent and not ln.to_sink and ln.part is None}
        for ch in logged:
            sent = sim.lanes[ch].sent
            assert [s for s, _ in ml.replay_range(ch, 0, 10**9)] == list(range(1, sent + 1)), ch


#: a channel's sends: runs of consecutive seqs (start, length); each run is
#: a rollback of the sender to ``start`` (at most the seqs sent so far)
#: followed by sends from ``start + 1``
_runs = st.lists(st.tuples(st.integers(0, 20), st.integers(0, 12)), max_size=4)


@settings(max_examples=300, deadline=None)
@given(st.lists(_runs, min_size=1, max_size=3), st.integers(-1, 35), st.integers(-1, 35))
def test_replay_range_matches_linear_filter(channels, after, upto):
    ml = MessageLog()
    logged = {}
    for c, runs in enumerate(channels):
        ch = ("a", 0, "b", c)
        sent = logged.setdefault(ch, [])
        n_appends = 0
        for start, n in runs:
            start = min(start, len(sent))  # a sender rolls back, never forward
            ml.truncate(ch, start)
            sent[:] = [(s, r) for s, r in sent if s <= start]
            for seq in range(start + 1, start + n + 1):
                rec = f"{c}:{n_appends}"  # distinct per append, also for a re-sent seq
                n_appends += 1
                ml.append(ch, seq, rec)
                sent.append((seq, rec))
    for c in range(len(channels) + 1):  # the last channel has no log
        ch = ("a", 0, "b", c)
        expected = [(s, r) for s, r in logged.get(ch, []) if after < s <= upto]
        assert ml.replay_range(ch, after, upto) == expected
    assert ml.total_logged() == sum(len(sent) for sent in logged.values())
