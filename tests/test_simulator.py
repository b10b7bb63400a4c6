"""Tests for the discrete-event simulator's core mechanics."""
import gc
from dataclasses import replace
from types import SimpleNamespace

import pytest

from helpers import FAIL_AT, INTERVAL, W, checkpoints_frame, run_cyclic, run_query
from repro.core.config import ExperimentConfig, build, make_protocol
from repro.core.mst import measure_mst
from repro.dataflow.costs import SimCost
from repro.dataflow.graph import Edge, LogicalGraph, OperatorSpec
from repro.dataflow.kafka_sim import ReplayableLog
from repro.dataflow.messages import Record, stable_hash
from repro.dataflow.operators import FilterOp, Operator
from repro.dataflow.simulator import Simulation, gc_paused
from repro.nexmark.cyclic import reachability_graph
from repro.nexmark.generator import topics_for_query
from repro.nexmark.queries import QUERIES
from repro.protocols import CoordinatedProtocol, NoneProtocol, UncoordinatedProtocol


def tiny(qname="q1", rate=200.0, duration=4.0, w=2, seed=0, **kw):
    topics = topics_for_query(qname, rate=rate, duration=duration, n_workers=w, seed=seed)
    return Simulation(QUERIES[qname](), w, NoneProtocol(), topics, seed=seed, **kw)


class TestBasicExecution:
    def test_all_records_reach_sink(self):
        res = tiny().run(4.0)
        assert res.telemetry.n_sinked == res.telemetry.n_source_emitted == 800

    def test_no_duplicates_without_failure(self):
        res = tiny().run(4.0)
        assert res.n_duplicate_sink_arrivals == 0 and res.n_dedup_drops == 0

    def test_latency_positive_and_bounded(self):
        res = tiny().run(4.0)
        tel = res.telemetry
        lats = [s - i for s, i in zip(tel.sink_ts, tel.ingest_ts)]
        assert len(lats) == tel.n_sinked
        assert all(l > 0 for l in lats)
        assert min(lats) >= 2 * SimCost().channel_latency  # two hops

    def test_deterministic_rerun(self):
        r1, r2 = tiny().run(4.0), tiny().run(4.0)
        assert r1.sink_values() == r2.sink_values()
        assert r1.telemetry.sink_ts == r2.telemetry.sink_ts
        assert r1.telemetry.ingest_ts == r2.telemetry.ingest_ts

    def test_duration_is_quiescence_time(self):
        res = tiny().run(4.0)
        assert res.duration >= 4.0
        # no timers: the last event is a dispatch whose output reaches the
        # sink one channel latency later, and the run ends there
        assert res.duration == res.telemetry.sink_ts[-1]

    def test_throughput_limited_by_capacity(self):
        # way-over-capacity input drains slower than its nominal duration
        res = tiny(rate=2000.0).run(4.0)
        assert res.duration > 5.0
        assert res.telemetry.n_sinked == 8000

    def test_source_partition_mismatch_rejected(self):
        topics = topics_for_query("q1", rate=10, duration=1, n_workers=3)
        with pytest.raises(ValueError, match="partitions"):
            Simulation(QUERIES["q1"](), 2, NoneProtocol(), topics)

    def test_initial_checkpoints_stored_for_all_instances(self):
        sim = tiny(w=3)
        assert sim.store.total_count() == 3 * 2  # src + map, 3 workers
        assert all(sim.store.get(i, 0).kind == "initial" for i in sim.instances)


class TestChannelFifo:
    def test_per_channel_seqs_dense(self):
        sim = tiny()
        sim.run(4.0)
        assert any(ln.sent for ln in sim.lanes.values())
        for ln in sim.lanes.values():
            if ln.part is not None:
                assert ln.recv == len(ln.part) > 0, ln.ch  # every offset served
            elif ln.ch[2] != "sink":
                assert ln.recv == ln.sent, ln.ch  # everything delivered

    def test_sink_arrival_order_monotone_per_channel(self):
        sim = tiny()
        res = sim.run(4.0)
        # arrivals at the sink are time-ordered overall (single collector)
        times = list(res.telemetry.sink_ts)
        assert times == sorted(times)


class TestChannelLists:
    def test_every_sent_channel_is_listed(self):
        """A forward edge with a broadcast override also sends across
        workers; those lanes must be listed so checkpoints record their
        counters (recovery reads an instance's channels from them)."""
        g = QUERIES["q1"]()
        g.edges = [
            replace(e, broadcast_pred=lambda r: r.value["bidder"] % 3 == 0)
            if e.dst == "map" else e
            for e in g.edges
        ]
        topics = topics_for_query("q1", rate=200, duration=4.0, n_workers=3, seed=0)
        sim = Simulation(g, 3, UncoordinatedProtocol(1.0), topics, seed=0)
        sim.run(4.0)
        worker_lanes = [ln for ln in sim.lanes.values() if ln.sent and ln.ch[2] not in sim.sinks]
        assert any(ln.ch[1] != ln.ch[3] for ln in worker_lanes)  # broadcasts happened
        for ln in worker_lanes:
            ch = ln.ch
            assert ln in sim.out_lanes[(ch[0], ch[1])], ch
            assert ln in sim.in_lanes[(ch[2], ch[3])], ch
            assert ch in sim.store.get((ch[0], ch[1]), 0).last_sent, ch
            assert ch in sim.store.get((ch[2], ch[3]), 0).last_recv, ch


def _landed(w, records, **edge):
    """Run ``src -> op -> sink`` on ``w`` workers, where the first edge is
    ``Edge("src", "op", **edge)`` and record ``i`` is on partition
    ``i % w``, and return per record uid its sending worker and the ``op``
    workers its messages landed on, in send order."""
    g = LogicalGraph()
    g.add_op(OperatorSpec("src", "source", factory=Operator, source_topic="t"))
    g.add_op(OperatorSpec("op", "filter", factory=lambda: FilterOp(pred=lambda v: True)))
    g.add_op(OperatorSpec("sink", "sink"))
    g.add_edge(Edge("src", "op", **edge))
    g.add_edge(Edge("op", "sink", routing="forward"))
    records = [Record(uid=f"r{i}", key=key, value=value, ingest_ts=0.01 * i, kind="event")
               for i, (key, value) in enumerate(records)]
    sim = Simulation(g, w, NoneProtocol(), {"t": ReplayableLog.from_records("t", records, w)})
    landed = {}
    on_send = sim.protocol.on_send

    def record(t, inst, msg):
        if inst[0] == "src":
            assert msg.lane.ch[:3] == ("src", inst[1], "op") and msg.lane.w == msg.lane.ch[3]
            landed.setdefault(msg.record.uid, (inst[1], []))[1].append(msg.lane.w)
        on_send(t, inst, msg)

    sim.protocol.on_send = record
    res = sim.run(1.0)
    assert res.telemetry.n_sinked == len(records)
    return landed


class TestRouting:
    def test_forward_routes_to_same_index(self):
        landed = _landed(8, [(7, {})] * 16, routing="forward")
        assert {src for src, _ in landed.values()} == set(range(8))
        assert all(dst == [src] for src, dst in landed.values())

    def test_hash_uses_record_key_by_default(self):
        keys = [7, 11, "x", (1, 2), 0]
        landed = _landed(4, [(k, {"k": 0}) for k in keys], routing="hash")
        assert [landed[f"r{i}"][1] for i in range(len(keys))] == [
            [stable_hash(k) % 4] for k in keys]

    def test_hash_uses_key_fn(self):
        ks = [11, 3, 8, 5, 21]
        landed = _landed(4, [(0, {"k": k}) for k in ks], routing="hash",
                         key_fn=lambda r: r.value["k"])
        assert [landed[f"r{i}"][1] for i in range(len(ks))] == [[stable_hash(k) % 4] for k in ks]
        assert len({landed[f"r{i}"][1][0] for i in range(len(ks))}) > 1  # not record.key

    def test_hash_does_not_depend_on_the_sender(self):
        landed = _landed(7, [(5, {})] * 14, routing="hash")
        assert {src for src, _ in landed.values()} == set(range(7))
        assert all(dst == [stable_hash(5) % 7] for _, dst in landed.values())

    @pytest.mark.parametrize("routing", ["hash", "forward"])
    def test_broadcast_pred_reaches_every_worker(self, routing):
        ops = ["del_source", "source"] * 6
        landed = _landed(3, [(1, {"op": op}) for op in ops], routing=routing,
                         broadcast_pred=lambda r: r.value["op"] == "del_source")
        for i, op in enumerate(ops):
            src, dst = landed[f"r{i}"]
            if op == "del_source":
                assert dst == [0, 1, 2]
            else:
                assert dst == [src if routing == "forward" else stable_hash(1) % 3]


class TestFailureFree:
    def test_none_protocol_takes_no_checkpoints(self):
        res = tiny().run(4.0)
        assert res.telemetry.checkpoints == [] and res.telemetry.rounds == []

    def test_none_protocol_cannot_recover(self):
        with pytest.raises(RuntimeError, match="cannot recover"):
            tiny().run(4.0, fail_at=2.0)


class TestFailureInjection:
    @pytest.mark.parametrize("protocol", ["COOR", "UNC", "CIC"])
    def test_recovery_bookkeeping_complete(self, protocol):
        res = run_query("q1", protocol, fail_at=6.0)
        rec = res.telemetry.recovery
        assert rec["t_fail"] == 6.0
        assert rec["t_detect"] > rec["t_fail"]
        assert rec["t_resume"] > rec["t_detect"]
        assert rec["restart_time"] > 0

    @pytest.mark.parametrize("protocol", ["COOR", "UNC", "CIC"])
    def test_all_records_eventually_sinked(self, protocol):
        res = run_query("q1", protocol, fail_at=6.0)
        assert len(res.sink_values()) == 4000  # every bid mapped exactly once

    def test_failure_creates_latency_spike(self):
        res = run_query("q1", "UNC", fail_at=6.0)
        tel = res.telemetry
        lats = [(s, s - i) for s, i in zip(tel.sink_ts, tel.ingest_ts)]
        pre = max(l for s, l in lats if s < 6.0)
        post = max(l for s, l in lats if s >= 6.0)
        assert post > 10 * pre  # replayed records carry their old ingest ts

    def test_failure_drops_every_pending_event(self):
        """A callback, a dispatch's ``proc`` and an ``arrive`` pending when
        the failure happens never run; the detection it schedules does."""
        sim = tiny(rate=2000.0, duration=2.0)  # over capacity: workers stay busy
        sim.protocol = UncoordinatedProtocol(0.5)
        sim.protocol.bind(sim)
        pending, ran, enqueued = {}, [], []
        enqueue = sim._enqueue

        def fail_when_all_pending(t):
            """Fail at the first sample with both a non-sink ``proc`` and
            an ``arrive`` pending."""
            procs = [m for ev in sim.heap if ev[2] == "proc"
                     for m in sim.current[ev[-1]] if not m.lane.to_sink]
            arrivals = [ev[-1] for ev in sim.heap if ev[2] == "arrive"]
            if not (procs and arrivals):
                sim.call_at(t + 1e-4, fail_when_all_pending)
                return
            pending.update(proc=procs, arrive=arrivals)
            sim.call_at(t + 0.01, ran.append)  # a callback due after the failure
            sim._fail(t)

        def on_enqueue(t, msg):
            enqueued.append(msg)
            enqueue(t, msg)

        sim._enqueue = on_enqueue
        sim.call_at(0.5, fail_when_all_pending)
        res = sim.run(2.0)
        rec = res.telemetry.recovery
        assert pending and ran == []
        stale = {id(m) for msgs in pending.values() for m in msgs}
        assert not any(id(m) in stale for m in enqueued)
        assert rec["t_detect"] == rec["t_fail"] + sim.cost.detect_delay
        assert rec["t_resume"] > rec["t_detect"]
        assert len(res.sink_values()) == 4000

    def test_detect_delay_matches_cost_model(self):
        res = run_query("q12", "UNC", fail_at=6.0)
        rec = res.telemetry.recovery
        assert rec["t_detect"] - rec["t_fail"] == pytest.approx(SimCost().detect_delay)


class TestByteAccounting:
    def test_total_is_sum_of_parts(self):
        res = run_query("q12", "CIC", fail_at=None)
        t = res.telemetry
        assert t.total_message_bytes() == (
            t.data_payload_bytes + t.piggyback_bytes + t.marker_bytes + t.proto_msg_bytes
        )

    def test_none_has_zero_protocol_bytes(self):
        res = tiny().run(4.0)
        t = res.telemetry
        assert t.piggyback_bytes == t.marker_bytes == t.proto_msg_bytes == 0
        assert t.total_message_bytes() == t.data_payload_bytes > 0

    def test_telemetry_frames_shapes(self):
        res = run_query("q12", "UNC", fail_at=6.0)
        cf = checkpoints_frame(res.telemetry)
        assert set(cf.columns) >= {"op", "instance", "index", "ts", "kind", "duration"}


#: cached failure runs: (graph builder, run) per case
_FAILURE_RUNS = {
    "q3-COOR": (QUERIES["q3"], lambda: run_query("q3", "COOR", fail_at=FAIL_AT)),
    "q3-UNC": (QUERIES["q3"], lambda: run_query("q3", "UNC", fail_at=FAIL_AT)),
    "q3-CIC": (QUERIES["q3"], lambda: run_query("q3", "CIC", fail_at=FAIL_AT)),
    "cyclic-CIC": (reachability_graph, lambda: run_cyclic("CIC", fail_at=3.0, deletions=True)),
}


@pytest.mark.parametrize("case", sorted(_FAILURE_RUNS))
class TestDerivedRecords:
    """Telemetry views are the records the simulator already keeps."""

    def test_checkpoints_are_the_stores_counted_metas(self, case):
        graph_of, run = _FAILURE_RUNS[case]
        res, graph = run(), graph_of()
        proto = make_protocol(case.split("-")[1], INTERVAL, INTERVAL)
        taken = res.telemetry.checkpoints
        assert taken and [m.ts for m in taken] == sorted(m.ts for m in taken)
        insts = [(op, w) for op, spec in graph.ops.items() if not spec.is_sink for w in range(W)]
        # counts_in_totals reads only the graph and the instances' classes
        proto.sim = SimpleNamespace(
            graph=graph, instances={inst: graph.ops[inst[0]].factory() for inst in insts}
        )
        assert {m.instance for m in taken} <= set(insts)
        for inst in insts:
            stored = res.store.checkpoints(inst)
            assert [m.kind == "initial" for m in stored] == [True] + [False] * (len(stored) - 1)
            expected = stored[1:] if proto.counts_in_totals(inst) else []
            mine = [m for m in taken if m.instance == inst]
            assert len(mine) == len(expected)
            assert all(a is b for a, b in zip(mine, expected)), inst

    def test_sinked_counts_the_sink_output(self, case):
        res = _FAILURE_RUNS[case][1]()
        assert res.n_duplicate_sink_arrivals > 0  # the failure re-delivered records
        assert res.telemetry.n_sinked == sum(len(v) for v in res.sink_results.values())


def _bids(times):
    return {"bids": ReplayableLog.from_records("bids", [
        Record(uid=f"b{i}", key=i, value={"auction": 1, "bidder": i, "price": 10.0},
               ingest_ts=ts, kind="bid")
        for i, ts in enumerate(times)
    ], 1)}


class TestSourceScheduling:
    def test_record_at_round_time_is_served_before_the_trigger(self):
        # the record at 5.0 ties with the first COOR round's timer; sources
        # are scheduled before the protocol starts, so the record pops first,
        # reaches the source before the round's trigger and is covered by
        # the round-1 source checkpoint
        sim = Simulation(QUERIES["q1"](), 1, CoordinatedProtocol(round_interval=5.0),
                         _bids([1.0, 2.0, 5.0, 6.0]))
        res = sim.run(8.0)
        assert res.telemetry.rounds[0][:2] == (1, 5.0)
        [cp] = [cp for cp in sim.store.checkpoints(("src_bids", 0)) if cp.round_id == 1]
        assert cp.last_recv[("__src__", 0, "src_bids", 0)] == 3

    def test_heap_stays_bounded_before_and_after_resume(self):
        # COOR replays nothing, so after resume the heap holds source
        # cursors, in-flight messages and timers only
        topics = topics_for_query("q1", rate=400.0, duration=20.0, n_workers=2, seed=0)
        n_records = sum(log.total_events() for log in topics.values())
        sim = Simulation(QUERIES["q1"](), 2, CoordinatedProtocol(round_interval=2.0), topics)
        peaks = {"before": [], "after": []}

        def sample(t):
            phase = "after" if "t_resume" in sim.telemetry.recovery else "before"
            peaks[phase].append(len(sim.heap))
            if t < sim.horizon:
                sim.call_at(t + 0.1, sample)

        resume = sim.protocol.on_resume

        def on_resume(t):  # arming at start and at resume: (re)start sampling
            resume(t)
            sample(t)

        sim.protocol.on_resume = on_resume
        res = sim.run(20.0, fail_at=6.0)
        assert len(res.sink_values()) == n_records
        for phase, sizes in peaks.items():
            assert len(sizes) > 20, phase
            assert max(sizes) < 0.01 * n_records, (phase, max(sizes))

    def test_out_of_order_partition_is_rejected(self):
        sim = Simulation(QUERIES["q1"](), 1, NoneProtocol(), _bids([1.0, 3.0, 2.0]))
        with pytest.raises(ValueError, match="ingest-time order"):
            sim.run(4.0)


class TestLanes:
    @pytest.mark.parametrize("protocol", ["COOR", "UNC", "CIC"])
    def test_resume_restores_lane_counters_and_drops_queued(self, protocol):
        """At resume every lane holds the restored line's counters, and no
        message queued before the failure is left to dispatch."""
        topics = topics_for_query("q3", rate=400.0, duration=10.0, n_workers=W, seed=1)
        sim = Simulation(QUERIES["q3"](), W, make_protocol(protocol, INTERVAL, INTERVAL),
                         topics, seed=0)
        proto, seen = sim.protocol, {}
        plan_recovery, on_resume = proto.plan_recovery, proto.on_resume

        def plan(t):
            seen["queued"] = sum(len(ln.q) for ln in sim.lanes.values())
            seen["plan"] = plan_recovery(t)
            return seen["plan"]

        def resume(t):
            if "plan" not in seen:  # arming at t = 0, before any failure
                return on_resume(t)
            t_fail = sim.telemetry.recovery["t_fail"]
            line = seen["plan"].line
            for inst, idx in line.items():
                cp = sim.store.get(inst, idx)
                assert {ch: sim.lanes[ch].sent for ch in cp.last_sent} == cp.last_sent
                assert {ch: sim.lanes[ch].recv for ch in cp.last_recv} == cp.last_recv
            # a source's offset is its source lane's counter in the checkpoint
            for inst, lane in sim.source_lanes.items():
                assert lane.recv == sim.store.get(inst, line[inst]).last_recv[lane.ch]
            assert all(m.arr > t_fail for ln in sim.lanes.values() for m in ln.q)
            seen["resumed"] = True
            on_resume(t)

        proto.plan_recovery, proto.on_resume = plan, resume
        res = sim.run(10.0, fail_at=FAIL_AT)
        assert seen["resumed"] and res.telemetry.recovery["t_resume"] > FAIL_AT
        assert seen["queued"] == 0  # the failure emptied every lane

    def test_message_lane_is_its_channel(self):
        sim = tiny()
        sent = []
        on_send = sim.protocol.on_send

        def record(t, inst, msg):
            sent.append((inst, msg))
            on_send(t, inst, msg)

        sim.protocol.on_send = record
        sim.run(4.0)
        assert sent and all(sim.lanes[m.lane.ch] is m.lane for _, m in sent)
        assert all((m.lane.ch[0], m.lane.ch[1]) == inst for inst, m in sent)
        assert all(m.lane.inst == (m.lane.ch[2], m.lane.ch[3]) for _, m in sent)
        assert all(m.lane.to_sink == (m.lane.ch[2] in sim.sinks) for _, m in sent)


class TestHeadHeaps:
    @pytest.mark.parametrize("cfg", [
        ExperimentConfig(query="q3", protocol="UNC", workers=3, rate=1000.0, duration=8.0,
                         fail_at=5.0, seed=7),
        ExperimentConfig(query="q8", protocol="COOR", workers=3, rate=1000.0, duration=8.0,
                         fail_at=5.0, hot_ratio=0.3, seed=7),
        ExperimentConfig(query="cyclic", protocol="CIC", workers=3, rate=200.0, duration=8.0,
                         fail_at=5.0, n_nodes=1000, seed=7),
    ], ids=["q3-UNC", "q8-COOR-hot", "cyclic-CIC"])
    def test_every_entry_is_a_ready_lane_of_its_worker(self, cfg):
        """Between events, each ``heads[w]`` entry is a ready lane of worker
        ``w`` and each ready lane has exactly one entry, so ``_dispatch``
        never pops a stale entry and a message may skip the head heap of
        a worker whose heap is empty."""
        sim = build(cfg)
        seen = {"samples": 0, "entries": 0}

        def sample(t):
            entries = [(w, lane) for w, heads in enumerate(sim.heads) for _, _, lane in heads]
            assert all(lane.ready and lane.w == w for w, lane in entries)
            ready = [lane for lane in sim.lanes.values() if lane.ready]
            assert len({id(lane) for _, lane in entries}) == len(entries) == len(ready)
            seen["samples"] += 1
            seen["entries"] += len(entries)
            if t < sim.horizon:
                sim.call_at(t + 0.05, sample)

        sim.call_at(0.0, sample)
        sim.run(cfg.duration, fail_at=cfg.fail_at)
        assert seen["samples"] > 100 and seen["entries"] > 0


#: every (query, protocol) pair the simulator runs, each without and (if
#: the protocol can recover) with a failure
_MEMORY_CASES = [
    (query, protocol, fail_at)
    for query in ("q1", "q3", "q8", "q12", "cyclic")
    for protocol in ("none", "COOR", "UNC", "CIC")
    if not (query == "cyclic" and protocol == "COOR")
    for fail_at in ((None,) if protocol == "none" else (None, 3.5))
]


def _small_cfg(query, protocol, fail_at=None):
    return ExperimentConfig(query=query, protocol=protocol, workers=2,
                            rate=100.0 if query == "cyclic" else 300.0, duration=6.0,
                            fail_at=fail_at, seed=3, coor_interval=1.5, n_nodes=500)


def _cycles_left_by(work) -> int:
    """Unreachable objects in reference cycles that ``work()`` leaves
    behind. It runs with the collector disabled, so no automatic collection
    frees a cycle before it is counted."""
    gc.collect()
    gc.disable()
    try:
        work()
        return gc.collect()
    finally:
        gc.enable()


class TestMemoryModel:
    """Build, run and drop leave no reference cycle, which is what makes
    pausing the cyclic collector in ``build`` and ``run`` safe."""

    @pytest.mark.parametrize("query,protocol,fail_at", _MEMORY_CASES)
    def test_build_run_drop_leaves_no_cyclic_garbage(self, query, protocol, fail_at):
        cfg = _small_cfg(query, protocol, fail_at)
        assert _cycles_left_by(lambda: build(cfg).run(cfg.duration, fail_at=cfg.fail_at)) == 0

    @pytest.mark.parametrize("query,protocol", [("q8", "COOR"), ("cyclic", "CIC")])
    def test_cold_mst_probe_leaves_no_cyclic_garbage(self, query, protocol):
        measure_mst.cache_clear()
        assert _cycles_left_by(lambda: measure_mst(query, protocol, 2)) == 0


def _raise_max_events():
    tiny().run(4.0, max_events=10)


def _raise_out_of_order():
    Simulation(QUERIES["q1"](), 1, NoneProtocol(), _bids([1.0, 3.0, 2.0])).run(4.0)


@pytest.fixture(params=[True, False], ids=["enabled", "disabled"])
def collector(request):
    """The collector's state on entry: enabled, or disabled by the caller."""
    (gc.enable if request.param else gc.disable)()
    yield request.param
    gc.enable()


class TestCollectorState:
    """``build`` and ``run`` pause the cyclic collector and leave it as they
    found it: enabled again, or still disabled by the caller."""

    def test_build_and_run_restore_it(self, collector):
        cfg = _small_cfg("q3", "UNC", 3.5)
        sim = build(cfg)
        assert gc.isenabled() == collector
        sim.run(cfg.duration, fail_at=cfg.fail_at)
        assert gc.isenabled() == collector

    @pytest.mark.parametrize("run, error", [(_raise_max_events, RuntimeError),
                                            (_raise_out_of_order, ValueError)],
                             ids=["max_events", "out_of_order"])
    def test_a_run_that_raises_restores_it(self, collector, run, error):
        with pytest.raises(error):
            run()
        assert gc.isenabled() == collector

    def test_nested_pauses_restore_it_on_the_outermost_exit(self, collector):
        with gc_paused():
            with gc_paused():
                assert not gc.isenabled()
            assert not gc.isenabled()
        assert gc.isenabled() == collector
