"""Unit tests for operator behaviours: semantics, idempotence, snapshots."""
import copy

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.dataflow.messages import Record
from repro.dataflow.operators import (
    CyclicJoinOp,
    CyclicProjectOp,
    CyclicSelectOp,
    FilterOp,
    JoinOp,
    KeyedOp,
    MapOp,
    Operator,
    WindowCountOp,
)
from repro.nexmark.cyclic import reachability_graph
from repro.nexmark.queries import QUERIES


def rec(uid, key, value, ts=0.0, kind="event"):
    return Record(uid=uid, key=key, value=value, ingest_ts=ts, kind=kind)


class TestMapFilter:
    def test_map_transforms(self):
        op = MapOp(fn=lambda v: {"x": v["x"] * 2}, out_kind="m")
        out = op.process(rec("a", 1, {"x": 3}), "src")
        assert len(out) == 1 and out[0].value == {"x": 6} and out[0].kind == "m"

    def test_map_uid_derived(self):
        op = MapOp(fn=lambda v: v, out_kind="m")
        assert op.process(rec("a", 1, {}), "src")[0].uid == "a/m"

    def test_filter_keeps(self):
        op = FilterOp(pred=lambda v: v["x"] > 0)
        assert len(op.process(rec("a", 1, {"x": 1}), "s")) == 1

    def test_filter_drops(self):
        op = FilterOp(pred=lambda v: v["x"] > 0)
        assert op.process(rec("a", 1, {"x": -1}), "s") == []

    def test_sources_are_bare_operators(self):
        # a source's records come from its partition, so the simulator never
        # calls process on a source instance; the base class refuses it
        graphs = [build() for build in QUERIES.values()] + [reachability_graph()]
        sources = [s for g in graphs for s in g.ops.values() if s.is_source]
        assert sources and all(s.factory is Operator for s in sources)
        op = Operator()
        assert op.snapshot() is None and op.state_bytes() == 0
        with pytest.raises(NotImplementedError):
            op.process(rec("a", 1, {}), "s")

    def test_stateless_ops_have_no_state(self):
        for op in [MapOp(fn=lambda v: v, out_kind="m"), FilterOp(pred=bool)]:
            assert op.state_bytes() == 0 and op.snapshot() is None
            assert not isinstance(op, KeyedOp)


def make_join():
    return JoinOp(
        left_op="L", right_op="R",
        emit=lambda l, r, w: (f"j:{l['id']}:{r['id']}", l["id"], {"l": l["id"], "r": r["id"]}),
        out_kind="pair",
    )


class TestIncrementalJoin:
    def test_no_match_no_output(self):
        j = make_join()
        assert j.process(rec("l1", 1, {"id": 1}), "L") == []

    def test_pair_emitted_on_second_arrival(self):
        j = make_join()
        j.process(rec("l1", 1, {"id": 1}), "L")
        out = j.process(rec("r1", 1, {"id": 9}), "R")
        assert [o.uid for o in out] == ["j:1:9"]

    def test_pair_emitted_once_regardless_of_order(self):
        j1, j2 = make_join(), make_join()
        a, b = rec("l1", 1, {"id": 1}), rec("r1", 1, {"id": 9})
        out1 = j1.process(a, "L") + j1.process(b, "R")
        out2 = j2.process(b, "R") + j2.process(a, "L")
        assert {o.uid for o in out1} == {o.uid for o in out2} == {"j:1:9"}

    def test_duplicate_input_is_noop(self):
        j = make_join()
        j.process(rec("l1", 1, {"id": 1}), "L")
        j.process(rec("r1", 1, {"id": 9}), "R")
        assert j.process(rec("r1", 1, {"id": 9}), "R") == []

    def test_multi_match_fanout(self):
        j = make_join()
        j.process(rec("l1", 1, {"id": 1}), "L")
        j.process(rec("l2", 1, {"id": 2}), "L")
        out = j.process(rec("r1", 1, {"id": 9}), "R")
        assert {o.uid for o in out} == {"j:1:9", "j:2:9"}

    def test_snapshot_restore_roundtrip(self):
        j = make_join()
        j.process(rec("l1", 1, {"id": 1}), "L")
        snap = j.snapshot()
        j.process(rec("r1", 1, {"id": 9}), "R")
        fp_after = j.state_fingerprint()
        j.restore(snap)
        assert j.state_fingerprint() != fp_after
        out = j.process(rec("r1", 1, {"id": 9}), "R")  # re-derivable
        assert [o.uid for o in out] == ["j:1:9"]

    def test_snapshot_is_deep(self):
        j = make_join()
        j.process(rec("l1", 1, {"id": 1}), "L")
        snap = j.snapshot()
        j.process(rec("l2", 1, {"id": 2}), "L")
        assert sum(len(v) for v in snap[0][0, 0].values()) == 1

    def test_state_bytes_grow(self):
        j = make_join()
        b0 = j.state_bytes()
        j.process(rec("l1", 1, {"id": 1}), "L")
        assert j.state_bytes() > b0

    def test_fingerprint_order_independent(self):
        j1, j2 = make_join(), make_join()
        a, b = rec("l1", 1, {"id": 1}), rec("l2", 2, {"id": 2})
        j1.process(a, "L"); j1.process(b, "L")
        j2.process(b, "L"); j2.process(a, "L")
        assert j1.state_fingerprint() == j2.state_fingerprint()

    def test_unbounded_window_joins_far_apart_records_and_never_evicts(self):
        j = make_join()
        j.process(rec("l1", 1, {"id": 1}, ts=0.0), "L")
        out = j.process(rec("r1", 1, {"id": 9}, ts=1e6), "R")
        assert [o.uid for o in out] == ["j:1:9"]
        out = j.process(rec("l2", 1, {"id": 2}, ts=0.0), "L")  # not late
        assert [o.uid for o in out] == ["j:2:9"]
        assert set(j.tables) == {(0, 0), (0, 1)} and j.max_window == 0
        # the flat (left, right) fingerprint of an unbounded join
        assert j.state_fingerprint() == (((1, ("l1", "l2")),), ((1, ("r1",)),))


def make_wjoin(window=10.0):
    return JoinOp(
        left_op="L", right_op="R",
        emit=lambda l, r, w: (f"w:{l['id']}:{r['id']}:{w}", l["id"], {"w": w}),
        out_kind="pair", window=window,
    )


class TestWindowJoin:
    def test_same_window_match(self):
        j = make_wjoin()
        j.process(rec("l1", 1, {"id": 1}, ts=3.0), "L")
        out = j.process(rec("r1", 1, {"id": 9}, ts=7.0), "R")
        assert [o.uid for o in out] == ["w:1:9:0"]

    def test_cross_window_no_match(self):
        j = make_wjoin()
        j.process(rec("l1", 1, {"id": 1}, ts=3.0), "L")
        assert j.process(rec("r1", 1, {"id": 9}, ts=13.0), "R") == []

    def test_eviction_after_horizon(self):
        j = make_wjoin()
        j.process(rec("l1", 1, {"id": 1}, ts=3.0), "L")  # window 0
        j.process(rec("l2", 1, {"id": 2}, ts=25.0), "L")  # window 2 -> evict 0
        assert [tid for tid in j.tables if tid[0] == 0] == []

    def test_late_record_for_evicted_window_dropped(self):
        j = make_wjoin()
        j.process(rec("l2", 1, {"id": 2}, ts=25.0), "L")
        assert j.process(rec("r0", 1, {"id": 9}, ts=3.0), "R") == []

    def test_duplicate_noop(self):
        j = make_wjoin()
        j.process(rec("l1", 1, {"id": 1}, ts=3.0), "L")
        assert j.process(rec("l1", 1, {"id": 1}, ts=3.0), "L") == []

    def test_snapshot_restore(self):
        j = make_wjoin()
        j.process(rec("l1", 1, {"id": 1}, ts=3.0), "L")
        snap = j.snapshot()
        j.process(rec("l2", 1, {"id": 2}, ts=25.0), "L")
        j.restore(snap)
        assert j.max_window == 0 and (0, 0) in j.tables


class TestWindowCount:
    def test_running_counts(self):
        c = WindowCountOp(window=10.0, out_kind="o")
        o1 = c.process(rec("b1", 5, {}, ts=1.0), "s")
        o2 = c.process(rec("b2", 5, {}, ts=2.0), "s")
        assert o1[0].value["count"] == 1 and o2[0].value["count"] == 2

    def test_replayed_record_not_double_counted(self):
        c = WindowCountOp(window=10.0, out_kind="o")
        c.process(rec("b1", 5, {}, ts=1.0), "s")
        assert c.process(rec("b1", 5, {}, ts=1.0), "s") == []
        out = c.process(rec("b2", 5, {}, ts=2.0), "s")
        assert out[0].value["count"] == 2

    def test_per_key_per_window(self):
        c = WindowCountOp(window=10.0, out_kind="o")
        c.process(rec("b1", 5, {}, ts=1.0), "s")
        o = c.process(rec("b2", 6, {}, ts=1.0), "s")
        assert o[0].value["count"] == 1
        o = c.process(rec("b3", 5, {}, ts=11.0), "s")
        assert o[0].value["count"] == 1 and o[0].value["window"] == 1

    def test_uid_content_addressed(self):
        c = WindowCountOp(window=10.0, out_kind="o")
        out = c.process(rec("b1", 5, {}, ts=1.0), "s")
        assert out[0].uid == "q12:5:0:1"

    def test_snapshot_restore(self):
        c = WindowCountOp(window=10.0, out_kind="o")
        c.process(rec("b1", 5, {}, ts=1.0), "s")
        snap = c.snapshot()
        c.process(rec("b2", 5, {}, ts=2.0), "s")
        c.restore(snap)
        out = c.process(rec("b2", 5, {}, ts=2.0), "s")
        assert out[0].value["count"] == 2


def make_cjoin():
    return CyclicJoinOp(link_op="L")


def link(uid, u, v, op="add_link"):
    return rec(uid, u, {"op": op, "u": u, "v": v}, kind="link")


def srcn(uid, s, path=None, op="source"):
    v = {"op": op, "s": s}
    if op == "source":
        v["path"] = tuple(path or (s,))
    return rec(uid, s, v, kind="source_node")


class TestCyclicJoin:
    def test_link_then_source_joins(self):
        j = make_cjoin()
        j.process(link("l1", 1, 2), "L")
        out = j.process(srcn("s1", 1), "S")
        assert len(out) == 1 and out[0].value["link"] == (1, 2)

    def test_source_then_link_joins(self):
        j = make_cjoin()
        j.process(srcn("s1", 1), "S")
        out = j.process(link("l1", 1, 2), "L")
        assert len(out) == 1

    def test_del_link_removes(self):
        j = make_cjoin()
        j.process(link("l1", 1, 2), "L")
        j.process(link("d1", 1, 2, op="del_link"), "L")
        assert j.process(srcn("s1", 1), "S") == []

    def test_del_source_removes_all_derived(self):
        j = make_cjoin()
        j.process(srcn("s1", 7), "S")
        j.process(srcn("s2", 7, path=(7, 3)), "S")
        j.process(srcn("d", 7, op="del_source"), "S")
        assert j.process(link("l1", 7, 9), "L") == []
        assert j.process(link("l2", 3, 9), "L") == []

    def test_pair_uid_content_addressed(self):
        j1, j2 = make_cjoin(), make_cjoin()
        o1 = (j1.process(link("l1", 1, 2), "L") or []) + j1.process(srcn("s1", 1), "S")
        o2 = (j2.process(srcn("s1", 1), "S") or []) + j2.process(link("l1", 1, 2), "L")
        assert {o.uid for o in o1} == {o.uid for o in o2}

    def test_snapshot_restore(self):
        j = make_cjoin()
        j.process(link("l1", 1, 2), "L")
        snap = j.snapshot()
        j.process(link("l2", 1, 3), "L")
        j.restore(snap)
        assert j.state_fingerprint()[0] == ((1, ((1, 2),)),)


class TestCyclicSelectProject:
    def _pair(self, path, l):
        return rec("p", l[1], {"src": path[0], "path": tuple(path), "link": tuple(l)},
                   kind="pair")

    def test_select_drops_cycles(self):
        s = CyclicSelectOp()
        assert s.process(self._pair((1, 2), (2, 1)), "j") == []

    def test_select_keeps_simple_extension(self):
        s = CyclicSelectOp()
        assert len(s.process(self._pair((1, 2), (2, 3)), "j")) == 1

    def test_select_caps_path_length(self):
        s = CyclicSelectOp()
        long_path = tuple(range(CyclicSelectOp.MAX_PATH_LEN))
        assert s.process(self._pair(long_path, (long_path[-1], 999)), "j") == []

    def test_project_extends_path(self):
        p = CyclicProjectOp()
        out = p.process(self._pair((1, 2), (2, 3)), "s")
        assert out[0].value["path"] == (1, 2, 3)
        assert out[0].uid == "path:1:1-2-3"
        assert out[0].key == 3


# ---------------------------------------------------------------------------
# Snapshot isolation. Snapshots copy only the outer tables and share every
# slot with live state until it is written, so neither later processing nor
# a restore may reach a stored snapshot through a shared slot.
# ---------------------------------------------------------------------------

#: per stateful operator: a factory, records that build state, and records
#: that then change it inside the slots the snapshot already holds
ISOLATION_CASES = {
    "incremental_join": (
        make_join,
        [(rec("l1", 1, {"id": 1}), "L"), (rec("r1", 1, {"id": 9}), "R")],
        [(rec("l2", 1, {"id": 2}), "L"), (rec("r2", 1, {"id": 8}), "R"),
         (rec("l3", 2, {"id": 3}), "L")],
    ),
    "unbounded_join": (
        make_join,
        [(rec("l1", 1, {"id": 1}, ts=0.0), "L"), (rec("r1", 1, {"id": 9}, ts=1e6), "R")],
        [(rec("l2", 1, {"id": 2}, ts=2e6), "L"), (rec("r2", 1, {"id": 8}, ts=5.0), "R"),
         (rec("l3", 2, {"id": 3}, ts=3e6), "L")],
    ),
    "window_join": (
        make_wjoin,
        [(rec("l1", 1, {"id": 1}, ts=3.0), "L"), (rec("r1", 1, {"id": 9}, ts=4.0), "R")],
        [(rec("l2", 1, {"id": 2}, ts=5.0), "L"), (rec("r2", 1, {"id": 8}, ts=6.0), "R"),
         (rec("l3", 1, {"id": 3}, ts=25.0), "L")],  # window 2 evicts window 0
    ),
    "window_count": (
        lambda: WindowCountOp(window=10.0, out_kind="o"),
        [(rec("b1", 5, {}, ts=1.0), "s"), (rec("b2", 6, {}, ts=2.0), "s")],
        [(rec("b3", 5, {}, ts=3.0), "s"), (rec("b4", 6, {}, ts=4.0), "s"),
         (rec("b5", 5, {}, ts=25.0), "s")],  # window 2 evicts window 0
    ),
    "cyclic_join": (
        make_cjoin,
        [(link("l1", 1, 2), "L"), (srcn("s1", 1), "S"), (srcn("s2", 7, path=(7, 1)), "S")],
        [(link("l2", 1, 3), "L"), (srcn("s3", 4, path=(4, 1)), "S"),
         (link("d1", 1, 2, op="del_link"), "L"), (srcn("d2", 7, op="del_source"), "S")],
    ),
}


@pytest.mark.parametrize("case", sorted(ISOLATION_CASES))
class TestSnapshotIsolation:
    def _built(self, case):
        factory, build, change = ISOLATION_CASES[case]
        op = factory()
        for r, frm in build:
            op.process(r, frm)
        return op, change

    def test_live_changes_leave_snapshot_intact(self, case):
        op, change = self._built(case)
        snap = op.snapshot()
        frozen = copy.deepcopy(snap)
        for r, frm in change:
            op.process(r, frm)
        assert snap == frozen

    def test_restore_twice_gives_same_state(self, case):
        op, change = self._built(case)
        snap = op.snapshot()
        frozen = copy.deepcopy(snap)
        op.restore(snap)
        fp = op.state_fingerprint()
        for r, frm in change:
            op.process(r, frm)
        assert op.state_fingerprint() != fp
        op.restore(snap)
        assert op.state_fingerprint() == fp
        assert snap == frozen


# ---------------------------------------------------------------------------
# CyclicJoinOp's source-id index against the full scan it replaced.
# ---------------------------------------------------------------------------


def _full_copy(table):
    return {k: slot.copy() for k, slot in table.items()}


def _scan_bytes(op):
    """The modelled state size by a full scan of ``op``'s tables: what the
    operator's running ``state_bytes`` counter must equal."""
    if isinstance(op, CyclicJoinOp):
        links = sum(len(slot) for slot in op.tables[0, 0].values())
        sources = sum(len(path) * 4 + 16 for slot in op.tables[0, 1].values() for _, path in slot)
        return 24 * links + sources
    return op.ENTRY_BYTES * sum(len(slot) for t in op.tables.values() for slot in t.values())


class ScanCyclicJoinOp(CyclicJoinOp):
    """Oracle only: deletes a source by scanning every end-node slot, and
    snapshots and restores by copying every slot, so it shares no slot with
    a stored snapshot (the semantics copy-on-write must reproduce). Its
    deletes bypass the running byte count, so its size is a full scan."""

    def process(self, record, from_op):
        v = record.value
        sources = self.tables[0, 1]
        if from_op != self.link_op and v["op"] == "del_source":
            for end in list(sources):
                for entry in [t for t in sources[end] if t[0] == v["s"]]:
                    del sources[end][entry]
            return []
        return super().process(record, from_op)

    def snapshot(self):
        return ({tid: _full_copy(t) for tid, t in self.tables.items()}, self.max_window)

    def restore(self, snap):
        super().restore(({tid: _full_copy(t) for tid, t in snap[0].items()}, snap[1]))

    def state_bytes(self):
        return _scan_bytes(self)


_node = st.integers(0, 4)
_events = (
    st.tuples(st.just("add_link"), _node, _node),
    st.tuples(st.just("del_link"), _node, _node),
    st.tuples(st.just("add_source"), _node, st.lists(_node, max_size=3)),
    st.tuples(st.just("del_source"), _node),
)
_step = st.one_of(
    *_events,
    st.tuples(st.just("snapshot")),
    st.tuples(st.just("restore"), st.integers(0, 7)),
)


def _cyclic_record(i, step):
    kind = step[0]
    if kind in ("add_link", "del_link"):
        return link(f"e{i}", step[1], step[2], op=kind), "L"
    if kind == "add_source":
        return srcn(f"e{i}", step[1], path=(step[1], *step[2])), "S"
    return srcn(f"e{i}", step[1], op="del_source"), "S"


@settings(max_examples=300, deadline=None)
@given(st.lists(_step, max_size=60))
@example([("add_source", 1, [2]), ("snapshot",), ("del_source", 1), ("add_source", 1, []),
          ("restore", 0), ("del_source", 1), ("add_source", 1, [2])])
def test_indexed_source_delete_matches_full_scan(steps):
    ops = [make_cjoin(), ScanCyclicJoinOp(link_op="L")]
    snaps = [[], []]
    for i, step in enumerate(steps):
        if step[0] == "snapshot":
            for op, kept in zip(ops, snaps):
                kept.append(op.snapshot())
        elif step[0] == "restore":
            if snaps[0]:
                for op, kept in zip(ops, snaps):
                    op.restore(kept[step[1] % len(kept)])
        else:
            r, frm = _cyclic_record(i, step)
            outs = [[o.uid for o in op.process(r, frm)] for op in ops]
            assert outs[0] == outs[1]
        assert ops[0].state_fingerprint() == ops[1].state_fingerprint()
        assert ops[0].state_bytes() == ops[1].state_bytes()
        # same slots in the same order, emptied end-node slots included
        assert list(ops[0].tables[0, 1].items()) == list(ops[1].tables[0, 1].items())


# ---------------------------------------------------------------------------
# Copy-on-write snapshots against full copies. The reference operator never
# snapshots: its "snapshot" is a deep copy of the whole operator, so it
# shares nothing with what it keeps.
# ---------------------------------------------------------------------------


def _layout(x):
    """Nested dicts as lists of items, so that equality also checks the
    insertion order at every level."""
    if isinstance(x, dict):
        return [(k, _layout(v)) for k, v in x.items()]
    if isinstance(x, tuple):
        return tuple(map(_layout, x))
    return x


_side = st.sampled_from("LR")
_idx = st.integers(0, 9)
#: a record's key and timestamp are functions of its uid, as in the real
#: streams; small pools make duplicates, and ts = 7i mod 30 spans three
#: 10 s windows, so arrivals evict windows
DIFF_CASES = {
    "incremental_join": (
        make_join,
        st.builds(lambda s, i: (rec(f"{s}{i}", i % 2, {"id": i}), s), _side, _idx),
    ),
    "unbounded_join": (
        # timestamps far apart: windows of any finite size would evict
        make_join,
        st.builds(lambda s, i: (rec(f"{s}{i}", i % 2, {"id": i}, ts=1e5 * (7 * i % 30)), s),
                  _side, _idx),
    ),
    "window_join": (
        make_wjoin,
        st.builds(lambda s, i: (rec(f"{s}{i}", i % 2, {"id": i}, ts=float(7 * i % 30)), s),
                  _side, _idx),
    ),
    "window_count": (
        lambda: WindowCountOp(window=10.0, out_kind="o"),
        st.builds(lambda i: (rec(f"b{i}", i % 2, {}, ts=float(7 * i % 30)), "s"), _idx),
    ),
    "cyclic_join": (
        # the join keys its state on content, so every event may share a uid
        make_cjoin,
        st.one_of(*_events).map(lambda s: _cyclic_record(0, s)),
    ),
}


@pytest.mark.parametrize("case", sorted(DIFF_CASES))
@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_copy_on_write_matches_full_copy(case, data):
    factory, records = DIFF_CASES[case]
    steps = data.draw(st.lists(st.one_of(
        records.map(lambda r: ("process", r)),
        st.just(("snapshot",)),
        st.integers(0, 3).map(lambda k: ("restore", k)),
    ), min_size=10, max_size=40))
    state = lambda op: (op.tables, op.max_window)
    op, ref = factory(), factory()
    kept = []  # (snapshot, its deep copy when taken, the reference then)
    for step in steps:
        if step[0] == "process":
            r, frm = step[1]
            outs = [[(o.uid, o.key, o.value) for o in x.process(r, frm)] for x in (op, ref)]
            assert outs[0] == outs[1]
        elif step[0] == "snapshot":
            snap = op.snapshot()
            assert _layout(snap) == _layout(state(ref))
            kept.append((snap, copy.deepcopy(snap), copy.deepcopy(ref)))
        elif kept:
            snap, _, then = kept[step[1] % len(kept)]
            op.restore(snap)
            ref = copy.deepcopy(then)
        assert op.state_fingerprint() == ref.state_fingerprint()
        assert op.state_bytes() == _scan_bytes(op) == _scan_bytes(ref)
        assert _layout(state(op)) == _layout(state(ref))
        for snap, frozen, _ in kept:
            assert snap == frozen


def _slots(snap):
    """Every slot of a snapshot by its path ``(table id, key)``."""
    return {(tid, k): slot for tid, table in snap[0].items() for k, slot in table.items()}


#: per ISOLATION_CASES entry: the path of the one slot the case's first
#: change record writes
DELTA_CASES = {
    "incremental_join": ((0, 0), 1),
    "unbounded_join": ((0, 0), 1),
    "window_join": ((0, 0), 1),
    "window_count": ((0, 0), 5),
    "cyclic_join": ((0, 0), 1),
}


@pytest.mark.parametrize("case", sorted(ISOLATION_CASES))
def test_copy_cost_follows_the_delta(case):
    factory, build, change = ISOLATION_CASES[case]
    written = DELTA_CASES[case]
    op = factory()
    for r, frm in build:
        op.process(r, frm)
    first_snap = op.snapshot()
    frozen = copy.deepcopy(first_snap)
    first = _slots(first_snap)
    op.process(*change[0])
    second = _slots(op.snapshot())
    # consecutive snapshots share every slot but the written one
    assert second.keys() == first.keys() and len(first) > 1
    assert [p for p in first if second[p] is not first[p]] == [written]
    # a restore shares too: the first write after it copies that slot only
    op.restore(first_snap)
    op.process(*change[0])
    third = _slots(op.snapshot())
    assert [p for p in first if third[p] is not first[p]] == [written]
    assert first_snap == frozen
