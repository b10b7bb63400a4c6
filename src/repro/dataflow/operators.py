"""Deterministic streaming-operator behaviours.

The paper's testbed implements "map, filter, window, join, aggregates"
(§IV) plus the cyclic reachability query's join/select/project (§VI).
Each class here is the per-instance behaviour object created by
``OperatorSpec.factory``.

Design rules that make exactly-once verifiable:

- **Content-addressed outputs** — every derived record's ``uid`` is a pure
  function of its logical derivation (e.g. ``q3:{person}:{auction}``), never
  of arrival order, so a record re-derived after rollback is recognisably
  the same record at the sink.
- **Idempotent keyed state** — state is dictionaries/sets keyed by content
  (the window count keeps the *set* of contributing bid uids rather than a
  bare counter), so replaying a message the state already reflects is a
  no-op. Together with the protocols' sequence-number deduplication this
  yields exactly-once *processing* (paper Def. 3): the post-recovery state
  equals the failure-free state.
- **Snapshot = copy-on-write** — asynchronous checkpointing is modelled
  by a snapshot that shares state with the live operator; cost is modelled
  separately from bytes. State is a table of *slots* (``key -> dict|set``;
  the window operators keep one table per window and side). A snapshot
  copies only the table, so it shares every slot with live state, and
  becomes the operator's *base*. The first write to a slot that is still
  the base's (:func:`_own`) replaces it by a private copy under the same
  key, so insertion order is kept at both levels and copy cost follows the
  slots written since the snapshot. ``restore`` shares the same way and
  makes the restored snapshot the base, so a stored checkpoint stays intact
  however the live state changes later. The leaves (uid strings, path
  tuples, record-value dicts) are shared as well, so **a record value held
  in state is never mutated** by any operator.
"""
from __future__ import annotations

from typing import Any, Dict, List, Tuple

from .messages import Record


def _own(table: Dict[Any, Any], base: Dict[Any, Any], key: Any) -> Any:
    """The slot ``table[key]``, safe to write: a slot that ``base`` (the
    table of the last snapshot or restore) still shares is first replaced
    by a private copy under the same key."""
    slot = table[key]
    if base.get(key) is slot:
        table[key] = slot = slot.copy()
    return slot


#: the base of a window created after the last snapshot: no slot is shared
_NO_BASE: Tuple[Dict, Dict] = ({}, {})


class Operator:
    """Base per-instance operator behaviour, and the whole behaviour of a
    source instance: the simulator serves a source's records from its
    partition and never calls ``process`` on it."""

    # -- data path ---------------------------------------------------------
    def process(self, record: Record, from_op: str) -> List[Record]:
        raise NotImplementedError

    # -- state management --------------------------------------------------
    def snapshot(self) -> Any:
        return None

    def restore(self, snap: Any) -> None:
        pass

    def state_bytes(self) -> int:
        return 0

    def state_fingerprint(self) -> Any:
        """Order-independent canonical view of state for equality tests."""
        return None


class MapOp(Operator):
    """Stateless 1->1 transformation (NexMark Q1 currency conversion)."""

    def __init__(self, fn, out_kind: str):
        self.fn = fn
        self.out_kind = out_kind

    def process(self, record: Record, from_op: str) -> List[Record]:
        value = self.fn(record.value)
        return [
            Record(
                uid=f"{record.uid}/m",
                key=record.key,
                value=value,
                ingest_ts=record.ingest_ts,
                kind=self.out_kind,
            )
        ]


class FilterOp(Operator):
    """Stateless predicate filter."""

    def __init__(self, pred):
        self.pred = pred

    def process(self, record: Record, from_op: str) -> List[Record]:
        return [record] if self.pred(record.value) else []


class IncrementalJoinOp(Operator):
    """Stateful incremental hash join (NexMark Q3, §VI: "incremental
    stateful join" of persons with auctions).

    Both sides are retained forever; a joined pair is emitted exactly once,
    when the later of its two inputs arrives. Pair uids are content-based.
    """

    def __init__(
        self,
        left_op: str,
        right_op: str,
        emit,  #: (left_value, right_value) -> (uid, key, value) of the pair
        out_kind: str,
    ):
        self.left_op = left_op
        self.right_op = right_op
        self.emit = emit
        self.out_kind = out_kind
        # key -> {uid: value}; keyed inserts are idempotent.
        self.left: Dict[Any, Dict[str, Any]] = {}
        self.right: Dict[Any, Dict[str, Any]] = {}
        self._base: Tuple[Dict, Dict] = _NO_BASE  #: (left, right) last shared

    def process(self, record: Record, from_op: str) -> List[Record]:
        tables = (self.left, self.right)
        side = int(from_op != self.left_op)  # 0: left, 1: right
        mine, other = tables[side], tables[1 - side]
        if record.uid in mine.setdefault(record.key, {}):  # replayed duplicate
            return []
        _own(mine, self._base[side], record.key)[record.uid] = record.value
        out: List[Record] = []
        for ov in other.get(record.key, {}).values():
            lv, rv = (record.value, ov) if from_op == self.left_op else (ov, record.value)
            uid, key, value = self.emit(lv, rv)
            out.append(
                Record(uid=uid, key=key, value=value, ingest_ts=record.ingest_ts, kind=self.out_kind)
            )
        return out

    def snapshot(self) -> Any:
        self._base = (dict(self.left), dict(self.right))
        return self._base

    def restore(self, snap: Any) -> None:
        self.left, self.right = dict(snap[0]), dict(snap[1])
        self._base = snap

    def state_bytes(self) -> int:
        n = sum(len(v) for v in self.left.values()) + sum(len(v) for v in self.right.values())
        return 64 * n

    def state_fingerprint(self) -> Any:
        canon = lambda side: tuple(
            sorted((k, tuple(sorted(v.keys()))) for k, v in side.items() if v)
        )
        return (canon(self.left), canon(self.right))


class WindowJoinOp(Operator):
    """Running tumbling-window join (NexMark Q8).

    Windows are keyed on the record's event/ingest timestamp, which is part
    of the generated data — hence deterministic across replay (DESIGN.md §4).
    Processing is triggered on record arrival ("running window", §VI) and
    windows are evicted once the watermark (max seen window) has moved two
    windows past them.
    """

    EVICT_HORIZON = 2

    def __init__(
        self,
        left_op: str,
        right_op: str,
        window: float,
        emit,
        out_kind: str,
    ):
        self.left_op = left_op
        self.right_op = right_op
        self.window = window
        self.emit = emit
        self.out_kind = out_kind
        # window_id -> side -> key -> {uid: value}
        self.windows: Dict[int, Tuple[Dict, Dict]] = {}
        self.max_window = -1
        self._base: Dict[int, Tuple[Dict, Dict]] = {}  #: windows last shared

    def _win(self, ts: float) -> int:
        return int(ts // self.window)

    def process(self, record: Record, from_op: str) -> List[Record]:
        w = self._win(record.ingest_ts)
        if w <= self.max_window - self.EVICT_HORIZON:
            return []  # record for an already-evicted window (late)
        if w > self.max_window:
            self.max_window = w
            for old in [k for k in self.windows if k <= w - self.EVICT_HORIZON]:
                del self.windows[old]
        tables = self.windows.setdefault(w, ({}, {}))
        side = int(from_op != self.left_op)  # 0: left, 1: right
        mine, other = tables[side], tables[1 - side]
        if record.uid in mine.setdefault(record.key, {}):
            return []
        _own(mine, self._base.get(w, _NO_BASE)[side], record.key)[record.uid] = record.value
        out: List[Record] = []
        for ov in other.get(record.key, {}).values():
            lv, rv = (record.value, ov) if from_op == self.left_op else (ov, record.value)
            uid, key, value = self.emit(lv, rv, w)
            out.append(
                Record(uid=uid, key=key, value=value, ingest_ts=record.ingest_ts, kind=self.out_kind)
            )
        return out

    @staticmethod
    def _share(windows: Dict[int, Tuple[Dict, Dict]]) -> Dict[int, Tuple[Dict, Dict]]:
        return {w: (dict(l), dict(r)) for w, (l, r) in windows.items()}

    def snapshot(self) -> Any:
        self._base = self._share(self.windows)
        return (self._base, self.max_window)

    def restore(self, snap: Any) -> None:
        self.windows = self._share(snap[0])
        self.max_window = snap[1]
        self._base = snap[0]

    def state_bytes(self) -> int:
        n = 0
        for left, right in self.windows.values():
            n += sum(len(v) for v in left.values()) + sum(len(v) for v in right.values())
        return 64 * n

    def state_fingerprint(self) -> Any:
        out = []
        for w in sorted(self.windows):
            left, right = self.windows[w]
            canon = lambda side: tuple(
                sorted((k, tuple(sorted(v.keys()))) for k, v in side.items() if v)
            )
            out.append((w, canon(left), canon(right)))
        return tuple(out)


class WindowCountOp(Operator):
    """Running tumbling-window count per key (NexMark Q12: bids per bidder).

    The state is the *set* of contributing record uids per (key, window) so
    that replayed records cannot double-count; the emitted running count is
    the set's size. The final (maximum) count per (key, window) equals the
    batch ``COUNT(*)`` — that is what the oracle checks.
    """

    EVICT_HORIZON = 2

    def __init__(self, window: float, out_kind: str):
        self.window = window
        self.out_kind = out_kind
        self.counts: Dict[int, Dict[Any, set]] = {}  # window -> key -> {uids}
        self.max_window = -1
        self._base: Dict[int, Dict[Any, set]] = {}  #: counts last shared

    def process(self, record: Record, from_op: str) -> List[Record]:
        w = int(record.ingest_ts // self.window)
        if w <= self.max_window - self.EVICT_HORIZON:
            return []
        if w > self.max_window:
            self.max_window = w
            for old in [k for k in self.counts if k <= w - self.EVICT_HORIZON]:
                del self.counts[old]
        table = self.counts.setdefault(w, {})
        if record.uid in table.setdefault(record.key, set()):
            return []
        slot = _own(table, self._base.get(w, _NO_BASE[0]), record.key)
        slot.add(record.uid)
        count = len(slot)
        return [
            Record(
                uid=f"q12:{record.key}:{w}:{count}",
                key=record.key,
                value={"bidder": record.key, "window": w, "count": count},
                ingest_ts=record.ingest_ts,
                kind=self.out_kind,
            )
        ]

    def snapshot(self) -> Any:
        self._base = {w: dict(km) for w, km in self.counts.items()}
        return (self._base, self.max_window)

    def restore(self, snap: Any) -> None:
        self.counts = {w: dict(km) for w, km in snap[0].items()}
        self.max_window = snap[1]
        self._base = snap[0]

    def state_bytes(self) -> int:
        return 40 * sum(len(s) for km in self.counts.values() for s in km.values())

    def state_fingerprint(self) -> Any:
        return tuple(
            sorted(
                (w, k, tuple(sorted(uids)))
                for w, km in self.counts.items()
                for k, uids in km.items()
            )
        )


# ---------------------------------------------------------------------------
# Cyclic reachability query operators (paper §VI, Fig. 6; adapted from FFP).
# ---------------------------------------------------------------------------


class CyclicJoinOp(Operator):
    """The reachability query's stateful join.

    State: directed links keyed by their start node, and discovered sources
    keyed by their reachable (path-end) node. Link events join with sources
    whose path ends at the link's start node; source events join with links
    starting at their reachable node. Delete events remove state (paper:
    "it will remove every link or source affected from its state"); an
    index from source id to its entries, rebuilt on restore and never
    snapshotted, makes a source delete cost its own entries only. Slots a
    delete empties stay in place.
    """

    def __init__(self, link_op: str, source_op: str, loop_op: str):
        self.link_op = link_op
        self.source_op = source_op
        self.loop_op = loop_op
        self.links: Dict[Any, Dict[Tuple, None]] = {}  # start -> {(u, v): None}
        self.sources: Dict[Any, Dict[Tuple, None]] = {}  # end-node -> {(src, path): None}
        self._by_src: Dict[Any, Dict[Tuple, None]] = {}  # src -> {(src, path): None}
        self._base: Tuple[Dict, Dict] = _NO_BASE  #: (links, sources) last shared

    @staticmethod
    def _pair_record(src_tuple: Tuple, link: Tuple, ingest_ts: float) -> Record:
        s, path = src_tuple
        u, v = link
        uid = f"pair:{s}:{'-'.join(map(str, path))}:{u}-{v}"
        return Record(
            uid=uid,
            key=v,
            value={"src": s, "path": path, "link": link},
            ingest_ts=ingest_ts,
            kind="pair",
        )

    def process(self, record: Record, from_op: str) -> List[Record]:
        v = record.value
        out: List[Record] = []
        if from_op == self.link_op:
            link = (v["u"], v["v"])
            if v["op"] == "del_link":
                if link in self.links.get(v["u"], ()):
                    del _own(self.links, self._base[0], v["u"])[link]
                return []
            if link in self.links.setdefault(v["u"], {}):
                return []
            _own(self.links, self._base[0], v["u"])[link] = None
            for st in self.sources.get(v["u"], {}):
                out.append(self._pair_record(st, link, record.ingest_ts))
        else:  # source events: fresh sources, recursive sources, or deletes
            if v["op"] == "del_source":
                for st in self._by_src.pop(v["s"], ()):
                    del _own(self.sources, self._base[1], st[1][-1])[st]
                return []
            st = (v["s"], tuple(v["path"]))
            end = st[1][-1]
            if st in self.sources.setdefault(end, {}):
                return []
            _own(self.sources, self._base[1], end)[st] = None
            self._by_src.setdefault(st[0], {})[st] = None
            for link in self.links.get(end, {}):
                out.append(self._pair_record(st, link, record.ingest_ts))
        return out

    def snapshot(self) -> Any:
        self._base = (dict(self.links), dict(self.sources))
        return self._base

    def restore(self, snap: Any) -> None:
        self.links, self.sources = dict(snap[0]), dict(snap[1])
        self._base = snap
        self._by_src = {}
        for slot in self.sources.values():
            for st in slot:
                self._by_src.setdefault(st[0], {})[st] = None

    def state_bytes(self) -> int:
        n_links = sum(len(v) for v in self.links.values())
        n_src = sum(
            len(path) * 4 + 16 for slot in self.sources.values() for (_, path) in slot
        )
        return 24 * n_links + n_src

    def state_fingerprint(self) -> Any:
        return (
            tuple(sorted((k, tuple(sorted(v))) for k, v in self.links.items() if v)),
            tuple(sorted((k, tuple(sorted(v))) for k, v in self.sources.items() if v)),
        )


class CyclicSelectOp(Operator):
    """Drops joined pairs whose link end-node already appears in the path
    (cycle avoidance, paper §VI). ``MAX_PATH_LEN`` bounds path growth —
    a safety valve against combinatorial explosion on dense graphs; the
    reference implementation uses the same bound."""

    MAX_PATH_LEN = 12

    def process(self, record: Record, from_op: str) -> List[Record]:
        v = record.value
        if v["link"][1] in v["path"] or len(v["path"]) >= self.MAX_PATH_LEN:
            return []
        return [record]


class CyclicProjectOp(Operator):
    """Extends the path with the link's end node and emits the new source
    record, which flows both to the sink and back to the join (loop)."""

    def process(self, record: Record, from_op: str) -> List[Record]:
        v = record.value
        new_path = tuple(v["path"]) + (v["link"][1],)
        uid = f"path:{v['src']}:{'-'.join(map(str, new_path))}"
        return [
            Record(
                uid=uid,
                key=new_path[-1],
                value={"op": "source", "s": v["src"], "path": new_path},
                ingest_ts=record.ingest_ts,
                kind="source_node",
            )
        ]
