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
  separately from bytes. Every stateful operator is a :class:`KeyedOp`,
  whose state is tables of *slots* (``key -> dict|set``), one table per
  window and part. A snapshot copies only the tables, so it shares every
  slot with live state, and becomes the operator's *base*. The first write
  to a slot that is still the base's (:meth:`KeyedOp._own`) replaces it by
  a private copy under the same key, so insertion order is kept at both
  levels and copy cost follows the slots written since the snapshot.
  ``restore`` shares the same way and makes the restored snapshot the
  base, so a stored checkpoint stays intact however the live state changes
  later. The leaves (uid strings, path tuples, record-value dicts) are
  shared as well, so **a record value held in state is never mutated** by
  any operator.
"""
from __future__ import annotations

import math
from typing import Any, Dict, List, Optional, Tuple

from .messages import Record


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


def _canon(table: Dict[Any, Any]) -> Tuple:
    """A table's slots as a sorted tuple of (key, sorted members), empty
    slots left out: the order-independent view fingerprints compare."""
    return tuple(sorted((k, tuple(sorted(slot))) for k, slot in table.items() if slot))


class KeyedOp(Operator):
    """Base of the stateful operators: keyed state, windows and
    copy-on-write snapshots. The simulator snapshots, restores and
    fingerprints exactly the instances of this class, and UNC/CIC count
    only their checkpoints (besides the sources').

    State is ``tables``: ``{(window, part): {key: slot}}``, where a slot is
    a dict or set and ``part`` tells apart the tables of one window (a
    join's two sides). With a finite ``window``, a record's window is
    ``ingest_ts // window``; the first record of a new window moves the
    watermark ``max_window`` and evicts the windows ``EVICT_HORIZON``
    behind it, and a record for an evicted window is dropped as late. An
    unbounded window puts every record in window 0, so nothing is evicted.
    A snapshot is ``(tables, max_window)``. ``nbytes`` is the modelled state
    size, kept running: every insert, delete and eviction updates it, and
    ``restore`` recomputes it by :meth:`_scan_bytes`.
    """

    EVICT_HORIZON = 2
    ENTRY_BYTES = 64  #: modelled state bytes per stored entry

    def __init__(self, window: float = math.inf):
        self.window = window
        self.tables: Dict[Tuple[int, int], Dict[Any, Any]] = {}
        self.max_window = -1
        self._base: Dict[Tuple[int, int], Dict[Any, Any]] = {}  #: tables last shared
        self.nbytes = 0

    def _own(self, tid: Tuple[int, int], key: Any) -> Any:
        """The slot ``tables[tid][key]``, safe to write: a slot the base
        still shares is first replaced by a private copy."""
        table = self.tables[tid]
        slot = table[key]
        base = self._base.get(tid)
        if base is not None and base.get(key) is slot:
            table[key] = slot = slot.copy()
        return slot

    def _window_of(self, ts: float) -> Optional[int]:
        """The window of a record at ``ts``, or None if that window is
        already evicted (a late record)."""
        w = int(ts // self.window)
        if w > self.max_window:
            self.max_window = w
            for tid in [t for t in self.tables if t[0] <= w - self.EVICT_HORIZON]:
                table = self.tables.pop(tid)
                self.nbytes -= self.ENTRY_BYTES * sum(len(slot) for slot in table.values())
        elif w <= self.max_window - self.EVICT_HORIZON:
            return None
        return w

    def snapshot(self) -> Any:
        self._base = {tid: dict(t) for tid, t in self.tables.items()}
        return (self._base, self.max_window)

    def restore(self, snap: Any) -> None:
        self.tables = {tid: dict(t) for tid, t in snap[0].items()}
        self.max_window = snap[1]
        self._base = snap[0]
        self.nbytes = self._scan_bytes()

    def _scan_bytes(self) -> int:
        return self.ENTRY_BYTES * sum(
            len(slot) for t in self.tables.values() for slot in t.values()
        )

    def state_bytes(self) -> int:
        return self.nbytes


class JoinOp(KeyedOp):
    """Stateful incremental hash join: NexMark Q3's "incremental stateful
    join" of persons with auctions (unbounded window, §VI) and Q8's running
    tumbling-window join.

    Part 0 of a window holds the left side, part 1 the right, each
    ``key -> {uid: value}`` (keyed inserts are idempotent). A joined pair is
    emitted exactly once, when the later of its two inputs arrives, as
    ``emit(left_value, right_value, window)``; pair uids are content-based.
    Windows are keyed on the record's ingest timestamp, which is part of the
    generated data, hence deterministic across replay (DESIGN.md §4).
    """

    def __init__(self, left_op: str, right_op: str, emit, out_kind: str,
                 window: float = math.inf):
        super().__init__(window)
        self.left_op = left_op
        self.right_op = right_op
        self.emit = emit  #: (left, right, window) -> (uid, key, value) of the pair
        self.out_kind = out_kind

    def process(self, record: Record, from_op: str) -> List[Record]:
        w = self._window_of(record.ingest_ts)
        if w is None:
            return []
        side = int(from_op != self.left_op)  # 0: left, 1: right
        tid = (w, side)
        if record.uid in self.tables.setdefault(tid, {}).setdefault(record.key, {}):
            return []  # replayed duplicate
        self._own(tid, record.key)[record.uid] = record.value
        self.nbytes += self.ENTRY_BYTES
        out: List[Record] = []
        for ov in self.tables.get((w, 1 - side), {}).get(record.key, {}).values():
            lv, rv = (ov, record.value) if side else (record.value, ov)
            uid, key, value = self.emit(lv, rv, w)
            out.append(
                Record(uid=uid, key=key, value=value, ingest_ts=record.ingest_ts, kind=self.out_kind)
            )
        return out

    def state_fingerprint(self) -> Any:
        sides = lambda w: (_canon(self.tables.get((w, 0), {})), _canon(self.tables.get((w, 1), {})))
        if self.window == math.inf:
            return sides(0)
        return tuple((w, *sides(w)) for w in sorted({w for w, _ in self.tables}))


class WindowCountOp(KeyedOp):
    """Running tumbling-window count per key (NexMark Q12: bids per bidder).

    The state is the *set* of contributing record uids per (key, window) so
    that replayed records cannot double-count; the emitted running count is
    the set's size. The final (maximum) count per (key, window) equals the
    batch ``COUNT(*)`` — that is what the oracle checks.
    """

    ENTRY_BYTES = 40

    def __init__(self, window: float, out_kind: str):
        super().__init__(window)
        self.out_kind = out_kind

    def process(self, record: Record, from_op: str) -> List[Record]:
        w = self._window_of(record.ingest_ts)
        if w is None:
            return []
        if record.uid in self.tables.setdefault((w, 0), {}).setdefault(record.key, set()):
            return []
        slot = self._own((w, 0), record.key)
        slot.add(record.uid)
        self.nbytes += self.ENTRY_BYTES
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

    def state_fingerprint(self) -> Any:
        return tuple(
            (w, *entry) for w, _ in sorted(self.tables) for entry in _canon(self.tables[w, 0])
        )


# ---------------------------------------------------------------------------
# Cyclic reachability query operators (paper §VI, Fig. 6; adapted from FFP).
# ---------------------------------------------------------------------------

_LINKS, _SOURCES = (0, 0), (0, 1)  #: CyclicJoinOp's two tables


def _source_bytes(path: Tuple) -> int:
    """Modelled bytes of one discovered source with this path."""
    return len(path) * 4 + 16


class CyclicJoinOp(KeyedOp):
    """The reachability query's stateful join.

    State: directed links keyed by their start node (table ``(0, 0)``), and
    discovered sources keyed by their reachable (path-end) node (table
    ``(0, 1)``). Link events join with sources whose path ends at the
    link's start node; source events join with links starting at their
    reachable node. Delete events remove state (paper: "it will remove
    every link or source affected from its state"); an index from source id
    to its entries, rebuilt on restore and never snapshotted, makes a
    source delete cost its own entries only. Slots a delete empties stay in
    place. A link takes ``LINK_BYTES`` and a source ``_source_bytes`` of
    its path.
    """

    LINK_BYTES = 24

    def __init__(self, link_op: str):
        super().__init__()
        self.link_op = link_op
        self.tables = {_LINKS: {}, _SOURCES: {}}  # {(u, v): None}, {(src, path): None}
        self._by_src: Dict[Any, Dict[Tuple, None]] = {}  # src -> {(src, path): None}

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
        links, sources = self.tables[_LINKS], self.tables[_SOURCES]
        out: List[Record] = []
        if from_op == self.link_op:
            link = (v["u"], v["v"])
            if v["op"] == "del_link":
                if link in links.get(v["u"], ()):
                    del self._own(_LINKS, v["u"])[link]
                    self.nbytes -= self.LINK_BYTES
                return []
            if link in links.setdefault(v["u"], {}):
                return []
            self._own(_LINKS, v["u"])[link] = None
            self.nbytes += self.LINK_BYTES
            for st in sources.get(v["u"], {}):
                out.append(self._pair_record(st, link, record.ingest_ts))
        else:  # source events: fresh sources, recursive sources, or deletes
            if v["op"] == "del_source":
                for st in self._by_src.pop(v["s"], ()):
                    del self._own(_SOURCES, st[1][-1])[st]
                    self.nbytes -= _source_bytes(st[1])
                return []
            st = (v["s"], tuple(v["path"]))
            end = st[1][-1]
            if st in sources.setdefault(end, {}):
                return []
            self._own(_SOURCES, end)[st] = None
            self.nbytes += _source_bytes(st[1])
            self._by_src.setdefault(st[0], {})[st] = None
            for link in links.get(end, {}):
                out.append(self._pair_record(st, link, record.ingest_ts))
        return out

    def restore(self, snap: Any) -> None:
        super().restore(snap)
        self._by_src = {}
        for slot in self.tables[_SOURCES].values():
            for st in slot:
                self._by_src.setdefault(st[0], {})[st] = None

    def _scan_bytes(self) -> int:
        n_links = sum(len(v) for v in self.tables[_LINKS].values())
        n_src = sum(
            _source_bytes(path) for slot in self.tables[_SOURCES].values() for (_, path) in slot
        )
        return self.LINK_BYTES * n_links + n_src

    def state_fingerprint(self) -> Any:
        return (_canon(self.tables[_LINKS]), _canon(self.tables[_SOURCES]))


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
