"""Discrete-event simulator of a distributed streaming dataflow.

This is the Styx-testbed substitute (DESIGN.md §1): W workers, each hosting
one parallel instance of every operator (the paper's deployment layout),
FIFO channels with latency, a single-server CPU per worker, replayable
sources, an external durable sink (the paper's Kafka sink), and pluggable
checkpointing protocols.

Execution model (all virtual time, deterministic given the config):

- A message is *dispatched* on its destination worker when the worker is
  free and the message is the oldest arrival among the worker's unblocked
  channel queues. State changes, checkpoint snapshots, sequence-number
  assignment and message logging all take effect atomically at dispatch;
  the produced messages physically leave at dispatch + service time and
  arrive one channel latency later. This gives per-channel FIFO and makes
  every checkpoint a consistent cut of its instance.
- COOR markers travel in-stream and therefore queue behind data backlog —
  the mechanism behind the paper's straggler/skew findings.
- A failure clears all worker-resident state and in-flight worker-to-worker
  messages (epoch bump); messages already sent toward the external sink
  still arrive. Recovery restores the protocol's recovery line, rewinds
  source offsets, replays logged in-flight messages, and resumes.

Event-loop mechanics (wall-clock cost only; virtual-time results are
fixed by the rules above):

- Heap events are keyed ``(virtual time, counter)``; the counter is one
  global sequence, so events at equal virtual time pop in scheduling
  order.
- Sources are scheduled lazily. Each source cursor has at most one
  pending heap event, for its next record; when it pops, the cursor's
  following offset is pushed and the record is enqueued. Scheduling a
  cursor (at start and again at resume) *reserves* one counter value per
  remaining record, so offset ``o`` of a cursor scheduled with floor ``f``
  always has the key ``(max(ingest_ts, f), base + o)`` it would have had
  if the whole suffix were pushed at once. Because each partition is in
  ingest-time order these keys increase with ``o``, so the pop order,
  every counter value and every result are those of eager scheduling,
  while the heap holds O(sources + in-flight) events and resume costs
  O(sources). An out-of-order partition raises ``ValueError``.
- Routing is precomputed per instance at build time: for every outgoing
  edge, the channel tuple per target index, and the fixed target channel
  when routing does not depend on the record (sink and forward edges).
  Per-operator service times and the set of sink operators are
  precomputed too. Protocol and operator hooks are looked up when called,
  so wrappers installed after construction take effect.

Each run fact is kept once: the sink output in ``sinks`` (uid -> value per
sink, first arrival wins), a checkpoint's metadata in the ``store`` (the
counted ones also listed, as the same objects, in
``telemetry.checkpoints``), and one latency sample per first arrival in
``telemetry.latencies``.
"""
from __future__ import annotations

import heapq
from collections import deque
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional

import numpy as np

from .costs import SimCost
from .graph import LogicalGraph
from .kafka_sim import ReplayableLog, SourceCursor
from .messages import (
    MARKER_BYTES,
    Channel,
    InstanceId,
    Kind,
    Message,
    Record,
    payload_bytes_for,
)
from .state import CheckpointMeta, CheckpointStore, MessageLog, StoredCheckpoint
from .telemetry import Telemetry

_SRC = "__src__"


@dataclass
class SimResult:
    """Outcome of one simulation run. ``sink_results`` is the simulation's
    own sink dict, not a copy: a simulation runs once."""

    telemetry: Telemetry
    sink_results: Dict[str, Dict[str, Any]]  #: sink op -> uid -> value
    duration: float
    n_dedup_drops: int
    n_duplicate_sink_arrivals: int
    state_fingerprints: Dict[InstanceId, Any]
    store: CheckpointStore
    protocol_name: str

    def sink_values(self, sink: Optional[str] = None) -> Dict[str, Any]:
        if sink is None:
            sink = next(iter(self.sink_results))
        return self.sink_results[sink]


class Simulation:
    """One runnable simulation instance. Not reusable after :meth:`run`."""

    def __init__(
        self,
        graph: LogicalGraph,
        n_workers: int,
        protocol,
        topics: Dict[str, ReplayableLog],
        seed: int = 0,
    ):
        graph.validate()
        self.graph = graph
        self.W = n_workers
        self.protocol = protocol
        self.cost = SimCost()
        self.rng = np.random.default_rng(seed)
        self.telemetry = Telemetry()
        self.store = CheckpointStore()
        self.msg_log = MessageLog()

        # --- instances -----------------------------------------------------
        self.instances: Dict[InstanceId, Any] = {}
        #: sink op -> uid -> value, the deduplicated external output
        self.sinks: Dict[str, Dict[str, Any]] = {name: {} for name in graph.sinks()}
        self.cursors: Dict[InstanceId, SourceCursor] = {}
        for name, spec in graph.ops.items():
            if spec.is_sink:
                continue
            for w in range(n_workers):
                self.instances[(name, w)] = spec.factory(w, n_workers)
                if spec.is_source:
                    log = topics[spec.source_topic]
                    if log.n_partitions != n_workers:
                        raise ValueError(
                            f"topic {spec.source_topic!r} has {log.n_partitions} "
                            f"partitions, need {n_workers}"
                        )
                    self.cursors[(name, w)] = SourceCursor(log, w)

        # --- channels and dispatch tables ----------------------------------
        #: op -> per-record service seconds
        self._service = {name: self.cost.op_service(spec.kind) for name, spec in graph.ops.items()}
        #: every channel an instance can send / receive on, in edge order
        self.out_channels: Dict[InstanceId, List[Channel]] = {i: [] for i in self.instances}
        self.in_channels: Dict[InstanceId, List[Channel]] = {i: [] for i in self.instances}
        #: inst -> ((edge, fixed target channels or None, channel per
        #: target index), ...) over the op's outgoing edges; targets are
        #: fixed on sink edges and plain forward edges, else ``edge.route``
        routes: Dict[InstanceId, list] = {i: [] for i in self.instances}
        for e in graph.edges:
            forward = e.routing == "forward" and e.broadcast_pred is None
            for i in range(n_workers):
                if e.dst in self.sinks:
                    chans = fixed = ((e.src, i, e.dst, 0),)
                else:
                    chans = tuple((e.src, i, e.dst, j) for j in range(n_workers))
                    fixed = (chans[i],) if forward else None
                    for ch in fixed or chans:
                        self.in_channels[(e.dst, ch[3])].append(ch)
                self.out_channels[(e.src, i)].extend(fixed or chans)
                routes[(e.src, i)].append((e, fixed, chans))
        self._routes = {inst: tuple(table) for inst, table in routes.items()}

        # --- channel state -------------------------------------------------
        self.sent_seq: Dict[Channel, int] = {}
        self.recv_seq: Dict[Channel, int] = {}
        self.queues: Dict[Channel, deque] = {}
        self.in_ready: Dict[Channel, bool] = {}

        # --- worker state --------------------------------------------------
        self.busy_until = [0.0] * n_workers
        self.current: List[Optional[List[Message]]] = [None] * n_workers
        self.heads: List[list] = [[] for _ in range(n_workers)]

        # --- event loop ----------------------------------------------------
        self.heap: list = []
        self._counter = 0
        self.now = 0.0
        self.epoch = 0
        self.failed = False
        #: virtual time after which protocols stop scheduling new timers /
        #: rounds, so the event loop can drain to quiescence (set in run())
        self.horizon = float("inf")
        self.n_dedup_drops = 0
        self.n_dup_sink = 0
        self._extra_service = 0.0
        self._outbox: Optional[List[Message]] = None

        # implicit initial checkpoints (index 0) for every worker instance
        for inst in self.instances:
            self._store_checkpoint(inst, kind="initial", round_id=None, ts=0.0)

        self.protocol.bind(self)

    # ------------------------------------------------------------------ util
    def _push(self, t: float, kind: str, data: Any, epoch_exempt: bool = False) -> None:
        self._counter += 1
        epoch = -1 if epoch_exempt else self.epoch
        heapq.heappush(self.heap, (t, self._counter, kind, epoch, data))

    def call_at(self, t: float, fn: Callable[[float], None]) -> None:
        """Schedule a protocol callback (dropped on epoch change)."""
        self._push(max(t, self.now), "call", fn)

    def enqueue_trigger(self, inst: InstanceId, meta: dict) -> None:
        """Enqueue a coordinator trigger as an in-stream pseudo-message.

        The trigger is dispatched through the worker's CPU in arrival order
        like any record, which models two real effects at once: a marker can
        never overtake a record its source is mid-emitting (it would become
        an orphan across the aligned cut), and on a straggling worker the
        trigger — hence the source's marker — waits behind the backlog,
        which is the mechanism behind COOR's skew sensitivity (paper
        §VII-B, skewed NexMark).
        """
        msg = Message(
            kind=Kind.MARKER,
            channel=("__coord__", 0, inst[0], inst[1]),
            seq=0,
            record=None,
            payload_bytes=0,
            meta={**meta, "trigger": True},
        )
        self._enqueue(self.now, msg)

    # --------------------------------------------------------------- sources
    def _schedule_source_records(self, inst: InstanceId, t_floor: float) -> None:
        """Reserve heap keys for the cursor's remaining records and push the
        first; ``run`` pushes each next one when its predecessor pops."""
        cur = self.cursors[inst]
        part = cur.log.partitions[cur.partition]
        start = cur.offset
        base = self._counter + 1 - start
        self._counter += len(part) - start
        if start < len(part):
            src = (inst, (_SRC, 0, inst[0], inst[1]), part, base, t_floor)
            key = max(part[start].ingest_ts, t_floor)
            heapq.heappush(self.heap, (key, base + start, "src", self.epoch, (src, start)))

    # --------------------------------------------------------- channel plumb
    def _enqueue(self, t: float, msg: Message) -> None:
        ch = msg.channel
        msg.arr = t
        q = self.queues.get(ch)
        if q is None:
            q = self.queues[ch] = deque()
        q.append(msg)
        if not self.in_ready.get(ch) and not self.protocol.is_blocked(ch):
            self.in_ready[ch] = True
            w = ch[3]
            heapq.heappush(self.heads[w], (t, self._counter, ch))
            self._counter += 1
            self._dispatch(w, t)

    def unblock_channel(self, ch: Channel) -> None:
        """Called by COOR when alignment completes for a channel."""
        q = self.queues.get(ch)
        if q and not self.in_ready.get(ch):
            self.in_ready[ch] = True
            w = ch[3]
            heapq.heappush(self.heads[w], (q[0].arr, self._counter, ch))
            self._counter += 1
            self._dispatch(w, self.now)

    # -------------------------------------------------------------- dispatch
    def _dispatch(self, w: int, t: float) -> None:
        if self.failed or self.current[w] is not None or self.busy_until[w] > t:
            return
        heads = self.heads[w]
        while heads:
            arr, _, ch = heapq.heappop(heads)
            if not self.in_ready.get(ch):
                continue
            if self.protocol.is_blocked(ch):
                self.in_ready[ch] = False
                continue
            q = self.queues.get(ch)
            if not q:
                self.in_ready[ch] = False
                continue
            msg = q.popleft()
            if q:
                heapq.heappush(heads, (q[0].arr, self._counter, ch))
                self._counter += 1
            else:
                self.in_ready[ch] = False
            dur = self._process(w, ch, msg, t)
            if dur is None:
                continue  # dropped with zero cost (dup / stale offset)
            self.busy_until[w] = done = t + dur
            self._counter += 1
            heapq.heappush(self.heap, (done, self._counter, "proc", self.epoch, w))
            return

    def _process(self, w: int, ch: Channel, msg: Message, t: float) -> Optional[float]:
        cost = self.cost
        inst = (ch[2], ch[3])
        self._outbox = []
        self._extra_service = 0.0
        # reentrancy guard: protocol hooks (unblock_channel) may try to
        # re-dispatch this worker while we are mid-process
        self.current[w] = self._outbox

        if ch[0] == _SRC:
            cur = self.cursors[inst]
            if msg.seq != cur.offset:
                self._outbox = None
                self.current[w] = None
                return None  # stale pre-rollback schedule
            cur.advance()
            self.telemetry.n_source_emitted += 1
            service = self._service[inst[0]]
            self._emit(t, inst, msg.record)
        elif msg.kind is Kind.MARKER:
            service = cost.op_service("marker")
            self.protocol.on_marker(t, inst, msg)
        else:
            prev = self.recv_seq.get(ch, 0)
            if msg.seq <= prev:
                self.n_dedup_drops += 1
                self._outbox = None
                self.current[w] = None
                return None
            extra = self.protocol.before_process(t, inst, msg)
            self._extra_service += extra
            self.recv_seq[ch] = msg.seq
            service = self._service[inst[0]]
            service += cost.serialize_per_byte * msg.proto_bytes
            for rec in self.instances[inst].process(msg.record, ch[0]):
                self._emit(t, inst, rec)

        send_cost = sum(cost.serialize_per_byte * m.proto_bytes for m in self._outbox)
        dur = service + self._extra_service + send_cost
        self.current[w] = self._outbox
        self._outbox = None
        return dur

    def _emit(self, t: float, inst: InstanceId, rec: Record) -> None:
        sent_seq, tel, outbox = self.sent_seq, self.telemetry, self._outbox
        on_send = self.protocol.on_send
        payload = payload_bytes_for(rec)
        for edge, fixed, chans in self._routes[inst]:
            for ch in fixed or [chans[j] for j in edge.route(rec, inst[1], self.W)]:
                seq = sent_seq.get(ch, 0) + 1
                sent_seq[ch] = seq
                msg = Message(Kind.DATA, ch, seq, rec, payload, 0, t)
                on_send(t, inst, msg)
                tel.n_data_msgs += 1
                tel.data_payload_bytes += msg.payload_bytes
                tel.piggyback_bytes += msg.proto_bytes
                outbox.append(msg)

    def emit_marker(self, inst: InstanceId, round_id: int) -> None:
        """COOR: broadcast a marker on every non-sink outgoing channel.

        Only called while a marker is dispatched, so the markers leave with
        that dispatch's outbox. Markers do not consume data sequence
        numbers; channel-FIFO relative to data holds because arrival times
        are monotone in send times.
        """
        for ch in self.out_channels[inst]:
            if ch[2] in self.sinks:
                continue
            msg = Message(
                kind=Kind.MARKER,
                channel=ch,
                seq=self.sent_seq.get(ch, 0),
                record=None,
                payload_bytes=0,
                proto_bytes=MARKER_BYTES,
                send_ts=self.now,
                meta={"round": round_id},
            )
            self.telemetry.n_marker_msgs += 1
            self._outbox.append(msg)

    # ----------------------------------------------------------- checkpoints
    def _store_checkpoint(
        self, inst: InstanceId, kind: str, round_id: Optional[int],
        ts: float, extra_duration: float = 0.0,
    ) -> CheckpointMeta:
        spec = self.graph.ops[inst[0]]
        op = self.instances[inst]
        state = op.snapshot() if spec.stateful else None
        sb = op.state_bytes()
        meta = CheckpointMeta(
            instance=inst,
            index=len(self.store.checkpoints(inst)),
            ts=ts,
            kind=kind,
            round_id=round_id,
            state_bytes=sb,
            last_sent={ch: self.sent_seq.get(ch, 0) for ch in self.out_channels[inst]},
            last_recv={ch: self.recv_seq.get(ch, 0) for ch in self.in_channels[inst]},
            source_offset=self.cursors[inst].snapshot() if spec.is_source else None,
            duration=self.cost.snapshot_time(sb) + extra_duration,
        )
        self.store.put(StoredCheckpoint(meta=meta, state=state))
        if kind != "initial" and self.protocol.counts_in_totals(inst):
            self.telemetry.checkpoints.append(meta)
        return meta

    def take_checkpoint(
        self, inst: InstanceId, kind: str, round_id: Optional[int] = None,
        extra_duration: float = 0.0,
    ) -> CheckpointMeta:
        """Protocol-facing checkpoint: snapshot now, charge the synchronous
        part to the hosting worker, count it in telemetry. ``extra_duration``
        models protocol-specific persistence work (e.g. CIC's vectors)."""
        meta = self._store_checkpoint(
            inst, kind=kind, round_id=round_id, ts=self.now, extra_duration=extra_duration,
        )
        w = inst[1]
        if self.current[w] is not None:
            self._extra_service += self.cost.snapshot_sync
        else:
            self.busy_until[w] = max(self.busy_until[w], self.now) + self.cost.snapshot_sync
            self._push(self.busy_until[w], "kick", w)
        return meta

    def log_proto_message(self, n_bytes: int) -> None:
        """Account a standalone protocol message (e.g. checkpoint metadata
        to the coordinator); these bypass worker CPUs."""
        self.telemetry.proto_msg_bytes += n_bytes

    # -------------------------------------------------------------- failures
    def _fail(self, t: float) -> None:
        self.failed = True
        self.epoch += 1
        self.queues.clear()
        self.in_ready.clear()
        self.heads = [[] for _ in range(self.W)]
        self.current = [None] * self.W
        self.busy_until = [t] * self.W
        self.telemetry.recovery["t_fail"] = t
        self._push(t + self.cost.detect_delay, "detect", None)

    def _detect(self, t: float) -> None:
        plan = self.protocol.plan_recovery(t)
        restore_bytes = 0
        for inst, idx in plan.line.items():
            restore_bytes = max(restore_bytes, self.store.get(inst, idx).meta.state_bytes)
        restart = (
            self.cost.restart_base
            + self.cost.restore_time(restore_bytes)
            + self.cost.replay_prep_per_msg * plan.n_replay
            + self.cost.recovery_line_per_ckpt * plan.ckpts_scanned
        )
        self.telemetry.recovery.update(
            t_detect=t,
            restart_time=restart,
            n_replay=plan.n_replay,
            invalid=plan.invalid,
            line_info=plan.info,
        )
        self._push(t + restart, "resume", plan)

    def _resume(self, t: float, plan) -> None:
        for inst, idx in plan.line.items():
            cp = self.store.get(inst, idx)
            spec = self.graph.ops[inst[0]]
            if spec.stateful:
                self.instances[inst].restore(cp.state)
            if spec.is_source:
                self.cursors[inst].restore(cp.meta.source_offset or 0)
            for ch, s in cp.meta.last_sent.items():
                self.sent_seq[ch] = s
                self.msg_log.truncate(ch, s)
            for ch, s in cp.meta.last_recv.items():
                self.recv_seq[ch] = s
        self.failed = False
        for inst in self.cursors:
            self._schedule_source_records(inst, t + 1e-6)
        k = 0
        for ch in sorted(plan.replay.keys()):
            for seq, rec in plan.replay[ch]:
                msg = Message(
                    kind=Kind.DATA,
                    channel=ch,
                    seq=seq,
                    record=rec,
                    payload_bytes=payload_bytes_for(rec),
                    send_ts=t,
                )
                k += 1
                self._push(t + self.cost.channel_latency + k * 1e-7, "arrive", msg)
        self.telemetry.recovery["t_resume"] = t
        self.protocol.on_resume(t)

    # ------------------------------------------------------------------ sink
    def _sink_arrive(self, t: float, msg: Message) -> None:
        results = self.sinks[msg.channel[2]]
        rec = msg.record
        if rec.uid in results:
            self.n_dup_sink += 1
            return
        results[rec.uid] = rec.value
        self.telemetry.latencies.append((t, rec.ingest_ts))

    # ------------------------------------------------------------------- run
    def run(
        self,
        duration: float,
        fail_at: Optional[float] = None,
        max_events: int = 50_000_000,
    ) -> SimResult:
        """Run the workload to quiescence (all events drained).

        ``duration`` bounds the *workload* (sources only serve records with
        ingest_ts < duration — the topics are generated that way) and the
        protocol timer horizon; the event loop continues past it until every
        message has been processed, so latency tails and recovery behaviour
        are fully observed.
        """
        self.horizon = duration
        for inst in self.cursors:
            self._schedule_source_records(inst, 0.0)
        self.protocol.on_start()
        if fail_at is not None:
            self._push(fail_at, "fail", None, epoch_exempt=True)

        pops = 0
        heap = self.heap
        heappop, heappush = heapq.heappop, heapq.heappush
        sinks = self.sinks
        latency = self.cost.channel_latency
        while heap:
            pops += 1
            if pops > max_events:
                raise RuntimeError(f"simulation exceeded {max_events} events")
            t, _, kind, epoch, data = heappop(heap)
            self.now = t
            if epoch != self.epoch and epoch != -1:
                continue  # stale (pre-failure) event
            if kind == "src":
                src, off = data
                inst, ch, part, base, floor = src
                nxt = off + 1
                if nxt < len(part):
                    t_next = max(part[nxt].ingest_ts, floor)
                    if t_next < t:
                        raise ValueError(
                            f"partition {inst[1]} of source {inst[0]!r} is not in "
                            f"ingest-time order at offset {nxt}"
                        )
                    heappush(heap, (t_next, base + nxt, "src", epoch, (src, nxt)))
                self._enqueue(t, Message(Kind.DATA, ch, off, part[off], 0))
            elif kind == "arrive":
                if not self.failed:
                    self._enqueue(t, data)
            elif kind == "proc":
                w = data
                for m in self.current[w] or ():
                    self._counter += 1
                    if m.channel[2] in sinks:
                        heappush(heap, (t + latency, self._counter, "sink", -1, m))
                    else:
                        heappush(heap, (t + latency, self._counter, "arrive", self.epoch, m))
                self.current[w] = None
                self._dispatch(w, t)
            elif kind == "sink":
                self._sink_arrive(t, data)
            elif kind == "kick":
                self._dispatch(data, t)
            elif kind == "call":
                data(t)
            elif kind == "fail":
                if not self.failed:
                    self._fail(t)
            elif kind == "detect":
                self._detect(t)
            elif kind == "resume":
                self._resume(t, data)
            else:  # pragma: no cover
                raise AssertionError(kind)

        fingerprints = {
            inst: op.state_fingerprint()
            for inst, op in self.instances.items()
            if self.graph.ops[inst[0]].stateful
        }
        return SimResult(
            telemetry=self.telemetry,
            sink_results=self.sinks,
            duration=self.now,
            n_dedup_drops=self.n_dedup_drops,
            n_duplicate_sink_arrivals=self.n_dup_sink,
            state_fingerprints=fingerprints,
            store=self.store,
            protocol_name=self.protocol.name,
        )
