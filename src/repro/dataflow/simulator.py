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
  messages; messages already sent toward the external sink still arrive.
  Recovery restores the protocol's recovery line, rewinds source offsets,
  replays logged in-flight messages, and resumes.

Event-loop mechanics (wall-clock cost only; virtual-time results are
fixed by the rules above):

- Heap events are keyed ``(virtual time, counter)``; the counter is one
  global sequence, so events at equal virtual time pop in scheduling
  order. There are four kinds: ``src`` (a source record is served),
  ``arrive`` (a message reaches its lane), ``proc`` (a worker finishes a
  dispatch) and ``call`` (a callback from :meth:`Simulation.call_at`:
  protocol timers, the re-dispatch of a worker after a snapshot charge,
  and the failure, its detection and the resume). An event is the tuple
  ``(t, counter, kind, data)``. The failure empties the heap in place, so
  it drops everything scheduled before it; the detection it schedules
  next is the first event after it. A message to the external
  sink is recorded, one latency later, when its ``proc`` event pops: these
  pop in time order, nothing reads the sink during the run, and a failure
  does not stop what was sent to it.
- A source's Kafka offset is its source lane's ``recv`` (the next record
  to serve) and the lane holds the partition. The source lane is the
  source's one in-lane, so a checkpoint records the offset as one more
  ``last_recv`` counter and the resume restores it with the others.
  Sources are scheduled lazily. Each source lane has at most one pending
  heap event, for its next record; when it pops, the following offset is
  pushed and the record is enqueued. Scheduling a source (at start and again at resume)
  *reserves* one counter value per remaining record, so offset ``o`` of a
  source scheduled with floor ``f`` always has the key
  ``(max(ingest_ts, f), base + o)`` it would have had if the whole suffix
  were pushed at once. Because each partition is in
  ingest-time order these keys increase with ``o``, so the pop order,
  every counter value and every result are those of eager scheduling,
  while the heap holds O(sources + in-flight) events and resume costs
  O(sources). An out-of-order partition raises ``ValueError``.
- Every channel is one slotted ``_Lane``, built once at construction, and
  the lane is the channel's only in-memory record: its sent and processed
  seqs, arrival queue, ready flag and COOR ``blocked`` flag, and its
  receiver (instance id, operator object, service time, routing table,
  source partition, to-sink flag). Channel tuples (``lane.ch``) remain only
  as the keys of checkpoint counters and the message log. A routing table
  is the only routing code: per outgoing edge it holds the fixed target
  lane (sink and forward edges), the lane per target index, the hash key
  function and the broadcast predicate. ``_emit`` sends a record to every
  target when the predicate accepts it, else to the fixed lane, else to
  ``targets[stable_hash(key) % W]``. Messages carry their lane and the
  per-worker head heaps hold lanes keyed ``(arrival, counter, lane)`` with
  unique counters, so the per-message path hashes no channel tuple and
  never compares a lane. Each ready lane has exactly one head-heap entry,
  and each entry is a ready lane of its worker. A message that finds its
  worker free, the worker's head heap empty and its lane unblocked is
  dispatched directly, unqueued and with no entry: that entry would be
  the only one and pop at once, and the skipped counter value keeps the
  order of all other keys. ``_start`` runs and schedules each dispatch;
  a message without a record is a COOR marker or coordinator trigger.
  A dispatch's send cost is summed in outbox order as messages join it.
  Protocol and operator hooks are looked up when called, so wrappers
  installed after construction take effect.
- Memory model: nothing here forms a reference cycle once ``run`` has
  dropped the two pointers back into the simulation (``protocol.sim`` and
  the lanes' routing tables), so reference counting frees it whole.
  ``core.config.build`` and ``run`` therefore run under ``gc_paused``: the
  cyclic collector would only re-scan the long-lived topic records, state,
  snapshots and message log. ``TestMemoryModel`` in the simulator tests
  checks that build, run and drop leave no cyclic garbage, which is what
  makes the pause safe. Snapshot payloads stay bounded on long runs: the
  store keeps a payload only while some present or future recovery line
  can restore it. The resume retires the checkpoints above the restored
  line, COOR drops the payloads below each completed round's line, and
  UNC/CIC drop those below the greatest consistent line, found again
  after every ``len(instances)`` checkpoints they store. A restore that
  meets a dropped payload raises ``RuntimeError``.

Each run fact is kept once: the sink output in ``sinks`` (uid -> value per
sink, first arrival wins), a checkpoint as one ``Checkpoint`` record in
the ``store`` (channel counters, and the snapshot while a recovery line
can still reach it; the counted records also listed, as the same
objects, in ``telemetry.checkpoints``), and one latency sample per first
arrival in the ``telemetry.sink_ts``/``ingest_ts`` columns. The final
state fingerprints are not kept: ``SimResult.state_fingerprints``
computes them from the instances on first read.
"""
from __future__ import annotations

import gc
import heapq
from collections import deque
from contextlib import contextmanager
from dataclasses import dataclass
from functools import cached_property, partial
from operator import attrgetter
from typing import Any, Callable, Dict, List, Optional

import numpy as np

from .costs import SimCost
from .graph import LogicalGraph
from .kafka_sim import ReplayableLog
from .operators import KeyedOp
from .messages import (
    MARKER_BYTES,
    Channel,
    InstanceId,
    Message,
    Record,
    payload_bytes_for,
    stable_hash,
)
from .state import Checkpoint, CheckpointStore, MessageLog
from .telemetry import Telemetry

_SRC = "__src__"
_COORD = "__coord__"
_record_key = attrgetter("key")  #: a hash edge's key when it has no ``key_fn``


@contextmanager
def gc_paused():
    """Run the block with the cyclic garbage collector disabled, and enable
    it again afterwards only if it was enabled on entry, so nested use and
    callers that disabled it themselves keep their state."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if enabled:
            gc.enable()


class _Lane:
    """One channel and its receiver. ``sent``/``recv`` are the last sent and
    processed seqs, ``q`` the arrival queue, ``ready`` is True while the
    lane has an entry in its worker's head heap, and ``blocked`` is True
    while COOR holds the lane for alignment (it is not dispatched).
    ``part`` is set on source lanes only: the Kafka partition the source
    serves, and ``recv`` is then its offset, the next record to serve.
    ``routes`` is the receiver's routing table."""

    __slots__ = ("ch", "w", "sent", "recv", "q", "ready", "blocked", "inst", "op",
                 "service", "routes", "part", "to_sink")

    def __init__(self, ch: Channel, op: Any, service: float, part, to_sink: bool):
        self.ch, self.w, self.inst, self.op = ch, ch[3], (ch[2], ch[3]), op
        self.service, self.part, self.to_sink = service, part, to_sink
        self.sent = self.recv = 0
        self.q: deque = deque()
        self.ready = self.blocked = False
        self.routes: tuple = ()


@dataclass
class SimResult:
    """Outcome of one simulation run. ``sink_results`` and ``instances`` are
    the simulation's own dicts, not copies: a simulation runs once."""

    telemetry: Telemetry
    sink_results: Dict[str, Dict[str, Any]]  #: sink op -> uid -> value
    duration: float
    n_dedup_drops: int
    n_duplicate_sink_arrivals: int
    store: CheckpointStore
    instances: Dict[InstanceId, Any]  #: the operator instances in their final state

    @cached_property
    def state_fingerprints(self) -> Dict[InstanceId, Any]:
        """Every ``KeyedOp``'s final state fingerprint, computed on first
        read: the tables never read it, and it sorts all keyed state."""
        return {
            inst: op.state_fingerprint()
            for inst, op in self.instances.items()
            if isinstance(op, KeyedOp)
        }

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
        parts: Dict[InstanceId, list] = {}
        for name, spec in graph.ops.items():
            if spec.is_sink:
                continue
            for w in range(n_workers):
                self.instances[(name, w)] = spec.factory()
                if spec.is_source:
                    log = topics[spec.source_topic]
                    if log.n_partitions != n_workers:
                        raise ValueError(
                            f"topic {spec.source_topic!r} has {log.n_partitions} "
                            f"partitions, need {n_workers}"
                        )
                    parts[(name, w)] = log.partitions[w]

        # --- lanes: one per channel, with its receiver -----------------------
        service = {name: self.cost.op_service(spec.kind) for name, spec in graph.ops.items()}
        self.lanes: Dict[Channel, _Lane] = {}

        def lane(ch: Channel, part=None) -> _Lane:
            ln = self.lanes.get(ch)
            if ln is None:
                ln = self.lanes[ch] = _Lane(ch, self.instances.get((ch[2], ch[3])),
                                            service[ch[2]], part, ch[2] in self.sinks)
            return ln

        #: every lane each instance sends / receives on, in edge order
        self.out_lanes: Dict[InstanceId, List[_Lane]] = {i: [] for i in self.instances}
        self.in_lanes: Dict[InstanceId, List[_Lane]] = {i: [] for i in self.instances}
        #: inst -> ((broadcast predicate, fixed target lanes, lane per
        #: target index, hash key function), ...) over the op's outgoing
        #: edges. The targets are fixed on sink and forward edges; the
        #: predicate is None on sink edges and on edges without one
        routes: Dict[InstanceId, list] = {i: [] for i in self.instances}
        for e in graph.edges:
            to_sink = e.dst in self.sinks
            bcast = None if to_sink else e.broadcast_pred
            for i in range(n_workers):
                fixed = targets = None
                if to_sink:
                    fixed = (lane((e.src, i, e.dst, 0)),)
                elif e.routing == "forward" and bcast is None:
                    fixed = (lane((e.src, i, e.dst, i)),)
                else:
                    targets = tuple(lane((e.src, i, e.dst, j)) for j in range(n_workers))
                    if e.routing == "forward":
                        fixed = (targets[i],)
                for ln in targets or fixed:
                    if not ln.to_sink:
                        self.in_lanes[ln.inst].append(ln)
                self.out_lanes[(e.src, i)].extend(targets or fixed)
                routes[(e.src, i)].append((bcast, fixed, targets, e.key_fn or _record_key))
        #: source instance -> its source lane, whose ``recv`` is the offset;
        #: it is the source's one in-lane, so checkpoints record the offset
        self.source_lanes: Dict[InstanceId, _Lane] = {}
        for inst, part in parts.items():
            ln = self.source_lanes[inst] = lane((_SRC, 0) + inst, part)
            self.in_lanes[inst].append(ln)
            lane((_COORD, 0) + inst)  # coordinator triggers (COOR)
        tables = {inst: tuple(table) for inst, table in routes.items()}
        for ln in self.lanes.values():
            ln.routes = tables.get(ln.inst, ())

        # --- worker state --------------------------------------------------
        self.busy_until = [0.0] * n_workers
        self.current: List[Optional[List[Message]]] = [None] * n_workers
        self.heads: List[list] = [[] for _ in range(n_workers)]

        # --- event loop ----------------------------------------------------
        self.heap: list = []
        self._counter = 0
        self.now = 0.0
        #: virtual time after which protocols stop scheduling new timers /
        #: rounds, so the event loop can drain to quiescence (set in run())
        self.horizon = float("inf")
        self.n_dedup_drops = 0
        self.n_dup_sink = 0
        self._extra_service = self._send_cost = 0.0
        self._outbox: Optional[List[Message]] = None

        # implicit initial checkpoints (index 0) for every worker instance
        for inst in self.instances:
            self._store_checkpoint(inst, kind="initial", round_id=None, ts=0.0)

        self.protocol.bind(self)

    # ------------------------------------------------------------------ util
    def call_at(self, t: float, fn: Callable[[float], None]) -> None:
        """Schedule ``fn(t)`` at virtual time ``t`` (not before now); it is
        dropped if a failure happens first, because the failure empties
        the heap."""
        self._counter += 1
        heapq.heappush(self.heap, (max(t, self.now), self._counter, "call", fn))

    def enqueue_trigger(self, inst: InstanceId, round_id: int) -> None:
        """Enqueue a coordinator trigger as an in-stream pseudo-message.

        The trigger is dispatched through the worker's CPU in arrival order
        like any record, which models two real effects at once: a marker can
        never overtake a record its source is mid-emitting (it would become
        an orphan across the aligned cut), and on a straggling worker the
        trigger — hence the source's marker — waits behind the backlog,
        which is the mechanism behind COOR's skew sensitivity (paper
        §VII-B, skewed NexMark). Its ``seq`` is the round id.
        """
        lane = self.lanes[(_COORD, 0) + inst]
        self._enqueue(self.now, Message(round_id, None, lane))

    # --------------------------------------------------------------- sources
    def _schedule_source_records(self, lane: _Lane, t_floor: float) -> None:
        """Reserve heap keys for the source lane's remaining records, from
        its offset on, and push the first; ``run`` pushes each next one when
        its predecessor pops."""
        part, start = lane.part, lane.recv
        base = self._counter + 1 - start
        self._counter += len(part) - start
        if start < len(part):
            src = (lane, part, base, t_floor)
            key = max(part[start].ingest_ts, t_floor)
            heapq.heappush(self.heap, (key, base + start, "src", (src, start)))

    # --------------------------------------------------------- channel plumb
    def _enqueue(self, t: float, msg: Message) -> None:
        lane = msg.lane
        w = lane.w
        free = self.current[w] is None and self.busy_until[w] <= t
        if free and not self.heads[w] and not lane.blocked:
            self._start(w, lane, msg, t)  # direct dispatch
            return
        msg.arr = t
        lane.q.append(msg)
        if not lane.ready and not lane.blocked:
            lane.ready = True
            heapq.heappush(self.heads[w], (t, self._counter, lane))
            self._counter += 1
            if free:
                self._dispatch(w, t)

    def unblock(self, lane: _Lane) -> None:
        """Called by COOR when alignment completes for a lane."""
        lane.blocked = False
        if lane.q and not lane.ready:
            lane.ready = True
            heapq.heappush(self.heads[lane.w], (lane.q[0].arr, self._counter, lane))
            self._counter += 1
            self._dispatch(lane.w, self.now)

    # -------------------------------------------------------------- dispatch
    def _dispatch(self, w: int, t: float) -> None:
        if self.current[w] is not None or self.busy_until[w] > t:
            return
        heads = self.heads[w]
        while heads:
            lane = heapq.heappop(heads)[2]
            q = lane.q
            if not q or lane.blocked:
                lane.ready = False
                continue
            msg = q.popleft()
            if q:
                heapq.heappush(heads, (q[0].arr, self._counter, lane))
                self._counter += 1
            else:
                lane.ready = False
            if self._start(w, lane, msg, t):
                return

    def _start(self, w: int, lane: _Lane, msg: Message, t: float) -> bool:
        """Process ``msg`` on worker ``w`` and schedule its ``proc`` event;
        False if it was dropped at zero cost (a duplicate or a stale offset)."""
        outbox = self._outbox = []
        self._extra_service = self._send_cost = 0.0
        # reentrancy guard: protocol hooks (unblock) may try to
        # re-dispatch this worker while we are mid-process
        self.current[w] = outbox

        if lane.part is not None:
            if msg.seq != lane.recv:
                self._outbox = self.current[w] = None
                return False  # stale pre-rollback schedule
            lane.recv += 1
            self.telemetry.n_source_emitted += 1
            service = lane.service
            self._emit(t, lane, msg.record)
        elif msg.record is None:  # a COOR marker or coordinator trigger
            service = self.cost.op_service("marker")
            self.protocol.on_marker(t, lane.inst, msg)
        else:
            if msg.seq <= lane.recv:
                self.n_dedup_drops += 1
                self._outbox = self.current[w] = None
                return False
            # two statements: a forced checkpoint adds to _extra_service
            extra = self.protocol.before_process(t, lane.inst, msg)
            self._extra_service += extra
            lane.recv = msg.seq
            service = lane.service + self.cost.serialize_per_byte * msg.proto_bytes
            for rec in lane.op.process(msg.record, lane.ch[0]):
                self._emit(t, lane, rec)

        self._outbox = None
        self.busy_until[w] = done = t + (service + self._extra_service + self._send_cost)
        self._counter += 1
        heapq.heappush(self.heap, (done, self._counter, "proc", w))
        return True

    def _emit(self, t: float, lane: _Lane, rec: Record) -> None:
        """Send ``rec`` from ``lane``'s receiver on the lanes its routes pick."""
        inst, outbox, on_send = lane.inst, self._outbox, self.protocol.on_send
        payload = payload_bytes_for(rec)
        per_byte, send, n, piggyback = self.cost.serialize_per_byte, self._send_cost, 0, 0
        for bcast, fixed, targets, key_fn in lane.routes:
            if bcast is not None and bcast(rec):
                outs = targets
            elif fixed is not None:
                outs = fixed
            else:
                outs = (targets[stable_hash(key_fn(rec)) % self.W],)
            for out in outs:
                out.sent += 1
                msg = Message(out.sent, rec, out)
                on_send(t, inst, msg)
                n += 1
                piggyback += msg.proto_bytes
                send += per_byte * msg.proto_bytes
                outbox.append(msg)
        tel = self.telemetry
        tel.n_data_msgs += n
        tel.data_payload_bytes += n * payload
        tel.piggyback_bytes += piggyback
        self._send_cost = send

    def emit_marker(self, inst: InstanceId, round_id: int) -> None:
        """COOR: broadcast a marker on every non-sink outgoing channel.

        Only called while a marker is dispatched, so the markers leave with
        that dispatch's outbox. A marker's ``seq`` is its round id: markers
        do not consume data sequence numbers, and channel-FIFO relative to
        data holds because arrival times are monotone in send times.
        """
        for lane in self.out_lanes[inst]:
            if lane.to_sink:
                continue
            msg = Message(round_id, None, lane, MARKER_BYTES)
            self.telemetry.n_marker_msgs += 1
            self._send_cost += self.cost.serialize_per_byte * MARKER_BYTES
            self._outbox.append(msg)

    # ----------------------------------------------------------- checkpoints
    def _store_checkpoint(
        self, inst: InstanceId, kind: str, round_id: Optional[int],
        ts: float, extra_duration: float = 0.0,
    ) -> Checkpoint:
        op = self.instances[inst]
        sb = op.state_bytes()
        cp = Checkpoint(
            instance=inst,
            index=len(self.store.checkpoints(inst)),
            ts=ts,
            kind=kind,
            round_id=round_id,
            state_bytes=sb,
            last_sent={ln.ch: ln.sent for ln in self.out_lanes[inst]},
            last_recv={ln.ch: ln.recv for ln in self.in_lanes[inst]},
            duration=self.cost.snapshot_time(sb) + extra_duration,
            state=op.snapshot() if isinstance(op, KeyedOp) else None,
        )
        self.store.put(cp)
        if kind != "initial" and self.protocol.counts_in_totals(inst):
            self.telemetry.checkpoints.append(cp)
        return cp

    def take_checkpoint(
        self, inst: InstanceId, kind: str, round_id: Optional[int] = None,
        extra_duration: float = 0.0,
    ) -> Checkpoint:
        """Protocol-facing checkpoint: snapshot now, charge the synchronous
        part to the hosting worker, count it in telemetry. ``extra_duration``
        models protocol-specific persistence work (e.g. CIC's vectors)."""
        cp = self._store_checkpoint(
            inst, kind=kind, round_id=round_id, ts=self.now, extra_duration=extra_duration,
        )
        w = inst[1]
        if self.current[w] is not None:
            self._extra_service += self.cost.snapshot_sync
        else:
            self.busy_until[w] = max(self.busy_until[w], self.now) + self.cost.snapshot_sync
            self.call_at(self.busy_until[w], partial(self._dispatch, w))
        return cp

    # -------------------------------------------------------------- failures
    def _fail(self, t: float) -> None:
        """The failure: every pending event was scheduled before it, so
        emptying the heap drops them all. Messages already sent to the
        external sink still arrive: ``_loop`` recorded them when their
        ``proc`` popped. The heap and worker lists are emptied in place,
        because ``_loop`` holds the heap."""
        self.heap.clear()
        for lane in self.lanes.values():
            lane.q.clear()
            # an in-flight COOR round dies with the failure: nothing
            # dispatches before recovery resumes, so no lane stays held
            lane.ready = lane.blocked = False
        for heads in self.heads:
            heads.clear()
        self.current[:] = [None] * self.W
        self.busy_until[:] = [t] * self.W
        self.telemetry.recovery["t_fail"] = t
        self.call_at(t + self.cost.detect_delay, self._detect)

    def _detect(self, t: float) -> None:
        plan = self.protocol.plan_recovery(t)
        restore_bytes = 0
        for inst, idx in plan.line.items():
            restore_bytes = max(restore_bytes, self.store.get(inst, idx).state_bytes)
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
        self.call_at(t + restart, partial(self._resume, plan))

    def _resume(self, plan, t: float) -> None:
        for inst, idx in plan.line.items():
            self.store.retire_above(inst, idx)
            cp = self.store.get(inst, idx)
            op = self.instances[inst]
            if isinstance(op, KeyedOp):
                if cp.state is None:
                    raise RuntimeError(
                        f"checkpoint {idx} of {inst} has no payload to restore: it was dropped"
                    )
                op.restore(cp.state)
            for ch, s in cp.last_sent.items():
                self.lanes[ch].sent = s
                self.msg_log.truncate(ch, s)
            for ch, s in cp.last_recv.items():
                self.lanes[ch].recv = s
        for lane in self.source_lanes.values():
            self._schedule_source_records(lane, t + 1e-6)
        k, latency = 0, self.cost.channel_latency
        for ch in sorted(plan.replay.keys()):
            lane = self.lanes[ch]
            for seq, rec in plan.replay[ch]:
                k += 1
                self._counter += 1
                msg = Message(seq, rec, lane)
                heapq.heappush(self.heap, (t + latency + k * 1e-7, self._counter, "arrive", msg))
        self.telemetry.recovery["t_resume"] = t
        self.protocol.on_resume(t)

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
        with gc_paused():
            try:
                self._loop(duration, fail_at, max_events)
            finally:
                # a simulation runs once: drop the pointers back into it, so
                # that reference counting alone frees it
                self.protocol.sim = None
                for lane in self.lanes.values():
                    lane.routes = ()

            return SimResult(
                telemetry=self.telemetry,
                sink_results=self.sinks,
                duration=self.now,
                n_dedup_drops=self.n_dedup_drops,
                n_duplicate_sink_arrivals=self.n_dup_sink,
                store=self.store,
                instances=self.instances,
            )

    def _loop(self, duration: float, fail_at: Optional[float], max_events: int) -> None:
        """The event loop of :meth:`run`: pop and handle events until the
        heap is empty."""
        self.horizon = duration
        for lane in self.source_lanes.values():
            self._schedule_source_records(lane, 0.0)
        self.protocol.on_resume(0.0)  # arm the first timers / round
        if fail_at is not None:
            self.call_at(fail_at, self._fail)

        pops, last_sink = 0, 0.0
        heap = self.heap
        heappop, heappush = heapq.heappop, heapq.heappush
        latency = self.cost.channel_latency
        sink_ts, ingest_ts = self.telemetry.sink_ts, self.telemetry.ingest_ts
        while heap:
            pops += 1
            if pops > max_events:
                raise RuntimeError(f"simulation exceeded {max_events} events")
            t, _, kind, data = heappop(heap)
            self.now = t
            if kind == "src":
                src, off = data
                lane, part, base, floor = src
                nxt = off + 1
                if nxt < len(part):
                    t_next = max(part[nxt].ingest_ts, floor)
                    if t_next < t:
                        raise ValueError(
                            f"partition {lane.w} of source {lane.ch[2]!r} is not in "
                            f"ingest-time order at offset {nxt}"
                        )
                    heappush(heap, (t_next, base + nxt, "src", (src, nxt)))
                self._enqueue(t, Message(off, part[off], lane))
            elif kind == "arrive":
                self._enqueue(t, data)
            elif kind == "proc":
                w = data
                for m in self.current[w] or ():
                    if not m.lane.to_sink:
                        self._counter += 1
                        heappush(heap, (t + latency, self._counter, "arrive", m))
                        continue
                    # the external sink: the first arrival of a uid wins
                    last_sink, rec = t + latency, m.record
                    results = self.sinks[m.lane.ch[2]]
                    if rec.uid in results:
                        self.n_dup_sink += 1
                    else:
                        results[rec.uid] = rec.value
                        sink_ts.append(last_sink)
                        ingest_ts.append(rec.ingest_ts)
                self.current[w] = None
                if self.heads[w]:
                    self._dispatch(w, t)
            elif kind == "call":
                data(t)
            else:  # pragma: no cover
                raise AssertionError(kind)
        self.now = max(self.now, last_sink)  # the run ends when its output has arrived
