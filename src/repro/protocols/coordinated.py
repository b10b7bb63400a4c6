"""Coordinated aligned checkpointing — COOR (paper §III-A).

Chandy-Lamport adapted for acyclic dataflow graphs, as in Apache Flink:
a coordinator starts a round; sources snapshot and forward markers on all
outgoing channels; every other operator blocks each channel on which it has
received the round's marker until markers arrived on *all* inputs, then
snapshots, forwards markers, and unblocks. Alignment makes the round a
consistent cut without channel state, so recovery needs no in-flight
replay and no recovery-line search. COOR holds only its running round and
the line of the last completed one, so its state is O(instances) however
long the run; the store holds each round's checkpoints (``round_id``).
Recovery restores only the last completed round, so when a round
completes the payloads of every checkpoint below its line are dropped.
"""
from __future__ import annotations

from typing import Dict, Optional, Set

from repro.dataflow.messages import InstanceId, Message

from .base import Protocol, RecoveryPlan


class CoordinatedProtocol(Protocol):
    """COOR: coordinated aligned checkpoints."""

    name = "COOR"
    supports_cycles = False
    features = {**Protocol.features, "blocking_markers": True, "straggler_stalls": True}

    #: round control traffic: coordinator start/conclude message per worker
    ROUND_CTRL_BYTES = 16

    def __init__(self, round_interval: float = 5.0):
        super().__init__()
        self.round_interval = round_interval
        #: the running round: its id, start time, and members (inst ->
        #: index of its checkpoint in this round)
        self.round_id = 0
        self.round_start = 0.0
        self.members: Dict[InstanceId, int] = {}
        #: inst -> the lanes whose marker for the running round arrived;
        #: each stays ``blocked`` until the instance has aligned
        self.aligning: Dict[InstanceId, Set] = {}
        #: the last round every instance snapshotted in, and its line
        #: (inst -> checkpoint index); all zeros before any round completed
        self.last_completed: Optional[int] = None
        self.line: Dict[InstanceId, int] = {}

    def bind(self, sim) -> None:
        super().bind(sim)
        self.line = dict.fromkeys(sim.instances, 0)

    # -- round lifecycle ---------------------------------------------------
    def on_resume(self, t: float) -> None:
        # an in-flight round died with the failure (the simulator has
        # already released its lanes): reset alignment state
        self.aligning.clear()
        self.sim.call_at(t + self.round_interval, self._start_round)

    def _start_round(self, t: float) -> None:
        if t >= self.sim.horizon:
            return  # workload over: no further rounds, let the run drain
        self.round_id += 1
        self.round_start = t
        self.members = {}
        self.sim.telemetry.proto_msg_bytes += self.ROUND_CTRL_BYTES * self.sim.W
        for inst in self.sim.source_lanes:
            # the coordinator's trigger travels through the worker CPU: on a
            # straggling worker the source's snapshot + markers are delayed
            # behind the backlog (the paper's skew mechanism)
            self.sim.enqueue_trigger(inst, self.round_id)
        self._maybe_complete(t)

    def _maybe_complete(self, t: float) -> None:
        if len(self.members) == len(self.sim.instances):
            start, end = self.round_start, t + self.sim.cost.store_rtt
            self.last_completed, self.line = self.round_id, self.members
            store = self.sim.store
            for inst, idx in self.line.items():
                store.release_below(inst, idx)
            self.sim.telemetry.rounds.append((self.round_id, start, end - start))
            self.sim.telemetry.proto_msg_bytes += self.ROUND_CTRL_BYTES * self.sim.W
            # fixed-period rounds (Flink-style): the next round starts one
            # interval after this round *started*, unless the round itself
            # overran the interval (stragglers/skew)
            self.sim.call_at(max(end, start + self.round_interval), self._start_round)

    # -- marker handling ---------------------------------------------------
    def on_marker(self, t: float, inst: InstanceId, msg: Message) -> None:
        r = msg.seq  # a marker's or trigger's seq is its round
        if r != self.round_id or inst in self.members:
            return  # marker of a superseded (pre-failure) round
        in_lanes = ()
        if inst not in self.sim.source_lanes:  # a source's trigger needs no alignment
            in_lanes = self.sim.in_lanes[inst]
            got = self.aligning.setdefault(inst, set())
            got.add(msg.lane)
            msg.lane.blocked = True
            if len(got) < len(in_lanes):
                return
            del self.aligning[inst]
        self.members[inst] = self.sim.take_checkpoint(inst, "coordinated", round_id=r).index
        self.sim.emit_marker(inst, r)
        for lane in in_lanes:
            self.sim.unblock(lane)
        self._maybe_complete(t)

    def counts_in_totals(self, inst) -> bool:
        """COOR: every aligned participant's snapshot counts (the paper's
        Table III totals are rounds x participating instances)."""
        return True

    # -- recovery ----------------------------------------------------------
    def plan_recovery(self, t_detect: float) -> RecoveryPlan:
        """Roll every operator back to the last *completed* round (or to the
        initial state if none completed). Aligned cut: no replay, no
        recovery-line search, no invalid checkpoints."""
        instances = self.sim.instances
        return RecoveryPlan(
            line={inst: self.line[inst] for inst in instances},
            replay={},
            invalid=0,
            ckpts_scanned=len(instances),
            info={"round": self.last_completed},
        )
