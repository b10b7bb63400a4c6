"""Coordinated aligned checkpointing — COOR (paper §III-A).

Chandy-Lamport adapted for acyclic dataflow graphs, as in Apache Flink:
a coordinator starts a round; sources snapshot and forward markers on all
outgoing channels; every other operator blocks each channel on which it has
received the round's marker until markers arrived on *all* inputs, then
snapshots, forwards markers, and unblocks. Alignment makes the round a
consistent cut without channel state, so recovery needs no in-flight
replay and no recovery-line search.
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
        self.round_id = 0
        #: inst -> the lanes whose marker for the current round arrived;
        #: each stays ``blocked`` until the instance has aligned
        self.aligning: Dict[InstanceId, Set] = {}
        #: inst -> last round this instance snapshotted
        self.last_round: Dict[InstanceId, int] = {}
        #: round -> {inst: checkpoint index}
        self.round_members: Dict[int, Dict[InstanceId, int]] = {}
        self.round_start: Dict[int, float] = {}
        #: id of the last round every participant snapshotted in
        self.last_completed: Optional[int] = None
        self.participants: list = []

    def bind(self, sim) -> None:
        super().bind(sim)
        self.participants = list(sim.instances)

    # -- round lifecycle ---------------------------------------------------
    def on_start(self) -> None:
        self.sim.call_at(self.round_interval, self._start_round)

    def on_resume(self, t: float) -> None:
        # an in-flight round died with the failure (the simulator has
        # already released its lanes): reset alignment state
        self.aligning.clear()
        self.sim.call_at(t + self.round_interval, self._start_round)

    def _start_round(self, t: float) -> None:
        if t >= self.sim.horizon:
            return  # workload over: no further rounds, let the run drain
        self.round_id += 1
        r = self.round_id
        self.round_members[r] = {}
        self.round_start[r] = t
        self.sim.telemetry.proto_msg_bytes += self.ROUND_CTRL_BYTES * self.sim.W
        for inst in self.sim.source_lanes:
            # the coordinator's trigger travels through the worker CPU: on a
            # straggling worker the source's snapshot + markers are delayed
            # behind the backlog (the paper's skew mechanism)
            self.sim.enqueue_trigger(inst, r)
        self._maybe_complete(r, t)

    def _maybe_complete(self, r: int, t: float) -> None:
        if len(self.round_members[r]) == len(self.participants):
            end = t + self.sim.cost.store_rtt
            self.last_completed = r
            self.sim.telemetry.record_round(
                r, self.round_start[r], end, len(self.round_members[r])
            )
            self.sim.telemetry.proto_msg_bytes += self.ROUND_CTRL_BYTES * self.sim.W
            # fixed-period rounds (Flink-style): the next round starts one
            # interval after this round *started*, unless the round itself
            # overran the interval (stragglers/skew)
            self.sim.call_at(
                max(end, self.round_start[r] + self.round_interval), self._start_round
            )

    # -- marker handling ---------------------------------------------------
    def on_marker(self, t: float, inst: InstanceId, msg: Message) -> None:
        r = msg.seq  # a marker's or trigger's seq is its round
        if r <= self.last_round.get(inst, 0) or r != self.round_id:
            return  # marker of a superseded (pre-failure) round
        in_lanes = self.sim.in_lanes[inst]
        if in_lanes:  # a source has none: its coordinator trigger needs no alignment
            got = self.aligning.setdefault(inst, set())
            got.add(msg.lane)
            msg.lane.blocked = True
            if len(got) < len(in_lanes):
                return
            del self.aligning[inst]
        meta = self.sim.take_checkpoint(inst, "coordinated", round_id=r)
        self.round_members[r][inst] = meta.index
        self.last_round[inst] = r
        self.sim.emit_marker(inst, r)
        for lane in in_lanes:
            self.sim.unblock(lane)
        self._maybe_complete(r, t)

    def counts_in_totals(self, inst) -> bool:
        """COOR: every aligned participant's snapshot counts (the paper's
        Table III totals are rounds x participating instances)."""
        return True

    # -- recovery ----------------------------------------------------------
    def plan_recovery(self, t_detect: float) -> RecoveryPlan:
        """Roll every operator back to the last *completed* round (or to the
        initial state if none completed). Aligned cut: no replay, no
        recovery-line search, no invalid checkpoints."""
        r = self.last_completed
        members = self.round_members[r] if r is not None else dict.fromkeys(self.participants, 0)
        return RecoveryPlan(
            line={inst: members[inst] for inst in self.participants},
            replay={},
            invalid=0,
            ckpts_scanned=len(self.participants),
            info={"round": r},
        )
