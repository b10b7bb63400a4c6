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

from typing import Dict, Set

from repro.dataflow.messages import Channel, InstanceId, Message

from .base import Protocol, RecoveryPlan


class CoordinatedProtocol(Protocol):
    """COOR: coordinated aligned checkpoints."""

    name = "COOR"
    supports_cycles = False
    features = {
        "blocking_markers": True,
        "inflight_logging": False,
        "dedup_required": False,
        "message_overhead": False,
        "independent_checkpoints": False,
        "straggler_stalls": True,
        "unused_checkpoints": False,
        "forced_checkpoints": False,
    }

    #: round control traffic: coordinator start/conclude message per worker
    ROUND_CTRL_BYTES = 16

    def __init__(self, round_interval: float = 5.0):
        super().__init__()
        self.round_interval = round_interval
        self.round_id = 0
        self.blocked: Set[Channel] = set()
        #: inst -> set of channels whose marker for the current round arrived
        self.aligning: Dict[InstanceId, Set[Channel]] = {}
        #: inst -> last round this instance snapshotted
        self.last_round: Dict[InstanceId, int] = {}
        #: round -> {inst: checkpoint index}
        self.round_members: Dict[int, Dict[InstanceId, int]] = {}
        self.round_start: Dict[int, float] = {}
        self.completed_rounds: list = []  # [(round_id, {inst: idx}, end_ts)]
        self.participants: list = []

    def bind(self, sim) -> None:
        super().bind(sim)
        self.participants = [
            inst for inst in sim.instances if not sim.graph.ops[inst[0]].is_sink
        ]

    # -- round lifecycle ---------------------------------------------------
    def on_start(self) -> None:
        self.sim.call_at(self.round_interval, self._start_round)

    def on_resume(self, t: float) -> None:
        # an in-flight round died with the failure: reset alignment state
        self.blocked.clear()
        self.aligning.clear()
        self.sim.call_at(t + self.round_interval, self._start_round)

    def _start_round(self, t: float) -> None:
        if t >= self.sim.horizon:
            return  # workload over: no further rounds, let the run drain
        self.round_id += 1
        r = self.round_id
        self.round_members[r] = {}
        self.round_start[r] = t
        for w in range(self.sim.W):
            self.sim.log_proto_message(self.ROUND_CTRL_BYTES)
        for inst in self.sim.cursors:
            # the coordinator's trigger travels through the worker CPU: on a
            # straggling worker the source's snapshot + markers are delayed
            # behind the backlog (the paper's skew mechanism)
            self.sim.enqueue_trigger(inst, {"round": r})
        self._maybe_complete(r, t)

    def _maybe_complete(self, r: int, t: float) -> None:
        if len(self.round_members.get(r, {})) == len(self.participants):
            end = t + self.sim.cost.store_rtt
            self.completed_rounds.append((r, dict(self.round_members[r]), end))
            self.sim.telemetry.record_round(
                r, self.round_start[r], end, len(self.round_members[r])
            )
            for w in range(self.sim.W):
                self.sim.log_proto_message(self.ROUND_CTRL_BYTES)
            # fixed-period rounds (Flink-style): the next round starts one
            # interval after this round *started*, unless the round itself
            # overran the interval (stragglers/skew)
            self.sim.call_at(
                max(end, self.round_start[r] + self.round_interval), self._start_round
            )

    # -- marker handling ---------------------------------------------------
    def is_blocked(self, channel: Channel) -> bool:
        return channel in self.blocked

    def on_marker(self, t: float, inst: InstanceId, msg: Message) -> None:
        r = msg.meta["round"]
        if r <= self.last_round.get(inst, 0) or r != self.round_id:
            return  # marker of a superseded (pre-failure) round
        if msg.meta.get("trigger"):  # coordinator trigger at a source
            meta = self.sim.take_checkpoint(inst, "coordinated", round_id=r)
            self.round_members[r][inst] = meta.index
            self.last_round[inst] = r
            self.sim.emit_marker(inst, r)
            self._maybe_complete(r, t)
            return
        got = self.aligning.setdefault(inst, set())
        got.add(msg.channel)
        self.blocked.add(msg.channel)
        if len(got) == len(self.sim.in_channels[inst]):
            meta = self.sim.take_checkpoint(inst, "coordinated", round_id=r)
            self.round_members[r][inst] = meta.index
            self.last_round[inst] = r
            self.sim.emit_marker(inst, r)
            del self.aligning[inst]
            for ch in self.sim.in_channels[inst]:
                self.blocked.discard(ch)
                self.sim.unblock_channel(ch)
            self._maybe_complete(r, t)

    def counts_in_totals(self, inst) -> bool:
        """COOR: every aligned participant's snapshot counts (the paper's
        Table III totals are rounds x participating instances)."""
        return not self.sim.graph.ops[inst[0]].is_sink

    # -- recovery ----------------------------------------------------------
    def plan_recovery(self, t_detect: float) -> RecoveryPlan:
        """Roll every operator back to the last *completed* round (or to the
        initial state if none completed). Aligned cut: no replay, no
        recovery-line search, no invalid checkpoints."""
        if self.completed_rounds:
            r, members, _ = self.completed_rounds[-1]
            line = {inst: members[inst] for inst in self.participants}
            info = {"round": r}
        else:
            line = {inst: 0 for inst in self.participants}
            info = {"round": None}
        return RecoveryPlan(
            line=line,
            replay={},
            invalid=0,
            ckpts_scanned=len(self.participants),
            info=info,
        )
