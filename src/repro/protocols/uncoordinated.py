"""Uncoordinated checkpointing — UNC (paper §III-B).

Every participating operator instance snapshots on its own local timer
(independent intervals + deterministic jitter). Exactly-once needs two
extra mechanisms the paper calls out:

- **Upstream backup / message logging**: every worker-to-worker data
  message is appended to a durable sender-side log at send time. After a
  rollback to a recovery line, the per-channel interval
  ``(receiver.last_recv, sender.last_sent]`` is replayed from the log —
  these are exactly the in-flight messages of Def. 5.
- **Deduplication**: receivers drop messages whose per-channel sequence
  number is not beyond their restored counter.

Stateless non-source operators do not take counted state checkpoints
(paper: "the stateless, non-source operators do not need to participate");
they do persist their channel counters (cheap metadata-only checkpoints)
so the recovery line is well defined on every channel.

Checkpoint GC (as in the paper's ref. [47]): after every ``len(instances)``
checkpoints the protocol stores, it finds the greatest consistent line of
the checkpoints so far and drops the payloads below it. That line only
moves up as checkpoints are added, so no later recovery line reaches a
dropped payload, and an instance keeps the payloads from its line on.
"""
from __future__ import annotations

from functools import partial
from typing import Dict

from repro.dataflow.messages import CKPT_META_BYTES, InstanceId, Message

from .base import Protocol, RecoveryPlan
from .recovery import channel_counters, find_recovery_line

#: relative spread of each instance's checkpoint period around ``interval``
JITTER = 0.05


class UncoordinatedProtocol(Protocol):
    """UNC: independent checkpoints + message logging + rollback propagation."""

    name = "UNC"
    features = {
        **Protocol.features,
        "inflight_logging": True,
        "dedup_required": True,
        "independent_checkpoints": True,
        "unused_checkpoints": True,
    }

    def __init__(self, interval: float = 4.0):
        super().__init__()
        self.interval = interval
        self._period: Dict[InstanceId, float] = {}
        self._stored = 0  #: checkpoints stored since the last GC

    # -- timers ------------------------------------------------------------
    def bind(self, sim) -> None:
        super().bind(sim)
        rng = sim.rng
        for inst in sim.instances:
            self._period[inst] = self.interval * (1.0 + JITTER * (2 * rng.random() - 1))

    def on_resume(self, t: float) -> None:
        rng = self.sim.rng
        for inst, period in self._period.items():
            self.sim.call_at(t + period * (0.25 + 0.75 * rng.random()), partial(self._fire, inst))

    def _fire(self, inst: InstanceId, t: float) -> None:
        """``inst``'s checkpoint timer: checkpoint and re-arm. Timers are
        ``partial``s of this bound method so that no timer forms a
        reference cycle."""
        if t >= self.sim.horizon:
            return  # workload over: stop checkpointing, let the run drain
        self.on_local_checkpoint(inst)
        self.sim.call_at(t + self._period[inst], partial(self._fire, inst))

    def checkpoint_extra_duration(self, inst: InstanceId) -> float:
        """Protocol-state persistence time on top of the state snapshot
        (zero for UNC; CIC persists its vectors too)."""
        return 0.0

    def on_local_checkpoint(self, inst: InstanceId, kind: str = "local") -> None:
        self.sim.take_checkpoint(
            inst, kind, extra_duration=self.checkpoint_extra_duration(inst)
        )
        # checkpoint metadata announced to the coordinator (Table II: the
        # only message overhead UNC introduces)
        self.sim.telemetry.proto_msg_bytes += CKPT_META_BYTES
        self._stored += 1
        if self._stored == len(self.sim.instances):
            self._stored = 0
            self._collect()

    def _collect(self) -> None:
        """Drop the payloads below the greatest consistent line so far."""
        store = self.sim.store
        line, _ = find_recovery_line(store, self.sim.instances, ())
        for inst, idx in line.items():
            store.release_below(inst, idx)

    # -- data path ---------------------------------------------------------
    def on_send(self, t: float, inst: InstanceId, msg: Message) -> None:
        if not msg.lane.to_sink:
            self.sim.msg_log.append(msg.lane.ch, msg.seq, msg.record)

    # -- recovery ----------------------------------------------------------
    def plan_recovery(self, t_detect: float) -> RecoveryPlan:
        sim = self.sim
        instances = list(sim.instances.keys())
        line, invalid = find_recovery_line(
            sim.store, instances, counted=[i for i in instances if self.counts_in_totals(i)],
        )
        replay = {
            ch: sim.msg_log.replay_range(ch, recv, sent)
            for ch, recv, sent in channel_counters(sim.store, line) if sent > recv
        }
        return RecoveryPlan(
            line=line,
            replay=replay,
            invalid=invalid,
            ckpts_scanned=sim.store.total_count(),
        )
