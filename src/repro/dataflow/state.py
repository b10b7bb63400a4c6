"""Durable checkpoint store — the Minio substitute.

Checkpoints (operator-state snapshots plus the channel-counter metadata the
recovery-line algorithm needs) are kept in a store that survives simulated
worker failures. Persistence cost is *modelled* (serialize + upload time in
``SimCost``), not re-measured, because absolute storage bandwidth is a
testbed property, not a protocol property.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from .messages import Channel, InstanceId


@dataclass(slots=True)
class Checkpoint:
    """One checkpoint: an instance's snapshot plus its channel counters.

    ``last_sent``/``last_recv`` are the per-channel sequence counters at
    snapshot time. They serve three roles (paper §III-B): finding the
    recovery line (orphan detection), choosing the replay interval per
    channel, and receiver-side deduplication after rollback. A source's
    Kafka offset is the ``last_recv`` entry of its source channel.
    """

    instance: InstanceId
    index: int  #: per-instance checkpoint ordinal (0-based)
    ts: float  #: virtual time the snapshot was taken
    kind: str  #: "initial" | "local" | "forced" | "coordinated"
    round_id: Optional[int]  #: COOR round, None otherwise
    state_bytes: int
    last_sent: Dict[Channel, int] = field(default_factory=dict)
    last_recv: Dict[Channel, int] = field(default_factory=dict)
    duration: float = 0.0  #: modelled checkpointing time for this snapshot
    state: Any = None  #: copy-on-write snapshot of a ``KeyedOp``'s state


class CheckpointStore:
    """Durable store of checkpoints, keyed by instance, ordered by index."""

    def __init__(self):
        self._by_instance: Dict[InstanceId, List[Checkpoint]] = {}

    def put(self, cp: Checkpoint) -> None:
        lst = self._by_instance.setdefault(cp.instance, [])
        if cp.index != len(lst):
            raise ValueError(
                f"checkpoint index {cp.index} of {cp.instance} is not the next {len(lst)}"
            )
        lst.append(cp)

    def checkpoints(self, inst: InstanceId) -> List[Checkpoint]:
        return self._by_instance.get(inst, [])

    def get(self, inst: InstanceId, index: int) -> Checkpoint:
        return self._by_instance[inst][index]

    def total_count(self) -> int:
        return sum(len(v) for v in self._by_instance.values())


class MessageLog:
    """Durable sender-side message log (upstream backup, paper §III-B).

    UNC/CIC log every data message per channel at send time. After a
    rollback to a recovery line, the messages in the interval
    ``(receiver_ckpt.last_recv, sender_ckpt.last_sent]`` per channel are
    the in-flight messages of Def. 5 and are replayed from here.

    A channel's log is dense: each send is logged with the channel's next
    seq, and a sender's rollback cuts its log back to the restored counter
    before it re-sends. So the log is a plain list of records in which
    index ``seq - 1`` holds message ``seq``.
    """

    def __init__(self):
        self._log: Dict[Channel, List[Any]] = {}

    def append(self, channel: Channel, seq: int, record: Any) -> None:
        log = self._log.setdefault(channel, [])
        if seq != len(log) + 1:
            why = "is not above" if seq <= len(log) else "leaves a gap after"
            raise ValueError(f"seq {seq} on {channel} {why} the logged {len(log)}")
        log.append(record)

    def truncate(self, channel: Channel, seq: int) -> None:
        """Drop the channel's logged messages above ``seq``."""
        del self._log.get(channel, [])[seq:]

    def replay_range(self, channel: Channel, after_seq: int, upto_seq: int) -> List[Tuple[int, Any]]:
        """Logged (seq, record) with after_seq < seq <= upto_seq, in order."""
        log = self._log.get(channel, ())
        lo, hi = max(after_seq, 0), min(upto_seq, len(log))
        return list(zip(range(lo + 1, hi + 1), log[lo:hi]))

    def total_logged(self) -> int:
        return sum(len(v) for v in self._log.values())

    def channels(self) -> List[Channel]:
        return sorted(self._log.keys())
