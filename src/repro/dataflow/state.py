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

    ``state`` is None on an instance that is not a ``KeyedOp``, and once
    the store has dropped the payload (see :class:`CheckpointStore`); the
    record and its counters stay for the whole run.
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
    dead: bool = False  #: retired: above the line a recovery restored


class CheckpointStore:
    """Durable store of checkpoints, keyed by instance, ordered by index.

    Every record stays for the whole run, because Table III counts them.
    An instance's *live chain* holds the records a present or future
    recovery line can use: all of them until a recovery restores a line,
    which retires every record above it (:meth:`retire_above`). Along the
    live chain the channel counters rise with the index, which is what the
    recovery line's fixpoint needs. A payload that no later line can reach
    is dropped: a dead record's, and a live record's below a line that
    every later recovery line is at or above (:meth:`release_below`).
    """

    def __init__(self):
        self._by_instance: Dict[InstanceId, List[Checkpoint]] = {}
        self._live: Dict[InstanceId, List[Checkpoint]] = {}
        #: inst -> position in its live chain below which no record holds a payload
        self._released: Dict[InstanceId, int] = {}

    def put(self, cp: Checkpoint) -> None:
        lst = self._by_instance.setdefault(cp.instance, [])
        if cp.index != len(lst):
            raise ValueError(
                f"checkpoint index {cp.index} of {cp.instance} is not the next {len(lst)}"
            )
        lst.append(cp)
        self._live.setdefault(cp.instance, []).append(cp)

    def checkpoints(self, inst: InstanceId) -> List[Checkpoint]:
        """Every record of ``inst``, dead ones included, in index order."""
        return self._by_instance.get(inst, [])

    def live(self, inst: InstanceId) -> List[Checkpoint]:
        """The live chain of ``inst``, in index order."""
        return self._live.get(inst, [])

    def retire_above(self, inst: InstanceId, index: int) -> None:
        """Mark ``inst``'s live records above ``index`` dead and drop their
        payloads: a recovery restored ``index``, so they hold a history
        that was rolled back."""
        live = self._live[inst]
        while live[-1].index > index:
            cp = live.pop()
            cp.dead, cp.state = True, None

    def release_below(self, inst: InstanceId, index: int) -> None:
        """Drop the payloads of ``inst``'s live records below ``index``. The
        caller knows that no later recovery line restores ``inst`` below
        ``index``."""
        live, pos = self._live[inst], self._released.get(inst, 0)
        while live[pos].index < index:
            live[pos].state = None
            pos += 1
        self._released[inst] = pos

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
