"""Replayable partitioned source log — the Apache Kafka substitute.

The checkpointing protocols only rely on two Kafka properties (paper §IV:
"Apache Kafka as a replayable fault-tolerant source"): per-partition FIFO
order and offset-based replay. ``ReplayableLog`` provides exactly that:
events are appended per partition ahead of the run; each source instance
consumes its own partition and checkpoints its offset; recovery rewinds
the offset and the exact same suffix is re-served. The offset itself is
the ``recv`` counter of the source's lane in the simulator.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import List

from .messages import Record


@dataclass
class ReplayableLog:
    """An append-only, partitioned, replayable event log for one topic."""

    topic: str
    partitions: List[List[Record]] = field(default_factory=list)

    @classmethod
    def from_records(cls, topic: str, records: List[Record], n_partitions: int) -> "ReplayableLog":
        """Distribute pre-generated records over partitions round-robin.

        Records must already be in ingest-time order; round-robin keeps each
        partition time-ordered.
        """
        parts = [records[w::n_partitions] for w in range(n_partitions)]
        return cls(topic=topic, partitions=parts)

    @property
    def n_partitions(self) -> int:
        return len(self.partitions)

    def total_events(self) -> int:
        return sum(len(p) for p in self.partitions)
