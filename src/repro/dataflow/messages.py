"""Message and record model for the streaming-dataflow substrate.

The paper's testbed (Styx) moves records between operator instances over
FIFO channels; checkpoint markers (COOR) travel in-stream with the data,
and CIC piggybacks protocol vectors on every data message. This module
defines those wire-level objects plus the byte-size model that drives the
message-overhead metric (paper Table II).
"""
from __future__ import annotations

import zlib
from dataclasses import dataclass
from enum import Enum
from typing import Any, Optional, Tuple

#: Channel identity: (src_op, src_idx, dst_op, dst_idx).
Channel = Tuple[str, int, str, int]
#: Operator-instance identity: (op_name, worker_idx).
InstanceId = Tuple[str, int]


def stable_hash(key: Any) -> int:
    """Deterministic cross-process hash (python's builtin str hash is salted).

    Used for hash partitioning so that a rerun with the same seed routes
    every record to the same worker — required for deterministic replay.
    """
    return zlib.crc32(repr(key).encode())


class Kind(Enum):
    """Wire-level message kinds."""

    DATA = "data"  #: a record produced by the workload
    MARKER = "marker"  #: COOR checkpoint barrier marker


@dataclass
class Record:
    """A single workload record.

    ``uid`` is globally unique and survives reprocessing: a record re-derived
    after rollback carries the same uid, which is what makes sink-level
    deduplication and exactly-once verification possible.

    ``ingest_ts`` is the virtual time the *root* source event entered the
    system; derived records inherit it so end-to-end latency is measured
    from source ingestion to sink arrival (paper §V, end-to-end latency).
    """

    uid: str
    key: Any
    value: Any
    ingest_ts: float
    kind: str = "event"  #: workload-level type tag (e.g. "bid", "person")


@dataclass(slots=True)
class Message:
    """A message in flight on a channel.

    ``seq`` is the per-channel FIFO sequence number assigned at send time;
    UNC/CIC use it for message logging, dedup and orphan detection. On a
    source channel it is the record's partition offset.
    ``payload_bytes`` is the workload payload size; ``proto_bytes`` is
    protocol overhead riding on this message (marker size, CIC piggyback).
    ``piggyback`` carries CIC's clock/vector payload when present.
    ``meta`` is set only on COOR markers and coordinator triggers (round
    id, trigger flag). ``arr`` is the virtual time the message entered its
    destination channel queue.
    """

    kind: Kind
    channel: Channel
    seq: int
    record: Optional[Record]
    payload_bytes: int
    proto_bytes: int = 0
    send_ts: float = 0.0
    piggyback: Optional[dict] = None
    meta: Optional[dict] = None
    arr: float = 0.0


#: Default workload payload sizes in bytes per record kind. Q1's bids are the
#: smallest records, which is why CIC's relative overhead is largest on Q1
#: (paper Table II: 2.10x on Q1 vs 1.74-1.82x on Q3/Q8).
PAYLOAD_BYTES = {
    "bid": 22,
    "bid_eur": 22,
    "person": 56,
    "auction": 48,
    "q3_out": 64,
    "q8_out": 48,
    "q12_out": 28,
    "link": 30,
    "source_node": 40,
    "pair": 60,
    "path": 52,
    "event": 32,
}

MARKER_BYTES = 8  #: COOR marker wire size (a round id tag)
CKPT_META_BYTES = 48  #: UNC per-checkpoint metadata message to the coordinator


def payload_bytes_for(record: Record) -> int:
    """Wire payload size for a record, with a variable-path-length term for
    the cyclic query's path records."""
    base = PAYLOAD_BYTES.get(record.kind, PAYLOAD_BYTES["event"])
    if record.kind in ("source_node", "path") and isinstance(record.value, dict):
        path = record.value.get("path")
        if path is not None:
            base += 4 * len(path)
    return base
