"""Telemetry collected during a simulation run.

One run produces plain lists (counted checkpoints, COOR rounds) plus
recovery bookkeeping, aggregate byte counters and the sink latency log:
``array('d')`` columns ``sink_ts``/``ingest_ts``, one entry per first arrival.
``core.harness.metrics_row`` flattens them into one metrics row per run;
keeping per-message data as counters (not rows) bounds memory at
50-worker scale. A fact another structure already holds is derived from
it, not counted again: checkpoints are the store's own records,
``n_sinked`` is the latency log's length and ``marker_bytes`` follows
from the marker count.
"""
from __future__ import annotations

from array import array
from dataclasses import dataclass, field
from typing import Any, Dict, List, Tuple

from .messages import MARKER_BYTES
from .state import Checkpoint


@dataclass
class Telemetry:
    """Mutable collector passed through the simulator."""

    # message traffic byte counters, split the way Table II needs them
    data_payload_bytes: int = 0
    piggyback_bytes: int = 0  #: CIC vectors riding on data messages
    proto_msg_bytes: int = 0  #: standalone protocol messages (UNC ckpt meta)
    n_data_msgs: int = 0
    n_marker_msgs: int = 0

    #: counted checkpoints (``Protocol.counts_in_totals``, initial ones
    #: excluded), in the order they were taken
    checkpoints: List[Checkpoint] = field(default_factory=list)
    #: COOR rounds: one ``(round_id, start, duration)`` per completed round
    rounds: List[Tuple[int, float, float]] = field(default_factory=list)
    # sink latency log: sink arrival and ingest time of each first arrival
    sink_ts: array = field(default_factory=lambda: array("d"))
    ingest_ts: array = field(default_factory=lambda: array("d"))
    # recovery bookkeeping for the (single) injected failure
    recovery: Dict[str, Any] = field(default_factory=dict)
    # counters of workload progress
    n_source_emitted: int = 0

    @property
    def n_sinked(self) -> int:
        """Records delivered to a sink (first arrivals only)."""
        return len(self.sink_ts)

    @property
    def marker_bytes(self) -> int:
        """Bytes of COOR markers."""
        return self.n_marker_msgs * MARKER_BYTES

    def total_message_bytes(self) -> int:
        return (
            self.data_payload_bytes
            + self.piggyback_bytes
            + self.marker_bytes
            + self.proto_msg_bytes
        )
