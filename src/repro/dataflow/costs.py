"""Virtual-time cost model calibration.

The paper runs on a physical cluster (AMD EPYC workers, real network,
Kafka, Minio). We replace wall-clock costs with a calibrated virtual-time
model. Every constant that shapes the results lives here so EXPERIMENTS.md
can point at one table of assumptions.

Absolute values are laptop-scale stand-ins; what must (and does) transfer
from the paper is the *shape*: marker alignment cost grows with shuffle
fan-in and queueing delay; CIC piggyback cost grows with instance count and
is paid in serialization CPU on both ends; checkpoint cost grows with state
size; replay preparation grows with logged-message count.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict


@dataclass
class SimCost:
    """All virtual-time cost constants (seconds / bytes)."""

    # -- per-record CPU service time by operator kind ----------------------
    # Millisecond-scale on purpose: the simulated cluster's per-worker
    # capacity (hundreds of records/s) keeps 60 s × 50-worker runs at a few
    # hundred thousand records, which a Python event loop handles in tens of
    # seconds. Relative costs (join > window > map > filter) follow the
    # operators' real complexity; only the absolute scale is shrunk.
    # The keyed stateful stages (join/window) dominate per-record cost, as
    # in real engines — that is what makes hot-key skew turn one worker
    # into a straggler (paper §VII-B, skewed NexMark).
    service: Dict[str, float] = field(
        default_factory=lambda: {
            "source": 1.5e-3,
            "map": 2e-3,
            "filter": 1.5e-3,
            "join": 6e-3,
            "window_join": 5.5e-3,
            "window_count": 5e-3,
            "select": 2e-3,
            "project": 2.5e-3,
            "sink": 0.0,
            "marker": 0.3e-3,
        }
    )
    #: CPU time per *protocol* byte on each of send and receive. Data
    #: payload serialization is part of the base service time; this knob
    #: charges only protocol overhead, which is what makes CIC's large
    #: piggyback "cripple the processing power" (paper §VII-B) while COOR's
    #: small markers and UNC's tiny metadata stay ~free.
    serialize_per_byte: float = 2.0e-5

    # -- network -----------------------------------------------------------
    channel_latency: float = 0.5e-3  #: one-way channel delay

    # -- checkpointing -----------------------------------------------------
    snapshot_sync: float = 0.15e-3  #: synchronous part of a local snapshot
    #: per-instance-entry cost of persisting CIC's protocol vectors with a
    #: checkpoint (paper Table IV: CIC checkpoints "additional
    #: protocol-related information apart from an operator's state")
    proto_state_per_entry: float = 4e-5
    snapshot_per_byte: float = 2e-9  #: serialize+upload per state byte
    store_rtt: float = 0.8e-3  #: durable-store round trip per checkpoint

    # -- failure & recovery ------------------------------------------------
    detect_delay: float = 1.0  #: failure detection time
    restart_base: float = 0.25  #: process restart + re-deploy
    restore_per_byte: float = 4e-9  #: state download/restore per byte
    replay_prep_per_msg: float = 60e-6  #: fetch+prepare one logged message
    recovery_line_per_ckpt: float = 5e-6  #: recovery-line search cost per stored ckpt

    def op_service(self, kind: str) -> float:
        """Per-record service time of an operator kind; an unknown kind
        raises ``KeyError``."""
        return self.service[kind]

    def snapshot_time(self, state_bytes: int) -> float:
        """Modelled checkpointing time for one local snapshot (UNC/CIC
        average checkpointing time, paper Fig. 8 / Table IV)."""
        return self.snapshot_sync + self.store_rtt + state_bytes * self.snapshot_per_byte

    def restore_time(self, state_bytes: int) -> float:
        return state_bytes * self.restore_per_byte
