"""Checkpointing-protocol interface (paper §III).

A protocol plugs into the simulator through a small set of hooks that mirror
where real engines intercept the data plane: message send, message receive,
marker handling, checkpoint timers, and failure recovery. Each concrete
protocol also carries the qualitative feature flags that reproduce the
paper's Table I.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Tuple

from repro.dataflow.messages import Channel, InstanceId, Message


@dataclass
class RecoveryPlan:
    """Logical rollback decision returned by ``plan_recovery``.

    The simulator turns this into virtual-time costs (restore, replay
    preparation) and performs the actual state/counter restoration.
    """

    #: per-instance checkpoint index to restore (index 0 is the implicit
    #: initial checkpoint every instance stores at t=0)
    line: Dict[InstanceId, int]
    #: messages to replay from the durable log: channel -> [(seq, record)]
    replay: Dict[Channel, List[Tuple[int, Any]]] = field(default_factory=dict)
    #: checkpoints newer than the line that can never be used (Table III/IV)
    invalid: int = 0
    #: checkpoints inspected while searching for the line (cost model input)
    ckpts_scanned: int = 0
    #: extra descriptive fields for telemetry
    info: Dict[str, Any] = field(default_factory=dict)

    @property
    def n_replay(self) -> int:
        return sum(len(v) for v in self.replay.values())


class UnsupportedTopologyError(RuntimeError):
    """Raised by COOR on cyclic dataflow graphs (paper §VII: the aligned
    protocol deadlocks on cycles — a marker would originate from itself)."""


class Protocol:
    """Base class. The simulator calls these hooks; default = no-op."""

    name = "none"
    #: Table I feature flags (paper Table I)
    features: Dict[str, bool] = {
        "blocking_markers": False,
        "inflight_logging": False,
        "dedup_required": False,
        "message_overhead": False,
        "independent_checkpoints": False,
        "straggler_stalls": False,
        "unused_checkpoints": False,
        "forced_checkpoints": False,
    }
    supports_cycles = True

    def __init__(self):
        self.sim = None  # set by bind()

    def bind(self, sim) -> None:
        """Attach to a simulator; validate topology support."""
        self.sim = sim
        if not self.supports_cycles and sim.graph.has_cycle():
            raise UnsupportedTopologyError(
                f"{self.name} cannot checkpoint cyclic dataflow graphs"
            )

    # -- lifecycle ---------------------------------------------------------
    def on_start(self) -> None:
        """Schedule initial timers / the first coordinated round."""

    def on_resume(self, t: float) -> None:
        """Re-arm timers after recovery completes."""

    # -- data path ---------------------------------------------------------
    def is_blocked(self, channel: Channel) -> bool:
        """COOR alignment: True while the channel waits for other markers."""
        return False

    def before_process(self, t: float, inst: InstanceId, msg: Message) -> float:
        """Called before a data message mutates state. May take a forced
        checkpoint (CIC). Returns extra service seconds to charge."""
        return 0.0

    def on_send(self, t: float, inst: InstanceId, msg: Message) -> None:
        """Called for every outgoing data message: set piggyback bytes,
        append to the durable message log, update protocol vectors."""

    def on_marker(self, t: float, inst: InstanceId, msg: Message) -> None:
        """Handle a checkpoint marker delivered in-stream (COOR only)."""

    # -- recovery ----------------------------------------------------------
    def plan_recovery(self, t_detect: float) -> RecoveryPlan:
        """Choose the recovery line after a failure was detected."""
        raise NotImplementedError

    # -- accounting --------------------------------------------------------
    def counts_in_totals(self, inst: InstanceId) -> bool:
        """Whether a checkpoint of this instance counts in Table III totals.

        UNC/CIC report only source/stateful snapshots (stateless operators
        keep cheap counter-only checkpoints that the paper does not count);
        COOR counts every aligned participant.
        """
        spec = self.sim.graph.ops[inst[0]]
        return spec.is_source or spec.stateful


class NoneProtocol(Protocol):
    """Checkpoint-free execution — the paper's normalisation baseline for
    MST (Fig. 7) and message overhead (Table II)."""

    name = "none"

    def plan_recovery(self, t_detect: float) -> RecoveryPlan:
        raise RuntimeError("checkpoint-free execution cannot recover from failures")
