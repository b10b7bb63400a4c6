"""Communication-induced checkpointing — CIC / HMNR (paper §III-C).

Built on top of UNC (timers, message logging, dedup, recovery line) with
loose coordination piggybacked on every data message to break Z-cycles via
*forced* checkpoints.

Per paper §III-C, each operator instance keeps:

- a Lamport ``clock`` incremented on every checkpoint,
- a vector ``ckpt`` of known checkpoint counts,
- boolean vectors ``sent_to`` (messages sent since my last checkpoint),
  ``taken`` (Z-path existence since the last known checkpoint) and
  ``greater`` (is my clock greater than each other's),

and piggybacks ``(clock, ckpt, taken, greater)`` on every message. On
receive, a checkpoint is forced *before* processing when "there is a
message previously sent from it to the sender and the sender's clock is
larger than its own, or there is a Z-path detected in the current
checkpoint interval of the sender" (paper's stated HMNR condition; the
full HMNR refinements beyond this description are approximated —
DESIGN.md §2.2).

Implementation notes: boolean vectors are immutable int bitmasks and the
``ckpt`` vector an immutable tuple. The piggyback is one immutable tuple
``(clock, ckpt, taken, greater, sender index)``, cached per sender and
dropped only when a checkpoint or a merge changes the sender's clock or
vectors, so a send copies nothing. A ``ckpt`` merge is skipped when the
sender's tuple is the very object merged last from that sender. ``ckpt``
is stored per instance; the piggyback *byte* model
(driving Table II) is ``8 + 4*K + 2*ceil(N/8)`` with K logical operators
and N = K*W instances — the streaming adaptation discussed in DESIGN.md.
"""
from __future__ import annotations

from typing import Dict, Optional, Tuple

from repro.dataflow.messages import InstanceId, Message

from .uncoordinated import UncoordinatedProtocol


class CICState:
    """Per-instance HMNR protocol state."""

    __slots__ = ("clock", "ckpt", "taken", "greater", "sent_to", "_merged", "piggyback")

    def __init__(self, n: int):
        self.clock = 0
        self.ckpt: Tuple[int, ...] = (0,) * n
        self.taken = 0  #: bitmask over instances
        self.greater = 0
        self.sent_to = 0
        self._merged: Dict[int, tuple] = {}  #: sender idx -> last merged ckpt tuple
        #: cached ``(clock, ckpt, taken, greater, index)``; None when stale
        self.piggyback: Optional[tuple] = None


class CICProtocol(UncoordinatedProtocol):
    """CIC: UNC + piggybacked HMNR vectors + forced checkpoints."""

    name = "CIC"
    features = {**UncoordinatedProtocol.features, "message_overhead": True, "forced_checkpoints": True}

    def __init__(self, interval: float = 4.0):
        super().__init__(interval=interval)
        self.states: Dict[InstanceId, CICState] = {}
        self.inst_index: Dict[InstanceId, int] = {}
        self.n_instances = 0
        self.piggyback_nbytes = 0

    def bind(self, sim) -> None:
        super().bind(sim)
        worker_ops = [n for n, s in sim.graph.ops.items() if not s.is_sink]
        k = len(worker_ops)
        insts = [(op, w) for op in worker_ops for w in range(sim.W)]
        self.inst_index = {inst: i for i, inst in enumerate(insts)}
        self.n_instances = len(insts)
        self.states = {inst: CICState(self.n_instances) for inst in insts}
        self.piggyback_nbytes = 8 + 4 * k + 2 * ((self.n_instances + 7) // 8)

    # -- checkpoints update the protocol state -----------------------------
    def checkpoint_extra_duration(self, inst: InstanceId) -> float:
        """CIC persists the clock + vectors with every checkpoint; the cost
        scales with the number of participating instances."""
        return self.sim.cost.proto_state_per_entry * self.n_instances

    def on_local_checkpoint(self, inst: InstanceId, kind: str = "local") -> None:
        super().on_local_checkpoint(inst, kind)
        st = self.states[inst]
        me = self.inst_index[inst]
        st.clock += 1
        ck = list(st.ckpt)
        ck[me] += 1
        st.ckpt = tuple(ck)
        st.sent_to = 0
        st.taken = 0
        st.piggyback = None

    # -- data path ---------------------------------------------------------
    def on_send(self, t: float, inst: InstanceId, msg: Message) -> None:
        # UNC's log append, inlined; ``msg_log.append`` is looked up per call
        lane, st = msg.lane, self.states[inst]
        if not lane.to_sink:
            self.sim.msg_log.append(lane.ch, msg.seq, msg.record)
            st.sent_to |= 1 << self.inst_index[lane.inst]
        msg.proto_bytes = self.piggyback_nbytes
        pb = st.piggyback
        if pb is None:
            pb = st.piggyback = (st.clock, st.ckpt, st.taken, st.greater, self.inst_index[inst])
        msg.piggyback = pb

    def before_process(self, t: float, inst: InstanceId, msg: Message) -> float:
        pb = msg.piggyback
        if pb is None:
            return 0.0  # replayed messages carry no live piggyback
        clock, ck, taken, _, s = pb
        st = self.states[inst]
        me = self.inst_index[inst]
        force = clock > st.clock and ((st.sent_to >> s) & 1 or (taken >> me) & 1)
        if force:
            self.on_local_checkpoint(inst, kind="forced")
        # merge protocol knowledge from the piggyback
        if clock > st.clock:
            st.clock = clock
        if st._merged.get(s) is not ck:
            st._merged[s] = ck
            if ck != st.ckpt:
                st.ckpt = tuple(map(max, st.ckpt, ck))
        st.taken |= taken | (1 << s)
        if st.clock > clock:
            st.greater |= 1 << s
        else:
            st.greater &= ~(1 << s)
        own = st.piggyback
        if own is not None and (own[0] != st.clock or own[1] is not st.ckpt
                                or own[2] != st.taken or own[3] != st.greater):
            st.piggyback = None
        return 0.0
