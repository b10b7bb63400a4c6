"""Unit + property tests for the recovery line: the greatest consistent
line of checkpoints (paper §III-B, Algorithm 1)."""
from itertools import product
from typing import Dict, List

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dataflow.state import Checkpoint, CheckpointStore
from repro.protocols.recovery import find_recovery_line


class Builder:
    """Hand-build a consistent execution history of sends/receives and
    checkpoints over single-instance operators."""

    def __init__(self, ops: List[str], channels: List[tuple]):
        self.insts = [(op, 0) for op in ops]
        self.channels = [(a, 0, b, 0) for a, b in channels]
        self.sent = {ch: 0 for ch in self.channels}
        self.recv = {ch: 0 for ch in self.channels}
        self.store = CheckpointStore()
        self.out = {i: [ch for ch in self.channels if (ch[0], ch[1]) == i] for i in self.insts}
        self.inn = {i: [ch for ch in self.channels if (ch[2], ch[3]) == i] for i in self.insts}
        for i in self.insts:
            self.checkpoint(i[0])  # implicit initial checkpoints

    def send(self, a: str, b: str, n: int = 1):
        self.sent[(a, 0, b, 0)] += n

    def deliver(self, a: str, b: str, n: int = 1):
        ch = (a, 0, b, 0)
        self.recv[ch] = min(self.sent[ch], self.recv[ch] + n)

    def checkpoint(self, op: str):
        inst = (op, 0)
        idx = len(self.store.checkpoints(inst))
        self.store.put(Checkpoint(
            instance=inst, index=idx, ts=float(idx), kind="local", round_id=None,
            state_bytes=0,
            last_sent={ch: self.sent[ch] for ch in self.out[inst]},
            last_recv={ch: self.recv[ch] for ch in self.inn[inst]},
        ))

    def line(self):
        return find_recovery_line(self.store, self.insts, self.insts)

    def rollback(self, line=None):
        """A recovery: restore ``line`` (the recovery line by default),
        retire the checkpoints above it and set every channel counter back
        to it."""
        line = line or self.line()[0]
        for inst, idx in line.items():
            self.store.retire_above(inst, idx)
        for ch in self.channels:
            self.sent[ch] = self.store.get((ch[0], ch[1]), line[ch[0], ch[1]]).last_sent[ch]
            self.recv[ch] = self.store.get((ch[2], ch[3]), line[ch[2], ch[3]]).last_recv[ch]

    def consistent(self, line: Dict[tuple, int]) -> bool:
        """No channel received more than its sender had sent (no orphan)."""
        return all(
            self.store.get((ch[2], ch[3]), line[ch[2], ch[3]]).last_recv[ch]
            <= self.store.get((ch[0], ch[1]), line[ch[0], ch[1]]).last_sent[ch]
            for ch in self.channels
        )


class TestSimpleScenarios:
    def test_no_traffic_latest_line(self):
        b = Builder(["A", "B"], [("A", "B")])
        b.checkpoint("A"); b.checkpoint("B")
        line, invalid = b.line()
        assert line == {("A", 0): 1, ("B", 0): 1}
        assert invalid == 0

    def test_clean_cut_latest_line(self):
        b = Builder(["A", "B"], [("A", "B")])
        b.send("A", "B", 5); b.deliver("A", "B", 5)
        b.checkpoint("A"); b.checkpoint("B")
        line, invalid = b.line()
        assert line == {("A", 0): 1, ("B", 0): 1} and invalid == 0

    def test_orphan_rolls_receiver_back(self):
        b = Builder(["A", "B"], [("A", "B")])
        b.checkpoint("A")        # A ckpt1: sent=0
        b.send("A", "B", 3); b.deliver("A", "B", 3)
        b.checkpoint("B")        # B ckpt1: recv=3 > A.ckpt1.sent=0 -> orphan
        line, invalid = b.line()
        assert line == {("A", 0): 1, ("B", 0): 0}
        assert invalid == 1

    def test_no_orphan_when_sender_checkpoints_after(self):
        b = Builder(["A", "B"], [("A", "B")])
        b.send("A", "B", 3); b.deliver("A", "B", 3)
        b.checkpoint("B")        # recv=3
        b.checkpoint("A")        # sent=3 >= recv -> consistent
        line, invalid = b.line()
        assert line == {("A", 0): 1, ("B", 0): 1} and invalid == 0

    def test_domino_chain(self):
        b = Builder(["A", "B", "C"], [("A", "B"), ("B", "C")])
        b.checkpoint("A")
        b.send("A", "B"); b.deliver("A", "B")
        b.checkpoint("B")  # orphan wrt A ckpt1 - but B->C also cascades:
        b.send("B", "C"); b.deliver("B", "C")
        b.checkpoint("C")  # orphan wrt B ckpt1
        line, invalid = b.line()
        assert line == {("A", 0): 1, ("B", 0): 0, ("C", 0): 0}
        assert invalid == 2

    def test_mutual_orphans_roll_both(self):
        b = Builder(["A", "B"], [("A", "B"), ("B", "A")])
        b.checkpoint("A")
        b.send("A", "B"); b.deliver("A", "B")
        b.checkpoint("B")
        b.send("B", "A"); b.deliver("B", "A")
        b.checkpoint("A")  # A ckpt2 saw B's post-ckpt... build z-pattern
        line, invalid = b.line()
        # B->A orphans A2, then A1 no longer covers B1's receive
        assert line == {("A", 0): 1, ("B", 0): 0}
        assert invalid == 2

    def test_live_chain_after_a_rollback(self):
        """The counters drop at a rollback and rise again. B's dead
        checkpoint 2 would end the walk back from B3; the line skips it
        to B1, the greatest consistent line over the live checkpoints."""
        b = Builder(["A", "B"], [("A", "B")])
        b.send("A", "B", 5); b.deliver("A", "B", 5)
        b.checkpoint("A"); b.checkpoint("B")  # A1 sent=5, B1 recv=5
        b.send("A", "B"); b.deliver("A", "B")
        b.checkpoint("B"); b.checkpoint("A")  # B2 recv=6, A2 sent=6
        b.rollback({("A", 0): 1, ("B", 0): 1})
        assert b.sent[("A", 0, "B", 0)] == b.recv[("A", 0, "B", 0)] == 5
        assert [cp.dead for cp in b.store.checkpoints(("B", 0))] == [False, False, True]
        b.send("A", "B", 2); b.checkpoint("A")  # A3 sent=7
        b.send("A", "B", 2); b.deliver("A", "B", 4)
        b.checkpoint("B")  # B3 recv=9: an orphan against A3
        line, invalid = b.line()
        assert line == {("A", 0): 3, ("B", 0): 1}
        assert invalid == 1  # B3; the dead A2 and B2 are not live

    def test_initial_checkpoints_always_fallback(self):
        b = Builder(["A", "B"], [("A", "B")])
        # traffic but no real checkpoints at all: line = initial everywhere
        b.send("A", "B", 4); b.deliver("A", "B", 4)
        line, invalid = b.line()
        assert line == {("A", 0): 0, ("B", 0): 0} and invalid == 0


#: operator graphs the random executions run on: a 3-operator ring, a
#: fan-in diamond, a 4-operator mesh and the cyclic query's S->J<->P
TOPOLOGIES = [
    (["A", "B", "C"], [("A", "B"), ("B", "C"), ("C", "A")]),
    (["A", "B", "C", "D"], [("A", "B"), ("A", "C"), ("B", "D"), ("C", "D")]),
    (["A", "B", "C", "D"], [(a, b) for a in "ABCD" for b in "ABCD" if a != b]),
    (["S", "J", "P"], [("S", "J"), ("J", "P"), ("P", "J")]),
]


@st.composite
def execution(draw, min_steps=0, rollbacks=False):
    """Random consistent execution over one of ``TOPOLOGIES``: sends and
    deliveries of 1-3 messages and checkpoints, and with ``rollbacks``
    also recoveries to the recovery line."""
    ops, channels = draw(st.sampled_from(TOPOLOGIES))
    b = Builder(ops, channels)
    steps = draw(st.lists(
        st.tuples(st.integers(0, 3 if rollbacks else 2), st.integers(0, len(channels) - 1),
                  st.integers(1, 3)),
        min_size=min_steps, max_size=60,
    ))
    for kind, which, n in steps:
        if kind == 0:
            a, c = channels[which]
            b.send(a, c, n)
        elif kind == 1:
            a, c = channels[which]
            b.deliver(a, c, n)
        elif kind == 2:
            b.checkpoint(ops[which % len(ops)])
        else:
            b.rollback()
    return b


class TestRollbackPropagationProperties:
    @settings(max_examples=300, deadline=None)
    @given(execution(min_steps=10))
    def test_line_is_consistent_and_maximal_enough(self, b):
        line, invalid = b.line()
        # 1. a valid index per instance
        for inst in b.insts:
            assert 0 <= line[inst] < len(b.store.checkpoints(inst))
        # 2. no orphan across the line (Def. 5 "no orphans")
        assert b.consistent(line)
        # 3. invalid counts exactly the checkpoints above the line
        assert invalid == sum(
            (len(b.store.checkpoints(i)) - 1) - line[i] for i in b.insts
        )

    @settings(max_examples=200, deadline=None)
    @given(execution(min_steps=30))
    def test_line_is_the_maximum_consistent_line(self, b):
        """Consistent lines form a lattice, so the recovery line must be its
        unique maximum: every consistent candidate line is at or below it
        in each component."""
        line, _ = b.line()
        counts = [len(b.store.checkpoints(i)) for i in b.insts]
        for idx in product(*(range(n) for n in counts)):
            cand = dict(zip(b.insts, idx))
            if b.consistent(cand):
                assert all(cand[i] <= line[i] for i in b.insts), (cand, line)

    @settings(max_examples=200, deadline=None)
    @given(execution(min_steps=30, rollbacks=True))
    def test_line_is_the_maximum_over_the_live_chain(self, b):
        """After rollbacks, the line is the greatest consistent line over
        the live checkpoints, and never names a dead one."""
        line, invalid = b.line()
        live = [b.store.live(i) for i in b.insts]
        for chain in live:  # the fixpoint's precondition: counters rise along it
            for older, newer in zip(chain, chain[1:]):
                assert all(older.last_sent[ch] <= newer.last_sent[ch] for ch in older.last_sent)
                assert all(older.last_recv[ch] <= newer.last_recv[ch] for ch in older.last_recv)
        assert not any(b.store.get(i, line[i]).dead for i in b.insts)
        assert b.consistent(line)
        assert invalid == sum(
            sum(cp.index > line[i] for cp in chain) for i, chain in zip(b.insts, live)
        )
        for idx in product(*([cp.index for cp in chain] for chain in live)):
            cand = dict(zip(b.insts, idx))
            if b.consistent(cand):
                assert all(cand[i] <= line[i] for i in b.insts), (cand, line)
