"""The recovery plan UNC and CIC build on a simulated failure, checked
against the store as it stood at plan time: the line has no orphan and no
instance can move up, the replay holds exactly the in-flight messages, and
``invalid`` counts the checkpoints above the line. Checkpoint GC is checked
here too: it never drops a payload the line restores, and it bounds the
payloads a long run keeps."""
import dataclasses
from functools import lru_cache
from types import SimpleNamespace

import pytest

from helpers import DURATION, FAIL_AT, cyclic_sim, query_sim
from repro.dataflow.operators import KeyedOp

CELLS = [(q, p) for q in ("q3", "q8", "q12", "cyclic") for p in ("UNC", "CIC")]
#: COOR fails 10 ms into the round that starts at ``FAIL_AT``, so that the
#: running round has checkpoints above the line
COOR_CELLS = [("q3", "COOR"), ("q8", "COOR")]


@lru_cache(maxsize=None)
def planned(query: str, protocol: str):
    """Run the cell with a failure. Returns every instance's checkpoint
    records at plan time (``metas``), the instances Table III counts, the
    plan, whether each ``KeyedOp`` record on the line held its payload
    then (``kept``), and the store at the end of the run."""
    sim = cyclic_sim(protocol) if query == "cyclic" else query_sim(query, protocol)
    proto, seen = sim.protocol, SimpleNamespace(store=sim.store)
    plan_recovery = proto.plan_recovery

    def plan(t):
        seen.metas = {i: list(sim.store.checkpoints(i)) for i in sim.instances}
        seen.counted = [i for i in sim.instances if proto.counts_in_totals(i)]
        seen.plan = p = plan_recovery(t)
        seen.kept = {i: sim.store.get(i, p.line[i]).state is not None
                     for i, op in sim.instances.items() if isinstance(op, KeyedOp)}
        return p

    proto.plan_recovery = plan
    if query == "cyclic":
        sim.run(5.0, fail_at=3.0)
    else:
        sim.run(DURATION, fail_at=FAIL_AT + 0.01 if protocol == "COOR" else FAIL_AT)
    return seen


def counters(metas, line):
    """``(channel, recv@line, sent@line)`` of every worker-to-worker channel."""
    out = []
    for src, ms in metas.items():
        for ch in ms[0].last_sent:
            dst = (ch[2], ch[3])
            if dst in metas:
                out.append((ch, metas[dst][line[dst]].last_recv.get(ch, 0),
                            metas[src][line[src]].last_sent[ch]))
    return out


def orphans(metas, line):
    return [ch for ch, recv, sent in counters(metas, line) if recv > sent]


@pytest.mark.parametrize("query,protocol", CELLS)
class TestRecoveryPlan:
    def test_line_has_no_orphan(self, query, protocol):
        c = planned(query, protocol)
        metas, plan = c.metas, c.plan
        assert all(0 <= plan.line[i] < len(ms) for i, ms in metas.items())
        assert orphans(metas, plan.line) == []

    def test_no_instance_can_move_up(self, query, protocol):
        c = planned(query, protocol)
        metas, plan = c.metas, c.plan
        below = [i for i, ms in metas.items() if plan.line[i] < len(ms) - 1]
        assert below  # the failure rolls some instance back
        for i in below:
            assert orphans(metas, {**plan.line, i: plan.line[i] + 1}), i

    def test_replay_is_the_in_flight_messages(self, query, protocol):
        c = planned(query, protocol)
        metas, plan = c.metas, c.plan
        want = {ch: list(range(recv + 1, sent + 1))
                for ch, recv, sent in counters(metas, plan.line) if sent > recv}
        assert want
        assert {ch: [seq for seq, _ in msgs] for ch, msgs in plan.replay.items()} == want

    def test_invalid_counts_checkpoints_above_line(self, query, protocol):
        c = planned(query, protocol)
        metas, counted, plan = c.metas, c.counted, c.plan
        assert plan.invalid == sum(len(metas[i]) - 1 - plan.line[i] for i in counted)
        assert plan.ckpts_scanned == sum(len(ms) for ms in metas.values())


@pytest.mark.parametrize("query,protocol", CELLS + COOR_CELLS)
class TestLiveChain:
    def test_gc_keeps_every_payload_on_the_line(self, query, protocol):
        """At plan time every ``KeyedOp`` record on the line holds its
        payload, while GC has already dropped some payload below it."""
        c = planned(query, protocol)
        assert c.kept and all(c.kept.values())
        assert any(cp.state is None for i in c.kept for cp in c.metas[i])

    def test_resume_retires_the_checkpoints_above_the_line(self, query, protocol):
        """The records above the line at plan time are dead and hold no
        payload, and the live chain is the line's prefix followed by the
        checkpoints taken after the resume."""
        c = planned(query, protocol)
        assert any(len(ms) - 1 > c.plan.line[i] for i, ms in c.metas.items())
        for i, ms in c.metas.items():
            line, n_stored = c.plan.line[i], len(c.store.checkpoints(i))
            assert all(cp.dead and cp.state is None for cp in ms[line + 1:])
            assert [cp.index for cp in c.store.live(i)] == [*range(line + 1),
                                                            *range(len(ms), n_stored)]


def retained_payloads(duration: float):
    """The most payloads a q12 UNC run's store held after any put, and the
    number of instances."""
    sim = query_sim("q12", "UNC", duration=duration)
    store, peak = sim.store, [0]
    put = store.put

    def counted_put(cp):
        put(cp)
        peak[0] = max(peak[0], sum(c.state is not None for i in sim.instances
                                   for c in store.checkpoints(i)))

    store.put = counted_put
    sim.run(duration)
    return peak[0], len(sim.instances)


class TestCheckpointGC:
    def test_retained_payloads_stay_bounded_as_the_run_grows(self):
        """The bound holds however long the run: a 120 s run keeps no more
        payloads than a 60 s one, and at most two per instance."""
        (short, n), (long, _) = retained_payloads(60.0), retained_payloads(120.0)
        assert 0 < short <= 2 * n
        assert long == short

    def test_restoring_a_dropped_payload_raises(self):
        """A line that names a dropped payload fails loudly, naming the
        instance and the index: here COOR's completed rounds dropped the
        initial checkpoints' payloads."""
        sim = query_sim("q8", "COOR")
        plan_recovery = sim.protocol.plan_recovery
        sim.protocol.plan_recovery = lambda t: dataclasses.replace(
            plan_recovery(t), line=dict.fromkeys(sim.instances, 0))
        with pytest.raises(RuntimeError, match=r"checkpoint 0 of \(.+, \d\) has no payload"):
            sim.run(DURATION, fail_at=FAIL_AT)
