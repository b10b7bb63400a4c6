"""The recovery plan UNC and CIC build on a simulated failure, checked
against the store as it stood at plan time: the line has no orphan and no
instance can move up, the replay holds exactly the in-flight messages, and
``invalid`` counts the checkpoints above the line."""
from functools import lru_cache

import pytest

from helpers import DURATION, FAIL_AT, cyclic_sim, query_sim

CELLS = [(q, p) for q in ("q3", "q8", "q12", "cyclic") for p in ("UNC", "CIC")]


@lru_cache(maxsize=None)
def planned(query: str, protocol: str):
    """Run the cell with a failure; return every instance's checkpoint
    records at plan time, the instances Table III counts, and the plan."""
    sim = cyclic_sim(protocol) if query == "cyclic" else query_sim(query, protocol)
    proto, seen = sim.protocol, {}
    plan_recovery = proto.plan_recovery

    def plan(t):
        seen["metas"] = {i: list(sim.store.checkpoints(i)) for i in sim.instances}
        seen["counted"] = [i for i in sim.instances if proto.counts_in_totals(i)]
        seen["plan"] = plan_recovery(t)
        return seen["plan"]

    proto.plan_recovery = plan
    if query == "cyclic":
        sim.run(5.0, fail_at=3.0)
    else:
        sim.run(DURATION, fail_at=FAIL_AT)
    return seen["metas"], seen["counted"], seen["plan"]


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
        metas, _, plan = planned(query, protocol)
        assert all(0 <= plan.line[i] < len(ms) for i, ms in metas.items())
        assert orphans(metas, plan.line) == []

    def test_no_instance_can_move_up(self, query, protocol):
        metas, _, plan = planned(query, protocol)
        below = [i for i, ms in metas.items() if plan.line[i] < len(ms) - 1]
        assert below  # the failure rolls some instance back
        for i in below:
            assert orphans(metas, {**plan.line, i: plan.line[i] + 1}), i

    def test_replay_is_the_in_flight_messages(self, query, protocol):
        metas, _, plan = planned(query, protocol)
        want = {ch: list(range(recv + 1, sent + 1))
                for ch, recv, sent in counters(metas, plan.line) if sent > recv}
        assert want
        assert {ch: [seq for seq, _ in msgs] for ch, msgs in plan.replay.items()} == want

    def test_invalid_counts_checkpoints_above_line(self, query, protocol):
        metas, counted, plan = planned(query, protocol)
        assert plan.invalid == sum(len(metas[i]) - 1 - plan.line[i] for i in counted)
        assert plan.ckpts_scanned == sum(len(ms) for ms in metas.values())
