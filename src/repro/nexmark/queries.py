"""Dataflow graphs for the NexMark queries the paper evaluates (§VI).

- Q1  — stateless currency-conversion map over bids, no shuffling.
- Q3  — incremental stateful join of filtered persons with auctions
        (complex topology + shuffling).
- Q8  — running tumbling-window join of persons with auctions.
- Q12 — running tumbling-window count of bids per bidder.

Each builder returns a validated :class:`LogicalGraph` whose per-worker
instance fan-out happens in the simulator. Logical operator counts match
the paper's checkpoint-total accounting (DESIGN.md §3).
"""
from __future__ import annotations

from repro.dataflow.graph import Edge, LogicalGraph, OperatorSpec
from repro.dataflow.operators import FilterOp, JoinOp, MapOp, Operator, WindowCountOp
from .generator import Q3_CATEGORY, Q3_STATES

EUR_RATE = 0.908  #: NexMark Q1 dollar->euro conversion factor
WINDOW_SECONDS = 10.0  #: tumbling window for Q8/Q12


def q1() -> LogicalGraph:
    """Q1: bids -> map(price * 0.908) -> sink; forward routing only."""
    g = LogicalGraph()
    g.add_op(OperatorSpec("src_bids", "source", factory=Operator, source_topic="bids"))
    g.add_op(
        OperatorSpec(
            "map",
            "map",
            factory=lambda: MapOp(
                fn=lambda v: {
                    "auction": v["auction"],
                    "bidder": v["bidder"],
                    "price_eur": round(v["price"] * EUR_RATE, 6),
                },
                out_kind="bid_eur",
            ),
        )
    )
    g.add_op(OperatorSpec("sink", "sink"))
    g.add_edge(Edge("src_bids", "map", routing="forward"))
    g.add_edge(Edge("map", "sink", routing="forward"))
    return g.validate()


def _q3_emit(p, a, w):
    uid = f"q3:{p['id']}:{a['id']}"
    value = {"name": p["name"], "city": p["city"], "state": p["state"], "auction": a["id"]}
    return uid, p["id"], value


class _Q3Join(JoinOp):
    """Q3 join that also applies the auction-category predicate before
    storing the right side (keeps the topology at 4 logical operators)."""

    def process(self, record, from_op):
        if from_op == self.right_op and record.value["category"] != Q3_CATEGORY:
            return []
        return super().process(record, from_op)


def q3() -> LogicalGraph:
    """Q3: persons -> filter(state) -> join <- auctions(category); shuffles."""
    g = LogicalGraph()
    g.add_op(OperatorSpec("src_persons", "source", factory=Operator, source_topic="persons"))
    g.add_op(OperatorSpec("src_auctions", "source", factory=Operator, source_topic="auctions"))
    g.add_op(
        OperatorSpec(
            "filter_p",
            "filter",
            factory=lambda: FilterOp(pred=lambda v: v["state"] in Q3_STATES),
        )
    )
    g.add_op(
        OperatorSpec(
            "join",
            "join",
            factory=lambda: _Q3Join(
                left_op="filter_p", right_op="src_auctions",
                emit=_q3_emit, out_kind="q3_out",
            ),
        )
    )
    g.add_op(OperatorSpec("sink", "sink"))
    g.add_edge(Edge("src_persons", "filter_p", routing="forward"))
    g.add_edge(Edge("filter_p", "join", routing="hash", key_fn=lambda r: r.value["id"]))
    g.add_edge(Edge("src_auctions", "join", routing="hash", key_fn=lambda r: r.value["seller"]))
    g.add_edge(Edge("join", "sink", routing="forward"))
    return g.validate()


def _q8_emit(p, a, w):
    uid = f"q8:{p['id']}:{a['id']}:{w}"
    value = {"person": p["id"], "name": p["name"], "auction": a["id"], "window": w}
    return uid, p["id"], value


def q8() -> LogicalGraph:
    """Q8: tumbling-window join persons x auctions on seller."""
    g = LogicalGraph()
    g.add_op(OperatorSpec("src_persons", "source", factory=Operator, source_topic="persons"))
    g.add_op(OperatorSpec("src_auctions", "source", factory=Operator, source_topic="auctions"))
    g.add_op(
        OperatorSpec(
            "winjoin",
            "window_join",
            factory=lambda: JoinOp(
                left_op="src_persons",
                right_op="src_auctions",
                emit=_q8_emit,
                out_kind="q8_out",
                window=WINDOW_SECONDS,
            ),
        )
    )
    g.add_op(OperatorSpec("sink", "sink"))
    g.add_edge(Edge("src_persons", "winjoin", routing="hash", key_fn=lambda r: r.value["id"]))
    g.add_edge(Edge("src_auctions", "winjoin", routing="hash", key_fn=lambda r: r.value["seller"]))
    g.add_edge(Edge("winjoin", "sink", routing="forward"))
    return g.validate()


def q12() -> LogicalGraph:
    """Q12: tumbling-window bid count per bidder."""
    g = LogicalGraph()
    g.add_op(OperatorSpec("src_bids", "source", factory=Operator, source_topic="bids"))
    g.add_op(
        OperatorSpec(
            "wincount",
            "window_count",
            factory=lambda: WindowCountOp(window=WINDOW_SECONDS, out_kind="q12_out"),
        )
    )
    g.add_op(OperatorSpec("sink", "sink"))
    g.add_edge(Edge("src_bids", "wincount", routing="hash", key_fn=lambda r: r.value["bidder"]))
    g.add_edge(Edge("wincount", "sink", routing="forward"))
    return g.validate()


QUERIES = {"q1": q1, "q3": q3, "q8": q8, "q12": q12}
