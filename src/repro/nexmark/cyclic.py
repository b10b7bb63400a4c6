"""The cyclic reachability query (paper §VI, Fig. 6) and its generator.

Two input streams — directed links and source nodes — feed a stateful
join; joined (source, link) pairs pass a select that discards pairs whose
link end-node is already on the path (cycle avoidance); project extends
the path and emits the new source record both to the sink and *back to the
join* (the feedback edge that makes the dataflow graph cyclic). Direct
delete events remove links/sources from the join state.

The generator follows the paper's §VII configuration: a static node set
and events with 60 % add-link / 15 % add-source / 20 % delete-link /
5 % delete-source probabilities.
"""
from __future__ import annotations

from typing import Dict, List, Set, Tuple

import numpy as np

from repro.dataflow.graph import Edge, LogicalGraph, OperatorSpec
from repro.dataflow.kafka_sim import ReplayableLog
from repro.dataflow.messages import Record
from repro.dataflow.operators import (
    CyclicJoinOp,
    CyclicProjectOp,
    CyclicSelectOp,
    PassThrough,
)

EVENT_MIX = {"add_link": 0.60, "add_source": 0.15, "del_link": 0.20, "del_source": 0.05}


def reachability_graph() -> LogicalGraph:
    """Build the cyclic query's dataflow graph (Fig. 6)."""
    g = LogicalGraph()
    g.add_op(OperatorSpec("src_links", "source", stateful=False, factory=PassThrough,
                          source_topic="links"))
    g.add_op(OperatorSpec("src_sources", "source", stateful=False, factory=PassThrough,
                          source_topic="sources"))
    g.add_op(
        OperatorSpec(
            "cjoin",
            "join",
            stateful=True,
            factory=lambda i, n: CyclicJoinOp(
                i, n, link_op="src_links", source_op="src_sources", loop_op="project"
            ),
        )
    )
    g.add_op(OperatorSpec("select", "select", stateful=False,
                          factory=lambda i, n: CyclicSelectOp(i, n)))
    g.add_op(OperatorSpec("project", "project", stateful=False,
                          factory=lambda i, n: CyclicProjectOp(i, n)))
    g.add_op(OperatorSpec("sink", "sink", stateful=False))
    g.add_edge(Edge("src_links", "cjoin", routing="hash", key_fn=lambda r: r.value["u"]))
    g.add_edge(Edge("src_sources", "cjoin", routing="hash",
                    key_fn=lambda r: r.value["path"][-1] if r.value["op"] == "source" else r.value["s"],
                    broadcast_pred=lambda r: r.value["op"] == "del_source"))
    g.add_edge(Edge("cjoin", "select", routing="forward"))
    g.add_edge(Edge("select", "project", routing="forward"))
    g.add_edge(Edge("project", "sink", routing="forward"))
    # the feedback edge: new sources are keyed by their path end-node
    g.add_edge(Edge("project", "cjoin", routing="hash",
                    key_fn=lambda r: r.value["path"][-1], loop=True))
    return g.validate()


def cyclic_events(
    *,
    rate: float,
    duration: float,
    seed: int = 0,
    n_nodes: int = 100_000,
    deletions: bool = True,
) -> Tuple[List[Record], List[Record]]:
    """Generate (link_events, source_events) with the paper's mixture.

    With ``deletions=False`` the workload is add-only (60/15 renormalised),
    which makes the final reachable-path set order-independent — the
    configuration the correctness tests use.
    """
    n = int(rate * duration)
    g = np.random.default_rng(seed)
    mix = dict(EVENT_MIX)
    if not deletions:
        mix["del_link"] = mix["del_source"] = 0.0
    kinds = list(mix)
    p = np.array([mix[k] for k in kinds])
    p = p / p.sum()
    choices = g.choice(len(kinds), size=n, p=p)
    ts = (np.arange(n) + 0.5) / rate

    links: List[Record] = []
    sources: List[Record] = []
    alive_links: List[Tuple[int, int]] = []
    alive_sources: List[int] = []
    for i in range(n):
        kind = kinds[choices[i]]
        t = float(ts[i])
        if kind == "del_link" and not alive_links:
            kind = "add_link"
        if kind == "del_source" and not alive_sources:
            kind = "add_source"
        if kind == "add_link":
            u = int(g.integers(0, n_nodes))
            v = int(g.integers(0, n_nodes))
            if v == u:
                v = (v + 1) % n_nodes
            alive_links.append((u, v))
            links.append(Record(uid=f"l{i}", key=u,
                                value={"op": "add_link", "u": u, "v": v},
                                ingest_ts=t, kind="link"))
        elif kind == "del_link":
            u, v = alive_links.pop(int(g.integers(0, len(alive_links))))
            links.append(Record(uid=f"dl{i}", key=u,
                                value={"op": "del_link", "u": u, "v": v},
                                ingest_ts=t, kind="link"))
        elif kind == "add_source":
            s = int(g.integers(0, n_nodes))
            alive_sources.append(s)
            sources.append(Record(uid=f"s{i}", key=s,
                                  value={"op": "source", "s": s, "path": (s,)},
                                  ingest_ts=t, kind="source_node"))
        else:  # del_source
            s = alive_sources.pop(int(g.integers(0, len(alive_sources))))
            sources.append(Record(uid=f"ds{i}", key=s,
                                  value={"op": "del_source", "s": s},
                                  ingest_ts=t, kind="source_node"))
    return links, sources


def cyclic_topics(
    *, rate: float, duration: float, n_workers: int, seed: int = 0,
    n_nodes: int = 100_000,
) -> Dict[str, ReplayableLog]:
    """The query's topics, with the paper's deletion mix."""
    links, sources = cyclic_events(rate=rate, duration=duration, seed=seed, n_nodes=n_nodes)
    return {
        "links": ReplayableLog.from_records("links", links, n_workers),
        "sources": ReplayableLog.from_records("sources", sources, n_workers),
    }


def reference_paths(
    links: List[Record], sources: List[Record], max_len: int = 12
) -> Set[Tuple[int, Tuple[int, ...]]]:
    """Reference answer for an *add-only* workload: every simple path that
    starts at a source node and follows the final link set (DFS). The
    streaming query discovers exactly these because state is monotone."""
    adj: Dict[int, List[int]] = {}
    for r in links:
        if r.value["op"] == "add_link":
            adj.setdefault(r.value["u"], []).append(r.value["v"])
    out: Set[Tuple[int, Tuple[int, ...]]] = set()
    roots = [r.value["s"] for r in sources if r.value["op"] == "source"]

    def dfs(s: int, path: Tuple[int, ...]) -> None:
        if len(path) > max_len:
            return
        for v in adj.get(path[-1], ()):
            if v in path:
                continue
            np_ = path + (v,)
            out.add((s, np_))
            dfs(s, np_)

    for s in roots:
        dfs(s, (s,))
    return out
