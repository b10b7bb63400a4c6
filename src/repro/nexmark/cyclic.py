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

Draw-order contract: ``cyclic_events`` first draws every event's kind in
one ``g.choice``; then, event by event, an add-link draws ``u`` then ``v``
in ``[0, n_nodes)``, an add-source draws its node, and a delete draws the
index of the link or source it removes among those alive. A delete with
nothing alive becomes the matching add. The ranges therefore follow from
the kinds alone: a pre-pass computes them and broadcast ``g.integers``
calls make the draws, with the values of a scalar call per draw.
"""
from __future__ import annotations

from array import array
from typing import Dict, List, Set, Tuple

import numpy as np

from repro.dataflow.graph import Edge, LogicalGraph, OperatorSpec
from repro.dataflow.kafka_sim import ReplayableLog
from repro.dataflow.messages import Record
from repro.dataflow.operators import (
    CyclicJoinOp,
    CyclicProjectOp,
    CyclicSelectOp,
    Operator,
)
from repro.nexmark.generator import DRAW_CHUNK

EVENT_MIX = {"add_link": 0.60, "add_source": 0.15, "del_link": 0.20, "del_source": 0.05}


def reachability_graph() -> LogicalGraph:
    """Build the cyclic query's dataflow graph (Fig. 6)."""
    g = LogicalGraph()
    g.add_op(OperatorSpec("src_links", "source", factory=Operator, source_topic="links"))
    g.add_op(OperatorSpec("src_sources", "source", factory=Operator, source_topic="sources"))
    g.add_op(OperatorSpec("cjoin", "join", factory=lambda: CyclicJoinOp(link_op="src_links")))
    g.add_op(OperatorSpec("select", "select", factory=CyclicSelectOp))
    g.add_op(OperatorSpec("project", "project", factory=CyclicProjectOp))
    g.add_op(OperatorSpec("sink", "sink"))
    g.add_edge(Edge("src_links", "cjoin", routing="hash", key_fn=lambda r: r.value["u"]))
    g.add_edge(Edge("src_sources", "cjoin", routing="hash",
                    key_fn=lambda r: r.value["path"][-1] if r.value["op"] == "source" else r.value["s"],
                    broadcast_pred=lambda r: r.value["op"] == "del_source"))
    g.add_edge(Edge("cjoin", "select", routing="forward"))
    g.add_edge(Edge("select", "project", routing="forward"))
    g.add_edge(Edge("project", "sink", routing="forward"))
    # the feedback edge: new sources are keyed by their path end-node
    g.add_edge(Edge("project", "cjoin", routing="hash",
                    key_fn=lambda r: r.value["path"][-1]))
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

    # pre-pass: each event's kind after the empty-delete fallback, and the
    # exclusive upper bound of each of its draws (every draw starts at 0)
    events: List[str] = []
    highs = array("q")
    n_links = n_sources = 0
    for c in choices.tolist():
        kind = kinds[c]
        if kind == "del_link" and not n_links:
            kind = "add_link"
        if kind == "del_source" and not n_sources:
            kind = "add_source"
        events.append(kind)
        if kind == "add_link":
            highs.extend((n_nodes, n_nodes))
            n_links += 1
        elif kind == "del_link":
            highs.append(n_links)
            n_links -= 1
        elif kind == "add_source":
            highs.append(n_nodes)
            n_sources += 1
        else:
            highs.append(n_sources)
            n_sources -= 1
    # broadcast calls of at most DRAW_CHUNK draws, which numpy fills element
    # by element with the values of a scalar g.integers(0, high) per draw
    bound = np.frombuffer(highs, dtype=np.int64)
    draws = (d for a in range(0, len(bound), DRAW_CHUNK)
             for d in g.integers(0, bound[a:a + DRAW_CHUNK]).tolist())

    links: List[Record] = []
    sources: List[Record] = []
    alive_links: List[Tuple[int, int]] = []
    alive_sources: List[int] = []
    for i, (kind, t) in enumerate(zip(events, ts.tolist())):
        if kind == "add_link":
            u = next(draws)
            v = next(draws)
            if v == u:
                v = (v + 1) % n_nodes
            alive_links.append((u, v))
            links.append(Record(uid=f"l{i}", key=u,
                                value={"op": "add_link", "u": u, "v": v},
                                ingest_ts=t, kind="link"))
        elif kind == "del_link":
            u, v = alive_links.pop(next(draws))
            links.append(Record(uid=f"dl{i}", key=u,
                                value={"op": "del_link", "u": u, "v": v},
                                ingest_ts=t, kind="link"))
        elif kind == "add_source":
            s = next(draws)
            alive_sources.append(s)
            sources.append(Record(uid=f"s{i}", key=s,
                                  value={"op": "source", "s": s, "path": (s,)},
                                  ingest_ts=t, kind="source_node"))
        else:  # del_source
            s = alive_sources.pop(next(draws))
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
