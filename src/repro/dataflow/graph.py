"""Logical dataflow graphs.

The paper's deployment model (§VII-A): every worker runs exactly one
parallel instance of every operator of the pipeline, so an operator's
parallelism equals the worker count. A logical graph therefore only names
operators and edges; instance fan-out happens in the simulator.

Routing on an edge is one of:

- ``forward``  — instance i sends to instance i of the downstream operator
  (chain pipelines, no shuffle; NexMark Q1).
- ``hash``     — key-hash partitioning across all downstream instances
  (shuffles; joins/aggregations): instance ``stable_hash(key) % W``, where
  the key is ``key_fn(record)``, or ``record.key`` without a ``key_fn``.

An edge's ``broadcast_pred`` sends the records it accepts to every
downstream instance instead. An edge into a sink has one channel per
sender and ignores both. The simulator's routing tables implement these
rules. COOR markers need no routing mode: they go out on every non-sink
channel the simulator lists for the sender.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional


@dataclass(frozen=True)
class Edge:
    """A directed channel bundle between two logical operators."""

    src: str
    dst: str
    routing: str = "hash"  #: "forward" | "hash"
    key_fn: Optional[Callable[[Any], Any]] = None  #: routing key for "hash"
    #: per-record broadcast override (e.g. the cyclic query's del_source
    #: events must reach every join instance because derived sources are
    #: partitioned by path end-node, not by source id)
    broadcast_pred: Optional[Callable[[Any], bool]] = None


@dataclass
class OperatorSpec:
    """A logical operator.

    ``factory()`` builds the behaviour object of one instance (see
    :mod:`repro.dataflow.operators`); sources get a bare ``Operator``. An
    operator is stateful when its instances are ``KeyedOp``s: those take
    the checkpoints UNC/CIC count (paper §III-B: stateless non-source
    operators need not participate); under COOR every operator
    participates in marker alignment.
    """

    name: str
    kind: str  #: "source" | "sink" | operator type tag
    factory: Callable[[], Any] = None
    source_topic: Optional[str] = None  #: kafka_sim topic for sources

    @property
    def is_source(self) -> bool:
        return self.kind == "source"

    @property
    def is_sink(self) -> bool:
        return self.kind == "sink"


@dataclass
class LogicalGraph:
    """A validated logical dataflow graph."""

    ops: Dict[str, OperatorSpec] = field(default_factory=dict)
    edges: List[Edge] = field(default_factory=list)

    def add_op(self, spec: OperatorSpec) -> "LogicalGraph":
        if spec.name in self.ops:
            raise ValueError(f"duplicate operator {spec.name!r}")
        self.ops[spec.name] = spec
        return self

    def add_edge(self, edge: Edge) -> "LogicalGraph":
        if edge.src not in self.ops or edge.dst not in self.ops:
            raise ValueError(f"edge {edge.src}->{edge.dst} references unknown operator")
        if self.ops[edge.dst].is_source:
            raise ValueError("sources cannot have inbound edges")
        self.edges.append(edge)
        return self

    # -- queries -----------------------------------------------------------
    def sources(self) -> List[str]:
        return [n for n, s in self.ops.items() if s.is_source]

    def sinks(self) -> List[str]:
        return [n for n, s in self.ops.items() if s.is_sink]

    def out_edges(self, op: str) -> List[Edge]:
        return [e for e in self.edges if e.src == op]

    def in_edges(self, op: str) -> List[Edge]:
        return [e for e in self.edges if e.dst == op]

    def has_cycle(self) -> bool:
        """True if the graph has a directed cycle (e.g. the reachability
        query's feedback edge). COOR refuses such graphs (paper §VII)."""
        color: Dict[str, int] = {}  # 1 = on the DFS path, 2 = done
        for root in self.ops:
            if color.get(root, 0):
                continue
            color[root] = 1
            path = [(root, iter(self.out_edges(root)))]
            while path:
                node, edges = path[-1]
                for e in edges:
                    c = color.get(e.dst, 0)
                    if c == 1:
                        return True
                    if c == 0:
                        color[e.dst] = 1
                        path.append((e.dst, iter(self.out_edges(e.dst))))
                        break
                else:
                    color[node] = 2
                    path.pop()
        return False

    def validate(self) -> "LogicalGraph":
        if not self.sources():
            raise ValueError("graph needs at least one source")
        if not self.sinks():
            raise ValueError("graph needs at least one sink")
        for name, spec in self.ops.items():
            if not spec.is_source and not self.in_edges(name):
                raise ValueError(f"operator {name!r} is unreachable (no inbound edges)")
            if not spec.is_sink and not self.out_edges(name):
                raise ValueError(f"operator {name!r} is a dead end (no outbound edges)")
        return self

