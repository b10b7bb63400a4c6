"""Unit tests for logical dataflow graphs and their validation. Routing is
tested on the simulator, whose routing tables implement it."""
import pytest

from repro.core.config import make_protocol
from repro.dataflow.graph import Edge, LogicalGraph, OperatorSpec
from repro.dataflow.operators import Operator
from repro.dataflow.simulator import Simulation
from repro.nexmark.cyclic import cyclic_topics, reachability_graph
from repro.nexmark.generator import topics_for_query
from repro.nexmark.queries import QUERIES


def chain() -> LogicalGraph:
    g = LogicalGraph()
    g.add_op(OperatorSpec("src", "source", factory=Operator, source_topic="t"))
    g.add_op(OperatorSpec("map", "map", factory=Operator))
    g.add_op(OperatorSpec("sink", "sink"))
    g.add_edge(Edge("src", "map", routing="forward"))
    g.add_edge(Edge("map", "sink", routing="forward"))
    return g


class TestValidation:
    def test_valid_chain(self):
        assert chain().validate() is not None

    def test_duplicate_op_rejected(self):
        g = chain()
        with pytest.raises(ValueError, match="duplicate"):
            g.add_op(OperatorSpec("map", "map", factory=Operator))

    def test_edge_unknown_op_rejected(self):
        with pytest.raises(ValueError, match="unknown operator"):
            chain().add_edge(Edge("map", "nope"))

    def test_source_inbound_rejected(self):
        with pytest.raises(ValueError, match="sources cannot"):
            chain().add_edge(Edge("map", "src"))

    def test_no_source_rejected(self):
        g = LogicalGraph()
        g.add_op(OperatorSpec("sink", "sink"))
        with pytest.raises(ValueError, match="source"):
            g.validate()

    def test_unreachable_op_rejected(self):
        g = chain()
        g.add_op(OperatorSpec("lonely", "map", factory=Operator))
        g.add_edge(Edge("lonely", "sink"))
        with pytest.raises(ValueError, match="unreachable"):
            g.validate()

    def test_dead_end_rejected(self):
        g = chain()
        g.add_op(OperatorSpec("dead", "map", factory=Operator))
        g.add_edge(Edge("src", "dead"))
        with pytest.raises(ValueError, match="dead end"):
            g.validate()

    def test_cycle_accepted(self):
        # a feedback edge needs no flag: validate() accepts a cycle as it is
        g = chain()
        g.add_op(OperatorSpec("a", "map", factory=Operator))
        g.add_op(OperatorSpec("b", "map", factory=Operator))
        g.add_edge(Edge("src", "a"))
        g.add_edge(Edge("a", "b"))
        g.add_edge(Edge("b", "a"))
        g.add_edge(Edge("b", "sink"))
        assert g.has_cycle()
        assert g.validate() is g


class TestCycles:
    def test_chain_acyclic(self):
        assert not chain().has_cycle()

    @pytest.mark.parametrize("qname", ["q1", "q3", "q8", "q12"])
    def test_nexmark_acyclic(self, qname):
        assert not QUERIES[qname]().has_cycle()

    def test_reachability_cyclic(self):
        assert reachability_graph().has_cycle()


#: per graph: its non-sink operators (all counted under COOR), and those
#: UNC/CIC count: the sources and the keyed stateful operators
COUNTED = {
    "q1": ({"src_bids", "map"}, {"src_bids"}),
    "q3": ({"src_persons", "src_auctions", "filter_p", "join"},
           {"src_persons", "src_auctions", "join"}),
    "q8": ({"src_persons", "src_auctions", "winjoin"}, {"src_persons", "src_auctions", "winjoin"}),
    "q12": ({"src_bids", "wincount"}, {"src_bids", "wincount"}),
    "cyclic": ({"src_links", "src_sources", "cjoin", "select", "project"},
               {"src_links", "src_sources", "cjoin"}),
}


def counted_ops(gname: str, protocol: str) -> set:
    """Operators whose checkpoints count in the Table III totals."""
    if gname == "cyclic":
        graph, topics = reachability_graph(), cyclic_topics(rate=10, duration=1, n_workers=2)
    else:
        graph, topics = QUERIES[gname](), topics_for_query(gname, rate=10, duration=1, n_workers=2)
    sim = Simulation(graph, 2, make_protocol(protocol, 2.0, 2.0), topics)
    return {op for op, w in sim.instances if sim.protocol.counts_in_totals((op, w))}


class TestCheckpointingOps:
    def test_coordinated_includes_stateless(self):
        assert counted_ops("q1", "COOR") == {"src_bids", "map"}

    def test_uncoordinated_excludes_stateless_nonsource(self):
        assert counted_ops("q1", "UNC") == {"src_bids"}

    def test_uncoordinated_includes_stateful(self):
        ops = counted_ops("q3", "UNC")
        assert "join" in ops
        assert "filter_p" not in ops

    @pytest.mark.parametrize("gname", ["q1", "q3", "q8", "q12"])
    def test_coordinated_counts_every_non_sink_op(self, gname):
        assert counted_ops(gname, "COOR") == COUNTED[gname][0]

    @pytest.mark.parametrize("protocol", ["UNC", "CIC"])
    @pytest.mark.parametrize("gname", sorted(COUNTED))
    def test_unc_cic_count_sources_and_keyed_ops(self, gname, protocol):
        assert counted_ops(gname, protocol) == COUNTED[gname][1]

    def test_sink_never_checkpoints(self):
        for protocol in ("COOR", "UNC", "CIC"):
            assert "sink" not in counted_ops("q12", protocol)
