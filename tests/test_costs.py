"""Tests for the virtual-time cost model."""
from dataclasses import replace

import pytest

from repro.dataflow.costs import SimCost
from repro.dataflow.simulator import Simulation
from repro.nexmark.cyclic import reachability_graph
from repro.nexmark.generator import topics_for_query
from repro.nexmark.queries import QUERIES
from repro.protocols import NoneProtocol


class TestSimCost:
    def test_defaults_positive(self):
        c = SimCost()
        assert all(v >= 0 for v in c.service.values())
        assert c.serialize_per_byte > 0 and c.channel_latency > 0

    def test_keyed_stages_dominate(self):
        """Skew only bites if the keyed stateful operators dominate the
        per-record cost (DESIGN.md / skew mechanism)."""
        c = SimCost()
        assert c.service["join"] > c.service["source"]
        assert c.service["window_count"] > c.service["source"]

    def test_marker_is_cheap(self):
        c = SimCost()
        assert c.service["marker"] < min(
            c.service["source"], c.service["join"], c.service["map"]
        )

    def test_unknown_op_kind_fails_to_build(self):
        # a misspelt kind has no service time: building fails instead of
        # charging a made-up cost
        graph = QUERIES["q1"]()
        graph.ops["map"] = replace(graph.ops["map"], kind="mapp")
        topics = topics_for_query("q1", rate=10, duration=1, n_workers=1)
        with pytest.raises(KeyError, match="mapp"):
            Simulation(graph, 1, NoneProtocol(), topics)

    @pytest.mark.parametrize("gname", [*QUERIES, "cyclic"])
    def test_every_operator_kind_has_a_service_time(self, gname):
        graph = reachability_graph() if gname == "cyclic" else QUERIES[gname]()
        assert {spec.kind for spec in graph.ops.values()} <= SimCost().service.keys()

    def test_snapshot_time_grows_with_state(self):
        c = SimCost()
        assert c.snapshot_time(10_000_000) > c.snapshot_time(0) > 0

    def test_restore_time_linear(self):
        c = SimCost()
        assert c.restore_time(2000) == pytest.approx(2 * c.restore_time(1000))
