"""Tests for the cyclic reachability query (paper §VI, Fig. 6)."""
import numpy as np
import pytest

from helpers import cyclic_workload, records_digest, run_cyclic
from repro.nexmark.cyclic import (
    EVENT_MIX,
    cyclic_events,
    cyclic_topics,
    reference_paths,
)


def _scalar_cyclic_events(*, rate, duration, seed, n_nodes, deletions):
    """The reference: one scalar numpy call per draw, event by event."""
    n = int(rate * duration)
    g = np.random.default_rng(seed)
    mix = dict(EVENT_MIX)
    if not deletions:
        mix["del_link"] = mix["del_source"] = 0.0
    kinds = list(mix)
    p = np.array([mix[k] for k in kinds])
    choices = g.choice(len(kinds), size=n, p=p / p.sum())
    links, sources, alive_links, alive_sources = [], [], [], []
    for i in range(n):
        kind, t = kinds[choices[i]], float((i + 0.5) / rate)
        if kind == "del_link" and not alive_links:
            kind = "add_link"
        if kind == "del_source" and not alive_sources:
            kind = "add_source"
        if kind == "add_link":
            u, v = int(g.integers(0, n_nodes)), int(g.integers(0, n_nodes))
            v = (v + 1) % n_nodes if v == u else v
            alive_links.append((u, v))
            links.append((f"l{i}", u, {"op": "add_link", "u": u, "v": v}, t, "link"))
        elif kind == "del_link":
            u, v = alive_links.pop(int(g.integers(0, len(alive_links))))
            links.append((f"dl{i}", u, {"op": "del_link", "u": u, "v": v}, t, "link"))
        elif kind == "add_source":
            s = int(g.integers(0, n_nodes))
            alive_sources.append(s)
            sources.append((f"s{i}", s, {"op": "source", "s": s, "path": (s,)}, t, "source_node"))
        else:
            s = alive_sources.pop(int(g.integers(0, len(alive_sources))))
            sources.append((f"ds{i}", s, {"op": "del_source", "s": s}, t, "source_node"))
    return [links, sources]


class TestGenerator:
    def test_event_mix_sums_to_one(self):
        assert sum(EVENT_MIX.values()) == pytest.approx(1.0)

    def test_rates_and_counts(self):
        links, sources = cyclic_events(rate=200, duration=5, seed=0, n_nodes=1000)
        assert len(links) + len(sources) == 1000

    def test_mix_proportions_roughly_hold(self):
        links, sources = cyclic_events(rate=1000, duration=10, seed=0, n_nodes=10**6)
        n = len(links) + len(sources)
        assert 0.7 < len(links) / n < 0.9  # add_link + del_link = 80 %

    def test_deletions_flag(self):
        links, sources = cyclic_events(rate=200, duration=5, seed=0, deletions=False)
        assert all(r.value["op"] == "add_link" for r in links)
        assert all(r.value["op"] == "source" for r in sources)

    def test_deterministic(self):
        a = cyclic_events(rate=100, duration=3, seed=5)
        b = cyclic_events(rate=100, duration=3, seed=5)
        assert [r.uid for r in a[0]] == [r.uid for r in b[0]]

    def test_deletes_reference_live_entities(self):
        links, sources = cyclic_events(rate=500, duration=10, seed=1, n_nodes=100)
        added = set()
        for r in links:
            if r.value["op"] == "add_link":
                added.add((r.value["u"], r.value["v"]))
            else:
                assert (r.value["u"], r.value["v"]) in added

    @pytest.mark.parametrize("n_nodes", [1, 2, 50, 10**6])
    @pytest.mark.parametrize("deletions", [True, False])
    def test_matches_scalar_reference(self, n_nodes, deletions):
        """The batched draws give the records of a scalar numpy call per
        draw, including one-value ranges (one node, one alive entity)."""
        for seed in (0, 9):
            got = cyclic_events(rate=300, duration=2, seed=seed, n_nodes=n_nodes,
                                deletions=deletions)
            want = _scalar_cyclic_events(rate=300, duration=2, seed=seed, n_nodes=n_nodes,
                                         deletions=deletions)
            assert [[(r.uid, r.key, r.value, r.ingest_ts, r.kind) for r in rs]
                    for rs in got] == want

    @pytest.mark.parametrize(
        "kwargs, digest",
        [
            (dict(seed=4, n_nodes=1000), "7be5db7f"),
            (dict(seed=4, n_nodes=1000, deletions=False), "385ce045"),
            (dict(seed=4, n_nodes=10**6), "905f5951"),
            (dict(seed=4, n_nodes=10**6, deletions=False), "fe588f24"),
        ],
        ids=["del-1k", "add-only-1k", "del-1m", "add-only-1m"],
    )
    def test_pins(self, kwargs, digest):
        """crc32 of the records (``helpers.records_digest``), recorded from
        the one-scalar-numpy-call-per-draw generator."""
        assert records_digest(*cyclic_events(rate=500, duration=10, **kwargs)) == digest

    def test_pin_across_draw_chunks(self):
        # ~80,000 draws: the broadcast calls cross DRAW_CHUNK
        assert records_digest(*cyclic_events(rate=5000, duration=10, seed=2,
                                             n_nodes=1000)) == "be7e5c3c"

    def test_pin_single_node(self):
        # every node draw has one value, so only deletes consume the stream
        assert records_digest(*cyclic_events(rate=100, duration=2, seed=2,
                                             n_nodes=1)) == "376c0e78"

    def test_topics_partitioning(self):
        topics = cyclic_topics(rate=100, duration=2, n_workers=3, n_nodes=100)
        assert topics["links"].n_partitions == 3
        assert topics["sources"].n_partitions == 3


class TestReference:
    def test_single_hop(self):
        from repro.dataflow.messages import Record

        links = [Record("l1", 1, {"op": "add_link", "u": 1, "v": 2}, 0.0, "link")]
        sources = [Record("s1", 1, {"op": "source", "s": 1, "path": (1,)}, 0.0, "source_node")]
        assert reference_paths(links, sources) == {(1, (1, 2))}

    def test_multi_hop_and_cycle_avoidance(self):
        from repro.dataflow.messages import Record

        mk = lambda i, u, v: Record(f"l{i}", u, {"op": "add_link", "u": u, "v": v}, 0.0, "link")
        links = [mk(1, 1, 2), mk(2, 2, 3), mk(3, 3, 1)]  # a ring
        sources = [Record("s1", 1, {"op": "source", "s": 1, "path": (1,)}, 0.0, "source_node")]
        assert reference_paths(links, sources) == {(1, (1, 2)), (1, (1, 2, 3))}


class TestSimulationCorrectness:
    @pytest.mark.parametrize("protocol", ["none", "UNC", "CIC"])
    def test_add_only_matches_reference(self, protocol):
        res = run_cyclic(protocol)
        links, sources = cyclic_workload()
        got = {(v["s"], tuple(v["path"])) for v in res.sink_values().values()}
        assert got == reference_paths(links, sources)

    @pytest.mark.parametrize("protocol", ["UNC", "CIC"])
    def test_add_only_with_failure_matches_reference(self, protocol):
        res = run_cyclic(protocol, fail_at=3.0)
        links, sources = cyclic_workload()
        got = {(v["s"], tuple(v["path"])) for v in res.sink_values().values()}
        assert got == reference_paths(links, sources)

    @pytest.mark.parametrize("protocol", ["UNC", "CIC"])
    def test_deletions_run_completes_with_failure(self, protocol):
        res = run_cyclic(protocol, fail_at=3.0, deletions=True)
        rec = res.telemetry.recovery
        assert rec["t_resume"] > rec["t_fail"]
        assert res.telemetry.n_sinked >= 0

    def test_loopback_traffic_exists(self):
        """The feedback edge must actually carry derived sources."""
        res = run_cyclic("UNC")
        multi_hop = [v for v in res.sink_values().values() if len(v["path"]) > 2]
        assert multi_hop  # at least one recursively derived path

    @pytest.mark.parametrize("protocol", ["UNC", "CIC"])
    def test_no_domino_effect(self, protocol):
        """Paper's surprise finding: UNC shows no domino effect on the
        cyclic query — the rollback stays within ~one checkpoint interval
        per instance instead of cascading to the initial state."""
        res = run_cyclic(protocol, fail_at=3.0, deletions=True)
        total = len(res.telemetry.checkpoints)
        invalid = res.telemetry.recovery["invalid"]
        assert invalid <= 0.25 * max(total, 1)
