"""Shared helpers and cached simulation results for the test suite.

Heavy simulations (full query runs with failure + recovery) are cached at
session scope and shared by many assertions, keeping hundreds of tests
fast. The Spark session fixture comes from the repo-root conftest.
"""
from __future__ import annotations

from functools import lru_cache
from typing import Optional

from repro.core.config import make_protocol
from repro.dataflow.simulator import Simulation, SimResult
from repro.nexmark.cyclic import cyclic_events, reachability_graph
from repro.nexmark.generator import topics_for_query
from repro.nexmark.queries import QUERIES
from repro.dataflow.kafka_sim import ReplayableLog

#: small, fast defaults for correctness tests
W = 4
RATE = 400.0
DURATION = 10.0
FAIL_AT = 6.0
#: checkpoint interval and COOR round interval of every cached run
INTERVAL = 2.0


@lru_cache(maxsize=64)
def run_query(
    query: str,
    protocol: str,
    fail_at: Optional[float] = None,
    w: int = W,
    rate: float = RATE,
    duration: float = DURATION,
    seed: int = 1,
) -> SimResult:
    """Run (and cache) a small NexMark-query simulation."""
    topics = topics_for_query(query, rate=rate, duration=duration, n_workers=w, seed=seed)
    proto = make_protocol(protocol, INTERVAL, INTERVAL)
    sim = Simulation(QUERIES[query](), w, proto, topics, seed=0)
    return sim.run(duration, fail_at=fail_at)


@lru_cache(maxsize=16)
def cyclic_workload(seed: int = 3, deletions: bool = False, rate: float = 100.0,
                    duration: float = 5.0, n_nodes: int = 2000):
    return cyclic_events(
        rate=rate, duration=duration, seed=seed, n_nodes=n_nodes, deletions=deletions
    )


@lru_cache(maxsize=32)
def run_cyclic(
    protocol: str,
    fail_at: Optional[float] = None,
    deletions: bool = False,
    w: int = W,
    seed: int = 3,
    duration: float = 5.0,
) -> SimResult:
    links, sources = cyclic_workload(seed=seed, deletions=deletions, duration=duration)
    topics = {
        "links": ReplayableLog.from_records("links", list(links), w),
        "sources": ReplayableLog.from_records("sources", list(sources), w),
    }
    proto = make_protocol(protocol, INTERVAL, INTERVAL)
    sim = Simulation(reachability_graph(), w, proto, topics, seed=0)
    return sim.run(duration, fail_at=fail_at)
