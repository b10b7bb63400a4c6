"""Shared helpers and cached simulation results for the test suite.

Heavy simulations (full query runs with failure + recovery) are cached at
session scope and shared by many assertions, keeping hundreds of tests
fast. The Spark session fixture comes from the repo-root conftest.
"""
from __future__ import annotations

import zlib
from functools import lru_cache
from typing import Dict, Optional

import pandas as pd

from repro.core.config import make_protocol
from repro.dataflow.simulator import Simulation, SimResult
from repro.dataflow.telemetry import Telemetry
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


def records_digest(*streams) -> str:
    """crc32 of generated records, one line per record: uid, key, value
    (key order included), ``ingest_ts``, kind, and the Python type of the
    key, the timestamp and every value field."""
    lines = []
    for records in streams:
        for r in records:
            types = ",".join(type(x).__name__ for x in (r.key, r.ingest_ts, *r.value.values()))
            lines.append(f"{r.uid} {r.key!r} {r.value!r} {r.ingest_ts!r} {r.kind} {types}")
    return f"{zlib.crc32(chr(10).join(lines).encode()):08x}"


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


# -- pandas frames of a run's checkpoints and rounds ------------------------
# The DuckDB oracles read these, and ``frame_ckpt_metrics`` is the
# frame-based reference for the checkpoint columns of ``metrics_row``.


def checkpoints_frame(tel: Telemetry) -> pd.DataFrame:
    cols = ["op", "instance", "index", "ts", "kind", "duration", "state_bytes", "round_id"]
    return pd.DataFrame(
        [
            (m.instance[0], m.instance[1], m.index, m.ts, m.kind, m.duration,
             m.state_bytes, m.round_id)
            for m in tel.checkpoints
        ],
        columns=cols,
    )


def rounds_frame(tel: Telemetry) -> pd.DataFrame:
    cols = ["round_id", "start", "end", "duration", "n_snapshots"]
    return pd.DataFrame(tel.rounds, columns=cols)


def frame_ckpt_metrics(protocol: str, fail_at: Optional[float], tel: Telemetry) -> Dict:
    """``ckpt_total``, ``ckpt_forced`` and ``avg_ckpt_time`` computed from
    the checkpoint and round frames with pandas."""
    cf = checkpoints_frame(tel)
    rf = rounds_frame(tel)
    t_cut = fail_at if fail_at is not None else float("inf")
    cf_steady = cf[cf["ts"] < t_cut] if len(cf) else cf
    rf_steady = rf[rf["start"] < t_cut] if len(rf) else rf
    if protocol == "COOR":
        done = set(rf["round_id"]) if len(rf) else set()
        counted = cf[cf["round_id"].isin(done)] if len(cf) else cf
        ckpt_total = int(len(counted))
        avg_ckpt = float(rf_steady["duration"].mean()) if len(rf_steady) else float("nan")
    else:
        ckpt_total = int(len(cf))
        avg_ckpt = float(cf_steady["duration"].mean()) if len(cf_steady) else float("nan")
    return dict(
        ckpt_total=ckpt_total,
        ckpt_forced=int((cf["kind"] == "forced").sum()) if len(cf) else 0,
        avg_ckpt_time=avg_ckpt,
    )
