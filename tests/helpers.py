"""Shared helpers and cached simulation results for the test suite.

Heavy simulations (full query runs with failure + recovery) are cached at
session scope and shared by many assertions, keeping hundreds of tests
fast. The Spark session fixture comes from the repo-root conftest.
"""
from __future__ import annotations

import zlib
from functools import lru_cache
from typing import Dict, List, Optional, Tuple

import numpy as np
import pandas as pd

from repro.core.config import make_protocol
from repro.core.harness import WARMUP, recovered_threshold
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


def query_sim(query: str, protocol: str, w: int = W, rate: float = RATE,
              duration: float = DURATION, seed: int = 1) -> Simulation:
    """A small NexMark-query simulation, not yet run."""
    topics = topics_for_query(query, rate=rate, duration=duration, n_workers=w, seed=seed)
    proto = make_protocol(protocol, INTERVAL, INTERVAL)
    return Simulation(QUERIES[query](), w, proto, topics, seed=0)


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
    sim = query_sim(query, protocol, w=w, rate=rate, duration=duration, seed=seed)
    return sim.run(duration, fail_at=fail_at)


@lru_cache(maxsize=16)
def cyclic_workload(seed: int = 3, deletions: bool = False, rate: float = 100.0,
                    duration: float = 5.0, n_nodes: int = 2000):
    return cyclic_events(
        rate=rate, duration=duration, seed=seed, n_nodes=n_nodes, deletions=deletions
    )


def cyclic_sim(protocol: str, deletions: bool = False, w: int = W, seed: int = 3,
               duration: float = 5.0) -> Simulation:
    """A small cyclic-reachability simulation, not yet run."""
    links, sources = cyclic_workload(seed=seed, deletions=deletions, duration=duration)
    topics = {
        "links": ReplayableLog.from_records("links", list(links), w),
        "sources": ReplayableLog.from_records("sources", list(sources), w),
    }
    proto = make_protocol(protocol, INTERVAL, INTERVAL)
    return Simulation(reachability_graph(), w, proto, topics, seed=0)


@lru_cache(maxsize=32)
def run_cyclic(
    protocol: str,
    fail_at: Optional[float] = None,
    deletions: bool = False,
    w: int = W,
    seed: int = 3,
    duration: float = 5.0,
) -> SimResult:
    sim = cyclic_sim(protocol, deletions=deletions, w=w, seed=seed, duration=duration)
    return sim.run(duration, fail_at=fail_at)


# -- list-of-pairs references for the latency metrics ------------------------
# The latency log was a list of ``(sink_ts, ingest_ts)`` tuples; these are
# the metric computations over that list, kept as differential references
# for ``core.harness._latency_stats`` and ``core.mst.measure_mst``.


def latency_pairs(tel: Telemetry) -> List[Tuple[float, float]]:
    return list(zip(tel.sink_ts, tel.ingest_ts))


def ref_latency_stats(cfg, lat: List[Tuple[float, float]], recovery: Dict) -> Dict[str, float]:
    def percentile(values, q):
        return float(np.percentile(values, q)) if values else float("nan")

    t_fail = cfg.fail_at if cfg.fail_at is not None else cfg.duration
    warm = min(WARMUP, t_fail / 2)
    pre = [s - i for (s, i) in lat if warm <= s < t_fail]
    post_start = recovery.get("t_resume", t_fail)
    post = [s - i for (s, i) in lat if post_start <= s]
    out = {
        "p50_pre": percentile(pre, 50),
        "p99_pre": percentile(pre, 99),
        "p50_post": percentile(post, 50),
    }
    out["recovery_time"] = float("nan")
    if cfg.fail_at is not None and pre:
        base = out["p50_pre"]
        buckets: Dict[int, List[float]] = {}
        for s, i in lat:
            if s >= post_start:
                buckets.setdefault(int(s), []).append(s - i)
        for sec in sorted(buckets):
            if np.median(buckets[sec]) <= recovered_threshold(base):
                out["recovery_time"] = (sec + 1) - cfg.fail_at
                break
    return out


def ref_t_end(lat: List[Tuple[float, float]], duration: float) -> float:
    """The MST probe's drain end: the last sink arrival, else the run's end."""
    return max((s for s, _ in lat), default=duration)


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
    cols = ["round_id", "start", "duration"]
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
