"""Maximum sustainable throughput (paper §V, Fig. 7).

The paper runs each experiment at 80 % of the per-(protocol, query,
parallelism) MST. We estimate MST with a saturation probe: feed a short
workload at a rate well above capacity and measure how fast the pipeline
drains it — the drain rate *is* the capacity, and protocol overheads
(CIC's piggyback serialization, COOR's markers) lower it exactly the way
the paper's Fig. 7 shows.

Probes are deterministic and cached per (query, protocol, workers,
hot_ratio).
"""
from __future__ import annotations

from functools import lru_cache

from .config import ExperimentConfig, build

PROBE_DURATION = 3.0  #: virtual seconds of saturated workload
PROBE_RATE_PER_WORKER = 400.0  #: comfortably above per-worker capacity


@lru_cache(maxsize=256)
def measure_mst(
    query: str,
    protocol: str,
    workers: int,
    hot_ratio: float = 0.0,
    seed: int = 2,
) -> float:
    """Estimate MST (events/s) via a saturation probe."""
    cfg = ExperimentConfig(
        query=query,
        protocol=protocol,
        workers=workers,
        rate=PROBE_RATE_PER_WORKER * workers,
        duration=PROBE_DURATION,
        fail_at=None,
        hot_ratio=hot_ratio,
        seed=seed,
        n_nodes=20_000,
    )
    sim = build(cfg)
    total = sum(t.total_events() for t in _topics_of(sim))
    res = sim.run(cfg.duration)
    # drain rate up to the *last sink arrival* — res.duration can be
    # inflated by a pending (no-op) protocol timer event past the horizon
    t_end = max((s for s, _ in res.telemetry.latencies), default=res.duration)
    return total / max(t_end, 1e-9)


def _topics_of(sim):
    logs = {}
    for inst, cur in sim.cursors.items():
        logs[cur.log.topic] = cur.log
    return list(logs.values())

