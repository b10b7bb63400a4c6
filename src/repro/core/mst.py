"""Maximum sustainable throughput (paper §V, Fig. 7).

The paper runs each experiment at 80 % of the per-(protocol, query,
parallelism) MST. We estimate MST with a saturation probe: feed a short
workload at a rate well above capacity and measure how fast the pipeline
drains it — the drain rate *is* the capacity, and protocol overheads
(CIC's piggyback serialization, COOR's markers) lower it exactly the way
the paper's Fig. 7 shows.

Probes are deterministic (unskewed input, seed 2) and cached per
(query, protocol, workers).
"""
from __future__ import annotations

from functools import lru_cache

from .config import ExperimentConfig, build

PROBE_DURATION = 3.0  #: virtual seconds of saturated workload
PROBE_RATE_PER_WORKER = 400.0  #: comfortably above per-worker capacity


@lru_cache(maxsize=256)
def measure_mst(query: str, protocol: str, workers: int) -> float:
    """Estimate MST (events/s) via a saturation probe."""
    cfg = ExperimentConfig(
        query=query,
        protocol=protocol,
        workers=workers,
        rate=PROBE_RATE_PER_WORKER * workers,
        duration=PROBE_DURATION,
        fail_at=None,
        seed=2,
        n_nodes=20_000,
    )
    res = build(cfg).run(cfg.duration)
    # failure-free, so every topic record is emitted exactly once
    total = res.telemetry.n_source_emitted
    # drain rate up to the *last sink arrival*: res.duration is the later of
    # that and the last event, which can be a protocol timer that fires
    # after the output has drained and does nothing
    t_end = max(res.telemetry.sink_ts, default=res.duration)
    return total / max(t_end, 1e-9)

