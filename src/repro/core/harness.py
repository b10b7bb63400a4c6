"""Experiment harness: single runs and Spark-parallel sweeps.

``run_config`` executes one simulation and flattens it into a metrics row
(the paper's §V metrics). ``sweep`` distributes a grid of configs over
Spark with ``applyInPandas`` — one simulation per group, metrics rows back
as a DataFrame — which is how the table jobs execute the full
(protocol x query x parallelism) grid on all cores.

A config's ``rate`` may be negative, meaning "that fraction of the
measured MST": ``rate=-0.8`` runs at 80 % of the per-(query, protocol,
parallelism) maximum sustainable throughput, the paper's operating point.
"""
from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Dict, Iterable, List, get_type_hints

import numpy as np
import pandas as pd
from pyspark.sql import DataFrame, SparkSession
from pyspark.sql import types as T

from repro.dataflow.simulator import SimResult

from .config import ExperimentConfig, build
from .mst import measure_mst

WARMUP = 5.0  #: seconds excluded from steady-state latency stats


def recovered_threshold(baseline_p50: float) -> float:
    """Latency level at which execution counts as "back to normal"
    (paper §V, recovery time): within 3x the pre-failure p50, with a
    100 ms floor so ms-scale baselines don't demand a bit-exact return."""
    return max(3 * baseline_p50, baseline_p50 + 0.1)


def resolve_rate(cfg: ExperimentConfig) -> ExperimentConfig:
    """Resolve a fractional (negative) rate against the measured MST."""
    if cfg.rate >= 0:
        return cfg
    frac = -cfg.rate
    mst = measure_mst(cfg.query, cfg.protocol, cfg.workers)
    d = cfg.to_dict()
    d["rate"] = frac * mst
    return ExperimentConfig.from_dict(d)


@dataclass
class MetricsRow:
    """One run's metrics (paper §V), in column order; the Spark sweep
    schema and ``METRIC_COLUMNS`` are derived from these annotations."""

    query: str
    protocol: str
    workers: int
    rate: float
    hot_ratio: float
    duration: float
    fail_at: float  #: NaN for a failure-free run
    mst: float
    total_bytes: int
    data_bytes: int
    piggyback_bytes: int
    marker_bytes: int
    proto_msg_bytes: int
    n_data_msgs: int
    ckpt_total: int
    ckpt_forced: int
    avg_ckpt_time: float
    invalid: int
    restart_time: float
    n_replay: int
    n_sinked: int
    n_dup_sink: int
    n_dedup_drops: int
    n_source_emitted: int
    throughput: float
    drain_duration: float
    p50_pre: float
    p99_pre: float
    p50_post: float
    recovery_time: float


def _percentile(values: List[float], q: float) -> float:
    return float(np.percentile(values, q)) if values else float("nan")


def _latency_stats(cfg: ExperimentConfig, res: SimResult) -> Dict[str, float]:
    lat = res.telemetry.latencies
    t_fail = cfg.fail_at if cfg.fail_at is not None else cfg.duration
    warm = min(WARMUP, t_fail / 2)  # short runs: shrink the warmup window
    pre = [s - i for (s, i) in lat if warm <= s < t_fail]
    post_start = res.telemetry.recovery.get("t_resume", t_fail)
    post = [s - i for (s, i) in lat if post_start <= s]
    out = {
        "p50_pre": _percentile(pre, 50),
        "p99_pre": _percentile(pre, 99),
        "p50_post": _percentile(post, 50),
    }
    # recovery time: first whole second after resume whose p50 is back near
    # the pre-failure p50 (paper §V: "returned to normal execution"),
    # measured from the failure instant
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


def metrics_row(cfg: ExperimentConfig, res: SimResult, mst: float) -> Dict:
    """Flatten one run into the metrics the tables need: a plain dict of
    the ``MetricsRow`` fields, in column order."""
    tel = res.telemetry
    cf = tel.checkpoints_frame()
    rf = tel.rounds_frame()
    # average checkpointing time over the steady pre-failure window, so the
    # metric reflects the protocol rather than the recovery backlog
    # transient; totals/invalid still cover the whole run
    t_cut = cfg.fail_at if cfg.fail_at is not None else float("inf")
    cf_steady = cf[cf["ts"] < t_cut] if len(cf) else cf
    rf_steady = rf[rf["start"] < t_cut] if len(rf) else rf
    if cfg.protocol == "COOR":
        # a COOR "checkpoint" is a completed round (§V): its time is the
        # round duration, and only completed-round snapshots count
        done = set(rf["round_id"]) if len(rf) else set()
        counted = cf[cf["round_id"].isin(done)] if len(cf) else cf
        ckpt_total = int(len(counted))
        avg_ckpt = float(rf_steady["duration"].mean()) if len(rf_steady) else float("nan")
    else:
        ckpt_total = int(len(cf))
        avg_ckpt = float(cf_steady["duration"].mean()) if len(cf_steady) else float("nan")
    rec = tel.recovery
    row = MetricsRow(
        query=cfg.query,
        protocol=cfg.protocol,
        workers=cfg.workers,
        rate=float(cfg.rate),
        hot_ratio=float(cfg.hot_ratio),
        duration=float(cfg.duration),
        fail_at=float(cfg.fail_at) if cfg.fail_at is not None else float("nan"),
        mst=float(mst),
        total_bytes=int(tel.total_message_bytes()),
        data_bytes=int(tel.data_payload_bytes),
        piggyback_bytes=int(tel.piggyback_bytes),
        marker_bytes=int(tel.marker_bytes),
        proto_msg_bytes=int(tel.proto_msg_bytes),
        n_data_msgs=int(tel.n_data_msgs),
        ckpt_total=ckpt_total,
        ckpt_forced=int((cf["kind"] == "forced").sum()) if len(cf) else 0,
        avg_ckpt_time=avg_ckpt,
        invalid=int(rec.get("invalid", 0)),
        restart_time=float(rec.get("restart_time", float("nan"))),
        n_replay=int(rec.get("n_replay", 0)),
        n_sinked=int(tel.n_sinked),
        n_dup_sink=int(res.n_duplicate_sink_arrivals),
        n_dedup_drops=int(res.n_dedup_drops),
        n_source_emitted=int(tel.n_source_emitted),
        throughput=float(tel.n_sinked / cfg.duration),
        drain_duration=float(res.duration),
        **_latency_stats(cfg, res),
    )
    return vars(row)


def run_config(cfg: ExperimentConfig, keep_result: bool = False):
    """Run one config; returns (metrics_row, SimResult|None)."""
    mst = float("nan")
    if cfg.rate < 0:
        mst = measure_mst(cfg.query, cfg.protocol, cfg.workers)
        cfg = resolve_rate(cfg)
    sim = build(cfg)
    res = sim.run(cfg.duration, fail_at=cfg.fail_at)
    return metrics_row(cfg, res, mst), (res if keep_result else None)


# ---------------------------------------------------------------------------
# Spark-parallel sweep
# ---------------------------------------------------------------------------

_SPARK_TYPES = {str: T.StringType(), int: T.LongType(), float: T.DoubleType()}
_SCHEMA = T.StructType(
    [T.StructField(name, _SPARK_TYPES[t]) for name, t in get_type_hints(MetricsRow).items()]
)
METRIC_COLUMNS = [f.name for f in _SCHEMA.fields]


def _run_group(pdf: pd.DataFrame) -> pd.DataFrame:
    cfg = ExperimentConfig.from_dict(json.loads(pdf.iloc[0]["cfg"]))
    row, _ = run_config(cfg)
    return pd.DataFrame([row], columns=METRIC_COLUMNS)


def sweep(spark: SparkSession, cfgs: Iterable[ExperimentConfig]) -> DataFrame:
    """Run all configs in parallel on Spark; one task per config."""
    cfgs = list(cfgs)
    rows = [(i, json.dumps(c.to_dict())) for i, c in enumerate(cfgs)]
    df = spark.createDataFrame(rows, "id int, cfg string").repartition(len(rows), "id")
    return df.groupBy("id").applyInPandas(_run_group, schema=_SCHEMA)


def sweep_local(cfgs: Iterable[ExperimentConfig]) -> pd.DataFrame:
    """Serial fallback (used by unit tests that avoid Spark overhead)."""
    rows = [run_config(cfg)[0] for cfg in cfgs]
    return pd.DataFrame(rows, columns=METRIC_COLUMNS)
