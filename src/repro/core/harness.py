"""Experiment harness: single runs and Spark-parallel sweeps.

``run_config`` executes one simulation and flattens it into a metrics row
(the paper's §V metrics). ``sweep`` runs a grid of configs and returns
their rows as a pandas frame in submission order: with a SparkSession
each config is one Spark task (``parallelize`` with one slice per config,
``map``, ``collect``), which is how the table driver executes the full
(protocol x query x parallelism) grid on all cores; without one it runs
them serially. Either way the configs run longest first
(:func:`longest_first`), so the slowest cells do not form the tail.

A single run needs numpy alone: pandas and pyspark are imported inside the
Spark half (``spark_session``, ``sweep``), so a process that only
simulates never loads them (DESIGN.md §2).

A config's ``rate`` may be negative, meaning "that fraction of the
measured MST": ``rate=-0.8`` runs at 80 % of the per-(query, protocol,
parallelism) maximum sustainable throughput, the paper's operating point.
"""
from __future__ import annotations

import os
from dataclasses import dataclass, replace
from typing import TYPE_CHECKING, Callable, Dict, List, Optional, Sequence, get_type_hints

import numpy as np

from repro.dataflow.simulator import SimResult

from .config import ExperimentConfig, build
from .mst import measure_mst

if TYPE_CHECKING:
    import pandas as pd
    from pyspark.sql import SparkSession

WARMUP = 5.0  #: seconds excluded from steady-state latency stats


def recovered_threshold(baseline_p50: float) -> float:
    """Latency level at which execution counts as "back to normal"
    (paper §V, recovery time): within 3x the pre-failure p50, with a
    100 ms floor so ms-scale baselines don't demand a bit-exact return."""
    return max(3 * baseline_p50, baseline_p50 + 0.1)


@dataclass
class MetricsRow:
    """One run's metrics (paper §V), in column order; ``METRIC_COLUMNS``
    is derived from these annotations."""

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


METRIC_COLUMNS = list(get_type_hints(MetricsRow))


def _percentile(values: np.ndarray, q: float) -> float:
    return float(np.percentile(values, q)) if len(values) else float("nan")


def _latency_stats(cfg: ExperimentConfig, res: SimResult) -> Dict[str, float]:
    tel = res.telemetry
    sink = np.frombuffer(tel.sink_ts)
    lat = sink - np.frombuffer(tel.ingest_ts)
    t_fail = cfg.fail_at if cfg.fail_at is not None else cfg.duration
    warm = min(WARMUP, t_fail / 2)  # short runs: shrink the warmup window
    pre = lat[(warm <= sink) & (sink < t_fail)]
    after = tel.recovery.get("t_resume", t_fail) <= sink
    post = lat[after]
    out = {
        "p50_pre": _percentile(pre, 50),
        "p99_pre": _percentile(pre, 99),
        "p50_post": _percentile(post, 50),
    }
    # recovery time: first whole second after resume whose p50 is back near
    # the pre-failure p50 (paper §V: "returned to normal execution"),
    # measured from the failure instant
    out["recovery_time"] = float("nan")
    if cfg.fail_at is not None and len(pre):
        base = out["p50_pre"]
        secs = sink[after].astype(np.int64)  # sink times are >= 0: int() of each
        for sec in np.unique(secs):
            if np.median(post[secs == sec]) <= recovered_threshold(base):
                out["recovery_time"] = (int(sec) + 1) - cfg.fail_at
                break
    return out


def metrics_row(cfg: ExperimentConfig, res: SimResult, mst: float) -> Dict:
    """Flatten one run into the metrics the tables need: a plain dict of
    the ``MetricsRow`` fields, in column order."""
    tel = res.telemetry
    ckpts = tel.checkpoints
    # average checkpointing time over the steady pre-failure window, so the
    # metric reflects the protocol rather than the recovery backlog
    # transient; totals/invalid still cover the whole run
    t_cut = cfg.fail_at if cfg.fail_at is not None else float("inf")
    if cfg.protocol == "COOR":
        # a COOR "checkpoint" is a completed round (§V): its time is the
        # round duration, and only completed-round snapshots count
        done = {r for r, _, _ in tel.rounds}
        ckpt_total = sum(m.round_id in done for m in ckpts)
        steady = [duration for _, start, duration in tel.rounds if start < t_cut]
    else:
        ckpt_total = len(ckpts)
        steady = [m.duration for m in ckpts if m.ts < t_cut]
    # np.mean sums pairwise, as pandas' Series.mean does, so the value is
    # bit-identical to the frame-based reference in tests/helpers.py
    avg_ckpt = float(np.mean(np.array(steady, dtype=np.float64))) if steady else float("nan")
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
        ckpt_forced=sum(m.kind == "forced" for m in ckpts),
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


def run_config(cfg: ExperimentConfig):
    """Run one config; returns (metrics_row, SimResult). A fractional
    (negative) rate is resolved against the measured MST first, and the
    row records that MST (NaN for an absolute rate)."""
    mst = float("nan")
    if cfg.rate < 0:
        mst = measure_mst(cfg.query, cfg.protocol, cfg.workers)
        cfg = replace(cfg, rate=-cfg.rate * mst)
    sim = build(cfg)
    res = sim.run(cfg.duration, fail_at=cfg.fail_at)
    return metrics_row(cfg, res, mst), res


# ---------------------------------------------------------------------------
# Spark-parallel sweep
# ---------------------------------------------------------------------------


def spark_session(app: str = "repro") -> SparkSession:
    """The SparkSession of the table driver and the test suite (the active one
    under ``spark-submit``). Master and driver memory come from the launch
    (``PYSPARK_SUBMIT_ARGS`` or ``spark-submit``); the settings honoured
    after launch are set here. Shuffle partitions come from
    ``SPARK_SHUFFLE_PARTITIONS`` (default 64). Broadcast joins are off so
    the batch references exercise the shuffle path."""
    from pyspark.sql import SparkSession

    return (
        SparkSession.builder.appName(app)
        .config("spark.sql.shuffle.partitions", os.environ.get("SPARK_SHUFFLE_PARTITIONS", "64"))
        .config("spark.sql.execution.arrow.pyspark.enabled", "true")
        .config("spark.sql.autoBroadcastJoinThreshold", -1)
        .config("spark.ui.enabled", "false")
        .getOrCreate()
    )


def _row(cfg: ExperimentConfig) -> Dict:
    return run_config(cfg)[0]


def longest_first(cfgs: Sequence[ExperimentConfig]) -> List[int]:
    """Indices of ``cfgs`` in descending ``workers x |rate|``, a proxy for a
    cell's run time; the sort is stable, so equal cells keep their order."""
    return sorted(range(len(cfgs)), key=lambda i: -cfgs[i].workers * abs(cfgs[i].rate))


def spark_map(fn: Callable, args: Sequence[tuple], spark: Optional[SparkSession] = None) -> List:
    """``[fn(*a) for a in args]``, as one Spark task per call with a session."""
    if spark is None:
        return [fn(*a) for a in args]
    return spark.sparkContext.parallelize(args, max(len(args), 1)).map(lambda a: fn(*a)).collect()


def sweep(cfgs: Sequence[ExperimentConfig], spark: Optional[SparkSession] = None) -> pd.DataFrame:
    """Run every config and return their metrics rows in submission order:
    one Spark task per config when a session is given, serially otherwise.
    The configs are handed out longest first. An empty grid gives an empty
    frame on both paths."""
    import pandas as pd

    order = longest_first(cfgs)
    by_index = dict(zip(order, spark_map(_row, [(cfgs[i],) for i in order], spark)))
    return pd.DataFrame([by_index[i] for i in range(len(cfgs))], columns=METRIC_COLUMNS)
