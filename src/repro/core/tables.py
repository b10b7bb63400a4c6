"""Assemble the paper's evaluation tables from experiment sweeps.

Each ``*_configs`` function builds the grid the paper ran (scaled to the
simulator, DESIGN.md §3); ``harness.sweep`` runs it. Each ``*_frame``
function formats the sweep's metrics rows into a tidy pandas frame, with
the paper's reported value alongside ours where the paper gives one.
``render`` formats a frame for ``jobs/run_all_tables.py`` and EXPERIMENTS.md.
"""
from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Tuple

import pandas as pd
from pyspark.sql import SparkSession

from repro.analytics.checkpoints import invalid_summary
from repro.analytics.overhead import overhead_ratios

from .config import CYCLIC_FAIL_AT, FAIL_AT, RUN_DURATION, ExperimentConfig
from .harness import spark_map
from .mst import measure_mst

QUERIES_T23 = ["q1", "q3", "q8", "q12"]
PROTOCOLS = ["COOR", "UNC", "CIC"]

# ---------------------------------------------------------------------------
# Paper-reported values
# ---------------------------------------------------------------------------

#: Table II — message-overhead ratio vs checkpoint-free execution
PAPER_TABLE2: Dict[Tuple[int, str, str], float] = {
    (10, "q1", "COOR"): 1.00, (10, "q3", "COOR"): 1.00, (10, "q8", "COOR"): 1.00, (10, "q12", "COOR"): 1.00,
    (10, "q1", "UNC"): 1.00, (10, "q3", "UNC"): 1.00, (10, "q8", "UNC"): 1.00, (10, "q12", "UNC"): 1.00,
    (10, "q1", "CIC"): 2.10, (10, "q3", "CIC"): 1.82, (10, "q8", "CIC"): 1.74, (10, "q12", "CIC"): 1.79,
    (50, "q1", "COOR"): 1.00, (50, "q3", "COOR"): 1.00, (50, "q8", "COOR"): 1.00, (50, "q12", "COOR"): 1.00,
    (50, "q1", "UNC"): 1.00, (50, "q3", "UNC"): 1.01, (50, "q8", "UNC"): 1.01, (50, "q12", "UNC"): 1.00,
    (50, "q1", "CIC"): 2.53, (50, "q3", "CIC"): 2.58, (50, "q8", "CIC"): 2.49, (50, "q12", "CIC"): 2.58,
}

#: Table III — (total checkpoints, invalid %) per cell
PAPER_TABLE3: Dict[Tuple[int, str, str], Tuple[int, float]] = {
    (10, "q1", "UNC"): (303, 0.0), (10, "q1", "CIC"): (285, 0.0), (10, "q1", "COOR"): (240, 0.0),
    (10, "q3", "UNC"): (455, 4.0), (10, "q3", "CIC"): (471, 3.0), (10, "q3", "COOR"): (400, 0.0),
    (10, "q8", "UNC"): (384, 2.0), (10, "q8", "CIC"): (386, 3.0), (10, "q8", "COOR"): (360, 0.0),
    (10, "q12", "UNC"): (282, 3.0), (10, "q12", "CIC"): (282, 4.0), (10, "q12", "COOR"): (240, 0.0),
    (50, "q1", "UNC"): (1437, 0.0), (50, "q1", "CIC"): (1428, 0.0), (50, "q1", "COOR"): (1200, 0.0),
    (50, "q3", "UNC"): (2399, 3.0), (50, "q3", "CIC"): (2517, 4.0), (50, "q3", "COOR"): (2000, 0.0),
    (50, "q8", "UNC"): (1924, 2.0), (50, "q8", "CIC"): (1920, 3.0), (50, "q8", "COOR"): (1800, 0.0),
    (50, "q12", "UNC"): (1446, 3.0), (50, "q12", "CIC"): (1451, 3.0), (50, "q12", "COOR"): (1200, 0.0),
}

#: Table IV — cyclic query: (avg checkpoint time ms, restart time ms, invalid %)
PAPER_TABLE4: Dict[Tuple[str, int], Tuple[float, float, float]] = {
    ("UNC", 5): (0.01, 620.0, 1.4),
    ("CIC", 5): (2.73, 347.0, 1.7),
    ("UNC", 10): (1.38, 344.0, 1.4),
    ("CIC", 10): (8.39, 399.0, 1.6),
}


# ---------------------------------------------------------------------------
# Config grids
# ---------------------------------------------------------------------------

def table23_configs(
    workers: Iterable[int] = (10, 50),
    queries: Iterable[str] = QUERIES_T23,
    duration: float = RUN_DURATION,
    fail_at: Optional[float] = FAIL_AT,
) -> List[ExperimentConfig]:
    """One shared grid feeds both Table II and Table III (the paper's runs
    do too): each protocol at 80 % MST, with the failure at t=18 s. Both
    tables normalise each run by itself, so no checkpoint-free run is
    needed."""
    return [
        ExperimentConfig(
            query=q,
            protocol=p,
            workers=w,
            rate=-0.8,
            duration=duration,
            fail_at=fail_at,
        )
        for w in workers
        for q in queries
        for p in PROTOCOLS
    ]


def table4_configs(
    workers: Iterable[int] = (5, 10),
    duration: float = RUN_DURATION,
    fail_at: Optional[float] = CYCLIC_FAIL_AT,
    n_nodes: int = 1_000_000,
) -> List[ExperimentConfig]:
    """Cyclic query, UNC and CIC only (COOR deadlocks on cycles), 77.5 %
    MST, failure at t=48 s."""
    return [
        ExperimentConfig(
            query="cyclic",
            protocol=p,
            workers=w,
            rate=-0.775,
            duration=duration,
            fail_at=fail_at,
            n_nodes=n_nodes,
        )
        for w in workers
        for p in ["UNC", "CIC"]
    ]


def skew_configs(mst_fraction: float = 0.5) -> List[ExperimentConfig]:
    """Skewed NexMark (Fig. 12): Q3/Q8/Q12 at 10 workers for 30 s under
    hot-item ratios 10/20/30 %, at a fraction of the *non-skewed* MST, no
    failure."""
    return [
        ExperimentConfig(
            query=q,
            protocol=p,
            workers=10,
            rate=-mst_fraction,
            duration=30.0,
            fail_at=None,
            hot_ratio=h,
        )
        for q in ("q3", "q8", "q12")
        for h in (0.1, 0.2, 0.3)
        for p in PROTOCOLS
    ]


# ---------------------------------------------------------------------------
# Frames
# ---------------------------------------------------------------------------

def table2_frame(spark: SparkSession, metrics: pd.DataFrame) -> pd.DataFrame:
    """Table II with paper values alongside."""
    ours = overhead_ratios(spark, metrics).toPandas()
    ours["paper"] = [
        PAPER_TABLE2.get((int(r.workers), r.query, r.protocol))
        for r in ours.itertuples()
    ]
    return ours.sort_values(["workers", "query", "protocol"]).reset_index(drop=True)


def table3_frame(spark: SparkSession, metrics: pd.DataFrame) -> pd.DataFrame:
    """Table III with paper values alongside."""
    ours = invalid_summary(spark, metrics).toPandas()
    paper = [
        PAPER_TABLE3.get((int(r.workers), r.query, r.protocol), (None, None))
        for r in ours.itertuples()
    ]
    ours["paper_total"] = [p[0] for p in paper]
    ours["paper_invalid_pct"] = [p[1] for p in paper]
    return ours.sort_values(["workers", "query", "protocol"]).reset_index(drop=True)


def table4_frame(metrics: pd.DataFrame) -> pd.DataFrame:
    """Table IV with paper values alongside (times in ms)."""
    rows = []
    for r in metrics.itertuples():
        ct_ms = 1e3 * r.avg_ckpt_time
        rt_ms = 1e3 * r.restart_time
        ic = 100.0 * r.invalid / r.ckpt_total if r.ckpt_total else float("nan")
        p = PAPER_TABLE4.get((r.protocol, int(r.workers)), (None, None, None))
        rows.append(
            dict(
                workers=int(r.workers),
                protocol=r.protocol,
                ct_ms=round(ct_ms, 3),
                rt_ms=round(rt_ms, 1),
                invalid_pct=round(ic, 2),
                paper_ct_ms=p[0],
                paper_rt_ms=p[1],
                paper_invalid_pct=p[2],
            )
        )
    return pd.DataFrame(rows).sort_values(["workers", "protocol"]).reset_index(drop=True)


def fig7_frame(metrics: pd.DataFrame, spark: Optional[SparkSession] = None) -> pd.DataFrame:
    """Fig. 7 shape: each protocol's MST normalised by the checkpoint-free
    MST of the same (query, workers), probed once per pair (a Spark task
    with a session). ``metrics`` holds an ``mst`` per (query, workers,
    protocol); the rows keep their order."""
    out = metrics[["query", "workers", "protocol", "mst"]].reset_index(drop=True)
    keys = list(zip(out["query"], map(int, out.workers)))
    pairs = list(dict.fromkeys(keys))
    base = dict(zip(pairs, spark_map(measure_mst, [(q, "none", w) for q, w in pairs], spark)))
    out["normalized"] = [round(m / base[k], 3) for k, m in zip(keys, out.mst)]
    return out


def skew_frame(metrics: pd.DataFrame) -> pd.DataFrame:
    """Fig. 12-shaped report: p50 latency and average checkpointing time
    per (query, hot ratio, protocol)."""
    out = metrics[
        ["query", "hot_ratio", "protocol", "p50_pre", "avg_ckpt_time", "throughput"]
    ].copy()
    return out.sort_values(["query", "hot_ratio", "protocol"]).reset_index(drop=True)


def render(df: pd.DataFrame, title: str) -> str:
    return f"== {title} ==\n{df.to_string(index=False)}\n"
