"""Checkpoint analytics (paper Table III).

Total checkpoints and invalid percentages per table cell, computed with
Spark over the per-run metrics rows. ``INVALID_SQL`` is the DuckDB oracle
equivalent over a table named ``metrics``.
"""
from __future__ import annotations

import pandas as pd
from pyspark.sql import DataFrame, SparkSession
from pyspark.sql import functions as F

INVALID_SQL = """
SELECT query, workers, protocol, ckpt_total,
       round(100.0 * invalid / NULLIF(ckpt_total, 0), 2) AS invalid_pct
FROM metrics
WHERE protocol <> 'none'
"""


def invalid_summary(spark: SparkSession, metrics: pd.DataFrame) -> DataFrame:
    """Total checkpoints and invalid percentage per table cell."""
    df = spark.createDataFrame(metrics) if isinstance(metrics, pd.DataFrame) else metrics
    return df.where(F.col("protocol") != "none").select(
        "query",
        "workers",
        "protocol",
        "ckpt_total",
        F.round(
            100.0 * F.col("invalid") / F.nullif(F.col("ckpt_total"), F.lit(0)), 2
        ).alias("invalid_pct"),
    )
