"""Message-overhead analytics (paper Table II).

The paper reports "the ratio of message overhead with respect to an
execution without checkpoints": total traffic including protocol-related
information (markers, piggybacked vectors, checkpoint metadata) relative
to the pure workload traffic. We compute it self-normalised per run —
``total_bytes / data_bytes`` — which equals the paper's baseline-relative
ratio for identical workloads while being immune to the post-recovery
retransmissions that a with-failure run adds to both numerator and
denominator (the paper's UNC rows of 1.00-1.01x show retransmissions are
not counted as overhead).

Computed with the DataFrame API; ``OVERHEAD_SQL`` is the DuckDB oracle
equivalent over a table named ``metrics``.
"""
from __future__ import annotations

import pandas as pd
from pyspark.sql import DataFrame, SparkSession
from pyspark.sql import functions as F

OVERHEAD_SQL = """
SELECT query, workers, protocol,
       round(CAST(total_bytes AS DOUBLE) / data_bytes, 4) AS ratio
FROM metrics
"""


def overhead_ratios(spark: SparkSession, metrics: pd.DataFrame) -> DataFrame:
    """Per (query, workers, protocol) traffic ratio vs protocol-free bytes."""
    return (
        spark.createDataFrame(metrics)
        .select(
            "query",
            "workers",
            "protocol",
            F.round(F.col("total_bytes").cast("double") / F.col("data_bytes"), 4).alias(
                "ratio"
            ),
        )
    )
