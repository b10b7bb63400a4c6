"""PySpark batch references for the evaluated queries.

Every streaming query the simulator executes has a batch-equivalent
DataFrame program here, plus the DuckDB SQL the oracle
(:func:`repro.oracle.assert_equivalent`) checks it against; its inputs are
the generators' records as pandas frames (``records_frame``). The simulator's
sink output is converted to frames with the ``sim_*_frame`` helpers and
verified against the *same* SQL — so a protocol bug that loses or
duplicates messages during recovery fails the oracle, not just a unit
assertion.

All column aliases match on the Spark and DuckDB sides (oracle
requirement).
"""
from __future__ import annotations

from typing import Dict, List, Tuple

import pandas as pd
from pyspark.sql import DataFrame, SparkSession
from pyspark.sql import functions as F

from repro.dataflow.messages import Record

from .queries import EUR_RATE, WINDOW_SECONDS


def records_frame(records: List[Record]) -> pd.DataFrame:
    """One row per generated record: ``uid``, ``ts`` and the value's fields."""
    return pd.DataFrame([{"uid": r.uid, "ts": r.ingest_ts, **r.value} for r in records])


# ---------------------------------------------------------------------------
# Q1 — currency conversion map
# ---------------------------------------------------------------------------

Q1_SQL = f"""
SELECT auction, bidder, round(price * {EUR_RATE}, 6) AS price_eur
FROM bids
"""


def q1_batch(spark: SparkSession, bids: pd.DataFrame) -> DataFrame:
    df = spark.createDataFrame(bids)
    return df.select(
        F.col("auction"),
        F.col("bidder"),
        F.round(F.col("price") * F.lit(EUR_RATE), 6).alias("price_eur"),
    )


def sim_q1_frame(sink_values: Dict[str, dict]) -> pd.DataFrame:
    rows = [
        {"auction": v["auction"], "bidder": v["bidder"], "price_eur": v["price_eur"]}
        for v in sink_values.values()
    ]
    return pd.DataFrame(rows, columns=["auction", "bidder", "price_eur"])


# ---------------------------------------------------------------------------
# Q3 — incremental join of filtered persons with auctions
# ---------------------------------------------------------------------------

Q3_SQL = """
SELECT p.name, p.city, p.state, a.id AS auction
FROM persons p JOIN auctions a ON p.id = a.seller
WHERE p.state IN ('OR', 'ID', 'CA') AND a.category = 10
"""


def q3_batch(spark: SparkSession, persons: pd.DataFrame, auctions: pd.DataFrame) -> DataFrame:
    p = spark.createDataFrame(persons).where(F.col("state").isin("OR", "ID", "CA"))
    a = spark.createDataFrame(auctions).where(F.col("category") == 10)
    return p.join(a, p["id"] == a["seller"]).select(
        p["name"], p["city"], p["state"], a["id"].alias("auction")
    )


def sim_q3_frame(sink_values: Dict[str, dict]) -> pd.DataFrame:
    rows = [
        {"name": v["name"], "city": v["city"], "state": v["state"], "auction": v["auction"]}
        for v in sink_values.values()
    ]
    return pd.DataFrame(rows, columns=["name", "city", "state", "auction"])


# ---------------------------------------------------------------------------
# Q8 — tumbling-window join (pair-level output, DESIGN.md §4)
# ---------------------------------------------------------------------------

Q8_SQL = f"""
SELECT p.id AS person, p.name, a.id AS auction,
       CAST(floor(p.ts / {WINDOW_SECONDS}) AS BIGINT) AS window
FROM persons p JOIN auctions a
  ON p.id = a.seller
 AND floor(p.ts / {WINDOW_SECONDS}) = floor(a.ts / {WINDOW_SECONDS})
"""


def q8_batch(spark: SparkSession, persons: pd.DataFrame, auctions: pd.DataFrame) -> DataFrame:
    p = spark.createDataFrame(persons).withColumn(
        "window", F.floor(F.col("ts") / WINDOW_SECONDS).cast("long")
    )
    a = spark.createDataFrame(auctions).withColumn(
        "window", F.floor(F.col("ts") / WINDOW_SECONDS).cast("long")
    )
    return p.join(a, (p["id"] == a["seller"]) & (p["window"] == a["window"])).select(
        p["id"].alias("person"), p["name"], a["id"].alias("auction"), p["window"]
    )


def sim_q8_frame(sink_values: Dict[str, dict]) -> pd.DataFrame:
    rows = [
        {"person": v["person"], "name": v["name"], "auction": v["auction"], "window": v["window"]}
        for v in sink_values.values()
    ]
    return pd.DataFrame(rows, columns=["person", "name", "auction", "window"])


# ---------------------------------------------------------------------------
# Q12 — tumbling-window count per bidder (final counts, DESIGN.md §4)
# ---------------------------------------------------------------------------

Q12_SQL = f"""
SELECT bidder, CAST(floor(ts / {WINDOW_SECONDS}) AS BIGINT) AS window,
       count(*) AS cnt
FROM bids
GROUP BY bidder, floor(ts / {WINDOW_SECONDS})
"""


def q12_batch(spark: SparkSession, bids: pd.DataFrame) -> DataFrame:
    return (
        spark.createDataFrame(bids)
        .withColumn("window", F.floor(F.col("ts") / WINDOW_SECONDS).cast("long"))
        .groupBy("bidder", "window")
        .agg(F.count(F.lit(1)).alias("cnt"))
    )


def sim_q12_frame(sink_values: Dict[str, dict]) -> pd.DataFrame:
    """The running-window output's *final* count per (bidder, window)."""
    best: Dict[Tuple[int, int], int] = {}
    for v in sink_values.values():
        k = (v["bidder"], v["window"])
        if v["count"] > best.get(k, 0):
            best[k] = v["count"]
    rows = [{"bidder": b, "window": w, "cnt": c} for (b, w), c in best.items()]
    return pd.DataFrame(rows, columns=["bidder", "window", "cnt"])


# ---------------------------------------------------------------------------
# Cyclic reachability (add-only reference)
# ---------------------------------------------------------------------------

def reachability_sql(max_len: int = 12) -> str:
    """DuckDB recursive-CTE reference over ``links(u, v)``/``sources(s)``."""
    return f"""
WITH RECURSIVE r(src, last, path) AS (
    SELECT s, s, CAST(s AS VARCHAR) FROM sources
    UNION ALL
    SELECT r.src, l.v, r.path || '-' || CAST(l.v AS VARCHAR)
    FROM r JOIN links l ON l.u = r.last
    WHERE NOT list_contains(string_split(r.path, '-'), CAST(l.v AS VARCHAR))
      AND len(string_split(r.path, '-')) <= {max_len}
)
SELECT DISTINCT src, path FROM r WHERE path <> CAST(src AS VARCHAR)
"""


def reachability_batch(
    spark: SparkSession, links: pd.DataFrame, sources: pd.DataFrame, max_len: int = 12
) -> DataFrame:
    """Iterative Spark fixpoint: expand paths until no new ones appear."""
    l = spark.createDataFrame(links[["u", "v"]].drop_duplicates(), schema="u long, v long")
    frontier = (
        spark.createDataFrame(sources[["s"]].drop_duplicates(), schema="s long")
        .select(
            F.col("s").alias("src"),
            F.col("s").alias("last"),
            F.array(F.col("s")).alias("nodes"),
        )
    )
    results = None
    for _ in range(max_len):
        nxt = (
            frontier.join(l, frontier["last"] == l["u"])
            .where(~F.array_contains(F.col("nodes"), F.col("v")))
            .select(
                F.col("src"),
                F.col("v").alias("last"),
                F.concat(F.col("nodes"), F.array(F.col("v"))).alias("nodes"),
            )
            .distinct()
        )
        nxt = nxt.cache()
        if nxt.isEmpty():
            break
        out = nxt.select(
            "src", F.concat_ws("-", F.col("nodes").cast("array<string>")).alias("path")
        )
        results = out if results is None else results.unionByName(out)
        frontier = nxt
    if results is None:
        schema = "src long, path string"
        return spark.createDataFrame([], schema)
    return results.distinct()


def sim_reachability_frame(sink_values: Dict[str, dict]) -> pd.DataFrame:
    rows = [
        {"src": v["s"], "path": "-".join(str(x) for x in v["path"])}
        for v in sink_values.values()
    ]
    return pd.DataFrame(rows, columns=["src", "path"]).drop_duplicates()
