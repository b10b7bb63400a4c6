"""Oracle checks for the PySpark batch reference queries.

Every batch query is validated against DuckDB over the same generated
input via ``repro.oracle.assert_equivalent`` — a wrong join, filter, or
window assignment fails here, not just "it ran".
"""
import pandas as pd
import pytest

from repro.nexmark.generator import bids, persons_auctions
from repro.nexmark.spark_queries import (
    Q1_SQL,
    Q3_SQL,
    Q8_SQL,
    Q12_SQL,
    q1_batch,
    q3_batch,
    q8_batch,
    q12_batch,
    reachability_batch,
    reachability_sql,
    records_frame,
)
from repro.oracle import assert_equivalent


@pytest.fixture(scope="module")
def nexmark_frames():
    b = records_frame(bids(rate=300, duration=8, seed=11))
    ps, aus = persons_auctions(rate=300, duration=8, seed=12)
    return b, records_frame(ps), records_frame(aus)


class TestBatchQueriesOracle:
    def test_q1(self, spark, nexmark_frames):
        b, _, _ = nexmark_frames
        assert_equivalent(q1_batch(spark, b), Q1_SQL, bids=b)

    def test_q3(self, spark, nexmark_frames):
        _, p, a = nexmark_frames
        assert_equivalent(q3_batch(spark, p, a), Q3_SQL, persons=p, auctions=a)

    def test_q8(self, spark, nexmark_frames):
        _, p, a = nexmark_frames
        assert_equivalent(q8_batch(spark, p, a), Q8_SQL, persons=p, auctions=a)

    def test_q12(self, spark, nexmark_frames):
        b, _, _ = nexmark_frames
        assert_equivalent(q12_batch(spark, b), Q12_SQL, bids=b)

    def test_q3_nonempty(self, spark, nexmark_frames):
        _, p, a = nexmark_frames
        assert q3_batch(spark, p, a).count() > 0

    def test_q8_window_column_is_event_time_window(self, spark, nexmark_frames):
        _, p, a = nexmark_frames
        rows = q8_batch(spark, p, a).select("window").distinct().collect()
        assert all(r["window"] >= 0 for r in rows)


class TestReachabilityBatch:
    def _graph(self):
        links = pd.DataFrame({"u": [1, 2, 3, 5], "v": [2, 3, 4, 1]})
        sources = pd.DataFrame({"s": [1, 5]})
        return links, sources

    def test_matches_duckdb_recursive_cte(self, spark):
        links, sources = self._graph()
        df = reachability_batch(spark, links, sources)
        assert_equivalent(df, reachability_sql(), links=links, sources=sources)

    def test_cycle_avoidance(self, spark):
        links = pd.DataFrame({"u": [1, 2], "v": [2, 1]})
        sources = pd.DataFrame({"s": [1]})
        df = reachability_batch(spark, links, sources).toPandas()
        assert set(df["path"]) == {"1-2"}

    def test_empty_sources(self, spark):
        links = pd.DataFrame({"u": [1], "v": [2]})
        sources = pd.DataFrame({"s": pd.Series([], dtype="int64")})
        assert reachability_batch(spark, links, sources).count() == 0
