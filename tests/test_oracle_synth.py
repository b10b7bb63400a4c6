"""Sanity tests for the DuckDB oracle (and that it works against this
environment's Spark/DuckDB versions)."""
import duckdb
import pandas as pd
import pytest

from repro.oracle import assert_equivalent


class TestOracle:
    def test_accepts_equivalent(self, spark):
        pdf = pd.DataFrame({"k": [1, 2, 2], "v": [1.0, 2.0, 3.0]})
        df = spark.createDataFrame(pdf).groupBy("k").sum("v").withColumnRenamed(
            "sum(v)", "s"
        )
        assert_equivalent(df, "SELECT k, sum(v) AS s FROM t GROUP BY k", t=pdf)

    def test_rejects_wrong_result(self, spark):
        pdf = pd.DataFrame({"k": [1, 2], "v": [1.0, 2.0]})
        df = spark.createDataFrame(pdf.assign(v=lambda d: d.v + 1)).select("k", "v")
        with pytest.raises(AssertionError):
            assert_equivalent(df, "SELECT k, v FROM t", t=pdf)

    def test_rejects_column_mismatch(self, spark):
        pdf = pd.DataFrame({"k": [1]})
        df = spark.createDataFrame(pdf).withColumnRenamed("k", "kk")
        with pytest.raises(AssertionError, match="column mismatch"):
            assert_equivalent(df, "SELECT k FROM t", t=pdf)

