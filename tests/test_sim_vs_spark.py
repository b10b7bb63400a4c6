"""Integration: the simulator's sink output equals the Spark/DuckDB batch
answer — including runs with an injected failure and recovery.

This closes the loop of DESIGN.md §1: exactly-once processing is verified
against an *independent* implementation of each query (Spark DataFrame API,
oracle-checked against DuckDB), not just against another simulator run.
"""
import pytest

from helpers import FAIL_AT, cyclic_workload, run_cyclic, run_query
from repro.nexmark.generator import bids, persons_auctions
from repro.nexmark.spark_queries import (
    Q1_SQL,
    Q3_SQL,
    Q8_SQL,
    Q12_SQL,
    sim_q1_frame,
    sim_q3_frame,
    sim_q8_frame,
    sim_q12_frame,
    reachability_batch,
    records_frame,
    sim_reachability_frame,
)
from repro.oracle import assert_equivalent

# the exact inputs helpers.run_query generates (same rate/duration/seed)
RATE, DURATION, SEED = 400.0, 10.0, 1


@pytest.fixture(scope="module")
def inputs():
    b = records_frame(bids(rate=RATE, duration=DURATION, seed=SEED))
    ps, aus = persons_auctions(rate=RATE, duration=DURATION, seed=SEED)
    return b, records_frame(ps), records_frame(aus)


@pytest.mark.parametrize("protocol", ["COOR", "UNC", "CIC"])
class TestSimMatchesBatch:
    def test_q1(self, spark, inputs, protocol):
        b, _, _ = inputs
        res = run_query("q1", protocol, fail_at=FAIL_AT)
        got = spark.createDataFrame(sim_q1_frame(res.sink_values()))
        assert_equivalent(got, Q1_SQL, bids=b)

    def test_q3(self, spark, inputs, protocol):
        _, p, a = inputs
        res = run_query("q3", protocol, fail_at=FAIL_AT)
        got = spark.createDataFrame(sim_q3_frame(res.sink_values()))
        assert_equivalent(got, Q3_SQL, persons=p, auctions=a)

    def test_q8(self, spark, inputs, protocol):
        _, p, a = inputs
        res = run_query("q8", protocol, fail_at=FAIL_AT)
        got = spark.createDataFrame(sim_q8_frame(res.sink_values()))
        assert_equivalent(got, Q8_SQL, persons=p, auctions=a)

    def test_q12(self, spark, inputs, protocol):
        b, _, _ = inputs
        res = run_query("q12", protocol, fail_at=FAIL_AT)
        got = spark.createDataFrame(sim_q12_frame(res.sink_values()))
        assert_equivalent(got, Q12_SQL, bids=b)


@pytest.mark.parametrize("protocol", ["UNC", "CIC"])
def test_cyclic_sim_matches_spark_batch(spark, protocol):
    """Add-only reachability: the streaming fixpoint (with a failure at
    t=3 s) must equal the Spark iterative-join batch fixpoint."""
    import pandas as pd

    res = run_cyclic(protocol, fail_at=3.0)
    links, sources = cyclic_workload()
    links_pdf = pd.DataFrame(
        [{"u": r.value["u"], "v": r.value["v"]} for r in links]
    ).drop_duplicates()
    sources_pdf = pd.DataFrame(
        [{"s": r.value["s"]} for r in sources]
    ).drop_duplicates()
    batch = reachability_batch(spark, links_pdf, sources_pdf).toPandas()
    got = sim_reachability_frame(res.sink_values())
    key = lambda df: set(zip(df["src"], df["path"]))
    assert key(got) == key(batch)
