"""Oracle checks for the metrics that reach the tables: the Spark SQL
overhead/invalid analytics, the Table IV columns, and the harness's
checkpoint-time and latency statistics, each against DuckDB."""
import math

import duckdb
import numpy as np
import pandas as pd
import pytest

from helpers import checkpoints_frame, rounds_frame
from repro.analytics.checkpoints import INVALID_SQL, invalid_summary
from repro.analytics.overhead import OVERHEAD_SQL, overhead_ratios
from repro.core.config import ExperimentConfig
from repro.core.harness import WARMUP, recovered_threshold, run_config
from repro.core.tables import table4_frame
from repro.oracle import assert_equivalent


@pytest.fixture(scope="module")
def metrics_frame():
    rows = [
        dict(query="q1", workers=10, protocol="COOR", total_bytes=1010, data_bytes=1000,
             ckpt_total=240, invalid=0, avg_ckpt_time=0.0412, restart_time=0.25,
             n_replay=0),
        dict(query="q1", workers=10, protocol="UNC", total_bytes=1005, data_bytes=1000,
             ckpt_total=303, invalid=3, avg_ckpt_time=0.0007, restart_time=0.4,
             n_replay=100),
        dict(query="q1", workers=10, protocol="CIC", total_bytes=2100, data_bytes=1000,
             ckpt_total=285, invalid=5, avg_ckpt_time=0.0013, restart_time=0.5,
             n_replay=90),
    ]
    return pd.DataFrame(rows)


# DuckDB equivalents of ``harness._latency_stats`` over a table named
# ``lat(sink_ts, ingest_ts)``; ``?`` parameters keep the window bounds
# exact doubles.
PRE_SQL = """
SELECT quantile_cont(sink_ts - ingest_ts, 0.5), quantile_cont(sink_ts - ingest_ts, 0.99)
FROM lat WHERE sink_ts >= ? AND sink_ts < ?
"""
POST_SQL = "SELECT quantile_cont(sink_ts - ingest_ts, 0.5) FROM lat WHERE sink_ts >= ?"
RECOVERY_SQL = """
SELECT min(sec) + 1 - ? FROM (
    SELECT floor(sink_ts) AS sec, median(sink_ts - ingest_ts) AS p50
    FROM lat WHERE sink_ts >= ? GROUP BY floor(sink_ts)
) WHERE p50 <= ?
"""
P99_PER_SECOND_SQL = """
SELECT floor(sink_ts) AS sec, quantile_cont(sink_ts - ingest_ts, 0.99) AS p99
FROM lat GROUP BY floor(sink_ts) ORDER BY sec
"""
# ``metrics_row``'s checkpoint columns for UNC/CIC: every snapshot counts,
# and the average time covers the pre-failure window only
CKPT_TIME_SQL = """
SELECT count(*), count(*) FILTER (WHERE kind = 'forced'),
       avg(duration) FILTER (WHERE ts < ?)
FROM ckpts
"""
# for COOR a checkpoint is a completed round: only snapshots of completed
# rounds count, and the time is the round duration
COOR_CKPT_TIME_SQL = """
SELECT (SELECT count(*) FROM ckpts WHERE round_id IN (SELECT round_id FROM rounds)),
       (SELECT avg(duration) FROM rounds WHERE start < ?)
"""
TABLE4_COLUMNS = ("workers", "protocol", "ct_ms", "rt_ms", "invalid_pct")
TABLE4_SQL = """
SELECT workers, protocol, round(1e3 * avg_ckpt_time, 3) AS ct_ms,
       round(1e3 * restart_time, 1) AS rt_ms,
       round(100.0 * invalid / NULLIF(ckpt_total, 0), 2) AS invalid_pct
FROM metrics ORDER BY workers, protocol
"""


def duckdb_one(sql, params, **tables):
    """The single result row of ``sql`` over pandas ``tables``."""
    con = duckdb.connect()
    try:
        for name, t in tables.items():
            con.register(name, t)
        return con.execute(sql, params).fetchone()
    finally:
        con.close()


def _run_with_lat(cfg):
    row, res = run_config(cfg)
    con = duckdb.connect()
    tel = res.telemetry
    con.register("lat", pd.DataFrame({"sink_ts": np.frombuffer(tel.sink_ts),
                                      "ingest_ts": np.frombuffer(tel.ingest_ts)}))
    return cfg, row, res, con


def _q12(protocol, fail_at):
    return ExperimentConfig(query="q12", protocol=protocol, workers=4, rate=200.0,
                            duration=25.0, fail_at=fail_at)


@pytest.fixture(scope="module")
def fail_run():
    run = _run_with_lat(_q12("UNC", 6.0))
    yield run
    run[3].close()


@pytest.fixture(scope="module")
def coor_fail_run():
    run = _run_with_lat(_q12("COOR", 6.0))
    yield run
    run[3].close()


@pytest.fixture(scope="module")
def steady_run():
    run = _run_with_lat(_q12("UNC", None))
    yield run
    run[3].close()


class TestOverheadAnalytics:
    def test_matches_duckdb(self, spark, metrics_frame):
        got = overhead_ratios(spark, metrics_frame)
        assert_equivalent(got, OVERHEAD_SQL, metrics=metrics_frame)

    def test_values(self, spark, metrics_frame):
        pdf = overhead_ratios(spark, metrics_frame).toPandas().set_index("protocol")
        assert pdf.loc["CIC", "ratio"] == pytest.approx(2.1)
        assert pdf.loc["COOR", "ratio"] == pytest.approx(1.01)
        assert sorted(pdf.index) == ["CIC", "COOR", "UNC"]  # one row per run


class TestCheckpointAnalytics:
    def test_invalid_summary_matches_duckdb(self, spark, metrics_frame):
        got = invalid_summary(spark, metrics_frame)
        assert_equivalent(got, INVALID_SQL, metrics=metrics_frame)

    def test_checkpoint_times_match_duckdb(self, fail_run):
        cfg, row, res, _ = fail_run
        (total, forced, avg) = duckdb_one(
            CKPT_TIME_SQL, [cfg.fail_at], ckpts=checkpoints_frame(res.telemetry)
        )
        assert row["ckpt_total"] == total > 0
        assert row["ckpt_forced"] == forced
        assert row["avg_ckpt_time"] == pytest.approx(avg, rel=1e-12)

    def test_coor_checkpoint_time_is_round_duration(self, coor_fail_run):
        cfg, row, res, _ = coor_fail_run
        (total, avg) = duckdb_one(
            COOR_CKPT_TIME_SQL, [cfg.fail_at],
            ckpts=checkpoints_frame(res.telemetry), rounds=rounds_frame(res.telemetry),
        )
        assert row["ckpt_total"] == total > 0
        assert row["avg_ckpt_time"] == pytest.approx(avg, rel=1e-12)


class TestRecoveryAnalytics:
    def test_restart_summary_matches_duckdb(self, metrics_frame):
        got = table4_frame(metrics_frame)[list(TABLE4_COLUMNS)]
        con = duckdb.connect()
        try:
            con.register("metrics", metrics_frame)
            expected = con.execute(TABLE4_SQL).fetchdf()
        finally:
            con.close()
        pd.testing.assert_frame_equal(got, expected, check_dtype=False)

    def test_recovery_seconds_finite_for_long_run(self, fail_run):
        _, row, _, _ = fail_run
        assert math.isfinite(row["recovery_time"]) and row["recovery_time"] > 0


class TestLatencyAnalytics:
    """The latency columns of a failure-free run and of a COOR failure
    run, and the failure's spike in the per-second series."""

    def test_steady_percentiles_match_duckdb(self, steady_run):
        cfg, row, _, con = steady_run
        p50, p99 = con.execute(PRE_SQL, [WARMUP, cfg.duration]).fetchone()
        assert row["p50_pre"] == pytest.approx(p50, rel=1e-12)
        assert row["p99_pre"] == pytest.approx(p99, rel=1e-12)
        assert 0 < p50 < p99
        # no failure: the post window is the drain after the sources stop
        (post,) = con.execute(POST_SQL, [cfg.duration]).fetchone()
        if post is None:
            assert math.isnan(row["p50_post"])
        else:
            assert row["p50_post"] == pytest.approx(post, rel=1e-12)
        assert math.isnan(row["recovery_time"])

    def test_percentiles_match_duckdb(self, coor_fail_run):
        cfg, row, res, con = coor_fail_run
        t_resume = res.telemetry.recovery["t_resume"]
        p50, p99 = con.execute(PRE_SQL, [min(WARMUP, cfg.fail_at / 2), cfg.fail_at]).fetchone()
        (post,) = con.execute(POST_SQL, [t_resume]).fetchone()
        (rt,) = con.execute(
            RECOVERY_SQL, [cfg.fail_at, t_resume, recovered_threshold(p50)]
        ).fetchone()
        assert row["p50_pre"] == pytest.approx(p50, rel=1e-12)
        assert row["p99_pre"] == pytest.approx(p99, rel=1e-12)
        assert row["p50_post"] == pytest.approx(post, rel=1e-12)
        assert row["recovery_time"] == pytest.approx(rt, abs=1e-9)

    def test_failure_visible_in_series(self, fail_run):
        _, _, _, con = fail_run
        pdf = con.execute(P99_PER_SECOND_SQL).fetchdf().set_index("sec")
        assert pdf["p99"].max() > 10 * pdf.loc[:5, "p99"].median()


class TestLatencyOracle:
    """p50/p99 and recovery time of a failure run, as ``metrics_row``
    reports them, against DuckDB over the same sink latency log."""

    @pytest.fixture(scope="class")
    def run(self, fail_run):
        cfg, row, res, con = fail_run
        return cfg, row, res.telemetry.recovery["t_resume"], con

    def test_pre_failure_percentiles(self, run):
        cfg, row, _, con = run
        warm = min(WARMUP, cfg.fail_at / 2)
        p50, p99 = con.execute(PRE_SQL, [warm, cfg.fail_at]).fetchone()
        assert row["p50_pre"] == pytest.approx(p50, rel=1e-12)
        assert row["p99_pre"] == pytest.approx(p99, rel=1e-12)
        assert 0 < p50 < p99

    def test_post_resume_p50(self, run):
        _, row, t_resume, con = run
        (p50,) = con.execute(POST_SQL, [t_resume]).fetchone()
        assert p50 is not None
        assert row["p50_post"] == pytest.approx(p50, rel=1e-12)

    def test_recovery_time(self, run):
        cfg, row, t_resume, con = run
        threshold = recovered_threshold(row["p50_pre"])
        (rt,) = con.execute(RECOVERY_SQL, [cfg.fail_at, t_resume, threshold]).fetchone()
        assert row["recovery_time"] == pytest.approx(rt, abs=1e-9)
