"""Tests for the experiment harness and the Spark-parallel sweep."""
import math
from typing import get_type_hints

import pandas as pd
import pytest

from helpers import (
    DURATION,
    FAIL_AT,
    INTERVAL,
    RATE,
    W,
    frame_ckpt_metrics,
    latency_pairs,
    query_sim,
    ref_latency_stats,
    ref_t_end,
    rounds_frame,
    run_cyclic,
    run_query,
)
from repro.core.config import ExperimentConfig, UNC_INTERVALS, build, make_protocol
from repro.core.harness import (
    METRIC_COLUMNS,
    MetricsRow,
    _latency_stats,
    longest_first,
    metrics_row,
    run_config,
    sweep,
)
from repro.core import mst as mst_module
from repro.core.mst import measure_mst
from repro.dataflow.kafka_sim import ReplayableLog
from repro.dataflow.simulator import Simulation
from repro.nexmark.generator import topics_for_query
from repro.nexmark.queries import QUERIES
from repro.protocols import (
    CICProtocol,
    CoordinatedProtocol,
    NoneProtocol,
    UncoordinatedProtocol,
)


class TestConfig:
    @pytest.mark.parametrize(
        "name,cls",
        [
            ("none", NoneProtocol),
            ("COOR", CoordinatedProtocol),
            ("UNC", UncoordinatedProtocol),
            ("CIC", CICProtocol),
        ],
    )
    def test_make_protocol(self, name, cls):
        assert type(make_protocol(name, 2.0, 5.0)) is cls

    def test_unknown_protocol_rejected(self):
        with pytest.raises(ValueError, match="unknown protocol"):
            make_protocol("XYZ", 2.0, 5.0)

    def test_per_query_intervals_used(self):
        cfg = ExperimentConfig(query="q3", protocol="UNC", workers=2, rate=10.0,
                               duration=1.0)
        assert build(cfg).protocol.interval == UNC_INTERVALS["q3"]

    def test_coor_round_interval_used(self):
        cfg = ExperimentConfig(query="q3", protocol="COOR", workers=2, rate=10.0,
                               duration=1.0, coor_interval=3.5)
        assert build(cfg).protocol.round_interval == 3.5

    def test_build_cyclic(self):
        cfg = ExperimentConfig(query="cyclic", protocol="UNC", workers=2, rate=50.0,
                               duration=2.0, n_nodes=500)
        sim = build(cfg)
        assert sim.graph.has_cycle()


class TestRates:
    def test_resolve_fractional_rate(self):
        cfg = ExperimentConfig(query="q1", protocol="UNC", workers=2, rate=-0.5,
                               duration=4.0, fail_at=None)
        row, _ = run_config(cfg)
        mst = measure_mst("q1", "UNC", 2)
        assert row["mst"] == mst > 0
        assert row["rate"] == 0.5 * mst

    def test_positive_rate_passthrough(self):
        cfg = ExperimentConfig(query="q1", protocol="UNC", workers=2, rate=123.0,
                               duration=4.0, fail_at=None)
        row, _ = run_config(cfg)
        assert row["rate"] == 123.0
        assert math.isnan(row["mst"])


class TestMetricsRow:
    @pytest.fixture(scope="class")
    def row(self):
        cfg = ExperimentConfig(query="q12", protocol="UNC", workers=3, rate=300.0,
                               duration=8.0, fail_at=4.0)
        r, _ = run_config(cfg)
        return r

    def test_columns_in_schema_order(self, row):
        assert list(row) == METRIC_COLUMNS

    def test_value_types_match_schema(self, row):
        types = get_type_hints(MetricsRow)
        for col, value in row.items():
            assert type(value) is types[col], col

    def test_byte_split_consistent(self, row):
        assert row["total_bytes"] == (
            row["data_bytes"] + row["piggyback_bytes"] + row["marker_bytes"]
            + row["proto_msg_bytes"]
        )

    def test_latency_stats_sane(self, row):
        assert 0 < row["p50_pre"] <= row["p99_pre"]

    def test_invalid_bounded_by_total(self, row):
        assert 0 <= row["invalid"] <= row["ckpt_total"]

    def test_coor_avg_ckpt_is_round_duration(self):
        cfg = ExperimentConfig(query="q12", protocol="COOR", workers=3, rate=300.0,
                               duration=8.0, fail_at=None, coor_interval=2.0)
        row, res = run_config(cfg)
        assert row["avg_ckpt_time"] == pytest.approx(
            rounds_frame(res.telemetry)["duration"].mean()
        )


def _ckpt_columns(query, protocol, fail_at=None, duration=DURATION):
    """(metrics_row's checkpoint columns, the frame reference's, run) for
    one cached helper run."""
    if query == "cyclic":
        res = run_cyclic(protocol, fail_at=fail_at, deletions=True)
        cfg = ExperimentConfig(query=query, protocol=protocol, workers=W, rate=100.0,
                               duration=5.0, fail_at=fail_at)
    else:
        res = run_query(query, protocol, fail_at=fail_at, duration=duration)
        cfg = ExperimentConfig(query=query, protocol=protocol, workers=W, rate=RATE,
                               duration=duration, fail_at=fail_at)
    row = metrics_row(cfg, res, float("nan"))
    ref = frame_ckpt_metrics(protocol, fail_at, res.telemetry)
    return {k: row[k] for k in ref}, ref, res


def _assert_same(got, ref):
    """Exact equality, NaN equal to NaN, types included."""
    for k, v in ref.items():
        assert type(got[k]) is type(v), k
        assert got[k] == v or (math.isnan(got[k]) and math.isnan(v)), (k, got[k], v)


class TestCheckpointColumnsMatchFrames:
    """``metrics_row``'s ``ckpt_total``/``ckpt_forced``/``avg_ckpt_time``
    equal the pandas frame computation of ``helpers.frame_ckpt_metrics``
    bit for bit."""

    @pytest.mark.parametrize("fail_at", [None, FAIL_AT])
    @pytest.mark.parametrize("protocol", ["COOR", "UNC", "CIC"])
    @pytest.mark.parametrize("query", ["q1", "q3", "q8", "q12"])
    def test_queries(self, query, protocol, fail_at):
        got, ref, _ = _ckpt_columns(query, protocol, fail_at)
        _assert_same(got, ref)
        assert got["ckpt_total"] > 0

    @pytest.mark.parametrize("fail_at", [None, 3.0])
    @pytest.mark.parametrize("protocol", ["UNC", "CIC"])
    def test_cyclic(self, protocol, fail_at):
        got, ref, _ = _ckpt_columns("cyclic", protocol, fail_at)
        _assert_same(got, ref)
        assert got["ckpt_total"] > 0

    def test_coor_failure_inside_round(self):
        # q3's third round runs from 6.0 to about 6.02: the failure aborts
        # it, so some snapshots belong to no completed round
        got, ref, res = _ckpt_columns("q3", "COOR", 6.01)
        _assert_same(got, ref)
        assert 0 < got["ckpt_total"] < len(res.telemetry.checkpoints)

    def test_no_counted_checkpoint(self):
        # the first COOR round starts at 2.0, after this run ends
        got, ref, _ = _ckpt_columns("q1", "COOR", duration=1.5)
        _assert_same(got, ref)
        assert got["ckpt_total"] == 0 and math.isnan(got["avg_ckpt_time"])


def _probe(query, protocol, workers, sim=None):
    """``measure_mst`` uncached, and the run it measured. ``sim`` replaces
    the probe's simulation."""
    runs = []

    def build_and_keep(cfg):
        probe = sim or build(cfg)
        run = probe.run

        def keep(*args, **kwargs):
            runs.append(run(*args, **kwargs))
            return runs[-1]

        probe.run = keep
        return probe

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(mst_module, "build", build_and_keep)
        got = measure_mst.__wrapped__(query, protocol, workers)
    (res,) = runs
    return got, res


def _ref_mst(res):
    tel = res.telemetry
    return tel.n_source_emitted / max(ref_t_end(latency_pairs(tel), res.duration), 1e-9)


def _no_sink_sim(protocol):
    """Q3 without persons: its sources emit, its join never outputs."""
    topics = topics_for_query("q3", rate=RATE, duration=DURATION, n_workers=W, seed=1)
    topics["persons"] = ReplayableLog.from_records("persons", [], W)
    return Simulation(QUERIES["q3"](), W, make_protocol(protocol, INTERVAL, INTERVAL), topics, seed=0)


class TestLatencyColumnsMatchPairs:
    """The latency metrics and the MST, read from the ``sink_ts`` and
    ``ingest_ts`` columns, equal the list-of-pairs references in
    ``helpers`` bit for bit."""

    @pytest.mark.parametrize("fail_at", [None, FAIL_AT])
    @pytest.mark.parametrize("protocol", ["COOR", "UNC", "CIC"])
    @pytest.mark.parametrize("query", ["q1", "q3", "q8", "q12"])
    def test_latency_stats(self, query, protocol, fail_at):
        # long enough after the failure for every cell to recover
        duration = 25.0
        res = query_sim(query, protocol, duration=duration).run(duration, fail_at=fail_at)
        cfg = ExperimentConfig(query=query, protocol=protocol, workers=W, rate=RATE,
                               duration=duration, fail_at=fail_at)
        got = _latency_stats(cfg, res)
        _assert_same(got, ref_latency_stats(cfg, latency_pairs(res.telemetry),
                                            res.telemetry.recovery))
        assert not math.isnan(got["p50_pre"]) and not math.isnan(got["p50_post"])
        assert math.isnan(got["recovery_time"]) == (fail_at is None)

    @pytest.mark.parametrize("protocol", ["COOR", "UNC", "CIC"])
    @pytest.mark.parametrize("query", ["q1", "q3", "q8", "q12"])
    def test_mst(self, query, protocol):
        got, res = _probe(query, protocol, 2)
        assert res.telemetry.n_sinked > 0
        assert got == _ref_mst(res)

    def test_no_sink_output(self):
        res = _no_sink_sim("UNC").run(DURATION, fail_at=FAIL_AT)
        assert res.telemetry.n_sinked == 0 < res.telemetry.n_source_emitted
        cfg = ExperimentConfig(query="q3", protocol="UNC", workers=W, rate=RATE,
                               duration=DURATION, fail_at=FAIL_AT)
        got = _latency_stats(cfg, res)
        _assert_same(got, ref_latency_stats(cfg, [], res.telemetry.recovery))
        assert all(math.isnan(v) for v in got.values())
        got, res = _probe("q3", "UNC", W, sim=_no_sink_sim("UNC"))
        assert got == _ref_mst(res) > 0


class TestSweep:
    CFGS = [
        ExperimentConfig(query="q1", protocol=p, workers=2, rate=200.0, duration=5.0,
                         fail_at=None if p == "none" else 3.0)
        for p in ["none", "COOR", "UNC", "CIC"]
    ] + [ExperimentConfig(query="q12", protocol="UNC", workers=2, rate=-0.5, duration=5.0,
                          fail_at=None)]

    def test_sweep_local(self):
        pdf = sweep(self.CFGS)
        assert list(pdf.columns) == METRIC_COLUMNS
        assert list(zip(pdf["query"], pdf.protocol)) == [(c.query, c.protocol) for c in self.CFGS]

    def test_sweep_spark_matches_local(self, spark):
        sc = spark.sparkContext
        sc.setJobGroup("test-sweep", "one task per config")
        try:
            spark_pdf = sweep(self.CFGS, spark)
        finally:
            sc.setLocalProperty("spark.jobGroup.id", None)
        status = sc.statusTracker()
        (job,) = status.getJobIdsForGroup("test-sweep")
        (stage,) = status.getJobInfo(job).stageIds
        assert status.getStageInfo(stage).numTasks == len(self.CFGS)
        assert list(spark_pdf.columns) == METRIC_COLUMNS
        # row for row, unsorted; NaN-aware, and dtypes must agree too
        pd.testing.assert_frame_equal(spark_pdf, sweep(self.CFGS), check_exact=True)

    def test_empty_sweep_local(self):
        pdf = sweep([])
        assert list(pdf.columns) == METRIC_COLUMNS and pdf.empty

    def test_empty_sweep_spark_matches_local(self, spark):
        # parallelize() needs at least one slice even for no configs
        pd.testing.assert_frame_equal(sweep([], spark), sweep([]), check_exact=True)


class TestSweepOrder:
    """Cells are handed out longest first (workers x |rate|) and their rows
    come back in submission order."""

    # submitted shortest first: products 50, 100, 100, 300
    CFGS = [
        ExperimentConfig(query="q1", protocol="none", workers=w, rate=r, duration=2.0,
                         fail_at=None)
        for w, r in [(1, 50.0), (1, 100.0), (2, 50.0), (3, 100.0)]
    ]

    def test_longest_first_is_a_stable_descending_sort(self):
        assert longest_first(self.CFGS) == [3, 1, 2, 0]
        assert longest_first([]) == []

    def test_fractional_rates_sort_by_magnitude(self):
        cfgs = [ExperimentConfig(query="q3", protocol="UNC", workers=w, rate=-0.8)
                for w in (10, 50, 10, 50)]
        assert longest_first(cfgs) == [1, 3, 0, 2]

    def _assert_submission_order(self, pdf):
        assert list(zip(pdf.workers, pdf.rate)) == [(c.workers, c.rate) for c in self.CFGS]

    def test_rows_in_submission_order_local(self):
        self._assert_submission_order(sweep(self.CFGS))

    def test_rows_in_submission_order_spark(self, spark):
        pdf = sweep(self.CFGS, spark)
        self._assert_submission_order(pdf)
        pd.testing.assert_frame_equal(pdf, sweep(self.CFGS), check_exact=True)
