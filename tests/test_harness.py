"""Tests for the experiment harness and the Spark-parallel sweep."""
import json
from typing import get_type_hints

import pandas as pd
import pytest

from repro.core.config import ExperimentConfig, UNC_INTERVALS, build, make_protocol
from repro.core.harness import (
    METRIC_COLUMNS,
    MetricsRow,
    resolve_rate,
    run_config,
    sweep,
    sweep_local,
)
from repro.protocols import (
    CICProtocol,
    CoordinatedProtocol,
    NoneProtocol,
    UncoordinatedProtocol,
)


class TestConfig:
    def test_roundtrip(self):
        cfg = ExperimentConfig(query="q3", protocol="UNC", workers=4, rate=100.0)
        assert ExperimentConfig.from_dict(cfg.to_dict()) == cfg

    def test_json_serializable(self):
        cfg = ExperimentConfig(query="q3", protocol="UNC", workers=4, rate=100.0)
        assert json.loads(json.dumps(cfg.to_dict()))["query"] == "q3"

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
                               duration=4.0)
        resolved = resolve_rate(cfg)
        assert resolved.rate > 0

    def test_positive_rate_passthrough(self):
        cfg = ExperimentConfig(query="q1", protocol="UNC", workers=2, rate=123.0)
        assert resolve_rate(cfg).rate == 123.0


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
        row, res = run_config(cfg, keep_result=True)
        assert row["avg_ckpt_time"] == pytest.approx(
            res.telemetry.rounds_frame()["duration"].mean()
        )


class TestSweep:
    CFGS = [
        ExperimentConfig(query="q1", protocol=p, workers=2, rate=200.0, duration=5.0,
                         fail_at=None if p == "none" else 3.0)
        for p in ["none", "UNC"]
    ]

    def test_sweep_local(self):
        pdf = sweep_local(self.CFGS)
        assert list(pdf.columns) == METRIC_COLUMNS and len(pdf) == 2

    def test_sweep_spark_matches_local(self, spark):
        spark_pdf = sweep(spark, self.CFGS).toPandas()
        local_pdf = sweep_local(self.CFGS)
        spark_pdf = spark_pdf.sort_values("protocol").reset_index(drop=True)
        local_pdf = local_pdf.sort_values("protocol").reset_index(drop=True)
        assert list(spark_pdf.columns) == METRIC_COLUMNS
        # NaN-aware, and dtypes must agree too
        pd.testing.assert_frame_equal(spark_pdf, local_pdf, check_exact=True)
