"""Tests for MST probing, table assembly, and the Table I feature matrix."""
import pandas as pd
import pytest

from repro.core.features import (
    FEATURE_ORDER,
    PAPER_TABLE1,
    feature_matrix,
    matches_paper_table1,
    render_table1,
)
from repro.core.mst import measure_mst
from repro.core.tables import (
    PAPER_TABLE2,
    PAPER_TABLE3,
    PAPER_TABLE4,
    fig7_frame,
    skew_configs,
    table23_configs,
    table4_configs,
    table4_frame,
)
from repro.protocols import CICProtocol, CoordinatedProtocol, Protocol, UncoordinatedProtocol


class TestMST:
    def test_positive_and_cached(self):
        a = measure_mst("q1", "none", 2)
        b = measure_mst("q1", "none", 2)
        assert a > 0 and a == b

    def test_scales_with_workers(self):
        assert measure_mst("q1", "none", 4) > 1.5 * measure_mst("q1", "none", 2)

    def test_cic_below_checkpoint_free(self):
        assert measure_mst("q12", "CIC", 4) < measure_mst("q12", "none", 4)

    def test_coor_close_to_checkpoint_free(self):
        assert measure_mst("q12", "COOR", 4) > 0.9 * measure_mst("q12", "none", 4)


class TestTable1:
    def test_matches_paper(self):
        ours = feature_matrix()
        for name, flags in PAPER_TABLE1.items():
            for f, v in flags.items():
                assert bool(ours.loc[name, f]) == v, (name, f)

    def test_paper_check_detects_a_flipped_flag(self, monkeypatch):
        assert matches_paper_table1()
        flipped = {**CICProtocol.features, "forced_checkpoints": False}
        monkeypatch.setattr(CICProtocol, "features", flipped)
        assert not matches_paper_table1()

    def test_every_protocol_has_every_flag(self):
        assert list(Protocol.features) == FEATURE_ORDER
        for cls in (CoordinatedProtocol, UncoordinatedProtocol, CICProtocol):
            assert sorted(cls.features) == sorted(FEATURE_ORDER), cls.name

    def test_render_contains_symbols(self):
        s = render_table1()
        assert "●" in s and "—" in s

    def test_exactly_three_protocols(self):
        assert list(feature_matrix().index) == [
            "Coordinated", "Uncoordinated", "Communication-induced"
        ]


class TestPaperConstants:
    def test_table2_complete(self):
        assert len(PAPER_TABLE2) == 2 * 4 * 3  # workers x queries x protocols

    def test_table3_complete(self):
        assert len(PAPER_TABLE3) == 2 * 4 * 3

    def test_table4_complete(self):
        assert len(PAPER_TABLE4) == 4

    def test_table2_cic_worst(self):
        for w in (10, 50):
            for q in ("q1", "q3", "q8", "q12"):
                assert PAPER_TABLE2[(w, q, "CIC")] > PAPER_TABLE2[(w, q, "UNC")]

    def test_table3_coor_no_invalid(self):
        assert all(v[1] == 0.0 for k, v in PAPER_TABLE3.items() if k[2] == "COOR")


class TestConfigGrids:
    def test_table23_grid_shape(self):
        cfgs = table23_configs(workers=(10, 50))
        assert len(cfgs) == 2 * 4 * 3
        assert {c.protocol for c in cfgs} == {"COOR", "UNC", "CIC"}
        assert all(c.rate == -0.8 for c in cfgs)
        assert all(c.fail_at == 18.0 for c in cfgs)

    def test_table4_grid_shape(self):
        cfgs = table4_configs()
        assert len(cfgs) == 4
        assert {c.protocol for c in cfgs} == {"UNC", "CIC"}
        assert all(c.query == "cyclic" and c.fail_at == 48.0 for c in cfgs)
        assert all(c.rate == -0.775 for c in cfgs)

    def test_skew_grid_shape(self):
        cfgs = skew_configs()
        assert [(c.query, c.hot_ratio, c.protocol) for c in cfgs] == [
            (q, h, p)
            for q in ("q3", "q8", "q12")
            for h in (0.1, 0.2, 0.3)
            for p in ("COOR", "UNC", "CIC")
        ]
        assert all(
            c.workers == 10 and c.duration == 30.0 and c.fail_at is None and c.rate == -0.5
            for c in cfgs
        )
        assert {c.rate for c in skew_configs(0.8)} == {-0.8}

    def test_fig7_normalises_by_the_checkpoint_free_probe(self):
        metrics = pd.DataFrame([
            dict(query="q1", workers=2, protocol="CIC", mst=50.0, p50_pre=0.1),
            dict(query="q1", workers=2, protocol="COOR", mst=100.0, p50_pre=0.1),
        ])
        f = fig7_frame(metrics)
        base = measure_mst("q1", "none", 2)
        assert list(f.columns) == ["query", "workers", "protocol", "mst", "normalized"]
        assert list(f.protocol) == ["CIC", "COOR"]
        assert list(f.normalized) == [round(50.0 / base, 3), round(100.0 / base, 3)]

    def test_fig7_spark_probes_each_pair_once(self, spark):
        metrics = pd.DataFrame([
            dict(query=q, workers=w, protocol=p, mst=m)
            for q, w in (("q1", 2), ("q12", 2), ("q1", 3))
            for p, m in (("CIC", 50.0), ("COOR", 100.0))
        ])
        sc = spark.sparkContext
        sc.setJobGroup("test-fig7", "one task per (query, workers)")
        try:
            f = fig7_frame(metrics, spark)
        finally:
            sc.setLocalProperty("spark.jobGroup.id", None)
        status = sc.statusTracker()
        (job,) = status.getJobIdsForGroup("test-fig7")
        (stage,) = status.getJobInfo(job).stageIds
        assert status.getStageInfo(stage).numTasks == 3
        pd.testing.assert_frame_equal(f, fig7_frame(metrics), check_exact=True)

    def test_table4_frame_formatting(self):
        metrics = pd.DataFrame(
            [
                dict(query="cyclic", protocol="UNC", workers=5, avg_ckpt_time=0.001,
                     restart_time=0.5, invalid=2, ckpt_total=100),
                dict(query="cyclic", protocol="CIC", workers=5, avg_ckpt_time=0.003,
                     restart_time=0.4, invalid=3, ckpt_total=110),
            ]
        )
        f = table4_frame(metrics)
        assert list(f.columns) == [
            "workers", "protocol", "ct_ms", "rt_ms", "invalid_pct",
            "paper_ct_ms", "paper_rt_ms", "paper_invalid_pct",
        ]
        assert f.loc[f.protocol == "UNC", "ct_ms"].iloc[0] == pytest.approx(1.0)
        assert f.loc[f.protocol == "UNC", "paper_rt_ms"].iloc[0] == 620.0
