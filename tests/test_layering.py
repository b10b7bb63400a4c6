"""The simulation path is numpy-only. Importing ``repro.core.{config,
harness,mst}`` and running one cell (MST probe, build, run, metrics row)
loads none of the Spark/DuckDB layer's libraries, so a process that only
simulates does not pay their memory (DESIGN.md §2)."""
import json
import os
import subprocess
import sys
import tomllib
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

#: libraries only the Spark/DuckDB layer may import
SPARK_LAYER = ("pandas", "pyarrow", "pyspark", "duckdb")

CELL = f"""
import json, sys
from repro.core import config, harness, mst

rate_mst = mst.measure_mst("q8", "COOR", 2)
cfg = config.ExperimentConfig(query="q8", protocol="COOR", workers=2, rate=0.5 * rate_mst,
                              duration=6.0, fail_at=4.0, hot_ratio=0.3, coor_interval=1.0)
res = config.build(cfg).run(cfg.duration, fail_at=cfg.fail_at)
row = harness.metrics_row(cfg, res, rate_mst)
print(json.dumps({{"ckpt_total": row["ckpt_total"],
                  "loaded": [m for m in {SPARK_LAYER!r} if m in sys.modules]}}))
"""


def test_cell_loads_no_spark_layer_library(tmp_path):
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    out = subprocess.run([sys.executable, "-c", CELL], env=env, cwd=tmp_path,
                         capture_output=True, text=True, timeout=300)
    assert out.returncode == 0, out.stderr
    got = json.loads(out.stdout.strip().splitlines()[-1])
    assert got["ckpt_total"] > 0
    assert got["loaded"] == []


def test_pyproject_declares_the_split():
    """``pyproject.toml`` declares numpy for the simulation path, the
    Spark layer's libraries as the ``spark`` extra and the test toolchain
    as the ``test`` extra."""
    with open(SRC.parent / "pyproject.toml", "rb") as f:
        project = tomllib.load(f)["project"]
    assert project["dependencies"] == ["numpy"]
    extras = project["optional-dependencies"]
    assert sorted(extras["spark"]) == sorted(SPARK_LAYER)
    assert sorted(extras["test"]) == ["hypothesis", "pytest", "pytest-benchmark"]
