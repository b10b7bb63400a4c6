"""Reproduce paper Table III: total checkpoints and invalid percentage.

Same grid as Table II (the paper shares those runs too).

Usage: ``spark-submit jobs/table3_invalid.py [--quick]``
"""
from __future__ import annotations

import sys

import _session  # noqa: F401  (path bootstrap)

from repro.core.harness import spark_session, sweep
from repro.core.tables import render, table3_frame, table23_configs


def main() -> None:
    quick = "--quick" in sys.argv
    spark = spark_session("table3-invalid")
    cfgs = (
        table23_configs(workers=(10,), duration=30.0)
        if quick
        else table23_configs(workers=(10, 50))
    )
    metrics = sweep(cfgs, spark)
    print(render(table3_frame(spark, metrics), "Table III — total / invalid checkpoints"))
    spark.stop()


if __name__ == "__main__":
    main()
