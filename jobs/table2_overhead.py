"""Reproduce paper Table II: message-overhead ratio vs checkpoint-free.

Runs the full (protocol x query x {10, 50} workers) grid at 80 % MST with
the failure at t=18 s, Spark-parallel, and prints our ratio next to the
paper's. ``--quick`` shrinks to 10 workers / 30 s for a fast pass.

Usage: ``spark-submit jobs/table2_overhead.py [--quick]``
"""
from __future__ import annotations

import sys

import _session  # noqa: F401  (path bootstrap)

from repro.core.harness import spark_session, sweep
from repro.core.tables import render, table2_frame, table23_configs


def main() -> None:
    quick = "--quick" in sys.argv
    spark = spark_session("table2-overhead")
    cfgs = (
        table23_configs(workers=(10,), duration=30.0)
        if quick
        else table23_configs(workers=(10, 50))
    )
    metrics = sweep(cfgs, spark)
    print(render(table2_frame(spark, metrics), "Table II — message overhead ratio"))
    spark.stop()


if __name__ == "__main__":
    main()
