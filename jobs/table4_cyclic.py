"""Reproduce paper Table IV: the cyclic reachability query.

UNC and CIC at 5 and 10 workers, ~77.5 % MST, failure at t=48 s of 60 s;
COOR is excluded because the aligned protocol deadlocks on cycles (the
test suite asserts it raises UnsupportedTopologyError).

Usage: ``spark-submit jobs/table4_cyclic.py [--quick]``
"""
from __future__ import annotations

import sys

import _session  # noqa: F401  (path bootstrap)

from repro.core.harness import spark_session, sweep
from repro.core.tables import render, table4_configs, table4_frame


def main() -> None:
    quick = "--quick" in sys.argv
    spark = spark_session("table4-cyclic")
    cfgs = (
        table4_configs(workers=(5,), duration=30.0, fail_at=20.0, n_nodes=20_000)
        if quick
        else table4_configs()
    )
    metrics = sweep(cfgs, spark)
    print(render(table4_frame(metrics), "Table IV — cyclic query (CT/RT/IC)"))
    spark.stop()


if __name__ == "__main__":
    main()
