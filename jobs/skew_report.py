"""Skewed NexMark report (paper Fig. 12 shape — figures are out of scope,
but this is the paper's headline finding, so we reproduce the numbers).

Q3/Q8/Q12 at 10 workers under hot-item ratios 10/20/30 % at 50 % of the
non-skewed MST, no failure: the coordinated protocol's p50 latency and
average checkpointing time blow up (markers stuck behind the hot worker's
backlog + alignment blocking), while UNC and CIC stay low.

Usage: ``spark-submit jobs/skew_report.py [--quick]``
"""
from __future__ import annotations

import sys

import _session  # noqa: F401  (path bootstrap)

from repro.core.harness import spark_session, sweep
from repro.core.tables import render, skew_configs, skew_frame


def main() -> None:
    quick = "--quick" in sys.argv
    spark = spark_session("skew-report")
    cfgs = (
        skew_configs(workers=6, queries=("q12",), hot_ratios=(0.3,), duration=20.0)
        if quick
        else skew_configs()
    )
    metrics = sweep(cfgs, spark)
    print(render(skew_frame(metrics), "Skewed NexMark — p50 & avg checkpoint time"))
    spark.stop()


if __name__ == "__main__":
    main()
