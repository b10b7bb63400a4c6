"""Run the complete evaluation: Tables I-IV plus the figure-shaped reports
(MST, skew), sharing one Spark-parallel sweep for Tables II/III, and print
every table with the paper's numbers alongside.

This is the reproduction's one driver, behind EXPERIMENTS.md. ``--quick``
is the reduced-scale pass: 10 workers for Tables II/III, 5 for Table IV
and the skew report at 50 % MST only.

Usage: ``spark-submit jobs/run_all_tables.py [--quick]``
"""
from __future__ import annotations

import argparse
import time

import _session  # noqa: F401  (path bootstrap)

from repro.core.features import matches_paper_table1, render_table1
from repro.core.harness import spark_session, sweep
from repro.core.tables import (
    fig7_frame,
    render,
    skew_configs,
    skew_frame,
    table23_configs,
    table2_frame,
    table3_frame,
    table4_configs,
    table4_frame,
)


def main() -> None:
    parser = argparse.ArgumentParser(
        description="Print Tables I-IV and the figure-shaped reports.")
    parser.add_argument("--quick", action="store_true", help="reduced-scale pass")
    quick = parser.parse_args().quick
    spark = spark_session("run-all-tables")
    t0 = time.time()

    print(render_table1())
    print(f"Table I matches paper: {matches_paper_table1()}\n")

    workers = (10,) if quick else (10, 50)
    cfgs23 = table23_configs(workers=workers)
    m23 = sweep(cfgs23, spark)
    print(render(table2_frame(spark, m23), "Table II — message overhead ratio"))
    print(render(table3_frame(spark, m23), "Table III — total / invalid checkpoints"))
    print(f"[t23 done at {time.time()-t0:.0f}s]")

    cfgs4 = table4_configs(workers=(5,) if quick else (5, 10))
    m4 = sweep(cfgs4, spark)
    print(render(table4_frame(m4), "Table IV — cyclic query (CT/RT/IC)"))
    print(f"[t4 done at {time.time()-t0:.0f}s]")

    # every sweep row carries its cell's MST; fig7_frame normalises it by
    # the checkpoint-free MST probe of the same (query, workers), probed
    # on the executors
    print(render(fig7_frame(m23, spark).drop(columns="mst"), "Fig. 7 shape — normalized MST"))
    print(f"[mst done at {time.time()-t0:.0f}s]")

    for frac in ((0.5,) if quick else (0.5, 0.8)):
        cfgs_skew = skew_configs(mst_fraction=frac)
        ms = sweep(cfgs_skew, spark)
        print(render(skew_frame(ms),
                     f"Fig. 12 shape — skewed NexMark at {int(frac*100)}% MST"))

    # figure-shaped extras from the shared grid: restart & recovery times
    cols = ["query", "workers", "protocol", "restart_time", "recovery_time",
            "n_replay", "avg_ckpt_time", "mst", "rate"]
    print(render(
        m23[cols].round(4)
        .sort_values(["workers", "query", "protocol"]),
        "Fig. 8/11 shape — checkpoint/restart/recovery times (uniform runs)",
    ))
    print(f"[all done at {time.time()-t0:.0f}s]")
    spark.stop()


if __name__ == "__main__":
    main()
