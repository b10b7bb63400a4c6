"""Normalized maximum-sustainable-throughput report (paper Fig. 7 shape).

MST per (query, protocol, workers) normalised by the checkpoint-free MST.
Expected shape: COOR ~= 1.0, UNC slightly below, CIC clearly below and
degrading with parallelism.

Usage: ``spark-submit jobs/mst_report.py [--quick]``
"""
from __future__ import annotations

import sys

import pandas as pd

import _session  # noqa: F401  (path bootstrap)

from repro.core.mst import measure_mst


def main() -> None:
    quick = "--quick" in sys.argv
    workers = (10,) if quick else (10, 50)
    queries = ("q1", "q12") if quick else ("q1", "q3", "q8", "q12")
    rows = []
    for w in workers:
        for q in queries:
            base = measure_mst(q, "none", w)
            for p in ["COOR", "UNC", "CIC"]:
                rows.append(
                    dict(
                        query=q,
                        workers=w,
                        protocol=p,
                        mst=round(measure_mst(q, p, w), 1),
                        normalized=round(measure_mst(q, p, w) / base, 3),
                    )
                )
    print(pd.DataFrame(rows).to_string(index=False))


if __name__ == "__main__":
    main()
