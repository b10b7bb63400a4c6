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
from repro.core.tables import PROTOCOLS, fig7_frame


def main() -> None:
    quick = "--quick" in sys.argv
    workers = (10,) if quick else (10, 50)
    queries = ("q1", "q12") if quick else ("q1", "q3", "q8", "q12")
    msts = pd.DataFrame(
        [
            dict(query=q, workers=w, protocol=p, mst=measure_mst(q, p, w))
            for w in workers
            for q in queries
            for p in PROTOCOLS
        ]
    )
    out = fig7_frame(msts)
    out["mst"] = [round(m, 1) for m in out.mst]
    print(out.to_string(index=False))


if __name__ == "__main__":
    main()
