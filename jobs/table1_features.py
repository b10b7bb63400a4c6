"""Reproduce paper Table I: the protocols' qualitative feature matrix.

Usage: ``spark-submit jobs/table1_features.py`` (or plain python).
"""
from __future__ import annotations

import _session  # noqa: F401  (path bootstrap)

from repro.core.features import matches_paper_table1, render_table1


def main() -> None:
    print(render_table1())
    print(f"\nmatches paper Table I: {matches_paper_table1()}")


if __name__ == "__main__":
    main()
