"""The benchmark's fixed paper cells.

Each workload is one cell of the paper's grid: a query, a protocol, a
parallelism and an input rate given as a fraction of the MST that the
saturation probe measures (paper §VII-A). Only the workload seed
(``ExperimentConfig.seed``) varies between runs, and only over the seeds
whose golden outputs are stored in ``goldens.json``.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

#: workload seeds with recorded golden outputs. The benchmark's ``--seed n``
#: selects ``SEEDS[n % len(SEEDS)]``: outputs can only be checked against
#: goldens recorded beforehand. 7 is ``ExperimentConfig``'s default seed and
#: 11 the held-out seed.
SEEDS = (7, 11, 19, 23)


@dataclass(frozen=True)
class Workload:
    query: str
    protocol: str
    workers: int
    mst_fraction: float
    fail_at: Optional[float]
    hot_ratio: float = 0.0
    duration: float = 60.0
    why: str = ""

    def config(self, rate: float, seed: int, protocol: Optional[str] = None):
        """The ``ExperimentConfig`` of this cell at an absolute ``rate``.
        ``protocol`` overrides the cell's protocol (failure-free reference
        runs use ``"none"`` at the same rate and seed)."""
        from repro.core.config import ExperimentConfig

        protocol = protocol or self.protocol
        return ExperimentConfig(
            query=self.query,
            protocol=protocol,
            workers=self.workers,
            rate=rate,
            duration=self.duration,
            fail_at=None if protocol == "none" else self.fail_at,
            hot_ratio=self.hot_ratio,
            seed=seed,
        )


WORKLOADS = {
    "q3-unc-w50": Workload(
        "q3", "UNC", 50, 0.8, 18.0,
        why="paper-scale Q3 join under UNC at 50 workers: large set-up, "
        "memory, message log and recovery-line search",
    ),
    "q8-coor-skew": Workload(
        "q8", "COOR", 10, 0.5, None, hot_ratio=0.3,
        why="Fig. 12 skew cell: snapshot copies and marker alignment, "
        "no message log and no recovery",
    ),
    "q1-cic-w10": Workload(
        "q1", "CIC", 10, 0.8, 18.0,
        why="stateless Q1 under CIC: most messages per second and a "
        "piggyback on each, no state copies",
    ),
    "cyclic-cic-w10": Workload(
        "cyclic", "CIC", 10, 0.775, 48.0,
        why="Table IV cyclic reachability under CIC: operator compute "
        "dominates, the only cyclic topology",
    ),
}


def workload_seed(seed: int) -> int:
    return SEEDS[seed % len(SEEDS)]


#: workloads the self-test uses and the benchmark does not offer: COOR
#: raises ``UnsupportedTopologyError`` on the cyclic graph.
SELF_TEST = {
    "selftest-cyclic-coor": Workload("cyclic", "COOR", 2, 0.5, None, duration=1.0),
}


def lookup(name: str) -> Workload:
    return WORKLOADS[name] if name in WORKLOADS else SELF_TEST[name]
