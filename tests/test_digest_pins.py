"""Bit-identity pins for four small end-to-end cells.

Each cell goes through ``config.build`` -> ``Simulation.run`` ->
``harness.metrics_row`` and is reduced to crc32 digests of the metrics
row, the deduplicated sink output and the final state fingerprints, in
canonical (sorted) text. A change that only makes the simulator cheaper
must leave all three identical; a change that sets out to alter results
re-records the constants and says so.

- cyclic reachability under CIC with the deletion mix and a failure:
  source deletes, link deletes, snapshots and a restore;
- Q8 under COOR with a hot key (``hot_ratio=0.3``) and a failure:
  window-join snapshots at aligned rounds and a restore of the last round;
- Q1 under CIC with a failure: source cursors rewound and re-scheduled at
  resume, piggybacks and forced checkpoints;
- Q3 under UNC with a failure: recovery-line search, replay of logged
  in-flight messages and resume.
"""
import json
import zlib

import pytest

from repro.core import config, harness
from repro.core.config import ExperimentConfig

CELLS = {
    "cyclic-cic-del": ExperimentConfig(
        query="cyclic", protocol="CIC", workers=3, rate=200.0, duration=10.0,
        fail_at=6.0, n_nodes=1000, deletions=True, seed=7,
    ),
    "q8-coor-hot": ExperimentConfig(
        query="q8", protocol="COOR", workers=3, rate=1000.0, duration=10.0,
        fail_at=6.0, hot_ratio=0.3, seed=7,
    ),
    "q1-cic-fail": ExperimentConfig(
        query="q1", protocol="CIC", workers=3, rate=1000.0, duration=10.0,
        fail_at=6.0, seed=7,
    ),
    "q3-unc-fail": ExperimentConfig(
        query="q3", protocol="UNC", workers=3, rate=1000.0, duration=10.0,
        fail_at=6.0, seed=7,
    ),
}

#: (metrics row, sink, state) digests
PINS = {
    "cyclic-cic-del": ("3accf8d0", "d21d4560", "fec2beef"),
    "q8-coor-hot": ("b78b00b7", "09f13be3", "9900817d"),
    "q1-cic-fail": ("ee3ef819", "e4ab2665", "00000000"),
    "q3-unc-fail": ("b50228fd", "295a7298", "01d073a7"),
}

#: the MST passed to ``metrics_row``; it only feeds the row's ``mst`` column
MST = 1000.0


def _crc(text: str) -> str:
    return f"{zlib.crc32(text.encode()):08x}"


def digests(cfg: ExperimentConfig):
    res = config.build(cfg).run(cfg.duration, fail_at=cfg.fail_at)
    row = harness.metrics_row(cfg, res, MST)
    sink = "\n".join(
        f"{name}\t{uid}\t{values[uid]!r}"
        for name, values in sorted(res.sink_results.items())
        for uid in sorted(values)
    )
    state = "\n".join(f"{inst!r}\t{fp!r}" for inst, fp in sorted(res.state_fingerprints.items()))
    return _crc(json.dumps(row, sort_keys=True)), _crc(sink), _crc(state)


@pytest.mark.parametrize("cell", sorted(CELLS))
def test_outputs_match_pinned_digests(cell):
    assert digests(CELLS[cell]) == PINS[cell]
