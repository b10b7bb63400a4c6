"""Table I — qualitative feature matrix of the three protocols.

Derived from the protocol classes' ``features`` flags so the table can
never drift from the implementation; the test suite asserts it equals the
paper's Table I.
"""
from __future__ import annotations

import pandas as pd

from repro.protocols import CICProtocol, CoordinatedProtocol, UncoordinatedProtocol

FEATURE_LABELS = {
    "blocking_markers": "Blocking (markers)",
    "inflight_logging": "In-flight Logging",
    "dedup_required": "Deduplication Required",
    "message_overhead": "Message Overhead",
    "independent_checkpoints": "Independent Checkpoints",
    "straggler_stalls": "Straggler Stalls",
    "unused_checkpoints": "Unused Checkpoints",
    "forced_checkpoints": "Forced Checkpoints",
}
FEATURE_ORDER = list(FEATURE_LABELS)

#: Paper Table I (● = has the property, — = does not)
PAPER_TABLE1 = {
    "Coordinated": {
        "blocking_markers": True,
        "inflight_logging": False,
        "dedup_required": False,
        "message_overhead": False,
        "independent_checkpoints": False,
        "straggler_stalls": True,
        "unused_checkpoints": False,
        "forced_checkpoints": False,
    },
    "Uncoordinated": {
        "blocking_markers": False,
        "inflight_logging": True,
        "dedup_required": True,
        "message_overhead": False,
        "independent_checkpoints": True,
        "straggler_stalls": False,
        "unused_checkpoints": True,
        "forced_checkpoints": False,
    },
    "Communication-induced": {
        "blocking_markers": False,
        "inflight_logging": True,
        "dedup_required": True,
        "message_overhead": True,
        "independent_checkpoints": True,
        "straggler_stalls": False,
        "unused_checkpoints": True,
        "forced_checkpoints": True,
    },
}

_IMPLS = {
    "Coordinated": CoordinatedProtocol,
    "Uncoordinated": UncoordinatedProtocol,
    "Communication-induced": CICProtocol,
}


def feature_matrix() -> pd.DataFrame:
    """The implemented protocols' feature matrix (rows = protocols)."""
    rows = {
        name: {f: bool(cls.features[f]) for f in FEATURE_ORDER}
        for name, cls in _IMPLS.items()
    }
    return pd.DataFrame.from_dict(rows, orient="index")[FEATURE_ORDER]


def matches_paper_table1() -> bool:
    """Whether :func:`feature_matrix` equals ``PAPER_TABLE1`` flag by flag."""
    ours = feature_matrix()
    return all(
        bool(ours.loc[name, f]) == v for name, flags in PAPER_TABLE1.items() for f, v in flags.items()
    )


def render_table1() -> str:
    df = feature_matrix()
    out = df.replace({True: "●", False: "—"})
    out.columns = [FEATURE_LABELS[c] for c in out.columns]
    return out.to_string()
