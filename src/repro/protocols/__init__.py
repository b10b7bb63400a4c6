"""Checkpointing protocols under evaluation (paper §III)."""
from .base import NoneProtocol, Protocol, RecoveryPlan, UnsupportedTopologyError
from .cic import CICProtocol
from .coordinated import CoordinatedProtocol
from .uncoordinated import UncoordinatedProtocol

__all__ = [
    "Protocol",
    "NoneProtocol",
    "CoordinatedProtocol",
    "UncoordinatedProtocol",
    "CICProtocol",
    "RecoveryPlan",
    "UnsupportedTopologyError",
]
