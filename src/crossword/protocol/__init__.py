"""Replica state machine, message wire formats, and state hashing."""

from .hashing import state_hash
from .replica import Replica, ReplicaConfig
from . import wire

__all__ = ["Replica", "ReplicaConfig", "state_hash", "wire"]
