"""Replica state machine, message wire formats, and state hashing."""

from .hashing import state_hash
from .replica import FollowerReadSpec, GossipSpec, HeartbeatSpec, LeaseSpec, Replica, ReplicaConfig
from . import wire

__all__ = [
    "FollowerReadSpec", "GossipSpec", "HeartbeatSpec", "LeaseSpec", "Replica",
    "ReplicaConfig", "state_hash", "wire",
]
