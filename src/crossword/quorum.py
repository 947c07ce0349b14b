"""Acceptance-pattern algebra and the commit rule.

An acceptance pattern maps each replying server to the shard set it has made
durable for one log slot. A slot may commit once a majority has replied (for
ballot safety) and any f further failures leave d distinct shards
(`subcover`). Under the layouts `slot_policy` gives, that reduces to counting
q replies (`check_commit_rr`) for every (q, c) that `c4_valid` admits.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Mapping

from .assignment import ClusterParams

__all__ = [
    "AcceptancePattern",
    "Config",
    "c4_valid",
    "candidate_configs",
    "check_commit_rr",
    "cover",
    "multipaxos_config",
    "nodes",
    "rspaxos_config",
    "subcover",
]

AcceptancePattern = Mapping[int, frozenset[int]]


@dataclass(frozen=True)
class Config:
    """Per-instance choice: quorum size q and shards-per-follower c."""

    q: int
    c: int


def nodes(ap: AcceptancePattern) -> int:
    return len(ap)


def cover(ap: AcceptancePattern) -> int:
    seen: set[int] = set()
    for shard_set in ap.values():
        seen |= shard_set
    return len(seen)


def subcover(ap: AcceptancePattern, f: int) -> int:
    """Worst-case distinct-shard count after removing any f replies.

    Brute force over all (nodes-f)-subsets; exponential, meant for small n
    and for checking the closed forms.
    """
    if f <= 0:
        return cover(ap)
    keep = len(ap) - f
    if keep <= 0:
        return 0
    best = None
    for subset in combinations(sorted(ap), keep):
        got = len(frozenset().union(*(ap[s] for s in subset)))
        if best is None or got < best:
            best = got
    return best


def check_commit_rr(config: Config, nodes_replied: int) -> bool:
    """Balanced round-robin fast path: the pattern shape is fixed by c, so
    counting replies suffices. Config validity is enforced at construction,
    not here."""
    return nodes_replied >= config.q


def c4_valid(config: Config, params: ClusterParams) -> bool:
    """Availability-safe region at f = n - m: n >= q >= m and q + c >= n + 1."""
    return (
        params.m <= config.q <= params.n
        and config.q + config.c >= params.n + 1
    )


def candidate_configs(params: ClusterParams) -> list[Config]:
    """The boundary line q + c = n + 1, ordered by ascending q. Every point
    trades quorum size against shards per follower at equal safety."""
    return [Config(q=q, c=params.n + 1 - q) for q in range(params.m, params.n + 1)]


def multipaxos_config(params: ClusterParams) -> Config:
    return Config(q=params.m, c=params.m)


def rspaxos_config(params: ClusterParams) -> Config:
    p = params.scheme.p
    return Config(q=params.m + (p + 1) // 2, c=1)
