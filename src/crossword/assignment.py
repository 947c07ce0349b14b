"""Cluster constants and the shard-to-server policy of a slot.

Every slot codes over the cluster's one scheme, `ClusterParams.scheme`, and
its shard layout follows from its c alone, through `slot_policy(params, c)`.
At c >= d that is full copies: every server takes the d data stripes, which
are slices of the value, so no server codes or decodes. Below d it is
balanced round-robin, which gives server s the c consecutive shards starting
at its own index (mod n). No message carries the layout: a receiver derives
it from the slot's c.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .erasure import CodingScheme

__all__ = [
    "AssignmentPolicy",
    "ClusterParams",
    "InvalidParameterError",
    "balanced_rr",
    "slot_policy",
]


class InvalidParameterError(ValueError):
    pass


@dataclass(frozen=True)
class ClusterParams:
    """Cluster-wide constants: n servers, majority m, tolerated failures f,
    and the (n, m) coding scheme every slot uses."""

    n: int
    m: int
    f: int
    scheme: CodingScheme

    def __post_init__(self):
        if self.n < 3 or self.n % 2 == 0:
            raise InvalidParameterError("n must be odd and >= 3")
        if self.m != (self.n + 1) // 2:
            raise InvalidParameterError("m must be ceil(n/2)")
        if not 0 <= self.f <= self.n - self.m:
            raise InvalidParameterError("f must lie in [0, n - m]")

    @classmethod
    def for_cluster(cls, n: int) -> "ClusterParams":
        m = (n + 1) // 2
        return cls(n=n, m=m, f=n - m, scheme=CodingScheme(n, m))


@dataclass(frozen=True)
class AssignmentPolicy:
    """per_server[s] is the set of shard indices server s is responsible
    for persisting, over the cluster's scheme."""

    per_server: tuple[frozenset[int], ...]

    def shards_of(self, server: int) -> frozenset[int]:
        return self.per_server[server]


def balanced_rr(params: ClusterParams, c: int) -> AssignmentPolicy:
    """Round-robin policy: server s takes shards {s, s+1, ..., s+c-1} mod n.
    Slots use it below c = d (see slot_policy)."""
    if not 1 <= c <= params.m:
        raise InvalidParameterError(f"c={c} outside [1, {params.m}]")
    n = params.n
    return AssignmentPolicy(
        per_server=tuple(frozenset((s + k) % n for k in range(c)) for s in range(n))
    )


@lru_cache(maxsize=64)
def slot_policy(params: ClusterParams, c: int) -> AssignmentPolicy:
    """The policy of a slot proposed at c shards per server.

    At c >= d every server takes data stripes 0..d-1: each holds a full
    copy, rebuilt by concatenation. That is d shards per server, as
    balanced_rr gives at c = d, so at c = d an Accept's size does not depend
    on which of the two a slot uses. Memoized: the result is frozen and
    shared."""
    d = params.scheme.d
    if c < d:
        return balanced_rr(params, c)
    if c <= params.m:
        return AssignmentPolicy(per_server=tuple(frozenset(range(d)) for _ in range(params.n)))
    raise InvalidParameterError(f"c={c} outside [1, {params.m}]")
