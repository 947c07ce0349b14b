"""Shard-to-server assignment policies and their bitmap wire form.

A slot proposed at c shards per server uses `slot_policy(params, c)`. At
c >= d that is full copies: every server takes the d data stripes, which are
slices of the value, so no server codes or decodes. Below d it is balanced
round-robin, which gives server s the c consecutive shards starting at its
own index (mod n). Unbalanced policies carry arbitrary per-server sets over a
possibly wider coding scheme.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .erasure import CodingScheme

__all__ = [
    "AssignmentPolicy",
    "ClusterParams",
    "InvalidParameterError",
    "MalformedBitmapError",
    "balanced_rr",
    "decode_bitmap",
    "encode_bitmap",
    "slot_policy",
    "unbalanced",
]


class InvalidParameterError(ValueError):
    pass


class MalformedBitmapError(ValueError):
    pass


@dataclass(frozen=True)
class ClusterParams:
    """Cluster-wide constants: n servers, majority m, tolerated failures f,
    and the default (n, m) coding scheme."""

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
    for persisting; n_shards is the codeword width the indices refer to."""

    per_server: tuple[frozenset[int], ...]
    n_shards: int

    @property
    def n_servers(self) -> int:
        return len(self.per_server)

    def shards_of(self, server: int) -> frozenset[int]:
        return self.per_server[server]


def balanced_rr(params: ClusterParams, c: int) -> AssignmentPolicy:
    """Round-robin policy: server s takes shards {s, s+1, ..., s+c-1} mod n.
    Slots use it below c = d (see slot_policy)."""
    if not 1 <= c <= params.m:
        raise InvalidParameterError(f"c={c} outside [1, {params.m}]")
    n = params.n
    per = tuple(
        frozenset((s + k) % n for k in range(c)) for s in range(n)
    )
    return AssignmentPolicy(per_server=per, n_shards=params.scheme.n_shards)


@lru_cache(maxsize=64)
def slot_policy(params: ClusterParams, c: int) -> tuple[AssignmentPolicy, bytes]:
    """The policy of a slot proposed at c shards per server, with its bitmap.

    At c >= d every server takes data stripes 0..d-1: each holds a full
    copy, rebuilt by concatenation. That is d shards per server, as
    balanced_rr gives at c = d, so at c = d an Accept's size does not depend
    on which of the two a slot uses. Memoized: the result is frozen and
    shared."""
    d = params.scheme.d
    if c < d:
        policy = balanced_rr(params, c)
    elif c <= params.m:
        policy = AssignmentPolicy(
            per_server=tuple(frozenset(range(d)) for _ in range(params.n)),
            n_shards=params.scheme.n_shards,
        )
    else:
        raise InvalidParameterError(f"c={c} outside [1, {params.m}]")
    return policy, encode_bitmap(policy)


def unbalanced(per_server: list[set[int]], scheme: CodingScheme) -> AssignmentPolicy:
    """Arbitrary per-server shard sets over an explicitly supplied scheme."""
    for s, shard_set in enumerate(per_server):
        for idx in shard_set:
            if not 0 <= idx < scheme.n_shards:
                raise InvalidParameterError(
                    f"server {s} references shard {idx} outside scheme width {scheme.n_shards}"
                )
    return AssignmentPolicy(
        per_server=tuple(frozenset(s) for s in per_server),
        n_shards=scheme.n_shards,
    )


def encode_bitmap(policy: AssignmentPolicy) -> bytes:
    """Row-major bitmap: one row of ceil(n_shards/8) bytes per server; bit j
    of row s (most significant bit first) set iff shard j is assigned to
    server s."""
    row_bytes = (policy.n_shards + 7) // 8
    out = bytearray(policy.n_servers * row_bytes)
    for s, shard_set in enumerate(policy.per_server):
        base = s * row_bytes
        for j in shard_set:
            out[base + j // 8] |= 0x80 >> (j % 8)
    return bytes(out)


@lru_cache(maxsize=256)
def decode_bitmap(data: bytes, n_servers: int, n_shards: int) -> AssignmentPolicy:
    """Inverse of encode_bitmap. Memoized: a cluster sends only a handful of
    distinct bitmaps, and the returned policy is frozen, so it is shared."""
    row_bytes = (n_shards + 7) // 8
    if len(data) != n_servers * row_bytes:
        raise MalformedBitmapError(
            f"bitmap is {len(data)} bytes, expected {n_servers * row_bytes}"
        )
    per = []
    for s in range(n_servers):
        base = s * row_bytes
        shard_set = set()
        for j in range(n_shards):
            if data[base + j // 8] & (0x80 >> (j % 8)):
                shard_set.add(j)
        per.append(frozenset(shard_set))
    # stray bits past n_shards in the last byte of a row are not tolerated
    for s in range(n_servers):
        base = s * row_bytes
        for j in range(n_shards, row_bytes * 8):
            if data[base + j // 8] & (0x80 >> (j % 8)):
                raise MalformedBitmapError(f"row {s} sets bit {j} past shard width")
    return AssignmentPolicy(per_server=tuple(per), n_shards=n_shards)
