"""The canonical replica-state digest."""

from __future__ import annotations

import hashlib

__all__ = ["state_hash"]

_MASK = 0xFFFFFFFFFFFFFFFF


def state_hash(kv: dict[str, bytes], commit_idx: int, exec_idx: int) -> int:
    """64-bit BLAKE2b digest of (kv, commit_idx, exec_idx) over a canonical
    encoding: keys sorted, every field length-prefixed, indices big-endian
    u64."""
    h = hashlib.blake2b(digest_size=8)
    for key in sorted(kv):
        kb = key.encode()
        h.update(len(kb).to_bytes(4, "big"))
        h.update(kb)
        vb = kv[key]
        h.update(len(vb).to_bytes(4, "big"))
        h.update(vb)
    h.update((commit_idx & _MASK).to_bytes(8, "big"))
    h.update((exec_idx & _MASK).to_bytes(8, "big"))
    return int.from_bytes(h.digest(), "big")
