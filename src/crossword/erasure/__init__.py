"""Systematic Reed-Solomon coding over GF(2^8).

A payload is striped into d data shards (zero-padded to a multiple of d) and
extended with p parity shards from a Cauchy-derived generator, so any d of
the n_shards = d + p shards reconstruct the payload exactly.

encode, reconstruct and encode_shard look gf_matmul up in this module at
call time, so a wrapper set on `crossword.erasure.gf_matmul` sees every
product.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ._gfpure import gf_matmul
from ._tables import cauchy_parity_rows, generator_row, gf_matinv

__all__ = [
    "CodingScheme",
    "Codeword",
    "InsufficientShardsError",
    "InvalidSchemeError",
    "ShardMismatchError",
    "encode",
    "reconstruct",
    "shard_len",
]


class InvalidSchemeError(ValueError):
    """Scheme parameters out of range (d < 1, p < 0, or width mismatch)."""


class InsufficientShardsError(Exception):
    """Fewer than d distinct shards available for reconstruction."""


class ShardMismatchError(ValueError):
    """Shard indices or lengths inconsistent with the scheme."""


@dataclass(frozen=True)
class CodingScheme:
    """(n_shards, d)-coding: d data shards, p = n_shards - d parity shards."""

    n_shards: int
    d: int
    p: int = field(default=-1)

    def __post_init__(self):
        if self.p == -1:
            object.__setattr__(self, "p", self.n_shards - self.d)
        if self.d < 1:
            raise InvalidSchemeError("d must be >= 1")
        if self.p < 0:
            raise InvalidSchemeError("p must be >= 0")
        if self.n_shards != self.d + self.p:
            raise InvalidSchemeError("n_shards must equal d + p")
        if self.n_shards > 256:
            raise InvalidSchemeError("n_shards exceeds field size")


@dataclass(frozen=True)
class Codeword:
    """All n_shards shards of one encoded payload, in index order."""

    scheme: CodingScheme
    shards: tuple[bytes, ...]
    payload_len: int


def shard_len(payload_len: int, scheme: CodingScheme) -> int:
    return -(-payload_len // scheme.d)


_PARITY_CACHE: dict[tuple[int, int], np.ndarray] = {}


def _parity_matrix(scheme: CodingScheme) -> np.ndarray:
    key = (scheme.d, scheme.p)
    if key not in _PARITY_CACHE:
        _PARITY_CACHE[key] = cauchy_parity_rows(scheme.d, scheme.p)
    return _PARITY_CACHE[key]


_DECODE_CACHE: dict[tuple[int, tuple[int, ...], tuple[int, ...]], np.ndarray] = {}


def _decode_rows(d: int, use: tuple[int, ...], missing: tuple[int, ...]) -> np.ndarray:
    """Rows of the inverse of the generator rows `use` that rebuild the
    `missing` data shards, computed once per shard pattern. The cached array
    is read-only because every later reconstruct with that pattern shares it."""
    key = (d, use, missing)
    coeffs = _DECODE_CACHE.get(key)
    if coeffs is None:
        inv = gf_matinv([generator_row(d, i) for i in use])
        coeffs = np.array([inv[i] for i in missing], dtype=np.uint8)
        coeffs.flags.writeable = False
        _DECODE_CACHE[key] = coeffs
    return coeffs


def encode(payload: bytes, scheme: CodingScheme) -> Codeword:
    """Split payload into d stripes of ceil(len/d) bytes (zero-padded) and
    append p parity shards. Shards 0..d-1 concatenated equal the padded
    payload (systematic)."""
    slen = shard_len(len(payload), scheme)
    data = np.zeros((scheme.d, slen), dtype=np.uint8)
    flat = np.frombuffer(payload, dtype=np.uint8)
    if slen:
        padded = data.reshape(-1)
        padded[: len(payload)] = flat
    shards = [data[i].tobytes() for i in range(scheme.d)]
    if scheme.p:
        parity = gf_matmul(_parity_matrix(scheme), data)
        shards.extend(parity[i].tobytes() for i in range(scheme.p))
    return Codeword(scheme, tuple(shards), len(payload))


def reconstruct(present: dict[int, bytes], scheme: CodingScheme, payload_len: int) -> bytes:
    """Rebuild the payload from any d of the n shards.

    present maps shard index -> shard bytes. Raises InsufficientShardsError
    when fewer than d distinct indices are supplied, ShardMismatchError on
    bad indices or lengths.
    """
    slen = shard_len(payload_len, scheme)
    for idx, blob in present.items():
        if not 0 <= idx < scheme.n_shards:
            raise ShardMismatchError(f"shard index {idx} outside scheme width")
        if len(blob) != slen:
            raise ShardMismatchError(
                f"shard {idx} has {len(blob)} bytes, expected {slen}"
            )
    if len(present) < scheme.d:
        raise InsufficientShardsError(
            f"{len(present)} shards present, need {scheme.d}"
        )

    # data shards first: if all of 0..d-1 are present this is pure striping
    chosen = sorted(present)
    data_idx = [i for i in chosen if i < scheme.d]
    missing = [i for i in range(scheme.d) if i not in present]
    if not missing:
        padded = b"".join(present[i] for i in range(scheme.d))
        return padded[:payload_len]

    use = (data_idx + [i for i in chosen if i >= scheme.d])[: scheme.d]
    coeffs = _decode_rows(scheme.d, tuple(use), tuple(missing))
    stacked = np.frombuffer(b"".join(present[i] for i in use), dtype=np.uint8)
    stacked = stacked.reshape(scheme.d, slen) if slen else stacked.reshape(scheme.d, 0)
    recovered = gf_matmul(coeffs, stacked)

    rows: list[bytes] = []
    rec_at = {m: k for k, m in enumerate(missing)}
    for i in range(scheme.d):
        if i in rec_at:
            rows.append(recovered[rec_at[i]].tobytes())
        else:
            rows.append(present[i])
    return b"".join(rows)[:payload_len]


def encode_shard(payload: bytes, scheme: CodingScheme, index: int) -> bytes:
    """Single shard of encode(payload, scheme) without materializing the rest
    of the parity block. Used when answering reconstruction reads from an
    already-decoded value."""
    slen = shard_len(len(payload), scheme)
    if index < scheme.d:
        chunk = payload[index * slen : (index + 1) * slen]
        return chunk + b"\x00" * (slen - len(chunk))
    data = np.zeros((scheme.d, slen), dtype=np.uint8)
    if slen:
        data.reshape(-1)[: len(payload)] = np.frombuffer(payload, dtype=np.uint8)
    row = index - scheme.d
    return gf_matmul(_parity_matrix(scheme)[row : row + 1], data)[0].tobytes()
