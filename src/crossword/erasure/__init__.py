"""Systematic Reed-Solomon coding over GF(2^8).

A payload is striped into d data shards (zero-padded to a multiple of d) and
extended with p parity shards from a Cauchy-derived generator, so any d of
the n_shards = d + p shards reconstruct the payload exactly.

Every shard that stripes, encode or encode_shard returns is a `Shard`: bytes
that remember the payload they were cut or coded from, their scheme and
their index. Bytes are immutable, so such a shard equals shard `index` of
encode(source, scheme) for as long as it lives, and any d of them carry
exactly `source`. source_of reads that record back: when at least d shards,
each at its own index, all come from one payload object, it returns that
object, and a holder needs no GF decode and keeps no copy of its own.
reconstruct is the GF decode itself and never looks at the record. Shards
parsed off the wire are plain bytes and carry none.

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
    "Shard",
    "ShardMismatchError",
    "encode",
    "encode_shard",
    "reconstruct",
    "shard_len",
    "source_of",
    "stripes",
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


class Shard(bytes):
    """Shard `index` of `source` under `scheme`, as bytes. stripes, encode and
    encode_shard make them; the source is a bytes object, so neither can
    change. A Shard built any other way carries no source (the class
    defaults), and source_of never takes it."""

    source: bytes | None = None
    scheme: CodingScheme | None = None
    index: int = -1


def _shard(buf, source: bytes, scheme: CodingScheme, index: int) -> Shard:
    """A Shard of buf's bytes (a memoryview slice or a numpy row, copied
    once). The leader tags every shard of every slot, and building the
    instance dict whole is cheaper than a Python `__new__` that stores
    three attributes."""
    shard = Shard(buf)
    shard.__dict__ = {"source": source, "scheme": scheme, "index": index}
    return shard


def shard_len(payload_len: int, scheme: CodingScheme) -> int:
    return -(-payload_len // scheme.d)


def _stripe(payload: bytes, view: memoryview, scheme: CodingScheme, slen: int, i: int) -> Shard:
    chunk = view[i * slen : (i + 1) * slen]
    if len(chunk) < slen:  # the zero-padded tail
        chunk = b"".join((chunk, bytes(slen - len(chunk))))
    return _shard(chunk, payload, scheme, i)


def stripes(payload: bytes, scheme: CodingScheme) -> tuple[Shard, ...]:
    """The d data shards of payload: ceil(len/d)-byte slices, zero-padded
    at the end. Concatenated they equal the padded payload (systematic)."""
    slen = shard_len(len(payload), scheme)
    view = memoryview(payload)
    return tuple([_stripe(payload, view, scheme, slen, i) for i in range(scheme.d)])


def source_of(present: dict[int, bytes], scheme: CodingScheme, payload_len: int) -> bytes | None:
    """The payload that `present` carries, when the shards say so themselves:
    at least d shards, every one a Shard of the same source object (compared
    by identity), under this scheme, keyed by its own index, and the source
    is payload_len long. Then reconstruct(present, scheme, payload_len)
    would return bytes equal to it. Otherwise None, and the caller decodes."""
    if len(present) < scheme.d:
        return None
    source = None
    for idx, blob in present.items():
        if type(blob) is not Shard or blob.index != idx:
            return None
        if blob.scheme is not scheme and blob.scheme != scheme:
            return None
        if source is None:
            source = blob.source
        elif blob.source is not source:
            return None
    return source if len(source) == payload_len else None


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


def _data_matrix(payload: bytes, scheme: CodingScheme, slen: int) -> np.ndarray:
    """The zero-padded payload as a (d, slen) array, the input of parity."""
    data = np.zeros((scheme.d, slen), dtype=np.uint8)
    if slen:
        data.reshape(-1)[: len(payload)] = np.frombuffer(payload, dtype=np.uint8)
    return data


def encode(payload: bytes, scheme: CodingScheme) -> Codeword:
    """The d data stripes of payload (see stripes) followed by p parity
    shards."""
    shards = stripes(payload, scheme)
    if scheme.p:
        data = _data_matrix(payload, scheme, shard_len(len(payload), scheme))
        parity = gf_matmul(_parity_matrix(scheme), data)
        shards += tuple(
            _shard(parity[i], payload, scheme, scheme.d + i) for i in range(scheme.p)
        )
    return Codeword(scheme, shards, len(payload))


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


def encode_shard(payload: bytes, scheme: CodingScheme, index: int) -> Shard:
    """Single shard of encode(payload, scheme) without materializing the rest
    of the parity block. Used when answering reconstruction reads from an
    already-decoded value."""
    slen = shard_len(len(payload), scheme)
    if index < scheme.d:
        return _stripe(payload, memoryview(payload), scheme, slen, index)
    data = _data_matrix(payload, scheme, slen)
    row = index - scheme.d
    parity = gf_matmul(_parity_matrix(scheme)[row : row + 1], data)
    return _shard(parity[0], payload, scheme, index)
