"""The GF(256) kernel: matrix times shard-matrix product, in numpy."""

from __future__ import annotations

from functools import cache

import numpy as np

from ._tables import MUL


@cache
def pair_table(coef: int) -> np.ndarray:
    """Multiplication by coef applied to two bytes at once: a read-only
    65,536-entry uint16 table with T[hi << 8 | lo] = MUL[coef][hi] << 8 |
    MUL[coef][lo] (128 KiB). Each byte keeps its position, so the table is
    right for a uint16 view of byte pairs under either byte order."""
    row = MUL[coef].astype(np.uint16)
    table = ((row[:, None] << 8) | row[None, :]).reshape(-1)
    table.flags.writeable = False
    return table


def gf_matmul(m: np.ndarray, s: np.ndarray) -> np.ndarray:
    """out[i] = XOR_j  m[i,j] * s[j]  over GF(256).

    m: (r, k) uint8 coefficients; s: (k, L) uint8 shard rows; returns (r, L).
    Shard rows are read as uint16 byte pairs (an odd width gets one zero
    column, sliced off again), and each term is one gather from the pair
    table of its coefficient.
    """
    r, k = m.shape
    length = s.shape[1]
    if length == 0:
        return np.zeros((r, 0), dtype=np.uint8)
    if length & 1:
        even = np.zeros((k, length + 1), dtype=np.uint8)
        even[:, :length] = s
    else:
        even = np.ascontiguousarray(s)
    # take() casts its indices to intp; doing it once here serves every row
    idx = even.view(np.uint16).astype(np.intp)
    out = np.zeros((r, idx.shape[1]), dtype=np.uint16)
    tmp = np.empty(idx.shape[1], dtype=np.uint16)
    for i, row in enumerate(m.tolist()):
        acc = out[i]
        for j, coef in enumerate(row):
            if coef:
                # every index is below 65,536, so "wrap" never wraps; it only
                # skips the bounds check that "raise" makes
                pair_table(coef).take(idx[j], out=tmp, mode="wrap")
                acc ^= tmp
    return out.view(np.uint8)[:, :length]
