"""Coding-layer tests. The reconstruction oracle is exhaustive subset
enumeration; the field tables are checked against an independent bitwise
multiply. source_of, which reads a shard's record of its source, is checked
to hit on every d-subset of shards this process made and to miss whenever
the record does not prove the value."""

import itertools
import os
import pathlib
import random
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from crossword import erasure
from crossword.erasure import (
    CodingScheme,
    InsufficientShardsError,
    InvalidSchemeError,
    Shard,
    ShardMismatchError,
    encode,
    encode_shard,
    reconstruct,
    shard_len,
    source_of,
    stripes,
)
from crossword.erasure._gfpure import gf_matmul as matmul_python
from crossword.erasure._tables import MUL, generator_row, gf_matinv
from crossword.protocol import wire


def peasant_mul(a: int, b: int) -> int:
    # independent reference: shift-and-add multiply mod 0x11d
    out = 0
    while b:
        if b & 1:
            out ^= a
        b >>= 1
        a <<= 1
        if a & 0x100:
            a ^= 0x11D
    return out


def test_mul_table_matches_peasant_multiply():
    for a in range(256):
        row = MUL[a]
        for b in range(0, 256, 7):
            assert row[b] == peasant_mul(a, b)
    # spot-check the dense corners
    for a, b in [(255, 255), (2, 128), (0x53, 0xCA), (1, 99)]:
        assert MUL[a, b] == peasant_mul(a, b)


def test_scheme_validation():
    with pytest.raises(InvalidSchemeError):
        CodingScheme(3, 0)
    with pytest.raises(InvalidSchemeError):
        CodingScheme(2, 3)
    with pytest.raises(InvalidSchemeError):
        CodingScheme(5, 3, 1)
    s = CodingScheme(5, 3)
    assert (s.n_shards, s.d, s.p) == (5, 3, 2)


def test_pure_striping_when_no_parity():
    cw = encode(b"abcdef", CodingScheme(3, 3))
    assert cw.shards == (b"ab", b"cd", b"ef")


def test_shard_length_is_ceil_div():
    cw = encode(bytes(1024), CodingScheme(5, 3))
    assert all(len(sh) == 342 for sh in cw.shards)
    assert cw.payload_len == 1024


def test_systematic_prefix_equals_padded_payload():
    payload = bytes(random.Random(7).randbytes(100))
    cw = encode(payload, CodingScheme(5, 3))
    joined = b"".join(cw.shards[:3])
    assert joined[:100] == payload
    assert joined[100:] == b"\x00" * (len(joined) - 100)


def test_every_d_subset_reconstructs_exhaustively():
    rng = random.Random(11)
    s = CodingScheme(5, 3)
    for size in (1, 2, 3, 100, 1024):
        payload = rng.randbytes(size)
        cw = encode(payload, s)
        for subset in itertools.combinations(range(5), 3):
            present = {i: cw.shards[i] for i in subset}
            assert reconstruct(present, s, size) == payload
        for subset in itertools.combinations(range(5), 2):
            present = {i: cw.shards[i] for i in subset}
            with pytest.raises(InsufficientShardsError):
                reconstruct(present, s, size)


def test_parity_only_subset():
    s = CodingScheme(4, 2)
    payload = b"parity can stand alone"
    cw = encode(payload, s)
    assert reconstruct({2: cw.shards[2], 3: cw.shards[3]}, s, len(payload)) == payload


def test_empty_payload():
    s = CodingScheme(5, 3)
    cw = encode(b"", s)
    assert all(sh == b"" for sh in cw.shards)
    assert reconstruct({0: b"", 1: b"", 4: b""}, s, 0) == b""


def test_shard_mismatch_errors():
    s = CodingScheme(5, 3)
    cw = encode(b"x" * 30, s)
    with pytest.raises(ShardMismatchError):
        reconstruct({0: cw.shards[0], 1: cw.shards[1], 9: cw.shards[2]}, s, 30)
    with pytest.raises(ShardMismatchError):
        reconstruct({0: cw.shards[0], 1: cw.shards[1], 2: b"short"}, s, 30)


def test_every_d_submatrix_of_generator_invertible():
    # the property the Cauchy construction is chosen for
    for n, d in [(3, 2), (5, 3), (7, 4), (9, 5)]:
        for rows in itertools.combinations(range(n), d):
            mat = [generator_row(d, i) for i in rows]
            inv = gf_matinv(mat)
            assert len(inv) == d


def test_encode_shard_matches_full_encode():
    s = CodingScheme(5, 3)
    payload = random.Random(3).randbytes(500)
    cw = encode(payload, s)
    for i in range(5):
        assert encode_shard(payload, s, i) == cw.shards[i]


def matmul_reference(m: np.ndarray, s: np.ndarray) -> list[bytes]:
    """Scalar GF(256) product, one bytes object per output row: each shard
    byte goes through a peasant_mul table, and rows are XORed as integers."""
    width = s.shape[1]
    rows = []
    for coefs in m.tolist():
        acc = 0
        for coef, shard in zip(coefs, s):
            table = bytes(peasant_mul(coef, b) for b in range(256))
            acc ^= int.from_bytes(shard.tobytes().translate(table), "big")
        rows.append(acc.to_bytes(width, "big"))
    return rows


# "active" is the public name that encode and reconstruct call, "python" the
# kernel module's own function; they are one kernel, reached two ways
@pytest.mark.parametrize("kernel", [erasure.gf_matmul, matmul_python], ids=["active", "python"])
@pytest.mark.parametrize("width", [0, 1, 2, 63, 64, 65, 342, 43691])
def test_kernel_matches_scalar_reference(kernel, width):
    rng = np.random.default_rng(width)
    for r, k in ((1, 1), (2, 3), (3, 3), (2, 5)):
        m = rng.integers(0, 256, size=(r, k), dtype=np.uint8)
        m[0, 0] = 0
        if k == 5:
            m[1] = 0  # an all-zero row
        # read-only, as reconstruct passes it; with an odd width, rows 1..k-1
        # start at odd offsets
        blob = rng.integers(0, 256, size=k * width, dtype=np.uint8).tobytes()
        s = np.frombuffer(blob, dtype=np.uint8).reshape(k, width)
        got = kernel(m, s)
        assert got.shape == (r, width)
        assert [got[i].tobytes() for i in range(r)] == matmul_reference(m, s)


def test_decode_cache_cold_and_warm_agree():
    s = CodingScheme(5, 3)
    payload = random.Random(17).randbytes(131072)
    cw = encode(payload, s)
    subsets = list(itertools.combinations(range(5), 3))
    erasure._DECODE_CACHE.clear()
    cold = [reconstruct({i: cw.shards[i] for i in sub}, s, len(payload)) for sub in subsets]
    # one entry per subset that lacks a data shard: all but (0, 1, 2)
    assert len(erasure._DECODE_CACHE) == len(subsets) - 1
    warm = [reconstruct({i: cw.shards[i] for i in sub}, s, len(payload)) for sub in subsets]
    assert cold == warm == [payload] * len(subsets)
    assert not any(c.flags.writeable for c in erasure._DECODE_CACHE.values())


@given(
    payload=st.binary(min_size=0, max_size=4096),
    nd=st.sampled_from([(3, 2), (5, 3), (7, 4), (9, 5), (8, 5)]),
    data=st.data(),
)
@settings(max_examples=80)
def test_roundtrip_property(payload, nd, data):
    n, d = nd
    s = CodingScheme(n, d)
    cw = encode(payload, s)
    subset = data.draw(
        st.lists(st.integers(0, n - 1), min_size=d, max_size=n, unique=True)
    )
    present = {i: cw.shards[i] for i in subset}
    assert reconstruct(present, s, len(payload)) == payload


def test_bench_gf_script_runs():
    root = pathlib.Path(__file__).resolve().parent.parent
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    proc = subprocess.run(
        [sys.executable, str(root / "benchmarks" / "bench_gf.py"), "--repeat", "1"],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert "decode    1 MB worst" in proc.stdout


def _tagged_shard_sets(payload: bytes, s: CodingScheme):
    """The shards of payload as encode, stripes and encode_shard make them."""
    cw = encode(payload, s)
    yield dict(enumerate(cw.shards))
    yield dict(enumerate(stripes(payload, s)))
    yield {i: encode_shard(payload, s, i) for i in range(s.n_shards)}


@pytest.mark.parametrize("size", [0, 1, 2, 3, 100, 1024])
def test_source_of_returns_the_source_for_every_d_subset(size):
    s = CodingScheme(5, 3)
    payload = random.Random(size).randbytes(size)
    for shards in _tagged_shard_sets(payload, s):
        assert all(isinstance(sh, Shard) and sh.source is payload for sh in shards.values())
        for k in range(s.d, len(shards) + 1):
            for subset in itertools.combinations(sorted(shards), k):
                present = {i: shards[i] for i in subset}
                assert source_of(present, s, size) is payload
                assert reconstruct(present, s, size) == payload


def test_source_of_misses_below_d_shards():
    s = CodingScheme(5, 3)
    payload = b"x" * 100
    for shards in _tagged_shard_sets(payload, s):
        for subset in itertools.combinations(sorted(shards), 2):
            assert source_of({i: shards[i] for i in subset}, s, 100) is None
    assert source_of({}, s, 0) is None


def test_source_of_misses_a_shard_at_another_index():
    s = CodingScheme(5, 3)
    payload = random.Random(5).randbytes(90)
    cw = encode(payload, s)
    assert source_of({0: cw.shards[0], 1: cw.shards[1], 2: cw.shards[3]}, s, 90) is None
    assert source_of({0: cw.shards[1], 1: cw.shards[0], 2: cw.shards[2]}, s, 90) is None


def test_source_of_misses_shards_of_two_payloads():
    s = CodingScheme(5, 3)
    a = random.Random(6).randbytes(90)
    b = bytes(bytearray(a))  # equal bytes, another object: identity is the test
    assert a == b and a is not b
    ca, cb = encode(a, s), encode(b, s)
    assert source_of({0: ca.shards[0], 1: ca.shards[1], 3: cb.shards[3]}, s, 90) is None
    other = encode(random.Random(7).randbytes(90), s)
    assert source_of({0: ca.shards[0], 1: other.shards[1], 2: ca.shards[2]}, s, 90) is None


def test_source_of_misses_plain_bytes():
    s = CodingScheme(5, 3)
    payload = random.Random(8).randbytes(300)
    cw = encode(payload, s)
    assert source_of({0: cw.shards[0], 1: cw.shards[1], 2: bytes(cw.shards[2])}, s, 300) is None
    # a Shard built by hand carries no source
    assert source_of({0: cw.shards[0], 1: cw.shards[1], 2: Shard(cw.shards[2])}, s, 300) is None
    # shards parsed off the wire carry no source
    accept = wire.Accept(0, 4, 7, 5, 3, 300, 9, {i: cw.shards[i] for i in range(3)}, 1.0)
    parsed, _ = wire.decode(wire.encode(accept))
    assert parsed == accept
    assert not any(isinstance(sh, Shard) for sh in parsed.shards.values())
    assert source_of(parsed.shards, s, 300) is None
    assert reconstruct(parsed.shards, s, 300) == payload


def test_source_of_misses_another_scheme():
    payload = random.Random(9).randbytes(120)
    cw = encode(payload, CodingScheme(5, 3))
    present = {i: cw.shards[i] for i in range(3)}
    assert source_of(present, CodingScheme(5, 3), 120) is payload  # equal, not identical
    assert source_of(present, CodingScheme(4, 3), 120) is None
    assert source_of(present, CodingScheme(3, 3), 120) is None


def test_source_of_misses_another_payload_len():
    s = CodingScheme(5, 3)
    payload = random.Random(10).randbytes(100)
    present = {i: encode_shard(payload, s, i) for i in (1, 3, 4)}
    assert source_of(present, s, 100) is payload
    # 101 and 102 bytes give the same shard length as 100, so only the
    # length test tells them apart
    assert shard_len(101, s) == shard_len(102, s) == shard_len(100, s)
    for other in (99, 101, 102, 0):
        assert source_of(present, s, other) is None
