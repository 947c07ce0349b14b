import pytest
from hypothesis import given
from hypothesis import strategies as st

from crossword.assignment import (
    AssignmentPolicy,
    ClusterParams,
    InvalidParameterError,
    MalformedBitmapError,
    balanced_rr,
    decode_bitmap,
    encode_bitmap,
    slot_policy,
    unbalanced,
)
from crossword.erasure import CodingScheme


def test_cluster_params_factory():
    p = ClusterParams.for_cluster(5)
    assert (p.n, p.m, p.f) == (5, 3, 2)
    assert (p.scheme.n_shards, p.scheme.d, p.scheme.p) == (5, 3, 2)
    with pytest.raises(InvalidParameterError):
        ClusterParams.for_cluster(4)
    with pytest.raises(InvalidParameterError):
        ClusterParams.for_cluster(1)


def test_balanced_rr_c1():
    pol = balanced_rr(ClusterParams.for_cluster(5), 1)
    assert [sorted(s) for s in pol.per_server] == [[0], [1], [2], [3], [4]]


def test_balanced_rr_c2_wraps():
    pol = balanced_rr(ClusterParams.for_cluster(5), 2)
    assert sorted(pol.shards_of(4)) == [0, 4]
    assert sorted(pol.shards_of(0)) == [0, 1]


def test_balanced_rr_c3_majority():
    pol = balanced_rr(ClusterParams.for_cluster(5), 3)
    assert sorted(pol.shards_of(3)) == [0, 3, 4]
    # every shard appears on exactly c servers
    counts = {j: 0 for j in range(5)}
    for s in range(5):
        for j in pol.shards_of(s):
            counts[j] += 1
    assert all(v == 3 for v in counts.values())


def test_balanced_rr_c_range():
    params = ClusterParams.for_cluster(5)
    with pytest.raises(InvalidParameterError):
        balanced_rr(params, 0)
    with pytest.raises(InvalidParameterError):
        balanced_rr(params, 4)


@pytest.mark.parametrize("n", [3, 5])
def test_slot_policy_full_copies_from_d(n):
    params = ClusterParams.for_cluster(n)
    d = params.scheme.d
    for c in range(1, d):
        rr = balanced_rr(params, c)
        assert slot_policy(params, c) == (rr, encode_bitmap(rr))
    policy, bitmap = slot_policy(params, d)
    assert policy.per_server == (frozenset(range(d)),) * n
    assert policy.n_shards == params.scheme.n_shards
    assert decode_bitmap(bitmap, n, policy.n_shards) == policy
    assert len(bitmap) == len(encode_bitmap(balanced_rr(params, d)))
    assert slot_policy(params, d) is slot_policy(params, d)
    with pytest.raises(InvalidParameterError):
        slot_policy(params, d + 1)
    with pytest.raises(InvalidParameterError):
        slot_policy(params, 0)


def test_unbalanced_wider_scheme():
    scheme = CodingScheme(8, 5)
    pol = unbalanced(
        [{0, 1, 2, 3, 4}, {0, 1, 2, 3, 4}, {3, 4, 5, 6, 7}, {5, 6, 7}, {7}], scheme
    )
    assert pol.n_shards == 8
    assert sorted(pol.shards_of(3)) == [5, 6, 7]
    with pytest.raises(InvalidParameterError):
        unbalanced([{8}], scheme)


def test_bitmap_layout_frozen():
    # n=3 servers, 3 shards, c=1: rows 100 010 001, MSB first in one byte each
    pol = balanced_rr(ClusterParams.for_cluster(3), 1)
    assert encode_bitmap(pol) == bytes([0b10000000, 0b01000000, 0b00100000])


def test_bitmap_two_byte_rows():
    scheme = CodingScheme(9, 5)
    pol = unbalanced([{0, 8}, {7}, set(), {1, 2}, {4}], scheme)
    raw = encode_bitmap(pol)
    assert len(raw) == 5 * 2
    assert raw[0:2] == bytes([0b10000000, 0b10000000])
    assert raw[2:4] == bytes([0b00000001, 0])
    back = decode_bitmap(raw, 5, 9)
    assert back == pol


def test_bitmap_wrong_length_rejected():
    with pytest.raises(MalformedBitmapError):
        decode_bitmap(b"\x00\x00", 3, 3)
    with pytest.raises(MalformedBitmapError):
        decode_bitmap(bytes([0b10010000, 0, 0]), 3, 3)  # stray bit past width


def test_bitmap_decode_memo_raises_every_time():
    # decode_bitmap is memoized; a rejected bitmap must not be remembered
    # as accepted, and an accepted one comes back as the same frozen policy
    stray = bytes([0b10010000, 0, 0])
    for _ in range(2):
        with pytest.raises(MalformedBitmapError):
            decode_bitmap(stray, 3, 3)
    raw = encode_bitmap(balanced_rr(ClusterParams.for_cluster(5), 2))
    assert decode_bitmap(raw, 5, 5) is decode_bitmap(bytes(raw), 5, 5)
    for _ in range(2):
        with pytest.raises(MalformedBitmapError):
            decode_bitmap(raw, 5, 4)


@given(
    n=st.sampled_from([3, 5, 7, 9]),
    data=st.data(),
)
def test_bitmap_roundtrip_property(n, data):
    width = data.draw(st.integers(n, 12))
    per = [
        data.draw(st.frozensets(st.integers(0, width - 1), max_size=width))
        for _ in range(n)
    ]
    pol = AssignmentPolicy(per_server=tuple(per), n_shards=width)
    assert decode_bitmap(encode_bitmap(pol), n, width) == pol
