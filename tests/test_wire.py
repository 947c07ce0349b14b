import pytest
from hypothesis import given
from hypothesis import strategies as st

from crossword.protocol import wire
from crossword.protocol.wire import (
    Accept,
    AcceptReply,
    ClientReply,
    ClientRequest,
    Command,
    Heartbeat,
    HeartbeatReply,
    MalformedMessageError,
    Prepare,
    PrepareEntry,
    PrepareReply,
    ReconEntry,
    Reconstruct,
    ReconstructReply,
    ReplyEntry,
    decode,
    encode,
    payload_nbytes,
    wire_size,
)

shard_maps = st.dictionaries(st.integers(0, 8), st.binary(max_size=64), max_size=4)
idxsets = st.frozensets(st.integers(0, 8), max_size=5)


def roundtrip(msg):
    raw = encode(msg)
    back, consumed = decode(raw)
    assert consumed == len(raw)
    assert back == msg
    assert wire_size(msg) == len(raw)
    return raw


def test_prepare_roundtrip():
    roundtrip(Prepare(sender=2, ballot=12, from_slot=7))


@given(shards=shard_maps, committed=st.booleans())
def test_prepare_reply_roundtrip(shards, committed):
    entry = PrepareEntry(
        3, 11, 0xFEED, committed, 11 if committed else 0, 5, 3, 100, b"\x80" * 5, shards
    )
    roundtrip(
        PrepareReply(sender=1, ballot=12, ok=True, promised=12, commit_below=3, entries=[entry])
    )


@given(shards=shard_maps)
def test_accept_roundtrip(shards):
    msg = Accept(
        sender=0, slot=9, ballot=6, kind=wire.KIND_RR, q=4, c=2, n_shards=5,
        d=3, payload_len=1000, vid=0xABCD, bitmap=b"\xff" * 5, shards=shards,
        full_payload=b"", sent_at=12.5,
    )
    roundtrip(msg)
    assert payload_nbytes(msg) == sum(len(b) for b in shards.values())


def test_verbatim_accept_payload_bytes():
    msg = Accept(
        sender=0, slot=1, ballot=6, kind=wire.KIND_VERBATIM, q=3, c=3,
        n_shards=5, d=3, payload_len=4, vid=7, bitmap=b"", shards={},
        full_payload=b"abcd", sent_at=0.0,
    )
    roundtrip(msg)
    assert payload_nbytes(msg) == 4


@given(persisted=idxsets)
def test_accept_reply_roundtrip(persisted):
    roundtrip(AcceptReply(3, 9, 6, True, 6, persisted, 11.25))


def test_heartbeat_roundtrip():
    roundtrip(Heartbeat(0, 6, 42, 99.5))
    roundtrip(HeartbeatReply(4, 6, True, 6, 99.5))


@given(idxs=idxsets, need=st.integers(0, 255))
def test_reconstruct_roundtrip(idxs, need):
    raw = roundtrip(Reconstruct(2, [(5, idxs, need), (9, frozenset({1}), 1)]))
    # per want: u64 slot, u16 count, u16 per index, u8 need
    assert len(raw) == 7 + 4 + (8 + 2 + 2 * len(idxs) + 1) + (8 + 2 + 2 + 1)


@given(shards=shard_maps)
def test_reconstruct_reply_roundtrip(shards):
    entry = ReconEntry(5, True, False, 6, 0xBEEF, 6, 5, 3, 77, shards)
    msg = ReconstructReply(3, [entry])
    roundtrip(msg)
    assert payload_nbytes(msg) == sum(len(b) for b in shards.values())


def test_client_messages_roundtrip():
    req = ClientRequest(7, [Command(wire.PUT, "k1", b"v" * 10, 7, 3)])
    roundtrip(req)
    assert payload_nbytes(req) == 10
    rep = ClientReply(0, [ReplyEntry(7, 3, wire.OK, b"v" * 10, 2)], wire.NO_REDIRECT)
    roundtrip(rep)


def test_streamed_messages_decode_in_order():
    msgs = [Prepare(1, 5, 0), Heartbeat(0, 5, 3, 1.0), Prepare(2, 11, 4)]
    buf = b"".join(encode(m) for m in msgs)
    off = 0
    out = []
    while off < len(buf):
        m, off = decode(buf, off)
        out.append(m)
    assert out == msgs


def test_malformed_inputs_rejected():
    raw = encode(Prepare(1, 5, 0))
    with pytest.raises(MalformedMessageError):
        decode(raw[:-3])
    with pytest.raises(MalformedMessageError):
        decode(b"\x00\x00")
    bad_tag = bytes([raw[0], raw[1], raw[2], raw[3], 99]) + raw[5:]
    with pytest.raises(MalformedMessageError):
        decode(bad_tag)


def _old_payload_nbytes(msg):
    """The isinstance chain payload_nbytes was before each message class
    carried its own count; kept as the reference."""
    if isinstance(msg, Accept):
        return sum(len(b) for b in msg.shards.values()) + len(msg.full_payload)
    if isinstance(msg, ReconstructReply):
        return sum(len(b) for e in msg.entries for b in e.shards.values())
    if isinstance(msg, PrepareReply):
        return sum(len(b) for e in msg.entries for b in e.shards.values())
    if isinstance(msg, ClientRequest):
        return sum(len(c.value) for c in msg.commands)
    if isinstance(msg, ClientReply):
        return sum(len(e.value) for e in msg.entries)
    return 0


@given(shards=shard_maps, more=shard_maps, value=st.binary(max_size=40))
def test_payload_nbytes_matches_reference_for_every_type(shards, more, value):
    msgs = [
        Prepare(1, 5, 0),
        PrepareReply(1, 12, True, 12, 3, [
            PrepareEntry(3, 11, 9, True, 11, 5, 3, 100, b"\x80" * 5, shards),
            PrepareEntry(4, 11, 9, False, 0, 5, 3, 10, b"", more),
        ]),
        Accept(0, 9, 6, wire.KIND_RR, 4, 2, 5, 3, 1000, 7, b"\xff" * 5, shards, b"", 1.0),
        Accept(0, 9, 6, wire.KIND_VERBATIM, 3, 3, 5, 3, 4, 7, b"", more, value, 1.0),
        AcceptReply(3, 9, 6, True, 6, frozenset({1, 2}), 1.0),
        Heartbeat(0, 6, 42, 1.0),
        HeartbeatReply(4, 6, True, 6, 1.0),
        Reconstruct(2, [(5, frozenset({0, 4}), 3)]),
        ReconstructReply(3, [
            ReconEntry(5, True, False, 6, 1, 6, 5, 3, 77, shards),
            ReconEntry(6, True, True, 6, 2, 6, 5, 3, 7, more),
        ]),
        ClientRequest(7, [Command(wire.PUT, "k", value, 7, 3), Command(wire.GET, "k", b"", 7, 4)]),
        ClientReply(0, [ReplyEntry(7, 3, wire.OK, value, 2)], wire.NO_REDIRECT),
    ]
    assert {type(m) for m in msgs} == set(wire._TYPES)
    for msg in msgs:
        roundtrip(msg)
        assert payload_nbytes(msg) == msg.payload_nbytes() == _old_payload_nbytes(msg)
