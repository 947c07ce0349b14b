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


@given(shards=shard_maps, committed=st.booleans(), sized=st.booleans())
def test_prepare_reply_roundtrip(shards, committed, sized):
    entry = PrepareEntry(
        3, 11, 0xFEED, committed, sized, 11 if committed else 0, 2, 100, shards
    )
    raw = roundtrip(
        PrepareReply(sender=1, ballot=12, ok=True, promised=12, commit_below=3, entries=[entry])
    )
    # reply: u64 ballot, u8 ok, u64 promised, commit_below, u32 count; entry:
    # u64 slot, accepted_ballot, vid; u8 flags (committed, sized); u64
    # commit_ballot; u8 c; u32 payload_len; u16 count, then u16 index and a
    # blob per shard
    framing = 7 + 8 + 1 + 8 + 8 + 4 + (8 + 8 + 8 + 1 + 8 + 1 + 4 + 2)
    assert len(raw) == framing + sum(2 + 4 + len(b) for b in shards.values())


@given(shards=shard_maps)
def test_accept_roundtrip(shards):
    msg = Accept(
        sender=0, slot=9, ballot=6, q=4, c=2, payload_len=1000, vid=0xABCD,
        shards=shards, sent_at=12.5,
    )
    raw = roundtrip(msg)
    assert payload_nbytes(msg) == sum(len(b) for b in shards.values())
    # u64 slot, ballot; u8 q, c; u32 payload_len; u64 vid; u16 count, then
    # u16 index and a blob per shard; f64: 47 B of framing
    framing = 7 + 8 + 8 + 1 + 1 + 4 + 8 + 2 + 8
    assert len(raw) == framing + sum(2 + 4 + len(b) for b in shards.values())


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


@given(shards=shard_maps, sized=st.booleans())
def test_reconstruct_reply_roundtrip(shards, sized):
    entry = ReconEntry(5, True, False, sized, 6, 0xBEEF, 6, 77, shards)
    msg = ReconstructReply(3, [entry])
    raw = roundtrip(msg)
    assert payload_nbytes(msg) == sum(len(b) for b in shards.values())
    # reply: u32 count; entry: u64 slot; u8 flags (has_data, authoritative,
    # sized); u64 accepted_ballot, vid, commit_ballot; u32 payload_len; u16
    # count, then u16 index and a blob per shard
    framing = 7 + 4 + (8 + 1 + 8 + 8 + 8 + 4 + 2)
    assert len(raw) == framing + sum(2 + 4 + len(b) for b in shards.values())


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
    # a flags byte with a bit set that no flag defines; the flags follow
    # the envelope, the reply's 29-byte head and the entry's u64 fields
    prep = PrepareReply(1, 12, True, 12, 3, [PrepareEntry(3, 11, 9, True, True, 11, 2, 100, {})])
    recon = ReconstructReply(3, [ReconEntry(5, True, True, True, 6, 1, 6, 77, {})])
    for msg, at, defined in ((prep, 7 + 29 + 24, 0b11), (recon, 7 + 4 + 8, 0b111)):
        raw = bytearray(encode(msg))
        assert raw[at] == defined
        decode(bytes(raw))
        for bit in range(8):
            if not defined >> bit & 1:
                raw[at] = defined | 1 << bit
                with pytest.raises(MalformedMessageError):
                    decode(bytes(raw))


def _old_payload_nbytes(msg):
    """The isinstance chain payload_nbytes was before each message class
    carried its own count; kept as the reference."""
    if isinstance(msg, Accept):
        return sum(len(b) for b in msg.shards.values())
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
            PrepareEntry(3, 11, 9, True, True, 11, 2, 100, shards),
            PrepareEntry(4, 11, 9, False, False, 0, 0, 10, more),
        ]),
        Accept(0, 9, 6, 4, 2, 1000, 7, shards, 1.0),
        Accept(0, 9, 6, 3, 3, 4, 7, more, 1.0),
        AcceptReply(3, 9, 6, True, 6, frozenset({1, 2}), 1.0),
        Heartbeat(0, 6, 42, 1.0),
        HeartbeatReply(4, 6, True, 6, 1.0),
        Reconstruct(2, [(5, frozenset({0, 4}), 3)]),
        ReconstructReply(3, [
            ReconEntry(5, True, False, True, 6, 1, 6, 77, shards),
            ReconEntry(6, True, True, False, 6, 2, 6, 7, more),
        ]),
        ClientRequest(7, [Command(wire.PUT, "k", value, 7, 3), Command(wire.GET, "k", b"", 7, 4)]),
        ClientReply(0, [ReplyEntry(7, 3, wire.OK, value, 2)], wire.NO_REDIRECT),
    ]
    assert {type(m) for m in msgs} == set(wire._TYPES)
    for msg in msgs:
        roundtrip(msg)
        assert payload_nbytes(msg) == msg.payload_nbytes() == _old_payload_nbytes(msg)
