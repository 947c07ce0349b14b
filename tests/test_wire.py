import os
import pathlib
import subprocess
import sys

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
from crossword.protocol.replica import decode_batch, encode_batch

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
    # a one-bit ok flag with another bit set; it follows the u64 ballot, or
    # the u64 slot and ballot of an AcceptReply
    for msg, at in (
        (HeartbeatReply(4, 6, True, 6, 99.5), 7 + 8),
        (AcceptReply(3, 9, 6, True, 6, frozenset({1}), 1.0), 7 + 16),
        (PrepareReply(1, 12, True, 12, 3, []), 7 + 8),
    ):
        raw = bytearray(encode(msg))
        assert raw[at] == 1
        raw[at] = 2
        with pytest.raises(MalformedMessageError):
            decode(bytes(raw))
    # a key that is not UTF-8, a command kind that is neither PUT nor GET,
    # and a reply status that is neither OK nor NOT_FOUND
    req = encode(ClientRequest(7, [Command(wire.PUT, "k", b"v", 7, 3)]))
    rep = encode(ClientReply(0, [ReplyEntry(7, 3, wire.OK, b"v", 2)], wire.NO_REDIRECT))
    for raw, at, value in ((req, 7 + 2 + 1 + 2, 0xFF), (req, 7 + 2, 2), (rep, 7 + 2 + 4 + 8, 2)):
        raw = bytearray(raw)
        raw[at] = value
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


# One instance of each message type and a two-command batch, with the exact
# bytes each encodes to: the layout on the wire, not only its length.
GOLDEN = [
    (Prepare(2, 12, 7), "00000017010002000000000000000c0000000000000007"),
    (
        PrepareReply(1, 12, True, 12, 3, [
            PrepareEntry(3, 11, 0xFEED, True, False, 11, 2, 100, {4: b"\x01\x02", 0: b"ab"}),
            PrepareEntry(4, 11, 9, False, True, 0, 0, 0, {}),
        ]),
        "00000084020001000000000000000c01000000000000000c00000000000000030000000200000000"
        "00000003000000000000000b000000000000feed01000000000000000b0200000064000200000000"
        "0002616200040000000201020000000000000004000000000000000b000000000000000902000000"
        "000000000000000000000000",
    ),
    (
        Accept(0, 9, 6, 4, 2, 1000, 0xABCD, {3: b"xyz", 1: b""}, 12.5),
        "0000003e030000000000000000000900000000000000060402000003e8000000000000abcd000200"
        "010000000000030000000378797a4029000000000000",
    ),
    (
        AcceptReply(3, 9, 6, False, 7, frozenset({5, 1, 2}), 11.25),
        "00000030040003000000000000000900000000000000060000000000000000070003000100020005"
        "4026800000000000",
    ),
    (Heartbeat(0, 6, 42, 99.5), "0000001f0500000000000000000006000000000000002a4058e00000000000"),
    (
        HeartbeatReply(4, 6, True, 6, 99.5),
        "0000002006000400000000000000060100000000000000064058e00000000000",
    ),
    (
        Reconstruct(2, [(5, frozenset({0, 4}), 3), (9, frozenset(), 1)]),
        "00000025070002000000020000000000000005000200000004030000000000000009000001",
    ),
    (
        ReconstructReply(3, [
            ReconEntry(5, True, False, True, 6, 0xBEEF, 6, 77, {2: b"s2", 1: b"s1"}),
            ReconEntry(6, False, True, False, 0, 0, 0, 0, {}),
        ]),
        "00000069080003000000020000000000000005050000000000000006000000000000beef00000000"
        "000000060000004d0002000100000002733100020000000273320000000000000006020000000000"
        "00000000000000000000000000000000000000000000000000",
    ),
    (
        ClientRequest(7, [
            Command(wire.PUT, "k\u00e9", b"vvv", 7, 3), Command(wire.GET, "k", b"", 7, 4),
        ]),
        "0000003609000700020000036bc3a9000000037676760000000700000000000000030100016b0000"
        "0000000000070000000000000004",
    ),
    (
        ClientReply(0, [
            ReplyEntry(7, 3, wire.OK, b"val", 2), ReplyEntry(8, 1, wire.NOT_FOUND, b"", 0),
        ], 4),
        "000000400a00000002000000070000000000000003000000000376616c0000000000000002000000"
        "080000000000000001010000000000000000000000000004",
    ),
]
GOLDEN_BATCH = (
    "00020000036b65790000000200ff0000000500000000000000010100036b65790000000000000006"
    "0000000000000002"
)


def test_golden_bytes():
    assert {type(m) for m, _ in GOLDEN} == set(wire._TYPES)
    for msg, hexed in GOLDEN:
        assert encode(msg).hex() == hexed, type(msg).__name__
        assert wire_size(msg) == len(hexed) // 2
        assert decode(bytes.fromhex(hexed)) == (msg, len(hexed) // 2)
    batch = [Command(wire.PUT, "key", b"\x00\xff", 5, 1), Command(wire.GET, "key", b"", 6, 2)]
    assert encode_batch(batch).hex() == GOLDEN_BATCH
    assert decode_batch(bytes.fromhex(GOLDEN_BATCH)) == batch


u8s, u16s = st.integers(0, 0xFF), st.integers(0, 0xFFFF)
u32s, u64s = st.integers(0, 0xFFFFFFFF), st.integers(0, 2**64 - 1)
f64s = st.floats(allow_nan=False)
small_shards = st.dictionaries(u16s, st.binary(max_size=8), max_size=3)
small_idxsets = st.frozensets(u16s, max_size=3)
MESSAGES = {
    "Prepare": st.builds(Prepare, u16s, u64s, u64s),
    "PrepareReply": st.builds(
        PrepareReply, u16s, u64s, st.booleans(), u64s, u64s,
        st.lists(st.builds(
            PrepareEntry, u64s, u64s, u64s, st.booleans(), st.booleans(), u64s, u8s, u32s,
            small_shards,
        ), max_size=2),
    ),
    "Accept": st.builds(Accept, u16s, u64s, u64s, u8s, u8s, u32s, u64s, small_shards, f64s),
    "AcceptReply": st.builds(
        AcceptReply, u16s, u64s, u64s, st.booleans(), u64s, small_idxsets, f64s
    ),
    "Heartbeat": st.builds(Heartbeat, u16s, u64s, u64s, f64s),
    "HeartbeatReply": st.builds(HeartbeatReply, u16s, u64s, st.booleans(), u64s, f64s),
    "Reconstruct": st.builds(
        Reconstruct, u16s, st.lists(st.tuples(u64s, small_idxsets, u8s), max_size=3)
    ),
    "ReconstructReply": st.builds(
        ReconstructReply, u16s,
        st.lists(st.builds(
            ReconEntry, u64s, st.booleans(), st.booleans(), st.booleans(), u64s, u64s, u64s,
            u32s, small_shards,
        ), max_size=2),
    ),
    "ClientRequest": st.builds(
        ClientRequest, u16s,
        st.lists(st.builds(
            Command, st.sampled_from([wire.PUT, wire.GET]), st.text(max_size=4),
            st.binary(max_size=8), u32s, u64s,
        ), max_size=3),
    ),
    "ClientReply": st.builds(
        ClientReply, u16s,
        st.lists(st.builds(
            ReplyEntry, u32s, u64s, st.sampled_from([wire.OK, wire.NOT_FOUND]),
            st.binary(max_size=8), u64s,
        ), max_size=3),
        u16s,
    ),
}


@pytest.mark.parametrize("name", sorted(MESSAGES))
@given(data=st.data())
def test_decode_rejects_prefixes_and_never_raises_another_error(name, data):
    assert set(MESSAGES) == {cls.__name__ for cls in wire._TYPES}
    msg = data.draw(MESSAGES[name])
    raw = encode(msg)
    assert decode(raw) == (msg, len(raw))
    for end in range(len(raw)):
        with pytest.raises(MalformedMessageError):
            decode(raw[:end])
    at = data.draw(st.integers(0, len(raw) - 1))
    mutated = bytearray(raw)
    mutated[at] = data.draw(u8s)
    try:
        decode(bytes(mutated))
    except MalformedMessageError:
        pass


def test_bench_wire_script_runs():
    root = pathlib.Path(__file__).resolve().parent.parent
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    proc = subprocess.run(
        [sys.executable, str(root / "benchmarks" / "bench_wire.py"), "--repeat", "1"],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert "us/call" in proc.stdout
