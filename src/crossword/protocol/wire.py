"""Message types and their self-describing, length-prefixed binary encoding.

Envelope: u32 total length | u8 type tag | u16 sender | body. Byte strings
are u32-length-prefixed; shard maps and index sets carry u16 counts. The
simulator charges bandwidth on exactly these encoded sizes.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field

__all__ = [
    "Accept",
    "AcceptReply",
    "ClientReply",
    "ClientRequest",
    "Command",
    "GET",
    "Heartbeat",
    "HeartbeatReply",
    "MalformedMessageError",
    "NOT_FOUND",
    "OK",
    "PUT",
    "Prepare",
    "PrepareEntry",
    "PrepareReply",
    "REDIRECT",
    "Reconstruct",
    "ReconEntry",
    "ReconstructReply",
    "ReplyEntry",
    "decode",
    "encode",
    "payload_nbytes",
    "wire_size",
]

PUT, GET = 0, 1
OK, NOT_FOUND, REDIRECT = 0, 1, 2


class MalformedMessageError(ValueError):
    pass


class _Writer:
    __slots__ = ("parts",)

    def __init__(self):
        self.parts: list[bytes] = []

    def u8(self, v):
        self.parts.append(struct.pack("!B", v))

    def u16(self, v):
        self.parts.append(struct.pack("!H", v))

    def u32(self, v):
        self.parts.append(struct.pack("!I", v))

    def u64(self, v):
        self.parts.append(struct.pack("!Q", v))

    def f64(self, v):
        self.parts.append(struct.pack("!d", v))

    def blob(self, b: bytes):
        self.parts.append(struct.pack("!I", len(b)))
        self.parts.append(b)

    def text(self, s: str):
        b = s.encode()
        self.parts.append(struct.pack("!H", len(b)))
        self.parts.append(b)

    def idxset(self, xs):
        xs = sorted(xs)
        self.u16(len(xs))
        for x in xs:
            self.u16(x)

    def shards(self, sh: dict[int, bytes]):
        self.u16(len(sh))
        for idx in sorted(sh):
            self.u16(idx)
            self.blob(sh[idx])


class _Sizer:
    """A _Writer that packs nothing: it only adds up the lengths of the
    parts a _Writer would append, so wire_size runs the same _body code."""

    __slots__ = ("n",)

    def __init__(self):
        self.n = 0

    def u8(self, v):
        self.n += 1

    def u16(self, v):
        self.n += 2

    def u32(self, v):
        self.n += 4

    def u64(self, v):
        self.n += 8

    def f64(self, v):
        self.n += 8

    def blob(self, b: bytes):
        self.n += 4 + len(b)

    def text(self, s: str):
        self.n += 2 + len(s.encode())

    def idxset(self, xs):
        self.n += 2 + 2 * len(xs)

    def shards(self, sh: dict[int, bytes]):
        self.n += 2 + 6 * len(sh) + sum(map(len, sh.values()))


class _Reader:
    __slots__ = ("buf", "off")

    def __init__(self, buf: bytes, off: int = 0):
        self.buf = buf
        self.off = off

    def _take(self, fmt: str, size: int):
        if self.off + size > len(self.buf):
            raise MalformedMessageError("truncated message")
        v = struct.unpack_from(fmt, self.buf, self.off)[0]
        self.off += size
        return v

    def u8(self):
        return self._take("!B", 1)

    def flags(self, defined: int) -> int:
        """A u8 of flag bits; a set bit outside `defined` is malformed."""
        v = self._take("!B", 1)
        if v & ~defined:
            raise MalformedMessageError(f"undefined flag bits {v & ~defined:#04x}")
        return v

    def u16(self):
        return self._take("!H", 2)

    def u32(self):
        return self._take("!I", 4)

    def u64(self):
        return self._take("!Q", 8)

    def f64(self):
        return self._take("!d", 8)

    def blob(self) -> bytes:
        n = self.u32()
        if self.off + n > len(self.buf):
            raise MalformedMessageError("truncated blob")
        b = self.buf[self.off : self.off + n]
        self.off += n
        return b

    def text(self) -> str:
        n = self.u16()
        b = self.buf[self.off : self.off + n]
        self.off += n
        return b.decode()

    def idxset(self) -> frozenset[int]:
        return frozenset(self.u16() for _ in range(self.u16()))

    def shards(self) -> dict[int, bytes]:
        return {self.u16(): self.blob() for _ in range(self.u16())}


# --- message bodies ---


class _Message:
    def payload_nbytes(self) -> int:
        """Application payload bytes inside the message: shard or value
        content, excluding all framing."""
        return 0


@dataclass
class Prepare(_Message):
    sender: int
    ballot: int
    from_slot: int

    def _body(self, w: _Writer):
        w.u64(self.ballot)
        w.u64(self.from_slot)

    @classmethod
    def _parse(cls, sender, r: _Reader):
        return cls(sender, r.u64(), r.u64())


@dataclass
class PrepareEntry:
    slot: int
    accepted_ballot: int
    vid: int  # value identity: digest of the proposed payload
    committed: bool
    sized: bool  # payload_len is known
    commit_ballot: int  # 0 = not known exactly
    c: int  # shards per server of the acceptance; 0 = none accepted or learned
    payload_len: int
    shards: dict[int, bytes]

    def _body(self, w: _Writer):
        w.u64(self.slot)
        w.u64(self.accepted_ballot)
        w.u64(self.vid)
        w.u8((1 if self.committed else 0) | (2 if self.sized else 0))
        w.u64(self.commit_ballot)
        w.u8(self.c)
        w.u32(self.payload_len)
        w.shards(self.shards)

    @classmethod
    def _parse(cls, r: _Reader):
        slot, accepted_ballot, vid = r.u64(), r.u64(), r.u64()
        flags = r.flags(0b11)
        return cls(
            slot, accepted_ballot, vid, bool(flags & 1), bool(flags & 2), r.u64(), r.u8(),
            r.u32(), r.shards(),
        )


@dataclass
class PrepareReply(_Message):
    sender: int
    ballot: int
    ok: bool
    promised: int
    commit_below: int  # responder's committed prefix; slots below are settled
    entries: list[PrepareEntry] = field(default_factory=list)

    def _body(self, w: _Writer):
        w.u64(self.ballot)
        w.u8(1 if self.ok else 0)
        w.u64(self.promised)
        w.u64(self.commit_below)
        w.u32(len(self.entries))
        for e in self.entries:
            e._body(w)

    @classmethod
    def _parse(cls, sender, r: _Reader):
        ballot, ok, promised, commit_below = r.u64(), r.u8() == 1, r.u64(), r.u64()
        entries = [PrepareEntry._parse(r) for _ in range(r.u32())]
        return cls(sender, ballot, ok, promised, commit_below, entries)

    def payload_nbytes(self) -> int:
        return sum(len(b) for e in self.entries for b in e.shards.values())


@dataclass
class Accept(_Message):
    """A proposal's shards for one server. The slot's layout, and so which
    shards the receiver gets, follows from c (assignment.slot_policy)."""

    sender: int
    slot: int
    ballot: int
    q: int
    c: int
    payload_len: int
    vid: int  # value identity: digest of the whole payload
    shards: dict[int, bytes]  # the receiver's slice of the slot's policy
    sent_at: float

    def _body(self, w: _Writer):
        w.u64(self.slot)
        w.u64(self.ballot)
        w.u8(self.q)
        w.u8(self.c)
        w.u32(self.payload_len)
        w.u64(self.vid)
        w.shards(self.shards)
        w.f64(self.sent_at)

    @classmethod
    def _parse(cls, sender, r: _Reader):
        return cls(
            sender, r.u64(), r.u64(), r.u8(), r.u8(), r.u32(), r.u64(), r.shards(), r.f64(),
        )

    def payload_nbytes(self) -> int:
        return sum(len(b) for b in self.shards.values())


@dataclass
class AcceptReply(_Message):
    sender: int
    slot: int
    ballot: int
    ok: bool
    promised: int
    persisted: frozenset[int]
    echo: float

    def _body(self, w: _Writer):
        w.u64(self.slot)
        w.u64(self.ballot)
        w.u8(1 if self.ok else 0)
        w.u64(self.promised)
        w.idxset(self.persisted)
        w.f64(self.echo)

    @classmethod
    def _parse(cls, sender, r: _Reader):
        return cls(sender, r.u64(), r.u64(), r.u8() == 1, r.u64(), r.idxset(), r.f64())


@dataclass
class Heartbeat(_Message):
    sender: int
    ballot: int
    commit_idx: int  # highest committed slot + 1 (0 = nothing committed)
    sent_at: float

    def _body(self, w: _Writer):
        w.u64(self.ballot)
        w.u64(self.commit_idx)
        w.f64(self.sent_at)

    @classmethod
    def _parse(cls, sender, r: _Reader):
        return cls(sender, r.u64(), r.u64(), r.f64())


@dataclass
class HeartbeatReply(_Message):
    sender: int
    ballot: int
    ok: bool
    promised: int
    echo: float

    def _body(self, w: _Writer):
        w.u64(self.ballot)
        w.u8(1 if self.ok else 0)
        w.u64(self.promised)
        w.f64(self.echo)

    @classmethod
    def _parse(cls, sender, r: _Reader):
        return cls(sender, r.u64(), r.u8() == 1, r.u64(), r.f64())


@dataclass
class Reconstruct(_Message):
    """Shard request. Each want is (slot, shard indices, need): the
    responder returns at most `need` of the listed shards, lowest index
    first, and a responder holding only raw shards returns those of the
    listed ones it has. `need` is a u8 after the index set: the asker's d
    minus the shards it holds or has asked for elsewhere."""

    sender: int
    wants: list[tuple[int, frozenset[int], int]]

    def _body(self, w: _Writer):
        w.u32(len(self.wants))
        for slot, idxs, need in self.wants:
            w.u64(slot)
            w.idxset(idxs)
            w.u8(need)

    @classmethod
    def _parse(cls, sender, r: _Reader):
        return cls(sender, [(r.u64(), r.idxset(), r.u8()) for _ in range(r.u32())])


@dataclass
class ReconEntry:
    slot: int
    has_data: bool
    authoritative: bool  # responder decoded the value; shards re-derived from it
    sized: bool  # payload_len is known
    accepted_ballot: int
    vid: int  # identity of the value the shards belong to
    commit_ballot: int  # 0 = not known exactly
    payload_len: int
    shards: dict[int, bytes]

    def _body(self, w: _Writer):
        w.u64(self.slot)
        w.u8(
            (1 if self.has_data else 0)
            | (2 if self.authoritative else 0)
            | (4 if self.sized else 0)
        )
        w.u64(self.accepted_ballot)
        w.u64(self.vid)
        w.u64(self.commit_ballot)
        w.u32(self.payload_len)
        w.shards(self.shards)

    @classmethod
    def _parse(cls, r: _Reader):
        slot = r.u64()
        flags = r.flags(0b111)
        return cls(
            slot, bool(flags & 1), bool(flags & 2), bool(flags & 4), r.u64(), r.u64(), r.u64(),
            r.u32(), r.shards(),
        )


@dataclass
class ReconstructReply(_Message):
    sender: int
    entries: list[ReconEntry]

    def _body(self, w: _Writer):
        w.u32(len(self.entries))
        for e in self.entries:
            e._body(w)

    @classmethod
    def _parse(cls, sender, r: _Reader):
        return cls(sender, [ReconEntry._parse(r) for _ in range(r.u32())])

    def payload_nbytes(self) -> int:
        return sum(len(b) for e in self.entries for b in e.shards.values())


@dataclass
class Command:
    kind: int  # PUT | GET
    key: str
    value: bytes
    client: int
    seq: int

    def _body(self, w: _Writer):
        w.u8(self.kind)
        w.text(self.key)
        w.blob(self.value)
        w.u32(self.client)
        w.u64(self.seq)

    @classmethod
    def _parse(cls, r: _Reader):
        return cls(r.u8(), r.text(), r.blob(), r.u32(), r.u64())


@dataclass
class ClientRequest(_Message):
    sender: int
    commands: list[Command]

    def _body(self, w: _Writer):
        w.u16(len(self.commands))
        for c in self.commands:
            c._body(w)

    @classmethod
    def _parse(cls, sender, r: _Reader):
        return cls(sender, [Command._parse(r) for _ in range(r.u16())])

    def payload_nbytes(self) -> int:
        return sum(len(c.value) for c in self.commands)


@dataclass
class ReplyEntry:
    client: int
    seq: int
    status: int  # OK | NOT_FOUND | REDIRECT
    value: bytes
    version: int

    def _body(self, w: _Writer):
        w.u32(self.client)
        w.u64(self.seq)
        w.u8(self.status)
        w.blob(self.value)
        w.u64(self.version)

    @classmethod
    def _parse(cls, r: _Reader):
        return cls(r.u32(), r.u64(), r.u8(), r.blob(), r.u64())


@dataclass
class ClientReply(_Message):
    sender: int
    entries: list[ReplyEntry]
    redirect: int  # suggested leader id; 0xFFFF = no hint

    def _body(self, w: _Writer):
        w.u16(len(self.entries))
        for e in self.entries:
            e._body(w)
        w.u16(self.redirect)

    @classmethod
    def _parse(cls, sender, r: _Reader):
        entries = [ReplyEntry._parse(r) for _ in range(r.u16())]
        return cls(sender, entries, r.u16())

    def payload_nbytes(self) -> int:
        return sum(len(e.value) for e in self.entries)


_TYPES = [
    Prepare, PrepareReply, Accept, AcceptReply, Heartbeat, HeartbeatReply,
    Reconstruct, ReconstructReply, ClientRequest, ClientReply,
]
_TAG = {cls: i + 1 for i, cls in enumerate(_TYPES)}


_HEAD = struct.Struct("!IBH")  # total length, type tag, sender


def encode(msg) -> bytes:
    w = _Writer()
    msg._body(w)
    total = _HEAD.size + sum(map(len, w.parts))
    return b"".join([_HEAD.pack(total, _TAG[type(msg)], msg.sender), *w.parts])


def decode(buf: bytes, off: int = 0):
    """Returns (message, next offset). Raises MalformedMessageError on bad
    input."""
    if len(buf) - off < _HEAD.size:
        raise MalformedMessageError("short envelope")
    total, tag, sender = _HEAD.unpack_from(buf, off)
    if off + total > len(buf):
        raise MalformedMessageError("length prefix past end of buffer")
    if not 1 <= tag <= len(_TYPES):
        raise MalformedMessageError(f"unknown type tag {tag}")
    r = _Reader(buf, off + _HEAD.size)
    msg = _TYPES[tag - 1]._parse(sender, r)
    if r.off != off + total:
        raise MalformedMessageError("body length mismatch")
    return msg, off + total


def wire_size(msg) -> int:
    """len(encode(msg)), from the same _body run on a _Sizer, which packs
    nothing."""
    cached = getattr(msg, "_wire_cache", None)
    if cached is None:
        sizer = _Sizer()
        msg._body(sizer)
        cached = msg._wire_cache = _HEAD.size + sizer.n
    return cached


def payload_nbytes(msg) -> int:
    """Application payload bytes inside a message (its payload_nbytes());
    used to split link totals into payload vs header traffic."""
    return msg.payload_nbytes()


NO_REDIRECT = 0xFFFF
