"""Message types and their self-describing, length-prefixed binary encoding.

Envelope: u32 total length | u8 type tag | u16 sender | body. The simulator
charges bandwidth on exactly these encoded sizes.

Each class declares its body once, in its field annotations, and one engine
below derives `encode`, `wire_size`, `decode` and `payload_nbytes` from that
declaration. The annotations, all big-endian:

- `U8`, `U16`, `U32`, `U64`, `F64`: one fixed-width number. `Kind` and
  `Status` are u8s that decode only to the values they name.
- `Flag`: one bit. A run of consecutive `Flag` fields packs into one u8,
  the first field in the lowest bit; a set bit that no flag of the run
  defines is malformed. A lone flag is a u8 of 0 or 1.
- `Text`: u16 length, then UTF-8. `Blob`: u32 length, then the bytes.
- `IdxSet`: u16 count, then the u16 indices in ascending order.
- `Shards`: u16 count, then per shard in ascending index order a u16
  index and a blob.
  In both, an index that does not exceed the one before it is malformed.
- `List16[T]`, `List32[T]`: a u16 or u32 count, then each record `T`'s own
  declared fields.

A message's `sender` travels in the envelope, not the body. The payload
count of a message is the content of its `Blob` and `Shards` values, at
any depth: the application bytes, without framing.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field
from operator import attrgetter, itemgetter
from typing import Annotated, NamedTuple, TypeVar, get_args, get_origin, get_type_hints

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
    "Reconstruct",
    "ReconEntry",
    "ReconstructReply",
    "ReplyEntry",
    "Want",
    "decode",
    "decode_batch",
    "encode",
    "encode_batch",
    "payload_nbytes",
    "wire_size",
]

PUT, GET = 0, 1
OK, NOT_FOUND = 0, 1
NO_REDIRECT = 0xFFFF


class MalformedMessageError(ValueError):
    pass


_TRUNCATED = "truncated message"
_UNORDERED = "shard indices not strictly ascending"
_U16 = struct.Struct("!H")
_SHARD_HEAD = struct.Struct("!HI")  # index, length


# --- variable-width kinds ---
#
# Each has measure(value) -> (size, payload bytes); write(value, out), which
# appends the encoded parts to out; and read(buf, off, end, vals), which
# appends the value to vals and returns the offset after it. A read checks
# its bounds once, at the offset it ends at; a read past the whole buffer
# raises struct.error, which decode turns into MalformedMessageError.


class _Bytes:
    """A length-prefixed byte string, or with `text` a UTF-8 string."""

    def __init__(self, fmt: str, text: bool):
        self.head, self.text = struct.Struct("!" + fmt), text

    def measure(self, v) -> tuple[int, int]:
        if self.text:
            return self.head.size + len(v.encode()), 0
        return self.head.size + len(v), len(v)

    def write(self, v, out: list) -> None:
        b = v.encode() if self.text else v
        out += (self.head.pack(len(b)), b)

    def read(self, buf, off: int, end: int, vals: list) -> int:
        start = off + self.head.size
        off = start + self.head.unpack_from(buf, off)[0]
        if off > end:
            raise MalformedMessageError(_TRUNCATED)
        if not self.text:
            vals.append(buf[start:off])
            return off
        try:
            vals.append(buf[start:off].decode())
        except UnicodeDecodeError as e:
            raise MalformedMessageError("text is not UTF-8") from e
        return off


class _IdxSet:
    def measure(self, xs) -> tuple[int, int]:
        return 2 + 2 * len(xs), 0

    def write(self, xs, out: list) -> None:
        out.append(struct.pack(f"!H{len(xs)}H", len(xs), *sorted(xs)))

    def read(self, buf, off: int, end: int, vals: list) -> int:
        n = _U16.unpack_from(buf, off)[0]
        if off + 2 + 2 * n > end:
            raise MalformedMessageError(_TRUNCATED)
        idxs = struct.unpack_from(f"!{n}H", buf, off + 2)
        if any(a >= b for a, b in zip(idxs, idxs[1:])):
            raise MalformedMessageError(_UNORDERED)
        vals.append(frozenset(idxs))
        return off + 2 + 2 * n


class _Shards:
    def measure(self, sh: dict[int, bytes]) -> tuple[int, int]:
        payload = sum(map(len, sh.values()))
        return 2 + 6 * len(sh) + payload, payload

    def write(self, sh: dict[int, bytes], out: list) -> None:
        out.append(_U16.pack(len(sh)))
        for idx in sorted(sh):
            b = sh[idx]
            out += (_SHARD_HEAD.pack(idx, len(b)), b)

    def read(self, buf, off: int, end: int, vals: list) -> int:
        count = _U16.unpack_from(buf, off)[0]
        off += 2
        sh = {}
        last = -1
        for _ in range(count):
            idx, n = _SHARD_HEAD.unpack_from(buf, off)
            if idx <= last:
                raise MalformedMessageError(_UNORDERED)
            last = idx
            start = off + 6
            off = start + n
            if off > end:
                raise MalformedMessageError(_TRUNCATED)
            sh[idx] = buf[start:off]
        if off > end:
            raise MalformedMessageError(_TRUNCATED)
        vals.append(sh)
        return off


class _Many:
    """A counted list of records of one class."""

    def __init__(self, codec: _Codec, fmt: str):
        self.codec, self.head = codec, struct.Struct("!" + fmt)

    def measure(self, items) -> tuple[int, int]:
        size, payload = self.head.size, 0
        measure = self.codec.measure
        for it in items:
            s, p = measure(it)
            size += s
            payload += p
        return size, payload

    def write(self, items, out: list) -> None:
        out.append(self.head.pack(len(items)))
        write = self.codec.write
        for it in items:
            write(it, out)

    def read(self, buf, off: int, end: int, vals: list) -> int:
        n = self.head.unpack_from(buf, off)[0]
        off += self.head.size
        codec, items = self.codec, []
        if off + n * codec.const > end:  # a record takes its fixed bytes at least
            raise MalformedMessageError(_TRUNCATED)
        for _ in range(n):
            fields: list = []
            off = codec.read(buf, off, end, fields)
            items.append(codec.make(*fields))
        vals.append(items)
        return off


# The annotation aliases. A fixed-width field's metadata is its struct
# format character ("?" for a flag bit), then the values a decoder accepts.
_T = TypeVar("_T")
U8 = Annotated[int, "B"]
U16 = Annotated[int, "H"]
U32 = Annotated[int, "I"]
U64 = Annotated[int, "Q"]
F64 = Annotated[float, "d"]
Kind = Annotated[int, "B", (PUT, GET)]
Status = Annotated[int, "B", (OK, NOT_FOUND)]
Flag = Annotated[bool, "?"]
Text = Annotated[str, _Bytes("H", text=True)]
Blob = Annotated[bytes, _Bytes("I", text=False)]
IdxSet = Annotated[frozenset[int], _IdxSet()]
Shards = Annotated[dict[int, bytes], _Shards()]
List16 = Annotated[list[_T], "H"]  # the count's format
List32 = Annotated[list[_T], "I"]


# --- the engine ---


class _Run:
    """Consecutive fixed-width fields, packed by one struct: one item per
    number and one u8 per run of consecutive flags. write takes the
    fields' values as a tuple, or the bare value of a one-field run; read
    appends them to vals."""

    def __init__(self, metas: list[tuple]):
        fmts, self.flags, self.checks = [], [], []  # flags: per item, None or a flag count
        for prev, (fmt, *allowed) in zip([("",), *metas], metas):
            if fmt == "?" and prev[0] == "?":
                self.flags[-1] += 1
                continue
            fmts.append("B" if fmt == "?" else fmt)
            self.flags.append(1 if fmt == "?" else None)
            if allowed:
                self.checks.append((len(fmts) - 1, allowed[0]))
        assert all(k is None or k <= 8 for k in self.flags)
        self.has_flags = any(k is not None for k in self.flags)
        self.one = len(metas) == 1
        self.struct = struct.Struct("!" + "".join(fmts))
        self.size = self.struct.size

    def write(self, vals, out: list) -> None:
        if self.one:  # a bare value; a lone flag packs as 0 or 1
            out.append(self.struct.pack(vals))
            return
        if self.has_flags:
            items, at = [], 0
            for k in self.flags:
                if k is None:
                    items.append(vals[at])
                else:
                    items.append(sum(1 << b for b in range(k) if vals[at + b]))
                at += k or 1
            vals = items
        out.append(self.struct.pack(*vals))

    def read(self, buf, off: int, end: int, vals: list) -> int:
        if off + self.size > end:
            raise MalformedMessageError(_TRUNCATED)
        got = self.struct.unpack_from(buf, off)
        for at, allowed in self.checks:
            if got[at] not in allowed:
                raise MalformedMessageError(f"undefined value {got[at]}")
        if not self.has_flags:
            vals += got
            return off + self.size
        for v, k in zip(got, self.flags):
            if k is None:
                vals.append(v)
            elif v >> k:
                raise MalformedMessageError(f"undefined flag bits {v >> k << k:#04x}")
            else:
                vals += [bool(v >> b & 1) for b in range(k)]
        return off + self.size


class _Codec:
    """The layout of one class, compiled from its annotations: `steps` in
    wire order, each a getter of the fields it covers and a _Run or a
    variable-width kind; `const`, the bytes of the runs."""

    def __init__(self, cls, skip: int):
        hints = list(enumerate(get_type_hints(cls, include_extras=True).items()))[skip:]
        self.make, self.steps, self.const = cls, [], 0
        self.is_tuple = issubclass(cls, tuple)  # a NamedTuple record: fields by position
        run: list[tuple[int, str, tuple]] = []
        for i, (name, hint) in hints:
            base, meta = hint.__origin__, hint.__metadata__
            if get_origin(base) is list:
                kind = _Many(_codec(get_args(base)[0]), meta[0])
            elif isinstance(meta[0], str):
                run.append((i, name, meta))
                continue
            else:
                kind = meta[0]
            self._add_run(run)
            run = []
            self.steps.append((self._getter([(i, name)]), kind))
        self._add_run(run)
        # bound methods, looked up once
        self.measures = [(get, k.measure) for get, k in self.steps if type(k) is not _Run]
        self.writes = [(get, k.write) for get, k in self.steps]
        self.reads = [k.read for _, k in self.steps]

    def _getter(self, fields: list[tuple[int, str]]):
        if self.is_tuple:
            return itemgetter(*(i for i, _ in fields))
        return attrgetter(*(name for _, name in fields))

    def _add_run(self, run: list[tuple[int, str, tuple]]) -> None:
        if run:
            r = _Run([meta for _, _, meta in run])
            self.steps.append((self._getter([(i, name) for i, name, _ in run]), r))
            self.const += r.size

    def measure(self, obj) -> tuple[int, int]:
        """(encoded size, payload bytes) of obj's fields."""
        size, payload = self.const, 0
        for get, measure in self.measures:
            s, p = measure(get(obj))
            size += s
            payload += p
        return size, payload

    def write(self, obj, out: list) -> None:
        for get, write in self.writes:
            write(get(obj), out)

    def read(self, buf, off: int, end: int, vals: list) -> int:
        """Appends the decoded field values to vals; returns the offset after
        them. Raises MalformedMessageError rather than read past `end`."""
        for read in self.reads:
            off = read(buf, off, end, vals)
        return off


_CODECS: dict[type, _Codec] = {}


def _codec(cls, skip: int = 0) -> _Codec:
    if cls not in _CODECS:
        _CODECS[cls] = _Codec(cls, skip)
    return _CODECS[cls]


# --- message bodies ---


class _Message:
    def payload_nbytes(self) -> int:
        """Application payload bytes inside the message: shard or value
        content, excluding all framing."""
        return (getattr(self, "_wire_cache", None) or _measure(self))[1]


@dataclass
class Prepare(_Message):
    sender: int
    ballot: U64
    from_slot: U64


@dataclass
class PrepareEntry:
    slot: U64
    accepted_ballot: U64
    vid: U64  # value identity: digest of the proposed payload
    committed: Flag
    sized: Flag  # payload_len is known
    commit_ballot: U64  # 0 = not known exactly
    c: U8  # shards per server of the acceptance; 0 = none accepted or learned
    payload_len: U32
    shards: Shards


@dataclass
class PrepareReply(_Message):
    sender: int
    ballot: U64
    ok: Flag
    promised: U64
    commit_below: U64  # responder's committed prefix; slots below are settled
    entries: List32[PrepareEntry] = field(default_factory=list)


@dataclass
class Accept(_Message):
    """A proposal's shards for one server. The slot's layout, and so which
    shards the receiver gets, follows from c (assignment.slot_policy)."""

    sender: int
    slot: U64
    ballot: U64
    q: U8
    c: U8
    payload_len: U32
    vid: U64  # value identity: digest of the whole payload
    shards: Shards  # the receiver's slice of the slot's policy
    sent_at: F64


@dataclass
class AcceptReply(_Message):
    sender: int
    slot: U64
    ballot: U64
    ok: Flag
    promised: U64
    persisted: IdxSet
    echo: F64


@dataclass
class Heartbeat(_Message):
    sender: int
    ballot: U64
    commit_idx: U64  # highest committed slot + 1 (0 = nothing committed)
    sent_at: F64


@dataclass
class HeartbeatReply(_Message):
    sender: int
    ballot: U64
    ok: Flag
    promised: U64
    echo: F64


class Want(NamedTuple):
    """One slot of a shard request: the responder returns at most `need` of
    the listed shards, lowest index first, and a responder holding only raw
    shards returns those of the listed ones it has. `need` is the asker's d
    minus the shards it holds or has asked for elsewhere."""

    slot: U64
    idxs: IdxSet
    need: U8


@dataclass
class Reconstruct(_Message):
    """Shard request: one Want per slot."""

    sender: int
    wants: List32[Want]


@dataclass
class ReconEntry:
    slot: U64
    has_data: Flag
    authoritative: Flag  # responder decoded the value; shards re-derived from it
    sized: Flag  # payload_len is known
    accepted_ballot: U64
    vid: U64  # identity of the value the shards belong to
    commit_ballot: U64  # 0 = not known exactly
    payload_len: U32
    shards: Shards


@dataclass
class ReconstructReply(_Message):
    sender: int
    entries: List32[ReconEntry]


@dataclass
class Command:
    kind: Kind  # PUT | GET
    key: Text
    value: Blob
    client: U32
    seq: U64


@dataclass
class ClientRequest(_Message):
    sender: int
    commands: List16[Command]


@dataclass
class ReplyEntry:
    client: U32
    seq: U64
    status: Status  # OK | NOT_FOUND
    value: Blob
    version: U64


@dataclass
class ClientReply(_Message):
    sender: int
    entries: List16[ReplyEntry]
    redirect: U16  # suggested leader id; NO_REDIRECT = no hint


_TYPES = [
    Prepare, PrepareReply, Accept, AcceptReply, Heartbeat, HeartbeatReply,
    Reconstruct, ReconstructReply, ClientRequest, ClientReply,
]
for _cls in _TYPES:
    _codec(_cls, skip=1)  # skip `sender`, which the envelope carries
_BATCH = _Many(_codec(Command), "H")

_HEAD = struct.Struct("!IBH")  # total length, type tag, sender


def encode(msg) -> bytes:
    out = [b""]
    _CODECS[type(msg)].write(msg, out)
    out[0] = _HEAD.pack(_HEAD.size + sum(map(len, out)), _TYPES.index(type(msg)) + 1, msg.sender)
    return b"".join(out)


def decode(buf: bytes, off: int = 0):
    """Returns (message, next offset). Raises MalformedMessageError on bad
    input."""
    if len(buf) - off < _HEAD.size:
        raise MalformedMessageError("short envelope")
    total, tag, sender = _HEAD.unpack_from(buf, off)
    end = off + total
    if end > len(buf):
        raise MalformedMessageError("length prefix past end of buffer")
    if not 1 <= tag <= len(_TYPES):
        raise MalformedMessageError(f"unknown type tag {tag}")
    cls, vals = _TYPES[tag - 1], [sender]
    if _read(_CODECS[cls], buf, off + _HEAD.size, end, vals) != end:
        raise MalformedMessageError("body length mismatch")
    return cls(*vals), end


def _read(kind, buf, off: int, end: int, vals: list) -> int:
    try:
        return kind.read(buf, off, end, vals)
    except struct.error as e:
        raise MalformedMessageError(_TRUNCATED) from e


def _measure(msg) -> tuple[int, int]:
    size, payload = _CODECS[type(msg)].measure(msg)
    msg._wire_cache = sizes = (_HEAD.size + size, payload)
    return sizes


def wire_size(msg) -> int:
    """len(encode(msg)), added up from the declared layout without packing
    anything; cached on the message with its payload count."""
    return (getattr(msg, "_wire_cache", None) or _measure(msg))[0]


def payload_nbytes(msg) -> int:
    """Application payload bytes inside a message; used to split link
    totals into payload vs header traffic."""
    return (getattr(msg, "_wire_cache", None) or _measure(msg))[1]


def encode_batch(cmds: list[Command]) -> bytes:
    """A proposal's payload: a u16 count, then each command."""
    out: list[bytes] = []
    _BATCH.write(cmds, out)
    return b"".join(out)


def decode_batch(payload: bytes) -> list[Command]:
    """The commands of an encode_batch payload."""
    out: list[list[Command]] = []
    _read(_BATCH, payload, 0, len(payload), out)
    return out[0]
