"""Benchmark the wire codec on a fixed mix of all ten message types.

Usage: python3 benchmarks/bench_wire.py [--repeat 5]

The mix holds one message of each type, shaped like the traffic of a
5-server cluster: an Accept carrying two 64 B shards, the replies and
heartbeats around it, a four-slot Reconstruct and its two-entry reply, a
three-entry PrepareReply and a one-put client exchange. Prints the best
time per call, in microseconds, of `wire_size` on messages never sized
before (the size is cached on a message once counted), `encode`, `decode`,
and `encode_batch` / `decode_batch` of an 8-command batch of 128 B puts.
"""

import argparse
import copy
import time

from crossword.protocol import wire
from crossword.protocol.wire import (
    Accept,
    AcceptReply,
    ClientReply,
    ClientRequest,
    Command,
    Heartbeat,
    HeartbeatReply,
    Prepare,
    PrepareEntry,
    PrepareReply,
    ReconEntry,
    Reconstruct,
    ReconstructReply,
    ReplyEntry,
)

ROUNDS = 2000  # passes over the mix per timed run


def mix() -> list:
    shard = bytes(range(64))
    return [
        Prepare(1, 12, 4000),
        PrepareReply(2, 12, True, 12, 4000, [
            PrepareEntry(4000 + i, 11, 0xFEED + i, i == 0, True, 11, 2, 128, {i: shard, i + 1: shard})
            for i in range(3)
        ]),
        Accept(0, 4001, 12, 4, 2, 128, 0xABCD, {1: shard, 2: shard}, 1234.5),
        AcceptReply(3, 4001, 12, True, 12, frozenset({1, 2}), 1234.5),
        Heartbeat(0, 12, 4001, 1240.0),
        HeartbeatReply(4, 12, True, 12, 1240.0),
        Reconstruct(2, [(3990 + i, frozenset({0, 1, 2, 3, 4}) - {i}, 2) for i in range(4)]),
        ReconstructReply(3, [
            ReconEntry(3990 + i, True, False, True, 12, 0xBEEF, 12, 128, {i: shard, i + 1: shard})
            for i in range(2)
        ]),
        ClientRequest(7, [Command(wire.PUT, "key-17", b"v" * 128, 7, 42)]),
        ClientReply(0, [ReplyEntry(7, 42, wire.OK, b"", 9)], wire.NO_REDIRECT),
    ]


def best_of(repeat: int, fn, setup=lambda: None) -> float:
    """Best wall time of fn(setup()) over `repeat` runs; setup is untimed."""
    best = float("inf")
    for _ in range(repeat):
        arg = setup()
        t0 = time.perf_counter()
        fn(arg)
        best = min(best, time.perf_counter() - t0)
    return best


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--repeat", type=int, default=5, help="timing repetitions (best-of)")
    args = ap.parse_args()
    msgs = mix()
    assert {type(m) for m in msgs} == set(wire._TYPES)
    raws = [wire.encode(m) for m in msgs] * ROUNDS
    batch = [Command(wire.PUT, f"key-{i}", b"v" * 128, 1 + i % 4, 100 + i) for i in range(8)]
    payload = wire.encode_batch(batch)
    n = len(msgs) * ROUNDS

    def sizes(fresh):
        for m in fresh:
            wire.wire_size(m)

    def encodes(_):
        for _ in range(ROUNDS):
            for m in msgs:
                wire.encode(m)

    def decodes(_):
        for raw in raws:
            wire.decode(raw)

    def encode_batches(_):
        for _ in range(ROUNDS):
            wire.encode_batch(batch)

    def decode_batches(_):
        for _ in range(ROUNDS):
            wire.decode_batch(payload)

    rows = [
        ("wire_size, uncached", n, best_of(args.repeat, sizes,
                                           lambda: [copy.copy(m) for m in msgs * ROUNDS])),
        ("encode", n, best_of(args.repeat, encodes)),
        ("decode", n, best_of(args.repeat, decodes)),
        ("encode_batch (8 puts)", ROUNDS, best_of(args.repeat, encode_batches)),
        ("decode_batch (8 puts)", ROUNDS, best_of(args.repeat, decode_batches)),
    ]
    print(f"{'operation':<24} {'calls':>7} {'us/call':>9}")
    for name, calls, secs in rows:
        print(f"{name:<24} {calls:>7} {secs / calls * 1e6:>9.2f}")


if __name__ == "__main__":
    main()
