"""Span tracing from outside the program.

The tracer replaces public entry points of the program's modules with thin
wrappers for the length of one simulation, records one span per call
(name, parent span, start, end) and restores the originals afterwards.
Nothing inside the program is edited. A span's self time is its duration
minus the durations of its direct children.
"""

from __future__ import annotations

import json
import time
from collections import Counter

import crossword.erasure as erasure_mod
import crossword.harness.runner as runner_mod
import crossword.protocol.replica as replica_mod
from crossword.harness.workload import ClosedLoopClient
from crossword.protocol import wire
from crossword.protocol.replica import Replica
from crossword.simnet import SimNet
from crossword.tuner import RttTuner

CLIENT_BASE = runner_mod.CLIENT_BASE
READER_BASE = runner_mod.READER_BASE

MSG_TYPES = (
    "Prepare", "PrepareReply", "Accept", "AcceptReply", "Heartbeat",
    "HeartbeatReply", "Reconstruct", "ReconstructReply", "ClientRequest",
)
REPL_TYPES = MSG_TYPES[:-1]  # the types replicas send to each other
TIMERS = ("gossip", "hb", "batch", "elect")


class Tracer:
    def __init__(self, n: int):
        self.n = n
        self.names: list[str] = []
        self.parents: list[int] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self._open: list[int] = []
        self.bytes: Counter = Counter()
        self.counts: Counter = Counter()  # counts that are not span counts
        self.restarts: list[tuple[int, float, int]] = []  # (rid, at_ms, target exec_idx)
        self._undo: list[tuple[object, str, object]] = []

    # ------------------------------------------------------------ spans

    def begin(self, name: str) -> int:
        i = len(self.names)
        self.names.append(name)
        self.parents.append(self._open[-1] if self._open else -1)
        self.ends.append(0.0)
        self._open.append(i)
        self.starts.append(time.perf_counter())
        return i

    def end(self, i: int) -> None:
        self.ends[i] = time.perf_counter()
        self._open.pop()

    def call(self, name: str, fn, *args):
        i = self.begin(name)
        try:
            return fn(*args)
        finally:
            self.end(i)

    def _wrap(self, owner, attr: str, name_of, on_call=None) -> None:
        orig = getattr(owner, attr)
        tracer = self

        def wrapper(*args):
            if on_call is not None:
                on_call(*args)
            i = tracer.begin(name_of(args))
            try:
                return orig(*args)
            finally:
                tracer.end(i)

        self._undo.append((owner, attr, orig))
        setattr(owner, attr, wrapper)

    # ------------------------------------------------------------ patching

    def install(self) -> None:
        n = self.n
        counts, nbytes = self.counts, self.bytes
        ClientRequest, ClientReply = wire.ClientRequest, wire.ClientReply
        no_redirect = wire.NO_REDIRECT

        def on_send(net, src, dst, msg, size, payload_bytes=0):
            if not net.links[(src, dst)].up:
                return
            counts["simnet.msgs"] += 1
            kind = type(msg)
            if src < n and dst < n:
                nbytes["repl_bytes." + kind.__name__] += size
            elif kind is ClientRequest and CLIENT_BASE <= src < READER_BASE:
                counts["client.requests"] += 1
            elif kind is ClientReply and not msg.entries and msg.redirect != no_redirect:
                counts["client.redirects"] += 1

        def on_client_timer(client, tag, now):
            if tag[0] == "retry" and client.current is not None and tag[1] == client.seq:
                counts["client.retries"] += 1

        def on_restart(replica, now):
            peers = [
                r.commit_idx for r in replica.env.net.nodes.values()
                if isinstance(r, Replica) and r is not replica
            ]
            self.restarts.append((replica.id, now, max(peers, default=0)))

        def add_bytes(name, count):
            def note(*args):
                nbytes[name] += count(*args)
            return note

        fixed = lambda name: (lambda args: name)
        self._wrap(SimNet, "step", fixed("simnet.step"))
        self._wrap(SimNet, "send", fixed("simnet.send"), on_send)
        self._wrap(Replica, "on_message", lambda a: "replica.msg." + type(a[2]).__name__)
        self._wrap(Replica, "on_timer", lambda a: "replica.timer." + a[1][0])
        self._wrap(Replica, "on_persist_done", fixed("replica.persist"))
        self._wrap(Replica, "on_restart", fixed("replica.restart"), on_restart)
        self._wrap(ClosedLoopClient, "on_message", fixed("client"))
        self._wrap(ClosedLoopClient, "on_timer", fixed("client"), on_client_timer)
        self._wrap(replica_mod, "encode", fixed("erasure.encode"),
                   add_bytes("erasure.encode", lambda payload, scheme: len(payload)))
        self._wrap(replica_mod, "reconstruct", fixed("erasure.reconstruct"),
                   add_bytes("erasure.reconstruct", lambda present, scheme, plen: plen))
        self._wrap(replica_mod, "encode_shard", fixed("erasure.encode_shard"))
        self._wrap(erasure_mod, "gf_matmul", fixed("erasure.gf_matmul"),
                   add_bytes("erasure.gf_matmul", lambda m, s: m.shape[0] * s.size))
        self._wrap(wire, "wire_size", fixed("wire.wire_size"))
        self._wrap(wire, "payload_nbytes", fixed("wire.payload_nbytes"))
        kv_bytes = add_bytes(
            "hashing.state_hash",
            lambda kv, c, e: sum(len(k) + len(v) for k, v in kv.items()),
        )
        self._wrap(runner_mod, "state_hash", fixed("hashing.state_hash"), kv_bytes)
        self._wrap(replica_mod, "state_hash", fixed("hashing.state_hash"), kv_bytes)
        self._wrap(RttTuner, "choose", fixed("tuner.choose"))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, orig = self._undo.pop()
            setattr(owner, attr, orig)

    # ------------------------------------------------------------ results

    def summary(self) -> dict[str, dict[str, float]]:
        """name -> {"s": inclusive seconds, "self_s": self seconds, "calls": n}."""
        child = [0.0] * len(self.names)
        for i, p in enumerate(self.parents):
            if p >= 0:
                child[p] += self.ends[i] - self.starts[i]
        out: dict[str, dict[str, float]] = {}
        for i, name in enumerate(self.names):
            dur = self.ends[i] - self.starts[i]
            agg = out.setdefault(name, {"s": 0.0, "self_s": 0.0, "calls": 0})
            agg["s"] += dur
            agg["self_s"] += dur - child[i]
            agg["calls"] += 1
        return out

    def write(self, path, header: dict) -> None:
        """All spans as one JSON document: a name table, then one
        [name index, parent span, start us, end us] row per span, with times
        relative to the first span."""
        table = sorted(set(self.names))
        index = {name: i for i, name in enumerate(table)}
        base = self.starts[0] if self.starts else 0.0
        spans = [
            [index[name], parent, round((s - base) * 1e6, 1), round((e - base) * 1e6, 1)]
            for name, parent, s, e in zip(self.names, self.parents, self.starts, self.ends)
        ]
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({**header, "names": table, "spans": spans}, fh, separators=(",", ":"))
