"""Single replica of the replicated KV log.

One object per node, driven entirely by simulator callbacks (messages,
timers, persist completions). The same state machine serves three operating
modes: adaptive per-instance coding configs, fixed full-copy replication
(payloads sent verbatim), and fixed single-shard coding with a reduced
failure budget.

Slot indices are 0-based. commit_idx / exec_idx name the first slot NOT yet
committed / executed, so slots [0, commit_idx) are committed.

Every proposal carries a value identity (vid), a digest of the whole
payload. Shards are only ever pooled for reconstruction when their vids
match, which makes cross-ballot merging safe: re-acceptance of a value at a
higher ballot keeps its vid, while a genuinely different proposal gets a new
one. All recovery paths (takeover merging, gossip, reconstruction reads)
key on vid rather than on ballot equality.

Durability model: promises, accepted shards with their per-slot metadata,
and snapshots survive a crash; commit knowledge, decoded payloads, and
shards obtained by gossip do not. A restarted replica re-learns commits from
heartbeats and may regress slots from known back to partial.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass, field
from typing import Any, Callable

from ..assignment import (
    AssignmentPolicy,
    ClusterParams,
    balanced_rr,
    decode_bitmap,
    encode_bitmap,
)
from ..erasure import CodingScheme, encode, encode_shard, reconstruct, shard_len
from ..quorum import (
    Config,
    check_commit_rr,
    multipaxos_config,
    nodes,
    rspaxos_config,
    subcover,
)
from ..tuner import RttTuner
from . import wire
from .hashing import state_hash

__all__ = ["Instance", "Replica", "ReplicaConfig", "Status", "value_id"]


class Status:
    NULL = 0
    ACCEPTING = 1
    COMMITTED_PARTIAL = 2
    COMMITTED_KNOWN = 3
    EXECUTED = 4


FOLLOWER, CANDIDATE, LEADER = "follower", "candidate", "leader"


def value_id(payload: bytes) -> int:
    """64-bit payload digest; nonzero so 0 can mean "unknown"."""
    return int.from_bytes(hashlib.sha256(payload).digest()[:8], "big") or 1


@dataclass
class ReplicaConfig:
    params: ClusterParams
    protocol: str = "crossword"  # crossword | multipaxos | rspaxos
    chooser: str = "regression"  # regression | threshold | fixed | unbalanced
    chooser_table: tuple[tuple[int, int], ...] = ()  # (min_bytes, c), checked descending
    fixed_q: int = 0
    fixed_c: int = 0
    unbalanced_policy: AssignmentPolicy | None = None
    unbalanced_scheme: CodingScheme | None = None
    heartbeat_ms: float = 20.0
    election_min_ms: float = 300.0
    election_max_ms: float = 600.0
    gossip_enabled: bool = True
    gossip_cycle_ms: float = 20.0
    deferral_bytes: int = 400_000
    straggler_cycles: int = 10
    gossip_batching: bool = True
    batch_ms: float = 1.0
    lease_enabled: bool = True
    lease_drift_ms: float = 100.0
    snapshot_stride: int = 1000  # executed slots between snapshots; 0 disables
    healthy_window_ms: float = 150.0
    follower_reads: bool = False
    initial_leader: int = 0
    seed: int | str = 0

    def __post_init__(self):
        if self.protocol == "rspaxos":
            # followers hold single shards they cannot decode; there is no
            # follower repair path in this mode
            self.gossip_enabled = False


@dataclass
class Instance:
    """One log slot as this replica sees it."""

    ballot: int = 0  # highest ballot accepted here; 0 = none
    kind: int = wire.KIND_RR
    q: int = 0
    c: int = 0
    scheme: CodingScheme | None = None
    payload_len: int = 0
    scheme_vid: int = 0  # vid of the value scheme/payload_len describe
    value_id: int = 0  # vid of the acceptance held in own_shards
    assignment: AssignmentPolicy | None = None
    own_shards: dict[int, bytes] = field(default_factory=dict)  # durable
    gossip_shards: dict[int, bytes] = field(default_factory=dict)  # volatile, commit-vid only
    status: int = Status.NULL
    committed: bool = False
    commit_ballot: int = 0  # exact committing ballot when known, else 0
    commit_vid: int = 0  # vid of the committed value when known, else 0
    payload: bytes | None = None  # volatile decoded value
    batch: list[wire.Command] | None = None
    # leader bookkeeping (volatile)
    replies: dict[int, frozenset[int]] = field(default_factory=dict)
    sent_sizes: dict[int, int] = field(default_factory=dict)
    proposed_at: float = 0.0

    def shard_pool(self) -> dict[int, bytes]:
        """Shards known to carry the committed value."""
        if not self.commit_vid:
            return {}
        pool = dict(self.gossip_shards)
        if self.value_id == self.commit_vid:
            pool.update(self.own_shards)
        return pool


def _data_stripes(payload: bytes, scheme: CodingScheme) -> dict[int, bytes]:
    slen = shard_len(len(payload), scheme)
    padded = payload + b"\x00" * (scheme.d * slen - len(payload))
    return {i: padded[i * slen : (i + 1) * slen] for i in range(scheme.d)}


def encode_batch(cmds: list[wire.Command]) -> bytes:
    w = wire._Writer()
    w.u16(len(cmds))
    for c in cmds:
        c._body(w)
    return b"".join(w.parts)


def decode_batch(payload: bytes) -> list[wire.Command]:
    r = wire._Reader(payload)
    return [wire.Command._parse(r) for _ in range(r.u16())]


class _SlotSums:
    """Fenwick (binary indexed) tree over one non-negative count per slot:
    point updates, prefix sums and the prefix search each take O(log slots).
    The capacity is a power of two and doubles on demand."""

    def __init__(self):
        self.size = 1024
        self._tree = [0] * (self.size + 1)  # 1-based; node i covers (i - lowbit(i), i]

    def add(self, slot: int, delta: int) -> None:
        i = slot + 1
        while i > self.size:
            # the new upper half is all zeros, so of its nodes only the new
            # root, which covers everything, is nonzero
            self._tree.extend([0] * self.size)
            self._tree[2 * self.size] = self._tree[self.size]
            self.size *= 2
        tree, size = self._tree, self.size
        while i <= size:
            tree[i] += delta
            i += i & -i

    def prefix(self, slot: int) -> int:
        """Sum over slots [0, slot]."""
        tree = self._tree
        i = min(slot + 1, self.size)
        total = 0
        while i > 0:
            total += tree[i]
            i &= i - 1
        return total

    def count_below(self, bound: int) -> int:
        """The largest k such that the sum over slots [0, k) is < bound."""
        tree, size = self._tree, self.size
        pos = 0
        step = size
        while step:
            nxt = pos + step
            if nxt <= size and tree[nxt] < bound:
                pos = nxt
                bound -= tree[nxt]
            step >>= 1
        return pos


class Replica:
    def __init__(self, env, cfg: ReplicaConfig, rid: int, trace: Callable | None = None):
        self.env = env
        self.cfg = cfg
        self.params = cfg.params
        self.id = rid
        self.n = cfg.params.n
        self.peers = [p for p in range(self.n) if p != rid]
        self.trace = trace or (lambda *a: None)
        self._rng = random.Random(f"{cfg.seed}:{rid}:elect")

        # durable
        self.promised = 0
        self.log: dict[int, Instance] = {}
        self.snap_end = 0
        self.snap_kv: dict[str, bytes] = {}
        self.snap_versions: dict[str, int] = {}
        self.snap_sessions: dict[int, tuple[int, wire.ReplyEntry]] = {}

        # volatile
        self.role = FOLLOWER
        self.current_ballot = 0
        self.leader_hint: int | None = cfg.initial_leader
        self.commit_idx = 0
        self.exec_idx = 0
        self.kv: dict[str, bytes] = {}
        self.versions: dict[str, int] = {}
        self.sessions: dict[int, tuple[int, wire.ReplyEntry]] = {}
        self.max_slot = -1
        self._lens = _SlotSums()  # payload_len of every slot in the log
        self._staged: dict[tuple, wire.Accept] = {}
        self._pending_self: dict[tuple[int, int], dict[int, bytes]] = {}
        self._election_gen = 0
        self._gossip_gen = 0
        self._votes: dict[int, list[wire.PrepareEntry]] = {}
        self._vote_commit_below = 0
        self._prepare_from = 0

        # leader volatile
        self.tuner: RttTuner | None = None
        self.next_slot = 0
        self.pending: list[wire.Command] = []
        self._batch_armed = False
        self.last_reply_from: dict[int, float] = {}
        self.inflight_seq: dict[int, int] = {}
        self.recon_bytes_as_leader = 0

        # gossip volatile
        self.partial_queue: set[int] = set()
        self._cycle = 0
        # unanswered shard asks: slot -> {peer: (shards expected, cycle asked)}
        self._outstanding: dict[int, dict[int, tuple[frozenset[int], int]]] = {}

        self._arm_election(initial=True)
        self._arm_gossip()

    # ------------------------------------------------------------- plumbing

    def on_message(self, src: int, msg: Any, now: float) -> None:
        self._DISPATCH[type(msg)](self, src, msg, now)

    def on_timer(self, tag: Any, now: float) -> None:
        kind = tag[0]
        if kind == "elect":
            if tag[1] == self._election_gen and self.role != LEADER:
                self._start_election(now)
        elif kind == "hb":
            if self.role == LEADER and tag[1] == self.current_ballot:
                self._send_heartbeats(now)
        elif kind == "batch":
            self._batch_armed = False
            if self.role == LEADER and self.pending:
                cmds, self.pending = self.pending, []
                self._propose_batch(cmds, now)
        elif kind == "gossip":
            if tag[1] == self._gossip_gen:
                self._gossip_tick(now)
                self.env.set_timer(self.cfg.gossip_cycle_ms, tag)

    def on_persist_done(self, tag: Any, now: float) -> None:
        if tag[0] == "ap":
            self._finish_accept_persist(tag, now)
        elif tag[0] == "lp":
            self._finish_leader_persist(tag, now)

    def on_restart(self, now: float) -> None:
        """Volatile state is gone; durable log/snapshot/promise survive."""
        self.role = FOLLOWER
        self.current_ballot = 0
        self.leader_hint = None
        self.kv = dict(self.snap_kv)
        self.versions = dict(self.snap_versions)
        self.sessions = dict(self.snap_sessions)
        self.commit_idx = self.snap_end
        self.exec_idx = self.snap_end
        self._staged.clear()
        self._pending_self.clear()
        self._votes = {}
        self.tuner = None
        self.pending = []
        self._batch_armed = False
        self.last_reply_from = {}
        self.inflight_seq = {}
        self.partial_queue = set()
        self._outstanding = {}
        self._cycle = 0
        for inst in self.log.values():
            inst.gossip_shards = {}
            inst.payload = None
            inst.batch = None
            inst.replies = {}
            inst.sent_sizes = {}
            inst.committed = False
            inst.commit_ballot = 0
            inst.commit_vid = 0
            if inst.status != Status.NULL:
                inst.status = Status.ACCEPTING if inst.ballot else Status.NULL
            if inst.kind == wire.KIND_VERBATIM and inst.scheme and len(inst.own_shards) == inst.scheme.d:
                # full-copy payloads are durable via their stripes
                inst.payload = b"".join(
                    inst.own_shards[i] for i in range(inst.scheme.d)
                )[: inst.payload_len]
        self._arm_election()
        self._arm_gossip()
        self.trace("restart", self.id, now)

    def _arm_gossip(self) -> None:
        self._gossip_gen += 1
        self.env.set_timer(self.cfg.gossip_cycle_ms, ("gossip", self._gossip_gen))

    # ------------------------------------------------------------ elections

    def _arm_election(self, initial: bool = False) -> None:
        self._election_gen += 1
        if initial and self.id == self.cfg.initial_leader:
            delay = 1.0
        else:
            delay = self._rng.uniform(self.cfg.election_min_ms, self.cfg.election_max_ms)
        self.env.set_timer(delay, ("elect", self._election_gen))

    def _start_election(self, now: float) -> None:
        counter = self.promised // self.n + 1
        ballot = counter * self.n + self.id
        while ballot <= self.promised:
            counter += 1
            ballot = counter * self.n + self.id
        self.promised = ballot
        self.current_ballot = ballot
        self.role = CANDIDATE
        self._prepare_from = self.commit_idx
        self._votes = {self.id: self._prepare_entries(self._prepare_from)}
        self._vote_commit_below = self.commit_idx
        for p in self.peers:
            self.env.send(p, wire.Prepare(self.id, ballot, self._prepare_from))
        self._arm_election()  # retry with a fresh timeout if this stalls
        self.trace("candidate", self.id, ballot, now)

    def _prepare_entries(self, from_slot: int) -> list[wire.PrepareEntry]:
        entries = []
        for slot in sorted(s for s in self.log if s >= from_slot):
            inst = self.log[slot]
            if inst.committed and inst.payload is not None and inst.scheme:
                # value in hand: re-derived data stripes recover it anywhere
                entries.append(
                    wire.PrepareEntry(
                        slot=slot,
                        accepted_ballot=inst.ballot,
                        vid=inst.commit_vid or inst.value_id,
                        committed=True,
                        commit_ballot=inst.commit_ballot,
                        n_shards=inst.scheme.n_shards,
                        d=inst.scheme.d,
                        payload_len=inst.payload_len,
                        bitmap=encode_bitmap(inst.assignment) if inst.assignment else b"",
                        shards=_data_stripes(inst.payload, inst.scheme),
                    )
                )
                continue
            if inst.ballot == 0 and not inst.committed:
                continue
            shards = dict(inst.own_shards)
            if inst.commit_vid and inst.commit_vid == inst.value_id:
                shards.update(inst.gossip_shards)
            entries.append(
                wire.PrepareEntry(
                    slot=slot,
                    accepted_ballot=inst.ballot,
                    vid=inst.value_id,
                    committed=inst.committed,
                    commit_ballot=inst.commit_ballot,
                    n_shards=inst.scheme.n_shards if inst.scheme else 0,
                    d=inst.scheme.d if inst.scheme else 0,
                    payload_len=inst.payload_len,
                    bitmap=encode_bitmap(inst.assignment) if inst.assignment else b"",
                    shards=shards,
                )
            )
        return entries

    def _on_prepare(self, src: int, m: wire.Prepare, now: float) -> None:
        if m.ballot >= self.promised:
            self.promised = m.ballot
            self.role = FOLLOWER
            self.leader_hint = m.ballot % self.n
            self._arm_election()
            entries = self._prepare_entries(m.from_slot)
            self.env.send(
                src,
                wire.PrepareReply(self.id, m.ballot, True, self.promised, self.commit_idx, entries),
            )
        else:
            self.env.send(
                src, wire.PrepareReply(self.id, m.ballot, False, self.promised, self.commit_idx, [])
            )

    def _on_prepare_reply(self, src: int, m: wire.PrepareReply, now: float) -> None:
        if not m.ok:
            self._step_down(m.promised)
            return
        if self.role != CANDIDATE or m.ballot != self.current_ballot:
            return
        self._votes[src] = m.entries
        self._vote_commit_below = max(self._vote_commit_below, m.commit_below)
        if len(self._votes) < self.params.m:
            return
        if self._vote_commit_below > self.commit_idx:
            # a fresher replica exists; yield so leadership lands on a node
            # that already holds the longer committed prefix
            self.role = FOLLOWER
            self._arm_election()
            return
        self._become_leader(now)

    def _become_leader(self, now: float) -> None:
        self.role = LEADER
        self.leader_hint = self.id
        self.tuner = RttTuner(self.params)
        self.last_reply_from = {}
        self.inflight_seq = {}
        self.recon_bytes_as_leader = 0
        self.trace("leader", self.id, self.current_ballot, now)

        resolved = self._merge_votes()
        top = max(resolved) if resolved else self._prepare_from - 1
        self.next_slot = max(self._prepare_from, top + 1, self.max_slot + 1)
        for slot in sorted(resolved):
            action, payload = resolved[slot]
            if action == "repropose":
                self._propose_at(slot, payload, now)
            elif action == "noop":
                self._propose_at(slot, encode_batch([]), now)
            # "partial": known committed, value not yet recoverable; left to
            # reconstruction reads
        while (inst := self.log.get(self.commit_idx)) is not None and inst.committed:
            self.commit_idx += 1
        self._execute_ready(now)
        self._send_heartbeats(now)
        self._leader_reconstruct_tick(now)

    def _merge_votes(self) -> dict[int, tuple[str, bytes | None]]:
        by_slot: dict[int, list[wire.PrepareEntry]] = {}
        for entries in self._votes.values():
            for e in entries:
                by_slot.setdefault(e.slot, []).append(e)
        out: dict[int, tuple[str, bytes | None]] = {}
        top_seen = max(by_slot, default=self._prepare_from - 1)
        for slot in range(self._prepare_from, top_seen + 1):
            entries = by_slot.get(slot, [])
            committed_any = any(e.committed for e in entries)
            accepted = [e for e in entries if e.accepted_ballot > 0]
            if accepted:
                ref = max(accepted, key=lambda e: e.accepted_ballot)
            else:
                tagged = [e for e in entries if e.vid and e.committed]
                ref = tagged[0] if tagged else None
            if ref is None or not ref.vid:
                if committed_any:
                    out[slot] = ("partial", None)
                    self._note_partial(slot, entries, 0)
                else:
                    out[slot] = ("noop", None)
                continue
            target = ref.vid
            scheme = CodingScheme(ref.n_shards, ref.d) if ref.n_shards else self.params.scheme
            pool: dict[int, bytes] = {}
            for e in entries:
                if e.vid == target and (e.n_shards, e.d) == (scheme.n_shards, scheme.d):
                    pool.update(e.shards)
            if len(pool) >= scheme.d:
                chosen = {k: pool[k] for k in sorted(pool)[: scheme.d]}
                out[slot] = ("repropose", reconstruct(chosen, scheme, ref.payload_len))
            elif committed_any:
                out[slot] = ("partial", None)
                self._note_partial(slot, entries, target)
            else:
                # the top proposal cannot have been chosen: a chosen value
                # would cover >= d vid-matched shards in any m replies
                out[slot] = ("noop", None)
        return out

    def _note_partial(self, slot: int, entries: list[wire.PrepareEntry], vid: int) -> None:
        inst = self.log.setdefault(slot, Instance())
        self.max_slot = max(self.max_slot, slot)
        inst.committed = True
        if inst.status < Status.COMMITTED_PARTIAL:
            inst.status = Status.COMMITTED_PARTIAL
        if vid and not inst.commit_vid:
            inst.commit_vid = vid
        for e in entries:
            if e.commit_ballot:
                inst.commit_ballot = max(inst.commit_ballot, e.commit_ballot)
            self._absorb_remote_shards(
                slot, inst, e.vid, e.n_shards, e.d, e.payload_len, e.shards
            )
            if e.bitmap and inst.assignment is None and e.n_shards == (
                inst.scheme.n_shards if inst.scheme else 0
            ):
                inst.assignment = decode_bitmap(e.bitmap, self.n, e.n_shards)
        self.partial_queue.add(slot)

    def _absorb_remote_shards(
        self,
        slot: int,
        inst: Instance,
        vid: int,
        n_shards: int,
        d: int,
        payload_len: int,
        shards: dict[int, bytes],
    ) -> None:
        """Fold one remote slot description into `inst`.

        Geometry (scheme/payload_len) must describe the committed value:
        adopt it from an entry whose vid matches commit_vid, overriding any
        geometry inherited from a superseded proposal. Shards pool only when
        both the vid and the codeword layout agree with what is stored, so a
        decode never mixes shards from two different proposals."""
        matched = bool(inst.commit_vid) and vid == inst.commit_vid
        if n_shards and (
            inst.scheme is None
            or (matched and inst.scheme_vid != inst.commit_vid)
        ):
            if inst.scheme is None or (inst.scheme.n_shards, inst.scheme.d) != (n_shards, d):
                inst.gossip_shards.clear()
            inst.scheme = CodingScheme(n_shards, d)
            self._set_payload_len(slot, inst, payload_len)
            inst.scheme_vid = vid
        if (
            matched
            and shards
            and inst.scheme is not None
            and inst.scheme_vid == inst.commit_vid
            and (n_shards, d) == (inst.scheme.n_shards, inst.scheme.d)
        ):
            inst.gossip_shards.update(shards)

    def _step_down(self, higher: int) -> None:
        if higher > self.promised:
            self.promised = higher
        if self.role != FOLLOWER and higher > self.current_ballot:
            self.role = FOLLOWER
            self._arm_election()

    # ------------------------------------------------------------ heartbeat

    def _send_heartbeats(self, now: float) -> None:
        for p in self.peers:
            self.env.send(p, wire.Heartbeat(self.id, self.current_ballot, self.commit_idx, now))
        self.env.set_timer(self.cfg.heartbeat_ms, ("hb", self.current_ballot))

    def _on_heartbeat(self, src: int, m: wire.Heartbeat, now: float) -> None:
        if m.ballot < self.promised:
            self.env.send(
                src, wire.HeartbeatReply(self.id, m.ballot, False, self.promised, m.sent_at)
            )
            return
        self.promised = m.ballot
        self.role = FOLLOWER
        self.leader_hint = m.ballot % self.n
        self._arm_election()
        self._learn_commits(m.commit_idx, m.ballot, now)
        self.env.send(src, wire.HeartbeatReply(self.id, m.ballot, True, self.promised, m.sent_at))

    def _learn_commits(self, leader_commit: int, leader_ballot: int, now: float) -> None:
        if leader_commit <= self.commit_idx:
            return
        for slot in range(self.commit_idx, leader_commit):
            if slot < self.snap_end:
                continue
            inst = self.log.setdefault(slot, Instance())
            self.max_slot = max(self.max_slot, slot)
            if not inst.committed:
                inst.committed = True
                if inst.ballot == leader_ballot:
                    inst.commit_ballot = leader_ballot
                    inst.commit_vid = inst.value_id
                # else: the local acceptance predates this leader and may be
                # a value that lost; commit_vid stays unknown until gossip
                # or a fresh acceptance settles it
            if inst.status < Status.COMMITTED_PARTIAL:
                inst.status = Status.COMMITTED_PARTIAL
            self._try_promote(slot, inst, now)
        self.commit_idx = max(self.commit_idx, leader_commit)
        self._execute_ready(now)

    def _try_promote(self, slot: int, inst: Instance, now: float) -> None:
        """Partial -> known once the committed-vid shard pool reaches d."""
        if not inst.committed or inst.status >= Status.COMMITTED_KNOWN:
            return
        if (
            inst.payload is not None
            and inst.commit_vid
            and inst.value_id == inst.commit_vid
        ):
            self._mark_known(slot, inst)
            return
        if inst.scheme is None:
            self.partial_queue.add(slot)
            return
        if inst.commit_vid and inst.scheme_vid != inst.commit_vid:
            # geometry describes a superseded proposal; wait for metadata
            # from a holder of the committed value before decoding
            self.partial_queue.add(slot)
            return
        pool = inst.shard_pool()
        if len(pool) >= inst.scheme.d:
            chosen = {k: pool[k] for k in sorted(pool)[: inst.scheme.d]}
            inst.payload = reconstruct(chosen, inst.scheme, inst.payload_len)
            inst.batch = None
            self._mark_known(slot, inst)
            self.trace("promote", self.id, slot, now)
        else:
            self.partial_queue.add(slot)

    def _mark_known(self, slot: int, inst: Instance) -> None:
        """The value is in hand: the slot leaves the repair queue, and its
        unanswered shard asks no longer matter, so a slow peer is not made a
        straggler for them."""
        inst.status = Status.COMMITTED_KNOWN
        self.partial_queue.discard(slot)
        self._outstanding.pop(slot, None)

    def _on_heartbeat_reply(self, src: int, m: wire.HeartbeatReply, now: float) -> None:
        if not m.ok:
            self._step_down(m.promised)
            return
        if self.role != LEADER or m.ballot != self.current_ballot:
            return
        self.last_reply_from[src] = now
        self.tuner.record(src, 0.0, now - m.echo, now)

    # ---------------------------------------------------------- client path

    def _on_client_request(self, src: int, m: wire.ClientRequest, now: float) -> None:
        if self.role != LEADER:
            if self.cfg.follower_reads and all(c.kind == wire.GET for c in m.commands):
                entries = [self._read_entry(c) for c in m.commands]
                self.env.send(src, wire.ClientReply(self.id, entries, wire.NO_REDIRECT))
                for c in m.commands:
                    self.trace("follower_read", self.id, c.key, self.versions.get(c.key, 0), now)
                return
            hint = self.leader_hint if self.leader_hint is not None else wire.NO_REDIRECT
            self.env.send(src, wire.ClientReply(self.id, [], hint))
            return
        fresh = []
        for cmd in m.commands:
            sess = self.sessions.get(cmd.client)
            if sess and cmd.seq < sess[0]:
                continue
            if sess and cmd.seq == sess[0]:
                self.env.send(src, wire.ClientReply(self.id, [sess[1]], wire.NO_REDIRECT))
                continue
            if self.inflight_seq.get(cmd.client, -1) >= cmd.seq:
                continue  # already queued or proposed; reply comes on execute
            if (
                cmd.kind == wire.GET
                and self.cfg.lease_enabled
                and self.exec_idx == self.commit_idx
                and self._lease_valid(now)
            ):
                entry = self._read_entry(cmd)
                self.sessions[cmd.client] = (cmd.seq, entry)
                self.env.send(src, wire.ClientReply(self.id, [entry], wire.NO_REDIRECT))
                self.trace("lease_read", self.id, cmd.key, now)
                continue
            self.inflight_seq[cmd.client] = cmd.seq
            fresh.append(cmd)
        if fresh:
            self.pending.extend(fresh)
            if not self._batch_armed:
                self._batch_armed = True
                self.env.set_timer(self.cfg.batch_ms, ("batch",))

    def _read_entry(self, cmd: wire.Command) -> wire.ReplyEntry:
        val = self.kv.get(cmd.key)
        status = wire.OK if val is not None else wire.NOT_FOUND
        return wire.ReplyEntry(cmd.client, cmd.seq, status, val or b"", self.versions.get(cmd.key, 0))

    def _lease_valid(self, now: float) -> bool:
        """No newer leader can exist while a majority of followers answered
        inside the minimum election timeout, minus clock-drift allowance."""
        need = self.params.m - 1
        fresh = sorted(self.last_reply_from.values(), reverse=True)
        if len(fresh) < need:
            return False
        horizon = self.cfg.election_min_ms - self.cfg.lease_drift_ms
        return now - fresh[need - 1] <= horizon

    # -------------------------------------------------------------- propose

    def _choose_config(self, v_p: int, now: float) -> Config:
        if self.cfg.protocol == "multipaxos":
            return multipaxos_config(self.params)
        if self.cfg.protocol == "rspaxos":
            return rspaxos_config(self.params)
        kind = self.cfg.chooser
        if kind == "fixed":
            return Config(q=self.cfg.fixed_q, c=self.cfg.fixed_c)
        if kind == "threshold":
            c = self.params.m
            for min_bytes, table_c in sorted(self.cfg.chooser_table, reverse=True):
                if v_p >= min_bytes:
                    c = table_c
                    break
            return Config(q=self.n + 1 - c, c=c)
        healthy = [
            p for p in self.peers
            if now - self.last_reply_from.get(p, -1e18) <= self.cfg.healthy_window_ms
        ]
        return self.tuner.choose(float(v_p), healthy, now)

    def _propose_batch(self, cmds: list[wire.Command], now: float) -> None:
        slot = self.next_slot
        self.next_slot += 1
        self._propose_at(slot, encode_batch(cmds), now)

    def _propose_at(self, slot: int, payload: bytes, now: float) -> None:
        cfg = self.cfg
        vid = value_id(payload)
        if cfg.chooser == "unbalanced" and cfg.protocol == "crossword":
            scheme = cfg.unbalanced_scheme
            policy = cfg.unbalanced_policy
            kind = wire.KIND_GENERAL
            config = Config(q=0, c=0)
        else:
            scheme = self.params.scheme
            config = self._choose_config(len(payload), now)
            if cfg.protocol == "multipaxos":
                kind = wire.KIND_VERBATIM
                policy = AssignmentPolicy(
                    tuple(frozenset(range(scheme.d)) for _ in range(self.n)), scheme.n_shards
                )
            else:
                kind = wire.KIND_RR
                policy = balanced_rr(self.params, config.c)
        cw = encode(payload, scheme) if kind != wire.KIND_VERBATIM else None
        bitmap = encode_bitmap(policy)
        inst = self.log.setdefault(slot, Instance())
        self.max_slot = max(self.max_slot, slot)
        inst.ballot = self.current_ballot
        inst.kind = kind
        inst.q, inst.c = config.q, config.c
        if inst.scheme is not None and (inst.scheme.n_shards, inst.scheme.d) != (
            scheme.n_shards,
            scheme.d,
        ):
            inst.gossip_shards.clear()  # pooled under a different codeword layout
        inst.scheme = scheme
        self._set_payload_len(slot, inst, len(payload))
        inst.scheme_vid = vid
        inst.value_id = vid
        inst.assignment = policy
        inst.payload = payload
        inst.batch = None
        inst.replies = {}
        inst.sent_sizes = {}
        inst.proposed_at = now
        if inst.committed and not inst.commit_vid:
            inst.commit_vid = vid  # re-proposal of a committed slot carries its value
        if inst.status < Status.ACCEPTING:
            inst.status = Status.ACCEPTING
        for p in self.peers:
            if kind == wire.KIND_VERBATIM:
                shards: dict[int, bytes] = {}
                full = payload
            else:
                shards = {i: cw.shards[i] for i in sorted(policy.shards_of(p))}
                full = b""
            msg = wire.Accept(
                self.id, slot, self.current_ballot, kind, config.q, config.c,
                scheme.n_shards, scheme.d, len(payload), vid, bitmap, shards, full, now,
            )
            inst.sent_sizes[p] = wire.wire_size(msg)
            self.env.send(p, msg)
        own = policy.shards_of(self.id)
        if kind == wire.KIND_VERBATIM:
            own_bytes = len(payload)
            staged = _data_stripes(payload, scheme)
        else:
            staged = {i: cw.shards[i] for i in sorted(own)}
            own_bytes = sum(len(b) for b in staged.values())
        self._pending_self[(slot, self.current_ballot)] = staged
        self.env.persist(max(own_bytes, 1), ("lp", slot, self.current_ballot))
        self.trace("propose", self.id, slot, config.q, config.c, len(payload), now)

    def _finish_leader_persist(self, tag: tuple, now: float) -> None:
        _, slot, ballot = tag
        staged = self._pending_self.pop((slot, ballot), None)
        if staged is None or self.role != LEADER or self.current_ballot != ballot:
            return
        inst = self.log.get(slot)
        if inst is None or inst.ballot != ballot:
            return
        inst.own_shards = staged
        inst.replies[self.id] = (
            frozenset(range(inst.scheme.d))
            if inst.kind == wire.KIND_VERBATIM
            else frozenset(staged)
        )
        self._check_commit(slot, inst, now)

    # ------------------------------------------------------- accept (peers)

    def _on_accept(self, src: int, m: wire.Accept, now: float) -> None:
        if m.ballot < self.promised:
            self.env.send(
                src,
                wire.AcceptReply(
                    self.id, m.slot, m.ballot, False, self.promised, frozenset(), m.sent_at
                ),
            )
            return
        self.promised = m.ballot
        self.role = FOLLOWER
        self.leader_hint = m.ballot % self.n
        self._arm_election()
        nbytes = m.payload_nbytes()
        key = ("ap", m.slot, m.ballot, src)
        self._staged[key] = m
        self.env.persist(max(nbytes, 1), key)

    def _finish_accept_persist(self, key: tuple, now: float) -> None:
        m = self._staged.pop(key, None)
        if m is None:
            return
        if m.ballot < self.promised:
            # a higher promise landed while the write was in flight; this
            # acceptance must not count toward the stale ballot's quorum
            self.env.send(
                m.sender,
                wire.AcceptReply(
                    self.id, m.slot, m.ballot, False, self.promised, frozenset(), m.sent_at
                ),
            )
            return
        inst = self.log.setdefault(m.slot, Instance())
        self.max_slot = max(self.max_slot, m.slot)
        if m.ballot >= inst.ballot:
            scheme = CodingScheme(m.n_shards, m.d)
            same_value = m.vid == inst.value_id
            if inst.scheme is not None and (inst.scheme.n_shards, inst.scheme.d) != (
                scheme.n_shards,
                scheme.d,
            ):
                inst.gossip_shards.clear()  # pooled under a different codeword layout
            inst.ballot = m.ballot
            inst.kind = m.kind
            inst.q, inst.c = m.q, m.c
            inst.scheme = scheme
            self._set_payload_len(m.slot, inst, m.payload_len)
            inst.scheme_vid = m.vid
            inst.assignment = decode_bitmap(m.bitmap, self.n, m.n_shards) if m.bitmap else None
            if m.kind == wire.KIND_VERBATIM:
                inst.payload = m.full_payload
                inst.own_shards = _data_stripes(m.full_payload, scheme)
            elif same_value:
                inst.own_shards.update(m.shards)
            else:
                inst.own_shards = dict(m.shards)
                if not inst.committed:
                    inst.payload = None
                    inst.batch = None
            inst.value_id = m.vid
            if inst.committed and not inst.commit_vid:
                # a post-commit acceptance necessarily carries the committed
                # value: its proposer resolved the slot before proposing
                inst.commit_vid = m.vid
            if inst.status < Status.ACCEPTING:
                inst.status = Status.ACCEPTING
            self._try_promote(m.slot, inst, now)
            self._execute_ready(now)
        persisted = (
            frozenset(range(inst.scheme.d))
            if inst.kind == wire.KIND_VERBATIM and inst.ballot == m.ballot
            else frozenset(inst.own_shards if inst.ballot == m.ballot else m.shards)
        )
        self.env.send(
            m.sender,
            wire.AcceptReply(self.id, m.slot, m.ballot, True, self.promised, persisted, m.sent_at),
        )

    def _on_accept_reply(self, src: int, m: wire.AcceptReply, now: float) -> None:
        if not m.ok:
            self._step_down(m.promised)
            return
        if self.role != LEADER or m.ballot != self.current_ballot:
            return
        inst = self.log.get(m.slot)
        if inst is None or inst.ballot != m.ballot:
            return
        self.last_reply_from[src] = now
        size = inst.sent_sizes.get(src)
        if size is not None:
            self.tuner.record(src, float(size), now - m.echo, now)
        if inst.status != Status.ACCEPTING:
            return
        inst.replies[src] = m.persisted
        self._check_commit(m.slot, inst, now)

    def _check_commit(self, slot: int, inst: Instance, now: float) -> None:
        if inst.status != Status.ACCEPTING or self.role != LEADER:
            return
        if inst.kind == wire.KIND_GENERAL:
            ap = inst.replies
            ok = nodes(ap) >= self.params.m and subcover(ap, self.params.f) >= inst.scheme.d
        else:
            ok = check_commit_rr(Config(inst.q, inst.c), len(inst.replies))
        if not ok:
            return
        inst.committed = True
        inst.commit_ballot = inst.ballot
        inst.commit_vid = inst.value_id
        inst.status = Status.COMMITTED_KNOWN
        self.trace(
            "commit", self.id, slot, inst.q, inst.c, inst.payload_len,
            now - inst.proposed_at, now,
        )
        moved = False
        while (nxt := self.log.get(self.commit_idx)) is not None and nxt.committed:
            self.commit_idx += 1
            moved = True
        if moved:
            self._execute_ready(now)

    # ------------------------------------------------------------ execution

    def _execute_ready(self, now: float) -> None:
        while self.exec_idx < self.commit_idx:
            inst = self.log.get(self.exec_idx)
            if inst is None or inst.status < Status.COMMITTED_KNOWN:
                return
            if inst.status == Status.EXECUTED:
                self.exec_idx += 1
                continue
            if inst.batch is None:
                if inst.payload is None:
                    return
                inst.batch = decode_batch(inst.payload)
            self._apply_batch(self.exec_idx, inst, now)
            inst.status = Status.EXECUTED
            self.exec_idx += 1
        if (
            self.cfg.snapshot_stride
            and self.exec_idx - self.snap_end >= self.cfg.snapshot_stride
        ):
            self._take_snapshot()

    def _apply_batch(self, slot: int, inst: Instance, now: float) -> None:
        for cmd in inst.batch:
            sess = self.sessions.get(cmd.client)
            if sess and cmd.seq <= sess[0]:
                if cmd.seq == sess[0] and self.role == LEADER:
                    self.env.send(cmd.client, wire.ClientReply(self.id, [sess[1]], wire.NO_REDIRECT))
                continue
            if cmd.kind == wire.PUT:
                self.kv[cmd.key] = cmd.value
                self.versions[cmd.key] = self.versions.get(cmd.key, 0) + 1
                entry = wire.ReplyEntry(cmd.client, cmd.seq, wire.OK, b"", self.versions[cmd.key])
                self.trace(
                    "exec_put", self.id, cmd.key, self.versions[cmd.key],
                    cmd.client, cmd.seq, self.role == LEADER, now,
                )
            else:
                entry = self._read_entry(cmd)
            self.sessions[cmd.client] = (cmd.seq, entry)
            if self.role == LEADER:
                self.env.send(cmd.client, wire.ClientReply(self.id, [entry], wire.NO_REDIRECT))
        self.trace(
            "exec_slot", self.id, slot, inst.commit_vid or inst.value_id, inst.payload_len, now
        )

    def _take_snapshot(self) -> None:
        self.snap_end = self.exec_idx
        self.snap_kv = dict(self.kv)
        self.snap_versions = dict(self.versions)
        self.snap_sessions = dict(self.sessions)
        for slot in [s for s in self.log if s < self.snap_end]:
            if self.log[slot].status == Status.EXECUTED:
                self._lens.add(slot, -self.log.pop(slot).payload_len)
        self.trace("snapshot", self.id, self.snap_end)

    # -------------------------------------------------------------- gossip

    def _set_payload_len(self, slot: int, inst: Instance, payload_len: int) -> None:
        self._lens.add(slot, payload_len - inst.payload_len)
        inst.payload_len = payload_len

    def _deferral_boundary(self) -> int:
        """Largest slot old enough to gossip about, or -1; every slot at or
        below it is eligible. It is the larger of two slots:

        - the largest s whose slots [s, max_slot] carry more than
          deferral_bytes of payload. `_lens` holds every slot's payload_len
          in a Fenwick tree, so this is one prefix sum and one prefix search,
          O(log slots);
        - the largest slot that is committed but that no accept ever
          reached (no scheme, not yet decoded): nothing is in flight for it,
          so the gap has nothing to protect. Every such slot is in
          partial_queue, because each path that marks a slot committed ends
          in _try_promote or _note_partial, which queue it while it is not
          decoded; so a scan of the queue finds it.

        No other slot is read, so a call costs O(|partial_queue| + log
        slots) however long the log is."""
        top = self.max_slot
        boundary = -1
        for slot in self.partial_queue:
            if boundary < slot <= top:
                inst = self.log.get(slot)
                if (
                    inst is not None
                    and inst.committed
                    and inst.scheme is None
                    and inst.status < Status.COMMITTED_KNOWN
                ):
                    boundary = slot
        excess = self._lens.prefix(top) - self.cfg.deferral_bytes
        if excess > 0:
            # sum over [s, top] > deferral_bytes <=> sum over [0, s) < excess
            boundary = max(boundary, self._lens.count_below(excess))
        return boundary

    def _stragglers(self) -> set[int]:
        """Peers sitting on an unanswered shard request. A request older
        than straggler_cycles routes new asks around its peer; once it is
        twice that old it is written off as lost so the peer becomes
        eligible again (a reply, or the slot's promotion, still cancels it
        at any point)."""
        out = set()
        expired = []
        for slot, asks in self._outstanding.items():
            for peer, (_idxs, cycle) in asks.items():
                age = self._cycle - cycle
                if age >= 2 * self.cfg.straggler_cycles:
                    expired.append((slot, peer))
                elif age >= self.cfg.straggler_cycles:
                    out.add(peer)
        for slot, peer in expired:
            asks = self._outstanding[slot]
            del asks[peer]
            if not asks:
                del self._outstanding[slot]
        return out

    def _gossip_tick(self, now: float) -> None:
        self._cycle += 1
        if self.role == LEADER:
            self._leader_reconstruct_tick(now)
            return
        if not self.cfg.gossip_enabled or not self.partial_queue:
            return
        boundary = self._deferral_boundary()
        stragglers = self._stragglers()
        ring = [(self.id + step) % self.n for step in range(1, self.n)]
        orders: dict[int, list[int]] = {}  # ring position -> peers to ask, in order
        plan: dict[int, list[tuple[int, frozenset[int], int]]] = {}
        for slot in sorted(s for s in self.partial_queue if s <= boundary):
            inst = self.log.get(slot)
            if inst is None or not inst.committed or inst.status >= Status.COMMITTED_KNOWN:
                continue
            scheme = inst.scheme or self.params.scheme
            expected = set(inst.shard_pool())
            asks = self._outstanding.get(slot)
            if asks:
                for peer, (idxs, _cyc) in asks.items():
                    if peer not in stragglers:
                        expected |= idxs
            if len(expected) >= scheme.d:
                continue
            # holders unknown (the slot was learned from a heartbeat): any
            # peer can answer, so each slot starts at its own ring position
            # and a catch-up burst splits across the peers
            start = slot % len(ring) if inst.assignment is None else 0
            candidates = orders.get(start)
            if candidates is None:
                walk = ring[start:] + ring[:start]
                # follower to follower first; the leader only as a last
                # resort, when the others cannot cover the remaining shards
                candidates = [p for p in walk if p != self.leader_hint and p not in stragglers]
                candidates += [p for p in walk if p == self.leader_hint and p not in stragglers]
                orders[start] = candidates
            for peer in candidates:
                if inst.assignment is not None:
                    avail = set(inst.assignment.shards_of(peer)) - expected
                else:
                    avail = set(range(scheme.n_shards)) - expected
                if not avail:
                    continue
                need = scheme.d - len(expected)
                plan.setdefault(peer, []).append((slot, frozenset(avail), need))
                # the responder sends the lowest `need` of them that it has
                sent = frozenset(sorted(avail)[:need])
                if asks is None:
                    asks = self._outstanding[slot] = {}
                asks[peer] = (sent, self._cycle)
                expected |= sent
                if len(expected) >= scheme.d:
                    break
        for peer, wants in sorted(plan.items()):
            if self.cfg.gossip_batching:
                self.env.send(peer, wire.Reconstruct(self.id, wants))
            else:
                for want in wants:
                    self.env.send(peer, wire.Reconstruct(self.id, [want]))

    def _leader_reconstruct_tick(self, now: float) -> None:
        """Takeover reads: a fresh leader pulls shards for every slot it
        knows committed but cannot decode, so the whole prefix becomes
        servable again."""
        wants = []
        for slot in sorted(self.partial_queue):
            inst = self.log.get(slot)
            if inst is None or not inst.committed or inst.status >= Status.COMMITTED_KNOWN:
                continue
            scheme = inst.scheme or self.params.scheme
            have = frozenset(inst.shard_pool())
            # at least one: a slot that holds d shards but waits for the
            # committed value's geometry still needs a reply carrying it
            need = max(scheme.d - len(have), 1)
            wants.append((slot, frozenset(range(scheme.n_shards)) - have, need))
        if not wants:
            return
        for p in self.peers:
            self.env.send(p, wire.Reconstruct(self.id, wants))

    def _on_reconstruct(self, src: int, m: wire.Reconstruct, now: float) -> None:
        entries = []
        for slot, idxs, need in m.wants:
            inst = self.log.get(slot)
            if inst is None or not inst.committed:
                entries.append(wire.ReconEntry(slot, False, False, 0, 0, 0, 0, 0, 0, {}))
                continue
            scheme = inst.scheme or self.params.scheme
            if inst.payload is not None and inst.status >= Status.COMMITTED_KNOWN:
                # lowest indices first: the data stripes, which are slices of
                # the value and cost no coding to send or to decode
                picked = sorted(i for i in idxs if i < scheme.n_shards)[:need]
                shards = {i: encode_shard(inst.payload, scheme, i) for i in picked}
                entries.append(
                    wire.ReconEntry(
                        slot, True, True, inst.ballot, inst.commit_vid or inst.value_id,
                        inst.commit_ballot, scheme.n_shards, scheme.d, inst.payload_len, shards,
                    )
                )
            else:
                # only raw shards: whichever of the asked ones are here
                picked = [i for i in sorted(idxs) if i in inst.own_shards][:need]
                held = {i: inst.own_shards[i] for i in picked}
                entries.append(
                    wire.ReconEntry(
                        slot, bool(held), False, inst.ballot, inst.value_id,
                        inst.commit_ballot,
                        scheme.n_shards if inst.scheme else 0,
                        scheme.d if inst.scheme else 0,
                        inst.payload_len, held,
                    )
                )
        self.env.send(src, wire.ReconstructReply(self.id, entries))

    def _on_reconstruct_reply(self, src: int, m: wire.ReconstructReply, now: float) -> None:
        changed = False
        for e in m.entries:
            asks = self._outstanding.get(e.slot)
            if asks is not None:
                asks.pop(src, None)
                if not asks:
                    del self._outstanding[e.slot]
            if not e.has_data:
                continue
            if self.role == LEADER:
                self.recon_bytes_as_leader += sum(len(b) for b in e.shards.values())
            inst = self.log.setdefault(e.slot, Instance())
            self.max_slot = max(self.max_slot, e.slot)
            if not inst.committed:
                inst.committed = True
                if inst.status < Status.COMMITTED_PARTIAL:
                    inst.status = Status.COMMITTED_PARTIAL
            if e.commit_ballot and not inst.commit_ballot:
                inst.commit_ballot = e.commit_ballot
            if not inst.commit_vid:
                if e.authoritative:
                    inst.commit_vid = e.vid
                elif e.commit_ballot and e.accepted_ballot >= e.commit_ballot:
                    inst.commit_vid = e.vid
            self._absorb_remote_shards(
                e.slot, inst, e.vid, e.n_shards, e.d, e.payload_len, e.shards
            )
            self._try_promote(e.slot, inst, now)
            changed = True
        if changed:
            self._execute_ready(now)

    # ------------------------------------------------------------- exports

    def state_digest(self) -> int:
        return state_hash(self.kv, self.commit_idx, self.exec_idx)

    _DISPATCH = {}


Replica._DISPATCH = {
    wire.Prepare: Replica._on_prepare,
    wire.PrepareReply: Replica._on_prepare_reply,
    wire.Accept: Replica._on_accept,
    wire.AcceptReply: Replica._on_accept_reply,
    wire.Heartbeat: Replica._on_heartbeat,
    wire.HeartbeatReply: Replica._on_heartbeat_reply,
    wire.Reconstruct: Replica._on_reconstruct,
    wire.ReconstructReply: Replica._on_reconstruct_reply,
    wire.ClientRequest: Replica._on_client_request,
}
