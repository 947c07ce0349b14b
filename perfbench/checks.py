"""Correctness checks computed by the benchmark itself, apart from the
program's own checkers.

Each check takes plain data extracted from a finished run and returns a
list of problems; an empty list means it passed. Keeping the inputs plain
lets ``test_checks.py`` feed every check a tampered output.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

EPS_MS = 1e-9


@dataclass(frozen=True)
class ReplicaState:
    rid: int
    alive: bool
    exec_idx: int
    versions: dict[str, int]
    kv: dict[str, bytes]


def _put_length(token: str) -> int:
    """A put's value length, from the identity token ``c<client>s<seq>#<len>``
    the client recorded when it wrote the value."""
    return int(token.rsplit("#", 1)[1])


def version_conservation(history, replicas: list[ReplicaState]) -> list[str]:
    """(a) On every caught-up replica (live, at the highest exec_idx), each
    key's version equals the number of acknowledged puts to it, and its value
    is the acknowledged put with the highest version: it starts with that
    put's ``c<client>s<seq>|`` token and has that put's length. A put still
    pending at the end may or may not have taken effect, so it widens the
    allowed version range by one."""
    acked: dict[str, int] = {}
    pending: dict[str, int] = {}
    newest: dict[str, object] = {}
    for op in history:
        if op.kind != "put":
            continue
        if op.respond_ms is None:
            pending[op.key] = pending.get(op.key, 0) + 1
            continue
        acked[op.key] = acked.get(op.key, 0) + 1
        if op.key not in newest or op.version > newest[op.key].version:
            newest[op.key] = op
    live = [r for r in replicas if r.alive]
    if not live:
        return ["no live replica at the end of the run"]
    top = max(r.exec_idx for r in live)
    problems = []
    for r in (r for r in live if r.exec_idx == top):
        for key in sorted(set(acked) | set(pending) | set(r.versions)):
            got = r.versions.get(key, 0)
            lo = acked.get(key, 0)
            hi = lo + pending.get(key, 0)
            if not lo <= got <= hi:
                problems.append(
                    f"replica {r.rid} key {key}: version {got}, acknowledged puts {lo}"
                    + (f" (+{hi - lo} pending)" if hi > lo else "")
                )
                continue
            op = newest.get(key)
            if op is None or pending.get(key):
                continue
            value = r.kv.get(key, b"")
            head = f"c{op.client}s{op.seq}|".encode()
            size = _put_length(op.token)
            if len(value) != size or value[: len(head)] != head[:size]:
                problems.append(
                    f"replica {r.rid} key {key}: value {value[:16]!r}... ({len(value)} B) "
                    f"is not the newest acknowledged put {head!r} ({size} B)"
                )
    return problems


def latency_bounds(history, client_delay_ms: float, link_delay_ms: float) -> list[str]:
    """(b) No operation completes faster than light allows: every op takes at
    least one client round trip, and every put also waits for one
    leader-follower round trip."""
    problems = []
    for op in history:
        if op.respond_ms is None:
            continue
        lat = op.respond_ms - op.invoke_ms
        floor = 2 * client_delay_ms
        if op.kind == "put":
            floor = 2 * client_delay_ms + 2 * link_delay_ms
        if lat < floor - EPS_MS:
            problems.append(
                f"{op.kind} c{op.client}s{op.seq} took {lat:.4f} ms, below the {floor:.1f} ms floor"
            )
    return problems


def sent_byte_floor(commit_events, sent_payload: dict[int, int], n: int, d: int) -> list[str]:
    """(c) For every slot a leader committed with c shards per follower, it
    sent each of its n-1 peers at least c shards of ceil(len/d) bytes. Summed
    per leader, the payload bytes it put on replica links must reach that
    floor. `sent_payload` maps replica -> payload bytes sent to other
    replicas; `commit_events` are the program's (leader, slot, q, c, len,
    latency, t) commit records."""
    floor: dict[int, int] = {}
    for leader, _slot, _q, c, plen, _lat, _t in commit_events:
        floor[leader] = floor.get(leader, 0) + (n - 1) * c * math.ceil(plen / d)
    return [
        f"leader {leader} committed slots needing {need} payload bytes sent, "
        f"but sent {sent_payload.get(leader, 0)}"
        for leader, need in sorted(floor.items())
        if sent_payload.get(leader, 0) < need
    ]


def failover_floor(unavailable_ms: float, election_min_ms: float, heartbeat_ms: float) -> list[str]:
    """(d) Followers cannot notice a crashed leader before their election
    timeout, which was re-armed at most one heartbeat before the crash."""
    floor = election_min_ms - heartbeat_ms
    if unavailable_ms < floor - EPS_MS:
        return [f"service resumed {unavailable_ms:.3f} ms after the crash, below the {floor:.0f} ms floor"]
    return []


@dataclass(frozen=True)
class LinkModel:
    delay_ms: float
    bytes_per_ms: float


def model_commit_ms(
    q: int,
    c: int,
    payload_len: int,
    d: int,
    followers: list[LinkModel],
    persist: LinkModel,
) -> float:
    """Idle-network commit time of one slot at (q, c): each follower receives
    c shards of ceil(len/d) bytes, writes them and replies; the leader is
    the q-th member, so the slot commits on the (q-1)-th fastest follower."""
    shard_bytes = c * math.ceil(payload_len / d)
    times = sorted(
        2 * f.delay_ms
        + shard_bytes / f.bytes_per_ms
        + persist.delay_ms
        + shard_bytes / persist.bytes_per_ms
        for f in followers
    )
    return times[q - 2]


def model_choice(
    payload_len: int,
    n: int,
    d: int,
    followers: list[LinkModel],
    persist: LinkModel,
    tie_rel: float,
) -> tuple[int, int]:
    """The (q, c) on the line q + c = n + 1 with the lowest modelled commit
    time; configs within `tie_rel` of the best count as tied, and a tie goes
    to the smaller quorum."""
    scored = [
        (model_commit_ms(q, n + 1 - q, payload_len, d, followers, persist), q)
        for q in range(d, n + 1)
    ]
    best = min(t for t, _q in scored)
    q = min(q for t, q in scored if t <= best * (1 + tie_rel))
    return q, n + 1 - q


def chooser_matches_model(
    commit_events,
    phases,
    n: int,
    d: int,
    persist: LinkModel,
    settle_ms: float = 2500.0,
    tie_rel: float = 0.02,
) -> list[str]:
    """(e) Once a phase has run `settle_ms`, every slot committed in it used
    the (q, c) that the idle-network model picks for its payload length and
    that phase's follower links."""
    problems = []
    for ph in phases:
        settled = [ev for ev in commit_events if ph.start_ms + settle_ms <= ev[6] < ph.end_ms]
        if not settled:
            problems.append(f"phase '{ph.label}': no commits after {settle_ms:.0f} ms")
            continue
        followers = [LinkModel(*link) for _peer, link in sorted(ph.follower_links.items())]
        off = {}
        for _leader, slot, q, c, plen, _lat, _t in settled:
            want = model_choice(plen, n, d, followers, persist, tie_rel)
            if (q, c) != want:
                off.setdefault(((q, c), want, plen), slot)
        for (got, want, plen), slot in sorted(off.items()):
            problems.append(
                f"phase '{ph.label}': slot {slot} ({plen} B) committed at {got}, model picks {want}"
            )
    return problems


def deterministic(fingerprints: list[dict]) -> list[str]:
    """(f) Every simulated metric and count is identical across the repeats
    of one run."""
    problems = []
    first = fingerprints[0]
    for i, fp in enumerate(fingerprints[1:], start=2):
        for key in sorted(set(first) | set(fp)):
            if first.get(key) != fp.get(key):
                problems.append(f"repeat {i} differs from repeat 1 in {key}: {fp.get(key)!r} != {first.get(key)!r}")
    return problems
