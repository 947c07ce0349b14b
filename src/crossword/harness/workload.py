"""Closed-loop clients: each issues its next operation only after the
previous one completes, retrying with the same sequence number after a
timeout or redirect. Put values embed a short identity token so reads can be
matched to writes without retaining megabyte blobs in histories."""

from __future__ import annotations

import random
from collections import deque
from dataclasses import dataclass

from ..protocol import wire
from .scenario import WorkloadSpec


@dataclass
class OpRecord:
    client: int
    seq: int
    kind: str  # "put" | "get"
    key: str
    token: str | None  # put: written token; get: observed token (None = absent)
    invoke_ms: float
    respond_ms: float | None = None  # None while pending
    version: int = 0


class ZipfPicker:
    """Rank-frequency draw: P(rank i) proportional to 1 / (i+1)^theta."""

    def __init__(self, count: int, theta: float):
        self.count = count
        self.theta = theta
        weights = [1.0 / (i + 1) ** theta for i in range(count)]
        total = sum(weights)
        acc = 0.0
        self.cdf = []
        for w in weights:
            acc += w / total
            self.cdf.append(acc)

    def pick(self, u: float) -> int:
        lo, hi = 0, self.count - 1
        while lo < hi:
            mid = (lo + hi) // 2
            if self.cdf[mid] < u:
                lo = mid + 1
            else:
                hi = mid
        return lo


def make_token(client: int, seq: int) -> str:
    return f"c{client}s{seq}"


def value_bytes(client: int, seq: int, size: int) -> bytes:
    """Deterministic value of exactly `size` bytes starting with the identity
    token; sizes smaller than the token keep only its head."""
    head = (make_token(client, seq) + "|").encode()
    if size <= len(head):
        return head[:size]
    reps = -(-(size - len(head)) // 8)
    return (head + b"01234567" * reps)[:size]


def token_of(value: bytes) -> str:
    """Identity token derived purely from the value bytes (prefix up to '|'
    plus total length), so a write and any read of the same bytes always
    produce the same token — even when the value is shorter than the
    embedded header."""
    cut = value.find(b"|")
    head = value[:cut] if cut >= 0 else value
    try:
        text = head.decode("ascii")
    except UnicodeDecodeError:
        text = "x" + head[:32].hex()
    return f"{text}#{len(value)}"


class ClosedLoopClient:
    """Drives Put/Get traffic at one node id; keeps its own RNG stream so
    runs are deterministic per (scenario seed, client id). `state` is the
    run's workload, shared by all clients, which set_workload faults
    rewrite mid-run."""

    def __init__(
        self,
        env,
        cid: int,
        n: int,
        state: WorkloadSpec,
        seed,
        retry_ms: float,
        start_ms: float,
        history: list[OpRecord],
        initial_leader: int = 0,
        stop_ms: float = float("inf"),
    ):
        self.env = env
        self.cid = cid
        self.n = n
        self.state = state
        self.rng = random.Random(f"{seed}:client:{cid}")
        self.retry_ms = retry_ms
        self.start_ms = start_ms
        self.stop_ms = stop_ms
        self.history = history
        self.target = initial_leader
        self.seq = 0
        self.current: OpRecord | None = None
        self.current_cmd: wire.Command | None = None
        self._zipf: ZipfPicker | None = None
        self._zipf_shape: tuple[int, float] | None = None
        # retry deadlines of the current op, oldest first, and whether the
        # one "retry" wake-up is pending; it carries the seq it was set for
        self._retry_due: deque[tuple[float, int]] = deque()
        self._retry_wake_pending = False

    def start(self) -> None:
        self.env.set_timer(self.start_ms, ("issue",))

    # -- node interface ----------------------------------------------------

    def on_message(self, src: int, msg, now: float) -> None:
        if not isinstance(msg, wire.ClientReply) or self.current is None:
            return
        mine = [e for e in msg.entries if e.client == self.cid and e.seq == self.seq]
        if mine:
            entry = mine[0]
            rec = self.current
            rec.respond_ms = now
            rec.version = entry.version
            if rec.kind == "get":
                rec.token = token_of(entry.value) if entry.status == wire.OK else None
            self.current = None
            self.current_cmd = None
            self._retry_due.clear()
            self.target = src  # whoever answered is the leader
            self._issue(now)
            return
        if msg.redirect != wire.NO_REDIRECT:
            self.target = msg.redirect % self.n
            self._resend(now)
        # empty reply without a hint: wait for the retry timer

    def on_timer(self, tag, now: float) -> None:
        if tag == ("issue",):
            self._issue(now)
        elif tag[0] == "retry":
            self._retry_wake_pending = False
            if self.current is not None and tag[1] == self.seq:
                # set for this op's earliest deadline, which is now
                self._retry_due.popleft()
                self.target = (self.target + 1) % self.n
                self._send(now)
            self._wake_retry()

    def on_persist_done(self, tag, now: float) -> None:
        pass

    def on_restart(self, now: float) -> None:
        pass

    # -- op generation -------------------------------------------------------

    def _pick_key(self) -> str:
        st = self.state
        if st.key_dist == "zipfian":
            shape = (st.key_count, st.zipf_theta)
            if self._zipf_shape != shape:
                self._zipf = ZipfPicker(*shape)
                self._zipf_shape = shape
            idx = self._zipf.pick(self.rng.random())
        else:
            idx = self.rng.randrange(st.key_count)
        return f"k{idx}"

    def _pick_size(self) -> int:
        st = self.state
        if st.value_mixture:
            # point mixture: draw one of the fixed sizes by weight
            r = self.rng.random() * sum(w for _, w in st.value_mixture)
            acc = 0.0
            for size, weight in st.value_mixture:
                acc += weight
                if r < acc:
                    return size
            return st.value_mixture[-1][0]
        size = self.rng.gauss(st.value_mean_bytes, st.value_stddev_ratio * st.value_mean_bytes)
        return max(1, int(round(size)))

    def _issue(self, now: float) -> None:
        if now >= self.stop_ms:
            return
        self.seq += 1
        st = self.state
        if self.rng.random() < st.put_ratio:
            key = self._pick_key()
            size = self._pick_size()
            val = value_bytes(self.cid, self.seq, size)
            cmd = wire.Command(wire.PUT, key, val, self.cid, self.seq)
            rec = OpRecord(self.cid, self.seq, "put", key, token_of(val), now)
        else:
            key = self._pick_key()
            cmd = wire.Command(wire.GET, key, b"", self.cid, self.seq)
            rec = OpRecord(self.cid, self.seq, "get", key, None, now)
        self.current = rec
        self.current_cmd = cmd
        self.history.append(rec)
        self._send(now)

    def _resend(self, now: float) -> None:
        if self.current is not None:
            self._send(now)

    def _send(self, now: float) -> None:
        self.env.send(self.target, wire.ClientRequest(self.cid, [self.current_cmd]))
        self._retry_due.append(self.env.deadline(self.retry_ms))
        self._wake_retry()

    def _wake_retry(self) -> None:
        """Keep one pending wake-up, at the current op's earliest deadline.
        Deadlines only grow, so a wake-up left by a completed op is never
        late for the next op; it fires early and re-arms here."""
        if self._retry_due and not self._retry_wake_pending:
            self._retry_wake_pending = True
            self.env.set_timer_at(self._retry_due[0], ("retry", self.seq))


class FollowerReader:
    """Staleness probe: polls one follower for a single key via local reads.
    The follower traces each read it serves ("follower_read"), and the
    runner samples staleness from that trace, so the reader ignores the
    replies. Its reads are never part of the linearizability history."""

    def __init__(self, env, cid: int, follower: int, key: str, interval_ms: float):
        self.env = env
        self.cid = cid
        self.follower = follower
        self.key = key
        self.interval_ms = interval_ms
        self.seq = 0

    def start(self) -> None:
        self.env.set_timer(self.interval_ms, ("read",))

    def on_message(self, src: int, msg, now: float) -> None:
        pass

    def on_timer(self, tag, now: float) -> None:
        if tag == ("read",):
            self.seq += 1
            cmd = wire.Command(wire.GET, self.key, b"", self.cid, self.seq)
            self.env.send(self.follower, wire.ClientRequest(self.cid, [cmd]))
            self.env.set_timer(self.interval_ms, ("read",))

    def on_persist_done(self, tag, now: float) -> None:
        pass

    def on_restart(self, now: float) -> None:
        pass
