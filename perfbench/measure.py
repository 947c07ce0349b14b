"""One repeat of a workload: the timed run through the program's public API,
then the simulated metrics and the correctness checks read from its result
outside the timed window.

A shared host can run the process at speeds that differ by up to 2x from
one second to the next, so the timed run is cut into pieces
and a fixed calibration slice of pure-Python work is timed after each one.
The slices are not program time; their mean tells how fast the host ran the
repeat, and ``Repeat.ref_s`` rescales the program's time to the speed at
which one slice takes REF_SLICE_S."""

from __future__ import annotations

import gc
import heapq
import math
import time
from dataclasses import dataclass, field

from crossword.harness import (
    check_conservation,
    check_linearizable,
    check_prefix_digests,
    check_slot_agreement,
    parse_scenario,
    run_scenario,
)
from crossword.harness.linearize import from_history
from crossword.simnet import SimNet

import checks
from tracing import MSG_TYPES, REPL_TYPES, TIMERS
from workloads import DRAIN_MS, Workload


# Simulated milliseconds per timed step of the simulation: 5 to 60 wall ms
# each, shorter than the spells in which the host's speed changes.
STEP_MS = 20.0
# Rounds of the calibration slice, and the slice's wall time on a quiet
# 2-vCPU VM (Python 3.11), the speed that ``Repeat.ref_s`` refers to.
SLICE_ROUNDS = 1500
REF_SLICE_S = 0.0016


def calibration_slice() -> float:
    """Wall seconds of a fixed piece of pure-Python work shaped like the
    simulator's own: a heap of pending events, per-key dicts and short
    lists. Collection is held off so that none of the program's garbage is
    collected inside it."""
    gc.disable()
    t0 = time.perf_counter()
    x, heap, state = 1, [], {}
    for i in range(SLICE_ROUNDS):
        x = (x * 1103515245 + 12345) & 0x7FFFFFFF
        heapq.heappush(heap, (x % 1000, i, (x & 63, b"p" * (x & 31))))
        if len(heap) > 200:
            at, j, (key, body) = heapq.heappop(heap)
            log = state.setdefault(key, [])
            log.append((at, j, len(body)))
            if len(log) > 50:
                del log[:25]
    took = time.perf_counter() - t0
    gc.enable()
    return took


class StepClock:
    """Times the program piece by piece, with a calibration slice after
    every piece. ``install`` replaces ``SimNet.run`` with one that runs the
    same events in steps of STEP_MS simulated ms: ``SimNet.run(until)``
    handles exactly the events due by ``until``, so the events, their order
    and the final clock are those of one call. It also notes when the first
    simulation enters its event loop: set-up ends there."""

    def __init__(self):
        self.first: float | None = None
        self.pieces: list[float] = []
        self.slices: list[float] = []
        self._since = 0.0

    def start(self) -> None:
        self.pieces, self.slices = [], []
        self._since = time.perf_counter()

    def lap(self) -> None:
        """End the current piece, then time a calibration slice."""
        self.pieces.append(time.perf_counter() - self._since)
        self.slices.append(calibration_slice())
        self._since = time.perf_counter()

    def install(self) -> None:
        original = SimNet.run
        clock = self

        def run(net, until_ms):
            if clock.first is None:
                clock.first = time.perf_counter()
            t = net.clock
            while True:
                t = min(until_ms, t + STEP_MS)
                original(net, t)
                clock.lap()
                if t >= until_ms:
                    break

        SimNet.run = run


@dataclass
class Repeat:
    wall_s: float  # the program's wall time, calibration slices left out
    slice_s: float  # mean wall time of the calibration slices
    attempted: int
    failed: int
    sim: dict[str, float]  # simulated end-to-end metrics
    fingerprint: dict  # everything that must repeat exactly
    problems: list[str]
    layers: dict[str, float] = field(default_factory=dict)

    @property
    def ref_s(self) -> float:
        """The program's time at the reference speed."""
        return self.wall_s * REF_SLICE_S / self.slice_s

    @property
    def ops_per_s(self) -> float:
        """Completed operations per second of program time at the
        reference speed."""
        return (self.attempted - self.failed) / self.ref_s


def nearest_rank(ordered: list[float], frac: float) -> float:
    return ordered[max(1, math.ceil(frac * len(ordered))) - 1]


def run_once(wl: Workload, clock: StepClock, tracer=None) -> Repeat:
    """Simulate the workload, then run the program's own end-of-run checks
    (conservation, slot agreement, prefix digests, linearizability): the
    work ``crossword run`` does. Only this part is timed, piece by piece:
    each simulation step, the run-end digests, the safety checks and the
    linearizability check. The previous repeat's garbage is collected
    before it."""
    gc.collect()
    sc = parse_scenario(wl.doc, wl.name)
    span = tracer.call if tracer is not None else (lambda _name, fn, *a: fn(*a))
    clock.start()
    res = run_scenario(sc, drain_ms=DRAIN_MS)
    clock.lap()
    problems = span(
        "runner.checks",
        lambda: check_conservation(res) + check_slot_agreement(res) + check_prefix_digests(res),
    )
    clock.lap()
    verdict, _witness = span(
        "linearize", lambda: check_linearizable(from_history(res.history))
    )
    clock.lap()
    if verdict != "ok":
        problems.append(f"linearizability check: {verdict}")
    wall = sum(clock.pieces)
    slice_s = sum(clock.slices) / len(clock.slices)
    return _read(wl, sc, res, wall, slice_s, problems, tracer)


def _read(wl: Workload, sc, res, wall: float, slice_s: float, problems: list[str], tracer) -> Repeat:
    n = sc.n
    history = res.history
    done = sorted(op.respond_ms - op.invoke_ms for op in history if op.respond_ms is not None)
    acked_puts = sum(1 for op in history if op.kind == "put" and op.respond_ms is not None)
    replica_links = [st for (a, b), st in res.net.stats.items() if a != b and a < n and b < n]
    # service is lost at the start (no leader yet) or at the leader's crash;
    # it is back once a leader elected afterwards answers a client op
    lost_ms = wl.crash[1] if wl.crash is not None else 0.0
    elected = min(ev[3] for ev in res.traces if ev[0] == "leader" and ev[3] > lost_ms)
    served = min(op.respond_ms for op in history if op.respond_ms is not None and op.respond_ms >= elected)
    unavailable = served - lost_ms
    sim = {
        "op_latency_p50_ms": nearest_rank(done, 0.50),
        "op_latency_p99_ms": nearest_rank(done, 0.99),
        "sim_throughput_ops_s": len(done) / (sc.workload.duration_ms / 1000.0),
        "repl_bytes_per_put": sum(st.bytes for st in replica_links) / acked_puts,
        "unavailable_ms": unavailable,
    }

    # the benchmark's own checks, (a) to (e); (f) compares repeats later
    states = [
        checks.ReplicaState(r.id, res.net.alive.get(r.id, False), r.exec_idx, r.versions, r.kv)
        for r in res.replicas
    ]
    problems += checks.version_conservation(history, states)
    # client links keep the scenario's delay; faults only retune replica links
    delays = [sc.links.delay_ms] + [f.args["link"].delay_ms for f in sc.faults if "link" in f.args]
    problems += checks.latency_bounds(history, sc.links.delay_ms, min(delays))
    d = (n + 1) // 2  # data shards per value: the cluster's majority
    if sc.protocol == "crossword":
        sent = {}
        for (a, b), st in res.net.stats.items():
            if a != b and a < n and b < n:
                sent[a] = sent.get(a, 0) + st.payload_bytes
        problems += checks.sent_byte_floor(res.commit_events, sent, n, d)
    if wl.crash is not None:
        problems += checks.failover_floor(
            unavailable, sc.heartbeat.election_min_ms, sc.heartbeat.interval_ms
        )
    if wl.phases and sc.protocol == "crossword":
        persist = checks.LinkModel(sc.persist.delay_ms, sc.persist.bandwidth_bytes_per_ms)
        problems += checks.chooser_matches_model(res.commit_events, wl.phases, n, d, persist)

    fingerprint = {
        **sim,
        "ops": len(history),
        "completed": len(done),
        "commits": len(res.commit_events),
        "trace_events": len(res.traces),
        "msgs": sum(st.msgs for st in res.net.stats.values()),
        "bytes": sum(st.bytes for st in res.net.stats.values()),
        "dropped": res.net.dropped_msgs,
        "exec_idx": [r.exec_idx for r in res.replicas],
        "digests": sorted(res.state_digests.items()),
    }
    rep = Repeat(
        wall_s=wall,
        slice_s=slice_s,
        attempted=len(history),
        failed=len(history) - len(done),
        sim=sim,
        fingerprint=fingerprint,
        problems=problems,
    )
    if tracer is not None:
        rep.layers = layer_metrics(tracer, res, len(done))
    return rep


def layer_metrics(tracer, res, completed: int) -> dict[str, float]:
    """The per-layer metrics of one traced repeat."""
    spans = tracer.summary()
    zero = {"s": 0.0, "self_s": 0.0, "calls": 0}
    get = lambda name: spans.get(name, zero)
    out: dict[str, float] = {
        "simnet.step.self_s": get("simnet.step")["self_s"],
        "simnet.send.self_s": get("simnet.send")["self_s"],
        "simnet.events": get("simnet.step")["calls"],
        "simnet.msgs": tracer.counts["simnet.msgs"],
        "wire.wire_size.s": get("wire.wire_size")["s"],
        "wire.wire_size.calls": get("wire.wire_size")["calls"],
        "wire.payload_nbytes.s": get("wire.payload_nbytes")["s"],
    }
    for op in ("encode", "reconstruct", "encode_shard", "gf_matmul"):
        name = "erasure." + op
        out[name + ".s"] = get(name)["s"]
        if op != "gf_matmul":
            out[name + ".calls"] = get(name)["calls"]
        if op != "encode_shard":
            out[name + ".bytes"] = tracer.bytes[name]
    for kind in MSG_TYPES:
        name = "replica.msg." + kind
        out[name + ".self_s"] = get(name)["self_s"]
        out[name + ".count"] = get(name)["calls"]
    for tag in TIMERS:
        name = "replica.timer." + tag
        out[name + ".self_s"] = get(name)["self_s"]
        out[name + ".count"] = get(name)["calls"]
    out["replica.persist.self_s"] = get("replica.persist")["self_s"]
    out["tuner.choose.s"] = get("tuner.choose")["s"]
    out["tuner.choose.calls"] = get("tuner.choose")["calls"]
    for c in (1, 2, 3):
        out[f"commits.c{c}"] = sum(1 for ev in res.commit_events if ev[3] == c)
    out["hashing.state_hash.s"] = get("hashing.state_hash")["s"]
    out["hashing.state_hash.bytes"] = tracer.bytes["hashing.state_hash"]
    out["linearize.s"] = get("linearize")["s"]
    out["linearize.ops"] = len(from_history(res.history))
    out["runner.checks.self_s"] = get("runner.checks")["self_s"]
    for kind in REPL_TYPES:
        out["repl_bytes." + kind] = tracer.bytes["repl_bytes." + kind]
    out["client.self_s"] = get("client")["self_s"]
    out["client.requests_per_op"] = tracer.counts["client.requests"] / completed
    out["client.redirects"] = tracer.counts["client.redirects"]
    out["client.retries"] = tracer.counts["client.retries"]
    out.update(_elections(res))
    out["recovery.catchup_ms"] = _catchup_ms(tracer.restarts, res)
    out["harness.trace_events"] = len(res.traces)
    return out


def _elections(res) -> dict[str, float]:
    """Elections started and won, and simulated time without a leader: from
    the start to the first leader, and from each crash of the sitting
    leader to the next leader elected."""
    started = [ev for ev in res.traces if ev[0] == "candidate"]
    won = [(ev[3], ev[1]) for ev in res.traces if ev[0] == "leader"]
    crashes = sorted(
        (f.at_ms, f.args["node"]) for f in res.scenario.faults if f.kind == "crash"
    )
    end = res.net.clock
    leaderless = won[0][0] if won else end
    for at, node in crashes:
        before = [rid for t, rid in won if t <= at]
        if before and before[-1] == node:
            after = [t for t, _rid in won if t > at]
            leaderless += (after[0] if after else end) - at
    return {
        "elections.started": len(started),
        "elections.won": len(won),
        "leaderless_ms": leaderless,
    }


def _catchup_ms(restarts, res) -> float:
    """For each restart, simulated time until the node executed the prefix
    its peers had committed when it came back; a node that never gets there
    counts up to the end of the run. 0 when nothing restarted."""
    total = 0.0
    for rid, at, target in restarts:
        if target == 0:
            continue
        caught = [
            ev[5] for ev in res.traces
            if ev[0] == "exec_slot" and ev[1] == rid and ev[5] >= at and ev[2] >= target - 1
        ]
        total += min(caught, default=res.net.clock) - at
    return total
