"""Scenario runner: builds the simulated cluster, closed-loop clients, and
fault schedule from a Scenario, runs it to completion, and collects the
history, metrics, traces, and final state digests.

Link overrides and link faults all go through `_edit_links`, which changes
only the fields a link edit names; a cut link stays cut until `heal`."""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from ..protocol import Replica, wire
from ..protocol.hashing import state_hash
from ..simnet import SimNet
from .metrics import MetricsReport, build_report
from .scenario import FAULT_KINDS, FaultEvent, LinkSpec, Scenario, WorkloadSpec
from .workload import ClosedLoopClient, FollowerReader, OpRecord

CLIENT_BASE = 1000
READER_BASE = 3000


@dataclass
class RunResult:
    scenario: Scenario
    net: SimNet
    replicas: list[Replica]
    history: list[OpRecord]
    traces: list[tuple]
    commit_events: list[tuple]
    staleness: list[tuple]
    report: MetricsReport
    state_digests: dict[int, int] = field(default_factory=dict)

    def exec_puts_by_replica(self) -> dict[int, list[tuple[int, int]]]:
        out: dict[int, list[tuple[int, int]]] = {r.id: [] for r in self.replicas}
        for ev in self.traces:
            if ev[0] == "exec_put":
                _, rid, _key, _ver, client, seq, _lead, _t = ev
                out[rid].append((client, seq))
        return out

    def slot_values(self) -> dict[int, dict[int, set[int]]]:
        """slot -> replica -> set of executed value ids (should be one)."""
        out: dict[int, dict[int, set[int]]] = {}
        for ev in self.traces:
            if ev[0] == "exec_slot":
                _, rid, slot, vid, _plen, _t = ev
                out.setdefault(slot, {}).setdefault(rid, set()).add(vid)
        return out


def _edit_links(net: SimNet, pairs: list[tuple[int, int]], link: LinkSpec) -> None:
    """Set the fields `link` names on each directed link in `pairs`; every
    other field, `up` among them, keeps the link's current value."""
    edit = {name: value for name, value in vars(link).items() if value is not None}
    for a, b in pairs:
        net.set_link(a, b, replace(net.link(a, b), **edit))


def _schedule_fault(net: SimNet, ev: FaultEvent, n: int, workload: WorkloadSpec) -> None:
    a = ev.args
    if ev.kind == "crash":
        net.schedule_crash(ev.at_ms, a["node"])
    elif ev.kind == "restart":
        net.schedule_restart(ev.at_ms, a["node"])
    elif ev.kind in ("partition", "heal"):
        up = ev.kind == "heal"
        net.schedule_call(ev.at_ms, lambda now: net.partition(a["group_a"], a["group_b"], up=up))
    elif ev.kind == "set_workload":
        net.schedule_call(ev.at_ms, lambda now: vars(workload).update(a))
    else:
        pairs = FAULT_KINDS[ev.kind].links(a, n)
        net.schedule_call(ev.at_ms, lambda now: _edit_links(net, pairs, a["link"]))


def run_scenario(sc: Scenario, extra_trace=None, drain_ms: float = 0.0) -> RunResult:
    """Simulate the scenario. Clients stop issuing at the workload duration;
    `drain_ms` extends the simulation past that point so in-flight commits,
    repair, and execution can settle before state is read."""
    net = SimNet(size_of=wire.wire_size, payload_of=wire.payload_nbytes)

    n_readers = sc.follower_reads.readers if sc.follower_reads.enabled else 0
    ids = (
        list(range(sc.n))
        + [CLIENT_BASE + i for i in range(sc.workload.clients)]
        + [READER_BASE + i for i in range(n_readers)]
    )
    net.set_all_links(ids, sc.links.params(), sc.persist.params())
    for ov in sc.link_overrides:
        _edit_links(net, ov.pairs, ov.link)

    traces: list[tuple] = []
    commit_events: list[tuple] = []
    staleness: list[tuple] = []
    replicas: list[Replica] = []

    def trace(*ev):
        traces.append(ev)
        if ev[0] == "commit":
            _, rid, slot, q, c, plen, latency, t = ev
            commit_events.append((rid, slot, q, c, plen, latency, t))
        elif ev[0] == "follower_read":
            _, rid, key, version, t = ev
            freshest = max(r.versions.get(key, 0) for r in replicas)
            staleness.append((t, key, freshest - version))
        if extra_trace is not None:
            extra_trace(ev)

    for i in range(sc.n):
        r = Replica(net.env(i), sc, i, trace=trace)
        net.add_node(i, r)
        replicas.append(r)

    workload = replace(sc.workload)  # set_workload faults change this copy only
    history: list[OpRecord] = []
    duration = sc.workload.duration_ms
    for i in range(sc.workload.clients):
        cid = CLIENT_BASE + i
        client = ClosedLoopClient(
            env=net.env(cid),
            cid=cid,
            n=sc.n,
            state=workload,
            seed=sc.seed,
            retry_ms=sc.workload.retry_ms,
            start_ms=sc.workload.start_ms + i * 0.205,
            history=history,
            initial_leader=sc.initial_leader,
            stop_ms=duration,
        )
        net.add_node(cid, client)
        client.start()
    for i in range(n_readers):
        cid = READER_BASE + i
        follower = (sc.initial_leader + 1 + (i % max(1, sc.n - 1))) % sc.n
        reader = FollowerReader(
            env=net.env(cid),
            cid=cid,
            follower=follower,
            key=sc.follower_reads.key,
            interval_ms=sc.follower_reads.interval_ms,
        )
        net.add_node(cid, reader)
        reader.start()

    for ev in sc.faults:
        _schedule_fault(net, ev, sc.n, workload)

    net.run(duration + drain_ms)

    report = build_report(history, commit_events, net.stats, staleness, duration)
    digests = {r.id: r.state_digest() for r in replicas if net.alive.get(r.id, False)}
    return RunResult(
        scenario=sc,
        net=net,
        replicas=replicas,
        history=history,
        traces=traces,
        commit_events=commit_events,
        staleness=staleness,
        report=report,
        state_digests=digests,
    )


# ----------------------------------------------------------------- checks


def check_conservation(result: RunResult) -> list[str]:
    """Acked Puts are executed exactly once everywhere that executed them,
    and no caught-up replica is missing one. A replica that restarted
    legitimately re-executes the slots above its snapshot, so the
    no-duplicates rule applies only to replicas that never restarted."""
    problems = []
    acked = {
        (op.client, op.seq)
        for op in result.history
        if op.kind == "put" and op.respond_ms is not None
    }
    restarted = {ev[1] for ev in result.traces if ev[0] == "restart"}
    by_replica = result.exec_puts_by_replica()
    for rid, pairs in by_replica.items():
        if rid in restarted:
            continue
        if len(pairs) != len(set(pairs)):
            dupes = sorted({p for p in pairs if pairs.count(p) > 1})
            problems.append(f"replica {rid} executed duplicated puts: {dupes[:5]}")
    if acked:
        # a restarted replica legitimately re-executes slots, so its raw
        # trace over-counts; completeness is about distinct ops
        best = max((set(pairs) for pairs in by_replica.values()), key=len, default=set())
        missing = acked - best
        if missing:
            problems.append(f"acked puts never executed on the best replica: {sorted(missing)[:5]}")
    return problems


def check_prefix_digests(result: RunResult) -> list[str]:
    """Replicas that executed the same number of slots must hold identical
    key-value state, whatever else they are doing."""
    problems = []
    groups: dict[int, dict[int, int]] = {}
    for r in result.replicas:
        groups.setdefault(r.exec_idx, {})[r.id] = state_hash(r.kv, 0, r.exec_idx)
    for exec_idx, digests in sorted(groups.items()):
        if len(set(digests.values())) > 1:
            problems.append(f"replicas at exec_idx {exec_idx} hold different state: {digests}")
    return problems


def check_slot_agreement(result: RunResult) -> list[str]:
    """No slot ever executes different values, on one replica (across
    restarts) or across replicas."""
    problems = []
    for slot, per_replica in sorted(result.slot_values().items()):
        vids = set()
        for rid, vset in per_replica.items():
            if len(vset) > 1:
                problems.append(f"replica {rid} executed slot {slot} with different values")
            vids |= vset
        if len(vids) > 1:
            detail = {rid: sorted(vset) for rid, vset in sorted(per_replica.items())}
            problems.append(f"slot {slot} executed divergent values across replicas: {detail}")
    return problems
