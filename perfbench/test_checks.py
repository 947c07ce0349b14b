"""Each of the benchmark's own checks passes on a real run and fails when one
output is tampered with.

    python3 -m pytest perfbench/test_checks.py -q
"""

import copy
import math
import sys
from dataclasses import replace
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

from crossword.harness import parse_scenario, run_scenario  # noqa: E402
from crossword.simnet import SimNet  # noqa: E402

import checks  # noqa: E402
import measure  # noqa: E402
from workloads import DRAIN_MS, GBPS, Phase, Workload  # noqa: E402

N, D = 5, 3
DOC = {
    "n": N,
    "protocol": "crossword",
    "seed": 5,
    "links": {"delay_ms": 1.0, "bandwidth_gbps": 1.0},
    "workload": {
        "clients": 2,
        "duration_ms": 800,
        "put_ratio": 0.7,
        "key_count": 4,
        "value_mixture": [[8, 0.5], [4096, 0.5]],
    },
}


@pytest.fixture(scope="module")
def run():
    return run_scenario(parse_scenario(copy.deepcopy(DOC)), drain_ms=500.0)


def _states(res):
    return [
        checks.ReplicaState(r.id, True, r.exec_idx, dict(r.versions), dict(r.kv))
        for r in res.replicas
    ]


def _sent(res):
    sent = {}
    for (a, b), st in res.net.stats.items():
        if a != b and a < N and b < N:
            sent[a] = sent.get(a, 0) + st.payload_bytes
    return sent


def test_whole_repeat_passes_every_check(monkeypatch):
    monkeypatch.setattr(SimNet, "run", SimNet.run)  # restored after the test
    clock = measure.StepClock()
    clock.install()
    rep = measure.run_once(Workload("tiny", copy.deepcopy(DOC)), clock)
    assert rep.problems == []
    assert rep.failed == 0 and rep.attempted > 50
    # one piece per simulated step, then the digests, the safety checks and
    # the linearizability check, each followed by a calibration slice
    steps = math.ceil((DOC["workload"]["duration_ms"] + DRAIN_MS) / measure.STEP_MS)
    assert len(clock.pieces) == len(clock.slices) == steps + 3


def test_version_conservation(run):
    states = _states(run)
    assert checks.version_conservation(run.history, states) == []
    top = max(states, key=lambda r: r.exec_idx)
    key = sorted(top.versions)[0]
    value = top.kv[key]

    def tamper(**fields):
        return [replace(r, **fields) if r is top else r for r in states]

    assert checks.version_conservation(
        run.history, tamper(versions={**top.versions, key: top.versions[key] + 1})
    )
    assert checks.version_conservation(run.history, tamper(kv={**top.kv, key: b"c9s9|" + value[5:]}))
    assert checks.version_conservation(run.history, tamper(kv={**top.kv, key: value[:-1]}))


def test_latency_bounds(run):
    assert checks.latency_bounds(run.history, 1.0, 1.0) == []
    put = next(op for op in run.history if op.kind == "put" and op.respond_ms is not None)
    fast = [replace(op, respond_ms=op.invoke_ms + 3.5) if op is put else op for op in run.history]
    assert checks.latency_bounds(fast, 1.0, 1.0)


def test_sent_byte_floor(run):
    sent = _sent(run)
    assert checks.sent_byte_floor(run.commit_events, sent, N, D) == []
    leader = run.commit_events[0][0]
    assert checks.sent_byte_floor(run.commit_events, {**sent, leader: sent[leader] // 2}, N, D)
    wider = [ev[:3] + (ev[3] + 1,) + ev[4:] if ev[3] < D else ev for ev in run.commit_events]
    assert checks.sent_byte_floor(wider, sent, N, D)


def test_failover_floor():
    assert checks.failover_floor(399.0, 300.0, 20.0) == []
    assert checks.failover_floor(150.0, 300.0, 20.0)


def test_chooser_matches_model():
    fast = (4.0, GBPS)
    phases = [
        Phase(0.0, 4000.0, "big", {p: fast for p in (1, 2, 3, 4)}),
        Phase(4000.0, 8000.0, "lagging", {1: fast, 2: fast, 3: (40.0, GBPS), 4: (40.0, GBPS)}),
    ]
    persist = checks.LinkModel(0.05, 1_000_000.0)
    good = [
        (0, 1, 5, 1, 131072, 9.0, 3000.0),
        (0, 2, 3, 3, 20, 8.0, 3100.0),
        (0, 3, 3, 3, 131072, 9.5, 7000.0),
    ]
    assert checks.chooser_matches_model(good, phases, N, D, persist) == []
    tampered = [good[0][:2] + (3, 3) + good[0][4:]] + good[1:]
    assert checks.chooser_matches_model(tampered, phases, N, D, persist)
    assert checks.chooser_matches_model(good[:2], phases, N, D, persist)  # no settled commits


def test_deterministic():
    fp = {"ops": 10, "op_latency_p50_ms": 2.5, "digests": [(0, 7)]}
    assert checks.deterministic([fp, dict(fp)]) == []
    assert checks.deterministic([fp, {**fp, "op_latency_p50_ms": 2.5000001}])
    assert checks.deterministic([fp, {**fp, "digests": [(0, 8)]}])
