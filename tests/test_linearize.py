"""Linearizability checker: positive/negative fixtures, pending-op
semantics, witness minimization, budget behavior, file round-trip, the
windowed search against the plain Wing–Gong search it replaced, and scale."""

import dataclasses
import importlib.util
import io
import os
import pathlib
import random
import subprocess
import sys
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from crossword.harness import parse_scenario, run_scenario
from crossword.harness.linearize import (
    INF,
    LinOp,
    _Budget,
    _search_key,
    check_linearizable,
    describe,
    from_history,
    read_history,
    write_history,
)

ROOT = pathlib.Path(__file__).resolve().parent.parent


def put(token, invoke, respond, key="k", client=1, seq=0):
    return LinOp(client, seq, "put", key, token, invoke, respond)


def get(token, invoke, respond, key="k", client=2, seq=0):
    return LinOp(client, seq, "get", key, token, invoke, respond)


def test_sequential_put_then_get_ok():
    verdict, _ = check_linearizable([put("a", 0, 1), get("a", 2, 3)])
    assert verdict == "ok"


def test_get_of_never_written_value_is_violation():
    ops = [put("a", 0, 10), put("b", 0, 10, client=3), get("zzz", 11, 12)]
    verdict, witness = check_linearizable(ops)
    assert verdict == "violation"
    assert witness
    assert all(op.key == "k" for op in witness)


def test_stale_read_is_violation_with_minimal_witness():
    ops = [
        put("a", 0, 1, seq=1),
        put("b", 2, 3, seq=2),
        get("a", 4, 5),  # b finished strictly before this read began
    ]
    verdict, witness = check_linearizable(ops)
    assert verdict == "violation"
    # the stale read alone needs all three ops to demonstrate the cycle
    assert witness == ops


def test_concurrent_put_get_sees_either_value():
    base = [put("a", 0, 1, seq=1), put("b", 2, 10, seq=2)]
    ok_old, _ = check_linearizable(base + [get("a", 3, 4)])
    ok_new, _ = check_linearizable(base + [get("b", 3, 4)])
    assert ok_old == "ok"
    assert ok_new == "ok"


def test_opposite_orders_of_concurrent_puts_conflict():
    ops = [
        put("a", 0, 10, seq=1),
        put("b", 0, 10, client=3, seq=1),
        get("a", 11, 12, seq=1),
        get("b", 13, 14, seq=2),  # would need b after a, contradicting read 1
    ]
    verdict, witness = check_linearizable(ops)
    assert verdict == "violation"
    # each read keeps the put it observed; neither read conflicts alone
    assert witness == ops


def test_pending_put_may_take_effect():
    ops = [put("a", 0, 1), put("b", 2, None, client=3), get("b", 5, 6)]
    verdict, _ = check_linearizable(ops)
    assert verdict == "ok"


def test_pending_put_may_never_take_effect():
    ops = [put("a", 0, 1), put("b", 2, None, client=3), get("a", 5, 6)]
    verdict, _ = check_linearizable(ops)
    assert verdict == "ok"


def test_pending_get_constrains_nothing():
    ops = [put("a", 0, 1), LinOp(2, 9, "get", "k", None, 2, None)]
    verdict, _ = check_linearizable(ops)
    assert verdict == "ok"


def test_read_of_absent_key_before_any_put_ok():
    ops = [get(None, 0, 1), put("a", 2, 3), get("a", 4, 5, seq=1)]
    verdict, _ = check_linearizable(ops)
    assert verdict == "ok"


def test_read_absent_after_completed_put_is_violation():
    ops = [put("a", 0, 1), get(None, 2, 3)]
    verdict, _ = check_linearizable(ops)
    assert verdict == "violation"


def test_keys_are_independent():
    ops = [
        put("a", 0, 1, key="x"),
        get("a", 2, 3, key="x"),
        put("b", 0, 1, key="y"),
        get("zzz", 2, 3, key="y"),
    ]
    verdict, witness = check_linearizable(ops)
    assert verdict == "violation"
    assert all(op.key == "y" for op in witness)


def test_budget_exhaustion_is_inconclusive_not_violation():
    # many concurrent puts + matching reads: huge frontier, tiny budget
    ops = []
    for i in range(12):
        ops.append(put(f"v{i}", 0, 100, client=i, seq=1))
    ops.append(get("v3", 101, 102, client=99))
    verdict, reason = check_linearizable(ops, budget=5)
    assert verdict == "inconclusive"
    assert "budget" in str(reason)


def test_large_serial_history_is_fast_and_ok():
    ops = []
    t = 0.0
    current = None
    for i in range(300):
        if i % 3 == 0:
            current = f"v{i}"
            ops.append(put(current, t, t + 1, seq=i))
        else:
            ops.append(get(current, t, t + 1, client=3, seq=i))
        t += 2
    verdict, _ = check_linearizable(ops)
    assert verdict == "ok"


def test_history_file_round_trip():
    ops = [put("a", 0, 1), get("a", 2, 3), put("b", 4, None, client=3)]
    buf = io.StringIO()
    write_history(ops, buf)
    buf.seek(0)
    back = read_history(buf)
    assert back == ops
    assert "pending" in describe(back[2])


def test_read_history_rejects_response_before_invocation():
    line = '{"client": 1, "seq": 0, "kind": "put", "key": "k", "token": "a", '
    line += '"invoke_ms": 5.0, "respond_ms": 4.0}\n'
    with pytest.raises(ValueError, match="line 1: responds before it is invoked"):
        read_history(io.StringIO(line))


# ------------------------------------------ equivalence with the old search


def old_search_key(ops, budget):
    """The plain Wing–Gong search the windowed one replaced, kept as the
    reference: every state scans and copies the whole remaining set."""
    n = len(ops)
    if n == 0:
        return True
    responds = [op.respond_ms if op.respond_ms is not None else INF for op in ops]
    full = frozenset(range(n))
    seen = set()
    stack = [(full, None)]
    while stack:
        remaining, value = stack.pop()
        if all(responds[i] == INF for i in remaining):
            return True
        state = (remaining, value)
        if state in seen:
            continue
        seen.add(state)
        if not budget.spend():
            return None
        frontier = min(responds[i] for i in remaining)
        for i in remaining:
            op = ops[i]
            if op.invoke_ms > frontier:
                continue
            rest = remaining - {i}
            if op.kind == "put":
                stack.append((rest, op.token))
                if op.respond_ms is None:
                    stack.append((rest, value))
            else:
                if op.token == value:
                    stack.append((rest, value))
    return False


def assert_same_verdict(key_ops):
    key_ops = sorted(key_ops, key=lambda op: op.invoke_ms)
    new = _search_key(key_ops, _Budget(10**7))
    assert new is not None
    assert new == old_search_key(key_ops, _Budget(10**7))
    return new


@st.composite
def register_histories(draw):
    """One key, 1–6 closed-loop clients on a coarse integer clock (so
    invocations and responses often tie). Each op takes effect at a drawn
    point of its interval; gets return the value there, unless redrawn as
    absent or as some other put's token. A client's last put may be pending,
    and a pending put may never take effect."""
    n_clients = draw(st.integers(1, 6))
    drafts = []  # [effect point, order, client, seq, kind, token, invoke, respond]
    for c in range(n_clients):
        t = draw(st.integers(0, 3))
        n_ops = draw(st.integers(0, 3))
        for seq in range(n_ops):
            kind = draw(st.sampled_from(["put", "get"]))
            dur = draw(st.integers(0, 4))
            respond = t + dur
            if kind == "put" and seq == n_ops - 1 and draw(st.booleans()):
                respond = None
            if respond is None and draw(st.booleans()):
                point = INF  # never takes effect
            else:
                point = t + draw(st.integers(0, dur if respond is not None else 6))
            token = f"c{c}s{seq}" if kind == "put" else None
            drafts.append([point, draw(st.integers(0, 99)), c, seq, kind, token, t, respond])
            if respond is None:
                break
            t = respond + draw(st.integers(0, 2))
    tokens = [d[5] for d in drafts if d[4] == "put"]
    value = None
    for d in sorted(drafts, key=lambda d: (d[0], d[1])):
        if d[4] == "put":
            if d[0] != INF:
                value = d[5]
        else:
            d[5] = value
            if draw(st.integers(0, 3)) == 0:
                d[5] = draw(st.sampled_from(tokens + [None]))
    return [LinOp(c, seq, kind, "k", token, inv, resp) for _, _, c, seq, kind, token, inv, resp in drafts]


@settings(max_examples=300)
@given(register_histories())
def test_windowed_search_matches_old_search(ops):
    assert_same_verdict(ops)


def small_rw_history():
    """Seed 1 of the `small-rw` benchmark workload (128 B puts beside gets,
    4 clients, 64 zipfian keys) on 1 ms links, cut to a quarter of its
    length so the old quadratic search stays cheap."""
    doc = {
        "n": 5,
        "protocol": "crossword",
        "chooser": "regression",
        "seed": 1,
        "links": {"delay_ms": 1.0, "bandwidth_gbps": 1.0},
        "workload": {
            "clients": 4,
            "duration_ms": 2500,
            "put_ratio": 0.6,
            "key_count": 64,
            "key_dist": "zipfian",
            "value_mean_bytes": 128,
            "value_stddev_ratio": 0.1,
        },
    }
    res = run_scenario(parse_scenario(doc, "small-rw"), drain_ms=500.0)
    return from_history(res.history)


def test_windowed_search_matches_old_search_on_a_run():
    ops = small_rw_history()
    by_key = {}
    for op in ops:
        by_key.setdefault(op.key, []).append(op)
    assert max(len(key_ops) for key_ops in by_key.values()) > 400
    assert all(assert_same_verdict(key_ops) for key_ops in by_key.values())
    rng = random.Random(1)
    gets = [op for op in ops if op.kind == "get"]
    violations = 0
    for read in rng.sample(gets, 40):
        key_ops = by_key[read.key]
        tokens = [op.token for op in key_ops if op.kind == "put" and op.token != read.token]
        tampered = dataclasses.replace(read, token=rng.choice(tokens + [None]))
        violations += not assert_same_verdict(
            [tampered if op is read else op for op in key_ops]
        )
    assert violations > 20


# ------------------------------------------------------------------- scale


def load_bench():
    spec = importlib.util.spec_from_file_location(
        "bench_linearize", ROOT / "benchmarks" / "bench_linearize.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_long_concurrent_history_is_ok_in_linear_time():
    ops = load_bench().closed_loop_history(20_000, clients=4)
    t0 = time.perf_counter()
    verdict, _ = check_linearizable(ops)
    assert verdict == "ok"
    assert time.perf_counter() - t0 < 10.0


def test_stale_read_in_long_history_keeps_the_observed_put():
    ops = load_bench().closed_loop_history(2_000, clients=4)
    i, read = next((i, op) for i, op in enumerate(ops[1000:], 1000) if op.kind == "get")
    # the put two completed puts back was overwritten before the read began
    stale = [op for op in ops if op.kind == "put" and op.respond_ms < read.invoke_ms][-3]
    ops[i] = dataclasses.replace(read, token=stale.token)
    verdict, witness = check_linearizable(ops)
    assert verdict == "violation"
    # the stale read, the put it observed, and one put that overwrote it
    assert len(witness) == 3
    assert ops[i] in witness and stale in witness


def test_bench_linearize_script_runs():
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "benchmarks" / "bench_linearize.py"), "--repeat", "1"],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert "ops/s" in proc.stdout
