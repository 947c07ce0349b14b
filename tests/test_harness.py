"""Harness: scenario parsing with field-path errors, workload generation,
runner determinism and safety checks, the explorer grid, metrics shapes, and
the CLI subcommands."""

import json
import re
from pathlib import Path

import pytest
import yaml

from crossword.harness import (
    ScenarioError,
    check_conservation,
    check_prefix_digests,
    check_slot_agreement,
    explore_rows,
    load_scenario,
    nearest_rank_p95,
    oracle_valid,
    parse_scenario,
    run_scenario,
    token_of,
    value_bytes,
)
from crossword.harness.cli import main
from crossword.harness.linearize import check_linearizable, from_history
from crossword.harness.scenario import WorkloadSpec
from crossword.harness.workload import ClosedLoopClient, WorkloadState, ZipfPicker
from crossword.protocol import wire
from crossword.simnet import LinkParams, SimNet
from crossword.assignment import ClusterParams
from crossword.quorum import Config, multipaxos_config, rspaxos_config


REPO = Path(__file__).resolve().parent.parent


def minimal(n=3, protocol="crossword", **extra):
    doc = {
        "n": n,
        "protocol": protocol,
        "workload": {
            "put_ratio": 0.8,
            "value_mean_bytes": 1500,
            "clients": 2,
            "duration_ms": 1500.0,
            "key_count": 4,
        },
        "seed": 5,
    }
    doc.update(extra)
    return doc


# ------------------------------------------------------------ scenario


def test_minimal_scenario_gets_all_defaults():
    sc = parse_scenario({"n": 5, "protocol": "crossword", "workload": {}})
    assert sc.gossip.deferral_bytes == 400_000
    assert sc.gossip.cycle_ms == 20.0
    assert sc.heartbeat.interval_ms == 20.0
    assert sc.heartbeat.election_min_ms == 300.0
    assert sc.batching_ms == 1.0
    assert sc.workload.value_stddev_ratio == 0.10
    assert sc.workload.zipf_theta == 0.99
    assert sc.links.delay_ms == 4.0
    assert sc.links.bandwidth_bytes_per_ms == 125_000.0  # 1 Gb/s


def _mean_over_mixture(doc):
    doc["workload"]["value_mixture"] = [[64, 0.5], [4096, 0.5]]
    doc["faults"] = [
        {"at_ms": 9, "kind": "crash", "node": 1},
        {"at_ms": 5, "kind": "set_workload", "put_ratio": 0.5, "value_mean_bytes": 8},
    ]


@pytest.mark.parametrize(
    "mutate, path",
    [
        (lambda d: d.pop("n"), "n"),
        (lambda d: d.update(n=4), "n"),
        (lambda d: d.update(protocol="paxos"), "protocol"),
        (lambda d: d["workload"].update(put_ratio=1.5), "workload.put_ratio"),
        (lambda d: d["workload"].update(bogus=1), "workload.bogus"),
        (lambda d: d.update(extra_field=1), "extra_field"),
        (lambda d: d.update(faults=[{"at_ms": 5, "kind": "meteor"}]), "faults[0].kind"),
        (lambda d: d.update(faults=[{"kind": "crash", "node": 0}]), "faults[0].at_ms"),
        (lambda d: d.update(faults=[{"at_ms": 1, "kind": "crash", "node": 9}]), "faults[0].node"),
        (lambda d: d.update(links={"bandwidth_gbps": 1, "bandwidth_bytes_per_ms": 2}), "links"),
        (lambda d: d.update(heartbeat={"election_min_ms": 500, "election_max_ms": 400}),
         "heartbeat.election_max_ms"),
        # fixed (q, c) outside the availability region at n = 5
        (lambda d: d.update(n=5, chooser="fixed", fixed_q=2, fixed_c=1), "fixed_q"),
        (lambda d: d.update(n=5, chooser="fixed", fixed_q=3, fixed_c=1), "fixed_q"),
        # knobs that no longer exist
        (lambda d: d.update(f=1), "f"),
        (lambda d: d.update(chooser="threshold"), "chooser"),
        (lambda d: d.update(chooser_table=[[65536, 1]]), "chooser_table"),
        (lambda d: d.update(lease={"enabled": True}), "lease.enabled"),
        (lambda d: d.update(gossip={"enabled": True}), "gossip.enabled"),
        # a mean size a value mixture would ignore
        (_mean_over_mixture, "faults[1].value_mean_bytes"),
    ],
)
def test_malformed_scenarios_name_the_field(mutate, path):
    doc = minimal()
    mutate(doc)
    with pytest.raises(ScenarioError) as err:
        parse_scenario(doc)
    assert err.value.path == path


def test_yaml_float_read_as_text_is_named():
    """YAML 1.1 reads 1.0e6 as a string; the error says so, and names the
    spelling it reads as a float."""
    doc = minimal(persist=yaml.safe_load("{bandwidth_bytes_per_ms: 1.0e6}"))
    with pytest.raises(ScenarioError) as err:
        parse_scenario(doc)
    assert err.value.path == "persist.bandwidth_bytes_per_ms"
    assert "'1.0e6'" in err.value.reason and "1.0e+6" in err.value.reason
    doc["persist"] = yaml.safe_load("{bandwidth_bytes_per_ms: 1.0e+6}")
    assert parse_scenario(doc).persist.bandwidth_bytes_per_ms == 1_000_000.0


def test_scenario_yaml_file_round_trip(tmp_path):
    p = tmp_path / "s.yaml"
    p.write_text(
        "n: 5\nprotocol: rspaxos\nseed: 77\n"
        "workload: {put_ratio: 1.0, value_mean_bytes: 64, clients: 1, duration_ms: 500}\n"
        "links: {delay_ms: 2.5, bandwidth_gbps: 0.1}\n"
        "faults:\n  - {at_ms: 100, kind: partition, group_a: [0], group_b: [1, 2, 3, 4]}\n"
    )
    sc = load_scenario(str(p))
    assert sc.protocol == "rspaxos"
    assert sc.links.bandwidth_bytes_per_ms == pytest.approx(12_500.0)
    assert sc.faults[0].kind == "partition"
    assert sc.faults[0].args["group_b"] == [1, 2, 3, 4]


def test_fixed_chooser_requires_q_and_c():
    with pytest.raises(ScenarioError) as err:
        parse_scenario(minimal(chooser="fixed"))
    assert err.value.path == "fixed_q"


def test_readme_scenario_example_parses():
    text = (REPO / "README.md").read_text(encoding="utf-8")
    blocks = re.findall(r"^```yaml\n(.*?)^```", text, re.S | re.M)
    assert len(blocks) == 1
    sc = parse_scenario(yaml.safe_load(blocks[0]), "README.md")
    assert sc.link_overrides[0].link.delay_ms == 40.0


@pytest.mark.parametrize(
    "path", sorted((REPO / "scenarios").glob("*.yaml")), ids=lambda p: p.name
)
def test_shipped_scenarios_load(path):
    load_scenario(str(path))


# ------------------------------------------------------------ workload


def test_zipf_picker_is_skewed_and_deterministic():
    z = ZipfPicker(100, 0.99)
    import random

    rng = random.Random(42)
    draws = [z.pick(rng.random()) for _ in range(4000)]
    counts = [draws.count(i) for i in range(4)]
    assert counts[0] > counts[1] > counts[2]
    assert counts[0] > len(draws) * 0.1
    rng2 = random.Random(42)
    assert draws == [z.pick(rng2.random()) for _ in range(4000)]


def test_value_token_survives_truncation():
    full = value_bytes(1001, 123, 4096)
    assert len(full) == 4096
    tiny = value_bytes(1001, 123, 8)
    assert len(tiny) == 8
    # same bytes always map to the same token, and different values
    # (even truncation-related) map to different tokens
    assert token_of(full) == token_of(bytes(full))
    assert token_of(full) != token_of(tiny)
    assert token_of(tiny) == token_of(value_bytes(1001, 123, 8))
    assert token_of(b"") == "#0"


# -------------------------------------------------------------- runner


def test_run_is_deterministic_per_seed():
    sc = parse_scenario(minimal())
    a = run_scenario(sc)
    b = run_scenario(sc)
    assert [vars(op) for op in a.history] == [vars(op) for op in b.history]
    assert list(a.report.records()) == list(b.report.records())
    c = run_scenario(parse_scenario(minimal(seed=6)))
    assert list(a.report.records()) != list(c.report.records())


def test_closed_loop_clients_never_overlap_their_own_ops():
    res = run_scenario(parse_scenario(minimal()))
    by_client = {}
    for op in res.history:
        by_client.setdefault(op.client, []).append(op)
    assert len(by_client) == 2
    for ops in by_client.values():
        assert [op.seq for op in ops] == list(range(1, len(ops) + 1))
        for prev, nxt in zip(ops, ops[1:]):
            assert prev.respond_ms is not None
            assert nxt.invoke_ms >= prev.respond_ms
    assert res.report.summary["ops_completed"] > 50


def test_completed_ops_leave_no_live_retry_wakeups(monkeypatch):
    """A client keeps one pending retry wake-up, not one per op, and one left
    by a completed op never reaches it as ("retry", seq of the op in
    flight), the tag a real retry carries."""
    calls = []
    inner = ClosedLoopClient.on_timer

    def spy(client, tag, now):
        if tag[0] == "retry":
            calls.append(tag[1] == client.seq and client.current is not None)
        inner(client, tag, now)

    monkeypatch.setattr(ClosedLoopClient, "on_timer", spy)
    doc = minimal()
    doc["workload"]["retry_ms"] = 100.0
    res = run_scenario(parse_scenario(doc), drain_ms=300.0)
    assert res.report.summary["ops_completed"] > 100
    assert all(op.respond_ms is not None for op in res.history)
    assert True not in calls
    # a wake-up per client per retry interval at most
    assert 0 < len(calls) <= 2 * (1500 + 300) / 100


def test_redirected_op_retries_at_its_first_deadline():
    """Node 0 redirects to node 1, which never answers: the retry armed by
    the first send still fires 50 ms after it, then the resend's own."""
    net = SimNet(size_of=lambda m: 100)
    sent = []

    class Redirector:
        def on_message(self, src, msg, now):
            net.send(0, src, wire.ClientReply(0, [], 1), 100)

    class Silent:
        def on_message(self, src, msg, now):
            pass

    net.add_node(0, Redirector())
    net.add_node(1, Silent())
    net.add_node(2, Silent())
    state = WorkloadState.from_spec(WorkloadSpec())
    client = ClosedLoopClient(net.env(9), 9, 3, state, 1, 50.0, 0.0, [], stop_ms=1.0)
    net.add_node(9, client)
    net.set_all_links([0, 1, 2, 9], LinkParams(2.0, 1e6), LinkParams(0.0, 1e6))
    inner = net.send

    def spy(src, dst, msg, size, payload_bytes=0):
        if src == 9:
            sent.append((net.clock, dst))
        inner(src, dst, msg, size, payload_bytes)

    net.send = spy
    client.start()
    net.run(60.0)
    t1 = 2 * (2.0 + 100 / 1e6)  # the redirect comes back after a round trip
    # the retries rotate the target: 1 + 1 = 2, then 2 + 1 = 0
    assert sent[:4] == [(0.0, 0), (t1, 1), (50.0, 2), (t1 + 50.0, 0)]


def test_crash_restart_run_passes_all_safety_checks():
    sc = parse_scenario(
        minimal(
            n=5,
            faults=[
                {"at_ms": 400.0, "kind": "crash", "node": 1},
                {"at_ms": 700.0, "kind": "restart", "node": 1},
                {"at_ms": 800.0, "kind": "partition", "group_a": [4], "group_b": [0, 1, 2, 3]},
                {"at_ms": 1100.0, "kind": "heal", "group_a": [4], "group_b": [0, 1, 2, 3]},
            ],
        )
    )
    res = run_scenario(sc, drain_ms=1000.0)
    assert check_conservation(res) == []
    assert check_slot_agreement(res) == []
    assert check_prefix_digests(res) == []
    verdict, _ = check_linearizable(from_history(res.history))
    assert verdict == "ok"


def test_leader_crash_gap_then_recovery():
    sc = parse_scenario(
        minimal(n=3, faults=[{"at_ms": 600.0, "kind": "crash", "node": 0}])
    )
    sc.workload.duration_ms = 2500.0
    res = run_scenario(sc, drain_ms=500.0)
    after = [ev for ev in res.commit_events if ev[6] > 600.0]
    assert after, "commits resume after failover"
    assert any(g["gap_ms"] >= 300.0 for g in res.report.failover_gaps)
    verdict, _ = check_linearizable(from_history(res.history))
    assert verdict == "ok"
    assert check_slot_agreement(res) == []


def test_set_workload_shifts_chosen_config():
    sc = parse_scenario(
        minimal(
            n=5,
            faults=[{"at_ms": 2000.0, "kind": "set_workload", "value_mean_bytes": 256_000}],
        )
    )
    sc.workload.clients = 2
    sc.workload.value_mean_bytes = 64
    sc.workload.put_ratio = 1.0
    sc.workload.duration_ms = 4500.0
    res = run_scenario(sc)
    early = {ev[3] for ev in res.commit_events if 1000.0 < ev[6] < 2000.0}
    late = {ev[3] for ev in res.commit_events if ev[6] > 4000.0}
    assert early == {3}  # tiny values: latency tie broken toward smallest q, c = m
    assert late == {1}  # 256 KB values: transfer-bound, one shard per follower


def test_slow_node_fault_is_applied_and_run_completes():
    sc = parse_scenario(
        minimal(
            n=5,
            faults=[
                {
                    "at_ms": 500.0,
                    "kind": "slow_node",
                    "node": 4,
                    "link": {"delay_ms": 40.0, "bandwidth_gbps": 0.05},
                }
            ],
        )
    )
    res = run_scenario(sc)
    assert res.net.links[(4, 0)].delay_ms == 40.0
    assert res.net.links[(0, 4)].delay_ms == 40.0
    assert res.net.links[(0, 1)].delay_ms == 4.0
    assert res.report.summary["ops_completed"] > 0


def test_link_override_changes_one_pair_only():
    sc = parse_scenario(
        minimal(n=3, link_overrides=[{"a": 0, "b": 2, "delay_ms": 9.0, "bandwidth_gbps": 1.0}])
    )
    res = run_scenario(sc)
    assert res.net.links[(0, 2)].delay_ms == 9.0
    assert res.net.links[(2, 0)].delay_ms == 9.0
    assert res.net.links[(0, 1)].delay_ms == 4.0


def test_staleness_zero_without_writes():
    doc = minimal(n=5)
    doc["workload"]["put_ratio"] = 0.0
    doc["workload"]["key_count"] = 1
    doc["follower_reads"] = {"enabled": True, "readers": 2, "interval_ms": 25.0, "key": "k0"}
    res = run_scenario(parse_scenario(doc))
    assert len(res.staleness) > 20
    assert all(behind == 0 for _, _, behind in res.staleness)


def test_staleness_appears_with_writes_and_large_gap():
    doc = minimal(n=5)
    doc.update(chooser="fixed", fixed_q=5, fixed_c=1)
    doc["workload"].update(put_ratio=1.0, key_count=1, value_mean_bytes=8000, clients=2)
    doc["gossip"] = {"deferral_bytes": 1_000_000}
    doc["follower_reads"] = {"enabled": True, "readers": 1, "interval_ms": 20.0, "key": "k0"}
    res = run_scenario(parse_scenario(doc))
    assert res.report.summary["mean_staleness"] > 1.0


# ------------------------------------------------------------- explore


def test_explore_grid_matches_oracle_for_small_n():
    rows = explore_rows([3, 5])
    assert len(rows) == 9 + 25
    assert all(r["valid_c4"] == r["valid_oracle"] for r in rows)
    val = {(r["n"], r["q"], r["c"]): r["valid_c4"] for r in rows}
    assert val[(5, 3, 3)] and val[(5, 4, 2)] and val[(5, 5, 1)]
    assert not val[(5, 4, 1)]
    assert not val[(5, 2, 5)]


def test_special_points_against_region():
    for n in (3, 5, 7, 9):
        params = ClusterParams.for_cluster(n)
        mp, rsp = multipaxos_config(params), rspaxos_config(params)
        assert oracle_valid(params, mp)
        assert oracle_valid(params, rsp) == (n == 3)


# ------------------------------------------------------------- metrics


def test_p95_nearest_rank():
    assert nearest_rank_p95([]) == 0.0
    assert nearest_rank_p95([7.0]) == 7.0
    xs = [float(i) for i in range(1, 101)]
    assert nearest_rank_p95(xs) == 95.0
    assert nearest_rank_p95(xs[:20]) == 19.0


def test_per_second_buckets_cover_all_completed_ops():
    res = run_scenario(parse_scenario(minimal()))
    total = sum(rec["ops"] for rec in res.report.seconds)
    assert total == res.report.summary["ops_completed"]
    assert {rec["t_s"] for rec in res.report.seconds} == {0, 1}


# ----------------------------------------------------------------- CLI


def test_cli_run_writes_metrics_and_history(tmp_path, capsys):
    scen = tmp_path / "s.yaml"
    scen.write_text(
        "n: 3\nprotocol: crossword\nseed: 2\n"
        "workload: {put_ratio: 0.9, value_mean_bytes: 600, clients: 2, duration_ms: 1200}\n"
    )
    out = tmp_path / "m.jsonl"
    hist = tmp_path / "h.jsonl"
    code = main(["run", str(scen), "--out", str(out), "--history", str(hist)])
    assert code == 0
    records = [json.loads(line) for line in out.read_text().splitlines()]
    types = {rec["type"] for rec in records}
    assert {"second", "instance", "link", "summary"} <= types
    assert main(["linearize", str(hist)]) == 0
    assert "linearizable" in capsys.readouterr().out


def test_cli_run_seed_override_changes_output(tmp_path):
    scen = tmp_path / "s.yaml"
    scen.write_text(
        "n: 3\nprotocol: crossword\n"
        "workload: {put_ratio: 1.0, value_mean_bytes: 600, clients: 1, duration_ms: 800}\n"
    )
    a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    assert main(["run", str(scen), "--seed", "1", "--out", str(a)]) == 0
    assert main(["run", str(scen), "--seed", "2", "--out", str(b)]) == 0
    assert a.read_text() != b.read_text()


def test_cli_rejects_bad_scenario_with_field_path(tmp_path, capsys):
    scen = tmp_path / "bad.yaml"
    scen.write_text("n: 4\nprotocol: crossword\nworkload: {}\n")
    assert main(["run", str(scen)]) == 2
    assert "n" in capsys.readouterr().err


def test_cli_explore_all_sizes(capsys):
    assert main(["explore", "--n", "3,5,7,9"]) == 0
    out = capsys.readouterr().out.strip().splitlines()
    assert len(out) == 9 + 25 + 49 + 81
    assert "n=3 q=2 c=2 valid_c4=true valid_oracle=true" in out


def test_cli_linearize_violation_exits_2(tmp_path, capsys):
    hist = tmp_path / "h.jsonl"
    lines = [
        {"client": 1, "seq": 1, "kind": "put", "key": "k", "token": "a",
         "invoke_ms": 0.0, "respond_ms": 1.0},
        {"client": 2, "seq": 1, "kind": "get", "key": "k", "token": "zzz",
         "invoke_ms": 2.0, "respond_ms": 3.0},
    ]
    hist.write_text("".join(json.dumps(l) + "\n" for l in lines))
    assert main(["linearize", str(hist)]) == 2
    out = capsys.readouterr().out
    assert "witness" in out
    assert (tmp_path / "h.jsonl.witness.jsonl").exists()


def test_cli_staleness_outputs_samples(tmp_path, capsys):
    scen = tmp_path / "s.yaml"
    scen.write_text(
        "n: 5\nprotocol: crossword\nseed: 4\nchooser: fixed\nfixed_q: 5\nfixed_c: 1\n"
        "workload: {put_ratio: 1.0, value_mean_bytes: 4000, clients: 1, duration_ms: 1500, key_count: 1}\n"
        "follower_reads: {enabled: true, readers: 1, interval_ms: 25.0, key: k0}\n"
    )
    assert main(["staleness", str(scen)]) == 0
    out = capsys.readouterr().out.strip().splitlines()
    assert json.loads(out[-1])["samples"] > 10
