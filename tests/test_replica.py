"""State-machine tests: commit flow, gossip repair, takeover recovery,
dedup, snapshots, and the negative durability case for single-shard mode;
then one replica driven message by message, for the deferral boundary, the
outstanding shard asks of its gossip tick and the shards it answers with."""

import pytest

from crossword import erasure
from crossword.assignment import ClusterParams, balanced_rr, encode_bitmap
from crossword.erasure import CodingScheme, encode
from crossword.protocol import Replica, ReplicaConfig, wire
from crossword.protocol.replica import (
    LEADER,
    Status,
    decode_batch,
    encode_batch,
    value_id,
)
from crossword.simnet import LinkParams

from cluster import RecordingClient, get, leader_of, make_cluster, put


def test_initial_leader_commits_and_all_execute():
    net, replicas, (cli,), traces = make_cluster(n=3)
    net.schedule_call(5.0, lambda now: cli.send(0, [put("a", b"x" * 1000, cli.cid, 1)]))
    net.run(100.0)
    lead = leader_of(replicas)
    assert lead.id == 0
    assert [e.status for e in cli.ok_entries()] == [wire.OK]
    for r in replicas:
        assert r.exec_idx == 1
        assert r.kv["a"] == b"x" * 1000
    assert len({r.state_digest() for r in replicas}) == 1


def test_single_shard_config_needs_gossip_to_execute():
    net, replicas, (cli,), traces = make_cluster(
        n=5, chooser="fixed", fixed_q=5, fixed_c=1, deferral_bytes=0
    )
    net.schedule_call(5.0, lambda now: cli.send(0, [put("k", b"v" * 900, cli.cid, 1)]))
    net.run(200.0)
    for r in replicas:
        assert r.exec_idx == 1
        assert r.kv["k"] == b"v" * 900
    assert any(t[0] == "promote" for t in traces)


def test_deferral_gap_postpones_follower_repair():
    net, replicas, (cli,), _ = make_cluster(
        n=5, chooser="fixed", fixed_q=5, fixed_c=1, deferral_bytes=10**9
    )
    net.schedule_call(5.0, lambda now: cli.send(0, [put("k", b"v" * 900, cli.cid, 1)]))
    net.run(300.0)
    assert replicas[0].exec_idx == 1  # leader holds the payload outright
    for r in replicas[1:]:
        assert r.exec_idx == 0
        assert r.log[0].status == Status.COMMITTED_PARTIAL
        assert 0 in r.partial_queue


def test_gossip_walks_ring_skipping_leader():
    spy = []
    net, replicas, (cli,), _ = make_cluster(
        n=5, chooser="fixed", fixed_q=5, fixed_c=1, deferral_bytes=0, spy=spy
    )
    net.schedule_call(5.0, lambda now: cli.send(0, [put("k", b"v" * 900, cli.cid, 1)]))
    net.run(200.0)
    wants_by_peer = {}
    for _, src, dst, msg in spy:
        if src == 2 and isinstance(msg, wire.Reconstruct):
            wants_by_peer.setdefault(dst, []).extend(msg.wants)
    # server 2 holds shard {2}: the ring walk asks 3 for {3} and 4 for {4},
    # never the leader or itself; each want counts the shards still needed
    assert set(wants_by_peer) == {3, 4}
    assert wants_by_peer[3][0] == (0, frozenset({3}), 2)
    assert wants_by_peer[4][0] == (0, frozenset({4}), 1)


def test_straggler_peer_skipped_after_silent_cycles():
    net, replicas, (cli,), _ = make_cluster(
        n=5, chooser="fixed", fixed_q=4, fixed_c=2, deferral_bytes=0,
        straggler_cycles=5,
    )
    net.schedule_call(5.0, lambda now: cli.send(0, [put("k", b"v" * 900, cli.cid, 1)]))
    net.schedule_crash(30.0, 3)
    net.run(600.0)
    # server 2 holds {2, 3}; its first pick, server 3, is dead, so the
    # request must eventually be re-planned around it
    assert replicas[2].exec_idx == 1
    assert replicas[2].kv["k"] == b"v" * 900


def test_leader_crash_value_recovered_by_new_leader():
    net, replicas, (cli,), _ = make_cluster(n=3, chooser="fixed", fixed_q=2, fixed_c=2)
    net.schedule_call(5.0, lambda now: cli.send(0, [put("k", b"precious", cli.cid, 1)]))
    net.schedule_crash(50.0, 0)
    net.run(2000.0)
    lead = leader_of(replicas[1:])
    assert lead.kv["k"] == b"precious"
    assert lead.exec_idx >= 1
    alive = [r for r in replicas[1:]]
    assert len({r.state_digest() for r in alive}) == 1


def test_rspaxos_loses_value_beyond_its_budget():
    net, replicas, (cli,), _ = make_cluster(n=5, protocol="rspaxos")
    # keep one follower out of the accept quorum, then crash the leader and
    # one acceptor: the three survivors hold 2 distinct shards, d = 3
    net.schedule_call(
        2.0, lambda now: net.partition([0], [4], up=False)
    )
    net.schedule_call(5.0, lambda now: cli.send(0, [put("k", b"gone" * 200, cli.cid, 1)]))
    net.schedule_call(60.0, lambda now: net.partition([0], [4], up=True))
    net.schedule_crash(70.0, 0)
    net.schedule_crash(70.0, 1)
    net.run(4000.0)
    lead = leader_of([replicas[2], replicas[3], replicas[4]])
    assert lead.commit_idx >= 1  # the slot is known committed...
    assert lead.exec_idx == 0  # ...but its value is unrecoverable
    assert 0 in lead.partial_queue
    assert "k" not in lead.kv


def test_multipaxos_followers_execute_without_repair_traffic():
    spy = []
    net, replicas, (cli,), _ = make_cluster(n=3, protocol="multipaxos", spy=spy)
    net.schedule_call(5.0, lambda now: cli.send(0, [put("k", b"z" * 5000, cli.cid, 1)]))
    net.run(100.0)
    for r in replicas:
        assert r.exec_idx == 1
        assert r.kv["k"] == b"z" * 5000
    assert not any(isinstance(m, wire.Reconstruct) for _, _, _, m in spy)
    accepts = [m for _, src, dst, m in spy if isinstance(m, wire.Accept)]
    assert all(m.full_payload and not m.shards for m in accepts)


def test_multipaxos_survives_leader_crash():
    net, replicas, (cli,), _ = make_cluster(n=3, protocol="multipaxos")
    net.schedule_call(5.0, lambda now: cli.send(0, [put("k", b"kept" * 100, cli.cid, 1)]))
    net.schedule_crash(50.0, 0)
    net.run(2000.0)
    lead = leader_of(replicas[1:])
    assert lead.kv["k"] == b"kept" * 100


def test_duplicate_request_applies_once():
    net, replicas, (cli,), _ = make_cluster(n=3)
    cmd = put("k", b"once", cli.cid, 1)
    net.schedule_call(5.0, lambda now: cli.send(0, [cmd]))
    net.schedule_call(6.0, lambda now: cli.send(0, [cmd]))  # retry in flight
    net.schedule_call(60.0, lambda now: cli.send(0, [cmd]))  # retry after exec
    net.run(200.0)
    assert replicas[0].versions["k"] == 1
    oks = [e for e in cli.ok_entries() if e.seq == 1]
    assert len(oks) >= 2  # original reply plus replay of the cached one
    assert all(e.version == 1 for e in oks)


def test_lease_read_skips_the_log():
    net, replicas, (cli,), traces = make_cluster(n=3)
    net.schedule_call(5.0, lambda now: cli.send(0, [put("k", b"v", cli.cid, 1)]))
    net.schedule_call(100.0, lambda now: cli.send(0, [get("k", cli.cid, 2)]))
    net.run(300.0)
    lead = leader_of(replicas)
    assert lead.next_slot == 1  # the read consumed no slot
    assert any(t[0] == "lease_read" for t in traces)
    got = [e for e in cli.ok_entries() if e.seq == 2]
    assert got and got[0].value == b"v"


def test_snapshot_then_restart_resumes_from_image():
    net, replicas, (cli,), traces = make_cluster(n=3, snapshot_stride=5)

    def feed(now, i=[0]):
        i[0] += 1
        if i[0] <= 12:
            cli.send(0, [put(f"k{i[0]}", bytes([i[0]]) * 50, cli.cid, i[0])])
            net.schedule_call(now + 10.0, feed)

    net.schedule_call(5.0, feed)
    net.schedule_crash(200.0, 2)
    net.schedule_restart(400.0, 2)
    net.run(1500.0)
    lead = leader_of(replicas)
    assert lead.exec_idx == 12
    assert replicas[2].snap_end >= 5
    assert all(s >= replicas[2].snap_end for s in replicas[2].log)
    assert replicas[2].kv == lead.kv
    assert replicas[2].exec_idx == lead.exec_idx


def test_uncommitted_slot_replaced_after_failover():
    net, replicas, (cli,), _ = make_cluster(n=3)
    # isolate the leader right before it proposes: the accept reaches nobody
    net.schedule_call(4.0, lambda now: net.partition([0], [1, 2], up=False))
    net.schedule_call(5.0, lambda now: cli.send(0, [put("k", b"lost", cli.cid, 1)]))
    net.schedule_crash(40.0, 0)
    net.schedule_call(45.0, lambda now: net.partition([0], [1, 2], up=True))
    net.schedule_restart(1500.0, 0)
    net.schedule_call(
        2000.0, lambda now: cli.send(leader_of(replicas).id, [put("k", b"won", cli.cid, 2)])
    )
    net.run(4000.0)
    assert len({r.state_digest() for r in replicas}) == 1
    for r in replicas:
        assert r.kv["k"] == b"won"


def test_takeover_merges_shards_across_ballots_by_value():
    net, replicas, _, _ = make_cluster(n=5, n_clients=0)
    r = replicas[0]
    scheme = r.params.scheme  # (5, 3)
    payload = encode_batch([put("k", b"merged-value", 900, 1)])
    cw = encode(payload, scheme)
    vid = value_id(payload)

    def entry(ballot, idxs, slot=0):
        return wire.PrepareEntry(
            slot=slot, accepted_ballot=ballot, vid=vid, committed=False,
            commit_ballot=0, n_shards=5, d=3, payload_len=len(payload),
            bitmap=b"", shards={i: cw.shards[i] for i in idxs},
        )

    r._prepare_from = 0
    # one shard at the top ballot, two more from an older acceptance of the
    # same value: only vid-keyed pooling can reach d = 3
    r._votes = {
        1: [entry(12, [0])],
        2: [entry(7, [1, 2])],
        3: [],
    }
    resolved = r._merge_votes()
    action, got = resolved[0]
    assert action == "repropose"
    assert got == payload

    # a different value at the top ballot must not borrow those shards
    other = encode_batch([put("k", b"other-value", 901, 1)])
    ocw = encode(other, scheme)
    r._votes = {
        1: [
            wire.PrepareEntry(
                slot=0, accepted_ballot=12, vid=value_id(other), committed=False,
                commit_ballot=0, n_shards=5, d=3, payload_len=len(other),
                bitmap=b"", shards={0: ocw.shards[0]},
            )
        ],
        2: [entry(7, [1, 2])],
        3: [],
    }
    resolved = r._merge_votes()
    assert resolved[0][0] == "noop"


def test_partitioned_follower_catches_up_after_heal():
    net, replicas, (cli,), _ = make_cluster(n=3)

    def feed(now, i=[0]):
        i[0] += 1
        if i[0] <= 8:
            cli.send(0, [put(f"k{i[0]}", b"w" * 200, cli.cid, i[0])])
            net.schedule_call(now + 15.0, feed)

    net.schedule_call(5.0, feed)
    net.schedule_call(20.0, lambda now: net.partition([2], [0, 1], up=False))
    net.schedule_call(160.0, lambda now: net.partition([2], [0, 1], up=True))
    net.run(1200.0)
    lead = leader_of(replicas)
    assert lead.id == 0  # majority side kept the leader stable
    assert replicas[2].exec_idx == lead.exec_idx == 8
    assert len({r.state_digest() for r in replicas}) == 1


@pytest.mark.parametrize("c, down_while_written", [(1, False), (2, True)])
def test_restarted_follower_fetches_each_missing_shard_once(c, down_while_written):
    """Follower 4 restarts 60 slots behind, on 40 Mbps links where one peer
    sending all five shards of every slot would take longer than the
    straggler window. Written at c = 1 it was up and knows every slot's
    holders; written at c = 2 it was down and knows none of them."""
    spy = []
    slow = LinkParams(delay_ms=0.5, bandwidth_bytes_per_ms=5_000.0)
    net, replicas, (cli,), _ = make_cluster(
        n=5, chooser="fixed", fixed_q=6 - c, fixed_c=c, deferral_bytes=0,
        spy=spy, net_params=slow,
    )
    slots, size, gap = 60, 20_000, 15.0
    written = 5.0 + slots * gap + 100.0
    if down_while_written:
        net.schedule_crash(1.0, 4)
    else:
        net.schedule_crash(written, 4)
    net.schedule_restart(written + 50.0, 4)

    def feed(now, i=[0]):
        i[0] += 1
        if i[0] <= slots:
            cli.send(0, [put(f"k{i[0]}", bytes([i[0]]) * size, cli.cid, i[0])])
            net.schedule_call(now + gap, feed)

    net.schedule_call(5.0, feed)
    r = replicas[4]
    unknown = set()  # slots learned from a heartbeat alone
    got = {"shards": 0, "to_decoded": 0}
    inner = r.on_message

    def on_message(src, msg, now):
        if now > written and isinstance(msg, wire.Heartbeat):
            unknown.update(
                s for s in range(r.commit_idx, msg.commit_idx) if s not in r.log
            )
        if now > written and isinstance(msg, wire.ReconstructReply):
            for e in msg.entries:
                inst = r.log.get(e.slot)
                got["shards"] += len(e.shards)
                if inst is not None and inst.status >= Status.COMMITTED_KNOWN:
                    got["to_decoded"] += sum(map(len, e.shards.values()))
        inner(src, msg, now)

    r.on_message = on_message
    net.run(written + 3000.0)
    lead = leader_of(replicas)
    assert lead.id == 0 and lead.exec_idx == slots
    assert r.exec_idx == slots and r.kv == lead.kv
    assert got["to_decoded"] == 0
    # every slot takes exactly the d - c shards it lacks
    assert got["shards"] == slots * (3 - (0 if down_while_written else c))
    wants = [
        (dst, want) for t, src, dst, m in spy
        if src == 4 and t > written and isinstance(m, wire.Reconstruct)
        for want in m.wants
    ]
    assert wants and all(dst != 0 for dst, _ in wants)  # never the leader
    if down_while_written:
        assert unknown == set(range(slots))
        assert all(1 <= need <= 3 for _, (_, _, need) in wants)
        # the catch-up splits across the followers by ring position
        assert {dst for dst, _ in wants} == {1, 2, 3}


# ------------------------------------------------ one follower, driven by hand

BALLOT = 5  # leader 0's first ballot at n = 5


class ScriptEnv:
    """A node handle that records what the replica sends and fires nothing:
    the test delivers every message, persist completion and timer itself."""

    def __init__(self):
        self.sent = []

    def send(self, dst, msg):
        self.sent.append((dst, msg))

    def set_timer(self, delay, tag):
        pass

    def persist(self, nbytes, tag):
        pass


def scripted_follower(rid=2, **cfg):
    env = ScriptEnv()
    r = Replica(env, ReplicaConfig(params=ClusterParams.for_cluster(5), **cfg), rid)
    return r, env


def slot_payload(slot, size):
    return encode_batch([put(f"k{slot}", b"v" * size, 900, slot + 1)])


def deliver_accept(r, slot, payload, c, now=1.0):
    """Leader 0's Accept of `payload` at config c, persisted at once."""
    scheme = r.params.scheme
    policy = balanced_rr(r.params, c)
    cw = encode(payload, scheme)
    own = {i: cw.shards[i] for i in sorted(policy.shards_of(r.id))}
    m = wire.Accept(
        0, slot, BALLOT, wire.KIND_RR, r.n + 1 - c, c, scheme.n_shards, scheme.d,
        len(payload), value_id(payload), encode_bitmap(policy), own, b"", now,
    )
    r.on_message(0, m, now)
    r.on_persist_done(("ap", slot, BALLOT, 0), now)


def deliver_heartbeat(r, commit_idx, now=1.0):
    r.on_message(0, wire.Heartbeat(0, BALLOT, commit_idx, now), now)


def recon_entry(slot, payload, idxs):
    scheme = CodingScheme(5, 3)
    cw = encode(payload, scheme)
    return wire.ReconEntry(
        slot, True, False, BALLOT, value_id(payload), BALLOT, 5, 3, len(payload),
        {i: cw.shards[i] for i in idxs},
    )


def no_data(slot):
    return wire.ReconEntry(slot, False, False, 0, 0, 0, 0, 0, 0, {})


def deliver_reply(r, src, entries, now=1.0):
    r.on_message(src, wire.ReconstructReply(src, entries), now)


def gossip_tick(r, env, now=1.0):
    """Fire one gossip cycle; return the Reconstruct wants it sent, by peer."""
    env.sent.clear()
    r.on_timer(("gossip", r._gossip_gen), now)
    return [(dst, m.wants) for dst, m in env.sent if isinstance(m, wire.Reconstruct)]


def walk_boundary(r):
    """Reference deferral boundary: the backwards walk over the log."""
    acc = 0
    slot = r.max_slot
    while slot >= 0:
        inst = r.log.get(slot)
        if inst is not None:
            if (
                inst.committed
                and inst.scheme is None
                and inst.status < Status.COMMITTED_KNOWN
            ):
                return slot
            acc += inst.payload_len
        if acc > r.cfg.deferral_bytes:
            return slot
        slot -= 1
    return -1


@pytest.mark.parametrize("deferral", [0, 700, 3000, 10**9])
def test_deferral_boundary_matches_walk(deferral):
    r, env = scripted_follower(deferral_bytes=deferral, snapshot_stride=8)
    seen = []

    def check():
        got = r._deferral_boundary()
        assert got == walk_boundary(r), f"step {len(seen)}"
        seen.append(got)

    check()  # empty log
    sizes = [40, 900, 10, 2500, 300, 1200]
    payloads = {s: slot_payload(s, size) for s, size in enumerate(sizes)}
    for slot, payload in payloads.items():
        deliver_accept(r, slot, payload, c=3 if slot % 2 else 1)
        check()
    # commits learned by heartbeat alone: slots 6 and 7 saw no Accept
    deliver_heartbeat(r, 8)
    check()
    assert r.log[7].scheme is None and 7 in r.partial_queue
    # gossip hands slot 6 its geometry, then slot 0 enough shards to decode
    payloads[6] = slot_payload(6, 700)
    deliver_reply(r, 3, [recon_entry(6, payloads[6], [3])])
    check()
    deliver_reply(r, 3, [recon_entry(0, payloads[0], [0, 1])])
    check()
    # a late Accept of a committed slot, then repair of every partial slot
    payloads[7] = slot_payload(7, 5)
    deliver_accept(r, 7, payloads[7], c=1)
    check()
    for slot in sorted(r.partial_queue):
        deliver_reply(r, 4, [recon_entry(slot, payloads[slot], [0, 1, 2, 3, 4])])
        check()
    for slot in range(8, 12):
        payloads[slot] = slot_payload(slot, 100 * slot)
        deliver_accept(r, slot, payloads[slot], c=3)
        check()
    # the repair executed slots 0..7, which the snapshot then truncated
    assert r.snap_end == 8 and sorted(r.log) == [8, 9, 10, 11]
    deliver_heartbeat(r, 12)
    check()
    assert r.exec_idx == 12
    # slots past the index's initial capacity, some learned only by heartbeat
    cap = r._lens.size
    for slot in range(cap - 2, cap + 3):
        deliver_accept(r, slot, slot_payload(slot, 60 + slot % 400), c=1 + slot % 3)
        check()
    deliver_heartbeat(r, 2 * cap + 5)
    check()
    deliver_accept(r, 3 * cap, slot_payload(3 * cap, 333), c=2)
    check()
    assert r._lens.size > cap
    r.on_restart(2.0)
    check()
    deliver_accept(r, 3 * cap + 1, slot_payload(3 * cap + 1, 5000), c=3)
    check()
    deliver_heartbeat(r, 3 * cap + 1, now=3.0)
    check()
    assert len(set(seen)) >= 4  # the boundary really moved


def _stalled_follower(straggler_cycles=2):
    """Follower 2 of n = 5 with four committed slots it cannot decode: slots
    0-2 accepted at c = 1 (it holds shard 2), slot 3 never accepted."""
    r, env = scripted_follower(deferral_bytes=0, straggler_cycles=straggler_cycles)
    payloads = [slot_payload(s, 120) for s in range(4)]
    for slot in range(3):
        deliver_accept(r, slot, payloads[slot], c=1)
    deliver_heartbeat(r, 4)
    return r, env, payloads


def test_outstanding_asks_route_around_then_expire():
    r, env, _ = _stalled_follower()
    first = dict(gossip_tick(r, env))
    # the ring from 2 is 3, 4, 1, with the leader 0 last; slot 3 has no
    # known holders, so its walk starts at ring position 3 mod 4, peer 1
    assert sorted(first) == [1, 3, 4]
    assert first[1] == [(3, frozenset(range(5)), 3)]
    assert gossip_tick(r, env) == []  # the asks are still outstanding
    # two silent cycles: 1, 3 and 4 are stragglers, so every ask goes to 0
    rerouted = dict(gossip_tick(r, env))
    assert sorted(rerouted) == [0]
    assert [slot for slot, _, _ in rerouted[0]] == [0, 1, 2, 3]
    assert gossip_tick(r, env) == []
    # four cycles after the first asks they expire, and 1, 3 and 4 are asked
    # again; the asks to 0 are two cycles old, so 0 is a straggler
    again = dict(gossip_tick(r, env))
    assert again == first


def test_reply_cancels_only_its_own_ask():
    r, env, payloads = _stalled_follower(straggler_cycles=10)
    first = dict(gossip_tick(r, env))
    assert [slot for slot, _, _ in first[3]] == [0, 1, 2]
    # peer 3 answers slot 1 with nothing: only its ask for slot 1 is gone
    deliver_reply(r, 3, [no_data(1)])
    assert gossip_tick(r, env) == [(3, [(1, frozenset({3}), 1)])]
    # peer 4 delivers both of slot 0's missing shards: slot 0 is decoded,
    # and its ask to 3, still unanswered, is dropped with it
    assert set(r._outstanding[0]) == {3, 4}
    deliver_reply(r, 4, [recon_entry(0, payloads[0], [3, 4])])
    assert r.log[0].status >= Status.COMMITTED_KNOWN
    assert 0 not in r.partial_queue
    assert 0 not in r._outstanding
    assert set(r._outstanding[2]) == {3, 4}
    assert gossip_tick(r, env) == []


# Reconstruct wants of follower 2 over a scripted series of gossip cycles;
# any change to them is a change of simulated traffic. Each want is (slot,
# shard indices, need), and shard sets compare equal to the frozensets the
# replica sends. Slots 3, 5 and 6 have no known holders: their walks start at
# ring positions 3, 1 and 2 (mod 4) of the ring 3, 4, 0, 1, with the leader 0
# last, so they go to peers 1, 4 and 1 rather than all to peer 3, and they
# ask for d = 3 shards, data stripes first, rather than all five. Comments
# name what changed against the wants recorded before each ask carried its
# need.
PINNED_WANTS = [
    [  # cycle 1: slot 3 {0..4} -> peer 1, need 3; slot 5 {0..4} -> peer 4, need 3
        (1, [(3, {0, 1, 2, 3, 4}, 3)]),
        (3, [(0, {3}, 2), (1, {3}, 2), (2, {3}, 2), (4, {4}, 1)]),
        (4, [(0, {4}, 1), (1, {4}, 1), (2, {4}, 1), (5, {0, 1, 2, 3, 4}, 3)]),
    ],
    [  # cycle 2: unchanged but for the need
        (3, [(1, {3}, 1)]),
    ],
    [  # cycle 3: peer 1 is a straggler too (slot 3's ask), so all go to the
        # leader; slot 4 {0, 1} -> need 1, and slot 0 is re-asked at need 1
        # for peer 4's silent ask
        (0, [(0, {0}, 1), (1, {0}, 2), (2, {0}, 2), (3, {0, 1, 2, 3, 4}, 3),
             (4, {0, 1}, 1), (5, {0, 1, 2, 3, 4}, 3)]),
    ],
    [],  # cycle 4
    [  # cycle 5: the cycle-1 asks expired; slots 3 and 5 at their own starts
        (1, [(1, {1}, 1), (2, {1}, 1), (3, {0, 1, 2, 3, 4}, 3)]),
        (4, [(0, {4}, 1), (1, {4}, 2), (2, {4}, 2), (5, {0, 1, 2, 3, 4}, 3)]),
    ],
    [],  # cycle 6: was peer 3 for slots 1 and 2, now covered by cycle 5
    [  # cycle 7: the leader replaces peer 1 for slots 0 and 2; slots 3 and
        # 5 at need 3
        (0, [(0, {0}, 1), (2, {0}, 1)]),
        (3, [(2, {3}, 2), (3, {0, 1, 2, 3, 4}, 3), (5, {0, 1, 2, 3, 4}, 3)]),
    ],
    [],  # cycle 8: was the leader and peer 1, now covered by cycle 7
    [  # cycle 9: slot 6 {0..4} -> peer 1, need 3; slot 5 stays at peer 4
        (1, [(2, {1}, 1), (3, {0, 1, 2, 3, 4}, 3), (6, {0, 1, 2, 3, 4}, 3)]),
        (4, [(0, {4}, 1), (2, {4}, 2), (5, {0, 1, 2, 3, 4}, 3)]),
    ],
    [],  # cycle 10
    [  # cycle 11: as cycle 7, with slot 6 at need 3
        (0, [(0, {0}, 1), (2, {0}, 1)]),
        (3, [(2, {3}, 2), (3, {0, 1, 2, 3, 4}, 3), (5, {0, 1, 2, 3, 4}, 3),
             (6, {0, 1, 2, 3, 4}, 3)]),
    ],
    [],  # cycle 12: was peer 1 for slots 0 and 2, now covered by cycle 11
]


def test_gossip_wants_pinned():
    r, env, payloads = _stalled_follower()
    payloads.append(slot_payload(4, 3000))
    deliver_accept(r, 4, payloads[4], c=2)  # holds shards 2 and 3
    deliver_heartbeat(r, 6)  # slot 5: committed, never accepted
    got = []
    for cycle in range(1, 13):
        if cycle == 2:
            deliver_reply(r, 3, [recon_entry(0, payloads[0], [3]), no_data(1)])
        if cycle == 4:
            deliver_reply(r, 4, [no_data(2), recon_entry(4, payloads[4], [4])])
        if cycle == 7:
            deliver_reply(r, 1, [recon_entry(1, payloads[1], [0, 1])])
        if cycle == 9:
            deliver_heartbeat(r, 7)
        got.append(gossip_tick(r, env))
    assert got == PINNED_WANTS


def _committed_follower(rid, c, payload):
    """Follower `rid` holding its shards of `payload`, accepted at config c
    as slot 0 and known committed."""
    r, env = scripted_follower(rid=rid, deferral_bytes=10**9)
    deliver_accept(r, 0, payload, c=c)
    deliver_heartbeat(r, 1)
    return r, env


def _answer(r, env, wants):
    env.sent.clear()
    r.on_message(1, wire.Reconstruct(1, wants), 2.0)
    ((dst, reply),) = env.sent
    assert dst == 1
    return reply.entries


def test_raw_responder_returns_its_parity_shard():
    payload = slot_payload(0, 300)
    r, env = _committed_follower(4, 1, payload)  # holds parity shard 4 only
    assert r.log[0].status == Status.COMMITTED_PARTIAL
    (entry,) = _answer(r, env, [(0, frozenset(range(5)), 3)])
    # the lowest indices are not here; what is here still goes back
    assert entry.has_data and not entry.authoritative
    assert entry.shards == {4: encode(payload, CodingScheme(5, 3)).shards[4]}


def test_decoded_responder_sends_data_stripes_without_coding(monkeypatch):
    payload = slot_payload(0, 3000)
    r, env = _committed_follower(2, 3, payload)  # holds 2, 3, 4: decodes
    assert r.log[0].status == Status.EXECUTED
    cw = encode(payload, CodingScheme(5, 3))
    calls = []
    inner = erasure.gf_matmul
    monkeypatch.setattr(erasure, "gf_matmul", lambda *a: calls.append(1) or inner(*a))
    (entry,) = _answer(r, env, [(0, frozenset(range(5)), 3)])
    assert entry.authoritative and sorted(entry.shards) == [0, 1, 2]
    assert calls == []
    assert b"".join(entry.shards[i] for i in range(3))[: len(payload)] == payload
    # at most `need` shards, lowest index first; a parity shard costs coding
    (entry,) = _answer(r, env, [(0, frozenset({1, 3, 4}), 2)])
    assert entry.shards == {1: cw.shards[1], 3: cw.shards[3]}
    assert len(calls) == 1
