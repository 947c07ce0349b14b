"""Shared fixture helpers: a directly-wired replica cluster on the simulated
network, with a recording client and a message spy hook. Used by the replica
state-machine tests and the acceptance suite."""

from crossword.protocol import Replica, ReplicaConfig, wire
from crossword.protocol.replica import LEADER
from crossword.simnet import LinkParams, SimNet

NET = LinkParams(delay_ms=0.5, bandwidth_bytes_per_ms=500_000.0)
DISK = LinkParams(delay_ms=0.05, bandwidth_bytes_per_ms=1_000_000.0)


class RecordingClient:
    def __init__(self, env, cid):
        self.env = env
        self.cid = cid
        self.replies = []

    def on_message(self, src, msg, now):
        self.replies.append((now, src, msg))

    def on_timer(self, tag, now):
        pass

    def on_persist_done(self, tag, now):
        pass

    def on_restart(self, now):
        pass

    def send(self, target, cmds):
        self.env.send(target, wire.ClientRequest(self.cid, cmds))

    def ok_entries(self):
        return [e for _, _, m in self.replies for e in m.entries]


def put(key, value, client, seq):
    return wire.Command(wire.PUT, key, value, client, seq)


def get(key, client, seq):
    return wire.Command(wire.GET, key, b"", client, seq)


def make_cluster(n=3, n_clients=1, spy=None, seed=7, net_params=NET, **cfg_kwargs):
    net = SimNet(size_of=wire.wire_size, payload_of=wire.payload_nbytes)
    traces = []
    ids = list(range(n)) + [100 + i for i in range(n_clients)]
    net.set_all_links(ids, net_params, DISK)
    replicas = []
    cfg = ReplicaConfig(n=n, seed=seed, **cfg_kwargs)
    for i in range(n):
        r = Replica(net.env(i), cfg, i, trace=lambda *a: traces.append(a))
        net.add_node(i, r)
        replicas.append(r)
    clients = []
    for i in range(n_clients):
        c = RecordingClient(net.env(100 + i), 100 + i)
        net.add_node(100 + i, c)
        clients.append(c)
    if spy is not None:
        inner = net.send

        def sniffing(src, dst, msg, size, payload_bytes=0):
            spy.append((net.clock, src, dst, msg))
            inner(src, dst, msg, size, payload_bytes)

        net.send = sniffing
    return net, replicas, clients, traces


def leader_of(replicas, alive=None):
    live = [
        r
        for r in replicas
        if r.role == LEADER and (alive is None or alive.get(r.id, True))
    ]
    assert len(live) == 1, f"expected one leader, roles: {[r.role for r in replicas]}"
    return live[0]
