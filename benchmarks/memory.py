"""Print the unique bytes each replica holds, per layer, at its first snapshot.

Usage:
    python3 benchmarks/memory.py --workload dynamic-shift --seed 1

Builds the named benchmark workload (perfbench/workloads.py, read and never
changed) and runs it as the benchmark does. Just before each replica takes
its first snapshot, while its log still holds every executed slot, it counts
the bytes of what that replica holds and what the network still carries,
each object once by id:

- payloads: decoded values (Instance.payload);
- own: durable shards (Instance.own_shards);
- gossip: pooled gossip shards (Instance.gossip_shards);
- pinned: payloads that only the shards above keep alive (the source a
  shard remembers, see crossword.erasure.Shard);
- queued: shards in messages on the network and in Accepts staged for a
  replica's disk write, anywhere in the cluster;
- total: the union of the layers, each object once.

Each replica's row is followed by an `all` row that counts every replica
at the same moment the same way, so a value that several replicas share
counts once there. A replica that never snapshots is counted at the end of
the run, and one `all` row counts every replica then.
"""

import argparse
import importlib.util
import sys
from pathlib import Path

from crossword.harness import parse_scenario, run_scenario
from crossword.protocol import Replica

ROOT = Path(__file__).resolve().parent.parent
LAYERS = ("payloads", "own", "gossip", "pinned", "queued")
MIB = 1024 * 1024


def _workloads():
    spec = importlib.util.spec_from_file_location("workloads", ROOT / "perfbench" / "workloads.py")
    module = sys.modules[spec.name] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _message_shards(msg):
    """The shard bytes a replica message carries."""
    shards = getattr(msg, "shards", None)
    if shards is not None:
        yield from shards.values()
    for entry in getattr(msg, "entries", None) or ():
        yield from (getattr(entry, "shards", None) or {}).values()


def _queued(net) -> list:
    out = []
    for _, _, _, data in net._heap:
        if len(data) == 3:  # a delivery: (src, dst, msg)
            out.extend(_message_shards(data[2]))
    for node in net.nodes.values():
        if isinstance(node, Replica):
            for accept in node._staged.values():
                out.extend(accept.shards.values())
    return out


def census(replicas: list[Replica], net) -> dict[str, int]:
    """Bytes per layer held by `replicas` plus the network's queue, each
    object counted once per layer, and the union of the layers as total."""
    layers = {name: {} for name in LAYERS}
    for r in replicas:
        for inst in r.log.values():
            if inst.payload is not None:
                layers["payloads"][id(inst.payload)] = inst.payload
            for sh in inst.own_shards.values():
                layers["own"][id(sh)] = sh
            for sh in inst.gossip_shards.values():
                layers["gossip"][id(sh)] = sh
    for sh in _queued(net):
        layers["queued"][id(sh)] = sh
    for name in ("own", "gossip"):
        for sh in layers[name].values():
            source = getattr(sh, "source", None)  # a crossword.erasure.Shard's
            if source is not None and id(source) not in layers["payloads"]:
                layers["pinned"][id(source)] = source
    everything = {}
    for objs in layers.values():
        everything.update(objs)
    out = {name: sum(map(len, objs.values())) for name, objs in layers.items()}
    out["total"] = sum(map(len, everything.values()))
    return out


def _row(label: str, at_ms: float, slots: int, counts: dict[str, int]) -> str:
    cells = " ".join(f"{counts[name] / MIB:9.1f}" for name in (*LAYERS, "total"))
    return f"{label:>7} {at_ms:9.1f} {slots:6d} {cells}"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, help="a benchmark workload name, e.g. small-rw")
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args(argv)
    workloads = _workloads()
    wl = workloads.build(args.workload, args.seed)
    sc = parse_scenario(wl.doc, wl.name)

    rows: dict[int, list[str]] = {}
    take_snapshot = Replica._take_snapshot

    def rows_of(replica, replicas, mark=""):
        net = replica.env.net
        return [
            _row(f"r{replica.id}{mark}", net.clock, len(replica.log), census([replica], net)),
            _row(f"all{mark}", net.clock, sum(len(r.log) for r in replicas), census(replicas, net)),
        ]

    def first_snapshot_census(replica):
        if replica.id not in rows:
            replicas = [r for r in replica.env.net.nodes.values() if isinstance(r, Replica)]
            rows[replica.id] = rows_of(replica, replicas)
        take_snapshot(replica)

    Replica._take_snapshot = first_snapshot_census
    try:
        res = run_scenario(sc, drain_ms=workloads.DRAIN_MS)
    finally:
        Replica._take_snapshot = take_snapshot

    print(f"{wl.name} seed {args.seed}: MiB per layer, each object counted once")
    print(f"{'replica':>7} {'at_ms':>9} {'slots':>6} " + " ".join(f"{n:>9}" for n in (*LAYERS, "total")))
    late = [r for r in res.replicas if r.id not in rows]
    for r in res.replicas:
        print(*rows.get(r.id) or rows_of(r, res.replicas, mark="*")[:1], sep="\n")
    if late:
        print(rows_of(late[0], res.replicas, mark="*")[1])
        print("* at the end of the run: the replica never took a snapshot")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
