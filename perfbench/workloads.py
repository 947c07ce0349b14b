"""The benchmark's workload definitions.

Each workload is a scenario document built here (never read from the
repository's ``scenarios/`` directory) and parsed by the program's own
``parse_scenario``. The seed given on the command line becomes the
scenario seed, which drives every client's key, size and put/get draws and
every replica's election timers.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

# Simulated milliseconds added after the clients stop issuing, so that
# in-flight operations, repair and execution settle before state is read.
DRAIN_MS = 2000.0


@dataclass(frozen=True)
class Phase:
    """One stretch of dynamic-shift with fixed link parameters."""

    start_ms: float
    end_ms: float
    label: str
    # (delay_ms, bandwidth_bytes_per_ms) of each follower's link to the leader
    follower_links: dict[int, tuple[float, float]]


@dataclass(frozen=True)
class Workload:
    name: str
    doc: dict
    # dynamic-shift only: phases for the commit-time model check
    phases: tuple[Phase, ...] = ()
    # leader-failover only: (node, crash_ms, restart_ms)
    crash: tuple[int, float, float] | None = None


GBPS = 125_000.0  # bytes per simulated ms at 1 Gb/s


def delay_scale(seed: int) -> float:
    """Each seed places the cluster a little differently: every propagation
    delay is stretched by the same factor, drawn from [1, 1.02). Latencies
    then vary continuously with the seed instead of landing on the same few
    discrete values that a jitter-free simulator produces."""
    return 1.0 + 0.02 * random.Random(f"{seed}:links").random()


def _dynamic_shift(seed: int) -> Workload:
    near, far = 4.0 * delay_scale(seed), 40.0 * delay_scale(seed)
    fast = (near, GBPS)
    doc = {
        "n": 5,
        "protocol": "crossword",
        "chooser": "regression",
        "seed": seed,
        "links": {"delay_ms": near, "bandwidth_gbps": 1.0},
        "workload": {
            "clients": 2,
            "duration_ms": 16000,
            "put_ratio": 0.9,
            "key_count": 8,
            "value_mean_bytes": 131072,
            "value_stddev_ratio": 0.0,
        },
        "faults": [
            {"at_ms": 4000, "kind": "set_workload", "value_mean_bytes": 8},
            {"at_ms": 8000, "kind": "set_workload", "value_mean_bytes": 131072},
            {"at_ms": 8000, "kind": "set_all_links",
             "link": {"delay_ms": near, "bandwidth_gbps": 0.1}},
            {"at_ms": 12000, "kind": "set_all_links",
             "link": {"delay_ms": near, "bandwidth_gbps": 1.0}},
            {"at_ms": 12000, "kind": "slow_node", "node": 3,
             "link": {"delay_ms": far, "bandwidth_gbps": 1.0}},
            {"at_ms": 12000, "kind": "slow_node", "node": 4,
             "link": {"delay_ms": far, "bandwidth_gbps": 1.0}},
        ],
    }
    phases = (
        Phase(0.0, 4000.0, "128 KiB @ 1 Gbps", {p: fast for p in (1, 2, 3, 4)}),
        Phase(4000.0, 8000.0, "8 B @ 1 Gbps", {p: fast for p in (1, 2, 3, 4)}),
        Phase(8000.0, 12000.0, "128 KiB @ 100 Mbps",
              {p: (near, GBPS / 10) for p in (1, 2, 3, 4)}),
        Phase(12000.0, 16000.0, "128 KiB, followers 3 and 4 at 40 ms",
              {1: fast, 2: fast, 3: (far, GBPS), 4: (far, GBPS)}),
    )
    return Workload("dynamic-shift", doc, phases=phases)


def _small_rw(seed: int) -> Workload:
    doc = {
        "n": 5,
        "protocol": "crossword",
        "chooser": "regression",
        "seed": seed,
        "links": {"delay_ms": delay_scale(seed), "bandwidth_gbps": 1.0},
        "workload": {
            "clients": 4,
            "duration_ms": 10000,
            "put_ratio": 0.6,
            "key_count": 64,
            "key_dist": "zipfian",
            "value_mean_bytes": 128,
            "value_stddev_ratio": 0.1,
        },
    }
    return Workload("small-rw", doc)


def _leader_failover(seed: int) -> Workload:
    doc = {
        "n": 5,
        "protocol": "crossword",
        "chooser": "regression",
        "seed": seed,
        "links": {"delay_ms": delay_scale(seed), "bandwidth_gbps": 1.0},
        "workload": {
            "clients": 2,
            "duration_ms": 6000,
            "put_ratio": 0.9,
            "key_count": 32,
            "value_mixture": [[64, 0.5], [65536, 0.5]],
            "retry_ms": 50,
        },
        # a narrow election window and quick client retries make the outage
        # track the election itself rather than one draw of a wide timer or
        # a coarse client timeout
        "heartbeat": {"interval_ms": 20.0, "election_min_ms": 300.0, "election_max_ms": 400.0},
        # no replica truncates its log during the run, so the rejoining
        # node can always fetch what it missed
        "snapshot_stride": 4000,
        "faults": [
            {"at_ms": 1500, "kind": "crash", "node": 0},
            {"at_ms": 4200, "kind": "restart", "node": 0},
        ],
    }
    return Workload("leader-failover", doc, crash=(0, 1500.0, 4200.0))


WORKLOADS = {
    "dynamic-shift": _dynamic_shift,
    "small-rw": _small_rw,
    "leader-failover": _leader_failover,
}


def build(name: str, seed: int, protocol: str = "crossword") -> Workload:
    """The named workload for `seed`; `protocol` swaps the replication mode
    for the reference comparison against the static protocols."""
    wl = WORKLOADS[name](seed)
    if protocol != "crossword":
        doc = {k: v for k, v in wl.doc.items() if k != "chooser"}
        doc["protocol"] = protocol
        wl = Workload(wl.name, doc, wl.phases, wl.crash)
    return wl
