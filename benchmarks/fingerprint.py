"""Print one sha256 per simulated run, to show that a change moved no trace.

Usage:
    python3 benchmarks/fingerprint.py --workload small-rw --seeds 1-6
    python3 benchmarks/fingerprint.py --scenario scenarios/failover.yaml --seeds 1-3

A --workload run builds the named benchmark workload (perfbench/workloads.py,
read and never changed) for each seed and drains it by its DRAIN_MS, as the
benchmark does. A --scenario run loads the file, sets each seed in turn and
runs it as `crossword run` does. Each output line is `<seed> <sha256>`.

The hash covers everything a run leaves behind: the op history (versions
included), the traces, the commit events, the per-link parameters and
stats, the dropped-message count, the state digests and the final clock.
Two builds that print the same hashes simulated the same runs. Scratch
loops (criterion-7 cells, say) can import `fingerprint(result)` directly.
"""

import argparse
import hashlib
import importlib.util
import sys
from dataclasses import astuple, replace
from pathlib import Path

from crossword.harness import load_scenario, parse_scenario, run_scenario

ROOT = Path(__file__).resolve().parent.parent


def fingerprint(result) -> str:
    """sha256 over a run's history, traces, commits, links, drops, digests
    and clock."""
    net = result.net
    parts = (
        [astuple(op) for op in result.history],
        result.traces,
        result.commit_events,
        sorted((pair, astuple(p)) for pair, p in net.links.items()),
        sorted((pair, astuple(st)) for pair, st in net.stats.items()),
        net.dropped_msgs,
        sorted(result.state_digests.items()),
        net.clock,
    )
    return hashlib.sha256(repr(parts).encode()).hexdigest()


def _seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def _workloads():
    spec = importlib.util.spec_from_file_location("workloads", ROOT / "perfbench" / "workloads.py")
    module = sys.modules[spec.name] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    source = parser.add_mutually_exclusive_group(required=True)
    source.add_argument("--workload", help="a benchmark workload name, e.g. small-rw")
    source.add_argument("--scenario", help="a scenario file")
    parser.add_argument("--seeds", default="1", help="a seed or an inclusive range, e.g. 1-6")
    args = parser.parse_args(argv)
    if args.workload:
        workloads = _workloads()
        for seed in _seeds(args.seeds):
            wl = workloads.build(args.workload, seed)
            res = run_scenario(parse_scenario(wl.doc, wl.name), drain_ms=workloads.DRAIN_MS)
            print(seed, fingerprint(res), flush=True)
    else:
        sc = load_scenario(args.scenario)
        for seed in _seeds(args.seeds):
            print(seed, fingerprint(run_scenario(replace(sc, seed=seed))), flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
