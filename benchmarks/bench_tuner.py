"""Benchmark the (q, c) tuner on a synthetic 4-follower, 2 s window.

Usage: python3 benchmarks/bench_tuner.py [--repeat 3]

Each follower answers about every 2.2 ms, with a zero-size heartbeat point
every 20 ms, so a full window holds about 900 points per follower: the load
a leader sees on a small-value workload. Prints the best time per call, in
microseconds, of `RttTuner.record`, of one refit of a follower's model, of
`RttTuner.choose` between refits, and of a live second: the next second's
points recorded as they come, with one `choose` per millisecond and so a
refit every 200 ms.
"""

import argparse
import random
import time

from crossword.assignment import ClusterParams
from crossword.tuner import WINDOW_MS, RttTuner

FOLLOWERS = (1, 2, 3, 4)
PARAMS = ClusterParams.for_cluster(5)


def points(seconds: float, seed: int = 1) -> list[tuple[int, float, float, float]]:
    """(peer, size, rtt, at) in time order: 128 B rounds about every
    2.2 ms and zero-size heartbeats every 20 ms, for each follower."""
    rng = random.Random(seed)
    out = []
    for peer in FOLLOWERS:
        t = rng.uniform(0.0, 2.2)
        while t < seconds * 1000.0:
            size = 0.0 if int(t) % 20 == 0 else rng.gauss(128.0, 12.8)
            out.append((peer, size, 1.0 + size / 125_000.0 + rng.expovariate(20.0), t))
            t += rng.uniform(1.8, 2.6)
    out.sort(key=lambda p: p[3])
    return out


def filled_tuner(pts) -> RttTuner:
    tuner = RttTuner(PARAMS)
    for peer, size, rtt, at in pts:
        tuner.record(peer, size, rtt, at)
    return tuner


def best_of(repeat: int, fn, setup=lambda: None) -> float:
    """Best wall time of fn(setup()) over `repeat` runs; setup is untimed."""
    best = float("inf")
    for _ in range(repeat):
        arg = setup()
        t0 = time.perf_counter()
        fn(arg)
        best = min(best, time.perf_counter() - t0)
    return best


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--repeat", type=int, default=3, help="timing repetitions (best-of)")
    args = ap.parse_args()
    window_s = WINDOW_MS / 1000.0
    pts = points(window_s + 1.0)
    split = next(i for i, p in enumerate(pts) if p[3] >= WINDOW_MS)
    full, live = pts[:split], pts[split:]
    now = full[-1][3]
    tuner = filled_tuner(full)
    window = len(tuner._points[1])

    def refits(_):
        for _ in range(50):
            for peer in FOLLOWERS:
                tuner._cache.pop(peer, None)  # forget the fit: the next call refits
                tuner.model_for(peer, now)

    def cached_chooses(_):
        for i in range(5000):
            tuner.choose(float(100 + i % 64), list(FOLLOWERS), now)

    def live_second(t):
        at = now
        for peer, size, rtt, when in live:
            t.record(peer, size, rtt, when)
            if when >= at + 1.0:
                at = when
                t.choose(128.0, list(FOLLOWERS), at)

    rows = [
        ("record", len(full), best_of(args.repeat, lambda _: filled_tuner(full))),
        (f"refit ({window} points)", 200, best_of(args.repeat, refits)),
        ("choose, cached lines", 5000, best_of(args.repeat, cached_chooses)),
        ("live second, per point", len(live), best_of(args.repeat, live_second,
                                                      lambda: filled_tuner(full))),
    ]
    print(f"{'operation':<28} {'calls':>7} {'us/call':>9}")
    for name, calls, secs in rows:
        print(f"{name:<28} {calls:>7} {secs / calls * 1e6:>9.2f}")


if __name__ == "__main__":
    main()
