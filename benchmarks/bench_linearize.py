"""Benchmark the linearizability checker on synthetic single-key histories.

Usage: python3 benchmarks/bench_linearize.py [--repeat 3]

Each history comes from closed-loop clients sharing one register: a client
invokes its next op a short think time after the previous one responds, and
every op takes effect at a random point inside its own interval, so the
history is linearizable by construction. Prints `check_linearizable`
throughput in ops/s for 1k and 10k ops at 2, 4 and 8 clients (the number of
ops in flight).
"""

import argparse
import random
import time

from crossword.harness.linearize import LinOp, check_linearizable


def closed_loop_history(n_ops: int, clients: int, seed: int = 1, key: str = "k") -> list[LinOp]:
    """`n_ops` ops on `key` from `clients` closed-loop clients; half are
    puts of fresh tokens, and each get returns the value at its own
    linearization point. Sorted by invocation."""
    rng = random.Random(seed)
    clock = [rng.uniform(0.0, 1.0) for _ in range(clients)]
    seqs = [0] * clients
    drafts = []  # (linearization point, client, seq, kind, token, invoke, respond)
    for i in range(n_ops):
        c = min(range(clients), key=clock.__getitem__)
        invoke = clock[c]
        respond = invoke + rng.uniform(0.5, 3.0)
        kind, token = ("put", f"v{i}") if rng.random() < 0.5 else ("get", None)
        drafts.append((rng.uniform(invoke, respond), c, seqs[c], kind, token, invoke, respond))
        seqs[c] += 1
        clock[c] = respond + rng.uniform(0.0, 0.5)
    value = None
    ops = []
    for _point, c, seq, kind, token, invoke, respond in sorted(drafts):
        if kind == "put":
            value = token
        ops.append(LinOp(c, seq, kind, key, token if kind == "put" else value, invoke, respond))
    ops.sort(key=lambda op: op.invoke_ms)
    return ops


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--repeat", type=int, default=3, help="timing repetitions (best-of)")
    args = ap.parse_args()
    print(f"{'ops':>7} {'clients':>7} {'best s':>9} {'ops/s':>10}")
    for n_ops in (1_000, 10_000):
        for clients in (2, 4, 8):
            ops = closed_loop_history(n_ops, clients)
            best = float("inf")
            for _ in range(args.repeat):
                t0 = time.perf_counter()
                verdict, _ = check_linearizable(ops)
                best = min(best, time.perf_counter() - t0)
                if verdict != "ok":
                    raise SystemExit(f"{n_ops} ops at {clients} clients: {verdict}")
            print(f"{n_ops:>7} {clients:>7} {best:>9.4f} {n_ops / best:>10.0f}")


if __name__ == "__main__":
    main()
