"""Benchmark of the crossword program and of the system it simulates.

    python3 perfbench/run.py --workload dynamic-shift --seed 1 --seconds 36 --trace 0

Runs one workload (see workloads.py) through the program's public API,
repeating it while another repeat fits in --seconds (at least twice),
and prints one JSON line last on stdout:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {name: {"value", "unit"}}}.

--trace 0 reports the end-to-end metrics; --trace 1 runs one untraced repeat
and then traced repeats, reports the per-layer metrics and writes every span
of the last traced repeat to perfbench/out/. The program is imported from
src/ next to this directory, never from an installed copy; without it the
benchmark exits with status 2 and prints no result.
"""

import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

import checks  # noqa: E402

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"

UNITS = {
    "op_latency_p50_ms": "ms",
    "op_latency_p99_ms": "ms",
    "sim_throughput_ops_s": "ops/s",
    "repl_bytes_per_put": "bytes",
    "unavailable_ms": "ms",
    "ops_per_wall_s": "ops/s",
    "setup_s": "s",
    "peak_rss_mb": "MiB",
}


def layer_unit(name: str) -> str:
    if name.endswith(("_s", ".s")):
        return "s"
    if name.endswith("_ms"):
        return "ms"
    if name.endswith(".bytes") or name.startswith("repl_bytes."):
        return "bytes"
    if name.endswith("_per_op"):
        return "1/op"
    return "count"


def load_program() -> bool:
    """Put the checkout's src/ first on the import path and make sure the
    crossword package really comes from there."""
    pkg = SRC / "crossword"
    if not (pkg / "__init__.py").is_file():
        print(f"perfbench: no program source at {pkg}", file=sys.stderr)
        return False
    sys.path.insert(0, str(SRC))
    import crossword

    if Path(crossword.__file__).resolve().parent != pkg.resolve():
        print(f"perfbench: crossword imported from {crossword.__file__}, not {pkg}", file=sys.stderr)
        return False
    return True


def repeat_within(deadline: float, minimum: int, once) -> list:
    """Call ``once`` at least ``minimum`` times, and again while the last
    call's duration still fits before ``deadline``."""
    out, took = [], 0.0
    while len(out) < minimum or time.perf_counter() + took <= deadline:
        t = time.perf_counter()
        out.append(once())
        took = time.perf_counter() - t
    return out


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument(
        "--protocol", default="crossword", choices=("crossword", "multipaxos", "rspaxos"),
        help="replication mode (the static protocols serve as references)",
    )
    return ap.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not load_program():
        return 2
    from measure import StepClock, run_once
    from tracing import Tracer
    from workloads import WORKLOADS, build

    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    wl = build(args.workload, args.seed, args.protocol)
    clock = StepClock()
    clock.install()

    deadline = time.perf_counter() + args.seconds
    plain, traced, tracer = [run_once(wl, clock)], [], None
    setup_s = clock.first - T_START
    # one simulation's peak: later repeats only add the fragmentation that
    # repeating in one process leaves behind
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if args.trace:

        def traced_once():
            nonlocal tracer
            tracer = Tracer(wl.doc["n"])
            tracer.install()
            try:
                return run_once(wl, clock, tracer)
            finally:
                tracer.uninstall()

        traced = repeat_within(deadline, 1, traced_once)
    else:
        plain += repeat_within(deadline, 1, lambda: run_once(wl, clock))

    repeats = plain + traced
    problems = sorted({p for rep in repeats for p in rep.problems})
    problems += checks.deterministic([rep.fingerprint for rep in repeats])
    if len(traced) > 1:
        problems += checks.deterministic(
            [{k: v for k, v in rep.layers.items() if layer_unit(k) != "s"} for rep in traced]
        )
    rates = lambda reps: [rep.ops_per_s for rep in reps]
    if args.trace:
        metrics = {
            name: statistics.median(rep.layers[name] for rep in traced)
            for name in traced[-1].layers
        }
        units = {name: layer_unit(name) for name in metrics}
    else:
        metrics = {
            **repeats[0].sim,
            "ops_per_wall_s": statistics.median(rates(plain)),
            "setup_s": setup_s,
            "peak_rss_mb": peak_rss_mb,
        }
        units = UNITS
    result = {
        "correct": not problems,
        "attempted": sum(rep.attempted for rep in repeats),
        "failed": sum(rep.failed for rep in repeats),
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }

    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-{args.protocol}-s{args.seed}-t{args.trace}"
    detail = {
        **result,
        "workload": args.workload,
        "protocol": args.protocol,
        "seed": args.seed,
        "problems": problems,
        "wall_s": [rep.wall_s for rep in repeats],
        "slice_s": [rep.slice_s for rep in repeats],
        "traced": [False] * len(plain) + [True] * len(traced),
    }
    if args.trace:
        overhead = statistics.median(rates(plain)) / statistics.median(rates(traced))
        detail["trace_overhead"] = overhead
        tracer.write(OUT / f"trace-{stem}.json", {"workload": args.workload, "seed": args.seed})
        print(f"perfbench: tracing slows the program {overhead:.2f}x", file=sys.stderr)
    with open(OUT / f"result-{stem}.json", "w", encoding="utf-8") as fh:
        json.dump(detail, fh, indent=1)
    for p in problems:
        print(f"perfbench: check failed: {p}", file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
