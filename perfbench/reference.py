"""Reference table: every workload under crossword and the two static
protocols it is compared against, one benchmark process per cell.

    python3 perfbench/reference.py [--seed 1] [--seconds 36]

Prints a Markdown table of the end-to-end metrics, one row per workload and
protocol, ready to paste into perfbench/README.md.
"""

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
PROTOCOLS = ("crossword", "multipaxos", "rspaxos")
COLUMNS = (
    ("op_latency_p50_ms", "p50 ms", "{:.2f}"),
    ("op_latency_p99_ms", "p99 ms", "{:.2f}"),
    ("sim_throughput_ops_s", "sim ops/s", "{:.1f}"),
    ("repl_bytes_per_put", "repl B/put", "{:,.0f}"),
    ("unavailable_ms", "unavail ms", "{:.1f}"),
    ("ops_per_wall_s", "ops/wall s", "{:.0f}"),
    ("setup_s", "setup s", "{:.2f}"),
    ("peak_rss_mb", "RSS MiB", "{:.0f}"),
)


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=36.0)
    args = ap.parse_args()
    sys.path.insert(0, str(HERE))
    from workloads import WORKLOADS

    print("| workload | protocol | ok | " + " | ".join(label for _, label, _ in COLUMNS) + " |")
    print("|---|---|---|" + "---:|" * len(COLUMNS))
    for workload in WORKLOADS:
        for protocol in PROTOCOLS:
            cmd = [
                sys.executable, str(HERE / "run.py"), "--workload", workload,
                "--seed", str(args.seed), "--seconds", str(args.seconds),
                "--trace", "0", "--protocol", protocol,
            ]
            proc = subprocess.run(cmd, capture_output=True, text=True, check=True)
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            metrics = result["metrics"]
            cells = [fmt.format(metrics[name]["value"]) for name, _, fmt in COLUMNS]
            ok = "yes" if result["correct"] and not result["failed"] else f"no ({result['failed']} failed)"
            print(f"| {workload} | {protocol} | {ok} | " + " | ".join(cells) + " |", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
