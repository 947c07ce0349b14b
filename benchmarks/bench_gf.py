"""Benchmark the GF(256) matrix kernel and the coding API built on it.

Usage: python3 benchmarks/bench_gf.py [--repeat 5]

Times the two shapes the coding path actually uses — parity generation
(p×d times d×L) and decode (d×d times d×L) — across payload-sized widths,
then an end-to-end encode/reconstruct pass through the public API.
"""

import argparse
import time

import numpy as np

from crossword.erasure import CodingScheme, encode, gf_matmul, reconstruct


def time_fn(fn, *args, repeat: int) -> float:
    best = float("inf")
    for _ in range(repeat):
        t0 = time.perf_counter()
        fn(*args)
        best = min(best, time.perf_counter() - t0)
    return best


def bench_kernel(repeat: int) -> None:
    rng = np.random.default_rng(7)
    print(f"{'kernel shape':<14} {'width':>9} {'MB/s':>9}")
    for label, out_rows, inner in (("parity (2x3)", 2, 3), ("decode (3x3)", 3, 3)):
        # 43,691 B: a 128 KiB value split three ways, an odd width
        for width in (1024, 32 * 1024, 43691, 1024 * 1024 // 3):
            m = rng.integers(1, 256, size=(out_rows, inner), dtype=np.uint8)
            s = rng.integers(0, 256, size=(inner, width), dtype=np.uint8)
            mb = out_rows * inner * width / 1e6
            t = time_fn(gf_matmul, m, s, repeat=repeat)
            print(f"{label:<14} {width:>9} {mb / t:>9.1f}")


def bench_api(repeat: int) -> None:
    scheme = CodingScheme(n_shards=5, d=3)
    payload = bytes(np.random.default_rng(11).integers(0, 256, size=1_000_000, dtype=np.uint8))
    t_enc = time_fn(encode, payload, scheme, repeat=repeat)
    cw = encode(payload, scheme)
    present = {0: cw.shards[0], 3: cw.shards[3], 4: cw.shards[4]}  # 1 data + 2 parity
    assert reconstruct(present, scheme, len(payload)) == payload
    t_dec = time_fn(reconstruct, present, scheme, len(payload), repeat=repeat)
    print()
    print(f"encode    1 MB (5,3): {t_enc * 1000:7.2f} ms  ({1.0 / t_enc:6.1f} MB/s)")
    print(f"decode    1 MB worst: {t_dec * 1000:7.2f} ms  ({1.0 / t_dec:6.1f} MB/s)")


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--repeat", type=int, default=5, help="timing repetitions (best-of)")
    args = ap.parse_args()
    bench_kernel(args.repeat)
    bench_api(args.repeat)


if __name__ == "__main__":
    main()
