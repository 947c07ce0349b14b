"""Kernel selection: compiled extension if importable, numpy fallback otherwise.

Set CROSSWORD_PURE_KERNEL=1 to make encode and reconstruct use the fallback
even when the extension is built, for example to time both with
benchmarks/bench_gf.py. Neither perfbench nor the tests set it: the tests call
matmul_python and matmul_compiled directly.
"""

from __future__ import annotations

import os

import numpy as np

from . import _gfpure
from ._tables import MUL

try:
    from . import _gfcore
except ImportError:
    _gfcore = None

_FORCE_PURE = os.environ.get("CROSSWORD_PURE_KERNEL", "") not in ("", "0")

BACKEND = "python" if (_gfcore is None or _FORCE_PURE) else "compiled"


def matmul_compiled(m: np.ndarray, s: np.ndarray) -> np.ndarray:
    out = np.zeros((m.shape[0], s.shape[1]), dtype=np.uint8)
    _gfcore.gf_matmul_into(
        np.ascontiguousarray(m), np.ascontiguousarray(s), MUL, out
    )
    return out


matmul_python = _gfpure.gf_matmul

gf_matmul = matmul_python if BACKEND == "python" else matmul_compiled
