"""Per-follower response-time models and the per-instance config chooser.

The leader records (size, rtt) pairs for every follower round it completes
(payload-carrying rounds and zero-size heartbeats alike), fits a line
t(v) = intercept + slope * v over a sliding window, and picks the candidate
(q, c) whose predicted completion time is lowest for the payload at hand.

Each follower's window is kept as flat float columns, refit with numpy at
most once per REFIT_MS. Between refits `RttTuner.choose` reuses the fitted
lines and the candidate list, so a proposal costs a few multiply-adds and
one small sort per candidate.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass

import numpy as np

from .assignment import ClusterParams
from .quorum import Config, candidate_configs, multipaxos_config

__all__ = [
    "LinearModel",
    "RttTuner",
    "candidates",
    "fit_line",
    "pick_config",
    "transmitted_size",
]

WINDOW_MS = 2000.0
REFIT_MS = 200.0
OUTLIER_FRAC = 0.05
TIE_REL = 0.02  # estimates this close count as tied; tie goes to smaller q


@dataclass(frozen=True)
class LinearModel:
    intercept_ms: float
    slope_ms_per_byte: float
    fitted_at_ms: float

    def predict(self, size_bytes: float) -> float:
        return self.intercept_ms + self.slope_ms_per_byte * size_bytes


def fit_line(size: np.ndarray, rtt: np.ndarray) -> tuple[float, float] | None:
    """Least-squares (intercept, slope) after dropping the highest-rtt 5% as
    outliers (a stable sort, so ties keep window order); None when the
    surviving points cannot pin down a line. The slope is clamped at zero:
    response time never shrinks with size. Every sum adds its terms one at
    a time in point order (np.cumsum, not numpy's pairwise sum)."""
    n = len(rtt)
    if n < 2:
        return None
    drop = int(OUTLIER_FRAC * n)
    if drop:  # only from 20 points on, so at least 19 remain
        n -= drop
        keep = np.argsort(rtt, kind="stable")[:n]
        size, rtt = size[keep], rtt[keep]
    mean_v = float(np.cumsum(size)[-1]) / n
    mean_t = float(np.cumsum(rtt)[-1]) / n
    dv = size - mean_v
    sxx = float(np.cumsum(dv * dv)[-1])
    if sxx == 0.0:
        return None
    sxy = float(np.cumsum(dv * (rtt - mean_t))[-1])
    slope = max(0.0, sxy / sxx)
    return mean_t - slope * mean_v, slope


def transmitted_size(v_p: float, c: int, params: ClusterParams) -> float:
    """Bytes sent to one follower for a payload of v_p under c shards per
    follower: c shards of v_p / m bytes each."""
    return v_p * c / params.m


def candidates(
    params: ClusterParams, healthy_followers: int, n_lines: int
) -> list[tuple[int, int, Config]]:
    """The configs `pick_config` scores, by ascending q, as (rank, c, config):
    q is capped at 1 + healthy_followers, and needs q - 1 follower lines.
    rank = q - 2 indexes the (q-1)-th smallest follower estimate."""
    top = min(1 + healthy_followers, 1 + n_lines)
    return [(cfg.q - 2, cfg.c, cfg) for cfg in candidate_configs(params) if cfg.q <= top]


def pick_config(
    v_p: float,
    lines: list[tuple[float, float]],
    cands: list[tuple[int, int, Config]],
    params: ClusterParams,
) -> Config:
    """Pick the candidate config minimizing predicted commit time.

    Completion of (q, c) is the (q-1)-th smallest follower estimate
    intercept + slope * transmitted_size(v_p, c) over `lines`: the leader
    itself is the q-th member. Estimates within TIE_REL of the best tie,
    and the tie goes to the smaller q. Falls back to (m, m) when no
    candidate has enough lines to estimate (cold start)."""
    if not cands:
        return multipaxos_config(params)
    scored = []
    for rank, c, cfg in cands:
        size = transmitted_size(v_p, c, params)
        scored.append((sorted([a + b * size for a, b in lines])[rank], cfg))
    best = min(est for est, _ in scored)
    threshold = best + abs(best) * TIE_REL
    return next(cfg for est, cfg in scored if est <= threshold)


class _Window:
    """One follower's points, oldest first, as parallel float columns."""

    __slots__ = ("at", "size", "rtt")

    def __init__(self):
        self.at = array("d")
        self.size = array("d")
        self.rtt = array("d")

    def __len__(self) -> int:
        return len(self.at)

    def evict_before(self, horizon: float) -> None:
        at = self.at
        k = 0
        while k < len(at) and at[k] < horizon:
            k += 1
        if k:
            del at[:k], self.size[:k], self.rtt[:k]


class RttTuner:
    """Sliding-window store plus model cache for one leader term."""

    def __init__(
        self,
        params: ClusterParams,
        window_ms: float = WINDOW_MS,
        refit_ms: float = REFIT_MS,
    ):
        self.params = params
        self.window_ms = window_ms
        self.refit_ms = refit_ms
        self._points: dict[int, _Window] = {}
        self._cache: dict[int, tuple[float, LinearModel | None]] = {}
        # what `choose` last scored with: its healthy peers, their lines,
        # the oldest fit among them, and the candidate list
        self._peers: list[int] | None = None
        self._lines: list[tuple[float, float]] = []
        self._lines_at = 0.0
        self._cands: list[tuple[int, int, Config]] = []

    def record(self, peer: int, size_bytes: float, rtt_ms: float, now_ms: float) -> None:
        w = self._points.get(peer)
        if w is None:
            w = self._points[peer] = _Window()
        w.at.append(now_ms)
        w.size.append(size_bytes)
        w.rtt.append(rtt_ms)
        w.evict_before(now_ms - self.window_ms)

    def model_for(self, peer: int, now_ms: float) -> LinearModel | None:
        cached = self._cache.get(peer)
        if cached is not None and now_ms - cached[0] < self.refit_ms:
            return cached[1]
        w = self._points.get(peer)
        model = None
        if w:
            w.evict_before(now_ms - self.window_ms)
            fit = fit_line(np.array(w.size), np.array(w.rtt))
            if fit is not None:
                model = LinearModel(fit[0], fit[1], now_ms)
        self._cache[peer] = (now_ms, model)
        return model

    def choose(self, v_p: float, healthy_peers: list[int], now_ms: float) -> Config:
        # the lines stay valid while no peer's model is due for a refit
        if healthy_peers != self._peers or not now_ms - self._lines_at < self.refit_ms:
            lines = []
            for peer in healthy_peers:
                model = self.model_for(peer, now_ms)
                if model is not None:
                    lines.append((model.intercept_ms, model.slope_ms_per_byte))
            self._peers = list(healthy_peers)
            self._lines = lines
            self._lines_at = min((self._cache[p][0] for p in healthy_peers), default=now_ms)
            self._cands = candidates(self.params, len(healthy_peers), len(lines))
        return pick_config(v_p, self._lines, self._cands, self.params)
