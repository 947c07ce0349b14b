"""Chooser and model-fitting tests.

The reference oracles below are the chooser's earlier pure-Python fit and
config choice, kept term for term: the numpy fit and the cached chooser in
`crossword.tuner` must agree with them, on synthetic windows and on every
refit and choice of a short run of each benchmark workload."""

import importlib.util
import math
import os
import random
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from crossword.assignment import ClusterParams
from crossword.harness import parse_scenario, run_scenario
from crossword.quorum import Config, candidate_configs, multipaxos_config
from crossword.tuner import (
    LinearModel,
    OUTLIER_FRAC,
    RttTuner,
    TIE_REL,
    candidates,
    fit_line,
    pick_config,
    transmitted_size,
)
import crossword.tuner as tuner_mod

ROOT = Path(__file__).resolve().parent.parent


def reference_ols_fit(points):
    """Least-squares (intercept, slope) over (size, rtt) pairs after dropping
    the highest-rtt 5% as outliers; None when the surviving points cannot
    pin down a line. The slope is clamped at zero."""
    if len(points) < 2:
        return None
    drop = int(OUTLIER_FRAC * len(points))
    if drop:
        kept = sorted(points, key=lambda pt: pt[1])[: len(points) - drop]
    else:
        kept = list(points)
    if len(kept) < 2:
        return None
    n = len(kept)
    mean_v = sum(v for v, _ in kept) / n
    mean_t = sum(t for _, t in kept) / n
    sxx = sum((v - mean_v) ** 2 for v, _ in kept)
    if sxx == 0.0:
        return None
    sxy = sum((v - mean_v) * (t - mean_t) for v, t in kept)
    slope = max(0.0, sxy / sxx)
    return mean_t - slope * mean_v, slope


def reference_choose_config(v_p, models, healthy_followers, params, tie_rel=TIE_REL):
    """Completion of (q, c) is the (q-1)-th smallest follower estimate at
    transmitted_size(v_p, c); q is capped at 1 + healthy_followers; ties
    within tie_rel go to the smaller q; (m, m) when nothing can be scored."""
    cands = [cfg for cfg in candidate_configs(params) if cfg.q <= 1 + healthy_followers]
    scored = []
    for cfg in cands:
        if len(models) < cfg.q - 1:
            continue
        size = transmitted_size(v_p, cfg.c, params)
        times = sorted(m.predict(size) for m in models.values())
        scored.append((times[cfg.q - 2], cfg))
    if not scored:
        return multipaxos_config(params)
    best = min(est for est, _ in scored)
    threshold = best + abs(best) * tie_rel
    tied = [cfg for est, cfg in scored if est <= threshold]
    return min(tied, key=lambda cfg: cfg.q)


def fit(points):
    """`fit_line` over (size, rtt) pairs."""
    return fit_line(
        np.array([v for v, _ in points], dtype=float), np.array([t for _, t in points], dtype=float)
    )


def choose_config(v_p, models, healthy, params):
    """The tuner's choice over `models`, as `RttTuner.choose` makes it."""
    lines = [(m.intercept_ms, m.slope_ms_per_byte) for m in models.values()]
    return pick_config(v_p, lines, candidates(params, healthy, len(lines)), params)


def identical_models(n_followers, intercept=4.0, slope=1 / 125.0):
    return {i + 1: LinearModel(intercept, slope, 0.0) for i in range(n_followers)}


PARAMS5 = ClusterParams.for_cluster(5)


def test_small_payload_ties_to_full_copy():
    # 8 bytes: all candidates within a hair of the 4 ms intercept
    cfg = choose_config(8.0, identical_models(4), 4, PARAMS5)
    assert cfg == Config(q=3, c=3)


def test_large_payload_picks_single_shard():
    cfg = choose_config(131072.0, identical_models(4), 4, PARAMS5)
    assert cfg == Config(q=5, c=1)
    # frozen endpoints of the estimate (b = 125 bytes/ms)
    m = identical_models(4)[1]
    assert abs(m.predict(transmitted_size(131072.0, 1, PARAMS5)) - 353.5253) < 1e-3
    assert abs(m.predict(transmitted_size(131072.0, 3, PARAMS5)) - 1052.576) < 1e-3


def test_slow_follower_avoided_when_possible():
    models = identical_models(3)
    models[4] = LinearModel(40.0, 1 / 12.5, 0.0)  # 10x worse on both axes
    cfg = choose_config(131072.0, models, 4, PARAMS5)
    assert cfg == Config(q=4, c=2)  # waits on fast three, not the laggard


def test_healthy_cap_limits_q():
    models = identical_models(4)
    cfg = choose_config(131072.0, models, 3, PARAMS5)
    assert cfg.q <= 4


def test_cold_start_falls_back_to_full_copy():
    assert choose_config(1000.0, {}, 4, PARAMS5) == Config(q=3, c=3)
    assert choose_config(1000.0, {1: identical_models(1)[1]}, 0, PARAMS5) == Config(q=3, c=3)


def test_chosen_c_nonincreasing_in_payload():
    models = identical_models(4)
    sizes = [1, 64, 512, 2048, 8192, 32768, 131072, 1048576]
    cs = [choose_config(float(v), models, 4, PARAMS5).c for v in sizes]
    assert cs == sorted(cs, reverse=True)
    assert cs[0] == 3 and cs[-1] == 1


def test_ols_recovers_noiseless_line():
    pts = [(float(v), 3.25 + 0.004 * v) for v in range(0, 5000, 37)]
    intercept, slope = fit(pts)
    assert abs(intercept - 3.25) < 1e-9
    assert abs(slope - 0.004) < 1e-9


def test_ols_discards_top_rtt_outliers():
    rng = random.Random(9)
    pts = [(float(v), 2.0 + 0.01 * v) for v in rng.sample(range(1000), 100)]
    pts += [(50.0, 500.0 + i) for i in range(5)]  # top 5/105
    intercept, slope = fit(pts)
    assert abs(intercept - 2.0) < 1e-9
    assert abs(slope - 0.01) < 1e-9


def test_ols_needs_two_distinct_sizes():
    assert fit([(10.0, 1.0)]) is None
    assert fit([(10.0, 1.0), (10.0, 2.0)]) is None


def test_ols_slope_clamped_nonnegative():
    pts = [(0.0, 10.0), (100.0, 1.0)]
    _, slope = fit(pts)
    assert slope == 0.0


def test_window_eviction():
    tuner = RttTuner(PARAMS5)
    tuner.record(1, 0.0, 8.0, 0.0)
    tuner.record(1, 100.0, 9.0, 600.0)
    tuner.record(1, 200.0, 10.0, 2500.0)
    # the point recorded at 0 ms fell out of the 2000 ms window, 600 survives
    assert len(tuner._points[1]) == 2
    assert tuner._points[1].at[0] == 600.0


def test_refit_interval_caches_model():
    tuner = RttTuner(PARAMS5)
    for i in range(10):
        tuner.record(1, float(i * 50), 4.0 + 0.01 * i * 50, float(i))
    m1 = tuner.model_for(1, 100.0)
    tuner.record(1, 5000.0, 99.0, 150.0)
    assert tuner.model_for(1, 250.0) is m1  # within 200 ms of the last fit
    m2 = tuner.model_for(1, 301.0)
    assert m2 is not m1


def test_heartbeat_zero_size_points_anchor_intercept():
    tuner = RttTuner(PARAMS5)
    for i in range(20):
        tuner.record(1, 0.0, 8.0, float(i * 20))
    for i in range(5):
        tuner.record(1, 1000.0, 16.0, float(400 + i))
    m = tuner.model_for(1, 500.0)
    assert abs(m.intercept_ms - 8.0) < 1e-9
    assert abs(m.slope_ms_per_byte - 0.008) < 1e-9


def test_choose_reuses_lines_until_a_refit_is_due():
    tuner = RttTuner(PARAMS5)
    for peer in (1, 2, 3, 4):
        for i in range(10):
            tuner.record(peer, float(i * 1000), 1.0 + 0.001 * i * 1000, float(i))
    assert tuner.choose(131072.0, [1, 2, 3, 4], 100.0) == Config(q=5, c=1)
    # follower 4 turns slow; its points count only from its next refit
    for i in range(40):
        tuner.record(4, float(i * 1000), 50.0 + 0.1 * i * 1000, 150.0)
    assert tuner.choose(131072.0, [1, 2, 3, 4], 299.0) == Config(q=5, c=1)
    assert tuner.choose(131072.0, [1, 2, 3, 4], 300.0) == Config(q=4, c=2)
    # a smaller healthy set is scored at once, from the cached lines
    assert tuner.choose(131072.0, [1, 2, 3], 301.0) == Config(q=4, c=2)


def _ulps_apart(a, b):
    return abs(a - b) / math.ulp(max(abs(a), abs(b)))


@given(st.data())
def test_fit_matches_reference_within_two_ulp(data):
    """Python's `x ** 2` (libm pow) and numpy's `x * x` differ in the last
    bit for about 0.08% of doubles, so a fit may differ by an ulp or two."""
    n = data.draw(st.sampled_from([2, 3, 5, 19, 20, 21, 39, 40, 41, 60]), label="points")
    intercept = data.draw(st.floats(0.05, 50.0), label="intercept")
    slope = data.draw(st.floats(0.0, 1e-4), label="slope")
    # a few noise values: zero-size heartbeat points tie on rtt, and ties
    # straddle the 5% cut from 20 points on
    noise = data.draw(st.lists(st.floats(0.0, 5.0), min_size=1, max_size=4), label="noise")
    pts = []
    for _ in range(n):
        size = 0.0 if data.draw(st.booleans()) else data.draw(st.floats(1.0, 2e6))
        pts.append((size, intercept + slope * size + data.draw(st.sampled_from(noise))))
    want, got = reference_ols_fit(pts), fit(pts)
    if want is None or got is None:
        assert want == got
        return
    assert _ulps_apart(got[1], want[1]) <= 2
    if got[1] == want[1]:
        assert got[0] == want[0]
    else:
        # the intercept subtracts slope * mean size, so a slope an ulp off
        # moves it by ulps of that product, not of the intercept
        scale = max(abs(want[0]), want[1] * max(v for v, _ in pts))
        assert abs(got[0] - want[0]) <= 2 * math.ulp(scale)


@given(
    v_p=st.floats(min_value=1.0, max_value=2_000_000.0),
    data=st.data(),
)
def test_choose_matches_brute_force(v_p, data):
    n_models = data.draw(st.integers(0, 4))
    models = {}
    for i in range(n_models):
        intercept = data.draw(st.floats(0.1, 100.0))
        slope = data.draw(st.floats(0.0, 0.1))
        models[i + 1] = LinearModel(intercept, slope, 0.0)
    healthy = data.draw(st.integers(0, 4))
    assert choose_config(v_p, models, healthy, PARAMS5) == reference_choose_config(
        v_p, models, healthy, PARAMS5
    )


def _benchmark_workload(name):
    """The benchmark's workload `name` at seed 1, from perfbench/workloads.py."""
    mod = sys.modules.get("perfbench_workloads")
    if mod is None:
        spec = importlib.util.spec_from_file_location(
            "perfbench_workloads", ROOT / "perfbench" / "workloads.py"
        )
        mod = sys.modules[spec.name] = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(mod)
    return mod.build(name, 1)


@pytest.mark.parametrize(
    "name, duration_ms",
    [("dynamic-shift", 16000), ("small-rw", 5000), ("leader-failover", 6000)],
)
def test_recorded_fits_and_choices_match_reference(monkeypatch, name, duration_ms):
    """Every refit of a benchmark run equals the reference fit of the same
    window exactly, and every choice equals the reference choice over the
    models the tuner holds at that moment."""
    wl = _benchmark_workload(name)
    wl.doc["workload"]["duration_ms"] = duration_ms
    fits, choices = [], []
    inner_fit = tuner_mod.fit_line
    inner_choose = RttTuner.choose

    def recording_fit(size, rtt):
        got = inner_fit(size, rtt)
        fits.append((size.tolist(), rtt.tolist(), got))
        return got

    def checked_choose(self, v_p, healthy, now):
        got = inner_choose(self, v_p, healthy, now)
        models = {p: self.model_for(p, now) for p in healthy}
        models = {p: m for p, m in models.items() if m is not None}
        choices.append((got, reference_choose_config(v_p, models, len(healthy), self.params)))
        return got

    monkeypatch.setattr(tuner_mod, "fit_line", recording_fit)
    monkeypatch.setattr(RttTuner, "choose", checked_choose)
    run_scenario(parse_scenario(wl.doc, wl.name), drain_ms=500.0)
    assert len(fits) > 50 and len(choices) > 500
    mismatched = [
        (got, reference_ols_fit(list(zip(size, rtt))))
        for size, rtt, got in fits
        if got != reference_ols_fit(list(zip(size, rtt)))
    ]
    assert mismatched == []
    assert [got for got, _ in choices] == [want for _, want in choices]


def test_bench_tuner_script_runs():
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "benchmarks" / "bench_tuner.py"), "--repeat", "1"],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert "us/call" in proc.stdout
