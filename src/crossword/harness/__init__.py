"""Scenario harness: YAML scenarios in, metrics/history/verdicts out."""

from .explore import explore_rows, format_rows, oracle_valid
from .linearize import LinOp, check_linearizable
from .metrics import MetricsReport, build_report, nearest_rank_p95
from .runner import (
    RunResult,
    check_conservation,
    check_prefix_digests,
    check_slot_agreement,
    run_scenario,
)
from .scenario import Scenario, ScenarioError, load_scenario, parse_scenario
from .workload import ClosedLoopClient, OpRecord, token_of, value_bytes

__all__ = [
    "ClosedLoopClient",
    "LinOp",
    "MetricsReport",
    "OpRecord",
    "RunResult",
    "Scenario",
    "ScenarioError",
    "build_report",
    "check_conservation",
    "check_linearizable",
    "check_prefix_digests",
    "check_slot_agreement",
    "explore_rows",
    "format_rows",
    "load_scenario",
    "nearest_rank_p95",
    "oracle_valid",
    "parse_scenario",
    "run_scenario",
    "token_of",
    "value_bytes",
]
