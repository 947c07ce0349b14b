"""Scenario files: one YAML document describing a cluster, a workload, link
parameters, and a timed fault schedule. Every field has an embedded default,
so the minimal file is ``{n, protocol, workload}``. Parse errors name the
offending field by dotted path."""

from __future__ import annotations

from dataclasses import dataclass, field, fields

import yaml

from ..assignment import ClusterParams
from ..protocol.replica import ReplicaConfig
from ..quorum import Config, c4_valid
from ..simnet import LinkParams

GBPS_TO_BYTES_PER_MS = 125_000.0  # 1 Gb/s = 1e9 bits/s = 125_000 bytes/ms


class ScenarioError(ValueError):
    """Malformed scenario; `path` is the dotted location of the bad field."""

    def __init__(self, path: str, reason: str):
        self.path = path
        self.reason = reason
        super().__init__(f"{path}: {reason}")


@dataclass
class WorkloadSpec:
    put_ratio: float = 1.0
    value_mean_bytes: int = 1024
    value_stddev_ratio: float = 0.10
    clients: int = 1
    duration_ms: float = 5000.0
    key_count: int = 16
    key_dist: str = "uniform"  # uniform | zipfian
    zipf_theta: float = 0.99
    retry_ms: float = 1000.0
    start_ms: float = 5.0  # first op issue time (staggered per client)
    # optional point mixture [[size_bytes, weight], ...]; overrides the
    # gaussian draw around value_mean_bytes when present
    value_mixture: tuple[tuple[int, float], ...] | None = None


@dataclass
class LinkSpec:
    delay_ms: float = 4.0
    bandwidth_bytes_per_ms: float = 1.0 * GBPS_TO_BYTES_PER_MS

    def params(self) -> LinkParams:
        return LinkParams(self.delay_ms, self.bandwidth_bytes_per_ms)


@dataclass
class LinkOverride:
    a: int
    b: int
    link: LinkSpec
    symmetric: bool = True


@dataclass
class FaultEvent:
    at_ms: float
    kind: str  # crash|restart|partition|heal|set_link|set_all_links|slow_node|set_workload
    args: dict = field(default_factory=dict)


@dataclass(kw_only=True)
class Scenario(ReplicaConfig):
    """Every replica knob (ReplicaConfig, which holds their defaults), plus
    the workload, the links and the fault schedule the cluster runs under."""

    workload: WorkloadSpec
    links: LinkSpec = field(default_factory=LinkSpec)
    persist: LinkSpec = field(
        default_factory=lambda: LinkSpec(delay_ms=0.05, bandwidth_bytes_per_ms=1_000_000.0)
    )
    link_overrides: list[LinkOverride] = field(default_factory=list)
    faults: list[FaultEvent] = field(default_factory=list)


_PROTOCOLS = ("crossword", "multipaxos", "rspaxos")
_CHOOSERS = ("regression", "fixed")
_FAULT_KINDS = (
    "crash",
    "restart",
    "partition",
    "heal",
    "set_link",
    "set_all_links",
    "slow_node",
    "set_workload",
)


def _expect(cond: bool, path: str, reason: str) -> None:
    if not cond:
        raise ScenarioError(path, reason)


def _number(raw, path, lo=None, hi=None) -> float:
    if isinstance(raw, str):
        raise ScenarioError(path, _text_number_reason(raw))
    _expect(isinstance(raw, (int, float)) and not isinstance(raw, bool), path, "expected a number")
    if lo is not None:
        _expect(raw >= lo, path, f"must be >= {lo}")
    if hi is not None:
        _expect(raw <= hi, path, f"must be <= {hi}")
    return float(raw)


def _text_number_reason(raw: str) -> str:
    """The error for a string in a number field. PyYAML follows YAML 1.1,
    which reads an exponent float only with a dot and a signed exponent:
    1.0e6 and 1e6 arrive as text, 1.0e+6 as a float."""
    try:
        float(raw)
    except ValueError:
        return "expected a number"
    mantissa, e, exp = raw.strip().lower().partition("e")
    signed = exp[:1] in ("+", "-")
    if not e or ("." in mantissa and signed):
        return f"expected a number, got the string {raw!r}"
    spelled = f"{mantissa if '.' in mantissa else mantissa + '.0'}e{exp if signed else '+' + exp}"
    return (
        f"expected a number, got the string {raw!r}: YAML 1.1 reads an exponent float"
        f" as text unless it has a dot and a signed exponent; write {spelled}"
    )


def _integer(raw, path, lo=None, hi=None) -> int:
    _expect(isinstance(raw, int) and not isinstance(raw, bool), path, "expected an integer")
    if lo is not None:
        _expect(raw >= lo, path, f"must be >= {lo}")
    if hi is not None:
        _expect(raw <= hi, path, f"must be <= {hi}")
    return raw


def _boolean(raw, path) -> bool:
    _expect(isinstance(raw, bool), path, "expected true/false")
    return raw


def _mapping(raw, path) -> dict:
    _expect(isinstance(raw, dict), path, "expected a mapping")
    return raw


def _no_strays(raw: dict, known: set[str], path: str) -> None:
    for key in raw:
        if key not in known:
            raise ScenarioError(f"{path}.{key}" if path else str(key), "unknown field")


def _take(raw: dict, spec_obj, parsers: dict, path: str):
    """Apply `parsers` (name -> parser(raw_value, path)) over raw onto spec_obj."""
    _no_strays(raw, set(parsers), path)
    for name, parse in parsers.items():
        if name in raw:
            setattr(spec_obj, name, parse(raw[name], f"{path}.{name}" if path else name))
    return spec_obj


def _parse_link(raw, path) -> LinkSpec:
    raw = _mapping(raw, path)
    _no_strays(raw, {"delay_ms", "bandwidth_bytes_per_ms", "bandwidth_gbps"}, path)
    _expect(
        not ("bandwidth_bytes_per_ms" in raw and "bandwidth_gbps" in raw),
        path,
        "give bandwidth_bytes_per_ms or bandwidth_gbps, not both",
    )
    spec = LinkSpec()
    if "delay_ms" in raw:
        spec.delay_ms = _number(raw["delay_ms"], f"{path}.delay_ms", lo=0.0)
    if "bandwidth_bytes_per_ms" in raw:
        spec.bandwidth_bytes_per_ms = _number(
            raw["bandwidth_bytes_per_ms"], f"{path}.bandwidth_bytes_per_ms", lo=1e-9
        )
    if "bandwidth_gbps" in raw:
        spec.bandwidth_bytes_per_ms = (
            _number(raw["bandwidth_gbps"], f"{path}.bandwidth_gbps", lo=1e-9) * GBPS_TO_BYTES_PER_MS
        )
    return spec


def _parse_value_mixture(raw, path) -> tuple[tuple[int, float], ...]:
    _expect(isinstance(raw, list) and raw, path, "expected a non-empty list of [size_bytes, weight] pairs")
    out = []
    for i, item in enumerate(raw):
        p = f"{path}[{i}]"
        _expect(isinstance(item, (list, tuple)) and len(item) == 2, p, "expected a [size_bytes, weight] pair")
        size = _integer(item[0], f"{p}[0]", lo=1)
        weight = _number(item[1], f"{p}[1]", lo=0.0)
        _expect(weight > 0.0, f"{p}[1]", "weight must be positive")
        out.append((size, weight))
    return tuple(out)


def _choice(raw, path, options) -> str:
    _expect(isinstance(raw, str), path, "expected a string")
    _expect(raw in options, path, f"must be one of {', '.join(options)}")
    return raw


_WORKLOAD_FIELDS = {
    "put_ratio": lambda v, p: _number(v, p, lo=0.0, hi=1.0),
    "value_mean_bytes": lambda v, p: _integer(v, p, lo=1),
    "value_stddev_ratio": lambda v, p: _number(v, p, lo=0.0),
    "clients": lambda v, p: _integer(v, p, lo=0),
    "duration_ms": lambda v, p: _number(v, p, lo=1.0),
    "key_count": lambda v, p: _integer(v, p, lo=1),
    "key_dist": lambda v, p: _choice(v, p, ("uniform", "zipfian")),
    "zipf_theta": lambda v, p: _number(v, p, lo=0.0),
    "retry_ms": lambda v, p: _number(v, p, lo=1.0),
    "start_ms": lambda v, p: _number(v, p, lo=0.0),
    "value_mixture": _parse_value_mixture,
}
# the workload fields a set_workload fault may change mid-run
_SET_WORKLOAD_FIELDS = {
    name: _WORKLOAD_FIELDS[name]
    for name in ("put_ratio", "value_mean_bytes", "value_stddev_ratio", "key_count", "key_dist")
}

# the replica's specs: section name -> field parsers, each with its bound
_SPECS = {
    "gossip": {
        "cycle_ms": lambda v, p: _number(v, p, lo=0.1),
        "deferral_bytes": lambda v, p: _integer(v, p, lo=0),
        "straggler_cycles": lambda v, p: _integer(v, p, lo=1),
        "batching": _boolean,
    },
    "heartbeat": {
        "interval_ms": lambda v, p: _number(v, p, lo=0.1),
        "election_min_ms": lambda v, p: _number(v, p, lo=1.0),
        "election_max_ms": lambda v, p: _number(v, p, lo=1.0),
    },
    "lease": {"drift_ms": lambda v, p: _number(v, p, lo=0.0)},
    "follower_reads": {
        "enabled": _boolean,
        "readers": lambda v, p: _integer(v, p, lo=1),
        "interval_ms": lambda v, p: _number(v, p, lo=0.1),
        "key": lambda v, p: v if isinstance(v, str) and v else _expect(False, p, "expected a key name"),
    },
}


def _parse_workload(raw, path) -> WorkloadSpec:
    return _take(_mapping(raw, path), WorkloadSpec(), _WORKLOAD_FIELDS, path)


def _parse_fault(raw, path, n: int, workload: WorkloadSpec) -> FaultEvent:
    raw = _mapping(raw, path)
    _expect("at_ms" in raw, f"{path}.at_ms", "required")
    _expect("kind" in raw, f"{path}.kind", "required")
    at = _number(raw["at_ms"], f"{path}.at_ms", lo=0.0)
    kind = _choice(raw["kind"], f"{path}.kind", _FAULT_KINDS)
    rest = {k: v for k, v in raw.items() if k not in ("at_ms", "kind")}
    args: dict = {}
    node_field = lambda v, p: _integer(v, p, lo=0, hi=n - 1)
    group_field = lambda v, p: _parse_group(v, p, n)
    if kind in ("crash", "restart"):
        _take(rest, _Bag(args), {"node": node_field}, path)
        _expect("node" in args, f"{path}.node", "required")
    elif kind in ("partition", "heal"):
        _take(rest, _Bag(args), {"group_a": group_field, "group_b": group_field}, path)
        _expect("group_a" in args, f"{path}.group_a", "required")
        _expect("group_b" in args, f"{path}.group_b", "required")
    elif kind == "set_link":
        _take(
            rest,
            _Bag(args),
            {
                "a": node_field,
                "b": node_field,
                "link": _parse_link,
                "symmetric": _boolean,
            },
            path,
        )
        _expect("a" in args and "b" in args, path, "set_link needs a and b")
        _expect("link" in args, f"{path}.link", "required")
        args.setdefault("symmetric", True)
    elif kind == "set_all_links":
        _take(rest, _Bag(args), {"link": _parse_link}, path)
        _expect("link" in args, f"{path}.link", "required")
    elif kind == "slow_node":
        _take(rest, _Bag(args), {"node": node_field, "link": _parse_link}, path)
        _expect("node" in args, f"{path}.node", "required")
        _expect("link" in args, f"{path}.link", "required")
    elif kind == "set_workload":
        _take(rest, _Bag(args), _SET_WORKLOAD_FIELDS, path)
        _expect(bool(args), path, "set_workload changes at least one field")
        if workload.value_mixture:
            for name in ("value_mean_bytes", "value_stddev_ratio"):
                _expect(
                    name not in args, f"{path}.{name}",
                    "has no effect: the workload draws value sizes from value_mixture",
                )
    return FaultEvent(at_ms=at, kind=kind, args=args)


class _Bag:
    """Dict with attribute assignment, so _take can fill plain dicts."""

    def __init__(self, target: dict):
        object.__setattr__(self, "_t", target)

    def __setattr__(self, name, value):
        self._t[name] = value


def _parse_group(raw, path, n: int) -> list[int]:
    _expect(isinstance(raw, list) and raw, path, "expected a non-empty list of node ids")
    return [_integer(v, f"{path}[{i}]", lo=0, hi=n - 1) for i, v in enumerate(raw)]


def _parse_link_overrides(raw, path, n: int) -> list[LinkOverride]:
    _expect(isinstance(raw, list), path, "expected a list")
    out = []
    for i, row in enumerate(raw):
        p = f"{path}[{i}]"
        row = _mapping(row, p)
        _no_strays(row, {"a", "b", "symmetric", "delay_ms", "bandwidth_bytes_per_ms", "bandwidth_gbps"}, p)
        _expect("a" in row and "b" in row, p, "needs a and b")
        link = _parse_link({k: v for k, v in row.items() if k not in ("a", "b", "symmetric")}, p)
        out.append(
            LinkOverride(
                a=_integer(row["a"], f"{p}.a", lo=0, hi=n - 1),
                b=_integer(row["b"], f"{p}.b", lo=0, hi=n - 1),
                link=link,
                symmetric=_boolean(row.get("symmetric", True), f"{p}.symmetric"),
            )
        )
    return out


def _parse_faults(raw, path, n: int, workload: WorkloadSpec) -> list[FaultEvent]:
    _expect(isinstance(raw, list), path, "expected a list")
    faults = [_parse_fault(row, f"{path}[{i}]", n, workload) for i, row in enumerate(raw)]
    return sorted(faults, key=lambda ev: ev.at_ms)


def parse_scenario(doc, source: str = "<scenario>") -> Scenario:
    doc = _mapping(doc, source)
    _no_strays(doc, {f.name for f in fields(Scenario)}, "")
    for req in ("n", "protocol", "workload"):
        _expect(req in doc, req, "required")
    n = _integer(doc["n"], "n", lo=3)
    _expect(n % 2 == 1, "n", "cluster size must be odd")
    sc = Scenario(
        n=n,
        protocol=_choice(doc["protocol"], "protocol", _PROTOCOLS),
        workload=_parse_workload(doc["workload"], "workload"),
    )
    for name, parsers in _SPECS.items():
        if name in doc:
            _take(_mapping(doc[name], name), getattr(sc, name), parsers, name)
    rest = {k: v for k, v in doc.items() if k not in ("n", "protocol", "workload", *_SPECS)}
    _take(
        rest,
        sc,
        {
            "chooser": lambda v, p: _choice(v, p, _CHOOSERS),
            "fixed_q": lambda v, p: _integer(v, p, lo=0, hi=n),
            "fixed_c": lambda v, p: _integer(v, p, lo=0, hi=n),
            "seed": _integer,
            "links": _parse_link,
            "persist": _parse_link,
            "link_overrides": lambda v, p: _parse_link_overrides(v, p, n),
            "batching_ms": lambda v, p: _number(v, p, lo=0.1),
            "snapshot_stride": lambda v, p: _integer(v, p, lo=0),
            "healthy_window_ms": lambda v, p: _number(v, p, lo=1.0),
            "initial_leader": lambda v, p: _integer(v, p, lo=0, hi=n - 1),
            "faults": lambda v, p: _parse_faults(v, p, n, sc.workload),
        },
        "",
    )
    if sc.chooser == "fixed" and sc.protocol == "crossword":
        _expect(sc.fixed_q >= 1, "fixed_q", "required when chooser is fixed")
        _expect(sc.fixed_c >= 1, "fixed_c", "required when chooser is fixed")
        _expect(
            c4_valid(Config(q=sc.fixed_q, c=sc.fixed_c), ClusterParams.for_cluster(n)),
            "fixed_q",
            f"(q, c) = ({sc.fixed_q}, {sc.fixed_c}) is not available under n - m failures:"
            " needs m <= q <= n and q + c >= n + 1",
        )
    _expect(
        sc.heartbeat.election_min_ms < sc.heartbeat.election_max_ms,
        "heartbeat.election_max_ms",
        "must exceed election_min_ms",
    )
    return sc


def load_scenario(path: str) -> Scenario:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            doc = yaml.safe_load(fh)
        except yaml.YAMLError as exc:
            raise ScenarioError(path, f"not valid YAML: {exc}") from exc
    return parse_scenario(doc, source=path)
