"""Linearizability check for per-key register histories.

Wing–Gong search with just-in-time candidates (Lowe, "Testing for
linearizability", 2017): repeatedly pick an operation whose invocation
precedes every remaining operation's response (so it may legally go first),
apply it to the register model, and recurse; memoize on (remaining set,
register value) so equivalent frontiers are explored once. With the ops
sorted by invocation, only those overlapping the earliest pending response
can go next, so a search state costs O(ops in flight), not O(ops on the
key). A completed get that reads the current value goes next without
branching. Keys are checked independently — each key is its own register.

Verdicts: ("ok", None), ("violation", witness ops), or ("inconclusive",
reason) when the search budget runs out — a budget exhaustion is explicitly
not a violation.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

INF = float("inf")


@dataclass(frozen=True)
class LinOp:
    client: int
    seq: int
    kind: str  # "put" | "get"
    key: str
    token: str | None  # put: value written; get: value observed (None = absent)
    invoke_ms: float
    respond_ms: float | None  # None = pending


def from_history(records) -> list[LinOp]:
    """Convert workload OpRecords to checker ops. Pending gets are dropped
    (no observed value, so they constrain nothing); pending puts are kept
    (they may or may not have taken effect)."""
    ops = []
    for rec in records:
        if rec.respond_ms is None and rec.kind == "get":
            continue
        ops.append(
            LinOp(
                client=rec.client,
                seq=rec.seq,
                kind=rec.kind,
                key=rec.key,
                token=rec.token,
                invoke_ms=rec.invoke_ms,
                respond_ms=rec.respond_ms,
            )
        )
    return ops


class _Budget:
    __slots__ = ("left",)

    def __init__(self, left: int):
        self.left = left

    def spend(self) -> bool:
        self.left -= 1
        return self.left >= 0


def _search_key(ops: list[LinOp], budget: _Budget) -> bool | None:
    """True = linearizable, False = not, None = budget exhausted.

    `ops` are sorted by invocation, and none responds before it is invoked.
    A state is (lo, done, value): `lo` is the first op not yet linearized,
    `done` the linearized ops past it, `value` the register (None = absent).
    The candidates to go next are the remaining ops invoked no later than
    the earliest remaining response. A scan from `lo` that stops at the
    first op invoked after the running minimum response meets exactly
    those: every later op is invoked later still and responds after it is
    invoked, and no op can lower the minimum below the invocation of an op
    scanned before it. A candidate that is a completed get of the current
    value is taken alone: it is invoked before every remaining response,
    so any valid order of the rest still holds with it moved to the front,
    where it reads the same value and changes nothing."""
    n = len(ops)
    invokes = [op.invoke_ms for op in ops]
    responds = [op.respond_ms if op.respond_ms is not None else INF for op in ops]
    seen: set[tuple[int, frozenset, str | None]] = set()
    # stack of (lo, done, value, completed ops left); the count follows from
    # (lo, done), so it stays out of the memo key
    stack: list[tuple[int, frozenset, str | None, int]] = [
        (0, frozenset(), None, sum(r != INF for r in responds))
    ]
    while stack:
        lo, done, value, left = stack.pop()
        if left == 0:
            return True  # only pending ops left; they may simply never take effect
        state = (lo, done, value)
        if state in seen:
            continue
        seen.add(state)
        if not budget.spend():
            return None
        frontier = INF
        candidates = []
        for i in range(lo, n):
            if i in done:
                continue
            if invokes[i] > frontier:
                break  # someone else finished before this one began
            op = ops[i]
            if op.kind == "get" and op.token == value and op.respond_ms is not None:
                candidates = [i]  # no need to branch: see the docstring
                break
            candidates.append(i)
            if responds[i] < frontier:
                frontier = responds[i]
        # pushed last, the earliest candidate is tried first
        for i in reversed(candidates):
            if i == lo:
                nlo = lo + 1
                while nlo in done:
                    nlo += 1
                rest = frozenset(j for j in done if j > nlo) if nlo > lo + 1 else done
            else:
                nlo, rest = lo, done | {i}
            op = ops[i]
            nleft = left if op.respond_ms is None else left - 1
            if op.kind == "put":
                stack.append((nlo, rest, op.token, nleft))
                if op.respond_ms is None:
                    # a pending put may also never take effect
                    stack.append((nlo, rest, value, nleft))
            elif op.token == value:
                stack.append((nlo, rest, value, nleft))
    return False


def _check_ops(ops: list[LinOp], budget: _Budget):
    verdict = _search_key(ops, budget)
    if verdict is None:
        return "inconclusive"
    return "ok" if verdict else "violation"


def _shrink(ops: list[LinOp], budget_per_try: int) -> list[LinOp]:
    """Greedy minimization in the manner of delta debugging: drop runs of
    consecutive ops, halving the run length down to single ops, while the
    remainder still violates; then keep dropping single ops until none can
    go. A put whose value a remaining get observed stays: without it the get
    reads a value never written, which violates on its own and hides the
    real conflict."""
    current = list(ops)
    size = max(1, len(current) // 2)
    while True:
        changed = False
        i = 0
        while i < len(current):
            head, run, tail = current[:i], current[i : i + size], current[i + size :]
            observed = {op.token for op in head + tail if op.kind == "get"}
            kept = [op for op in run if op.kind == "put" and op.token in observed]
            trial = head + kept + tail
            if len(kept) < len(run) and (
                _check_ops(trial, _Budget(budget_per_try)) == "violation"
            ):
                current = trial
                changed = True
                i += len(kept)
            else:
                i += size
        if size > 1:
            size //= 2
        elif not changed:
            return current


def check_linearizable(ops, budget: int = 2_000_000):
    """Check a whole history (any mix of keys). Returns ("ok", None),
    ("violation", witness ops shrunk by `_shrink`), or ("inconclusive",
    reason). `budget` caps the distinct search states per key."""
    by_key: dict[str, list[LinOp]] = {}
    for op in ops:
        if op.kind == "get" and op.respond_ms is None:
            continue  # nothing was observed; the op constrains nothing
        by_key.setdefault(op.key, []).append(op)
    for key in sorted(by_key):
        key_ops = sorted(by_key[key], key=lambda op: op.invoke_ms)
        verdict = _check_ops(key_ops, _Budget(budget))
        if verdict == "inconclusive":
            return "inconclusive", f"search budget exhausted on key {key!r}"
        if verdict == "violation":
            witness = _shrink(key_ops, budget_per_try=min(budget, 200_000))
            return "violation", witness
    return "ok", None


# ---------------------------------------------------------------- file I/O


def write_history(ops, fh) -> None:
    for op in ops:
        fh.write(
            json.dumps(
                {
                    "client": op.client,
                    "seq": op.seq,
                    "kind": op.kind,
                    "key": op.key,
                    "token": op.token,
                    "invoke_ms": op.invoke_ms,
                    "respond_ms": op.respond_ms,
                },
                sort_keys=True,
            )
            + "\n"
        )


def read_history(fh) -> list[LinOp]:
    ops = []
    for line_no, line in enumerate(fh, 1):
        line = line.strip()
        if not line:
            continue
        try:
            raw = json.loads(line)
        except json.JSONDecodeError as exc:
            raise ValueError(f"history line {line_no}: not valid JSON: {exc}") from exc
        try:
            op = LinOp(
                client=int(raw["client"]),
                seq=int(raw["seq"]),
                kind=str(raw["kind"]),
                key=str(raw["key"]),
                token=raw.get("token"),
                invoke_ms=float(raw["invoke_ms"]),
                respond_ms=(
                    float(raw["respond_ms"]) if raw.get("respond_ms") is not None else None
                ),
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise ValueError(f"history line {line_no}: bad record: {exc}") from exc
        if op.respond_ms is not None and op.respond_ms < op.invoke_ms:
            # the search relies on every op responding after its invocation
            raise ValueError(f"history line {line_no}: responds before it is invoked")
        ops.append(op)
    return ops


def describe(op: LinOp) -> str:
    span = f"[{op.invoke_ms:.3f}, {op.respond_ms:.3f}]" if op.respond_ms is not None else (
        f"[{op.invoke_ms:.3f}, pending]"
    )
    if op.kind == "put":
        return f"put({op.key} := {op.token}) by c{op.client}#{op.seq} {span}"
    shown = op.token if op.token is not None else "<absent>"
    return f"get({op.key}) = {shown} by c{op.client}#{op.seq} {span}"
