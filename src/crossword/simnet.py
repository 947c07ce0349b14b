"""Deterministic discrete-event network simulator.

Time is simulated milliseconds (float). Every directed node pair is a FIFO
link with a propagation delay and a serialization bandwidth: a message of
size Z sent at time t on link (a, b) occupies the link for Z/bandwidth ms
after any earlier traffic still serializing, then arrives delay ms later.
A node's self-link models local durable writes. All scheduling is ordered by
(time, insertion sequence), so a (scenario, seed) pair fully determines the
trace.

Timers are set after a delay (`set_timer`) or at a deadline reserved earlier
(`deadline`, then `set_timer_at`). A deadline is a timer's place in that order,
(time, sequence), taken as `set_timer` would take it now but with nothing
scheduled yet. A node whose timeout keeps moving (an election timeout reset by
every Accept, a client retry per operation) keeps one pending wake-up and
reserves a new deadline instead of scheduling a new event; a wake-up that
comes before the deadline re-arms itself at it. The timer then fires at the
same time, and in the same order among events at that time, as an eagerly
set one would, and no dead event is ever scheduled.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, replace
from typing import Any, Callable, Protocol

__all__ = ["LinkParams", "LinkStats", "Node", "NodeEnv", "SimNet"]


@dataclass(frozen=True)
class LinkParams:
    delay_ms: float
    bandwidth_bytes_per_ms: float
    up: bool = True

    def __post_init__(self):
        if self.bandwidth_bytes_per_ms <= 0:
            raise ValueError("bandwidth must be positive")
        if self.delay_ms < 0:
            raise ValueError("delay must be >= 0")


@dataclass
class LinkStats:
    bytes: int = 0
    msgs: int = 0
    payload_bytes: int = 0


class Node(Protocol):
    def on_message(self, src: int, msg: Any, now: float) -> None: ...
    def on_timer(self, tag: Any, now: float) -> None: ...
    def on_persist_done(self, tag: Any, now: float) -> None: ...
    def on_restart(self, now: float) -> None: ...


# heap entry kinds
_DELIVER, _TIMER, _PERSIST, _CRASH, _RESTART, _CALL = range(6)


class SimNet:
    def __init__(
        self,
        size_of: Callable[[Any], int],
        payload_of: Callable[[Any], int] | None = None,
    ):
        self.clock = 0.0
        self._seq = 0
        self._heap: list[tuple[float, int, int, tuple]] = []
        self.nodes: dict[int, Node] = {}
        self.alive: dict[int, bool] = {}
        self.links: dict[tuple[int, int], LinkParams] = {}
        self._busy: dict[tuple[int, int], float] = {}
        self.stats: dict[tuple[int, int], LinkStats] = {}
        self.size_of = size_of
        self.payload_of = payload_of or (lambda m: 0)
        self.dropped_msgs = 0

    # --- topology ---

    def add_node(self, node_id: int, handler: Node) -> None:
        self.nodes[node_id] = handler
        self.alive[node_id] = True

    def set_link(self, a: int, b: int, params: LinkParams) -> None:
        self.links[(a, b)] = params

    def link(self, a: int, b: int) -> LinkParams:
        return self.links[(a, b)]

    def env(self, node_id: int) -> "NodeEnv":
        return NodeEnv(self, node_id)

    # --- scheduling primitives ---

    def _push(self, at: float, kind: int, data: tuple) -> None:
        self._seq += 1
        heapq.heappush(self._heap, (at, self._seq, kind, data))

    def send(self, src: int, dst: int, msg: Any, size: int, payload_bytes: int = 0) -> None:
        """Charge the (src, dst) link and schedule delivery. Down links drop
        at send time; crashed destinations drop at delivery time."""
        params = self.links[(src, dst)]
        if not params.up:
            self.dropped_msgs += 1
            return
        st = self.stats.setdefault((src, dst), LinkStats())
        st.bytes += size
        st.msgs += 1
        st.payload_bytes += payload_bytes
        start = max(self.clock, self._busy.get((src, dst), 0.0))
        done = start + size / params.bandwidth_bytes_per_ms
        self._busy[(src, dst)] = done
        self._push(done + params.delay_ms, _DELIVER, (src, dst, msg))

    def set_timer(self, node: int, delay_ms: float, tag: Any) -> None:
        self._push(self.clock + delay_ms, _TIMER, (node, tag))

    def deadline(self, delay_ms: float) -> tuple[float, int]:
        """Reserve the place a timer set now for ``delay_ms`` would take:
        its firing time and its insertion sequence."""
        self._seq += 1
        return self.clock + delay_ms, self._seq

    def set_timer_at(self, node: int, deadline: tuple[float, int], tag: Any) -> None:
        """Fire ``tag`` at a deadline from `deadline`, which must not have
        passed. Among events at the same time it fires where a timer set
        when the deadline was reserved would have."""
        heapq.heappush(self._heap, (deadline[0], deadline[1], _TIMER, (node, tag)))

    def persist(self, node: int, nbytes: int, tag: Any) -> None:
        """Durable-write model: serialize nbytes over the node's self-link."""
        params = self.links[(node, node)]
        st = self.stats.setdefault((node, node), LinkStats())
        st.bytes += nbytes
        st.msgs += 1
        start = max(self.clock, self._busy.get((node, node), 0.0))
        done = start + nbytes / params.bandwidth_bytes_per_ms
        self._busy[(node, node)] = done
        self._push(done + params.delay_ms, _PERSIST, (node, tag))

    # --- fault schedule ---

    def schedule_crash(self, at: float, node: int) -> None:
        self._push(at, _CRASH, (node,))

    def schedule_restart(self, at: float, node: int) -> None:
        self._push(at, _RESTART, (node,))

    def schedule_call(self, at: float, fn: Callable[[float], None]) -> None:
        self._push(at, _CALL, (fn,))

    # --- dispatch loop ---

    def step(self) -> bool:
        if not self._heap:
            return False
        at, _seq, kind, data = heapq.heappop(self._heap)
        self.clock = at
        if kind == _DELIVER:
            src, dst, msg = data
            if not self.alive.get(dst, False):
                self.dropped_msgs += 1
                return True
            self.nodes[dst].on_message(src, msg, at)
        elif kind == _TIMER:
            node, tag = data
            if self.alive.get(node, False):
                self.nodes[node].on_timer(tag, at)
        elif kind == _PERSIST:
            node, tag = data
            if self.alive.get(node, False):
                self.nodes[node].on_persist_done(tag, at)
        elif kind == _CRASH:
            self.alive[data[0]] = False
        elif kind == _RESTART:
            node = data[0]
            if not self.alive.get(node, True):
                self.alive[node] = True
                self.nodes[node].on_restart(at)
        elif kind == _CALL:
            data[0](at)
        return True

    def run(self, until_ms: float) -> None:
        while self._heap and self._heap[0][0] <= until_ms:
            self.step()
        self.clock = max(self.clock, until_ms)

    # --- conveniences ---

    def set_all_links(self, node_ids: list[int], params: LinkParams, self_params: LinkParams) -> None:
        for a in node_ids:
            for b in node_ids:
                self.set_link(a, b, replace(params) if a != b else replace(self_params))

    def partition(self, group_a: list[int], group_b: list[int], up: bool) -> None:
        for a in group_a:
            for b in group_b:
                for pair in ((a, b), (b, a)):
                    if pair in self.links:
                        self.links[pair] = replace(self.links[pair], up=up)


class NodeEnv:
    """Per-node facade handed to protocol state machines and clients."""

    def __init__(self, net: SimNet, node_id: int):
        self.net = net
        self.node_id = node_id

    def now(self) -> float:
        return self.net.clock

    def send(self, dst: int, msg: Any) -> None:
        self.net.send(
            self.node_id, dst, msg, self.net.size_of(msg), self.net.payload_of(msg)
        )

    def set_timer(self, delay_ms: float, tag: Any) -> None:
        self.net.set_timer(self.node_id, delay_ms, tag)

    def deadline(self, delay_ms: float) -> tuple[float, int]:
        return self.net.deadline(delay_ms)

    def set_timer_at(self, deadline: tuple[float, int], tag: Any) -> None:
        self.net.set_timer_at(self.node_id, deadline, tag)

    def persist(self, nbytes: int, tag: Any) -> None:
        self.net.persist(self.node_id, nbytes, tag)
