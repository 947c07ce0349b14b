"""Simulator timing is hand-computable; these tests freeze the arithmetic."""

from crossword.simnet import LinkParams, SimNet


class Recorder:
    def __init__(self):
        self.events = []

    def on_message(self, src, msg, now):
        self.events.append(("msg", src, msg, now))

    def on_timer(self, tag, now):
        self.events.append(("timer", tag, now))

    def on_persist_done(self, tag, now):
        self.events.append(("persist", tag, now))

    def on_restart(self, now):
        self.events.append(("restart", now))


def two_nodes(delay=0.0, bw=50_000.0):
    net = SimNet(size_of=lambda m: m[0], payload_of=lambda m: 0)
    a, b = Recorder(), Recorder()
    net.add_node(0, a)
    net.add_node(1, b)
    for pair in [(0, 1), (1, 0)]:
        net.set_link(*pair, LinkParams(delay, bw))
    for node in (0, 1):
        net.set_link(node, node, LinkParams(0.0, bw))
    return net, a, b


def test_one_megabyte_transfer_time():
    # 400 Mbps = 50 bytes/us; 1 MiB serializes in ~20.97 ms
    net, _, b = two_nodes()
    net.send(0, 1, (1_048_576, "blob"), 1_048_576)
    net.run(100.0)
    assert b.events == [("msg", 0, (1_048_576, "blob"), 1_048_576 / 50_000)]


def test_transfer_plus_persist_round():
    # transfer then persist at the same bandwidth lands just under 43 ms
    net, _, b = two_nodes()
    b.on_message = lambda src, msg, now: net.persist(1, msg[0], "slot0")
    net.send(0, 1, (1_048_576, "blob"), 1_048_576)
    net.run(100.0)
    t = b.events[-1][2]
    assert b.events[-1][:2] == ("persist", "slot0")
    assert 40.0 <= t <= 43.5
    assert abs(t - 2 * 1_048_576 / 50_000) < 1e-6


def test_fifo_serialization_queues_back_to_back_sends():
    net, _, b = two_nodes(delay=4.0, bw=1000.0)
    net.send(0, 1, (2000, "x"), 2000)  # occupies link [0, 2]
    net.send(0, 1, (1000, "y"), 1000)  # queues behind: [2, 3]
    net.run(10.0)
    assert [(e[2][1], e[3]) for e in b.events] == [("x", 6.0), ("y", 7.0)]


def test_delay_only_small_message():
    net, _, b = two_nodes(delay=4.0, bw=125_000.0)
    net.send(0, 1, (100, "hb"), 100)
    net.run(10.0)
    assert abs(b.events[0][3] - (4.0 + 100 / 125_000)) < 1e-9


def test_timer_and_insertion_order_at_equal_time():
    net, a, _ = two_nodes()
    net.set_timer(0, 5.0, "first")
    net.set_timer(0, 5.0, "second")
    net.run(5.0)
    assert [e[1] for e in a.events] == ["first", "second"]


def test_reserved_deadline_keeps_its_place_at_equal_time():
    net, a, _ = two_nodes()
    early = net.deadline(5.0)
    net.set_timer(0, 5.0, "second")
    net.run(3.0)
    net.set_timer_at(0, early, "first")  # scheduled late, ordered as reserved
    net.run(5.0)
    assert [(e[1], e[2]) for e in a.events] == [("first", 5.0), ("second", 5.0)]


def test_crashed_node_drops_deliveries_and_timers():
    net, _, b = two_nodes(delay=1.0)
    net.send(0, 1, (10, "early"), 10)
    net.schedule_crash(0.5, 1)
    net.set_timer(1, 2.0, "tick")
    net.send(0, 1, (10, "late"), 10)
    net.run(10.0)
    assert b.events == []
    assert net.dropped_msgs == 2


def test_restart_invokes_handler():
    net, _, b = two_nodes()
    net.schedule_crash(1.0, 1)
    net.schedule_restart(5.0, 1)
    net.run(10.0)
    assert b.events == [("restart", 5.0)]


def test_set_link_not_retroactive():
    net, _, b = two_nodes(delay=10.0, bw=1e9)
    net.send(0, 1, (10, "inflight"), 10)
    # a link change takes effect when its call runs, as the runner makes it
    net.schedule_call(1.0, lambda now: net.set_link(0, 1, LinkParams(10.0, 1e9, up=False)))
    net.run(0.0)
    net.run(20.0)
    # in-flight message still arrives; sends after the cut are dropped
    assert [e[2][1] for e in b.events] == ["inflight"]
    net.send(0, 1, (10, "blocked"), 10)
    net.run(40.0)
    assert len(b.events) == 1


def test_down_link_drops_at_send():
    net, _, b = two_nodes()
    net.set_link(0, 1, LinkParams(0.0, 50_000.0, up=False))
    net.send(0, 1, (10, "x"), 10)
    net.run(5.0)
    assert b.events == [] and net.dropped_msgs == 1


def test_byte_accounting():
    net, _, _ = two_nodes()
    net.send(0, 1, (500, "x"), 500, 400)
    net.send(0, 1, (300, "y"), 300, 0)
    st = net.stats[(0, 1)]
    assert (st.bytes, st.msgs, st.payload_bytes) == (800, 2, 400)


def test_determinism_same_seed_same_trace():
    def run_once():
        net, a, b = two_nodes(delay=2.0)
        for i in range(20):
            net.send(0, 1, (100 + i, i), 100 + i)
        net.run(50.0)
        return [(e[3]) for e in b.events]

    assert run_once() == run_once()


def test_partition_and_heal():
    net, a, b = two_nodes(delay=1.0)
    net.partition([0], [1], up=False)
    net.send(0, 1, (10, "x"), 10)
    net.run(5.0)
    assert b.events == []
    net.partition([0], [1], up=True)
    net.send(0, 1, (10, "y"), 10)
    net.run(10.0)
    assert [e[2][1] for e in b.events] == ["y"]
