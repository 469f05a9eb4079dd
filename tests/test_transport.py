"""Message bus, envelopes, and clock tests."""

import sys
import threading
import time

import pytest

from fleetsim.errors import RegistrationError
from fleetsim.transport import (
    Envelope,
    LockstepClock,
    MessageBus,
    TransportConfig,
    WallClock,
)


def make_bus(*ids, clock=None, depth=None):
    bus = MessageBus(clock=clock)
    for i in ids:
        bus.register(i, queue_depth=depth)
    return bus


def test_transport_config_validation():
    with pytest.raises(ValueError):
        TransportConfig(drop_prob=-0.1)
    with pytest.raises(ValueError):
        TransportConfig(drop_prob=1.01)
    with pytest.raises(ValueError):
        TransportConfig(latency=-1.0)
    with pytest.raises(ValueError):
        TransportConfig(latency=float("nan"))
    TransportConfig(drop_prob=1.0, latency=0.5)  # boundary values ok


def test_register_duplicate():
    bus = make_bus(0)
    with pytest.raises(RegistrationError):
        bus.register(0)


def test_deliver_unregistered():
    bus = make_bus(0)
    with pytest.raises(RegistrationError):
        bus.deliver(0, 42, Envelope(0, b""))


@pytest.mark.parametrize("depth", [0, -1])
def test_register_refuses_a_depth_that_keeps_no_message(depth):
    """Depth 0 would keep no arrived message, and -1 would make the next
    deliver pop from an empty queue."""
    bus = MessageBus()
    with pytest.raises(ValueError, match="queue_depth"):
        bus.register(1, queue_depth=depth)
    bus.register(1, queue_depth=1)  # the id was not claimed


@pytest.mark.parametrize("depth", [1.5, 2.0, True])
def test_register_refuses_a_depth_that_is_not_an_int(depth):
    """A float depth would make a later deliver fail in the middle of its
    drop, after the message was queued; True is refused as the config
    refuses a bool for an integer."""
    bus = MessageBus()
    with pytest.raises(ValueError, match="queue_depth"):
        bus.register(1, queue_depth=depth)
    bus.register(1, queue_depth=2)  # the id was not claimed


@pytest.mark.parametrize("receive", [
    lambda bus: bus.pop_next(42, 0, timeout=0),
    lambda bus: bus.pop_newest(42, 0),
    lambda bus: bus.drain(42, 0),
    lambda bus: bus.pending(42, 0),
], ids=["pop_next", "pop_newest", "drain", "pending"])
def test_receive_on_an_unregistered_id_raises_and_opens_no_link(receive):
    bus = make_bus(0)
    with pytest.raises(RegistrationError, match="agent id 42 is not registered"):
        receive(bus)
    assert bus._links == {}


def test_fifo_order():
    bus = make_bus(0, 1)
    for k in range(50):
        bus.deliver(0, 1, Envelope(k, str(k).encode()))
    got = [bus.pop_next(1, 0, timeout=0).payload for _ in range(50)]
    assert got == [str(k).encode() for k in range(50)]


def test_pop_next_empty_poll():
    bus = make_bus(0, 1)
    assert bus.pop_next(1, 0, timeout=0) is None


def test_pop_next_round_discards_older():
    bus = make_bus(0, 1)
    bus.deliver(0, 1, Envelope(1, b"old"))
    bus.deliver(0, 1, Envelope(2, b"older"))
    bus.deliver(0, 1, Envelope(5, b"want"))
    env = bus.pop_next(1, 0, round=5, timeout=0)
    assert env.payload == b"want"
    assert bus.pending(1, 0) == 0


def test_pop_next_round_leaves_newer():
    bus = make_bus(0, 1)
    bus.deliver(0, 1, Envelope(9, b"future"))
    assert bus.pop_next(1, 0, round=5, timeout=0) is None
    assert bus.pending(1, 0) == 1
    assert bus.pop_next(1, 0, round=9, timeout=0).payload == b"future"


def test_pop_newest_leaves_older_queued():
    bus = make_bus(0, 1)
    for k in range(4):
        bus.deliver(0, 1, Envelope(k, str(k).encode()))
    newest = bus.pop_newest(1, 0)
    assert newest.payload == b"3"
    rest = [e.payload for e in bus.drain(1, 0)]
    assert rest == [b"0", b"1", b"2"]


def test_pop_newest_empty():
    bus = make_bus(0, 1)
    assert bus.pop_newest(1, 0) is None


def test_queue_depth_keeps_latest():
    bus = make_bus(0)
    bus.register(1, queue_depth=1)
    for k in range(5):
        bus.deliver(0, 1, Envelope(k, str(k).encode()))
    assert bus.pending(1, 0) == 1
    assert bus.pop_next(1, 0, timeout=0).payload == b"4"


def test_queue_depth_per_link():
    bus = make_bus(0, 2)
    bus.register(1, queue_depth=2)
    for k in range(4):
        bus.deliver(0, 1, Envelope(k, b""))
        bus.deliver(0, 2, Envelope(k, b""))
    assert bus.pending(1, 0) == 2
    assert bus.pending(2, 0) == 4



def test_queue_depth_counts_only_arrived_messages():
    """Messages in flight are never evicted; among arrived ones the newest
    ``depth`` stay."""
    clock = LockstepClock()
    bus = make_bus(0, clock=clock)
    bus.register(1, queue_depth=1)
    bus.deliver(0, 1, Envelope(0, b"0"))
    bus.deliver(0, 1, Envelope(1, b"1"), deliver_at=1.0)
    bus.deliver(0, 1, Envelope(2, b"2"), deliver_at=2.0)
    assert bus.pending(1, 0) == 1
    clock.advance(2.0)
    assert bus.pending(1, 0) == 1
    assert bus.pop_newest(1, 0).payload == b"2"
    assert bus.pop_newest(1, 0) is None

def test_latency_gating_with_lockstep_clock():
    """Messages stay invisible until the clock reaches their delivery time."""
    clock = LockstepClock()
    bus = make_bus(0, 1, clock=clock)
    bus.deliver(0, 1, Envelope(0, b"later"), deliver_at=1.0)
    assert bus.pending(1, 0) == 0
    assert bus.pop_next(1, 0, timeout=0) is None
    clock.advance(0.5)
    assert bus.pop_next(1, 0, timeout=0) is None
    clock.advance(0.5)
    assert bus.pending(1, 0) == 1
    assert bus.pop_next(1, 0, timeout=0).payload == b"later"


def test_latency_head_of_line():
    # an undeliverable head hides deliverable messages behind it
    clock = LockstepClock()
    bus = make_bus(0, 1, clock=clock)
    bus.deliver(0, 1, Envelope(0, b"slow"), deliver_at=2.0)
    bus.deliver(0, 1, Envelope(1, b"fast"), deliver_at=0.0)
    assert bus.pop_next(1, 0, timeout=0) is None
    clock.advance(2.0)
    assert bus.pop_next(1, 0, timeout=0).payload == b"slow"
    assert bus.pop_next(1, 0, timeout=0).payload == b"fast"


def test_drain_only_deliverable():
    clock = LockstepClock()
    bus = make_bus(0, 1, clock=clock)
    bus.deliver(0, 1, Envelope(0, b"a"), deliver_at=0.0)
    bus.deliver(0, 1, Envelope(1, b"b"), deliver_at=5.0)
    got = [e.payload for e in bus.drain(1, 0)]
    assert got == [b"a"]
    assert bus.pending(1, 0) == 0  # remaining message not yet deliverable


def test_blocking_pop_wakes_on_deliver():
    bus = make_bus(0, 1)
    out = []

    def waiter():
        out.append(bus.pop_next(1, 0, timeout=5.0))

    t = threading.Thread(target=waiter)
    t.start()
    bus.deliver(0, 1, Envelope(0, b"ping"))
    t.join(timeout=5.0)
    assert not t.is_alive()
    assert out[0].payload == b"ping"


def test_deliver_wakes_a_thread_already_blocked_in_pop_next():
    """``deliver`` notifies only when some thread waits; a thread that is
    already blocked in ``pop_next`` must still be woken by a deliver from
    another thread, long before its timeout."""
    bus = make_bus(0, 1)
    out = []
    t = threading.Thread(target=lambda: out.append(bus.pop_next(1, 0, timeout=30.0)))
    t.start()
    deadline = time.monotonic() + 10.0
    while not bus._waiting and time.monotonic() < deadline:
        time.sleep(0.001)
    assert bus._waiting == 1
    start = time.monotonic()
    bus.deliver(0, 1, Envelope(0, b"ping"))
    t.join(timeout=10.0)
    assert not t.is_alive() and time.monotonic() - start < 10.0
    assert out[0].payload == b"ping" and bus._waiting == 0


def test_lockstep_advance_wakes_a_thread_blocked_on_a_future_message():
    """A message queued for a later lockstep time is not deliverable, so a
    thread in ``pop_next`` waits; the ``advance`` that reaches the delivery
    time must wake it, long before its timeout."""
    clock = LockstepClock()
    bus = make_bus(0, 1, clock=clock)
    clock.advance(0.5)
    bus.deliver(0, 1, Envelope(0, b"later"), deliver_at=1.0)
    out = []
    t = threading.Thread(target=lambda: out.append(bus.pop_next(1, 0, timeout=30.0)))
    t.start()
    deadline = time.monotonic() + 10.0
    while not bus._waiting and time.monotonic() < deadline:
        time.sleep(0.001)
    assert bus._waiting == 1 and not out
    start = time.monotonic()
    clock.advance(0.5)
    t.join(timeout=10.0)
    assert not t.is_alive() and time.monotonic() - start < 10.0
    assert out[0].payload == b"later" and bus._waiting == 0


def test_blocked_receivers_all_wake_under_fast_thread_switching():
    """Eight receiver threads block in ``pop_next`` while eight sender
    threads deliver to them; with the interpreter switching threads as
    often as it can, no wake-up is lost and the waiter count returns to 0."""
    senders, messages = 8, 50
    bus = make_bus(*range(2 * senders))
    got = {dst: [] for dst in range(senders, 2 * senders)}

    def receive(dst):
        for _ in range(messages):
            got[dst].append(bus.pop_next(dst, dst - senders, timeout=20.0))

    def send(src):
        for k in range(messages):
            bus.deliver(src, src + senders, Envelope(k, b"m"))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=receive, args=(d,)) for d in got]
        threads += [threading.Thread(target=send, args=(s,)) for s in range(senders)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60.0)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    for envs in got.values():
        assert [e.round for e in envs] == list(range(messages))
    assert bus._waiting == 0


def test_pop_next_timeout_returns_none():
    bus = make_bus(0, 1)
    assert bus.pop_next(1, 0, timeout=0.05) is None


def test_wall_clock_monotone():
    clock = WallClock()
    a = clock.now()
    b = clock.now()
    assert b >= a


def test_lockstep_clock():
    clock = LockstepClock()
    assert clock.now() == 0.0
    clock.advance(0.25)
    clock.advance(0.25)
    assert clock.now() == 0.5


def test_pop_next_waits_for_a_head_still_in_flight():
    clock = LockstepClock()
    bus = make_bus(0, 1, clock=clock)
    bus.deliver(0, 1, Envelope(0, b"late"), deliver_at=clock.now() + 0.004)
    assert bus.pop_next(1, 0, round=0, timeout=0) is None
    assert bus.pop_next(1, 0, timeout=0) is None
    clock.advance(0.004)
    assert bus.pop_next(1, 0, round=0, timeout=0).payload == b"late"


def test_pop_next_on_a_bounded_link_trims_before_it_pops():
    """Three messages in flight on a depth-1 link all arrive at once; the
    pop returns the newest, not the head."""
    clock = LockstepClock()
    bus = make_bus(0, 1, clock=clock, depth=1)
    for k in range(3):
        bus.deliver(0, 1, Envelope(k, b"%d" % k), deliver_at=0.002)
    clock.advance(0.002)
    assert bus.pop_next(1, 0, timeout=0).payload == b"2"
    assert bus.pending(1, 0) == 0
