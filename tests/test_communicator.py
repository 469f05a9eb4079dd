"""Communicator profile tests: reliable, time-varying, and best-effort."""

import threading
import time

import numpy as np
import pytest

from fleetsim.communicator import PROFILES, Communicator
from fleetsim.errors import (
    ExchangeTimeout,
    TopologyError,
    UnsupportedOperationError,
)
from fleetsim.netgraph import CommGraph, EdgeSchedule, graph_from_edges
from fleetsim.transport import LockstepClock, MessageBus, TransportConfig, WallClock


def pair_graph():
    return graph_from_edges(2, [(0, 1)])


def triangle():
    return graph_from_edges(3, [(0, 1), (1, 2), (0, 2)])


def make_pair(profile="static", graph=None, config=None):
    g = graph if graph is not None else pair_graph()
    bus = MessageBus()
    a = Communicator(bus, 0, g, profile=profile, config=config)
    b = Communicator(bus, 1, g, profile=profile, config=config)
    return bus, a, b


def test_profiles_constant():
    assert PROFILES == ("static", "time_varying", "best_effort")


def test_unknown_profile():
    bus = MessageBus()
    with pytest.raises(ValueError):
        Communicator(bus, 0, pair_graph(), profile="carrier_pigeon")


def test_graph_type_checked():
    bus = MessageBus()
    with pytest.raises(TypeError):
        Communicator(bus, 0, [[0, 1], [1, 0]])


def test_static_rejects_varying_schedule():
    bus = MessageBus()
    sched = EdgeSchedule(pair_graph(), activation_prob=0.5, rng_seed=0)
    with pytest.raises(ValueError):
        Communicator(bus, 0, sched, profile="static")
    # a schedule that never varies is fine
    Communicator(bus, 0, EdgeSchedule(pair_graph(), activation_prob=1.0))


def test_reliable_fifo_1000_messages():
    """Across 1000 randomized payloads, receive order equals send order."""
    _, a, b = make_pair()
    rng = np.random.default_rng(42)
    sent = []
    for k in range(1000):
        kind = rng.integers(3)
        if kind == 0:
            v = int(rng.integers(-(2**40), 2**40))
        elif kind == 1:
            v = float(rng.standard_normal())
        else:
            v = rng.standard_normal(3)
        sent.append(v)
        a.send(v, to=1)
    for v in sent:
        got = b.receive(0, timeout=0)
        if isinstance(v, np.ndarray):
            assert np.array_equal(got, v)
        else:
            assert got == v


def test_round_tagged_receive_discards_stale():
    _, a, b = make_pair()
    for r in range(5):
        a.send({"r": r}, to=1, round=r)
    got = b.receive(0, round=3, timeout=0)
    assert got == {"r": 3}
    # rounds 0..2 were discarded; round 4 still queued
    got = b.receive(0, round=4, timeout=0)
    assert got == {"r": 4}


def test_receive_timeout_raises():
    _, a, b = make_pair()
    with pytest.raises(ExchangeTimeout) as err:
        b.receive(0, round=7, timeout=0.02)
    assert err.value.sender == 0
    assert err.value.round == 7


def test_best_effort_sync_receive_rejected():
    _, a, b = make_pair(profile="best_effort")
    with pytest.raises(UnsupportedOperationError):
        b.receive(0)


def test_best_effort_mailbox_depth_one():
    """Only the newest message survives; the reader never blocks."""
    _, a, b = make_pair(profile="best_effort")
    for k in range(10):
        a.send(k, to=1)
    assert b.asynchronous_receive(0) == 9
    assert b.asynchronous_receive(0) is None



def test_best_effort_delayed_link_delivers():
    """A message in flight survives the depth-1 mailbox: each receive gets
    the newest message that has arrived by then."""
    clock = LockstepClock()
    bus = MessageBus(clock=clock)
    cfg = TransportConfig(latency=0.5)
    a = Communicator(bus, 0, pair_graph(), profile="best_effort", config=cfg)
    b = Communicator(bus, 1, pair_graph(), profile="best_effort", config=cfg)
    got = []
    for k in range(10):
        a.send(k, to=1)
        clock.advance(0.25)
        got.append(b.asynchronous_receive(0))
    assert got == [None, 0, 1, 2, 3, 4, 5, 6, 7, 8]
    clock.advance(0.25)
    assert b.asynchronous_receive(0) == 9
    assert b.asynchronous_receive(0) is None

def test_best_effort_full_drop_bounded():
    cfg = TransportConfig(drop_prob=1.0, rng_seed=0)
    _, a, b = make_pair(profile="best_effort", config=cfg)
    for k in range(100):
        a.send(k, to=1)          # never blocks, all dropped
    assert b.asynchronous_receive(0) is None
    assert b.exchange_collect(round=0) == {}


def test_drop_is_seed_reproducible():
    cfg = TransportConfig(drop_prob=0.5, rng_seed=123)
    runs = []
    for _ in range(2):
        _, a, b = make_pair(profile="best_effort", config=cfg)
        delivered = []
        for k in range(50):
            a.send(k, to=1)
            got = b.asynchronous_receive(0)
            if got is not None:
                delivered.append(got)
        runs.append(delivered)
    assert runs[0] == runs[1]
    assert 0 < len(runs[0]) < 50


@pytest.mark.parametrize("profile", ["static", "time_varying"])
def test_reliable_profiles_refuse_drop(profile):
    """A reliable link that dropped would leave a round-tagged receive
    waiting for a message that never comes."""
    with pytest.raises(ValueError, match="best_effort"):
        make_pair(profile=profile, config=TransportConfig(drop_prob=0.5, rng_seed=0))


@pytest.mark.parametrize("profile", ["static", "time_varying"])
def test_newest_only_receive_is_best_effort_only(profile):
    """A reliable link keeps every message, so a newest-only read would
    leave all the older ones queued."""
    bus, a, b = make_pair(profile=profile)
    for k in range(3):
        a.send(k, to=1)
    with pytest.raises(UnsupportedOperationError):
        b.asynchronous_receive(0)
    assert bus.pending(1, 0) == 3


def test_send_to_non_neighbor():
    g = graph_from_edges(3, [(0, 1)])
    bus = MessageBus()
    a = Communicator(bus, 0, g)
    Communicator(bus, 2, g)
    with pytest.raises(TopologyError):
        a.send(1, to=2)


def test_send_with_a_non_neighbor_queues_nothing():
    """A reliable send that names a non-neighbor raises before it queues a
    message for any recipient, the valid ones included."""
    g = graph_from_edges(3, [(0, 1), (1, 2)])
    bus = MessageBus()
    a = Communicator(bus, 0, g)
    Communicator(bus, 1, g)
    Communicator(bus, 2, g)
    with pytest.raises(TopologyError):
        a.send(1.0, [1, 2])
    assert bus.pending(1, 0) == 0 and bus.pending(2, 0) == 0


@pytest.mark.parametrize("profile", PROFILES)
def test_a_broadcast_queues_what_an_equal_explicit_list_does(profile):
    """Sending to ``out_neighbors`` itself skips the recipient checks and
    hands the bus the same envelopes, drops and inactive edges included,
    as sending to an equal list does."""
    base = graph_from_edges(5, [(0, 1), (0, 2), (0, 4), (2, 3)])
    graph = EdgeSchedule(base, activation_prob=0.5, rng_seed=3) if profile != "static" else base
    config = TransportConfig(drop_prob=0.3 if profile == "best_effort" else 0.0, rng_seed=5)
    queued = []
    for explicit in (False, True):
        bus = MessageBus()
        src = Communicator(bus, 0, graph, profile=profile, config=config)
        for i in range(1, 5):
            Communicator(bus, i, graph, profile=profile, config=config)
        log, deliver = [], bus.deliver
        bus.deliver = lambda *args, **kw: log.append((args, kw)) or deliver(*args, **kw)
        for r in range(12):
            to = list(src.out_neighbors) if explicit else src.out_neighbors
            src.send(float(r), to, round=r)
        queued.append(log)
    assert queued[0] == queued[1]
    sent = len(queued[0])
    if profile == "static":
        assert sent == 3 * 12
    else:  # some edges are inactive, or some sends dropped
        assert 0 < sent < 3 * 12


@pytest.mark.parametrize("profile", ["static", "time_varying"])
def test_a_non_neighbor_still_raises_beside_a_broadcast(profile):
    """Only ``out_neighbors`` itself skips the check: a reliable send to a
    list that adds a non-neighbor to it raises before anything is queued."""
    g = graph_from_edges(3, [(0, 1)])
    bus = MessageBus()
    a = Communicator(bus, 0, g, profile=profile)
    Communicator(bus, 1, g, profile=profile)
    Communicator(bus, 2, g, profile=profile)
    with pytest.raises(TopologyError):
        a.send(1.0, [*a.out_neighbors, 2])
    with pytest.raises(TopologyError):
        a.send(1.0, 2)
    assert bus.pending(1, 0) == 0 and bus.pending(2, 0) == 0
    a.send(1.0, a.out_neighbors)
    assert bus.pending(1, 0) == 1 and bus.pending(2, 0) == 0


def test_best_effort_skips_non_neighbor():
    g = graph_from_edges(3, [(0, 1)])
    bus = MessageBus()
    a = Communicator(bus, 0, g, profile="best_effort")
    Communicator(bus, 2, g, profile="best_effort")
    a.send(1, to=2)  # silently skipped


def test_time_varying_send_gated_by_schedule():
    base = pair_graph()
    empty = CommGraph(2, np.zeros((2, 2), dtype=int))
    sched = EdgeSchedule.explicit(base, lambda r: empty if r == 0 else base)
    bus = MessageBus()
    a = Communicator(bus, 0, sched, profile="time_varying")
    b = Communicator(bus, 1, sched, profile="time_varying")
    a.send("early", to=1, round=0)   # edge inactive, dropped at source
    a.send("later", to=1, round=1)
    assert b.exchange_collect(round=1, timeout=0) == {0: "later"}


def test_time_varying_collect_expects_only_active_edges():
    # path 0-1-2; at round 0 only the 0-1 edge is up, so agent 1 must not
    # wait on agent 2
    base = graph_from_edges(3, [(0, 1), (1, 2)])
    only01 = graph_from_edges(3, [(0, 1)])
    sched = EdgeSchedule.explicit(base, lambda r: only01)
    bus = MessageBus()
    a = Communicator(bus, 0, sched, profile="time_varying")
    mid = Communicator(bus, 1, sched, profile="time_varying")
    Communicator(bus, 2, sched, profile="time_varying")
    a.send("hi", to=1, round=0)
    got = mid.exchange_collect(round=0, timeout=0)
    assert got == {0: "hi"}


def test_exchange_timeout_lists_missing():
    g = triangle()
    bus = MessageBus()
    a = Communicator(bus, 0, g)
    b = Communicator(bus, 1, g)
    Communicator(bus, 2, g)
    b.send("from 1", to=0, round=0)
    with pytest.raises(ExchangeTimeout) as err:
        a.exchange_collect(round=0, timeout=0.02)
    assert err.value.missing == [2]
    assert err.value.round == 0


def test_drain_returns_round_payload_pairs():
    _, a, b = make_pair()
    a.send("x", to=1, round=3)
    a.send("y", to=1, round=4)
    assert b.drain(0) == [(3, "x"), (4, "y")]
    assert b.drain(0) == []


def test_neighbors_exchange_auto_round():
    g = pair_graph()
    bus = MessageBus()
    a = Communicator(bus, 0, g)
    b = Communicator(bus, 1, g)
    assert a.round == 0 and b.round == 0
    a.exchange_send("a0")
    b.exchange_send("b0")
    assert a.neighbors_exchange("a0-again", round=0, timeout=1.0) == {1: "b0"}
    # explicit round does not advance the counter
    assert a.round == 0


def test_latency_delays_visibility():
    clock = LockstepClock()
    bus = MessageBus(clock=clock)
    g = pair_graph()
    cfg = TransportConfig(latency=0.5)
    a = Communicator(bus, 0, g, config=cfg)
    b = Communicator(bus, 1, g, config=cfg)
    a.send("slow", to=1)
    with pytest.raises(ExchangeTimeout):
        b.receive(0, timeout=0)
    clock.advance(0.5)
    assert b.receive(0, timeout=0) == "slow"


def test_blocking_receive_on_a_delayed_wall_clock_link_wakes_on_arrival():
    """On a wall clock nothing wakes a blocked receive when a delayed
    message arrives; the wait ends at its delivery time, 50 ms here, both
    with a 2 s timeout and with none."""
    bus = MessageBus(WallClock())
    g = pair_graph()
    cfg = TransportConfig(latency=0.05)
    a = Communicator(bus, 0, g, config=cfg)
    b = Communicator(bus, 1, g, config=cfg)
    a.send("timed", to=1)
    started = time.monotonic()
    assert b.receive(0, timeout=2.0) == "timed"
    assert time.monotonic() - started < 1.0
    a.send("untimed", to=1)
    got = []
    started = time.monotonic()
    worker = threading.Thread(target=lambda: got.append(b.receive(0)), daemon=True)
    worker.start()
    worker.join(timeout=1.0)
    assert got == ["untimed"] and time.monotonic() - started < 1.0


def test_threaded_exchange_on_triangle():
    """Three agents run lockstep rounds concurrently; everyone hears everyone."""
    g = triangle()
    bus = MessageBus()
    comms = [Communicator(bus, i, g) for i in range(3)]
    rounds = 5
    results = {i: [] for i in range(3)}
    errors = []

    def worker(i):
        try:
            for r in range(rounds):
                got = comms[i].neighbors_exchange({"who": i, "r": r}, timeout=10.0)
                results[i].append(got)
        except Exception as exc:  # pragma: no cover - surfaced by assert below
            errors.append((i, exc))

    threads = [threading.Thread(target=worker, args=(i,)) for i in range(3)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=30.0)
    assert not errors
    for i in range(3):
        others = sorted(set(range(3)) - {i})
        for r, got in enumerate(results[i]):
            assert sorted(got) == others
            for j in others:
                assert got[j] == {"who": j, "r": r}
