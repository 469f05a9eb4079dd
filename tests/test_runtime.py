"""Agent harness tests: lockstep stepping, free-running loops, and jobs."""

import threading
import time

import numpy as np
import pytest

from fleetsim.communicator import Communicator
from fleetsim.control import SiToUniParams
from fleetsim.dynamics import (
    DoubleIntegratorState,
    SingleIntegratorState,
    UnicycleState,
)
from fleetsim.errors import (
    BusyError,
    JobError,
    RegistrationError,
    StaleJobError,
    UnsupportedOperationError,
)
from fleetsim.guidance import rendezvous_velocity
from fleetsim.netgraph import graph_from_edges
from fleetsim.runtime import (
    JOB_CANCELLED,
    JOB_DONE,
    JOB_RUNNING,
    Agent,
    AgentSpec,
    spawn_agent,
)
from fleetsim.transport import MessageBus, TransportConfig, WallClock


def zero_law(own, neigh):
    return np.zeros_like(own)


def si_spec(agent_id, pos, law, **kw):
    return AgentSpec(agent_id, SingleIntegratorState(np.asarray(pos, float)), law, **kw)


def lockstep_pair(law, period=0.05, positions=((2.0, 0.0), (-2.0, 0.0))):
    g = graph_from_edges(2, [(0, 1)])
    bus = MessageBus()
    agents = []
    for i, pos in enumerate(positions):
        comm = Communicator(bus, i, g)
        agents.append(Agent(si_spec(i, pos, law, period=period), comm))
    return agents


def run_lockstep(agents, rounds, timeout=5.0):
    for r in range(rounds):
        for a in agents:
            a.tick_publish(r)
        for a in agents:
            a.tick_compute(r, timeout=timeout)


# -- spec validation ---------------------------------------------------------


def test_spec_rejects_unknown_model():
    with pytest.raises(RegistrationError):
        Agent(AgentSpec(0, np.zeros(2), zero_law), comm=None)


def test_spec_rejects_bad_period():
    with pytest.raises(RegistrationError):
        Agent(si_spec(0, (0, 0), zero_law, period=0.0), comm=None)


def test_spec_rejects_double_integrator():
    spec = AgentSpec(
        0,
        DoubleIntegratorState(np.zeros(2), np.zeros(2)),
        zero_law,
    )
    with pytest.raises(RegistrationError):
        Agent(spec, comm=None)


def test_unicycle_spec_needs_matching_state_and_params():
    with pytest.raises(RegistrationError):
        Agent(
            AgentSpec(0, SingleIntegratorState(np.zeros(2)), zero_law,
                      si_params=SiToUniParams()),
            comm=None,
        )
    with pytest.raises(RegistrationError):
        Agent(
            AgentSpec(0, UnicycleState(0.0, 0.0, 0.0), zero_law),
            comm=None,
        )


def test_si_spec_rejects_si_params():
    with pytest.raises(RegistrationError):
        Agent(si_spec(0, (0, 0), zero_law, si_params=SiToUniParams()), comm=None)


def test_duplicate_agent_id_rejected():
    g = graph_from_edges(2, [(0, 1)])
    bus = MessageBus()
    spawn_agent(si_spec(0, (0, 0), zero_law), bus, g)
    with pytest.raises(RegistrationError):
        spawn_agent(si_spec(0, (1, 1), zero_law), bus, g)


# -- lockstep stepping ---------------------------------------------------------


def test_zero_law_holds_position():
    agents = lockstep_pair(zero_law)
    start = [a.pose.copy() for a in agents]
    run_lockstep(agents, 20)
    for a, p0 in zip(agents, start):
        assert np.array_equal(a.pose, p0)
    assert agents[0].round == 20


def test_lockstep_tick_two_agent_hand_value():
    agents = lockstep_pair(rendezvous_velocity)
    run_lockstep(agents, 1)
    assert agents[0].last_input == pytest.approx(np.array([-4.0, 0.0]))
    assert agents[1].last_input == pytest.approx(np.array([4.0, 0.0]))


def test_lockstep_rendezvous_converges():
    agents = lockstep_pair(rendezvous_velocity, period=0.05)
    run_lockstep(agents, 200)
    gap = np.linalg.norm(agents[0].pose - agents[1].pose)
    assert gap < 1e-3
    # meeting point is the initial midpoint
    assert agents[0].pose == pytest.approx(np.zeros(2), abs=1e-3)


def test_unicycle_agent_drives_forward():
    g = graph_from_edges(1, [])
    bus = MessageBus()
    comm = Communicator(bus, 0, g)
    spec = AgentSpec(
        0,
        UnicycleState(0.0, 0.0, 0.0),
        lambda own, neigh: np.array([1.0, 0.0]),
        period=0.01,
        si_params=SiToUniParams(lookahead=0.05),
    )
    agent = Agent(spec, comm)
    for r in range(100):
        agent.tick(r, timeout=1.0)
    assert agent.state.x == pytest.approx(1.0, abs=0.01)
    assert abs(agent.state.y) < 0.01


def test_saturation_passes_through():
    g = graph_from_edges(1, [])
    bus = MessageBus()
    comm = Communicator(bus, 0, g)
    agent = Agent(si_spec(0, (0.0, 0.0), lambda own, neigh: np.array([100.0, 0.0]),
                          period=0.1, saturation=1.0), comm)
    agent.tick(0, timeout=0)
    assert agent.pose[0] == pytest.approx(0.1)  # clamped to 1.0 * dt


def test_best_effort_all_dropped_keeps_no_neighbors():
    g = graph_from_edges(2, [(0, 1)])
    bus = MessageBus()
    cfg = TransportConfig(drop_prob=1.0)
    agents = []
    for i, pos in enumerate(((1.0, 1.0), (-1.0, -1.0))):
        comm = Communicator(bus, i, g, profile="best_effort", config=cfg)
        agents.append(Agent(si_spec(i, pos, rendezvous_velocity), comm))
    start = [a.pose.copy() for a in agents]
    run_lockstep(agents, 10)
    for a, p0 in zip(agents, start):
        assert a.last_neighbors == {}
        assert np.array_equal(a.pose, p0)


def test_pose_is_a_read_only_copy_built_once_per_state():
    agent = lockstep_pair(rendezvous_velocity, positions=((1.0, 2.0), (-1.0, 0.0)))[0]
    pose = agent.pose
    assert not np.shares_memory(pose, agent.state.pos)
    with pytest.raises(ValueError):
        pose += 100.0
    assert np.array_equal(agent.state.pos, [1.0, 2.0])
    assert agent.pose is pose
    agent.state = SingleIntegratorState(np.array([3.0, 4.0]))
    assert np.array_equal(agent.pose, [3.0, 4.0]) and not agent.pose.flags.writeable


def test_agents_share_nothing_but_the_bus():
    """Neighbor data arrives as plain arrays, never as live objects."""
    agents = lockstep_pair(rendezvous_velocity)
    run_lockstep(agents, 3)
    got = agents[0].last_neighbors[1]
    assert isinstance(got, np.ndarray)
    got += 1000.0  # mutating the copy must not touch the sender
    assert np.linalg.norm(agents[1].pose) < 10.0
    for value in vars(agents[0]).values():
        assert not isinstance(value, Agent)


# -- free-running mode -------------------------------------------------------------


def test_free_running_agents_converge():
    g = graph_from_edges(2, [(0, 1)])
    bus = MessageBus()
    base_law = rendezvous_velocity

    def eager_law(own, neigh):
        return 5.0 * base_law(own, neigh)

    # register everyone before any loop starts publishing
    agents = [
        spawn_agent(
            si_spec(i, pos, eager_law, period=0.002),
            bus,
            g,
            profile="best_effort",
        )
        for i, pos in enumerate(((1.0, 0.0), (-1.0, 0.0)))
    ]
    try:
        for a in agents:
            a.start()
        assert all(a.running for a in agents)
        # about 300 loops each, what 0.6 s holds at the 2 ms period; a
        # starved run waits for them instead of stopping short
        deadline = time.monotonic() + 30.0
        while min(a.round for a in agents) < 300:
            assert time.monotonic() < deadline, [a.round for a in agents]
            time.sleep(0.01)
    finally:
        for a in agents:
            a.stop()
    assert not any(a.running for a in agents)
    gap = np.linalg.norm(agents[0].pose - agents[1].pose)
    assert gap < 0.05
    period = agents[0].measured_period()
    assert period == pytest.approx(0.002, abs=0.004)


def test_free_running_pair_hears_over_delayed_links():
    """With 4 ms links under a 2 ms period every pose is still in flight
    when the next one is sent; the mailbox keeps it, so each agent hears
    the other and the pair meets. A single tick may hear nothing, so the
    law records whether any tick of the run did."""
    g = graph_from_edges(2, [(0, 1)])
    bus = MessageBus(WallClock())
    cfg = TransportConfig(latency=0.004)
    heard = [False, False]

    def eager_law(i):
        def law(own, neigh):
            heard[i] = heard[i] or bool(neigh)
            return 5.0 * rendezvous_velocity(own, neigh)
        return law

    agents = [
        Agent(si_spec(i, pos, eager_law(i), period=0.002),
              Communicator(bus, i, g, profile="best_effort", config=cfg))
        for i, pos in enumerate(((1.0, 0.0), (-1.0, 0.0)))
    ]
    try:
        for a in agents:
            a.start()
        deadline = time.monotonic() + 30.0
        while min(a.round for a in agents) < 300:
            assert time.monotonic() < deadline, [a.round for a in agents]
            assert not any(a.error for a in agents), [a.error for a in agents]
            time.sleep(0.01)
    finally:
        for a in agents:
            a.stop()
    assert heard == [True, True]
    assert np.linalg.norm(agents[0].pose - agents[1].pose) < 0.05


@pytest.mark.parametrize("profile", ["static", "time_varying"])
def test_start_needs_best_effort(profile):
    """Reliable profiles wait for a round's messages; free-running rounds
    do not align, so only best-effort agents may run free."""
    g = graph_from_edges(1, [])
    agent = spawn_agent(si_spec(0, (0, 0), zero_law), MessageBus(), g, profile=profile)
    with pytest.raises(UnsupportedOperationError):
        agent.start()
    assert not agent.running


def test_loop_error_is_recorded_and_ends_the_loop():
    def explode(own, neigh):
        raise ValueError("law went bad")

    g = graph_from_edges(1, [])
    agent = spawn_agent(si_spec(0, (0, 0), explode), MessageBus(), g,
                        profile="best_effort").start()
    deadline = time.monotonic() + 5.0
    while agent.running:
        assert time.monotonic() < deadline
        time.sleep(0.005)
    agent.stop()
    assert isinstance(agent.error, ValueError)
    assert agent.round == 0


def test_start_twice_rejected():
    g = graph_from_edges(1, [])
    bus = MessageBus()
    agent = spawn_agent(si_spec(0, (0, 0), zero_law, period=0.01), bus, g,
                        profile="best_effort").start()
    try:
        with pytest.raises(RegistrationError):
            agent.start()
    finally:
        agent.stop()


def test_loop_stays_responsive_during_job():
    """A background job must not stretch the guidance period beyond 2x."""
    g = graph_from_edges(1, [])
    bus = MessageBus()
    agent = spawn_agent(si_spec(0, (0, 0), zero_law, period=0.02), bus, g,
                        profile="best_effort").start()
    try:
        time.sleep(0.5)
        idle = agent.measured_period()

        def grind(stop_event):
            while not stop_event.is_set():
                sum(k * k for k in range(500))
                time.sleep(0.0005)
            return "stopped"

        job = agent.submit_job(grind)
        time.sleep(0.5)
        busy = agent.measured_period()
        agent.cancel_job(job)
    finally:
        agent.stop()
    assert busy <= 2.0 * idle + 0.01


# -- optimization jobs ---------------------------------------------------------------


def make_idle_agent():
    g = graph_from_edges(1, [])
    bus = MessageBus()
    return spawn_agent(si_spec(0, (0, 0), zero_law), bus, g)


def test_job_completes_and_hook_fires_once():
    agent = make_idle_agent()
    calls = []
    agent.on_done(lambda jid, result: calls.append((jid, result)))
    jid = agent.submit_job(lambda stop: 42)
    agent.job_handle(jid).join(timeout=5.0)
    assert agent.job_status(jid) == JOB_DONE
    assert agent.job_result(jid) == 42
    assert calls == [(jid, 42)]


def test_second_job_while_running_is_busy():
    agent = make_idle_agent()
    release = threading.Event()

    def blocker(stop):
        release.wait(5.0)
        return None

    jid = agent.submit_job(blocker)
    try:
        with pytest.raises(BusyError):
            agent.submit_job(lambda stop: 1)
    finally:
        release.set()
        agent.job_handle(jid).join(timeout=5.0)
    # once finished, new submissions are welcome again
    jid2 = agent.submit_job(lambda stop: 2)
    agent.job_handle(jid2).join(timeout=5.0)
    assert agent.job_status(jid2) == JOB_DONE


def test_cancelled_job_fires_no_hook():
    agent = make_idle_agent()
    calls = []
    agent.on_done(lambda jid, result: calls.append(jid))
    started = threading.Event()

    def worker(stop):
        started.set()
        while not stop.is_set():
            time.sleep(0.001)
        return "late result"

    jid = agent.submit_job(worker)
    assert started.wait(5.0)
    agent.cancel_job(jid)
    assert agent.job_status(jid) == JOB_CANCELLED
    agent.job_handle(jid).join(timeout=5.0)
    assert agent.job_status(jid) == JOB_CANCELLED
    assert calls == []
    with pytest.raises(JobError):
        agent.job_result(jid)


def test_failing_job_is_recorded_cancelled():
    agent = make_idle_agent()
    calls = []
    agent.on_done(lambda jid, result: calls.append(jid))

    def explode(stop):
        raise ValueError("numbers went bad")

    jid = agent.submit_job(explode)
    agent.job_handle(jid).join(timeout=5.0)
    assert agent.job_status(jid) == JOB_CANCELLED
    assert isinstance(agent.job_handle(jid).error, ValueError)
    assert calls == []


def test_stale_cancel_paths():
    agent = make_idle_agent()
    with pytest.raises(StaleJobError):
        agent.cancel_job(999)
    jid = agent.submit_job(lambda stop: 1)
    agent.job_handle(jid).join(timeout=5.0)
    with pytest.raises(StaleJobError):
        agent.cancel_job(jid)


def test_job_status_unknown_id():
    agent = make_idle_agent()
    with pytest.raises(JobError):
        agent.job_status(123)
    with pytest.raises(JobError):
        agent.job_result(123)


def test_job_handle_unknown_id():
    agent = make_idle_agent()
    with pytest.raises(JobError):
        agent.job_handle(123)


def test_job_result_while_running_raises():
    agent = make_idle_agent()
    release = threading.Event()
    jid = agent.submit_job(lambda stop: release.wait(5.0))
    try:
        assert agent.job_status(jid) == JOB_RUNNING
        with pytest.raises(JobError):
            agent.job_result(jid)
    finally:
        release.set()
        agent.job_handle(jid).join(timeout=5.0)


def test_randomized_submit_cancel_hooks_fire_exactly_once():
    """Across 1000 jobs with interleaved cancels, done jobs hook exactly
    once and cancelled jobs never do."""
    agent = make_idle_agent()
    counts = {}
    agent.on_done(lambda jid, result: counts.__setitem__(jid, counts.get(jid, 0) + 1))
    rng = np.random.default_rng(6)
    statuses = {}
    for _ in range(1000):
        jid = agent.submit_job(lambda stop: stop.wait(0.0005))
        if rng.random() < 0.3:
            try:
                agent.cancel_job(jid)
            except StaleJobError:
                pass  # finished before the cancel landed
        agent.job_handle(jid).join(timeout=5.0)
        statuses[jid] = agent.job_status(jid)
    assert len(statuses) == 1000
    for jid, status in statuses.items():
        if status == JOB_DONE:
            assert counts.get(jid, 0) == 1, jid
        else:
            assert status == JOB_CANCELLED
            assert jid not in counts
    assert any(s == JOB_CANCELLED for s in statuses.values())
    assert any(s == JOB_DONE for s in statuses.values())
