"""Distributed assignment protocol tests.

Exercises the column-exchange simplex agents both as pure state machines
(lockstep, hand-driven rounds) and end-to-end over live communicators,
plus the task-cloud bookkeeping.
"""

import gc
import math
import struct
import threading
import time
import traceback
import weakref
from types import SimpleNamespace

import numpy as np
import pytest

from fleetsim import assignment, codec
from fleetsim.assignment import (
    DEFAULT_BIG_M,
    CloudState,
    DistributedSimplexAgent,
    LockstepSolve,
    Task,
    agreed_result,
    artificial_columns,
    cloud_complete,
    costs_from_positions,
    default_margin,
    initial_basis,
    local_columns,
    lockstep_round,
    run_distributed_simplex,
    simplex_round,
    solve_assignment_network,
)
from fleetsim.communicator import Communicator
from fleetsim.errors import CloudError, NonConvergenceError, ProtocolError
from fleetsim.lp import AssignmentProblem, assignment_cost, hungarian
from fleetsim.netgraph import erdos_renyi, graph_from_edges, graph_from_matrix
from fleetsim.transport import Envelope, MessageBus, TransportConfig
from oracles import reference_round


def complete_graph(n):
    return graph_from_matrix(1 - np.eye(n, dtype=int))


def lockstep_rounds(agents, graph, rounds):
    """Drive hand-rolled synchronous rounds without a bus."""
    n = len(agents)
    for _ in range(rounds):
        payloads = [a.payload() for a in agents]
        for i, agent in enumerate(agents):
            received = [np.empty((0, 3))]
            for j in range(n):
                if graph.adjacency[j, i]:
                    cols, _ = agent.parse(payloads[j])
                    received.append(cols)
            agent.absorb(np.concatenate(received))


# -- costs ---------------------------------------------------------------------


def test_costs_from_positions_hand_value():
    costs = costs_from_positions([(0.0, 0.0)], [(3.0, 4.0), (0.0, 1.0)])
    assert costs == pytest.approx(np.array([[5.0, 1.0]]))


def test_costs_translation_invariant():
    rng = np.random.default_rng(1)
    robots = rng.uniform(0, 2, size=(4, 2))
    tasks = rng.uniform(0, 2, size=(4, 2))
    shift = np.array([10.0, -3.0])
    a = costs_from_positions(robots, tasks)
    b = costs_from_positions(robots + shift, tasks + shift)
    assert a == pytest.approx(b)


# -- columns and bases -----------------------------------------------------------


def test_local_columns_structure():
    rng = np.random.default_rng(2)
    n = 4
    costs = rng.random((n, n))
    for i in range(n):
        cols = local_columns(i, costs, n)
        assert cols.shape == (n, 3)
        for k, (robot, task, cost) in enumerate(cols):
            assert robot == i and task == k
            assert robot >= 0  # not artificial
            assert cost == costs[i, k]  # the raw cost, bit for bit


def test_artificial_columns():
    n = 3
    arts = artificial_columns(n)
    assert arts.shape == (2 * n - 1, 3)
    for r, (robot, task, cost) in enumerate(arts):
        assert robot == -1 and task == r and cost == DEFAULT_BIG_M


def test_initial_basis():
    n = 3
    basis = initial_basis(n)
    assert len(basis.columns) == 2 * n - 1
    assert basis.permutation() is None
    # every artificial carries one unit
    assert basis.objective == DEFAULT_BIG_M * (2 * n - 1)


def test_simplex_round_converges_then_fixed_point():
    rng = np.random.default_rng(7)
    n = 3
    costs = rng.random((n, n))
    state = initial_basis(n)
    own = local_columns(0, costs, n)
    all_cols = np.concatenate([local_columns(i, costs, n) for i in range(n)])
    state = simplex_round(state, own, all_cols, n)
    settled = simplex_round(state, own, all_cols, n)
    assert np.array_equal(settled.columns, state.columns)
    assert settled.objective == pytest.approx(state.objective)


def test_simplex_round_objective_monotone():
    rng = np.random.default_rng(13)
    n = 4
    costs = rng.random((n, n))
    graph = complete_graph(n)
    agents = [DistributedSimplexAgent(i, costs, n) for i in range(n)]
    for _ in range(12):
        payloads = [a.payload() for a in agents]
        before = [a.basis.objective for a in agents]
        for i, agent in enumerate(agents):
            received = [np.empty((0, 3))]
            for j in range(n):
                if graph.adjacency[j, i]:
                    cols, _ = agent.parse(payloads[j])
                    received.append(cols)
            agent.absorb(np.concatenate(received))
            assert agent.basis.objective <= before[i] + 1e-9


def test_malformed_column_rejected_without_state_change():
    agent = DistributedSimplexAgent(0, np.ones((2, 2)), 2)
    before = agent.basis
    with pytest.raises(ProtocolError):
        agent.parse({"cols": np.array([[0.0, 5.0, 1.0]])})  # task out of range
    with pytest.raises(ProtocolError):
        agent.parse({"cols": np.array([[0.0, np.nan, 1.0]])})
    with pytest.raises(ProtocolError):
        agent.parse({"no_cols": 1})
    with pytest.raises(ProtocolError):
        agent.parse({"cols": np.ones((2, 2))})  # wrong width
    with pytest.raises(ProtocolError):
        agent.parse({"cols": np.array([[-1.0, 99.0, 1.0]])})  # bad artificial row
    for cols in ("x", [[0.0, 1.0, 1.0], [1.0]], b"\x00\x01", {"a": 1.0}):
        with pytest.raises(ProtocolError):
            agent.parse({"cols": cols})  # not convertible to a float array
    with pytest.raises(ProtocolError):
        agent.parse({"cols": np.array([[0.0, 1.0, 1.0]]), "halted": np.ones(2)})
    assert agent.basis is before


def test_parse_replaces_artificial_cost_with_big_m():
    agent = DistributedSimplexAgent(0, np.ones((2, 2)), 2)
    cols, _ = agent.parse({"cols": np.array([[-1.0, 2.0, np.nan]])})
    assert np.array_equal(cols, [[-1.0, 2.0, DEFAULT_BIG_M]])


def test_parse_rejects_non_finite_real_cost():
    agent = DistributedSimplexAgent(0, np.ones((2, 2)), 2)
    for cost in (np.nan, np.inf):
        with pytest.raises(ProtocolError):
            agent.parse({"cols": np.array([[0.0, 1.0, 3.0], [1.0, 0.0, cost]])})


def test_parse_reads_any_negative_robot_as_artificial():
    agent = DistributedSimplexAgent(0, np.ones((2, 2)), 2)
    cols, _ = agent.parse({"cols": np.array([[-3.0, 1.0, 5.0]])})
    assert np.array_equal(cols, [[-1.0, 1.0, DEFAULT_BIG_M]])


def test_parse_rounds_indices_half_to_even():
    agent = DistributedSimplexAgent(0, np.ones((3, 3)), 3)
    cols, _ = agent.parse({"cols": np.array([[0.5, 1.5, 2.0], [1.5, 2.5, 3.0],
                                             [-0.5, 0.4, 4.0]])})
    # 0.5 -> 0, 1.5 -> 2, 2.5 -> 2; -0.5 rounds to 0, a real robot
    assert np.array_equal(cols, [[0.0, 2.0, 2.0], [2.0, 2.0, 3.0], [0.0, 0.0, 4.0]])
    assert not np.signbit(cols[:, :2]).any()


def test_parse_leaves_payload_unmodified():
    agent = DistributedSimplexAgent(0, np.ones((3, 3)), 3)
    raw = np.array([[-0.0, -0.0, 2.0], [1.4, 2.4, 3.0], [-2.0, 1.0, np.nan]])
    wire = raw.copy()
    cols, _ = agent.parse({"cols": wire})
    assert np.array_equal(wire, raw, equal_nan=True)
    assert np.array_equal(np.signbit(wire), np.signbit(raw))
    assert np.array_equal(cols, [[0.0, 0.0, 2.0], [1.0, 2.0, 3.0], [-1.0, 1.0, DEFAULT_BIG_M]])
    assert not np.signbit(cols[:, 1]).any() and not np.signbit(cols[:2, 0]).any()


def test_received_bad_column_blocks_round():
    n = 2
    state = initial_basis(n)
    # task out of range; a robot in (-1, 0) is neither artificial nor real
    for row in ([0.0, 7.0, 1.0], [-0.5, 2.0, 1.0]):
        bad = np.array([row])
        with pytest.raises(ProtocolError):
            simplex_round(state, local_columns(0, np.ones((2, 2)), n), bad, n)
        agent = DistributedSimplexAgent(0, np.ones((2, 2)), n)
        before = agent.basis
        with pytest.raises(ProtocolError):
            agent.absorb(bad)
        assert agent.basis is before and agent.rounds == 0


def test_payload_round_trips_through_codec():
    agent = DistributedSimplexAgent(1, np.arange(4.0).reshape(2, 2), 2)
    wire = codec.decode(codec.encode(agent.payload()))
    cols, halted = agent.parse(wire)
    assert halted is False
    assert np.array_equal(cols, agent.basis.columns)


def test_big_m_guard():
    costs = np.full((2, 2), 5e5)
    with pytest.raises(ProtocolError):
        DistributedSimplexAgent(0, costs, 2)


def test_result_requires_real_basis():
    agent = DistributedSimplexAgent(0, np.ones((3, 3)), 3)
    with pytest.raises(NonConvergenceError):
        agent.result()


def test_basis_support_is_the_assignment():
    """The basis tree's flow-1 arcs, its support, are the permutation the
    agent reports, and the reported objective is their cost."""
    rng = np.random.default_rng(3)
    n = 3
    costs = rng.random((n, n))
    agents = [DistributedSimplexAgent(i, costs, n) for i in range(n)]
    lockstep_rounds(agents, complete_graph(n), 8)
    _, perm, objective = agents[0].result()
    tree = agents[0].basis._tree
    support = sorted(divmod(k, n) for k, f in zip(tree.key, tree.flow) if f)
    assert support == [(i, perm[i]) for i in range(n)]
    assert objective == assignment_cost(perm, costs)
    # the other n - 1 basic arcs carry nothing
    assert sum(tree.flow) == n and len(agents[0].basis.columns) == 2 * n - 1


# -- convergence ------------------------------------------------------------------


def test_path_graph_hand_example():
    """Diagonal-zero costs on a 3-path settle on the identity within
    n * diameter synchronous rounds."""
    costs = np.array([[0.0, 5.0, 5.0], [5.0, 0.0, 5.0], [5.0, 5.0, 0.0]])
    graph = graph_from_edges(3, [(0, 1), (1, 2)])
    agents = [DistributedSimplexAgent(i, costs, 3) for i in range(3)]
    lockstep_rounds(agents, graph, 6)
    for i, agent in enumerate(agents):
        own, perm, obj = agent.result()
        assert perm == (0, 1, 2)
        assert own == i
        assert obj == pytest.approx(0.0, abs=1e-12)


def test_network_solver_matches_reference():
    rng = np.random.default_rng(21)
    for n in (2, 3, 4):
        for trial in range(10):
            costs = rng.random((n, n))
            graph = erdos_renyi(n, 0.7, 300 * n + trial, require_connected=True)
            perm, obj, rounds = solve_assignment_network(costs, graph)
            _, ref = hungarian(AssignmentProblem(n, costs))
            assert assignment_cost(perm, costs) == ref
            assert obj == pytest.approx(ref, abs=1e-9)
            assert rounds <= 50 * n


def test_network_solver_single_agent():
    costs = np.array([[2.5]])
    perm, obj, _ = solve_assignment_network(costs, graph_from_matrix([[0]]))
    assert perm == (0,)
    assert obj == pytest.approx(2.5)


def test_network_solver_budget_exhaustion():
    costs = np.random.default_rng(0).random((3, 3))
    with pytest.raises(NonConvergenceError):
        solve_assignment_network(costs, complete_graph(3), round_budget=1)


def test_lockstep_round_skips_malformed_payloads():
    costs = np.array([[1.0, 2.0], [2.0, 1.0]])
    graph = complete_graph(3)  # node 2 is a rogue sender, not an agent
    bus = MessageBus()
    comms = [Communicator(bus, i, graph) for i in range(3)]
    comms[2].send({"bogus": 1}, [0, 1], round=0)
    agents = [DistributedSimplexAgent(i, costs, 2) for i in range(2)]
    lockstep_round(agents, comms[:2], 0)
    assert [a.rounds for a in agents] == [1, 1]


def test_lockstep_round_survives_deeply_nested_payload():
    """A well-formed blob nesting 5000 lists is skipped like a lost
    message; it does not abort the round."""
    costs = np.array([[1.0, 2.0], [2.0, 1.0]])
    graph = complete_graph(3)  # node 2 is a rogue sender, not an agent
    bus = MessageBus()
    comms = [Communicator(bus, i, graph) for i in range(3)]
    blob = b""
    for _ in range(5000):
        blob = struct.pack("<BI", 8, len(blob)) + blob
    for dst in (0, 1):
        bus.deliver(2, dst, Envelope(0, blob))
    agents = [DistributedSimplexAgent(i, costs, 2) for i in range(2)]
    lockstep_round(agents, comms[:2], 0)
    assert [a.rounds for a in agents] == [1, 1]


def test_lockstep_round_skips_undecodable_payloads(monkeypatch):
    """Bytes that fail to decode are dropped like a lost message, while
    a good payload from the same rogue sender on another link is absorbed."""
    costs = np.array([[1.0, 2.0], [2.0, 1.0]])
    graph = complete_graph(3)  # node 2 is a rogue sender, not an agent
    bus = MessageBus()
    comms = [Communicator(bus, i, graph) for i in range(3)]
    bus.deliver(2, 0, Envelope(0, b"\xff\x00"))
    good = np.array([[0.0, 1.0, 0.5]])
    comms[2].send({"cols": good, "halted": False}, [1], round=0)
    agents = [DistributedSimplexAgent(i, costs, 2) for i in range(2)]
    absorbed = {}
    absorb = DistributedSimplexAgent.absorb

    def recorded(agent, received):
        absorbed[agent.i] = received
        return absorb(agent, received)

    monkeypatch.setattr(DistributedSimplexAgent, "absorb", recorded)
    lockstep_round(agents, comms[:2], 0)
    assert [a.rounds for a in agents] == [1, 1]
    # agent 0 got only agent 1's basis, agent 1 agent 0's basis plus the good column
    assert len(absorbed[0]) == len(absorbed[1]) - 1 == 3
    assert np.array_equal(absorbed[1][-1], good[0])


def test_round_decodes_and_parses_each_payload_once(monkeypatch):
    """Within a lockstep round, each distinct payload is decoded and parsed
    at most once, however many neighbors receive it."""
    n = 12
    costs = np.random.default_rng(5).random((n, n))
    graph = erdos_renyi(n, 0.4, 1205, require_connected=True)
    rounds = []
    decode, parse = codec.decode, DistributedSimplexAgent.parse
    deliver, step = MessageBus.deliver, lockstep_round

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            rounds[-1][name] += 1
            return fn(*args, **kwargs)
        return wrapper

    def delivered(bus, src, dst, env, deliver_at=None):
        rounds[-1]["payloads"].add(env.payload)
        rounds[-1]["deliveries"] += 1
        return deliver(bus, src, dst, env, deliver_at)

    def round_(*args):
        rounds.append({"decode": 0, "parse": 0, "deliveries": 0, "payloads": set()})
        return step(*args)

    monkeypatch.setattr("fleetsim.codec.decode", counted("decode", decode))
    monkeypatch.setattr(DistributedSimplexAgent, "parse", counted("parse", parse))
    monkeypatch.setattr(MessageBus, "deliver", delivered)
    monkeypatch.setattr("fleetsim.assignment.lockstep_round", round_)
    solve_assignment_network(costs, graph)
    assert rounds
    for r in rounds:
        assert r["decode"] <= len(r["payloads"])
        assert r["parse"] <= len(r["payloads"])
    assert sum(r["decode"] for r in rounds) < sum(r["deliveries"] for r in rounds) / 2


def test_solve_decodes_each_payload_once_and_keeps_only_live_parses(monkeypatch):
    """Over a whole lossy solve, each payload is decoded once however many
    rounds re-send it, and after each round the solve holds at most one
    parse per agent."""
    n = 12
    costs = np.random.default_rng(5).random((n, n))
    graph = erdos_renyi(n, 0.4, 1205, require_connected=True)
    decoded, kept = [], []
    decode, step = codec.decode, lockstep_round

    def recorded(data):
        decoded.append(data)
        return decode(data)

    def round_(agents, comms, rnd, parsed):
        step(agents, comms, rnd, parsed)
        kept.append(len(parsed))

    monkeypatch.setattr("fleetsim.codec.decode", recorded)
    monkeypatch.setattr("fleetsim.assignment.lockstep_round", round_)
    _, _, rounds = solve_assignment_network(
        costs, graph, profile="best_effort",
        transport=TransportConfig(drop_prob=0.3, rng_seed=1))
    assert len(kept) == rounds and max(kept) <= n
    assert len(decoded) == len(set(decoded)) < rounds * n / 2


def _drain_problem():
    """The first drain-shaped problem of the assign_solve benchmark: G(12,
    0.4) with only the first ``live`` task columns real, the rest zero."""
    rng = np.random.default_rng([297, 0])
    live = int(rng.integers(1, 12))
    graph = erdos_renyi(12, 0.4, int(rng.integers(0, 2**31 - 1)), require_connected=True)
    robots = rng.uniform(0.0, 2.0, size=(12, 2))
    tasks = rng.uniform(0.0, 2.0, size=(live, 2))
    costs = np.zeros((12, 12))
    costs[:, :live] = costs_from_positions(robots, tasks)
    return costs, graph


def _network_objects():
    return [o for o in gc.get_objects() if isinstance(o, (DistributedSimplexAgent, MessageBus))]


@pytest.mark.parametrize("path", ["mismatch", "budget"])
def test_held_non_convergence_error_keeps_no_network_alive(path, monkeypatch):
    """A held NonConvergenceError keeps no agent and no bus alive, while
    its traceback still names the raise site."""
    costs, graph = _drain_problem()
    kwargs = {"round_budget": 2} if path == "budget" else {}
    if path == "mismatch":
        # the drain problem agrees, so agent 1 reports another permutation
        # to make ``agreed_result`` raise
        result = DistributedSimplexAgent.result

        def split(agent):
            _, perm, objective = result(agent)
            if agent.i == 1:
                perm = (perm[1], perm[0]) + perm[2:]
            return perm[agent.i], perm, objective

        monkeypatch.setattr(DistributedSimplexAgent, "result", split)
    gc.collect()
    before = _network_objects()  # held, so no id of theirs is reused
    with pytest.raises(NonConvergenceError) as info:
        solve_assignment_network(costs, graph, **kwargs)
    err = info.value
    gc.collect()
    assert not [o for o in _network_objects() if not any(o is b for b in before)]
    text = "".join(traceback.format_exception(err))
    assert "assignment.py" in text and "raise NonConvergenceError(" in text
    if path == "mismatch":
        assert "in agreed_result" in text
        perms = err.diagnostics["perms"]
        assert len(perms) > 1
        assert all(sorted(p) == list(range(12)) for p in perms)
    else:
        assert "no convergence in 2 rounds" in text
        assert len(err.diagnostics["objectives"]) == 12


def test_agreed_result_returns_the_shared_result():
    triple = (0, (0, 2, 1), 3.5)
    agents = [SimpleNamespace(result=lambda: triple) for _ in range(3)]
    assert agreed_result(agents) == triple


def test_agreed_result_lists_both_permutations_on_mismatch():
    agents = [
        SimpleNamespace(result=lambda: (0, (0, 1), 1.0)),
        SimpleNamespace(result=lambda: (0, (1, 0), 1.0)),
    ]
    with pytest.raises(NonConvergenceError) as info:
        agreed_result(agents)
    assert info.value.diagnostics["perms"] == [(0, 1), (1, 0)]


def test_network_solver_with_drops():
    """Lossy best-effort links still reach the exact optimum."""
    rng = np.random.default_rng(17)
    costs = rng.random((4, 4))
    graph = erdos_renyi(4, 0.5, 901, require_connected=True)
    perm, obj, _ = solve_assignment_network(
        costs,
        graph,
        profile="best_effort",
        transport=TransportConfig(drop_prob=0.3, rng_seed=5),
    )
    _, ref = hungarian(AssignmentProblem(4, costs))
    assert assignment_cost(perm, costs) == ref


def test_threaded_protocol_run():
    rng = np.random.default_rng(29)
    n = 3
    costs = rng.random((n, n))
    graph = complete_graph(n)
    bus = MessageBus()
    comms = [Communicator(bus, i, graph) for i in range(n)]
    results = {}
    errors = []

    def worker(i):
        try:
            results[i] = run_distributed_simplex(comms[i], i, costs, n)
        except Exception as exc:  # pragma: no cover
            errors.append((i, exc))

    threads = [threading.Thread(target=worker, args=(i,)) for i in range(n)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=60.0)
    assert not errors and len(results) == n
    _, ref = hungarian(AssignmentProblem(n, costs))
    perms = {results[i][1] for i in range(n)}
    assert len(perms) == 1
    perm = perms.pop()
    assert assignment_cost(perm, costs) == ref
    for i in range(n):
        assert results[i][0] == perm[i]


# -- price before solving ---------------------------------------------------------


def _price_costs(kind, n, rng):
    if kind == "continuous":
        return rng.random((n, n))
    if kind == "tied":
        return rng.integers(0, 3, size=(n, n)).astype(float)
    costs = np.zeros((n, n))  # drain-shaped: only the first tasks are live
    live = n // 2
    costs[:, :live] = rng.random((n, live))
    return costs


@pytest.mark.parametrize("profile", ["static", "best_effort"])
@pytest.mark.parametrize("n", [4, 8, 12])
@pytest.mark.parametrize("kind", ["continuous", "tied", "zero_padded"])
def test_absorb_matches_simplex_round(kind, n, profile, monkeypatch):
    """Every absorb, skipped or solved, ends on the basis a full
    simplex_round from the same state reaches."""
    rng = np.random.default_rng([n, len(kind), len(profile)])
    costs = _price_costs(kind, n, rng)
    graph = erdos_renyi(n, 0.4, 40 * n + len(kind), require_connected=True)
    tc = TransportConfig(drop_prob=0.3 if profile == "best_effort" else 0.0, rng_seed=n)
    bus = MessageBus()
    comms = [Communicator(bus, i, graph, profile=profile, config=tc) for i in range(n)]
    agents = [DistributedSimplexAgent(i, costs, n, margin=default_margin(graph, tc.drop_prob))
              for i in range(n)]
    absorb = DistributedSimplexAgent.absorb
    seen = {"absorbs": 0, "solves": 0}

    def checked(agent, received):
        want = simplex_round(agent.basis, agent.own, received, n)
        changed = absorb(agent, received)
        seen["absorbs"] += 1
        assert np.array_equal(agent.basis.columns, want.columns)
        return changed

    def counted(*args, **kwargs):
        seen["solves"] += 1
        return simplex_round(*args, **kwargs)

    monkeypatch.setattr(DistributedSimplexAgent, "absorb", checked)
    monkeypatch.setattr("fleetsim.assignment.simplex_round", counted)
    for rnd in range(50 * n):
        lockstep_round(agents, comms, rnd)
        if all(a.halted for a in agents):
            break
    assert 0 < seen["solves"] < seen["absorbs"]


def test_price_before_solve_counts(monkeypatch):
    """On a fixed n = 12 instance fewer than half the rounds solve, and
    absorb still runs once per agent per round."""
    n = 12
    costs = np.random.default_rng(5).random((n, n))
    graph = erdos_renyi(n, 0.4, 1205, require_connected=True)
    calls = {"absorb": 0, "simplex_round": 0}
    absorb = DistributedSimplexAgent.absorb

    def counted_absorb(agent, received):
        calls["absorb"] += 1
        return absorb(agent, received)

    def counted_round(*args, **kwargs):
        calls["simplex_round"] += 1
        return simplex_round(*args, **kwargs)

    monkeypatch.setattr(DistributedSimplexAgent, "absorb", counted_absorb)
    monkeypatch.setattr("fleetsim.assignment.simplex_round", counted_round)
    _, _, rounds = solve_assignment_network(costs, graph)
    assert calls["absorb"] == rounds * n
    # solving every round would take one call per absorb plus one per agent init
    assert calls["simplex_round"] < calls["absorb"] / 2 + n


# -- rounds that pay only for what changed ------------------------------------------


@pytest.mark.parametrize("profile", ["static", "best_effort"])
@pytest.mark.parametrize("n", [4, 8, 12])
@pytest.mark.parametrize("kind", ["continuous", "tied", "zero_padded"])
def test_own_artificial_and_remembered_columns_never_enter(kind, n, profile, monkeypatch):
    """After every absorb, no own or artificial column enters the basis
    tree, so a round prices only what it received; and no column of a
    payload the agent remembers as priced enters either, so a round prices
    only the payloads it has not priced against this tree."""
    costs = _price_costs(kind, n, np.random.default_rng([n, len(kind), 7]))
    graph = erdos_renyi(n, 0.4, 90 + n + len(kind), require_connected=True)
    tc = TransportConfig(drop_prob=0.3 if profile == "best_effort" else 0.0, rng_seed=5)
    absorb = DistributedSimplexAgent.absorb
    checked = []

    def probed(agent, received):
        changed = absorb(agent, received)
        local = np.concatenate((agent.own, artificial_columns(n)))
        assert not agent._enters(assignment._Arcs(local, n))
        for data in agent._priced.values():
            cols, _ = agent.parse(codec.decode(data))
            assert not agent._enters(assignment._Arcs(cols, n))
        checked.append(changed)
        return changed

    monkeypatch.setattr(DistributedSimplexAgent, "absorb", probed)
    solve_assignment_network(costs, graph, profile=profile, transport=tc)
    assert any(checked) and not all(checked)


@pytest.mark.parametrize("profile", ["static", "best_effort"])
@pytest.mark.parametrize("n", [4, 8, 12])
@pytest.mark.parametrize("kind", ["continuous", "tied", "zero_padded"])
def test_rounds_match_the_memory_free_reference(kind, n, profile, monkeypatch):
    """After every round of ``solve_assignment_network``, each agent holds
    the basis columns, halt flag and round count of a reference round that
    encodes every payload and prices every column (``oracles``)."""
    rng = np.random.default_rng([n, len(kind), len(profile), 22])
    costs = _price_costs(kind, n, rng)
    graph = erdos_renyi(n, 0.4, 60 * n + len(kind), require_connected=True)
    tc = TransportConfig(drop_prob=0.3 if profile == "best_effort" else 0.0, rng_seed=n)
    seen = []
    step = lockstep_round

    def recorded(agents, *args):
        step(agents, *args)
        seen.append([(a.basis.columns.tobytes(), a.halted, a.rounds) for a in agents])

    monkeypatch.setattr("fleetsim.assignment.lockstep_round", recorded)
    _, _, rounds = solve_assignment_network(costs, graph, profile=profile, transport=tc)
    assert len(seen) == rounds
    bus = MessageBus()
    comms = [Communicator(bus, i, graph, profile=profile, config=tc) for i in range(n)]
    margin = default_margin(graph, tc.drop_prob)
    reference = [DistributedSimplexAgent(i, costs, n, margin=margin) for i in range(n)]
    for rnd, states in enumerate(seen):
        reference_round(reference, comms, rnd)
        assert [(a.basis.columns.tobytes(), a.halted, a.rounds) for a in reference] == states


def test_halt_flag_flip_forces_a_fresh_encode(monkeypatch):
    """An agent re-sends its last bytes while its basis and halt flag stay
    put, and encodes afresh when only the flag flips; its neighbor reads
    the new flag and prices the new bytes."""
    costs = np.array([[1.0, 2.0], [2.0, 1.0]])
    bus = MessageBus()
    comms = [Communicator(bus, i, complete_graph(2)) for i in range(2)]
    agents = [DistributedSimplexAgent(i, costs, 2, margin=3) for i in range(2)]
    encodes = []
    encode = codec.encode

    def counted(value):
        encodes.append(value)
        return encode(value)

    monkeypatch.setattr("fleetsim.codec.encode", counted)
    rnd = 0
    while not agents[0].halted:
        wire, basis = agents[0].encoded_payload(), agents[0].basis
        lockstep_round(agents, comms, rnd)
        rnd += 1
        if agents[0].basis is basis and not agents[0].halted:
            assert agents[0].encoded_payload() is wire
    assert agents[0].basis is basis
    count = len(encodes)
    fresh = agents[0].encoded_payload()
    assert len(encodes) == count + 1 and fresh != wire
    before, after = codec.decode(wire), codec.decode(fresh)
    assert not before["halted"] and after["halted"]
    assert np.array_equal(before["cols"], after["cols"])
    flags = {}
    gather = assignment._gather

    def read(agent, comm, parsed):
        received, flags[agent.i] = gather(agent, comm, parsed)
        return received, flags[agent.i]

    monkeypatch.setattr(assignment, "_gather", read)
    lockstep_round(agents, comms, rnd)
    assert flags[1] == {0: True} and agents[1]._priced[0] == fresh


def test_cached_payload_keeps_no_replaced_basis_alive():
    """The cached payload holds its basis weakly: once a round replaces
    the basis, the old one is freed, and the next payload is encoded
    afresh."""
    agent = DistributedSimplexAgent(0, np.array([[1.0, 2.0], [2.0, 1.0]]), 2)
    wire = agent.encoded_payload()
    old = weakref.ref(agent.basis)
    assert agent.absorb(np.array([[1.0, 1.0, 1.0]]))
    gc.collect()
    assert old() is None
    assert agent.encoded_payload() != wire


# -- ties and the lexicographic rule -------------------------------------------------


def _tied_costs(n, seed):
    return np.random.default_rng([n, seed]).integers(0, 3, size=(n, n)).astype(float)


@pytest.mark.parametrize("profile", ["static", "best_effort"])
@pytest.mark.parametrize("n", [4, 8, 12, 16])
def test_tied_costs_agree_at_the_optimum(n, profile, monkeypatch):
    """Integer costs in {0, 1, 2} tie all over; every agent still ends on
    one permutation, at the Hungarian cost."""
    costs = _tied_costs(n, 0)
    graph = erdos_renyi(n, 0.4, 70 * n, require_connected=True)
    tc = TransportConfig(drop_prob=0.3 if profile == "best_effort" else 0.0, rng_seed=n)
    halted = []
    agreed = agreed_result

    def recorded(agents):
        halted.extend(agents)
        return agreed(agents)

    monkeypatch.setattr("fleetsim.assignment.agreed_result", recorded)
    perm, objective, _ = solve_assignment_network(costs, graph, profile=profile, transport=tc)
    assert len(halted) == n
    assert {agent.result()[1] for agent in halted} == {perm}
    _, ref = hungarian(AssignmentProblem(n, costs))
    assert assignment_cost(perm, costs) == objective == ref


def test_threaded_protocol_agrees_on_tied_costs():
    n = 8
    costs = _tied_costs(n, 1)
    graph = erdos_renyi(n, 0.5, 808, require_connected=True)
    bus = MessageBus()
    comms = [Communicator(bus, i, graph) for i in range(n)]
    results = {}
    errors = []

    def worker(i):
        try:
            results[i] = run_distributed_simplex(comms[i], i, costs, n)
        except Exception as exc:  # pragma: no cover
            errors.append((i, exc))

    threads = [threading.Thread(target=worker, args=(i,)) for i in range(n)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=120.0)
    assert not errors and len(results) == n
    perms = {results[i][1] for i in range(n)}
    assert len(perms) == 1
    perm = perms.pop()
    _, ref = hungarian(AssignmentProblem(n, costs))
    assert assignment_cost(perm, costs) == ref
    assert all(results[i][0] == perm[i] and results[i][2] == ref for i in range(n))


@pytest.mark.parametrize("kind", ["continuous", "tied", "zero_padded"])
@pytest.mark.parametrize("n", [4, 8, 12])
def test_round_basis_depends_only_on_its_pool(kind, n):
    """Different start trees and shuffled received columns over one pool
    end on the same basis, the optimal one."""
    rng = np.random.default_rng([n, len(kind)])
    costs = _price_costs(kind, n, rng)
    every = np.concatenate([local_columns(i, costs, n) for i in range(n)])
    own = local_columns(0, costs, n)
    starts = [initial_basis(n)]
    for i in range(n):
        subset = every[rng.random(len(every)) < 0.3]
        starts.append(simplex_round(initial_basis(n), local_columns(i, costs, n), subset, n))
    assert len({s.columns.tobytes() for s in starts}) > 2
    finals = set()
    for start in starts:
        received = every[rng.permutation(len(every))]
        final = simplex_round(start, own, received, n)
        finals.add(final.columns.tobytes())
    assert len(finals) == 1
    _, ref = hungarian(AssignmentProblem(n, costs))
    assert assignment_cost(final.permutation(), costs) == ref


def _check_tree(tree, n):
    """Flows in {0, 1} that conserve every node's supply, zero flow only on
    arcs toward the root, every arc priced to zero, and potentials bit for
    bit those of a full recompute from the root."""
    root = 2 * n - 1
    weight = assignment._weights(n)
    net = [0] * (2 * n)
    for v in range(root):
        parent, key, flow = tree.parent[v], tree.key[v], tree.flow[v]
        assert flow in (0, 1)
        assert flow or tree.up[v]
        tail, head = (v, parent) if tree.up[v] else (parent, v)
        net[tail] += flow
        net[head] -= flow
        cost = DEFAULT_BIG_M if key >= n * n else tree.cost[v]
        assert abs(cost - tree.price[tail] + tree.price[head]) <= 1e-9
        assert weight[key] - tree.lex[tail] + tree.lex[head] == 0
    assert net == [1] * n + [-1] * n
    fresh = tree.copy()
    for child in fresh.children[root]:
        fresh.hang(child)
    for name in ("depth", "big", "lex"):
        assert getattr(fresh, name) == getattr(tree, name)
    for name in ("pot", "price"):
        assert np.array(getattr(fresh, name)).tobytes() == np.array(getattr(tree, name)).tobytes()


@pytest.mark.parametrize("profile", ["static", "best_effort"])
def test_every_pivot_keeps_the_tree_strongly_feasible(profile, monkeypatch):
    n = 8
    costs = _tied_costs(n, 2)
    graph = erdos_renyi(n, 0.4, 880, require_connected=True)
    tc = TransportConfig(drop_prob=0.3 if profile == "best_effort" else 0.0, rng_seed=3)
    pivot = assignment._pivot
    pivots = []

    def checked(tree, *args):
        leaving = pivot(tree, *args)
        _check_tree(tree, n)
        pivots.append(leaving)
        return leaving

    monkeypatch.setattr(assignment, "_pivot", checked)
    perm, _, _ = solve_assignment_network(costs, graph, profile=profile, transport=tc)
    assert len(pivots) > 10 * n
    _, ref = hungarian(AssignmentProblem(n, costs))
    assert assignment_cost(perm, costs) == ref


# -- halting margin ----------------------------------------------------------------


def test_default_margin_values():
    assert default_margin(complete_graph(4)) == 4
    path5 = graph_from_edges(5, [(i, i + 1) for i in range(4)])
    assert default_margin(path5) == 8
    assert default_margin(graph_from_matrix([[0]])) == 4
    assert default_margin(complete_graph(4), drop_prob=0.3) == 4 + 18
    assert default_margin(complete_graph(4), drop_prob=0.5) == 4 + 30


@pytest.mark.filterwarnings("error")
def test_margin_refuses_links_that_drop_everything():
    """At drop_prob 1 no message arrives, so no halting margin exists; both
    entry points say so instead of overflowing on log(1) = 0."""
    with pytest.raises(ValueError, match="drop_prob"):
        default_margin(complete_graph(3), 1.0)
    with pytest.raises(ValueError, match="drop_prob"):
        solve_assignment_network(np.eye(3), complete_graph(3), profile="best_effort",
                                 transport=TransportConfig(drop_prob=1.0))



@pytest.mark.parametrize("latency", [0.01])
def test_network_solver_rejects_latency(latency):
    """The lockstep driver never advances its bus clock, so a delayed
    message would never arrive; it says so instead of running out of rounds."""
    with pytest.raises(ValueError, match="latency"):
        solve_assignment_network(np.eye(3), complete_graph(3),
                                 transport=TransportConfig(latency=latency))


@pytest.mark.parametrize("budget", [0, -5])
def test_network_solver_rejects_a_budget_below_one_round(budget):
    """A budget that runs no round is refused before any round, as
    latency is."""
    with pytest.raises(ValueError, match="round budget"):
        solve_assignment_network(np.eye(3), complete_graph(3), round_budget=budget)


def test_lockstep_solve_steps_to_its_budget():
    """Each round below the budget returns None; the round that spends
    it raises with the rounds run and each agent's objective and flag."""
    costs = np.random.default_rng(0).random((3, 3))
    bus = MessageBus()
    comms = [Communicator(bus, i, complete_graph(3)) for i in range(3)]
    solve = LockstepSolve(costs, 4, 2)
    assert solve.round(comms, 0) is None
    with pytest.raises(NonConvergenceError, match="no convergence in 2 rounds") as info:
        solve.round(comms, 1)
    diagnostics = info.value.diagnostics
    assert diagnostics["rounds"] == solve.rounds == 2
    assert diagnostics["halted"] == [False] * 3
    assert diagnostics["objectives"] == [a.basis.objective for a in solve.agents]


def test_threaded_protocol_budget_error_carries_diagnostics():
    """Agent 1 never runs, so agent 0 never hears it halt and gives up
    after 50 n = 100 paced rounds, about 0.1 s."""
    costs = np.array([[1.0, 2.0], [2.0, 1.0]])
    bus = MessageBus()
    comms = [Communicator(bus, i, complete_graph(2)) for i in range(2)]
    started = time.monotonic()
    with pytest.raises(NonConvergenceError, match="agent 0: no convergence in 100 rounds") as info:
        run_distributed_simplex(comms[0], 0, costs, 2)
    assert time.monotonic() - started < 30.0
    diagnostics = info.value.diagnostics
    assert diagnostics["agent"] == 0 and diagnostics["rounds"] == 100
    # robot 1's unit still rides on an artificial column
    assert DEFAULT_BIG_M < diagnostics["objective"] < math.inf


# -- task cloud -----------------------------------------------------------------


def make_cloud(n_live, n_hidden):
    revealed = [Task(k, np.array([float(k), 0.0])) for k in range(n_live)]
    hidden = [
        Task(n_live + k, np.array([0.0, float(k)]), state="hidden")
        for k in range(n_hidden)
    ]
    return CloudState(revealed=revealed, hidden=hidden)


def test_cloud_one_in_one_out():
    cloud = make_cloud(3, 2)
    assert sum(t.state != assignment.COMPLETED for t in cloud.revealed) == 3
    fresh = cloud_complete(cloud, 1)
    assert fresh is not None and fresh.task_id == 3
    assert sum(t.state != assignment.COMPLETED for t in cloud.revealed) == 3  # replacement keeps the count
    assert cloud.completed == [1]
    fresh = cloud_complete(cloud, 0)
    assert fresh.task_id == 4
    # backlog empty now: completions shrink the live set
    assert cloud_complete(cloud, 2) is None
    assert sum(t.state != assignment.COMPLETED for t in cloud.revealed) == 2


def test_cloud_reveal_order_is_fifo():
    cloud = make_cloud(2, 3)
    ids = [cloud_complete(cloud, k).task_id for k in (0, 1)]
    assert ids == [2, 3]


def test_cloud_error_paths():
    cloud = make_cloud(2, 0)
    with pytest.raises(CloudError):
        cloud_complete(cloud, 99)
    cloud_complete(cloud, 0)
    with pytest.raises(CloudError):
        cloud_complete(cloud, 0)  # double completion


def test_cloud_drains_completely():
    cloud = make_cloud(2, 2)
    order = [0, 1, 2, 3]
    for tid in order:
        cloud_complete(cloud, tid)
    assert cloud.completed == order
    assert all(t.state == assignment.COMPLETED for t in cloud.revealed)
    assert not cloud.hidden
