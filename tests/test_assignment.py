"""Distributed assignment protocol tests.

Exercises the column-exchange simplex agents both as pure state machines
(lockstep, hand-driven rounds) and end-to-end over live communicators,
plus the task-cloud bookkeeping.
"""

import threading
from types import SimpleNamespace

import numpy as np
import pytest

from fleetsim import codec
from fleetsim.assignment import (
    DEFAULT_BIG_M,
    CloudState,
    DistributedSimplexAgent,
    SimplexColumn,
    Task,
    agreed_result,
    artificial_columns,
    basis_support,
    cloud_complete,
    costs_from_positions,
    default_margin,
    initial_basis,
    local_columns,
    lockstep_round,
    perturbed_rhs,
    run_distributed_simplex,
    simplex_round,
    solve_assignment_network,
)
from fleetsim.communicator import Communicator
from fleetsim.errors import CloudError, NonConvergenceError, ProtocolError
from fleetsim.lp import AssignmentProblem, assignment_column, assignment_cost, hungarian
from fleetsim.netgraph import erdos_renyi, graph_from_edges, graph_from_matrix
from fleetsim.transport import MessageBus, TransportConfig


def complete_graph(n):
    return graph_from_matrix(1 - np.eye(n, dtype=int))


def lockstep_rounds(agents, graph, rounds):
    """Drive hand-rolled synchronous rounds without a bus."""
    n = len(agents)
    for _ in range(rounds):
        payloads = [a.payload() for a in agents]
        for i, agent in enumerate(agents):
            received = []
            for j in range(n):
                if graph.adjacency[j, i]:
                    cols, _ = agent.parse(payloads[j])
                    received.extend(cols)
            agent.absorb(received)


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
        assert len(cols) == n
        for k, col in enumerate(cols):
            assert col.robot == i and col.task == k
            assert not col.artificial
            # cost carries the lexicographic tie-break bump for column i*n+k
            delta = 1e-7 * 0.5 ** (i * n + k)
            assert col.cost == pytest.approx(costs[i, k] + delta, abs=1e-18)


def test_column_vectors_match_lp_columns():
    n = 3
    col = SimplexColumn(1, 2, 0.5)
    assert np.array_equal(col.vector(n), assignment_column(1, 2, n))
    art = SimplexColumn(-1, 3, DEFAULT_BIG_M)
    assert art.artificial
    want = np.zeros(2 * n - 1)
    want[3] = 1.0
    assert np.array_equal(art.vector(n), want)


def test_artificial_columns():
    n = 3
    arts = artificial_columns(n)
    assert len(arts) == 2 * n - 1
    for r, col in enumerate(arts):
        assert col.artificial and col.task == r and col.cost == DEFAULT_BIG_M


def test_initial_basis():
    n = 3
    basis = initial_basis(n)
    assert len(basis.columns) == 2 * n - 1
    assert basis.permutation(n) is None
    assert basis.objective == pytest.approx(DEFAULT_BIG_M * perturbed_rhs(n).sum())


def test_perturbed_rhs_properties():
    for n in (2, 4, 6):
        rhs = perturbed_rhs(n)
        assert rhs.shape == (2 * n - 1,)
        assert np.all(rhs > 1.0)
        assert np.all(np.diff(rhs) < 0)  # strictly decreasing bumps
        assert rhs[0] == pytest.approx(1.0 + 1e-5 * 0.5)
        # the smallest bump still clears the pivot tolerance
        assert rhs[-1] - 1.0 > 1e-9
    # identical across agents by construction: pure function of n
    assert np.array_equal(perturbed_rhs(5), perturbed_rhs(5))


def test_simplex_round_converges_then_fixed_point():
    rng = np.random.default_rng(7)
    n = 3
    costs = rng.random((n, n))
    state = initial_basis(n)
    own = local_columns(0, costs, n)
    all_cols = [c for i in range(n) for c in local_columns(i, costs, n)]
    state = simplex_round(state, own, all_cols, n)
    settled = simplex_round(state, own, all_cols, n)
    assert settled.columns == state.columns
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
            received = []
            for j in range(n):
                if graph.adjacency[j, i]:
                    cols, _ = agent.parse(payloads[j])
                    received.extend(cols)
            agent.absorb(received)
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
    assert agent.basis is before


def test_received_bad_column_blocks_round():
    n = 2
    state = initial_basis(n)
    bad = [SimplexColumn(0, 7, 1.0)]
    with pytest.raises(ProtocolError):
        simplex_round(state, local_columns(0, np.ones((2, 2)), n), bad, n)


def test_payload_round_trips_through_codec():
    agent = DistributedSimplexAgent(1, np.arange(4.0).reshape(2, 2), 2)
    wire = codec.decode(codec.encode(agent.payload()))
    cols, halted = agent.parse(wire)
    assert halted is False
    assert tuple(cols) == agent.basis.columns


def test_big_m_guard():
    costs = np.full((2, 2), 5e5)
    with pytest.raises(ProtocolError):
        DistributedSimplexAgent(0, costs, 2)


def test_result_requires_real_basis():
    agent = DistributedSimplexAgent(0, np.ones((3, 3)), 3)
    with pytest.raises(NonConvergenceError):
        agent.result()


def test_basis_support_is_the_assignment():
    rng = np.random.default_rng(3)
    n = 3
    costs = rng.random((n, n))
    agents = [DistributedSimplexAgent(i, costs, n) for i in range(n)]
    lockstep_rounds(agents, complete_graph(n), 8)
    _, perm, _ = agents[0].result()
    support = basis_support(agents[0].basis, n)
    assert len(support) == n
    assert sorted((c.robot, c.task) for c in support) == [
        (i, perm[i]) for i in range(n)
    ]


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
            results[i] = run_distributed_simplex(comms[i], i, costs, n, graph)
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


# -- halting margin ----------------------------------------------------------------


def test_default_margin_values():
    assert default_margin(complete_graph(4)) == 4
    path5 = graph_from_edges(5, [(i, i + 1) for i in range(4)])
    assert default_margin(path5) == 8
    assert default_margin(graph_from_matrix([[0]])) == 4
    assert default_margin(complete_graph(4), drop_prob=0.3) == 4 + 18
    assert default_margin(complete_graph(4), drop_prob=0.5) == 4 + 30


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
    assert len(cloud.live_tasks()) == 3
    fresh = cloud_complete(cloud, 1)
    assert fresh is not None and fresh.task_id == 3
    assert len(cloud.live_tasks()) == 3  # replacement keeps the count
    assert cloud.completed == [1]
    fresh = cloud_complete(cloud, 0)
    assert fresh.task_id == 4
    # backlog empty now: completions shrink the live set
    assert cloud_complete(cloud, 2) is None
    assert len(cloud.live_tasks()) == 2


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
    assert not cloud.live_tasks()
    assert not cloud.hidden
