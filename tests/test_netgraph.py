"""Tests for communication graph construction, sampling, and queries."""

import numpy as np
import pytest

from fleetsim.errors import GraphError, InvalidAgentError
from fleetsim.netgraph import (
    CommGraph,
    EdgeSchedule,
    diameter_bound,
    erdos_renyi,
    graph_from_edges,
    graph_from_matrix,
    is_connected,
    neighbor_sets,
    sample_active,
)


def ring(n):
    return graph_from_edges(n, [(i, (i + 1) % n) for i in range(n)])


def test_commgraph_rejects_empty():
    with pytest.raises(GraphError):
        CommGraph(0, np.zeros((0, 0)))


def test_commgraph_rejects_shape_mismatch():
    with pytest.raises(GraphError):
        CommGraph(3, np.zeros((2, 2)))


def test_commgraph_rejects_non_binary_entries():
    adj = np.zeros((2, 2))
    adj[0, 1] = 0.5
    with pytest.raises(GraphError):
        CommGraph(2, adj)


def test_commgraph_rejects_self_loops():
    adj = np.eye(3)
    with pytest.raises(GraphError):
        CommGraph(3, adj)


def test_commgraph_adjacency_is_frozen():
    g = ring(4)
    with pytest.raises(ValueError):
        g.adjacency[0, 1] = 0


def test_symmetric_property():
    assert ring(4).symmetric
    directed = graph_from_edges(3, [(0, 1), (1, 2)], undirected=False)
    assert not directed.symmetric


def test_neighbor_sets_undirected_in_equals_out():
    """On an undirected graph every agent sees the same set both ways."""
    rng = np.random.default_rng(3)
    for _ in range(20):
        g = erdos_renyi(8, float(rng.uniform(0.2, 0.9)), int(rng.integers(1 << 20)))
        for i in range(g.n):
            in_n, out_n = neighbor_sets(g, i)
            assert in_n == out_n
            assert i not in in_n


def test_neighbor_sets_directed():
    g = graph_from_edges(3, [(0, 1), (2, 1)], undirected=False)
    in_n, out_n = neighbor_sets(g, 1)
    assert in_n == [0, 2]
    assert out_n == []


def test_neighbor_sets_bad_index():
    g = ring(4)
    with pytest.raises(InvalidAgentError):
        neighbor_sets(g, 4)
    with pytest.raises(InvalidAgentError):
        neighbor_sets(g, -1)


def test_erdos_renyi_rejects_bad_probability():
    with pytest.raises(GraphError):
        erdos_renyi(5, -0.1, 0)
    with pytest.raises(GraphError):
        erdos_renyi(5, 1.5, 0)


def test_erdos_renyi_rejects_bad_n():
    with pytest.raises(GraphError):
        erdos_renyi(0, 0.5, 0)


def test_erdos_renyi_deterministic():
    a = erdos_renyi(12, 0.4, 99)
    b = erdos_renyi(12, 0.4, 99)
    assert np.array_equal(a.adjacency, b.adjacency)


def test_erdos_renyi_is_undirected():
    g = erdos_renyi(10, 0.5, 7)
    assert g.symmetric


def test_erdos_renyi_edge_frequency():
    """Empirical edge frequency stays within 0.05 of p for n=20."""
    n = 20
    for p in (0.2, 0.5, 0.8):
        count = 0
        pairs = 0
        for seed in range(500):
            g = erdos_renyi(n, p, seed)
            count += int(np.triu(g.adjacency, k=1).sum())
            pairs += n * (n - 1) // 2
        freq = count / pairs
        assert abs(freq - p) <= 0.05, (p, freq)


def test_erdos_renyi_require_connected():
    for seed in range(30):
        g = erdos_renyi(9, 0.3, seed, require_connected=True)
        assert is_connected(g)


def test_erdos_renyi_connectivity_exhaustion():
    # p=0 can never produce a connected graph on two or more agents
    with pytest.raises(GraphError):
        erdos_renyi(4, 0.0, 0, require_connected=True)


def test_sample_active_deterministic():
    sched = EdgeSchedule(ring(6), activation_prob=0.5, rng_seed=17)
    a = sample_active(sched, 3)
    b = sample_active(sched, 3)
    assert np.array_equal(a.adjacency, b.adjacency)
    # a different round generally gives a different draw; check over a window
    draws = [sample_active(sched, r).adjacency.copy() for r in range(10)]
    assert any(not np.array_equal(draws[0], d) for d in draws[1:])


def test_sample_active_subset_of_base():
    base = erdos_renyi(10, 0.6, 2)
    sched = EdgeSchedule(base, activation_prob=0.3, rng_seed=5)
    for r in range(50):
        act = sample_active(sched, r)
        assert np.all(act.adjacency <= base.adjacency)


def test_sample_active_symmetric_joint_activation():
    """Undirected base stays undirected after sampling: edges toggle jointly."""
    base = erdos_renyi(8, 0.7, 11)
    sched = EdgeSchedule(base, activation_prob=0.5, rng_seed=1)
    for r in range(50):
        assert sample_active(sched, r).symmetric


def test_sample_active_directed_base_activates_arcs_independently():
    """A non-symmetric base draws each arc on its own: some round keeps
    (i, j) without (j, i), a (seed, round) pair always gives the same
    draw, and every active arc is in the base."""
    arcs = [(i, j) for i in range(5) for j in range(5) if i != j and (i, j) != (0, 1)]
    base = graph_from_edges(5, arcs, undirected=False)
    assert not base.symmetric
    adj = base.adjacency.astype(bool)
    both = adj & adj.T
    one_way = False
    for r in range(20):
        act = sample_active(EdgeSchedule(base, activation_prob=0.5, rng_seed=4), r)
        again = sample_active(EdgeSchedule(base, activation_prob=0.5, rng_seed=4), r)
        assert np.array_equal(act.adjacency, again.adjacency)
        kept = act.adjacency.astype(bool)
        assert not (kept & ~adj).any()
        one_way |= bool((kept & ~kept.T & both).any())
    assert one_way


def test_sample_active_prob_one_returns_base():
    base = ring(5)
    sched = EdgeSchedule(base, activation_prob=1.0, rng_seed=0)
    for r in range(5):
        assert np.array_equal(sample_active(sched, r).adjacency, base.adjacency)


def test_explicit_schedule():
    base = ring(4)
    empty = CommGraph(4, np.zeros((4, 4), dtype=int))

    def fn(r):
        return base if r % 2 == 0 else empty

    sched = EdgeSchedule.explicit(base, fn)
    assert np.array_equal(sample_active(sched, 0).adjacency, base.adjacency)
    assert np.array_equal(sample_active(sched, 1).adjacency, empty.adjacency)


def test_explicit_schedule_rejects_edges_outside_base():
    base = ring(4)
    bigger = graph_from_edges(4, [(0, 2)])  # chord, not in the ring
    sched = EdgeSchedule.explicit(base, lambda r: bigger)
    with pytest.raises(GraphError):
        sample_active(sched, 0)


def test_is_connected():
    assert is_connected(ring(5))
    two_parts = graph_from_edges(4, [(0, 1), (2, 3)])
    assert not is_connected(two_parts)


def test_is_connected_directed_needs_both_directions():
    chain = graph_from_edges(3, [(0, 1), (1, 2)], undirected=False)
    assert not is_connected(chain)
    cycle = graph_from_edges(3, [(0, 1), (1, 2), (2, 0)], undirected=False)
    assert is_connected(cycle)


def test_diameter_bound_values():
    path = graph_from_edges(5, [(i, i + 1) for i in range(4)])
    assert diameter_bound(path) == 4
    complete = graph_from_matrix(1 - np.eye(4, dtype=int))
    assert diameter_bound(complete) == 1
    single = CommGraph(1, np.zeros((1, 1), dtype=int))
    assert diameter_bound(single) == 0


def test_graph_from_edges_errors():
    with pytest.raises(GraphError):
        graph_from_edges(3, [(0,)])
    with pytest.raises(GraphError):
        graph_from_edges(3, [(0, 3)])
    with pytest.raises(GraphError):
        graph_from_edges(3, [(1, 1)])


def test_graph_edges_round_trip():
    g = erdos_renyi(9, 0.5, 21)
    edges = [(int(i), int(j)) for i, j in zip(*np.nonzero(np.triu(g.adjacency, k=1)))]
    back = graph_from_edges(9, edges)
    assert np.array_equal(back.adjacency, g.adjacency)


def test_graph_from_matrix_validates():
    with pytest.raises(GraphError):
        graph_from_matrix([[0, 2], [2, 0]])
    g = graph_from_matrix([[0, 1], [1, 0]])
    assert g.n == 2
