"""Communication graphs and per-round edge activation schedules.

Graphs are dense 0/1 adjacency matrices over agent ids ``0..n-1``; entry
``(i, j) == 1`` means i can send to j. Undirected graphs are symmetric
matrices. Time-varying topologies are expressed as an :class:`EdgeSchedule`
over a base graph: each round, every base edge is kept with probability
``activation_prob``, sampled deterministically from ``(rng_seed, round)``.
For a symmetric base the two directions of an edge are activated jointly,
so the active subgraph stays undirected; directed bases activate each arc
independently.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Iterable, Sequence

import numpy as np

from .errors import GraphError, InvalidAgentError

__all__ = [
    "CommGraph",
    "EdgeSchedule",
    "neighbor_sets",
    "erdos_renyi",
    "sample_active",
    "is_connected",
    "diameter_bound",
    "graph_from_edges",
    "graph_from_matrix",
]

# samples erdos_renyi draws before it gives up on a connected graph
_ER_ATTEMPTS = 1000


@dataclass(frozen=True, eq=False)
class CommGraph:
    """Static directed communication graph on ``n`` agents."""

    n: int
    adjacency: np.ndarray

    def __post_init__(self):
        if self.n < 1:
            raise GraphError("graph needs at least one agent, got n=%d" % self.n)
        adj = np.asarray(self.adjacency)
        if adj.shape != (self.n, self.n):
            raise GraphError(
                "adjacency shape %s does not match n=%d" % (adj.shape, self.n)
            )
        if not np.isin(adj, (0, 1)).all():
            raise GraphError("adjacency entries must be 0 or 1")
        if np.diagonal(adj).any():
            raise GraphError("self-loops are not allowed")
        adj = adj.astype(np.int8, copy=True)
        adj.setflags(write=False)
        object.__setattr__(self, "adjacency", adj)

    @property
    def symmetric(self) -> bool:
        return bool((self.adjacency == self.adjacency.T).all())


def neighbor_sets(graph: CommGraph, i: int) -> tuple[list[int], list[int]]:
    """Return sorted (in_neighbors, out_neighbors) of agent ``i``."""
    if not isinstance(i, (int, np.integer)) or not 0 <= i < graph.n:
        raise InvalidAgentError("agent index %r outside 0..%d" % (i, graph.n - 1))
    adj = graph.adjacency
    in_n = [int(j) for j in np.flatnonzero(adj[:, i])]
    out_n = [int(j) for j in np.flatnonzero(adj[i, :])]
    return in_n, out_n


def erdos_renyi(
    n: int,
    p: float,
    seed: int,
    require_connected: bool = False,
) -> CommGraph:
    """Sample an undirected Erdos-Renyi graph G(n, p).

    With ``require_connected`` the graph is resampled until connected,
    capped at ``_ER_ATTEMPTS`` samples before raising :class:`GraphError`.
    """
    if not 0.0 <= p <= 1.0:
        raise GraphError("edge probability %r outside [0, 1]" % (p,))
    if n < 1:
        raise GraphError("need n >= 1, got %d" % n)
    rng = np.random.default_rng(seed)
    for _ in range(_ER_ATTEMPTS):
        draws = rng.random((n, n))
        upper = np.triu(draws < p, k=1)
        adj = (upper | upper.T).astype(np.int8)
        g = CommGraph(n, adj)
        if not require_connected or is_connected(g):
            return g
    raise GraphError(
        "no connected G(%d, %.3f) found in %d attempts" % (n, p, _ER_ATTEMPTS)
    )


@dataclass(frozen=True)
class EdgeSchedule:
    """Per-round random activation of a base graph's edges.

    ``sample_active(schedule, r)`` is a pure function of
    ``(rng_seed, r)``; repeated calls agree, which lets every endpoint of
    an edge evaluate the same activation locally. An explicit
    round-to-graph function can be injected with :meth:`explicit` for
    scripted topologies.
    """

    base: CommGraph
    activation_prob: float = 1.0
    rng_seed: int = 0
    round_fn: Callable[[int], CommGraph] | None = field(default=None, compare=False)
    _cache: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        if not 0.0 <= self.activation_prob <= 1.0:
            raise GraphError(
                "activation_prob %r outside [0, 1]" % (self.activation_prob,)
            )

    @classmethod
    def explicit(cls, base: CommGraph, fn: Callable[[int], CommGraph]) -> "EdgeSchedule":
        return cls(base=base, activation_prob=1.0, rng_seed=0, round_fn=fn)


def sample_active(schedule: EdgeSchedule, round: int) -> CommGraph:
    """Active subgraph of the base at the given round (deterministic)."""
    base = schedule.base
    if schedule.round_fn is not None:
        g = schedule.round_fn(round)
        if (g.adjacency & ~base.adjacency.astype(bool)).any():
            raise GraphError("explicit schedule produced edges outside the base")
        return g
    p = schedule.activation_prob
    if p >= 1.0:
        return base
    hit = schedule._cache.get(int(round))
    if hit is not None:
        return hit
    rng = np.random.default_rng([schedule.rng_seed, int(round)])
    draws = rng.random((base.n, base.n))
    if base.symmetric:
        keep = np.triu(draws < p, k=1)
        keep = keep | keep.T
    else:
        keep = draws < p
    active = CommGraph(base.n, (base.adjacency.astype(bool) & keep).astype(np.int8))
    # every communicator asks for the same few rounds repeatedly; memoize
    if len(schedule._cache) > 8192:
        schedule._cache.clear()
    schedule._cache[int(round)] = active
    return active


def is_connected(graph: CommGraph) -> bool:
    """Connectivity check: strong connectivity for directed graphs."""
    adj = graph.adjacency
    if graph.n == 1:
        return True
    return _reaches_all(adj) and _reaches_all(adj.T)


def _reaches_all(adj: np.ndarray) -> bool:
    n = adj.shape[0]
    seen = np.zeros(n, dtype=bool)
    seen[0] = True
    frontier = [0]
    while frontier:
        nxt = []
        for v in frontier:
            for w in np.flatnonzero(adj[v]):
                if not seen[w]:
                    seen[w] = True
                    nxt.append(int(w))
        frontier = nxt
    return bool(seen.all())


def diameter_bound(graph: CommGraph) -> int:
    """Longest shortest-path length (hops) between reachable pairs.

    Used by distributed protocols to size halting margins. Falls back to
    ``n - 1`` when some pair is unreachable.
    """
    n = graph.n
    if n == 1:
        return 0
    adj = graph.adjacency.astype(bool)
    dist = np.where(adj, 1, n * 2)
    np.fill_diagonal(dist, 0)
    for k in range(n):
        dist = np.minimum(dist, dist[:, k : k + 1] + dist[k : k + 1, :])
    finite = dist[dist < n * 2]
    worst = int(finite.max()) if finite.size else 0
    return min(max(worst, 1), n - 1) if n > 1 else 0


def graph_from_edges(n: int, edges: Iterable[Sequence[int]], undirected: bool = True) -> CommGraph:
    """Build a graph from (i, j) pairs; ``undirected`` adds both arcs."""
    adj = np.zeros((n, n), dtype=np.int8)
    for e in edges:
        if len(e) != 2:
            raise GraphError("edge %r is not a pair" % (e,))
        i, j = int(e[0]), int(e[1])
        if not (0 <= i < n and 0 <= j < n):
            raise GraphError("edge (%d, %d) outside 0..%d" % (i, j, n - 1))
        if i == j:
            raise GraphError("self-loop (%d, %d) not allowed" % (i, j))
        adj[i, j] = 1
        if undirected:
            adj[j, i] = 1
    return CommGraph(n, adj)


def graph_from_matrix(rows: Sequence[Sequence[int]]) -> CommGraph:
    mat = np.asarray(rows)
    if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
        raise GraphError("adjacency matrix must be square, got shape %s" % (mat.shape,))
    return CommGraph(mat.shape[0], mat)
