"""Distributed task assignment: column-exchange simplex plus the task cloud.

Each robot owns the cost column of every (robot, task) pair in its row and
initially nothing else. Agents repeatedly broadcast their current basis
columns to neighbors, merge whatever arrives into a column pool, re-solve
the restricted assignment LP over that pool, and keep the optimal basis.
Columns travel and pool as (k, 3) float arrays of [robot, task, cost] rows.
A lockstep round decodes and parses each distinct payload once and shares
the result among its receivers; a payload that fails to decode or parse
is skipped like a lost message. ``parse`` validates the columns, and
``_gather`` hands them on marked as checked, so ``absorb`` and
``simplex_round`` validate only columns that arrive any other way. Objectives
never increase. The scheme tolerates asynchrony, time-varying edges and
packet loss, so it runs over reliable or best-effort communicators alike.

A basis of the restricted LP is a spanning tree of the robot-task network,
and each agent pivots on its tree by network simplex (Cunningham, "A
network simplex method", Math. Programming 11, 1976; Ahuja, Magnanti &
Orlin, Network Flows, 1993, ch. 11). Nodes are robots 0..n-1 and tasks
n..2n-1, rooted at task n-1, whose row the LP drops. Column (i, k) is the
arc i -> n+k; the artificial on row r is the arc r -> root for a robot row
and root -> r for a task row. Robots supply one unit and tasks take one,
so every basic flow is 0 or 1.

The exchange settles only if every pool has one optimal basis (Burger,
Notarstefano, Bullo & Allgower, Automatica 48(9), 2012): then agents with
one pool hold one basis, and the union argument makes it the same across a
connected network. Two exact rules make it so, with no number perturbed:

- The tree stays strongly feasible: every zero-flow arc points toward the
  root. The leaving arc is the last blocking arc met walking the cycle from
  its apex along the entering arc: the one nearest the apex on the head
  side, else the one nearest the tail. That is the ratio test under an
  infinitesimal extra supply at every node but the root.
- A column below -1e-9 (``lp._TOL``) in reduced cost enters, the most
  negative first. Failing that, a column within 1e-9 of zero enters if the
  lowest-key arc on its cycle (``_column_keys``, itself included) is
  traversed backward: an infinitesimal cost perturbation ordered by key.
  Integer potentials that weigh the arc of key j by 2^(K-1-j) decide it.

Potentials count big-M units apart from the real part, so rounding at the
scale of M does not pile up down the tree. A pivot recomputes them only
over the re-hung subtree, each node from its parent, so prices depend on
the tree alone, bit for bit. A round prices before it pivots: received
columns against the current tree, own and artificial ones once per basis.
If none enters, the round keeps the basis and only advances the halt
counter.

Halting is a heuristic: an agent flags itself done after its basis survives
``margin`` consecutive rounds unchanged (in both drivers ``default_margin``:
twice the graph diameter bound, floored at 4, longer on lossy links). A
flagged agent keeps broadcasting and can unflag if a better basis arrives;
the lockstep driver stops once every agent is flagged, the threaded entry
point additionally waits for its neighbors' flags. The round budget (50 n,
or ``round_budget`` on the lockstep driver) turns livelock into a loud
NonConvergenceError instead of a hang.
"""

from __future__ import annotations

import bisect
import functools
import time
from dataclasses import dataclass, field

import numpy as np

from . import codec
from .communicator import Communicator
from .errors import CloudError, DecodeError, NonConvergenceError, ProtocolError
# simplex_from_basis is no longer called here; it stays importable from this
# module only because the benchmark's traced run (perfbench/spans.py) looks
# it up as ``assignment.simplex_from_basis``
from .lp import _TOL, simplex_from_basis  # noqa: F401
from .netgraph import CommGraph, EdgeSchedule, diameter_bound
from .transport import MessageBus, TransportConfig

__all__ = [
    "PENDING",
    "ASSIGNED",
    "COMPLETED",
    "Task",
    "CloudState",
    "SimplexBasis",
    "costs_from_positions",
    "local_columns",
    "artificial_columns",
    "initial_basis",
    "simplex_round",
    "DistributedSimplexAgent",
    "default_margin",
    "lockstep_round",
    "agreed_result",
    "run_distributed_simplex",
    "solve_assignment_network",
    "cloud_complete",
    "DEFAULT_BIG_M",
]

PENDING = "pending"
ASSIGNED = "assigned"
COMPLETED = "completed"

DEFAULT_BIG_M = 1.0e6
_NO_COLUMNS = np.empty((0, 3))
# pivots one round may take before its LP counts as stuck
_MAX_PIVOTS = 50000
# seconds the threaded driver sleeps per round so that peers interleave
_PACE = 0.001
# what ``_gather`` records for a payload that failed to decode or parse
_SKIP = object()


# -- task cloud ---------------------------------------------------------------


@dataclass
class Task:
    task_id: int
    position: np.ndarray
    state: str = PENDING
    seq: int = 0

    def __post_init__(self):
        self.position = np.asarray(self.position, dtype=float)


@dataclass
class CloudState:
    """Reveal-on-completion task pool.

    ``revealed`` holds the live window the robots currently optimize over;
    ``hidden`` is the backlog. Completing a revealed task pops exactly one
    hidden task into the window (one in, one out), keeping the live task
    count constant until the backlog drains.
    """

    revealed: list[Task] = field(default_factory=list)
    hidden: list[Task] = field(default_factory=list)
    completed: list[int] = field(default_factory=list)

    @classmethod
    def from_positions(cls, initial, hidden) -> "CloudState":
        tasks = [Task(i, p, seq=i) for i, p in enumerate(initial)]
        backlog = [
            Task(len(tasks) + i, p, seq=len(tasks) + i) for i, p in enumerate(hidden)
        ]
        return cls(revealed=tasks, hidden=backlog)

    def live_tasks(self) -> list[Task]:
        return [t for t in self.revealed if t.state != COMPLETED]


def cloud_complete(cloud: CloudState, task_id: int) -> Task | None:
    """Mark a revealed task completed and reveal one hidden task, if any.

    Returns the newly revealed task or None when the backlog is empty.
    Unknown ids and double completions raise CloudError; callers that may
    see duplicate completion notices are expected to deduplicate first.
    """
    task = next((t for t in cloud.revealed if t.task_id == task_id), None)
    if task is None:
        raise CloudError("task %r is not revealed" % (task_id,))
    if task.state == COMPLETED:
        raise CloudError("task %r was already completed" % (task_id,))
    task.state = COMPLETED
    cloud.completed.append(task_id)
    if cloud.hidden:
        fresh = cloud.hidden.pop(0)
        fresh.state = PENDING
        cloud.revealed.append(fresh)
        return fresh
    return None


def costs_from_positions(robot_positions, task_positions) -> np.ndarray:
    """Euclidean robot-to-task distance matrix (rows robots, columns tasks)."""
    rp = np.atleast_2d(np.asarray(robot_positions, dtype=float))
    tp = np.atleast_2d(np.asarray(task_positions, dtype=float))
    diff = rp[:, None, :] - tp[None, :, :]
    return np.sqrt((diff * diff).sum(axis=2))


# -- columns and arcs ----------------------------------------------------------
#
# A set of LP columns is a float array of rows [robot, task, cost], the same
# (k, 3) matrix a payload carries. Robot -1 marks an artificial column on
# constraint row ``task``; artificials cost ``DEFAULT_BIG_M`` and exist so
# any agent can always complete a feasible basis.


def _column_keys(cols: np.ndarray, n: int) -> np.ndarray:
    """Integer identity and sort key of each column: robot*n + task for a
    real column, n*n + row for an artificial one, so real columns sort
    first by (robot, task), then artificials by row."""
    robot = cols[:, 0].astype(np.int64)
    task = cols[:, 1].astype(np.int64)
    return np.where(robot < 0, n * n + task, robot * n + task)


@functools.lru_cache(maxsize=None)
def _weights(n: int) -> tuple[int, ...]:
    """Lexicographic weight of the arc of each key: 2^(K-1-key) over the K
    keys, so the lowest key on a cycle outweighs all the others together."""
    keys = n * n + 2 * n - 1
    return tuple(1 << (keys - 1 - key) for key in range(keys))


@functools.lru_cache(maxsize=None)
def _ends(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Tail and head node of the arc of each key."""
    root = 2 * n - 1
    robot, task = np.divmod(np.arange(n * n), n)
    rows = np.arange(2 * n - 1)
    tail = np.concatenate((robot, np.where(rows < n, rows, root)))
    head = np.concatenate((n + task, np.where(rows < n, root, rows)))
    return tail, head


class _Arcs:
    """Columns read as network arcs: cost, key, tail and head nodes, the
    latter three also as lists for the pivot's scalar reads."""

    __slots__ = ("cost", "key", "tail", "head", "keys", "tails", "heads")

    def __init__(self, cols: np.ndarray, n: int, key: np.ndarray | None = None):
        tail, head = _ends(n)
        self.cost = np.ascontiguousarray(cols[:, 2])
        self.key = _column_keys(cols, n) if key is None else key
        self.tail = tail[self.key]
        self.head = head[self.key]
        self.keys = self.key.tolist()
        self.tails = self.tail.tolist()
        self.heads = self.head.tolist()


# -- the basis tree ------------------------------------------------------------


class _Tree:
    """A strongly feasible basis tree over the 2n nodes, one list entry per
    node; the root is node 2n-1 (task n-1).

    Every other node v hangs from ``parent[v]`` by the arc of key
    ``key[v]``, which points up (v -> parent) if ``up[v]`` and carries
    ``flow[v]``, 0 or 1. ``cost[v]`` is the arc's cost, 0.0 for an
    artificial, whose big M is counted in ``big`` instead. The potential of
    v is ``big[v]`` * M + ``pot[v]``, stored summed in the array ``price``,
    and ``lex[v]`` is its lexicographic part. Each tree arc prices to zero:
    its tail's potential less its head's is its cost.
    """

    __slots__ = ("n", "parent", "children", "up", "flow", "key", "cost",
                 "depth", "big", "pot", "price", "lex")

    @classmethod
    def star(cls, n: int) -> "_Tree":
        """The all-artificial tree: each robot sends its unit straight to
        the root, and each other task takes its unit straight from it."""
        root = 2 * n - 1
        t = cls.__new__(cls)
        t.n = n
        t.parent = [root] * root + [-1]
        t.children = [[] for _ in range(root)] + [list(range(root))]
        t.up = [True] * n + [False] * n
        t.flow = [1] * root + [0]
        t.key = list(range(n * n, n * n + root)) + [-1]
        t.cost = [0.0] * (root + 1)
        t.depth, t.big, t.lex = [0] * (root + 1), [0] * (root + 1), [0] * (root + 1)
        t.pot, t.price = [0.0] * (root + 1), np.zeros(root + 1)
        for v in range(root):
            t.hang(v)
        return t

    def copy(self) -> "_Tree":
        t = _Tree.__new__(_Tree)
        t.n = self.n
        t.children = [list(c) for c in self.children]
        for name in ("parent", "up", "flow", "key", "cost", "depth", "big", "pot", "lex"):
            setattr(t, name, list(getattr(self, name)))
        t.price = self.price.copy()
        return t

    def hang(self, top: int) -> None:
        """Recompute depth and potentials over the subtree of ``top``, each
        node from its parent."""
        parent, children, up, key, cost = self.parent, self.children, self.up, self.key, self.cost
        depth, big, pot, price, lex = self.depth, self.big, self.pot, self.price, self.lex
        weight = _weights(self.n)
        reals = self.n * self.n
        stack = [top]
        while stack:
            v = stack.pop()
            p, k = parent[v], key[v]
            depth[v] = depth[p] + 1
            if up[v]:
                big[v] = big[p] + (k >= reals)
                pot[v] = pot[p] + cost[v]
                lex[v] = lex[p] + weight[k]
            else:
                big[v] = big[p] - (k >= reals)
                pot[v] = pot[p] - cost[v]
                lex[v] = lex[p] - weight[k]
            price[v] = big[v] * DEFAULT_BIG_M + pot[v]
            stack.extend(children[v])

    def objective(self) -> float:
        """Cost of the basic solution, summed in key order."""
        reals = self.n * self.n
        total = 0.0
        for key, cost in sorted((k, c if k < reals else DEFAULT_BIG_M)
                                for k, c, f in zip(self.key, self.cost, self.flow) if f):
            total += cost
        return total

    def permutation(self) -> tuple[int, ...] | None:
        """Robot->task map carried by the flow, or None while an
        artificial still carries a unit."""
        n = self.n
        perm = [0] * n
        for k, f in zip(self.key, self.flow):
            if f:
                if k >= n * n:
                    return None
                perm[k // n] = k % n
        return tuple(perm)


def _entering(tree: _Tree, arcs: _Arcs, cost: np.ndarray) -> int:
    """Index of the arc that enters ``tree``: the most negative reduced
    cost below -_TOL, else the first (lowest key) lexicographically negative
    arc within _TOL of zero; -1 if none. ``cost`` is the arcs' cost, with
    +inf on arcs the tree holds."""
    if not arcs.keys:
        return -1
    rc = cost - tree.price[arcs.tail] + tree.price[arcs.head]
    j = int(rc.argmin())
    if rc[j] < -_TOL:
        return j
    weight, lex, keys, tails, heads = _weights(tree.n), tree.lex, arcs.keys, arcs.tails, arcs.heads
    for c in (rc <= _TOL).nonzero()[0].tolist():
        if weight[keys[c]] - lex[tails[c]] + lex[heads[c]] < 0:
            return c
    return -1


def _pivot(t: _Tree, k: int, l: int, key: int, cost: float) -> int:
    """Pivot the arc k -> l of ``key`` into ``t`` under the strongly
    feasible rule and return the key of the arc that leaves. ``cost`` is
    the arc's cost, 0.0 for an artificial."""
    parent, depth, up, flow = t.parent, t.depth, t.up, t.flow
    # the cycle: the tail side from k and the head side from l, each up to the apex
    tail_side, head_side = [], []
    a, b = k, l
    while depth[a] > depth[b]:
        tail_side.append(a)
        a = parent[a]
    while depth[b] > depth[a]:
        head_side.append(b)
        b = parent[b]
    while a != b:
        tail_side.append(a)
        a = parent[a]
        head_side.append(b)
        b = parent[b]
    # walked from the apex along k -> l, the tail side runs down and the
    # head side up: backward arcs point up on the tail side, down on the head side
    theta = 1
    for v in tail_side:
        if up[v] and not flow[v]:
            theta = 0
            break
    else:
        for v in head_side:
            if not up[v] and not flow[v]:
                theta = 0
                break
    out = -1
    for v in head_side:
        if not up[v] and flow[v] == theta:
            out = v  # the last one is nearest the apex
    if out >= 0:
        q, p, q_up = l, k, False
    else:
        # no directed cycle exists, so some arc on the cycle is backward
        out = next(v for v in tail_side if up[v] and flow[v] == theta)
        q, p, q_up = k, l, True
    if theta:
        for v in tail_side:
            flow[v] += -1 if up[v] else 1
        for v in head_side:
            flow[v] += 1 if up[v] else -1
    leaving = t.key[out]
    # re-hang the subtree cut off at ``out`` from q: reverse the path q..out
    children, keys, costs = t.children, t.key, t.cost
    v, arc = q, (p, key, cost, theta, q_up)
    while True:
        old_parent = parent[v]
        old = (v, keys[v], costs[v], flow[v], not up[v])
        children[old_parent].remove(v)
        children[arc[0]].append(v)
        parent[v], keys[v], costs[v], flow[v], up[v] = arc
        if v == out:
            break
        v, arc = old_parent, old
    t.hang(q)
    return leaving


# -- bases -----------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class SimplexBasis:
    """A strongly feasible basis of the restricted assignment LP.

    ``columns`` holds the 2n-1 basic columns sorted by ``_column_keys`` and
    ``objective`` the cost of its basic solution, summed in key order; the
    latter never increases as rounds progress. The basis tree rides along
    privately, so a round starts from it instead of rebuilding it.
    """

    columns: np.ndarray
    objective: float
    _tree: _Tree = field(repr=False)

    def permutation(self, n: int) -> tuple[int, ...] | None:
        """Robot->task map encoded by the basis, or None if artificials
        still cover some row (no full matching yet)."""
        return self._tree.permutation()


def local_columns(i: int, costs: np.ndarray, n: int) -> np.ndarray:
    """Robot i's own columns at their raw costs. ``costs`` may be the full
    matrix or just row i."""
    costs = np.asarray(costs, dtype=float)
    row = costs[i] if costs.ndim == 2 else costs
    if row.shape != (n,):
        raise ProtocolError("cost row for robot %d has shape %s" % (i, row.shape))
    return np.column_stack((np.full(n, float(i)), np.arange(n, dtype=float), row))


def artificial_columns(n: int) -> np.ndarray:
    rows = np.arange(2 * n - 1, dtype=float)
    return np.column_stack((np.full_like(rows, -1.0), rows, np.full_like(rows, DEFAULT_BIG_M)))


def initial_basis(n: int) -> SimplexBasis:
    """The all-artificial starting basis: every robot's unit goes to the
    root and every task's comes from it, all flows 1."""
    return SimplexBasis(artificial_columns(n), DEFAULT_BIG_M * (2 * n - 1), _Tree.star(n))


def _validate_columns(cols: np.ndarray, n: int) -> None:
    """Raise ProtocolError naming the first column that is not finite or
    out of range: a real one needs robot and task in [0, n), an
    artificial one (robot -1 or below, the columns ``_column_keys`` reads
    as artificial) a row in [0, 2n-1)."""
    robot, task = cols[:, 0], cols[:, 1]
    art = robot <= -1
    bad = ~np.isfinite(cols).all(axis=1) | (task < 0) | np.where(
        art, task >= 2 * n - 1, (robot < 0) | (robot >= n) | (task >= n))
    if bad.any():
        raise ProtocolError("column %s is non-finite or out of range for n=%d"
                            % (cols[np.argmax(bad)].tolist(), n))


class _Parsed(np.ndarray):
    """Columns that passed ``_validate_columns`` for the receiver's n, as
    ``_gather`` hands what ``parse`` returned to ``absorb``. Only this
    module makes them, so ``absorb`` and ``simplex_round`` check any other
    array they are given and trust these."""


def _checked(cols: np.ndarray, n: int) -> _Parsed:
    """``cols`` as validated columns, validating them unless they are."""
    if type(cols) is not _Parsed:
        _validate_columns(cols, n)
        cols = cols.view(_Parsed)
    return cols


def simplex_round(state: SimplexBasis, own: np.ndarray, received: np.ndarray,
                  n: int) -> SimplexBasis:
    """One merge-and-reoptimize step.

    Pool = current basis + own columns + received columns + artificials,
    deduplicated by column (the first occurrence in that order wins) and
    sorted by ``_column_keys``. The round pivots on the current basis tree
    (copied at its first pivot, so ``state`` stays as it was) until no
    column of the pool enters, and returns the pool's one optimal basis
    under the lexicographic rule, whatever the start tree and the order of
    the columns. Malformed received columns raise ProtocolError before any
    state changes; columns that ``absorb`` or ``parse`` already validated
    are not checked again.
    """
    received = _checked(received, n)
    cols = np.concatenate((state.columns, own, received, artificial_columns(n)))
    key, first = np.unique(_column_keys(cols, n), return_index=True)
    cols = cols[first]
    pool = _Arcs(cols, n, key)
    tree = state._tree
    # the pool's costs with the tree's arcs priced out
    cost = pool.cost.copy()
    cost[key.searchsorted(tree.key[:2 * n - 1])] = np.inf
    reals = n * n
    for pivots in range(_MAX_PIVOTS):
        j = _entering(tree, pool, cost)
        if j < 0:
            break
        if not pivots:
            tree = tree.copy()
        k = pool.keys[j]
        leaving = _pivot(tree, pool.tails[j], pool.heads[j], k,
                         float(pool.cost[j]) if k < reals else 0.0)
        cost[j] = np.inf
        out = bisect.bisect_left(pool.keys, leaving)
        cost[out] = pool.cost[out]
    else:
        raise ProtocolError("restricted assignment LP took %d pivots" % _MAX_PIVOTS)
    if not pivots:
        return state
    return SimplexBasis(cols[np.isinf(cost)], tree.objective(), tree)


# -- protocol agent ------------------------------------------------------------


class DistributedSimplexAgent:
    """Per-robot protocol state machine, transport-agnostic.

    Drive it with :meth:`payload` / :meth:`parse` / :meth:`absorb`; the
    lockstep driver and the threaded entry point below both build on these.
    """

    def __init__(self, i: int, costs, n: int, *, margin: int = 4):
        self.i = int(i)
        self.n = int(n)
        self.own = local_columns(self.i, np.asarray(costs, dtype=float), self.n)
        worst = float(np.abs(self.own[:, 2]).max())
        if DEFAULT_BIG_M <= 10.0 * self.n * max(worst, 1.0):
            raise ProtocolError(
                "big-M %.3g too small for costs around %.3g" % (DEFAULT_BIG_M, worst)
            )
        self.basis = simplex_round(initial_basis(self.n), self.own,
                                   _NO_COLUMNS.view(_Parsed), self.n)
        self.margin = int(margin)
        self.unchanged = 0
        self.rounds = 0
        # the own and artificial columns, in every pool, and whether one of
        # them enters the current basis; None when stale
        self._local = _Arcs(np.concatenate((self.own, artificial_columns(self.n))), self.n)
        self._local_enters: bool | None = None

    @property
    def halted(self) -> bool:
        return self.unchanged >= self.margin

    def payload(self) -> dict:
        """Wire form of the current basis plus the halt flag."""
        return {"cols": self.basis.columns, "halted": self.halted}

    def parse(self, payload) -> tuple[np.ndarray, bool]:
        """Decode a neighbor payload; malformed data raises ProtocolError.

        Robot and task indices round half to even; any negative robot
        reads as an artificial column (robot -1) costing ``DEFAULT_BIG_M``,
        so only real columns need a finite cost.
        """
        if not isinstance(payload, dict) or "cols" not in payload:
            raise ProtocolError("assignment payload missing columns")
        try:
            cols = np.asarray(payload["cols"], dtype=float)
            halted = bool(payload.get("halted", False))
        except (TypeError, ValueError) as exc:
            raise ProtocolError("assignment payload malformed: %s" % exc) from exc
        if cols.ndim != 2 or cols.shape[1] != 3 or not np.all(np.isfinite(cols[:, :2])):
            raise ProtocolError("assignment payload malformed")
        out = np.rint(cols)  # a copy: the caller's array stays as it was
        out += 0.0  # turns -0.0 into 0.0
        art = out[:, 0] < 0
        out[art, 0] = -1.0
        out[:, 2] = np.where(art, DEFAULT_BIG_M, cols[:, 2])
        _validate_columns(out, self.n)
        return out, halted

    def _enters(self, arcs: _Arcs) -> bool:
        """Whether one of ``arcs`` enters the current basis tree, by the
        test the round's first pivot applies."""
        tree = self.basis._tree
        held = np.array(tree.key)  # the root's reads -1
        cost = np.where((held[arcs.tail] == arcs.key) | (held[arcs.head] == arcs.key),
                        np.inf, arcs.cost)
        return _entering(tree, arcs, cost) >= 0

    def absorb(self, received: np.ndarray) -> bool:
        """Run one simplex round; returns True if the basis changed.

        The round first prices the candidate columns against the potentials
        of the current basis tree. If none enters, the pivots would stop at
        the start tree, so the round keeps the basis (and its objective)
        without solving. Malformed columns raise ProtocolError; columns
        that ``_gather`` collected from ``parse``, which validated them,
        are not checked again.
        """
        received = _checked(received, self.n)
        if self._local_enters is None:
            self._local_enters = self._enters(self._local)
        changed = False
        # priced as a plain array: ufuncs on a subclass cost more
        if self._local_enters or self._enters(_Arcs(received.view(np.ndarray), self.n)):
            new = simplex_round(self.basis, self.own, received, self.n)
            changed = not np.array_equal(new.columns, self.basis.columns)
            self.basis = new
            if changed:
                self._local_enters = None
        self.unchanged = 0 if changed else self.unchanged + 1
        self.rounds += 1
        return changed

    def result(self) -> tuple[int, tuple[int, ...], float]:
        """(own task, full permutation, objective). The objective sums the
        assigned costs in robot order, as ``lp.assignment_cost`` does."""
        perm = self.basis.permutation(self.n)
        if perm is None:
            raise NonConvergenceError(
                "agent %d basis still contains artificial columns" % self.i,
                diagnostics={"objective": self.basis.objective},
            )
        return perm[self.i], perm, self.basis.objective


def default_margin(graph: CommGraph, drop_prob: float = 0.0) -> int:
    """Halt after this many unchanged rounds: twice the diameter bound,
    floored at 4, plus enough extra under packet loss that a drop streak
    outlasting the margin has probability around 1e-9 per window. At
    ``drop_prob`` 1 no message is ever delivered, so no margin exists."""
    if drop_prob >= 1.0:
        raise ValueError("drop_prob %r delivers no message; the protocol cannot halt"
                         % (drop_prob,))
    base = max(2 * diameter_bound(graph), 4)
    if drop_prob > 0.0:
        base += int(np.ceil(np.log(1e-9) / np.log(drop_prob)))
    return base


def _gather(agent: DistributedSimplexAgent, comm: Communicator,
            parsed: dict) -> tuple[np.ndarray, dict[int, bool]]:
    """Drain every in-neighbor's mailbox: the columns received plus each
    sender's latest halt flag. A payload that fails to decode or parse is
    skipped, as a lost message would be.

    ``parsed`` maps (payload bytes, n) to the parse of that payload,
    or to ``_SKIP``. A sender encodes once, so all its recipients hold the
    same bytes; sharing one map across the agents of a round decodes and
    parses each distinct payload once. ``parse`` depends only on those
    two, so a shared entry is exactly what each receiver would compute.
    """
    received = [_NO_COLUMNS]
    flags: dict[int, bool] = {}
    for j in comm.in_neighbors:
        for env in comm.bus.drain(comm.agent_id, j):
            key = (env.payload, agent.n)
            hit = parsed.get(key)
            if hit is None:
                try:
                    hit = agent.parse(codec.decode(env.payload))
                except (DecodeError, ProtocolError):
                    hit = _SKIP
                parsed[key] = hit
            if hit is _SKIP:
                continue
            cols, flags[j] = hit
            received.append(cols)
    return np.concatenate(received).view(_Parsed), flags


def lockstep_round(agents: list[DistributedSimplexAgent], comms: list[Communicator],
                   rnd: int) -> None:
    """One synchronous protocol round over real communicators: every agent
    broadcasts its basis to its out-neighbors, then every agent gathers
    what arrived and re-optimizes. The round decodes and parses each
    distinct payload once, however many agents receive it."""
    for agent, comm in zip(agents, comms):
        comm.send(agent.payload(), comm.out_neighbors, round=rnd)
    parsed: dict = {}
    for agent, comm in zip(agents, comms):
        agent.absorb(_gather(agent, comm, parsed)[0])


def agreed_result(agents) -> tuple[int, tuple[int, ...], float]:
    """The result every halted agent agrees on, as (own task, permutation,
    objective) of the first agent; raises NonConvergenceError listing the
    permutations when the agents disagree."""
    results = [a.result() for a in agents]
    perms = {r[1] for r in results}
    if len(perms) != 1:
        raise NonConvergenceError(
            "agents halted on different permutations",
            diagnostics={"perms": sorted(perms)},
        )
    return results[0]


def run_distributed_simplex(comm: Communicator, i: int, costs, n: int,
                            graph: CommGraph | None = None) -> tuple[int, tuple[int, ...], float]:
    """Blocking per-agent protocol run over a live communicator.

    Intended for one thread per agent. Rounds are asynchronous: each round
    broadcasts the basis, sleeps ``_PACE`` seconds to let peers interleave,
    then drains whatever arrived. The agent leaves once it and every
    in-neighbor have flagged halted (flags ride on the payloads), or raises
    NonConvergenceError after 50 n rounds. The halting margin is
    :func:`default_margin` of ``graph`` (the communicator's by default).
    """
    base = graph if graph is not None else comm.graph
    agent = DistributedSimplexAgent(i, costs, n, margin=default_margin(base, comm.config.drop_prob))
    budget = 50 * n
    neighbor_halted = {j: False for j in comm.in_neighbors}
    for rnd in range(budget):
        comm.send(agent.payload(), comm.out_neighbors, round=rnd)
        time.sleep(_PACE)
        received, flags = _gather(agent, comm, {})
        neighbor_halted.update(flags)
        agent.absorb(received)
        if agent.halted and all(neighbor_halted.values()):
            comm.send(agent.payload(), comm.out_neighbors, round=rnd + 1)
            return agent.result()
    raise NonConvergenceError(
        "agent %d: no convergence in %d rounds" % (i, budget),
        diagnostics={"agent": i, "rounds": budget, "objective": agent.basis.objective},
    )


def solve_assignment_network(costs, graph, *, profile: str = "static",
                             transport: TransportConfig | None = None,
                             round_budget: int | None = None):
    """Deterministic lockstep driver running all agents in one thread.

    Sweeps the network round by round over real communicators (every send
    and receive goes through the bus, so drops, schedules and mailbox
    semantics all apply). Stops when every agent has flagged halted;
    returns (perm, objective, rounds). Raises NonConvergenceError on
    budget exhaustion or a consensus mismatch.

    The raised error's traceback keeps its file and line entries, but the
    locals of the driver's finished frames are cleared: otherwise a held
    error would keep the whole simulated network (agents, communicators,
    bus) alive.
    """
    try:
        return _solve_network(costs, graph, profile, transport, round_budget)
    except NonConvergenceError as exc:
        tb = exc.__traceback__.tb_next  # this frame is still running
        while tb is not None:
            tb.tb_frame.clear()
            tb = tb.tb_next
        raise


def _solve_network(costs, graph, profile, transport, round_budget):
    costs = np.asarray(costs, dtype=float)
    n = costs.shape[0]
    base = graph.base if isinstance(graph, EdgeSchedule) else graph
    bus = MessageBus()
    tc = transport if transport is not None else TransportConfig()
    comms = [
        Communicator(bus, i, graph, profile=profile, config=tc)
        for i in range(n)
    ]
    margin = default_margin(base, tc.drop_prob)
    agents = [DistributedSimplexAgent(i, costs, n, margin=margin) for i in range(n)]
    budget = round_budget if round_budget is not None else 50 * n
    for rnd in range(budget):
        lockstep_round(agents, comms, rnd)
        if all(a.halted for a in agents):
            _, perm, objective = agreed_result(agents)
            return perm, objective, rnd + 1
    raise NonConvergenceError(
        "no convergence in %d rounds" % budget,
        diagnostics={
            "objectives": [a.basis.objective for a in agents],
            "halted": [a.halted for a in agents],
        },
    )
