"""Distributed task assignment: column-exchange simplex plus the task cloud.

Each robot owns the cost column of every (robot, task) pair in its row and
initially nothing else. Agents repeatedly broadcast their current basis
columns to neighbors, merge whatever arrives into a column pool, re-solve
the restricted assignment LP over that pool, and keep the optimal basis.
Objectives never increase, and on a connected graph all agents settle on
the same optimal permutation; the scheme tolerates asynchrony, time-varying
edges and packet loss, so it runs over reliable or best-effort
communicators alike.

Two perturbations, both identical across agents, make that convergence
sound. Costs get the shared geometric schedule from the lp module so no
two assignments tie. The right-hand side gets a tiny geometric bump
(``perturbed_rhs``) so every feasible basis has strictly positive basic
values: without it the assignment polytope is degenerate (a matching pins
only n of the 2n-1 basic variables away from zero), dual prices depend on
which zero-level columns pad the basis, and agents can each certify
"no improving column in my pool" against different prices while the union
of their pools still holds an improvement. With the bump a vertex has
exactly one basis, so agreeing on the vertex means agreeing on the prices,
and a network-wide fixed point is globally optimal.

Halting is a heuristic: an agent flags itself done after its basis survives
``margin`` consecutive rounds unchanged (default twice the graph diameter
bound, floored at 4). A flagged agent keeps broadcasting and can unflag if
a better basis arrives; the lockstep driver stops once every agent is
flagged, the threaded entry point additionally waits for its neighbors'
flags. The round budget (default 50 n) turns livelock into a loud
NonConvergenceError instead of a hang.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from .communicator import Communicator
from .errors import CloudError, NonConvergenceError, ProtocolError
from .lp import assignment_column, perturbation_vector, simplex_from_basis
from .netgraph import CommGraph, EdgeSchedule, diameter_bound
from .transport import MessageBus, TransportConfig

__all__ = [
    "PENDING",
    "ASSIGNED",
    "COMPLETED",
    "Task",
    "CloudState",
    "SimplexColumn",
    "SimplexBasis",
    "costs_from_positions",
    "local_columns",
    "artificial_columns",
    "initial_basis",
    "perturbed_rhs",
    "simplex_round",
    "basis_support",
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
_SUPPORT_TOL = 0.5
_RHS_EPS = 1e-5


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


# -- columns and bases ---------------------------------------------------------


@dataclass(frozen=True, order=True)
class SimplexColumn:
    """One LP column: robot-task pair with its (perturbed) cost.

    Artificial columns use robot=-1 and task=row index; they cost ``big_m``
    and exist so any agent can always complete a feasible basis. Ordering
    puts real columns first, by (robot, task), then artificials by row.
    """

    sort_key: tuple = field(init=False, repr=False)
    robot: int
    task: int
    cost: float

    def __post_init__(self):
        key = (1, self.task, 0) if self.robot < 0 else (0, self.robot, self.task)
        object.__setattr__(self, "sort_key", key)

    @property
    def artificial(self) -> bool:
        return self.robot < 0

    def vector(self, n: int) -> np.ndarray:
        if self.artificial:
            a = np.zeros(2 * n - 1)
            a[self.task] = 1.0
            return a
        return assignment_column(self.robot, self.task, n)


@dataclass(frozen=True)
class SimplexBasis:
    """A feasible basis of the (perturbed) assignment LP.

    ``columns`` is the sorted tuple of 2n-1 columns and ``objective`` the
    value of its basic solution under the perturbed costs and right-hand
    side; the latter is the quantity that decreases monotonically as
    rounds progress.
    """

    columns: tuple[SimplexColumn, ...]
    objective: float

    def permutation(self, n: int) -> tuple[int, ...] | None:
        """Robot->task map encoded by the basis, or None if artificials
        still cover some row (no full matching yet)."""
        support = basis_support(self, n)
        chosen: dict[int, int] = {}
        for col in support:
            if col.artificial:
                return None
            chosen[col.robot] = col.task
        if len(chosen) != n:
            return None
        return tuple(chosen[i] for i in range(n))


def local_columns(i: int, costs: np.ndarray, n: int, eps: float = 1e-7,
                  ratio: float = 0.5) -> list[SimplexColumn]:
    """Robot i's own columns with the shared lexicographic perturbation.

    ``costs`` may be the full matrix or just row i. The perturbation index
    is the global flattened column index i*n + k, so all agents perturb any
    given column identically.
    """
    costs = np.asarray(costs, dtype=float)
    row = costs[i] if costs.ndim == 2 else costs
    if row.shape != (n,):
        raise ProtocolError("cost row for robot %d has shape %s" % (i, row.shape))
    delta = perturbation_vector(n * n, eps=eps, ratio=ratio)
    return [
        SimplexColumn(i, k, float(row[k]) + float(delta[i * n + k]))
        for k in range(n)
    ]


def artificial_columns(n: int, big_m: float = DEFAULT_BIG_M) -> list[SimplexColumn]:
    return [SimplexColumn(-1, r, float(big_m)) for r in range(2 * n - 1)]


def perturbed_rhs(n: int) -> np.ndarray:
    """Right-hand side 1 + eps * 2^-(r+1), identical for every agent.

    The geometric bump makes every feasible basis of the restricted LPs
    nondegenerate: basic values sit at least eps * 2^-(2n-1) away from
    zero (powers of one half cannot cancel), so each vertex has a unique
    basis and unique dual prices. At the default eps that floor clears the
    solver's 1e-9 pivot tolerance up to n around 7, which covers the fleet
    sizes this protocol targets.
    """
    m = 2 * n - 1
    return 1.0 + _RHS_EPS * np.power(0.5, np.arange(1, m + 1))


def initial_basis(n: int, big_m: float = DEFAULT_BIG_M) -> SimplexBasis:
    """The all-artificial starting basis (identity columns, trivially feasible)."""
    cols = tuple(artificial_columns(n, big_m))
    return SimplexBasis(columns=cols, objective=float(big_m) * float(perturbed_rhs(n).sum()))


def basis_support(basis: SimplexBasis, n: int) -> list[SimplexColumn]:
    """Columns whose basic value is 1 (the rest of the basis sits at 0).

    Evaluated at the unperturbed right-hand side of ones, where a feasible
    basis takes exact 0/1 values, so the threshold is safe by a wide margin.
    """
    cols = basis.columns
    B = np.column_stack([c.vector(n) for c in cols])
    x = np.linalg.solve(B, np.ones(2 * n - 1))
    return [c for c, v in zip(cols, x) if v > _SUPPORT_TOL]


def _validate_column(col: SimplexColumn, n: int) -> None:
    if not np.isfinite(col.cost):
        raise ProtocolError("column (%d, %d) has non-finite cost" % (col.robot, col.task))
    if col.artificial:
        if not 0 <= col.task < 2 * n - 1:
            raise ProtocolError("artificial column row %d out of range" % col.task)
    elif not (0 <= col.robot < n and 0 <= col.task < n):
        raise ProtocolError("column (%d, %d) out of range for n=%d" % (col.robot, col.task, n))


def simplex_round(state: SimplexBasis, own: list[SimplexColumn],
                  received: list[SimplexColumn], n: int,
                  big_m: float = DEFAULT_BIG_M) -> SimplexBasis:
    """One merge-and-reoptimize step.

    Pool = current basis + own columns + received columns + artificials;
    the restricted LP over the pool (with the shared perturbed right-hand
    side) is solved warm-started from the current basis. The warm start is
    always feasible because feasibility of a basis depends only on the
    basis and the right-hand side, both of which persist across rounds.
    The returned objective is the perturbed LP value, which never
    increases. Malformed received columns raise ProtocolError before any
    state changes.
    """
    for col in received:
        _validate_column(col, n)

    merged: dict[tuple, SimplexColumn] = {}
    for col in list(state.columns) + list(own) + list(received) + artificial_columns(n, big_m):
        merged.setdefault(col.sort_key, col)
    pool = sorted(merged.values())

    index = {c.sort_key: j for j, c in enumerate(pool)}
    A = np.column_stack([c.vector(n) for c in pool])
    c_vec = np.array([c.cost for c in pool])
    b = perturbed_rhs(n)
    start = [index[c.sort_key] for c in state.columns]
    final, _, objective, status = simplex_from_basis(A, b, c_vec, start)
    if status != "optimal":
        raise ProtocolError("restricted assignment LP ended %s" % status)

    columns = tuple(sorted(pool[j] for j in final))
    return SimplexBasis(columns=columns, objective=float(objective))


# -- protocol agent ------------------------------------------------------------


class DistributedSimplexAgent:
    """Per-robot protocol state machine, transport-agnostic.

    Drive it with :meth:`outgoing` / :meth:`absorb`; the lockstep driver
    and the threaded entry point below both build on these.
    """

    def __init__(self, i: int, costs, n: int, *, eps: float = 1e-7,
                 ratio: float = 0.5, big_m: float = DEFAULT_BIG_M,
                 margin: int = 4):
        self.i = int(i)
        self.n = int(n)
        self.big_m = float(big_m)
        self.own = local_columns(self.i, np.asarray(costs, dtype=float), self.n,
                                 eps=eps, ratio=ratio)
        self._delta = perturbation_vector(n * n, eps=eps, ratio=ratio)
        worst = max(abs(c.cost) for c in self.own)
        if self.big_m <= 10.0 * self.n * max(worst, 1.0):
            raise ProtocolError(
                "big_m %.3g too small for costs around %.3g" % (self.big_m, worst)
            )
        self.basis = simplex_round(initial_basis(self.n, self.big_m), self.own, [],
                                   self.n, self.big_m)
        self.margin = int(margin)
        self.unchanged = 0
        self.rounds = 0

    @property
    def halted(self) -> bool:
        return self.unchanged >= self.margin

    def payload(self) -> dict:
        """Wire form of the current basis plus the halt flag."""
        cols = np.array(
            [[float(c.robot), float(c.task), c.cost] for c in self.basis.columns]
        )
        return {"cols": cols, "halted": self.halted}

    def parse(self, payload) -> tuple[list[SimplexColumn], bool]:
        """Decode a neighbor payload; malformed data raises ProtocolError."""
        if not isinstance(payload, dict) or "cols" not in payload:
            raise ProtocolError("assignment payload missing columns")
        cols = np.asarray(payload["cols"], dtype=float)
        if cols.ndim != 2 or cols.shape[1] != 3 or not np.all(np.isfinite(cols[:, :2])):
            raise ProtocolError("assignment payload malformed")
        out = []
        for robot_f, task_f, cost in cols:
            robot, task = int(round(robot_f)), int(round(task_f))
            col = (
                SimplexColumn(-1, task, self.big_m)
                if robot < 0
                else SimplexColumn(robot, task, float(cost))
            )
            _validate_column(col, self.n)
            out.append(col)
        return out, bool(payload.get("halted", False))

    def absorb(self, received: list[SimplexColumn]) -> bool:
        """Run one simplex round; returns True if the basis changed."""
        new = simplex_round(self.basis, self.own, received, self.n, self.big_m)
        changed = new.columns != self.basis.columns
        self.basis = new
        self.unchanged = 0 if changed else self.unchanged + 1
        self.rounds += 1
        return changed

    def result(self) -> tuple[int, tuple[int, ...], float]:
        """(own task, full permutation, unperturbed objective)."""
        perm = self.basis.permutation(self.n)
        if perm is None:
            raise NonConvergenceError(
                "agent %d basis still contains artificial columns" % self.i,
                diagnostics={"objective": self.basis.objective},
            )
        objective = 0.0
        for i, k in enumerate(perm):
            col = next(c for c in self.basis.columns if (c.robot, c.task) == (i, k))
            objective += col.cost - float(self._delta[i * self.n + k])
        return perm[self.i], perm, objective


def default_margin(graph: CommGraph, drop_prob: float = 0.0) -> int:
    """Halt after this many unchanged rounds: twice the diameter bound,
    floored at 4, plus enough extra under packet loss that a drop streak
    outlasting the margin has probability around 1e-9 per window."""
    base = max(2 * diameter_bound(graph), 4)
    if drop_prob > 0.0:
        base += int(np.ceil(np.log(1e-9) / np.log(drop_prob)))
    return base


def _gather(agent: DistributedSimplexAgent,
            comm: Communicator) -> tuple[list[SimplexColumn], dict[int, bool]]:
    """Drain every in-neighbor's mailbox: the columns received plus each
    sender's latest halt flag. A payload that fails to parse is skipped,
    as a lost message would be."""
    received: list[SimplexColumn] = []
    flags: dict[int, bool] = {}
    for j in comm.in_neighbors:
        for _, payload in comm.drain(j):
            try:
                cols, flags[j] = agent.parse(payload)
            except ProtocolError:
                continue
            received.extend(cols)
    return received, flags


def lockstep_round(agents: list[DistributedSimplexAgent], comms: list[Communicator],
                   rnd: int) -> None:
    """One synchronous protocol round over real communicators: every agent
    broadcasts its basis to its out-neighbors, then every agent gathers
    what arrived and re-optimizes."""
    for agent, comm in zip(agents, comms):
        comm.send(agent.payload(), comm.out_neighbors, round=rnd)
    for agent, comm in zip(agents, comms):
        agent.absorb(_gather(agent, comm)[0])


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
                            graph: CommGraph | None = None, *,
                            eps: float = 1e-7, ratio: float = 0.5,
                            big_m: float = DEFAULT_BIG_M,
                            margin: int | None = None,
                            round_budget: int | None = None,
                            pace: float = 0.001) -> tuple[int, tuple[int, ...], float]:
    """Blocking per-agent protocol run over a live communicator.

    Intended for one thread per agent. Rounds are asynchronous: each round
    broadcasts the basis, sleeps ``pace`` seconds to let peers interleave,
    then drains whatever arrived. The agent leaves once it and every
    in-neighbor have flagged halted (flags ride on the payloads), or raises
    NonConvergenceError after ``round_budget`` rounds (default 50 n).
    """
    base = graph if graph is not None else comm.graph
    agent = DistributedSimplexAgent(
        i, costs, n, eps=eps, ratio=ratio, big_m=big_m,
        margin=margin if margin is not None
        else default_margin(base, comm.config.drop_prob),
    )
    budget = round_budget if round_budget is not None else 50 * n
    neighbor_halted = {j: False for j in comm.in_neighbors}
    for rnd in range(budget):
        comm.send(agent.payload(), comm.out_neighbors, round=rnd)
        if pace:
            time.sleep(pace)
        received, flags = _gather(agent, comm)
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
                             bus: MessageBus | None = None,
                             eps: float = 1e-7, ratio: float = 0.5,
                             big_m: float = DEFAULT_BIG_M,
                             margin: int | None = None,
                             round_budget: int | None = None):
    """Deterministic lockstep driver running all agents in one thread.

    Sweeps the network round by round over real communicators (every send
    and receive goes through the bus, so drops, schedules and mailbox
    semantics all apply). Stops when every agent has flagged halted;
    returns (perm, objective, rounds). Raises NonConvergenceError on
    budget exhaustion or a consensus mismatch.
    """
    costs = np.asarray(costs, dtype=float)
    n = costs.shape[0]
    base = graph.base if isinstance(graph, EdgeSchedule) else graph
    if bus is None:
        bus = MessageBus()
    tc = transport if transport is not None else TransportConfig()
    comms = [
        Communicator(bus, i, graph, profile=profile, config=tc)
        for i in range(n)
    ]
    use_margin = margin if margin is not None else default_margin(base, tc.drop_prob)
    agents = [
        DistributedSimplexAgent(i, costs, n, eps=eps, ratio=ratio, big_m=big_m,
                                margin=use_margin)
        for i in range(n)
    ]
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
