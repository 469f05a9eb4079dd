"""Distributed task assignment: column-exchange simplex plus the task cloud.

Each robot owns the cost column of every (robot, task) pair in its row and
initially nothing else. Agents repeatedly broadcast their current basis
columns to neighbors, merge whatever arrives into a column pool, re-solve
the restricted assignment LP over that pool, and keep the optimal basis.
Columns travel and pool as (k, 3) float arrays of [robot, task, cost] rows.
A lockstep round decodes and parses each distinct payload once and shares
the result among its receivers; a payload that fails to decode or parse
is skipped like a lost message. Objectives never increase. The scheme
tolerates asynchrony, time-varying edges and packet loss, so it runs over
reliable or best-effort communicators alike.

A round prices before it solves (Burger, Notarstefano, Bullo & Allgower,
Automatica 2012). Each agent caches the dual prices of its current basis,
computed from a fresh inverse exactly as the simplex computes them at its
first iteration. Own and artificial columns are priced once per basis,
received columns every round, each reduced cost bit for bit the one the
warm solve would compute. Only if some column prices below the simplex's
tolerance does the round build the pool and re-solve; otherwise the solve
would stop at its start basis, so the round keeps the basis, objective
included, and only advances the halt counter.

Two perturbations, both identical across agents, are meant to make every
optimal basis unique, so that agents which agree on a vertex agree on its
dual prices. Costs get the shared geometric schedule from the lp module so
that no two assignments tie. The right-hand side gets a tiny geometric bump
(``perturbed_rhs``) so every feasible basis has strictly positive basic
values: without it the assignment polytope is degenerate (a matching pins
only n of the 2n-1 basic variables away from zero), dual prices depend on
which zero-level columns pad the basis, and agents can each certify
"no improving column in my pool" against different prices while the union
of their pools still holds an improvement. Neither perturbation is sound
at every size: the cost offsets fall below the simplex's 1e-9 pricing
tolerance from the eighth flattened column on, and the bump clears it only
up to n of about 7. So when costs tie, as the zero-padded columns of a
drained task window do, agents on a connected graph can halt on different
permutations, which ``agreed_result`` reports as NonConvergenceError
(ROADMAP.md, item 1: a lexicographic pricing and ratio rule).

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

import time
from dataclasses import dataclass, field

import numpy as np

from . import codec
from .communicator import Communicator
from .errors import CloudError, DecodeError, NonConvergenceError, ProtocolError
from .lp import _TOL, perturbation_vector, simplex_from_basis
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
    "column_matrix",
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
# geometric cost offsets eps * ratio**j over the flattened column index
_COST_EPS = 1e-7
_COST_RATIO = 0.5
_NO_COLUMNS = np.empty((0, 3))
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


# -- columns and bases ---------------------------------------------------------
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


def column_matrix(cols: np.ndarray, n: int) -> np.ndarray:
    """Constraint columns, one per row of ``cols``: a real column is the lp
    module's ``assignment_column`` (ones on the robot's row and, for all
    but the last task, on row n + task), an artificial the unit vector of
    its row."""
    robot = cols[:, 0].astype(np.int64)
    task = cols[:, 1].astype(np.int64)
    j = np.arange(len(cols))
    art = robot < 0
    A = np.zeros((2 * n - 1, len(cols)))
    A[np.where(art, task, robot), j] = 1.0
    tasked = ~art & (task < n - 1)
    A[n + task[tasked], j[tasked]] = 1.0
    return A


@dataclass(frozen=True, eq=False)
class SimplexBasis:
    """A feasible basis of the (perturbed) assignment LP.

    ``columns`` holds the 2n-1 basic columns sorted by ``_column_keys`` and
    ``objective`` the value of its basic solution under the perturbed costs
    and right-hand side; the latter is the quantity that decreases
    monotonically as rounds progress.
    """

    columns: np.ndarray
    objective: float

    def permutation(self, n: int) -> tuple[int, ...] | None:
        """Robot->task map encoded by the basis, or None if artificials
        still cover some row (no full matching yet)."""
        support = basis_support(self, n)
        if not np.array_equal(support[:, 0], np.arange(n)):
            return None
        return tuple(support[:, 1].astype(int).tolist())


def local_columns(i: int, costs: np.ndarray, n: int) -> np.ndarray:
    """Robot i's own columns with the shared lexicographic perturbation.

    ``costs`` may be the full matrix or just row i. The perturbation index
    is the global flattened column index i*n + k, so all agents perturb any
    given column identically.
    """
    costs = np.asarray(costs, dtype=float)
    row = costs[i] if costs.ndim == 2 else costs
    if row.shape != (n,):
        raise ProtocolError("cost row for robot %d has shape %s" % (i, row.shape))
    delta = perturbation_vector(n * n, _COST_EPS, _COST_RATIO)[i * n:(i + 1) * n]
    return np.column_stack((np.full(n, float(i)), np.arange(n, dtype=float), row + delta))


def artificial_columns(n: int) -> np.ndarray:
    rows = np.arange(2 * n - 1, dtype=float)
    return np.column_stack((np.full_like(rows, -1.0), rows, np.full_like(rows, DEFAULT_BIG_M)))


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


def initial_basis(n: int) -> SimplexBasis:
    """The all-artificial starting basis (identity columns, trivially feasible)."""
    return SimplexBasis(columns=artificial_columns(n),
                        objective=DEFAULT_BIG_M * float(perturbed_rhs(n).sum()))


def basis_support(basis: SimplexBasis, n: int) -> np.ndarray:
    """Columns whose basic value is 1 (the rest of the basis sits at 0).

    Evaluated at the unperturbed right-hand side of ones, where a feasible
    basis takes exact 0/1 values, so the threshold is safe by a wide margin.
    """
    cols = basis.columns
    x = np.linalg.solve(column_matrix(cols, n), np.ones(2 * n - 1))
    return cols[x > _SUPPORT_TOL]


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


def simplex_round(state: SimplexBasis, own: np.ndarray, received: np.ndarray,
                  n: int) -> SimplexBasis:
    """One merge-and-reoptimize step.

    Pool = current basis + own columns + received columns + artificials,
    deduplicated by column (the first occurrence in that order wins) and
    sorted by ``_column_keys``; the restricted LP over the pool (with the
    shared perturbed right-hand side) is solved warm-started from the
    current basis. The warm start is always feasible because feasibility
    of a basis depends only on the basis and the right-hand side, both of
    which persist across rounds. The returned objective is the perturbed
    LP value, which never increases. Malformed received columns raise
    ProtocolError before any state changes.
    """
    _validate_columns(received, n)
    cols = np.concatenate((state.columns, own, received, artificial_columns(n)))
    keys, first = np.unique(_column_keys(cols, n), return_index=True)
    pool = cols[first]
    start = np.searchsorted(keys, _column_keys(state.columns, n))
    final, _, objective, status = simplex_from_basis(
        column_matrix(pool, n), perturbed_rhs(n), np.ascontiguousarray(pool[:, 2]),
        start.tolist())
    if status != "optimal":
        raise ProtocolError("restricted assignment LP ended %s" % status)
    return SimplexBasis(columns=pool[np.sort(final)], objective=float(objective))


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
        self._delta = perturbation_vector(self.n * self.n, _COST_EPS, _COST_RATIO)
        worst = float(np.abs(self.own[:, 2]).max())
        if DEFAULT_BIG_M <= 10.0 * self.n * max(worst, 1.0):
            raise ProtocolError(
                "big-M %.3g too small for costs around %.3g" % (DEFAULT_BIG_M, worst)
            )
        self.basis = simplex_round(initial_basis(self.n), self.own, _NO_COLUMNS, self.n)
        self.margin = int(margin)
        self.unchanged = 0
        self.rounds = 0
        # duals of the current basis with a zero appended, and whether an
        # own or artificial column prices in against them; None when stale
        self._y: np.ndarray | None = None
        self._local_enters = False

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

    def _reduced_costs(self, cols: np.ndarray) -> np.ndarray:
        """Reduced costs of ``cols`` against the cached duals, bit for bit
        the simplex's ``c - y @ A``: a column holds at most two unit
        entries, so y @ A is the sum of their duals (a missing second entry
        reads the zero appended after y)."""
        n = self.n
        robot = cols[:, 0].astype(np.int64)
        task = cols[:, 1].astype(np.int64)
        art = robot < 0
        first = np.where(art, task, robot)
        second = np.where(art | (task == n - 1), 2 * n - 1, n + task)
        return cols[:, 2] - (self._y[first] + self._y[second])

    def absorb(self, received: np.ndarray) -> bool:
        """Run one simplex round; returns True if the basis changed.

        The round first prices the candidate columns against the duals of
        the current basis. If none has a reduced cost below the simplex's
        pricing tolerance, the warm solve would stop at its start basis, so
        the round keeps the basis (and its objective) without solving.
        """
        _validate_columns(received, self.n)
        if self._y is None:
            cols = self.basis.columns
            y = np.ascontiguousarray(cols[:, 2]) @ np.linalg.inv(column_matrix(cols, self.n))
            self._y = np.append(y, 0.0)
            local = np.concatenate((self.own, artificial_columns(self.n)))
            self._local_enters = bool((self._reduced_costs(local) < -_TOL).any())
        changed = False
        if self._local_enters or (self._reduced_costs(received) < -_TOL).any():
            new = simplex_round(self.basis, self.own, received, self.n)
            changed = not np.array_equal(new.columns, self.basis.columns)
            self.basis = new
            if changed:
                self._y = None
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
        flat = np.arange(self.n) * self.n + np.asarray(perm)
        keys = _column_keys(self.basis.columns, self.n)
        costs = self.basis.columns[np.searchsorted(keys, flat), 2]
        objective = 0.0
        for term in (costs - self._delta[flat]).tolist():  # in robot order
            objective += term
        return perm[self.i], perm, objective


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
    return np.concatenate(received), flags


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
