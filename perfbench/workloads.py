"""Workload inputs and operations.

Everything in this module runs inside the set-up window or the timed
window, so it imports only what the program itself imports. The oracles
that need scipy live in ``checks.py`` and load after timing ends.

Every operation is deterministic: calling it twice repeats the same work
on the same inputs, so the spread between its repeats is machine noise.
"""

from __future__ import annotations

import os

import numpy as np

from fleetsim import assignment, netgraph, simrunner, transport
from fleetsim.errors import NonConvergenceError

WORKLOADS = ("formation_hex", "assign_solve", "dmpc_coupled")

FORMATION_EPISODES = 1
FORMATION_STEPS = 1000
FORMATION_DT = 0.01

ASSIGN_N = 12
ASSIGN_P = 0.4
ASSIGN_DROP = 0.3
ASSIGN_FULL = 12
ASSIGN_DRAIN = 4
# drain-shaped problems do not depend on --seed: they fail or pass the
# same way in every run, so the failed share of a run is a constant
DRAIN_SEED = 297

MPC_N = 4
MPC_STEPS = 40
MPC_EPISODES = 2


class Op:
    """One operation of a workload.

    ``shape`` names the kind of input (``full_static``, ``drain`` ...);
    ``agent_ticks`` is known up front for the scenario workloads and is
    filled in after the run for assignment solves, whose round count is
    the program's output.
    """

    def __init__(self, index: int, shape: str, call, agent_ticks: int | None = None, **inputs):
        self.index = index
        self.shape = shape
        self.call = call
        self.agent_ticks = agent_ticks
        self.inputs = inputs


class Outcome:
    """What one execution of an op returned or raised."""

    def __init__(self, value=None, error: NonConvergenceError | None = None):
        self.value = value
        self.error = error

    @property
    def failed(self) -> bool:
        return self.error is not None


def _seeds(seed: int, tag: int, count: int) -> list[int]:
    rng = np.random.default_rng([seed, tag])
    return [int(s) for s in rng.integers(0, 2**31 - 1, size=count)]


def _scenario_op(index: int, shape: str, cfg, trace_path: str, ticks: int) -> Op:
    def call():
        # looked up on every call so the traced run sees its wrapper
        return Outcome(simrunner.run_scenario(cfg, trace_path))

    return Op(index, shape, call, agent_ticks=ticks, config=cfg, trace=trace_path)


def formation_ops(seed: int, out_dir: str) -> list[Op]:
    """Six unicycles settle into the unit hexagon over ring-plus-bracing
    links, static reliable profile, 1000 ticks at dt = 0.01 each."""
    ops = []
    for j, cs in enumerate(_seeds(seed, 1, FORMATION_EPISODES)):
        base = simrunner.default_config(
            "formation", 6, seed=cs, dt=FORMATION_DT, duration=FORMATION_STEPS * FORMATION_DT
        )
        raw = dict(base.raw)
        raw["formation"] = dict(raw["formation"], model="unicycle")
        cfg = simrunner.parse_config(raw)
        path = os.path.join(out_dir, "op%d.jsonl" % j)
        ops.append(_scenario_op(j, "episode", cfg, path, 6 * FORMATION_STEPS))
    return ops


def mpc_ops(seed: int, out_dir: str) -> list[Op]:
    """The default ``fleetsim run mpc`` problem at n = 4, run for 40
    closed-loop steps: scalar integrators, horizon 8, |u| <= 1, sum z <= 2."""
    ops = []
    for j, cs in enumerate(_seeds(seed, 3, MPC_EPISODES)):
        base = simrunner.default_config("mpc", MPC_N, seed=cs)
        raw = dict(base.raw)
        raw["mpc"] = dict(raw["mpc"], steps=MPC_STEPS)
        cfg = simrunner.parse_config(raw)
        path = os.path.join(out_dir, "op%d.jsonl" % j)
        ops.append(_scenario_op(j, "episode", cfg, path, MPC_N * MPC_STEPS))
    return ops


def _assignment_problem(rng: np.random.Generator, live: int):
    """Connected G(12, 0.4) and Euclidean robot-to-task costs on [0, 2]^2.

    With ``live`` < n only the first ``live`` columns are real tasks and
    the rest stay zero, the shape the task cloud builds once its backlog
    drains (``simrunner/scenarios.py``, the zero-padded cost matrix).
    """
    graph = netgraph.erdos_renyi(
        ASSIGN_N, ASSIGN_P, int(rng.integers(0, 2**31 - 1)), require_connected=True
    )
    robots = rng.uniform(0.0, 2.0, size=(ASSIGN_N, 2))
    tasks = rng.uniform(0.0, 2.0, size=(live, 2))
    costs = np.zeros((ASSIGN_N, ASSIGN_N))
    costs[:, :live] = assignment.costs_from_positions(robots, tasks)
    return graph, costs


def _solve_op(index: int, shape: str, graph, costs, profile: str, tc) -> Op:
    def call():
        try:
            return Outcome(assignment.solve_assignment_network(
                costs, graph, profile=profile, transport=tc
            ))
        except NonConvergenceError as exc:
            return Outcome(error=exc)

    return Op(index, shape, call, graph=graph, costs=costs, profile=profile, transport=tc)


def assign_ops(seed: int) -> list[Op]:
    """Distributed-simplex solves at n = 12.

    Three in four have a full task window, alternating between the static
    reliable profile and best-effort links with 30% drop; one in four is
    drain-shaped. Full-window inputs come from ``seed``; drain-shaped ones
    from the fixed ``DRAIN_SEED``.
    """
    full_seeds = _seeds(seed, 2, ASSIGN_FULL)
    ops: list[Op] = []
    full = drain = 0
    while full < ASSIGN_FULL or drain < ASSIGN_DRAIN:
        index = len(ops)
        if index % 4 == 3:
            rng = np.random.default_rng([DRAIN_SEED, drain])
            live = int(rng.integers(1, ASSIGN_N))
            graph, costs = _assignment_problem(rng, live)
            ops.append(_solve_op(index, "drain", graph, costs, "static", None))
            drain += 1
            continue
        rng = np.random.default_rng(full_seeds[full])
        graph, costs = _assignment_problem(rng, ASSIGN_N)
        if full % 2 == 0:
            ops.append(_solve_op(index, "full_static", graph, costs, "static", None))
        else:
            tc = transport.TransportConfig(
                drop_prob=ASSIGN_DROP, rng_seed=int(rng.integers(0, 2**31 - 1))
            )
            ops.append(_solve_op(index, "full_lossy", graph, costs, "best_effort", tc))
        full += 1
    return ops


def build(workload: str, seed: int, out_root: str) -> list[Op]:
    """The ops of one workload, in the order a round runs them."""
    out_dir = os.path.join(out_root, workload)
    os.makedirs(out_dir, exist_ok=True)
    if workload == "formation_hex":
        return formation_ops(seed, out_dir)
    if workload == "assign_solve":
        return assign_ops(seed)
    if workload == "dmpc_coupled":
        return mpc_ops(seed, out_dir)
    raise ValueError("unknown workload %r" % (workload,))

