"""Reference implementations the tests hold the library to.

No module of fleetsim calls these, so they live beside the tests and the
library's public surface holds only what its engines use: the dense
assignment LP, with its 2n-1 rows of full rank, that the dense simplex is
checked on; a lockstep assignment round with no memory between rounds; a
joint feasibility test of coupled plans; a cold receding-horizon loop
for single-agent MPC; and the formation law one neighbor at a time.
"""

import numpy as np

from fleetsim.assignment import simplex_round
from fleetsim.errors import FeasibilityError, PlanError
from fleetsim.lp import AssignmentProblem, StandardLP
from fleetsim.mpc import (
    OcpSpec,
    build_local_ocp,
    coupling_residual,
    replan_local,
    shift_plan,
    validate_plan,
)


def assignment_column(i: int, k: int, n: int) -> np.ndarray:
    """Constraint column for decision variable x_ik under the dropped-row
    convention: rows are n robot equations then the first n-1 task
    equations (the last task row is redundant and omitted)."""
    a = np.zeros(2 * n - 1)
    a[i] = 1.0
    if k < n - 1:
        a[n + k] = 1.0
    return a


def build_assignment_lp(p: AssignmentProblem) -> StandardLP:
    """Encode the assignment problem in standard form with full row rank.

    Variables x_ik are flattened as j = i*n + k. The constraint matrix is
    totally unimodular, so every basic solution (and hence every optimum
    found by the simplex) is integral.
    """
    n = p.n
    m = 2 * n - 1
    A = np.zeros((m, n * n))
    for i in range(n):
        for k in range(n):
            A[:, i * n + k] = assignment_column(i, k, n)
    return StandardLP(A=A, b=np.ones(m), c=p.cost.ravel().copy())


def reference_round(agents, comms, rnd: int) -> None:
    """One lockstep assignment round that remembers nothing between rounds.

    Every agent encodes its payload afresh and sends it with
    ``Communicator.send``; every agent then drains, decodes and parses each
    payload that arrived and solves ``simplex_round`` over all of them, so
    every received column is priced every round. Only the agents' state
    (basis, unchanged count, round count) is used, never ``absorb``; the
    agents must be honest, since a payload that fails to parse raises.
    """
    for agent, comm in zip(agents, comms):
        comm.send(agent.payload(), comm.out_neighbors, round=rnd)
    for agent, comm in zip(agents, comms):
        received = [np.empty((0, 3))]
        for j in comm.in_neighbors:
            for _, payload in comm.drain(j):
                received.append(agent.parse(payload)[0])
        new = simplex_round(agent.basis, agent.own, np.concatenate(received), agent.n)
        changed = not np.array_equal(new.columns, agent.basis.columns)
        agent.basis = new
        agent.unchanged = 0 if changed else agent.unchanged + 1
        agent.rounds += 1


def joint_feasible(specs, plans) -> bool:
    """True when every plan is valid for its spec and the plans' summed
    outputs keep the shared coupling."""
    if coupling_residual(plans, specs[0].coupling) > 1e-8:
        return False
    for spec, plan in zip(specs, plans):
        try:
            validate_plan(plan, spec)
        except PlanError:
            return False
    return True


def receding_horizon_oracle(spec: OcpSpec, steps: int,
                            replan_at=None) -> tuple[np.ndarray, np.ndarray]:
    """Single-agent receding-horizon reference loop, solved cold.

    ``replan_at`` is a predicate on the step index saying when to re-solve
    (default: every step); other steps shift the previous plan. Each
    re-solve builds a fresh OCP, which has no basis, so the reference
    shares no warm start with the loop it checks. Returns (states, inputs)
    over the closed loop, states shaped (steps+1, n).
    """
    should = (lambda t: True) if replan_at is None else replan_at
    x = spec.model.x0.copy()
    plan = None
    states = [x.copy()]
    inputs = []
    for t in range(steps):
        if plan is None or should(t):
            fresh, _ = replan_local(build_local_ocp(spec), x)
            if fresh is None:
                raise FeasibilityError("oracle problem infeasible at step %d" % t)
            plan = fresh
        inputs.append(plan.inputs[0].copy())
        x = plan.states[1].copy()
        states.append(x.copy())
        plan = shift_plan(plan, spec)
    return np.array(states), np.array(inputs)


def formation_velocity_loop(own, neigh, spec, self_id: int) -> np.ndarray:
    """The distance-based formation law summed one neighbor at a time:
    ``u += (diff @ diff - d*d) * diff`` from +0.0, in neighbor order."""
    own = np.asarray(own, dtype=float)
    u = np.zeros_like(own)
    for j, xj in neigh.items():
        d = spec.distance(self_id, j)
        diff = np.asarray(xj, dtype=float) - own
        err = float(diff @ diff) - d * d
        u += err * diff
    return u
