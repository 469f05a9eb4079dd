"""Sequential distributed MPC with coupled output constraints.

Each agent i carries discrete-time linear dynamics
x(t+1) = A x(t) + B u(t) with output z(t) = C x(t) + D u(t); outputs share
a common dimension and their network-wide sum must stay in a polyhedral
set S = {z : Hz <= h} at every step. Agents replan one at a time in a
fixed round-robin order: the agent whose turn it is receives the summed
output plans of everyone else, solves its local T-step optimal control
problem as an LP (weighted 1-norm stage cost via an epigraph encoding,
terminal equality to a declared equilibrium), and accepts the new plan
only if its cost does not exceed the old one. Everyone else keeps their
plan, so joint feasibility survives the round; the terminal-equilibrium
shift then keeps it alive across the step. That is the standard recursive
feasibility construction for this family of schemes.

Cost references default to the terminal equilibrium pair; in that
configuration the appended shift step is free and each agent's planned
cost is non-increasing over time.

Each agent's local OCP is built once per episode (:func:`build_local_ocp`)
and kept in a :class:`LocalOcp`. Between two replans of one agent only
the right-hand side moves, namely the current state and the coupling
bounds left by the others' plans, so a replan rewrites just those entries
of b and re-solves from the agent's last optimal basis, falling back to a
cold two-phase solve when that basis is infeasible for the new b. This is
the online re-solve of Ferreau, Bock & Diehl (IJRNC 18(8), 2008), and the
only way this module replans: an OCP that has not solved yet has no basis,
so its first solve is the cold one.

The closed loop is fully deterministic: the plant here is the model
itself, so applying the first planned input lands exactly on the plan's
second state.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .errors import FeasibilityError, LpError, ModelError, PlanError
from .lp import INFEASIBLE, OPTIMAL, LpBuilder, StandardLP, solve_lp

__all__ = [
    "LinearAgentModel",
    "Box",
    "Polyhedron",
    "StageCost",
    "OcpSpec",
    "Plan",
    "build_local_ocp",
    "LocalOcp",
    "replan_local",
    "plan_cost",
    "validate_plan",
    "shift_plan",
    "coupling_residual",
    "mpc_round",
    "mpc_step",
    "StepResult",
    "centralized_bootstrap",
    "receding_horizon_oracle",
]

_DYN_TOL = 1e-9
_ACCEPT_TOL = 1e-9


@dataclass(frozen=True)
class LinearAgentModel:
    """Discrete-time LTI agent with output map and initial state."""

    A: np.ndarray
    B: np.ndarray
    C: np.ndarray
    D: np.ndarray
    x0: np.ndarray

    def __post_init__(self):
        A = np.atleast_2d(np.asarray(self.A, dtype=float))
        B = np.atleast_2d(np.asarray(self.B, dtype=float))
        C = np.atleast_2d(np.asarray(self.C, dtype=float))
        D = np.atleast_2d(np.asarray(self.D, dtype=float))
        x0 = np.asarray(self.x0, dtype=float).ravel()
        n = A.shape[0]
        if A.shape != (n, n):
            raise ModelError("A must be square, got %s" % (A.shape,))
        if B.shape[0] != n:
            raise ModelError("B rows %d do not match state dim %d" % (B.shape[0], n))
        if C.shape[1] != n:
            raise ModelError("C cols %d do not match state dim %d" % (C.shape[1], n))
        if D.shape != (C.shape[0], B.shape[1]):
            raise ModelError("D shape %s inconsistent with C/B" % (D.shape,))
        if x0.shape != (n,):
            raise ModelError("x0 shape %s does not match state dim %d" % (x0.shape, n))
        for name, arr in (("A", A), ("B", B), ("C", C), ("D", D), ("x0", x0)):
            if not np.all(np.isfinite(arr)):
                raise ModelError("%s contains NaN or inf" % name)
        object.__setattr__(self, "A", A)
        object.__setattr__(self, "B", B)
        object.__setattr__(self, "C", C)
        object.__setattr__(self, "D", D)
        object.__setattr__(self, "x0", x0)

    @property
    def n(self) -> int:
        return self.A.shape[0]

    @property
    def m(self) -> int:
        return self.B.shape[1]

    @property
    def r(self) -> int:
        return self.C.shape[0]


@dataclass(frozen=True)
class Box:
    """Componentwise bounds; use +-inf to leave a side open."""

    lower: np.ndarray
    upper: np.ndarray

    def __post_init__(self):
        lo = np.asarray(self.lower, dtype=float).ravel()
        hi = np.asarray(self.upper, dtype=float).ravel()
        if lo.shape != hi.shape:
            raise ModelError("box bounds differ in length")
        if np.any(lo > hi):
            raise ModelError("box lower bound exceeds upper bound")
        object.__setattr__(self, "lower", lo)
        object.__setattr__(self, "upper", hi)

    def rows(self, dim: int):
        """(G, g) pairs equivalent to the box, finite sides only."""
        if self.lower.shape != (dim,):
            raise ModelError("box dimension %s does not match %d" % (self.lower.shape, dim))
        G, g = [], []
        eye = np.eye(dim)
        for k in range(dim):
            if np.isfinite(self.upper[k]):
                G.append(eye[k])
                g.append(self.upper[k])
            if np.isfinite(self.lower[k]):
                G.append(-eye[k])
                g.append(-self.lower[k])
        return np.array(G).reshape(-1, dim), np.array(g)


@dataclass(frozen=True)
class Polyhedron:
    """{v : G v <= g}."""

    G: np.ndarray
    g: np.ndarray

    def __post_init__(self):
        G = np.atleast_2d(np.asarray(self.G, dtype=float))
        g = np.asarray(self.g, dtype=float).ravel()
        if G.shape[0] != g.shape[0]:
            raise ModelError("polyhedron row counts differ: %s vs %s" % (G.shape, g.shape))
        object.__setattr__(self, "G", G)
        object.__setattr__(self, "g", g)

    def rows(self, dim: int):
        if self.G.shape[1] != dim:
            raise ModelError("polyhedron dimension %d does not match %d" % (self.G.shape[1], dim))
        return self.G, self.g


@dataclass(frozen=True)
class StageCost:
    """Weighted 1-norm stage cost; references default to the terminal pair."""

    w_x: np.ndarray
    w_u: np.ndarray
    x_ref: np.ndarray | None = None
    u_ref: np.ndarray | None = None

    def __post_init__(self):
        w_x = np.asarray(self.w_x, dtype=float).ravel()
        w_u = np.asarray(self.w_u, dtype=float).ravel()
        if np.any(w_x < 0) or np.any(w_u < 0):
            raise ModelError("stage cost weights must be nonnegative")
        object.__setattr__(self, "w_x", w_x)
        object.__setattr__(self, "w_u", w_u)
        if self.x_ref is not None:
            object.__setattr__(self, "x_ref", np.asarray(self.x_ref, dtype=float).ravel())
        if self.u_ref is not None:
            object.__setattr__(self, "u_ref", np.asarray(self.u_ref, dtype=float).ravel())


@dataclass(frozen=True)
class OcpSpec:
    """One agent's local optimal control problem.

    The terminal pair must be an equilibrium (xbar = A xbar + B ubar);
    plans end with a hard equality x(T) = xbar so shifting stays feasible.
    ``coupling`` is the shared output set S, identical across agents.
    """

    model: LinearAgentModel
    horizon: int
    terminal_state: np.ndarray
    terminal_input: np.ndarray
    cost: StageCost
    x_set: Box | Polyhedron | None = None
    u_set: Box | Polyhedron | None = None
    coupling: Polyhedron | None = None

    def __post_init__(self):
        if self.horizon < 1:
            raise ModelError("horizon must be at least 1")
        xbar = np.asarray(self.terminal_state, dtype=float).ravel()
        ubar = np.asarray(self.terminal_input, dtype=float).ravel()
        mdl = self.model
        if xbar.shape != (mdl.n,) or ubar.shape != (mdl.m,):
            raise ModelError("terminal pair dimensions do not match the model")
        resid = np.max(np.abs(mdl.A @ xbar + mdl.B @ ubar - xbar)) if mdl.n else 0.0
        if resid > _DYN_TOL:
            raise ModelError(
                "terminal pair is not an equilibrium (residual %.2e)" % resid
            )
        if self.cost.w_x.shape != (mdl.n,) or self.cost.w_u.shape != (mdl.m,):
            raise ModelError("stage cost weight dimensions do not match the model")
        object.__setattr__(self, "terminal_state", xbar)
        object.__setattr__(self, "terminal_input", ubar)

    @property
    def x_ref(self) -> np.ndarray:
        return self.cost.x_ref if self.cost.x_ref is not None else self.terminal_state

    @property
    def u_ref(self) -> np.ndarray:
        return self.cost.u_ref if self.cost.u_ref is not None else self.terminal_input

    @property
    def terminal_output(self) -> np.ndarray:
        return self.model.C @ self.terminal_state + self.model.D @ self.terminal_input


@dataclass(frozen=True)
class Plan:
    """An open-loop trajectory: states (T+1, n), inputs (T, m), outputs (T, r)."""

    states: np.ndarray
    inputs: np.ndarray
    outputs: np.ndarray

    def __post_init__(self):
        states = np.atleast_2d(np.asarray(self.states, dtype=float))
        inputs = np.atleast_2d(np.asarray(self.inputs, dtype=float))
        outputs = np.atleast_2d(np.asarray(self.outputs, dtype=float))
        if states.shape[0] != inputs.shape[0] + 1:
            raise PlanError(
                "plan has %d states for %d inputs" % (states.shape[0], inputs.shape[0])
            )
        if outputs.shape[0] != inputs.shape[0]:
            raise PlanError("plan outputs must cover t = 0..T-1")
        object.__setattr__(self, "states", states)
        object.__setattr__(self, "inputs", inputs)
        object.__setattr__(self, "outputs", outputs)

    @property
    def horizon(self) -> int:
        return self.inputs.shape[0]

    @classmethod
    def from_states_inputs(cls, model: LinearAgentModel, states, inputs) -> "Plan":
        states = np.atleast_2d(np.asarray(states, dtype=float))
        inputs = np.atleast_2d(np.asarray(inputs, dtype=float))
        outputs = states[:-1] @ model.C.T + inputs @ model.D.T
        return cls(states, inputs, outputs)


def validate_plan(plan: Plan, spec: OcpSpec) -> None:
    """Raise PlanError unless the plan follows the model dynamics and ends
    at the terminal state."""
    mdl = spec.model
    if plan.horizon != spec.horizon:
        raise PlanError("plan horizon %d does not match spec %d" % (plan.horizon, spec.horizon))
    pred = plan.states[:-1] @ mdl.A.T + plan.inputs @ mdl.B.T
    worst = float(np.max(np.abs(pred - plan.states[1:]))) if plan.horizon else 0.0
    if worst > _DYN_TOL:
        raise PlanError("plan violates dynamics by %.2e" % worst)
    zerr = float(np.max(np.abs(plan.states[:-1] @ mdl.C.T + plan.inputs @ mdl.D.T - plan.outputs)))
    if zerr > _DYN_TOL:
        raise PlanError("plan outputs inconsistent by %.2e" % zerr)
    term = float(np.max(np.abs(plan.states[-1] - spec.terminal_state)))
    if term > 1e-6:
        raise PlanError("plan does not end at the terminal state (off by %.2e)" % term)


def plan_cost(plan: Plan, spec: OcpSpec) -> float:
    """Weighted 1-norm cost, the same expression the LP minimizes."""
    dx = np.abs(plan.states[:-1] - spec.x_ref)
    du = np.abs(plan.inputs - spec.u_ref)
    return float((dx * spec.cost.w_x).sum() + (du * spec.cost.w_u).sum())


def _read_plan(spec: OcpSpec, extract, vx: int, vu: int, x_solution) -> Plan:
    """One agent's plan from an LP solution, given its state and input
    variables as declared by :func:`_agent_rows`."""
    T, n, m = spec.horizon, spec.model.n, spec.model.m
    xs = extract.value(x_solution, vx).reshape(T + 1, n)
    us = extract.value(x_solution, vu).reshape(T, m)
    return Plan.from_states_inputs(spec.model, xs, us)


class LocalOcp:
    """One agent's local OCP as a standard-form LP, kept for a whole episode.

    Made by :func:`build_local_ocp`. A replan rewrites only the entries of
    ``lp.b`` that hold ``x_now`` and the coupling right-hand sides
    (:meth:`set_rhs`), while A and c stay shared and read-only. ``basis``
    is the last optimal basis, the warm start of the next solve, or None
    before the first one.
    """

    def __init__(self, spec: OcpSpec, lp, extract, var_x, var_u, x_rows, coupling_rows):
        self.spec = spec
        self.lp = lp
        self._extract = extract
        self._var_x = var_x
        self._var_u = var_u
        self._x_rows = x_rows
        self._coupling_rows = coupling_rows
        self.basis: list[int] | None = None

    def set_rhs(self, x_now=None, others_sum=None) -> None:
        """Rewrite the initial state and the coupling right-hand sides
        h - H others_sum(t); ``x_now`` defaults to the model's x0 and a
        None ``others_sum`` means the other agents are at zero output."""
        spec = self.spec
        mdl = spec.model
        T, n, r = spec.horizon, mdl.n, mdl.r
        x_now = mdl.x0 if x_now is None else np.asarray(x_now, dtype=float).ravel()
        if x_now.shape != (n,):
            raise ModelError("x_now shape %s does not match state dim %d" % (x_now.shape, n))
        b = self.lp.b.copy()
        b[self._x_rows] = x_now
        if spec.coupling is not None:
            if others_sum is None:
                others = np.zeros((T, r))
            else:
                others = np.atleast_2d(np.asarray(others_sum, dtype=float))
                if others.shape != (T, r):
                    raise ModelError(
                        "others_sum shape %s, expected (%d, %d)" % (others.shape, T, r))
            H, h = spec.coupling.rows(r)
            b[self._coupling_rows] = np.concatenate([h - H @ others[t] for t in range(T)])
        self.lp = StandardLP(self.lp.A, b, self.lp.c)

    def extract_plan(self, x_solution: np.ndarray) -> Plan:
        return _read_plan(self.spec, self._extract, self._var_x, self._var_u, x_solution)


def _agent_rows(bld: LpBuilder, spec: OcpSpec, x_init: np.ndarray) -> tuple[int, int]:
    """Declare one agent's variables in ``bld`` and emit its own OCP rows
    and stage-cost weights.

    Returns the free state (T+1)n and input Tm variables; the epigraph
    slacks stay internal. Coupling rows are left to the caller, since
    they involve other agents' outputs.
    """
    mdl = spec.model
    T, n, m = spec.horizon, mdl.n, mdl.m
    vx = bld.add_var((T + 1) * n, free=True)
    vu = bld.add_var(T * m, free=True)
    vsx = bld.add_var(T * n, free=False)
    vsu = bld.add_var(T * m, free=False)

    # initial and terminal equalities
    for k in range(n):
        row = np.zeros((T + 1) * n)
        row[k] = 1.0
        bld.add_eq({vx: row}, float(x_init[k]))
        row = np.zeros((T + 1) * n)
        row[T * n + k] = 1.0
        bld.add_eq({vx: row}, float(spec.terminal_state[k]))

    # dynamics x(t+1) = A x(t) + B u(t)
    for t in range(T):
        for k in range(n):
            rx = np.zeros((T + 1) * n)
            rx[(t + 1) * n + k] = 1.0
            rx[t * n : (t + 1) * n] -= mdl.A[k]
            ru = np.zeros(T * m)
            ru[t * m : (t + 1) * m] = -mdl.B[k]
            bld.add_eq({vx: rx, vu: ru}, 0.0)

    # epigraph rows: +-(v - ref) <= s, states then inputs at each t
    for t in range(T):
        for v, vs, size, dim, ref in ((vx, vsx, (T + 1) * n, n, spec.x_ref),
                                      (vu, vsu, T * m, m, spec.u_ref)):
            for k in range(dim):
                for sign in (1.0, -1.0):
                    rv = np.zeros(size)
                    rv[t * dim + k] = sign
                    rs = np.zeros(T * dim)
                    rs[t * dim + k] = -1.0
                    bld.add_le({v: rv, vs: rs}, sign * float(ref[k]))

    # state set on x(1..T), input set on u(0..T-1)
    for v, size, dim, region, first in ((vx, (T + 1) * n, n, spec.x_set, 1),
                                        (vu, T * m, m, spec.u_set, 0)):
        if region is None:
            continue
        G, g = region.rows(dim)
        for t in range(first, first + T):
            for row, rhs in zip(G, g):
                rv = np.zeros(size)
                rv[t * dim : (t + 1) * dim] = row
                bld.add_le({v: rv}, float(rhs))

    bld.add_cost(vsx, np.tile(spec.cost.w_x, T))
    bld.add_cost(vsu, np.tile(spec.cost.w_u, T))
    return vx, vu


def _output_terms(spec: OcpSpec, t: int, row: np.ndarray, vx: int, vu: int) -> dict:
    """Coefficients of row . z(t) = row . (C x(t) + D u(t)) on one agent's
    state and input variables."""
    T, n, m = spec.horizon, spec.model.n, spec.model.m
    rx = np.zeros((T + 1) * n)
    rx[t * n : (t + 1) * n] = row @ spec.model.C
    ru = np.zeros(T * m)
    ru[t * m : (t + 1) * m] = row @ spec.model.D
    return {vx: rx, vu: ru}


def build_local_ocp(spec: OcpSpec) -> LocalOcp:
    """Encode one agent's T-step OCP as a standard-form LP, once per episode.

    Coupling rows read H z_i(t) <= h - H others_sum(t), where others_sum
    is the (T, r) summed output plan of the other agents. The OCP records
    which rows of b hold x_now and those bounds: the initial equalities,
    rows 2k of :func:`_agent_rows`, and the coupling rows, which come
    last. It starts at the model's x0 with the others at zero output;
    replans rewrite just those rows through :meth:`LocalOcp.set_rhs`.
    """
    mdl = spec.model
    T, n, r = spec.horizon, mdl.n, mdl.r
    bld = LpBuilder()
    # the right-hand sides that move are written by set_rhs below
    vx, vu = _agent_rows(bld, spec, np.zeros(n))

    # coupled output rows: H (C x(t) + D u(t)) <= h - H others(t)
    n_coupling = 0
    if spec.coupling is not None:
        H, _ = spec.coupling.rows(r)
        for t in range(T):
            for row in H:
                bld.add_le(_output_terms(spec, t, row, vx, vu), 0.0)
        n_coupling = T * H.shape[0]

    lp, extract = bld.build()
    ocp = LocalOcp(spec, lp, extract, vx, vu, 2 * np.arange(n),
                   np.arange(lp.m - n_coupling, lp.m))
    ocp.set_rhs()
    return ocp


def replan_local(ocp: LocalOcp, x_now, others_sum=None):
    """Re-solve an agent's local OCP from ``x_now`` against the others'
    summed outputs. Returns (plan, cost) or (None, None) if infeasible.

    Only the OCP's b is rewritten, and the solve warm-starts from its last
    optimal basis; an OCP with no basis yet solves cold.
    """
    ocp.set_rhs(x_now, others_sum)
    sol = solve_lp(ocp.lp, basis=ocp.basis)
    # a basis that lost a dependent row has no place in the full LP
    keep = sol.status == OPTIMAL and sol.kept_rows is None
    ocp.basis = sol.basis if keep else None
    if sol.status == INFEASIBLE:
        return None, None
    if sol.status != OPTIMAL:
        raise LpError("local OCP solve ended %s" % sol.status)
    plan = ocp.extract_plan(sol.x)
    return plan, plan_cost(plan, ocp.spec)


def shift_plan(plan: Plan, spec: OcpSpec) -> Plan:
    """Advance one step: drop stage 0, append the terminal equilibrium.

    The input plan is validated first; a dynamically inconsistent plan
    raises PlanError rather than silently producing garbage.
    """
    validate_plan(plan, spec)
    mdl = spec.model
    states = np.vstack([plan.states[1:], spec.terminal_state])
    inputs = np.vstack([plan.inputs[1:], spec.terminal_input])
    outputs = np.vstack([plan.outputs[1:], spec.terminal_output])
    new = Plan(states, inputs, outputs)
    # the appended step must itself follow the dynamics
    tail = mdl.A @ states[-2] + mdl.B @ inputs[-1]
    if float(np.max(np.abs(tail - states[-1]))) > _DYN_TOL:
        raise PlanError("shifted plan violates dynamics at the appended step")
    return new


def coupling_residual(plans: list[Plan], coupling: Polyhedron | None) -> float:
    """Worst violation of H sum_i z_i(t) <= h over the common horizon (>= 0)."""
    if coupling is None:
        return 0.0
    total = plans[0].outputs.copy()
    for p in plans[1:]:
        total = total + p.outputs
    slack = total @ coupling.G.T - coupling.g
    return float(max(np.max(slack), 0.0))


def joint_feasible(specs, plans) -> bool:
    if coupling_residual(plans, specs[0].coupling) > 1e-8:
        return False
    for spec, plan in zip(specs, plans):
        try:
            validate_plan(plan, spec)
        except PlanError:
            return False
    return True


def mpc_round(ocps: list[LocalOcp], plans: list[Plan], turn: int,
              others_outputs=None) -> tuple[list[Plan], bool]:
    """One negotiation round: the turn agent replans on its episode-long
    OCP (see :func:`replan_local`), everyone else holds.

    ``others_outputs`` optionally injects the communicated (T, r) output
    sum; by default it is assembled from the plan list. Returns the new
    plan list and whether the turn agent adopted a new plan. An infeasible
    local solve keeps the old plan with a warning; if the old plan is
    itself broken there is nothing to fall back to and FeasibilityError
    is raised.
    """
    if not 0 <= turn < len(ocps):
        raise ModelError("turn %d out of range" % turn)
    ocp = ocps[turn]
    spec = ocp.spec
    old = plans[turn]
    if others_outputs is None and spec.coupling is not None:
        # only meaningful under a coupling, where all agents share the
        # output dimension; decoupled agents may have differing shapes
        others_outputs = sum(
            (p.outputs for j, p in enumerate(plans) if j != turn),
            np.zeros_like(old.outputs),
        )
    try:
        validate_plan(old, spec)
        old_cost = plan_cost(old, spec)
    except PlanError as exc:
        raise FeasibilityError("agent %d has no valid fallback plan" % turn) from exc

    new_plan, new_cost = replan_local(ocp, old.states[0], others_outputs)
    if new_plan is None:
        warnings.warn(
            "agent %d local solve infeasible; keeping previous plan" % turn,
            RuntimeWarning,
            stacklevel=2,
        )
        return list(plans), False
    if new_cost <= old_cost + _ACCEPT_TOL:
        out = list(plans)
        out[turn] = new_plan
        return out, True
    return list(plans), False


@dataclass
class StepResult:
    plans: list[Plan]
    states: list[np.ndarray]
    applied_residual: float


def mpc_step(ocps: list[LocalOcp], plans: list[Plan], t: int) -> StepResult:
    """One closed-loop step over the agents' episode-long OCPs:
    round-robin replan, apply, shift.

    The turn at time t is t mod N. Applied states come straight off the
    plans (the plant is the model), and the returned plans are shifted so
    they start at t+1. ``applied_residual`` is the coupling violation at
    the applied step.
    """
    plans, _ = mpc_round(ocps, plans, t % len(ocps))
    specs = [ocp.spec for ocp in ocps]
    coupling = specs[0].coupling
    applied_residual = 0.0
    if coupling is not None:
        slack = coupling.G @ sum(p.outputs[0] for p in plans) - coupling.g
        applied_residual = float(max(np.max(slack), 0.0))
    return StepResult(
        plans=[shift_plan(p, s) for p, s in zip(plans, specs)],
        states=[p.states[1].copy() for p in plans],
        applied_residual=applied_residual,
    )


def centralized_bootstrap(specs: list[OcpSpec], x_now=None) -> list[Plan]:
    """Jointly feasible (and jointly optimal) initial plans, solved in one
    stacked LP. Test and startup scaffolding: the closed loop itself stays
    distributed, this only seeds it with a feasible joint plan at t = 0.
    """
    T = specs[0].horizon
    r = specs[0].model.r
    coupled = any(s.coupling is not None for s in specs)
    for s in specs:
        if s.horizon != T:
            raise ModelError("bootstrap requires a shared horizon")
        if coupled and s.model.r != r:
            raise ModelError("coupled agents must share the output dimension")
    states0 = [s.model.x0 for s in specs] if x_now is None else x_now

    bld = LpBuilder()
    blocks = [
        _agent_rows(bld, s, np.asarray(states0[idx], dtype=float).ravel())
        for idx, s in enumerate(specs)
    ]

    coupling = specs[0].coupling
    if coupling is not None:
        H, h = coupling.rows(r)
        for t in range(T):
            for row, rhs in zip(H, h):
                coeffs = {}
                for s, (vx, vu) in zip(specs, blocks):
                    coeffs.update(_output_terms(s, t, row, vx, vu))
                bld.add_le(coeffs, float(rhs))

    lp, extract = bld.build()
    sol = solve_lp(lp)
    if sol.status != OPTIMAL:
        raise FeasibilityError("no jointly feasible initial plan exists (%s)" % sol.status)
    return [_read_plan(s, extract, vx, vu, sol.x) for s, (vx, vu) in zip(specs, blocks)]


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
