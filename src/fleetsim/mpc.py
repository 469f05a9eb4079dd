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
of b and re-solves from the agent's last optimal basis, dual feasible
for every b: in one matrix-vector product with its kept factor while
B^-1 b >= 0 (a critical region), else by dual simplex. This is the online
re-solve of Ferreau, Bock & Diehl (IJRNC 18(8), 2008), and the only way
this module replans. :func:`centralized_bootstrap` starts from these
OCPs' own optima, builds their joint LP only when those break the shared
budget, and hands each a dual feasible basis, so no replan runs phase 1;
an OCP without a basis solves cold. A plan is validated once, where it
enters the loop, and a shift checks only the step it appends.

:func:`mpc_step` is the one closed loop: the ``mpc`` scenario engine
runs it each step and adds only the bus exchange of the plans and the
trace. It is fully deterministic: the plant here is the model itself, so
applying the first planned input lands exactly on the plan's second state.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from functools import cached_property
from itertools import accumulate

import numpy as np

from .errors import FeasibilityError, LpError, ModelError, PlanError
from .lp import INFEASIBLE, OPTIMAL, StandardLP, solve_lp

__all__ = [
    "LinearAgentModel",
    "Polyhedron",
    "StageCost",
    "OcpSpec",
    "Plan",
    "build_local_ocp",
    "build_local_ocps",
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
    "check_terminal_coupling",
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
class Polyhedron:
    """{v : G v <= g}, with finite G and g; :meth:`box` builds bounds."""

    G: np.ndarray
    g: np.ndarray

    def __post_init__(self):
        G = np.atleast_2d(np.asarray(self.G, dtype=float))
        g = np.asarray(self.g, dtype=float).ravel()
        if G.shape[0] != g.shape[0]:
            raise ModelError("polyhedron row counts differ: %s vs %s" % (G.shape, g.shape))
        for name, arr in (("G", G), ("g", g)):
            if not np.all(np.isfinite(arr)):
                raise ModelError("polyhedron %s contains NaN or inf" % name)
        object.__setattr__(self, "G", G)
        object.__setattr__(self, "g", g)

    @classmethod
    def box(cls, lower, upper) -> "Polyhedron":
        """Componentwise bounds lower <= v <= upper; +-inf leaves a side
        open. Per component, the row v_k <= upper_k and then the row
        -v_k <= -lower_k, finite sides only."""
        lo = np.asarray(lower, dtype=float).ravel()
        hi = np.asarray(upper, dtype=float).ravel()
        if lo.shape != hi.shape:
            raise ModelError("box bounds differ in length")
        if np.isnan(lo).any() or np.isnan(hi).any():
            raise ModelError("box bounds contain NaN")
        if np.any(lo > hi):
            raise ModelError("box lower bound exceeds upper bound")
        eye = np.eye(lo.size)
        G = np.stack([eye, -eye], axis=1).reshape(2 * lo.size, lo.size)
        g = np.stack([hi, -lo], axis=1).ravel()
        keep = np.isfinite(g)
        return cls(G[keep], g[keep])


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
    ``coupling`` is the shared output set S, identical across agents. The
    terminal pair, references and weights must be finite and as long as
    the model's state and input, and the sets as wide as its state, input
    and output; anything else raises ModelError here.
    """

    model: LinearAgentModel
    horizon: int
    terminal_state: np.ndarray
    terminal_input: np.ndarray
    cost: StageCost
    x_set: Polyhedron | None = None
    u_set: Polyhedron | None = None
    coupling: Polyhedron | None = None

    def __post_init__(self):
        if self.horizon < 1:
            raise ModelError("horizon must be at least 1")
        xbar = np.asarray(self.terminal_state, dtype=float).ravel()
        ubar = np.asarray(self.terminal_input, dtype=float).ravel()
        mdl, cost = self.model, self.cost
        x_ref = xbar if cost.x_ref is None else cost.x_ref
        u_ref = ubar if cost.u_ref is None else cost.u_ref
        for name, vec, dim in (("terminal_state", xbar, mdl.n), ("terminal_input", ubar, mdl.m),
                               ("x_ref", x_ref, mdl.n), ("u_ref", u_ref, mdl.m),
                               ("w_x", cost.w_x, mdl.n), ("w_u", cost.w_u, mdl.m)):
            if vec.shape != (dim,):
                raise ModelError("%s has %d entries, the model needs %d" % (name, vec.size, dim))
            if not np.all(np.isfinite(vec)):
                raise ModelError("%s contains NaN or inf" % name)
        for name, region, dim in (("x_set", self.x_set, mdl.n), ("u_set", self.u_set, mdl.m),
                                  ("coupling", self.coupling, mdl.r)):
            if region is not None and region.G.shape[1] != dim:
                raise ModelError("%s: polyhedron dimension %d does not match %d"
                                 % (name, region.G.shape[1], dim))
        resid = np.max(np.abs(mdl.A @ xbar + mdl.B @ ubar - xbar)) if mdl.n else 0.0
        if resid > _DYN_TOL:
            raise ModelError(
                "terminal pair is not an equilibrium (residual %.2e)" % resid
            )
        object.__setattr__(self, "terminal_state", xbar)
        object.__setattr__(self, "terminal_input", ubar)

    @property
    def x_ref(self) -> np.ndarray:
        return self.cost.x_ref if self.cost.x_ref is not None else self.terminal_state

    @property
    def u_ref(self) -> np.ndarray:
        return self.cost.u_ref if self.cost.u_ref is not None else self.terminal_input

    @cached_property
    def terminal_output(self) -> np.ndarray:
        z = self.model.C @ self.terminal_state + self.model.D @ self.terminal_input
        z.setflags(write=False)
        return z


@dataclass(frozen=True)
class Plan:
    """An open-loop trajectory: states (T+1, n), inputs (T, m), outputs (T, r).

    A value: the plan holds read-only 2-d float64 copies of the arrays it
    is given, so no caller can change it later. ``valid_for`` is the spec
    the plan last passed :func:`validate_plan` against, or None.
    """

    states: np.ndarray
    inputs: np.ndarray
    outputs: np.ndarray
    valid_for: OcpSpec | None = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        for name in ("states", "inputs", "outputs"):
            a = np.array(getattr(self, name), dtype=float, ndmin=2)
            if a.ndim != 2:
                raise PlanError("plan %s must be 2-d, got shape %s" % (name, a.shape))
            a.setflags(write=False)
            object.__setattr__(self, name, a)
        T = self.inputs.shape[0]
        if self.states.shape[0] != T + 1:
            raise PlanError("plan has %d states for %d inputs" % (self.states.shape[0], T))
        if self.outputs.shape[0] != T:
            raise PlanError("plan outputs must cover t = 0..T-1")

    @property
    def horizon(self) -> int:
        return self.inputs.shape[0]


def validate_plan(plan: Plan, spec: OcpSpec) -> None:
    """Raise PlanError unless the plan's arrays are as wide as the model's
    state, input and output, it follows the model dynamics and it ends at
    the terminal state; a NaN anywhere fails the check it reaches.

    A plan that passes is marked valid for ``spec`` (``Plan.valid_for``)
    and is not checked again against that spec: its arrays are read-only,
    so it stays valid.
    """
    if plan.valid_for is spec:
        return
    mdl = spec.model
    if plan.horizon != spec.horizon:
        raise PlanError("plan horizon %d does not match spec %d" % (plan.horizon, spec.horizon))
    for name, dim in (("states", mdl.n), ("inputs", mdl.m), ("outputs", mdl.r)):
        width = getattr(plan, name).shape[1]
        if width != dim:
            raise PlanError("plan %s are %d wide, the model needs %d" % (name, width, dim))
    pred = plan.states[:-1] @ mdl.A.T + plan.inputs @ mdl.B.T
    worst = float(np.max(np.abs(pred - plan.states[1:]))) if plan.horizon else 0.0
    if not worst <= _DYN_TOL:
        raise PlanError("plan violates dynamics by %.2e" % worst)
    zerr = float(np.max(np.abs(plan.states[:-1] @ mdl.C.T + plan.inputs @ mdl.D.T - plan.outputs)))
    if not zerr <= _DYN_TOL:
        raise PlanError("plan outputs inconsistent by %.2e" % zerr)
    term = float(np.max(np.abs(plan.states[-1] - spec.terminal_state)))
    if not term <= 1e-6:
        raise PlanError("plan does not end at the terminal state (off by %.2e)" % term)
    object.__setattr__(plan, "valid_for", spec)


def plan_cost(plan: Plan, spec: OcpSpec) -> float:
    """Weighted 1-norm cost, the same expression the LP minimizes."""
    dx = np.abs(plan.states[:-1] - spec.x_ref)
    du = np.abs(plan.inputs - spec.u_ref)
    return float((dx * spec.cost.w_x).sum() + (du * spec.cost.w_u).sum())


class LocalOcp:
    """One agent's local OCP as a standard-form LP, kept for a whole episode.

    Made by :func:`build_local_ocps` (the LP's layout is in
    :func:`build_local_ocp`), at the model's x0 with the others at zero
    output. A replan rewrites only the entries of ``lp.b`` that hold
    ``x_now`` and the coupling right-hand sides (:meth:`set_rhs`); A and c
    are read-only, shared by the OCPs of identical agents. ``basis`` is the
    last optimal basis, the warm start of the next solve (that solve's
    ``warm`` basis, with its factor), or None before the first one.
    """

    def __init__(self, spec: OcpSpec, lp: StandardLP):
        self.spec = spec
        self.lp = lp
        k = 0 if spec.coupling is None else spec.horizon * len(spec.coupling.g)
        self._x_rows, self._coupling_rows = 2 * np.arange(spec.model.n), np.arange(lp.m - k, lp.m)
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
            others = np.atleast_2d(np.zeros((T, r)) if others_sum is None
                                   else np.asarray(others_sum, dtype=float))
            if others.shape != (T, r):
                raise ModelError("others_sum shape %s, expected (%d, %d)" % (others.shape, T, r))
            H, h = spec.coupling.G, spec.coupling.g
            b[self._coupling_rows] = np.concatenate([h - H @ others[t] for t in range(T)])
        self.lp = self.lp.with_rhs(b)

    def extract_plan(self, x_solution: np.ndarray) -> Plan:
        """The plan in a solution of ``lp``, or of any LP whose leading
        columns are this OCP's columns in order."""
        spec = self.spec
        T, n, m = spec.horizon, spec.model.n, spec.model.m
        nx, nu = (T + 1) * n, T * m
        xs = x_solution[:nx] - x_solution[nx:2 * nx]
        us = x_solution[2 * nx:2 * nx + nu] - x_solution[2 * nx + nu:2 * (nx + nu)]
        states, inputs = xs.reshape(T + 1, n), us.reshape(T, m)
        return Plan(states, inputs, states[:-1] @ spec.model.C.T + inputs @ spec.model.D.T)


def build_local_ocp(spec: OcpSpec) -> LocalOcp:
    """Encode one agent's T-step OCP as a standard-form LP, once per episode
    (:func:`build_local_ocps` on this one spec).

    Columns: the states x(0..T) and inputs u(0..T-1), each split as
    [x+, x-, u+, u-]; the epigraph slacks of all states, then of all
    inputs; one slack per inequality row. Rows, one block per family:

    - x(0)_k = x_now_k (row 2k) and x(T)_k = xbar_k (row 2k + 1);
    - the dynamics x(t+1) = A x(t) + B u(t);
    - +-(v - ref) <= s, both signs of each component v of x(t), then of
      u(t), step by step;
    - the state set on x(1..T), then the input set on u(0..T-1);
    - the coupling rows H (C x(t) + D u(t)) <= h - H others_sum(t), with
      others_sum the (T, r) summed output plan of the other agents.

    So the agent's own rows and columns come first, and the coupling rows
    and their slacks last: :func:`centralized_bootstrap` stacks the OCPs on
    that split, and :meth:`LocalOcp.set_rhs` rewrites the rows 2k and the
    coupling rows. The OCP starts at the model's x0 with the others at
    zero output.
    """
    return build_local_ocps([spec])[0]


def build_local_ocps(specs: list[OcpSpec]) -> list[LocalOcp]:
    """:func:`build_local_ocp` for each spec. Specs bitwise equal in what
    shapes A and c (the model's A, B, C and D, the horizon, the weights,
    the sets' and the coupling's matrices) share one read-only A and c as
    long as their OCPs live; each OCP has its own b."""
    groups: dict = {}  # what shapes A and c -> the first LP built with them
    ocps = []
    for spec in specs:
        mdl, T, sets = spec.model, spec.horizon, (spec.x_set, spec.u_set, spec.coupling)
        key = (T, *(None if a is None else (a.shape, a.tobytes()) for a in (
            mdl.A, mdl.B, mdl.C, mdl.D, spec.cost.w_x, spec.cost.w_u,
            *(getattr(s, "G", None) for s in sets))))
        # b family by family, at x0 with the others at zero output
        ref = np.kron(np.tile(np.concatenate([spec.x_ref, spec.u_ref]), T), [1.0, -1.0])
        ends = np.column_stack([mdl.x0, spec.terminal_state]).ravel()
        b = np.concatenate([ends, np.zeros(T * mdl.n), ref,
                            *(np.tile(s.g, T) for s in sets if s is not None)])
        if key not in groups:
            groups[key] = _ocp_lp(spec, b)
        ocps.append(LocalOcp(spec, groups[key].with_rhs(b)))
    return ocps


def _ocp_lp(spec: OcpSpec, b: np.ndarray) -> StandardLP:
    """The LP that :func:`build_local_ocp` lays out, with right-hand side b."""
    mdl = spec.model
    T, n, m = spec.horizon, mdl.n, mdl.m
    nx, nu = (T + 1) * n, T * m
    # kron patterns that put a per-step block on x(0..T-1), x(1..T), u(0..T-1)
    now, nxt, I_T = np.eye(T, T + 1), np.eye(T, T + 1, 1), np.eye(T)
    pairs = np.zeros((2 * n, nx))
    pairs[0::2, :n] = pairs[1::2, T * n:] = np.eye(n)
    epi = np.kron(np.eye(n + m), [[1.0], [-1.0]])
    epi_s = np.kron(np.eye(n + m), [[-1.0], [-1.0]])
    # (x coefficients, u coefficients, epigraph-slack coefficients), one
    # family per block of rows; None is a zero block
    families = [
        (pairs, None, None),
        (np.kron(nxt, np.eye(n)) - np.kron(now, mdl.A), -np.kron(I_T, mdl.B), None),
        (np.kron(now, epi[:, :n]), np.kron(I_T, epi[:, n:]),
         np.hstack([np.kron(I_T, epi_s[:, :n]), np.kron(I_T, epi_s[:, n:])])),
    ]
    if spec.x_set is not None:
        families.append((np.kron(nxt, spec.x_set.G), None, None))
    if spec.u_set is not None:
        families.append((None, np.kron(I_T, spec.u_set.G), None))
    if spec.coupling is not None:
        H = spec.coupling.G
        # row by row: a BLAS matrix product may round H @ C differently
        HC = np.array([h @ mdl.C for h in H]).reshape(len(H), n)
        HD = np.array([h @ mdl.D for h in H]).reshape(len(H), m)
        families.append((np.kron(now, HC), np.kron(I_T, HD), None))

    heights = [len(f[0] if f[0] is not None else f[1]) for f in families]
    X, U, S = (np.vstack([np.zeros((k, w)) if f[j] is None else f[j]
                          for f, k in zip(families, heights)])
               for j, w in enumerate((nx, nu, T * (n + m))))
    n_eq = 2 * n + T * n
    # 0.0 + M and 0.0 - M store every zero as +0.0, so A and c hold no -0.0
    A = np.hstack([0.0 + X, 0.0 - X, 0.0 + U, 0.0 - U, 0.0 + S, np.eye(len(b))[:, n_eq:]])
    c = np.concatenate([np.zeros(2 * (nx + nu)), np.tile(spec.cost.w_x, T),
                        np.tile(spec.cost.w_u, T), np.zeros(len(b) - n_eq)]) + 0.0
    return StandardLP(A, b, c)


def replan_local(ocp: LocalOcp, x_now, others_sum=None):
    """Re-solve an agent's local OCP from ``x_now`` against the others'
    summed outputs. Returns (plan, cost) or (None, None) if infeasible.

    Only the OCP's b is rewritten, and the solve warm-starts from its last
    optimal basis, which an infeasible solve keeps; with none it is cold.
    """
    ocp.set_rhs(x_now, others_sum)
    sol = solve_lp(ocp.lp, basis=ocp.basis)
    if sol.status == INFEASIBLE:
        return None, None
    if sol.status != OPTIMAL:
        raise LpError("local OCP solve ended %s" % sol.status)
    ocp.basis = sol.warm  # None after a dropped row: it fits only the cut LP
    plan = ocp.extract_plan(sol.x)
    return plan, plan_cost(plan, ocp.spec)


def shift_plan(plan: Plan, spec: OcpSpec) -> Plan:
    """Advance one step: drop stage 0, append the terminal equilibrium.

    The input plan must be valid for ``spec``: one marked so by
    :func:`validate_plan` is taken as it is, any other is validated in
    full, and a dynamically inconsistent plan raises PlanError rather than
    silently producing garbage. The shift then checks only the step it
    appends, and returns a plan marked valid for ``spec``.
    """
    validate_plan(plan, spec)
    mdl = spec.model
    states = np.concatenate([plan.states[1:], spec.terminal_state[None]])
    inputs = np.concatenate([plan.inputs[1:], spec.terminal_input[None]])
    outputs = np.concatenate([plan.outputs[1:], spec.terminal_output[None]])
    new = Plan(states, inputs, outputs)
    # the appended step must itself follow the dynamics and the output map;
    # from exactly xbar it is the equilibrium step that OcpSpec checked
    if not (states[-2] == states[-1]).all():
        tail = mdl.A @ states[-2] + mdl.B @ inputs[-1]
        if float(np.max(np.abs(tail - states[-1]))) > _DYN_TOL:
            raise PlanError("shifted plan violates dynamics at the appended step")
        zerr = mdl.C @ states[-2] + mdl.D @ inputs[-1] - outputs[-1]
        if float(np.max(np.abs(zerr))) > _DYN_TOL:
            raise PlanError("shifted plan outputs inconsistent at the appended step")
    object.__setattr__(new, "valid_for", spec)
    return new


def _overspend(total: np.ndarray, coupling: Polyhedron) -> float:
    """Worst violation max(H z - h, 0) over the rows z of a summed-output
    array, or over one such row."""
    return float(max(np.max(total @ coupling.G.T - coupling.g), 0.0))


def coupling_residual(plans: list[Plan], coupling: Polyhedron | None) -> float:
    """Worst violation of H sum_i z_i(t) <= h over the common horizon (>= 0)."""
    if coupling is None:
        return 0.0
    return _overspend(sum(p.outputs for p in plans), coupling)


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
    plans, accepted, _ = _round(ocps, plans, turn, others_outputs)
    return plans, accepted


def _round(ocps, plans, turn, others_outputs):
    """:func:`mpc_round`, also returning the cost of the turn agent's plan
    in the returned list, which the round has priced."""
    if not 0 <= turn < len(ocps):
        raise ModelError("turn %d out of range" % turn)
    ocp = ocps[turn]
    spec = ocp.spec
    old = plans[turn]
    try:
        validate_plan(old, spec)
    except PlanError as exc:
        raise FeasibilityError("agent %d has no valid fallback plan" % turn) from exc
    old_cost = plan_cost(old, spec)
    if others_outputs is None and spec.coupling is not None:
        # only meaningful under a coupling, where all agents share the
        # output dimension; decoupled agents may have differing shapes
        others_outputs = sum(
            (p.outputs for j, p in enumerate(plans) if j != turn),
            np.zeros_like(old.outputs),
        )

    new_plan, new_cost = replan_local(ocp, old.states[0], others_outputs)
    if new_plan is None:
        warnings.warn(
            "agent %d local solve infeasible; keeping previous plan" % turn,
            RuntimeWarning,
            stacklevel=3,
        )
        return list(plans), False, old_cost
    if new_cost <= old_cost + _ACCEPT_TOL:
        out = list(plans)
        out[turn] = new_plan
        return out, True, new_cost
    return list(plans), False, old_cost


@dataclass
class StepResult:
    """The plans shifted to start at t+1; each agent's next state and
    applied input; at the applied step, the coupling violation and summed
    stage cost; the plans' costs before the shift; and whether the turn
    agent adopted a new plan."""

    plans: list[Plan]
    states: list[np.ndarray]
    inputs: list[np.ndarray]
    applied_residual: float
    stage_cost: float
    costs: list[float]
    replanned: bool


def mpc_step(ocps: list[LocalOcp], plans: list[Plan], t: int,
             others_outputs=None) -> StepResult:
    """One closed-loop step over the agents' episode-long OCPs:
    round-robin replan, apply, shift.

    The turn at time t is t mod N; ``others_outputs`` goes to the
    :func:`mpc_round` of that turn as it is, and the cost that round
    priced is the turn agent's entry of ``costs``. Applied states come
    straight off the plans (the plant is the model).
    """
    turn = t % len(ocps)
    plans, replanned, turn_cost = _round(ocps, plans, turn, others_outputs)
    specs = [ocp.spec for ocp in ocps]
    coupling = specs[0].coupling
    stage = 0.0
    for spec, p in zip(specs, plans):
        stage += float(np.abs(p.states[0] - spec.x_ref) @ spec.cost.w_x)
        stage += float(np.abs(p.inputs[0] - spec.u_ref) @ spec.cost.w_u)
    return StepResult(
        plans=[shift_plan(p, s) for p, s in zip(plans, specs)],
        states=[p.states[1].copy() for p in plans],
        inputs=[p.inputs[0].copy() for p in plans],
        applied_residual=0.0 if coupling is None
        else _overspend(sum(p.outputs[0] for p in plans), coupling),
        stage_cost=stage,
        costs=[turn_cost if i == turn else plan_cost(p, s)
               for i, (p, s) in enumerate(zip(plans, specs))],
        replanned=replanned,
    )


def check_terminal_coupling(specs: list[OcpSpec]) -> None:
    """Raise ModelError unless the agents' terminal equilibria, summed,
    keep the shared coupling: sum_i H (C_i xbar_i + D_i ubar_i) <= h, to
    1e-9. Each shift appends those equilibria as the plans' last step, so
    recursive feasibility needs them inside the budget (Richards & How,
    Int. J. Control 80(9), 2007)."""
    coupling = specs[0].coupling if specs else None
    if coupling is None:
        return
    over = _overspend(sum(s.terminal_output for s in specs), coupling)
    if over > _DYN_TOL:
        raise ModelError("the terminal equilibria overspend the coupling by %.3g "
                         "(sum_i H z_i must be <= h at the terminal pairs)" % over)


def _stacked_lp(ocps: list[LocalOcp]) -> tuple[StandardLP, list[int]]:
    """The joint LP of the OCPs at their current b, and each agent's first
    column in it (plus the total count of own columns).

    The joint LP is block-angular: each agent's own rows and columns, as
    its OCP holds them, on the diagonal, tied only by the T coupling rows
    H sum_i z_i(t) <= h, each with one slack, last.
    """
    k = len(ocps[0]._coupling_rows)
    own_m = [ocp.lp.m - k for ocp in ocps]
    col_at = list(accumulate((ocp.lp.n - k for ocp in ocps), initial=0))
    M, N = sum(own_m), col_at[-1]
    A = np.zeros((M + k, N + k))
    b = np.zeros(M + k)
    c = np.zeros(N + k)
    row = 0
    for ocp, m_i, col, end in zip(ocps, own_m, col_at, col_at[1:]):
        A[row:row + m_i, col:end] = ocp.lp.A[:m_i, :end - col]
        A[M:, col:end] = ocp.lp.A[m_i:, :end - col]
        b[row:row + m_i] = ocp.lp.b[:m_i]
        c[col:end] = ocp.lp.c[:end - col]
        row += m_i
    A[M:, N:] = np.eye(k)
    coupling = ocps[0].spec.coupling
    if coupling is not None:
        b[M:] = np.tile(coupling.g, ocps[0].spec.horizon)
    return StandardLP(A, b, c), col_at


def centralized_bootstrap(ocps: list[LocalOcp]) -> list[Plan]:
    """Jointly feasible (and jointly optimal) initial plans from the agents'
    episode-long OCPs. Test and startup scaffolding: the closed loop itself
    stays distributed, this only seeds it with a feasible joint plan at
    t = 0, at the models' x0. Terminal equilibria that overspend the
    coupling raise ModelError (:func:`check_terminal_coupling`).

    Each agent first solves its own OCP with the others at zero output.
    The first OCP of each distinct A and c solves cold, and the others,
    which differ from it only in b, re-solve from its optimal basis.

    The joint LP (:func:`_stacked_lp`) is block-angular, so the local
    optima certify themselves (Dantzig & Wolfe, Operations Research 8(1),
    1960). When every local solve is optimal with every own coupling slack
    basic, each agent's optimum has zero coupling duals and so is optimal
    for its blocks alone; if the stacked optima then keep every coupling
    row (slack >= 0, checked exactly), they are the joint optimum. They
    are returned as they are, with no stacked LP built, and each OCP's
    ``basis`` is seeded with its local basis less its coupling slacks,
    then those slacks: the basis the joint solve would hand it, optimal
    for its first replan against the other plans.

    Otherwise the stacked LP is solved, from the union of the local bases
    plus the joint coupling slacks when that has one column per row (a
    dual feasible start, so an overspent budget costs dual pivots) and in
    two phases when not. When every coupling slack is basic at the joint
    optimum and no row was dropped, each OCP's ``basis`` is set to its
    block of that basis plus its own coupling slacks; otherwise to the
    OCP's own optimal basis, which is dual feasible for any b of that OCP.
    On the default ``mpc`` configs the certificate holds; under the
    binding budget of the tests (four scalar integrators sharing
    sum u <= 0.5) the stacked LP runs both phases.
    """
    specs = [ocp.spec for ocp in ocps]
    T, r, coupling = specs[0].horizon, specs[0].model.r, specs[0].coupling
    for s in specs:
        if s.horizon != T:
            raise ModelError("bootstrap requires a shared horizon")
        if (s.coupling is None) != (coupling is None):
            raise ModelError("either every agent or none carries the coupling")
        if coupling is not None and s.model.r != r:
            raise ModelError("coupled agents must share the output dimension")
    check_terminal_coupling(specs)

    # each agent alone, at its x0 with the others at zero output
    local, first = [], {}
    for ocp in ocps:
        ocp.set_rhs()
        key = (ocp.lp.A.tobytes(), ocp.lp.c.tobytes())
        local.append(solve_lp(ocp.lp, basis=first.get(key)))
        first.setdefault(key, local[-1].warm)

    # each optimal local basis less its own coupling slacks, the last k columns
    k = len(ocps[0]._coupling_rows)
    own = [None if sol.status != OPTIMAL or sol.warm is None
           else [j for j in sol.warm if j < ocp.lp.n - k] for ocp, sol in zip(ocps, local)]
    if all(o is not None and len(o) == ocp.lp.m - k for o, ocp in zip(own, ocps)):
        plans = [ocp.extract_plan(sol.x) for ocp, sol in zip(ocps, local)]
        if coupling_residual(plans, coupling) == 0.0:
            for ocp, basis in zip(ocps, own):
                n_i = ocp.lp.n - k
                ocp.basis = basis + list(range(n_i, n_i + k))
            return plans

    # the joint coupling slacks plus the local bases: a basis of the stacked
    # LP when every local coupling slack was basic, and of another length
    # otherwise
    lp, col_at = _stacked_lp(ocps)
    slacks = list(range(col_at[-1], col_at[-1] + k))
    start = slacks + [col + j for o, col in zip(own, col_at) for j in o or ()]
    sol = solve_lp(lp, basis=start if len(start) == lp.m else None)
    if sol.status != OPTIMAL:
        raise FeasibilityError("no jointly feasible initial plan exists (%s)" % sol.status)

    seed = sol.kept_rows is None and set(slacks) <= set(sol.basis)
    for ocp, alone, col, end in zip(ocps, local, col_at, col_at[1:]):
        ocp.basis = alone.warm
        if seed:
            ocp.basis = ([j - col for j in sol.basis if col <= j < end]
                         + list(range(end - col, end - col + k)))
    return [ocp.extract_plan(sol.x[col:end])
            for ocp, col, end in zip(ocps, col_at, col_at[1:])]
