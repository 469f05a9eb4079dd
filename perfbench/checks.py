"""Correctness checks, run after timing ends.

Each check compares the program's output with a computation made apart
from the program (scipy's assignment solver and HiGHS) or with a property
the method must have. Nothing is compared with a stored copy. A failed
check raises ``CheckError``.
"""

from __future__ import annotations

import json
import math

import numpy as np
from scipy.linalg import block_diag
from scipy.optimize import linear_sum_assignment, linprog

FORMATION_TOL = 1e-2
ASSIGN_RTOL = 1e-9
MPC_TOL = 1e-9
MPC_JOINT_TOL = 1e-6


class CheckError(Exception):
    pass


def _require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckError(message)


def _read_trace(path: str) -> tuple[dict, list[dict]]:
    with open(path, encoding="utf-8") as fh:
        lines = [json.loads(line) for line in fh if line.strip()]
    _require(bool(lines) and lines[0].get("kind") == "header", "%s: no header record" % path)
    return lines[0]["config"], lines[1:]


def _same_repeats(outcomes, key, what: str) -> None:
    first = key(outcomes[0])
    for k, out in enumerate(outcomes[1:], start=1):
        _require(key(out) == first, "%s: repeat %d differs from the first run" % (what, k))


def _summary_key(outcome):
    return {k: v for k, v in outcome.value.items() if k != "wall_seconds"}


# -- formation_hex -----------------------------------------------------------


def hexagon_targets(side: float) -> dict[tuple[int, int], float]:
    """The twelve declared pairs of the hexagon and their target lengths:
    ring neighbours at ``side``, next-nearest bracing at side * sqrt(3)."""
    out = {}
    for i in range(6):
        out[tuple(sorted((i, (i + 1) % 6)))] = side
        out[tuple(sorted((i, (i + 2) % 6)))] = side * math.sqrt(3.0)
    return out


def check_formation(op, outcomes, steps: int) -> None:
    what = "formation op %d" % op.index
    _same_repeats(outcomes, _summary_key, what)
    config, records = _read_trace(op.inputs["trace"])
    poses: dict[int, list] = {}
    for rec in records:
        if rec["kind"] == "pose":
            poses.setdefault(rec["agent"], []).append(rec["pos"])
    _require(sorted(poses) == list(range(6)), "%s: pose records for agents %s" % (what, sorted(poses)))
    for agent, series in poses.items():
        _require(len(series) == steps + 1,
                 "%s: agent %d has %d pose records, expected %d" % (what, agent, len(series), steps + 1))
    targets = hexagon_targets(float(config["formation"]["side"]))
    links = {tuple(sorted(e)) for e in config["graph"]["edges"]}
    _require(len(targets) == 12 and set(targets) <= links,
             "%s: the 12 declared pairs are not all graph links" % what)
    final = {a: np.asarray(s[-1], dtype=float) for a, s in poses.items()}
    for (i, j), target in targets.items():
        err = abs(float(np.linalg.norm(final[i] - final[j])) - target)
        _require(err <= FORMATION_TOL,
                 "%s: pair (%d, %d) is %.3g off its target" % (what, i, j, err))


# -- assign_solve --------------------------------------------------------------


def assignment_optimum(costs: np.ndarray) -> float:
    rows, cols = linear_sum_assignment(costs)
    return float(costs[rows, cols].sum())


def check_assignment(op, outcomes) -> None:
    """Every solve that returns gives an optimal permutation; a solve may
    fail only on a drain-shaped problem, by agents disagreeing."""
    what = "assignment op %d (%s)" % (op.index, op.shape)
    costs = op.inputs["costs"]
    n = costs.shape[0]
    optimum = assignment_optimum(costs)
    for out in outcomes:
        if out.failed:
            perms = out.error.diagnostics.get("perms", [])
            _require(op.shape == "drain" and len(perms) > 1,
                     "%s: %s" % (what, out.error))
            continue
        perm, objective, rounds = out.value
        _require(sorted(perm) == list(range(n)), "%s: %r is not a permutation" % (what, perm))
        cost = float(sum(costs[i, k] for i, k in enumerate(perm)))
        _require(abs(cost - optimum) <= ASSIGN_RTOL * abs(optimum),
                 "%s: cost %.17g, optimum %.17g" % (what, cost, optimum))
        _require(abs(objective - cost) <= ASSIGN_RTOL * abs(optimum),
                 "%s: reported objective %.17g for cost %.17g" % (what, objective, cost))
        _require(isinstance(rounds, int) and rounds >= 1, "%s: %r rounds" % (what, rounds))
    _same_repeats(outcomes,
                  lambda o: ("failed", sorted(o.error.diagnostics["perms"])) if o.failed else o.value,
                  what)


# -- dmpc_coupled --------------------------------------------------------------


def _agent_matrices(blk: dict):
    return (np.asarray(blk["A"], float), np.asarray(blk["B"], float),
            np.asarray(blk["C"], float), np.asarray(blk["D"], float))


def _agent_lp(blk: dict, T: int, H: np.ndarray):
    """One agent's block of the joint LP over (x(0..T), u(0..T-1), s_x, s_u):
    equality rows, inequality rows, the coupling rows' share, cost, bounds."""
    A, B, C, D = _agent_matrices(blk)
    nx, nu = A.shape[0], B.shape[1]
    xbar = np.asarray(blk["terminal_state"], float)
    ubar = np.asarray(blk["terminal_input"], float)
    first = np.kron(np.eye(T, T + 1), np.eye(nx))  # picks x(0..T-1)
    nxt = np.kron(np.eye(T, T + 1, k=1), np.eye(nx))  # picks x(1..T)
    zx, zu = np.zeros((T * nx, T * nu)), np.zeros((T * nu, (T + 1) * nx))
    ends = np.zeros((2 * nx, (T + 1) * nx))
    ends[:nx, :nx] = ends[nx:, T * nx:] = np.eye(nx)
    eq = np.vstack([
        np.hstack([ends, np.zeros((2 * nx, T * nu + T * nx + T * nu))]),
        np.hstack([nxt - np.kron(np.eye(T, T + 1), A), -np.kron(np.eye(T), B),
                   np.zeros((T * nx, T * nx + T * nu))]),
    ])
    eq_rhs = np.concatenate([blk["x0"], xbar, np.zeros(T * nx)])
    # |x(t) - xbar| <= s_x(t), |u(t) - ubar| <= s_u(t)
    ix, iu = -np.eye(T * nx), -np.eye(T * nu)
    le = np.vstack([
        np.hstack([first, zx, ix, zx]), np.hstack([-first, zx, ix, zx]),
        np.hstack([zu, np.eye(T * nu), zu[:, :T * nx], iu]),
        np.hstack([zu, -np.eye(T * nu), zu[:, :T * nx], iu]),
    ])
    le_rhs = np.concatenate([np.tile(xbar, T), -np.tile(xbar, T),
                             np.tile(ubar, T), -np.tile(ubar, T)])
    coupling = np.hstack([np.kron(np.eye(T, T + 1), H @ C), np.kron(np.eye(T), H @ D),
                          np.zeros((T * H.shape[0], T * nx + T * nu))])
    cost = np.concatenate([np.zeros((T + 1) * nx + T * nu),
                           np.tile(blk["w_x"], T), np.tile(blk["w_u"], T)])

    def box(lo, hi, size, steps):
        lo = [None] * size if lo is None else lo
        hi = [None] * size if hi is None else hi
        return list(zip(lo, hi)) * steps

    # state bounds hold at t = 1..T, input bounds at t = 0..T-1
    bounds = ([(None, None)] * nx + box(blk.get("x_min"), blk.get("x_max"), nx, T)
              + box(blk.get("u_min"), blk.get("u_max"), nu, T)
              + [(0.0, None)] * (T * nx + T * nu))
    return eq, eq_rhs, le, le_rhs, coupling, cost, bounds


def joint_optimum(mpc: dict) -> float:
    """Optimum of the joint horizon problem that the distributed loop must
    reach at step 0, formulated from the config and solved with HiGHS.

    Per agent, over t = 0..T-1: minimise w_x |x(t) - xbar| + w_u |u(t) - ubar|
    subject to x(0) = x0, x(T) = xbar, x(t+1) = A x(t) + B u(t), the box
    bounds, and H sum_i (C x_i(t) + D u_i(t)) <= h.
    """
    T = int(mpc["horizon"])
    H = np.asarray(mpc["coupling"]["H"], float)
    h = np.asarray(mpc["coupling"]["h"], float)
    parts = [_agent_lp(blk, T, H) for blk in mpc["agents"]]
    eq, eq_rhs, le, le_rhs, coupling, cost, bounds = zip(*parts)
    res = linprog(
        np.concatenate(cost),
        A_ub=np.vstack([block_diag(*le), np.hstack(coupling)]),
        b_ub=np.concatenate(le_rhs + (np.tile(h, T),)),
        A_eq=block_diag(*eq), b_eq=np.concatenate(eq_rhs),
        bounds=[b for part in bounds for b in part], method="highs",
    )
    _require(res.status == 0, "joint problem: HiGHS ended with %s" % res.message)
    return float(res.fun)


def check_mpc(op, outcomes, steps: int) -> None:
    what = "mpc op %d" % op.index
    _same_repeats(outcomes, _summary_key, what)
    config, records = _read_trace(op.inputs["trace"])
    mpc = config["mpc"]
    n = int(config["n"])
    H = np.asarray(mpc["coupling"]["H"], float)
    h = np.asarray(mpc["coupling"]["h"], float)
    x = {(r["agent"], r["t"]): np.asarray(r["pos"], float) for r in records if r["kind"] == "pose"}
    u = {(r["agent"], r["t"]): np.asarray(r["u"], float) for r in records if r["kind"] == "input"}
    rounds = sorted((r for r in records if r["kind"] == "mpc_residual"), key=lambda r: r["t"])
    _require(len(rounds) == steps, "%s: %d mpc records, expected %d" % (what, len(rounds), steps))
    _require(len(x) == n * (steps + 1) and len(u) == n * steps,
             "%s: %d pose and %d input records" % (what, len(x), len(u)))
    for i, blk in enumerate(mpc["agents"]):
        _require(np.allclose(x[(i, 0.0)], blk["x0"], rtol=0.0, atol=MPC_TOL),
                 "%s: agent %d does not start at x0" % (what, i))
    for k in range(steps):
        z = np.zeros(H.shape[1])
        for i, blk in enumerate(mpc["agents"]):
            A, B, C, D = _agent_matrices(blk)
            xk, uk, xn = x[(i, float(k))], u[(i, float(k))], x[(i, float(k + 1))]
            gap = float(np.max(np.abs(A @ xk + B @ uk - xn)))
            _require(gap <= MPC_TOL, "%s: agent %d leaves its dynamics by %.3g at step %d"
                     % (what, i, gap, k))
            lo = np.asarray(blk.get("u_min", [-np.inf] * uk.size), float)
            hi = np.asarray(blk.get("u_max", [np.inf] * uk.size), float)
            _require(bool(np.all(uk >= lo - MPC_TOL) and np.all(uk <= hi + MPC_TOL)),
                     "%s: agent %d input %s outside its bounds at step %d" % (what, i, uk, k))
            z += C @ xk + D @ uk
        residual = float(max(np.max(H @ z - h), 0.0))
        _require(residual <= MPC_TOL, "%s: coupling residual %.3g at step %d" % (what, residual, k))
    costs = np.array([r["costs"] for r in rounds], float)
    rises = np.diff(costs, axis=0)
    _require(bool(np.all(rises <= MPC_TOL)),
             "%s: a planned cost rises by %.3g" % (what, float(rises.max()) if rises.size else 0.0))
    optimum = joint_optimum(mpc)
    _require(abs(float(costs[0].sum()) - optimum) <= MPC_JOINT_TOL,
             "%s: summed planned cost %.12g at step 0, joint optimum %.12g"
             % (what, float(costs[0].sum()), optimum))
