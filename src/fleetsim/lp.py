"""Dense linear programming core: two-phase revised simplex plus helpers.

MPC's optimal control problems reduce to
``min c'x  s.t.  Ax = b, x >= 0`` and run through :func:`solve_lp`. The
solver is deliberately deterministic: Dantzig pricing with lowest-index
tie-breaking, switching to Bland's rule after a run of degenerate pivots,
and a leaving-variable rule that always picks the smallest basis column
among tied ratios. Identical inputs give identical bases on every call,
which keeps the simulator's traces reproducible.

Phase 1 starts from a slack crash basis (Bixby, "Implementing the simplex
method: the initial basis", ORSA J. Computing 1992): every row that holds
a positive singleton column, such as an inequality's slack, starts with
its lowest-index such column basic, and only the remaining rows get an
artificial. The start basis depends on the LP alone, so the determinism
above holds. It is diagonal, so phase 1 starts from its exact inverse
diag(1/a) instead of a dense factorization.

``solve_lp`` also takes a warm start: the optimal basis of an earlier
solve of an LP with the same A and c. When the basis is nonsingular and
still primal feasible for the new b, phase 1 is skipped and phase 2 runs
from it, which is how an MPC replan re-solves its OCP after only b has
moved (Ferreau, Bock & Diehl, IJRNC 2008). The basis is factored once,
and phase 2 starts from that inverse. Any other basis falls back to the
two-phase path, so a warm start can change the work done but never the
status.

The solver keeps the basis inverse B^-1 explicitly (the product form of
Dantzig and Orchard-Hays): each pivot applies a rank-1 eta update in
O(m^2), and the inverse is recomputed from scratch every
``_REFACTOR_EVERY`` pivots to bound the rounding the updates accumulate.

Also here: the assignment-problem encoding (one redundant constraint row
dropped so the system has full row rank 2n-1) and a Hungarian oracle.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import LpError

__all__ = [
    "StandardLP",
    "LpSolution",
    "AssignmentProblem",
    "solve_lp",
    "simplex_from_basis",
    "build_assignment_lp",
    "hungarian",
    "assignment_cost",
    "OPTIMAL",
    "INFEASIBLE",
    "UNBOUNDED",
]

OPTIMAL = "optimal"
INFEASIBLE = "infeasible"
UNBOUNDED = "unbounded"

_TOL = 1e-9
_PHASE1_TOL = 1e-7
_BLAND_AFTER = 50
_MAX_ITER = 50000
_REFACTOR_EVERY = 100
_WARM_MAX_COND = 1e12


@dataclass(frozen=True)
class StandardLP:
    """min c'x subject to Ax = b, x >= 0 (dense, m rows by n columns)."""

    A: np.ndarray
    b: np.ndarray
    c: np.ndarray

    def __post_init__(self):
        A = np.atleast_2d(np.asarray(self.A, dtype=float))
        b = np.asarray(self.b, dtype=float).ravel()
        c = np.asarray(self.c, dtype=float).ravel()
        if A.shape != (b.shape[0], c.shape[0]):
            raise LpError(
                "inconsistent shapes: A %s, b %s, c %s" % (A.shape, b.shape, c.shape)
            )
        if A.shape[0] < 1 or A.shape[1] < 1:
            raise LpError("empty LP")
        for name, arr in (("A", A), ("b", b), ("c", c)):
            if not np.all(np.isfinite(arr)):
                raise LpError("%s contains NaN or inf" % name)
        for name, arr in (("A", A), ("b", b), ("c", c)):
            arr.setflags(write=False)
        object.__setattr__(self, "A", A)
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "c", c)

    @property
    def m(self) -> int:
        return self.A.shape[0]

    @property
    def n(self) -> int:
        return self.A.shape[1]


@dataclass
class LpSolution:
    """Solver output.

    ``basis`` lists the basic column indices in row order; ``y`` are the
    duals of the final basis (aligned with the rows actually used, see
    ``kept_rows`` when redundant rows were dropped in phase 1).
    """

    status: str
    x: np.ndarray | None = None
    objective: float | None = None
    basis: list[int] = field(default_factory=list)
    y: np.ndarray | None = None
    kept_rows: list[int] | None = None
    iterations: int = 0


def _pivot_inverse(Binv, d, r):
    """Rank-1 (eta) update of B^-1 in place after column ``r`` of B is
    replaced by a column whose representation in the old basis is ``d``."""
    prow = Binv[r] / d[r]
    rows = np.flatnonzero(d)  # rows with d == 0 are unchanged
    Binv[rows] -= np.outer(d[rows], prow)
    Binv[r] = prow


def _simplex(A, b, c, basis, *, Binv=None):
    """Revised simplex from a feasible basis with an explicit basis inverse.

    B^-1 is computed from scratch, at O(m^3), on entry (unless the caller
    passes a freshly factored one as ``Binv``) and every
    ``_REFACTOR_EVERY`` pivots; in between,
    each pivot updates it with a rank-1 eta step, so a pivot costs
    O(m^2 + mn).
    Returns (basis, xB, y, Binv, status, iters), where ``y`` are the duals
    and ``Binv`` the inverse at the final basis.
    """
    m, n = A.shape
    basis = list(basis)
    stall = 0
    since_refactor = _REFACTOR_EVERY if Binv is None else 0
    for it in range(_MAX_ITER):
        if since_refactor >= _REFACTOR_EVERY:
            try:
                Binv = np.linalg.inv(A[:, basis])
            except np.linalg.LinAlgError as exc:
                raise LpError("singular basis during simplex") from exc
            since_refactor = 0
        xB = Binv @ b
        y = c[basis] @ Binv
        rc = c - y @ A
        rc[basis] = 0.0
        if stall >= _BLAND_AFTER:
            neg = np.flatnonzero(rc < -_TOL)
            enter = int(neg[0]) if neg.size else -1
        else:
            enter = int(np.argmin(rc))
            if rc[enter] >= -_TOL:
                enter = -1
        if enter < 0:
            return basis, xB, y, Binv, OPTIMAL, it
        d = Binv @ A[:, enter]
        pos = d > _TOL
        if not pos.any():
            return basis, xB, y, Binv, UNBOUNDED, it
        safe_xb = np.maximum(xB, 0.0)
        ratios = np.full(m, np.inf)
        ratios[pos] = safe_xb[pos] / d[pos]
        rmin = float(ratios.min())
        ties = np.flatnonzero(ratios <= rmin + _TOL * (1.0 + abs(rmin)))
        leave_row = min(ties, key=lambda r: basis[r])
        stall = stall + 1 if rmin <= _TOL else 0
        basis[leave_row] = enter
        _pivot_inverse(Binv, d, leave_row)
        since_refactor += 1
    raise LpError("simplex exceeded %d iterations" % _MAX_ITER)


def simplex_from_basis(A, b, c, basis):
    """Phase-2 entry point when a feasible starting basis is already known.

    Returns (basis, x, objective, status).
    """
    A = np.asarray(A, dtype=float)
    b = np.asarray(b, dtype=float)
    c = np.asarray(c, dtype=float)
    final, xB, _, _, status, _ = _simplex(A, b, c, list(basis))
    x = np.zeros(A.shape[1])
    x[final] = np.maximum(xB, 0.0)
    return final, x, float(c @ x), status


def _warm_inverse(A, b, basis):
    """B^-1 of a warm-start basis, factored afresh, or None unless the
    basis names one in-range column per row, is nonsingular and well
    conditioned, and is primal feasible for ``b`` (B^-1 b >= -tol)."""
    m, n = A.shape
    if basis is None or len(basis) != m:
        return None
    cols = np.asarray(basis)
    if cols.dtype.kind not in "iu" or cols.min() < 0 or cols.max() >= n:
        return None
    B = A[:, cols]
    try:
        Binv = np.linalg.inv(B)
    except np.linalg.LinAlgError:
        return None
    # infinity-norm condition number, O(m^2) from the inverse at hand
    cond = np.abs(B).sum(axis=1).max() * np.abs(Binv).sum(axis=1).max()
    if not np.isfinite(cond) or cond > _WARM_MAX_COND:
        return None
    if (Binv @ b).min() < -_TOL:
        return None
    return Binv


def _phase1(A, b):
    """Phase 1 from the crash basis on the sign-normalized system.

    Returns (basis, kept rows, pivots); basis is None when the LP is
    infeasible.
    """
    m, n = A.shape
    # Crash basis. ``single`` is sorted, so np.unique's first occurrence is
    # each row's lowest-index positive singleton; after the flip its basic
    # value b_r / a is >= 0.
    single = np.flatnonzero((np.count_nonzero(A, axis=0) == 1) & (A.max(axis=0) > 0.0))
    rows, first = np.unique(A[:, single].argmax(axis=0), return_index=True)
    crash = np.full(m, -1)
    crash[rows] = single[first]
    art_rows = np.flatnonzero(crash < 0)
    k = art_rows.size
    A1 = np.hstack([A, np.eye(m)[:, art_rows]])
    c1 = np.concatenate([np.zeros(n), np.ones(k)])
    crash[art_rows] = np.arange(n, n + k)
    # A1[:, crash] is diagonal (a singleton a > 0 or an artificial 1 on
    # each row), so its inverse is exact without a factorization
    Binv = np.diag(1.0 / A1[np.arange(m), crash])
    basis, xB, _, Binv, status, it1 = _simplex(A1, b, c1, crash.tolist(), Binv=Binv)
    if status != OPTIMAL:
        raise LpError("phase 1 ended %s, which should be impossible" % status)
    if float(c1[basis] @ xB) > _PHASE1_TOL:
        return None, None, it1

    # Drive leftover artificials out of the basis. Where that is impossible
    # the artificial's own constraint, art_rows[col - n], is linearly
    # dependent: drop that row and the artificial's basis position, which
    # after phase-1 pivots need not share its index. Row ``pos`` of the
    # tableau B^-1 A is row ``pos`` of B^-1 times A.
    drop_rows = []
    drop_pos = []
    for pos, col in enumerate(basis):
        if col < n:
            continue
        coeffs = Binv[pos] @ A
        cands = np.flatnonzero((np.abs(coeffs) > 1e-7) & ~np.isin(np.arange(n), basis))
        if cands.size:
            enter = int(cands[0])
            basis[pos] = enter
            _pivot_inverse(Binv, Binv @ A[:, enter], pos)
        else:
            drop_rows.append(art_rows[col - n])
            drop_pos.append(pos)
    kept = [r for r in range(m) if r not in drop_rows]
    basis = [col for pos, col in enumerate(basis) if pos not in drop_pos]
    return basis, kept, it1


def solve_lp(problem: StandardLP, basis=None) -> LpSolution:
    """Two-phase revised simplex, or phase 2 alone from a warm basis.

    Phase 1 minimizes artificial infeasibility from the crash basis: the
    lowest-index positive singleton column of each row that has one, an
    artificial on every other row. Redundant rows discovered there are
    dropped before phase 2.

    ``basis`` is an optional warm start, typically the ``basis`` of an
    earlier solve of an LP with the same A and c but another b. When it
    has one column per row, is nonsingular and B^-1 b >= -tol, phase 1 is
    skipped and phase 2 starts from it. Any other basis (infeasible for
    this b, singular, or one entry short after a dropped row) is ignored
    and the two-phase path runs as if none were given. The warm basis is
    factored once, for both the feasibility check and phase 2.
    """
    A = problem.A.copy()
    b = problem.b.copy()
    c = problem.c.copy()
    m, n = A.shape
    # Rows with b < 0 are negated; that leaves B^-1 b, and so the
    # feasibility of a warm basis, unchanged, as (DB)^-1 Db = B^-1 b.
    flip = b < 0
    A[flip] *= -1.0
    b[flip] *= -1.0

    Binv = _warm_inverse(A, b, basis)
    if Binv is not None:
        start, kept, iters = list(basis), list(range(m)), 0
    else:
        start, kept, iters = _phase1(A, b)
        if start is None:
            return LpSolution(status=INFEASIBLE, iterations=iters)
    dropped = len(kept) < m
    if dropped:
        A = A[kept]
        b = b[kept]

    basis, xB, y, _, status, it2 = _simplex(A, b, c, start, Binv=Binv)
    iters += it2
    if status == UNBOUNDED:
        return LpSolution(status=UNBOUNDED, basis=basis, iterations=iters)
    x = np.zeros(n)
    x[basis] = np.maximum(xB, 0.0)
    # express the duals against the caller's row orientation, not the
    # sign-normalized one used internally
    y[flip[kept]] *= -1.0
    return LpSolution(
        status=OPTIMAL,
        x=x,
        objective=float(c @ x),
        basis=basis,
        y=y,
        kept_rows=kept if dropped else None,
        iterations=iters,
    )


# -- assignment problems -----------------------------------------------------


@dataclass(frozen=True)
class AssignmentProblem:
    """n robots, n tasks, square cost matrix."""

    n: int
    cost: np.ndarray

    def __post_init__(self):
        cost = np.asarray(self.cost, dtype=float)
        if cost.shape != (self.n, self.n):
            raise LpError("cost shape %s does not match n=%d" % (cost.shape, self.n))
        if not np.all(np.isfinite(cost)):
            raise LpError("cost matrix contains NaN or inf")
        cost = cost.copy()
        cost.setflags(write=False)
        object.__setattr__(self, "cost", cost)


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


def assignment_cost(perm, cost: np.ndarray) -> float:
    """Cost of assigning robot i to task perm[i]; the one summation used by
    every route so exact comparisons are apples to apples."""
    total = 0.0
    for i, k in enumerate(perm):
        total += float(cost[i, k])
    return total


def hungarian(p: AssignmentProblem) -> tuple[tuple[int, ...], float]:
    """Optimal assignment oracle, O(n^3). Returns (perm, objective)."""
    # imported here so that ``import fleetsim`` does not load scipy
    from scipy.optimize import linear_sum_assignment

    rows, cols = linear_sum_assignment(p.cost)
    perm = tuple(int(c) for c in cols[np.argsort(rows)])
    return perm, assignment_cost(perm, p.cost)


# -- small builder for structured LPs ---------------------------------------


class LpBuilder:
    """Assemble min-cost LPs from free/nonnegative variables and eq/le rows.

    Free variables are split into positive and negative parts; inequality
    rows get slack columns. ``build`` returns the StandardLP plus an
    extractor mapping a standard-form solution back to the declared
    variables.
    """

    def __init__(self):
        self._vars = []  # (kind, size)
        self._rows = []  # (kind, {var_index: coeff_array}, rhs)
        self._cost = {}  # var_index -> array

    def add_var(self, size: int, free: bool = True) -> int:
        self._vars.append(("free" if free else "nonneg", int(size)))
        return len(self._vars) - 1

    def add_eq(self, coeffs: dict[int, np.ndarray], rhs: float) -> None:
        self._rows.append(("eq", {k: np.asarray(v, dtype=float) for k, v in coeffs.items()}, float(rhs)))

    def add_le(self, coeffs: dict[int, np.ndarray], rhs: float) -> None:
        self._rows.append(("le", {k: np.asarray(v, dtype=float) for k, v in coeffs.items()}, float(rhs)))

    def add_cost(self, var: int, weights) -> None:
        w = np.asarray(weights, dtype=float)
        self._cost[var] = self._cost.get(var, 0) + w

    def build(self) -> tuple[StandardLP, "LpExtract"]:
        offsets = []
        ncols = 0
        for kind, size in self._vars:
            offsets.append((kind, ncols, size))
            ncols += 2 * size if kind == "free" else size
        nslack = sum(1 for kind, _, _ in self._rows if kind == "le")
        total = ncols + nslack
        A = np.zeros((len(self._rows), total))
        b = np.zeros(len(self._rows))
        c = np.zeros(total)
        slack_at = ncols
        for r, (kind, coeffs, rhs) in enumerate(self._rows):
            for var, coef in coeffs.items():
                vkind, off, size = offsets[var]
                coef = np.broadcast_to(coef, (size,))
                A[r, off : off + size] += coef
                if vkind == "free":
                    A[r, off + size : off + 2 * size] -= coef
            b[r] = rhs
            if kind == "le":
                A[r, slack_at] = 1.0
                slack_at += 1
        for var, w in self._cost.items():
            vkind, off, size = offsets[var]
            w = np.broadcast_to(w, (size,))
            c[off : off + size] += w
            if vkind == "free":
                c[off + size : off + 2 * size] -= w
        return StandardLP(A=A, b=b, c=c), LpExtract(offsets)


class LpExtract:
    def __init__(self, offsets):
        self._offsets = offsets

    def value(self, x: np.ndarray, var: int) -> np.ndarray:
        kind, off, size = self._offsets[var]
        if kind == "free":
            return x[off : off + size] - x[off + size : off + 2 * size]
        return x[off : off + size].copy()
