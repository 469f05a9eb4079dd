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
a singleton column whose nonzero has the sign of its b_r (b_r = 0 counts
as positive), such as an inequality's slack, starts with its lowest-index
such column basic, and every other row gets an artificial signed like
b_r. Each basic value b_r / a is then >= 0 with no row negated, so every
basis, factor and dual the solver returns refers to the caller's rows.
The start basis depends on the LP alone, so the determinism above holds.
It is diagonal, so phase 1 starts from its exact inverse diag(1/a)
instead of a dense factorization.

``solve_lp`` also takes a warm start: the optimal basis of an earlier
solve of an LP with the same A and c, dual feasible for any b, from which
a dual simplex (Lemke 1954) restores B^-1 b >= -tol when b has moved, as
in an MPC replan (Ferreau, Bock & Diehl, IJRNC 2008). A basis that is
unusable or not dual feasible falls back to the two-phase path, so a warm
start can change the work done but never the status.

The solver keeps the basis inverse B^-1 explicitly (the product form of
Dantzig and Orchard-Hays): each pivot applies a rank-1 eta update in
O(m^2), and the inverse is recomputed from scratch every
``_REFACTOR_EVERY`` pivots to bound the rounding the updates accumulate.

Also here: the assignment problem's type and cost, and a Hungarian
oracle.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, field

import numpy as np

from .errors import LpError

__all__ = [
    "StandardLP",
    "LpSolution",
    "WarmBasis",
    "AssignmentProblem",
    "solve_lp",
    "simplex_from_basis",
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
        A = np.atleast_2d(np.ascontiguousarray(self.A, dtype=float))  # BLAS rounds by layout
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
            object.__setattr__(self, name, arr)

    def with_rhs(self, b) -> "StandardLP":
        """This LP with right-hand side ``b``; A and c are not checked again."""
        lp = copy.copy(self)
        object.__setattr__(lp, "b", np.asarray(b, dtype=float).ravel())
        if lp.b.shape != self.b.shape or not np.all(np.isfinite(lp.b)):
            raise LpError("b must hold %d finite entries" % self.m)
        lp.b.setflags(write=False)
        return lp

    @property
    def m(self) -> int:
        return self.A.shape[0]

    @property
    def n(self) -> int:
        return self.A.shape[1]


class WarmBasis(list):
    """A basis of the LP with arrays A and c, and its B^-1 (or None)."""

    def __init__(self, cols, A, c, Binv):
        super().__init__(cols)
        self.A, self.c, self.Binv = A, c, Binv


@dataclass
class LpSolution:
    """Solver output.

    ``basis`` lists the basic column indices in row order; ``y`` are the
    duals of the final basis (aligned with the rows actually used, see
    ``kept_rows`` when redundant rows were dropped in phase 1); ``warm``,
    None when a row was dropped, is ``basis`` as a :class:`WarmBasis`.
    """

    status: str
    x: np.ndarray | None = None
    objective: float | None = None
    basis: list[int] = field(default_factory=list)
    y: np.ndarray | None = None
    kept_rows: list[int] | None = None
    iterations: int = 0
    warm: WarmBasis | None = None


def _pivot_inverse(Binv, d, r):
    """Rank-1 (eta) update of B^-1 in place after column ``r`` of B is
    replaced by a column whose representation in the old basis is ``d``."""
    prow = Binv[r] / d[r]
    rows = np.flatnonzero(d)  # rows with d == 0 are unchanged
    Binv[rows] -= np.outer(d[rows], prow)
    Binv[r] = prow


def _simplex(A, b, c, basis, *, Binv=None, dual=False):
    """Revised simplex from a feasible basis with an explicit basis inverse.

    B^-1 is computed from scratch, at O(m^3), on entry (unless the caller
    passes a freshly factored one as ``Binv``) and every
    ``_REFACTOR_EVERY`` pivots; in between,
    each pivot updates it with a rank-1 eta step, so a pivot costs
    O(m^2 + mn).
    With ``dual`` a dual feasible start may be primal infeasible: dual
    pivots take the most negative basic value out, by the lowest-index
    minimum ratio, until B^-1 b >= -tol. Status None (no pivot made) means
    neither feasibility held at the start, INFEASIBLE a dual ray.
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
        short = np.flatnonzero(xB < -_TOL) if dual else ()
        dual = len(short) > 0
        if dual:
            if it == 0 and rc.min() < -_TOL:
                return basis, xB, y, Binv, None, 0
            leave_row = (min(short, key=basis.__getitem__) if stall >= _BLAND_AFTER
                         else int(np.argmin(xB)))
            alpha = Binv[leave_row] @ A
            alpha[basis] = 0.0
            cand = np.flatnonzero(alpha < -_TOL)
            if not cand.size:
                return basis, xB, y, Binv, INFEASIBLE, it
            ratios = np.maximum(rc[cand], 0.0) / -alpha[cand]
            rmin = float(ratios.min())
            enter = int(cand[np.argmax(ratios <= rmin + _TOL * (1.0 + rmin))])
            d = Binv @ A[:, enter]
        else:
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
            ratios = np.full(m, np.inf)
            ratios[pos] = np.maximum(xB[pos], 0.0) / d[pos]
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


def _warm_inverse(A, basis):
    """B^-1 of a warm-start basis, factored afresh, or None unless the
    basis names one in-range column per row and is nonsingular and well
    conditioned."""
    cols = np.asarray([] if basis is None else basis)
    if (cols.shape != A.shape[:1] or cols.dtype.kind not in "iu" or cols.min() < 0
            or cols.max() >= A.shape[1]):
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
    return Binv


def _phase1(A, b):
    """Phase 1 from the crash basis, the one code that reads the signs of b.

    Returns (basis, kept rows, pivots); basis is None when the LP is
    infeasible.
    """
    m, n = A.shape
    sign = np.where(b < 0, -1.0, 1.0)  # -0.0 is not < 0, so it counts as positive
    # Crash basis. ``single`` is sorted, so np.unique's first occurrence is
    # each row's lowest-index singleton with the sign of b_r, and its basic
    # value b_r / a is >= 0.
    single = np.flatnonzero(np.count_nonzero(A, axis=0) == 1)
    at = (A[:, single] != 0.0).argmax(axis=0)
    signed = A[at, single] * sign[at] > 0.0
    rows, first = np.unique(at[signed], return_index=True)
    crash = np.full(m, -1)
    crash[rows] = single[signed][first]
    art_rows = np.flatnonzero(crash < 0)
    k = art_rows.size
    A1 = np.hstack([A, np.eye(m)[:, art_rows] * sign[art_rows]])
    c1 = np.concatenate([np.zeros(n), np.ones(k)])
    crash[art_rows] = np.arange(n, n + k)
    # A1[:, crash] is diagonal (a singleton or an artificial with the sign
    # of b_r on each row), so its inverse is exact without a factorization
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
    """Two-phase revised simplex, or a warm re-solve from a dual feasible basis.

    Phase 1 minimizes artificial infeasibility from the crash basis: the
    lowest-index singleton column with the sign of b_r of each row that has
    one, an artificial with that sign on every other row. Redundant rows
    discovered there are dropped before phase 2.

    ``basis`` is an optional warm start, typically the ``warm`` basis of an
    earlier solve of an LP with the same A and c but another b. If it has
    one column per row and is nonsingular and dual feasible, phase 1 is
    skipped and a dual simplex restores B^-1 b >= -tol if needed; any other
    basis is ignored. A plain list is factored once. A :class:`WarmBasis`
    of this A and c brings its factor, and inside its critical region
    (Bemporad, Borrelli & Morari, IEEE TAC 2002) the solve returns with no
    factorization and no pricing. No row is ever negated: phase 1 signs
    its artificials, and every basis, factor and dual refers to the
    caller's rows.
    """
    A, b, c = problem.A, problem.b, problem.c
    m, n = A.shape
    # it1, iters: pivots of phase 1 and of the last simplex run (none: Binv is fresh)
    kept, status, iters, it1 = list(range(m)), None, 0, 0
    hit = isinstance(basis, WarmBasis) and basis.Binv is not None and basis.A is A and basis.c is c
    Binv = basis.Binv if hit else _warm_inverse(A, basis)
    if hit and (xB := Binv @ b).min() >= -_TOL:
        final, y, status = list(basis), c[basis] @ Binv, OPTIMAL
    elif Binv is not None:  # a copy: pivots must leave a kept factor as it was
        final, xB, y, Binv, status, iters = _simplex(A, b, c, basis, Binv=Binv.copy(), dual=True)
    if status is None:
        start, kept, it1 = _phase1(A, b)
        if start is None:
            return LpSolution(status=INFEASIBLE, iterations=it1)
        if len(kept) < m:
            A = A[kept]
            b = b[kept]
        final, xB, y, Binv, status, iters = _simplex(A, b, c, start)
    if status != OPTIMAL:  # unbounded, or infeasible by a dual ray
        return LpSolution(status=status, basis=final, iterations=it1 + iters)
    x = np.zeros(n)
    x[final] = np.maximum(xB, 0.0)
    dropped = len(kept) < m
    return LpSolution(
        status=OPTIMAL,
        x=x,
        objective=float(c @ x),
        basis=final,
        y=y,
        kept_rows=kept if dropped else None,
        iterations=it1 + iters,
        warm=None if dropped else WarmBasis(final, problem.A, problem.c,
                                            Binv if iters == 0 else None),
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

