"""Simplex solver and assignment LP tests.

Covers the two-phase solver and its phase-1 crash basis, warm starts, cost
perturbation, and the assignment formulation with the dropped redundant row.
"""

import hashlib
import itertools
import os
import subprocess
import sys

import numpy as np
import pytest
from scipy.optimize import linprog

import fleetsim
from fleetsim import lp as lp_module
from fleetsim import mpc
from fleetsim.errors import LpError
from fleetsim.lp import (
    INFEASIBLE,
    OPTIMAL,
    UNBOUNDED,
    AssignmentProblem,
    StandardLP,
    assignment_cost,
    hungarian,
    simplex_from_basis,
    solve_lp,
)
from fleetsim.simrunner import default_config, parse_config, run_scenario
from fleetsim.simrunner.config import ocp_specs
from oracles import assignment_column, build_assignment_lp


def solution_perm(sol, n):
    """Extract the assignment permutation from an LP solution vector."""
    xm = sol.x[: n * n].reshape(n, n)
    return tuple(int(np.argmax(xm[i])) for i in range(n))


# -- StandardLP / basic solves ----------------------------------------------


def test_standard_lp_shape_validation():
    with pytest.raises(LpError):
        StandardLP(np.zeros((2, 3)), np.zeros(3), np.zeros(3))
    with pytest.raises(LpError):
        StandardLP(np.zeros((2, 3)), np.zeros(2), np.zeros(2))
    with pytest.raises(LpError):
        StandardLP(np.array([[np.nan]]), np.zeros(1), np.zeros(1))


def test_solve_simple_optimal():
    # min x1 subject to x1 + x2 = 1: push everything onto the free column
    sol = solve_lp(StandardLP([[1.0, 1.0]], [1.0], [1.0, 0.0]))
    assert sol.status == OPTIMAL
    assert sol.x == pytest.approx(np.array([0.0, 1.0]))
    assert sol.objective == pytest.approx(0.0)


def test_solve_infeasible():
    sol = solve_lp(StandardLP([[1.0]], [-1.0], [1.0]))
    assert sol.status == INFEASIBLE
    assert sol.x is None


def test_solve_unbounded():
    sol = solve_lp(StandardLP([[1.0, -1.0]], [0.0], [-1.0, 0.0]))
    assert sol.status == UNBOUNDED


def test_degenerate_cycling_example_terminates():
    """A classic cycling instance finishes thanks to the anti-cycling rule."""
    A = np.array(
        [
            [0.25, -60.0, -1.0 / 25.0, 9.0, 1.0, 0.0, 0.0],
            [0.5, -90.0, -1.0 / 50.0, 3.0, 0.0, 1.0, 0.0],
            [0.0, 0.0, 1.0, 0.0, 0.0, 0.0, 1.0],
        ]
    )
    b = np.array([0.0, 0.0, 1.0])
    c = np.array([-0.75, 150.0, -0.02, 6.0, 0.0, 0.0, 0.0])
    sol = solve_lp(StandardLP(A, b, c))
    assert sol.status == OPTIMAL
    assert sol.objective == pytest.approx(-0.05)


def test_redundant_rows_are_dropped():
    # second row repeats the first
    A = np.array([[1.0, 1.0], [1.0, 1.0]])
    sol = solve_lp(StandardLP(A, np.array([1.0, 1.0]), np.array([1.0, 0.0])))
    assert sol.status == OPTIMAL
    assert sol.kept_rows is not None and len(sol.kept_rows) == 1
    assert sol.objective == pytest.approx(0.0)


def assert_kkt(lp, sol):
    """Primal feasibility, dual feasibility, and strong duality."""
    A, b, c = lp.A, lp.b, lp.c
    assert sol.status == OPTIMAL
    kept = sol.kept_rows if sol.kept_rows is not None else list(range(lp.m))
    assert np.allclose(A[kept] @ sol.x, b[kept], atol=1e-8)
    assert np.all(sol.x >= -1e-9)
    reduced = c - A[kept].T @ sol.y
    assert np.all(reduced >= -1e-9)
    assert abs(float(b[kept] @ sol.y) - sol.objective) <= 1e-8


def random_feasible_lp(rng, m, n):
    A = rng.standard_normal((m, n))
    b = A @ rng.random(n)
    c = rng.random(n)  # nonnegative costs keep the problem bounded
    return StandardLP(A, b, c)


def test_random_lps_satisfy_kkt():
    """Feasibility, dual feasibility, and strong duality on random instances."""
    rng = np.random.default_rng(11)
    for _ in range(60):
        m = int(rng.integers(2, 6))
        n = m + int(rng.integers(1, 6))
        lp = random_feasible_lp(rng, m, n)
        assert_kkt(lp, solve_lp(lp))


def assert_matches_highs(lp, sol):
    """KKT holds and the objective equals the HiGHS optimum."""
    assert_kkt(lp, sol)
    ref = linprog(lp.c, A_eq=lp.A, b_eq=lp.b, bounds=(0, None), method="highs")
    assert ref.status == 0
    assert sol.objective == pytest.approx(ref.fun, rel=1e-7)


def captured_mpc_lps(run):
    """The LPs that ``mpc`` hands to ``solve_lp`` while ``run()`` executes."""
    captured = []
    real = mpc.solve_lp

    def capture(problem, **kw):
        captured.append(problem)
        return real(problem, **kw)

    mpc.solve_lp = capture
    try:
        run()
    finally:
        mpc.solve_lp = real
    return captured


def mpc_bootstrap_lp(n=4):
    """The stacked LP of ``centralized_bootstrap`` for the default n-agent
    MPC config, which the agents' own optima certify without solving it:
    n blocks of 58 own rows and 98 own columns, and 8 coupling rows."""
    ocps = [mpc.build_local_ocp(s) for s in ocp_specs(default_config("mpc", n).params)]
    lp, _ = mpc._stacked_lp(ocps)
    assert (lp.m, lp.n) == (58 * n + 8, 98 * n + 8)
    return lp


@pytest.mark.parametrize("m", [40, 120, 240, "mpc bootstrap", "mpc bootstrap n=8"])
def test_large_lps_match_highs(m):
    """Solves long enough to cross several refactorizations of the basis
    inverse still reach the HiGHS optimum and satisfy KKT."""
    if m == "mpc bootstrap":
        lp = mpc_bootstrap_lp()
    elif m == "mpc bootstrap n=8":
        lp = mpc_bootstrap_lp(8)
    else:
        lp = random_feasible_lp(np.random.default_rng(m), m, 2 * m)
    assert_matches_highs(lp, solve_lp(lp))


def test_mpc_bootstrap_lp_is_deterministic():
    lp = mpc_bootstrap_lp(8)
    first = solve_lp(lp)
    second = solve_lp(lp)
    assert first.iterations > 200
    assert first.basis == second.basis
    assert first.x.tobytes() == second.x.tobytes()
    assert first.iterations == second.iterations


def test_import_does_not_load_scipy_optimize():
    """scipy serves only the Hungarian oracle and loads when it is called."""
    src = os.path.dirname(os.path.dirname(fleetsim.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    code = (
        "import sys\n"
        "import fleetsim, fleetsim.simrunner, fleetsim.assignment, fleetsim.mpc\n"
        "print('scipy.optimize' in sys.modules)\n"
    )
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True, timeout=60)
    assert out.stdout.strip() == "False"


def test_solver_is_deterministic():
    rng = np.random.default_rng(4)
    A = rng.standard_normal((4, 9))
    b = A @ rng.random(9)
    c = rng.random(9)
    lp = StandardLP(A, b, c)
    first = solve_lp(lp)
    second = solve_lp(lp)
    assert first.basis == second.basis
    assert first.x.tobytes() == second.x.tobytes()
    assert first.iterations == second.iterations


def test_simplex_from_basis_warm_start():
    # start on the expensive vertex and pivot off it
    A = np.array([[1.0, 1.0]])
    b = np.array([1.0])
    c = np.array([5.0, 1.0])
    basis, x, obj, status = simplex_from_basis(A, b, c, [0])
    assert status == OPTIMAL
    assert basis == [1]
    assert obj == pytest.approx(1.0)
    assert x == pytest.approx(np.array([0.0, 1.0]))


def test_simplex_from_basis_already_optimal():
    A = np.array([[1.0, 1.0]])
    basis, x, obj, status = simplex_from_basis(A, np.array([1.0]), np.array([5.0, 1.0]), [1])
    assert status == OPTIMAL and basis == [1]


def test_simplex_from_basis_singular_basis_raises():
    A = np.array([[1.0, 2.0, 1.0], [2.0, 4.0, 0.0]])
    with pytest.raises(LpError, match="singular"):
        simplex_from_basis(A, np.array([1.0, 2.0]), np.zeros(3), [0, 1])


# -- assignment LP construction ----------------------------------------------


def test_assignment_problem_validation():
    with pytest.raises(LpError):
        AssignmentProblem(3, np.zeros((2, 2)))
    with pytest.raises(LpError):
        AssignmentProblem(2, np.array([[1.0, np.inf], [0.0, 0.0]]))


def test_assignment_column_structure():
    n = 4
    for i in range(n):
        for k in range(n):
            col = assignment_column(i, k, n)
            assert col.shape == (2 * n - 1,)
            want = np.zeros(2 * n - 1)
            want[i] = 1.0
            if k < n - 1:
                want[n + k] = 1.0
            assert np.array_equal(col, want)


def test_build_assignment_lp_shape():
    n = 3
    p = AssignmentProblem(n, np.arange(9, dtype=float).reshape(3, 3))
    lp = build_assignment_lp(p)
    assert lp.A.shape == (2 * n - 1, n * n)
    assert np.array_equal(lp.b, np.ones(2 * n - 1))
    assert np.array_equal(lp.c, p.cost.ravel())
    for i in range(n):
        for k in range(n):
            assert np.array_equal(lp.A[:, i * n + k], assignment_column(i, k, n))


def test_assignment_n1_forced():
    p = AssignmentProblem(1, np.array([[7.5]]))
    sol = solve_lp(build_assignment_lp(p))
    assert sol.status == OPTIMAL
    assert sol.x == pytest.approx(np.array([1.0]))
    assert sol.objective == pytest.approx(7.5)


def test_assignment_n2_hand_example():
    p = AssignmentProblem(2, np.array([[1.0, 2.0], [2.0, 1.0]]))
    sol = solve_lp(build_assignment_lp(p))
    assert sol.status == OPTIMAL
    assert sol.objective == pytest.approx(2.0)
    assert solution_perm(sol, 2) == (0, 1)


def test_assignment_solutions_are_integral():
    """Vertices of the assignment polytope are permutation matrices."""
    rng = np.random.default_rng(2)
    worst = 0.0
    for _ in range(200):
        n = int(rng.integers(3, 7))
        p = AssignmentProblem(n, rng.random((n, n)))
        sol = solve_lp(build_assignment_lp(p))
        assert sol.status == OPTIMAL
        worst = max(worst, float(np.abs(sol.x - np.round(sol.x)).max()))
    assert worst <= 1e-9


def test_assignment_duality_gap():
    rng = np.random.default_rng(8)
    for _ in range(100):
        n = int(rng.integers(3, 7))
        lp = build_assignment_lp(AssignmentProblem(n, rng.random((n, n))))
        sol = solve_lp(lp)
        assert abs(float(lp.b @ sol.y) - sol.objective) <= 1e-8


def test_assignment_matches_reference_exactly():
    """LP optimum equals the combinatorial optimum, bit for bit."""
    rng = np.random.default_rng(15)
    for _ in range(100):
        n = int(rng.integers(2, 7))
        cost = rng.random((n, n))
        p = AssignmentProblem(n, cost)
        sol = solve_lp(build_assignment_lp(p))
        perm = solution_perm(sol, n)
        _, ref = hungarian(p)
        assert assignment_cost(perm, cost) == ref


# -- reference solvers ---------------------------------------------------------


def test_hungarian_prefers_any_optimum():
    cost = np.array([[1.0, 5.0], [5.0, 1.0]])
    perm, obj = hungarian(AssignmentProblem(2, cost))
    assert perm == (0, 1)
    assert obj == pytest.approx(2.0)


def test_hungarian_against_solve_lp():
    """The Hungarian oracle and the simplex on the assignment LP, two
    independent routes, reach the same optimum."""
    rng = np.random.default_rng(33)
    for _ in range(50):
        cost = rng.random((6, 6))
        p = AssignmentProblem(6, cost)
        perm_h, obj_h = hungarian(p)
        perm_lp = solution_perm(solve_lp(build_assignment_lp(p)), 6)
        assert sorted(perm_h) == list(range(6))
        assert obj_h == pytest.approx(assignment_cost(perm_lp, cost), abs=1e-12)


def test_integer_cost_assignment_lps_match_highs():
    """Integer costs tie often; the float optimum still matches HiGHS and,
    exactly, the Hungarian oracle."""
    rng = np.random.default_rng(19)
    for _ in range(10):
        n = int(rng.integers(2, 5))
        cost = rng.integers(0, 20, size=(n, n)).astype(float)
        problem = AssignmentProblem(n, cost)
        lp = build_assignment_lp(problem)
        sol = solve_lp(lp)
        assert sol.status == OPTIMAL
        assert_matches_highs(lp, sol)
        assert sol.objective == hungarian(problem)[1]


def test_assignment_cost_row_order():
    cost = np.array([[0.1, 0.2], [0.3, 0.4]])
    assert assignment_cost((1, 0), cost) == cost[0, 1] + cost[1, 0]


# -- phase-1 crash basis ---------------------------------------------------------


def _rows_lp(rows, cost, free=None):
    """LP over two nonnegative variables, plus a free scalar ``z`` split
    into z+ and z- when ``free`` gives its coefficient in each row.
    ``rows`` holds (kind, coeffs, rhs) triples, kind "eq" or "le"; each
    "le" row gets a slack column, after all the variables."""
    A = np.array([coeffs for _, coeffs, _ in rows], dtype=float)
    c = list(cost)
    if free is not None:
        z = np.array(free, dtype=float)[:, None]
        A = np.hstack([A, z, -z])
        c += [0.5, -0.5]
    le = [kind == "le" for kind, _, _ in rows]
    # adding to 0.0 stores every zero as +0.0
    A = np.hstack([A, np.eye(len(rows))[:, le]]) + 0.0
    c = np.concatenate([c, np.zeros(sum(le))]) + 0.0
    return StandardLP(A, [rhs for _, _, rhs in rows], c)


# x0 and x1 sit in both rows, so only the columns the comments name can
# crash.
CRASH_CASES = {
    # x0 + x1 >= 1 is stored as -x0 - x1 + s = -1; its slack's +1 has
    # the other sign than b, so that row cannot crash and takes an artificial
    "negative-rhs le row": StandardLP(
        [[-1.0, -1.0, 1.0, 0.0], [1.0, 1.0, 0.0, 1.0]], [-1.0, 2.0], [1.0, 2.0, 0.0, 0.0]
    ),
    # column 2 is a singleton with a -1 (a surplus), which cannot crash
    "negative singleton": StandardLP(
        [[1.0, 1.0, -1.0, 0.0], [1.0, 2.0, 0.0, 1.0]], [1.0, 3.0], [1.0, 2.0, 0.5, 0.0]
    ),
    # column 2 crashes at 3 / 2 = 1.5; row 1 takes an artificial
    "non-unit singleton": StandardLP(
        [[1.0, 1.0, 2.0], [1.0, -1.0, 0.0]], [3.0, 0.5], [-1.0, -1.0, 0.0]
    ),
    # z's positive half is a singleton in row 0 and crashes there, and the
    # slack crashes row 1: no artificial at all
    "free variable in one row": _rows_lp(
        [("eq", [1.0, 1.0], 2.0), ("le", [1.0, 1.0], 1.5)], [1.0, 1.0], free=[1.0, 0.0]
    ),
    # row 0 has b < 0, so it is z's negative half that crashes there
    "free variable in one flipped row": _rows_lp(
        [("eq", [1.0, 1.0], -2.0), ("le", [1.0, 1.0], 1.5)], [1.0, 1.0], free=[1.0, 0.0]
    ),
}


@pytest.mark.parametrize("case", list(CRASH_CASES))
def test_crash_basis_cases_match_highs(case):
    lp = CRASH_CASES[case]
    sol = solve_lp(lp)
    assert_matches_highs(lp, sol)
    assert sol.kept_rows is None


def test_crash_basis_redundant_rows_are_dropped():
    """Two copies of one equality row sit next to two slack rows: the slack
    rows crash, and one copy's artificial cannot leave and is dropped."""
    lp = _rows_lp(
        [("eq", [1.0, 1.0], 1.0), ("eq", [1.0, 1.0], 1.0),
         ("le", [1.0, 0.0], 0.7), ("le", [0.0, 1.0], 0.9)],
        [-1.0, 0.0],
    )
    sol = solve_lp(lp)
    assert_matches_highs(lp, sol)
    assert sol.kept_rows is not None and len(sol.kept_rows) == 3
    assert {2, 3} <= set(sol.kept_rows)
    assert sol.objective == pytest.approx(-0.7)


def test_dependent_row_dropped_is_the_artificials_own():
    """Row 0 equals half of row 3 plus row 1. Phase 1 leaves row 0's
    artificial basic at position 2, where no structural column can replace
    it: row 0 is the one to drop, not row 2, whose removal would leave a
    singular basis."""
    lp = StandardLP(
        [[1.0, -1.0, 0.0], [0.0, -1.0, 0.0], [-1.0, -1.0, 1.0], [2.0, 0.0, 0.0]],
        [-1.0, -1.0, -1.0, 0.0], [1.0, 2.0, 3.0],
    )
    sol = solve_lp(lp)
    assert_matches_highs(lp, sol)
    assert sol.kept_rows == [1, 2, 3]
    assert np.allclose(lp.A @ sol.x, lp.b)


def dependent_terminal_mpc(n):
    """MPC agents whose input moves states 0 and 2 (and 1 and 3) together,
    so the terminal equalities that pin all four states are dependent."""
    eye4 = np.eye(4).tolist()
    raw = dict(default_config("mpc", n).raw)
    raw["mpc"] = {"horizon": 4, "steps": 5, "agents": [
        {"A": eye4, "B": [[1.0, 0.0], [0.0, 1.0], [1.0, 0.0], [0.0, 1.0]],
         "C": eye4, "D": np.zeros((4, 2)).tolist(),
         "x0": [0.1 * k, -0.2, 0.1 * k, -0.2], "terminal_state": [0.25] * 4,
         "terminal_input": [0.0, 0.0], "w_x": [1.0] * 4, "w_u": [0.1, 0.1],
         "u_min": [-1.0, -1.0], "u_max": [1.0, 1.0]}
        for k in range(n)]}
    return parse_config(raw)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_mpc_with_dependent_terminal_rows_solves(n, tmp_path):
    """Each agent block carries two dependent terminal rows; the bootstrap
    and every local OCP drop them and solve."""
    cfg = dependent_terminal_mpc(n)
    lps = captured_mpc_lps(lambda: run_scenario(cfg, str(tmp_path)))
    assert len(lps) > n + 1
    sol = solve_lp(lps[n])  # after the n local solves of the bootstrap
    assert_matches_highs(lps[n], sol)
    assert sol.kept_rows is not None and len(sol.kept_rows) == lps[n].m - 2 * n


def test_bootstrap_with_dependent_terminal_rows_seeds_no_basis():
    """The agents' own solves drop a row, so their bases cannot start the
    stacked LP: it solves in two phases and no OCP gets a seed."""
    ocps = [mpc.build_local_ocp(s)
            for s in ocp_specs(dependent_terminal_mpc(2).params)]
    plans = mpc.centralized_bootstrap(ocps)
    for ocp, plan in zip(ocps, plans):
        mpc.validate_plan(plan, ocp.spec)
        assert ocp.basis is None


def test_crash_basis_infeasible_with_one_artificial():
    """Every row but the equality crashes on its slack; phase 1 still
    reports the LP infeasible, as HiGHS does."""
    lp = _rows_lp(
        [("le", [1.0, 1.0], 1.0), ("le", [1.0, 0.0], 0.5), ("eq", [1.0, 1.0], 3.0)],
        [1.0, 1.0],
    )
    sol = solve_lp(lp)
    assert sol.status == INFEASIBLE and sol.x is None
    ref = linprog(lp.c, A_eq=lp.A, b_eq=lp.b, bounds=(0, None), method="highs")
    assert ref.status == 2


def test_crash_basis_pivot_counts(tmp_path):
    """The default four-agent MPC run's bootstrap LP and first local OCP LP
    took 969 and 131 pivots from the all-artificial start; the crash basis
    walks no slack row's artificial out."""
    lps = captured_mpc_lps(lambda: run_scenario(default_config("mpc", 4), str(tmp_path)))
    assert solve_lp(lps[4]).iterations <= 200
    assert solve_lp(lps[0]).iterations <= 60


def test_phase1_starts_from_the_exact_diagonal_inverse(monkeypatch):
    """The crash basis is diagonal, so phase 1 starts from diag(1/a): a
    cold solve of the default local OCP factors only phase 2's basis, and
    returns the basis and x that a LAPACK inverse of the crash basis gives."""
    spec = ocp_specs(default_config("mpc", 4).params)[0]
    lp = mpc.build_local_ocp(spec).lp
    real_simplex = lp_module._simplex
    starts = []

    def lapack_start(A, b, c, basis, *, Binv=None):
        if not starts:  # phase 1: what np.linalg.inv made of the crash basis
            starts.append(Binv)
            Binv = None
        return real_simplex(A, b, c, basis, Binv=Binv)

    monkeypatch.setattr(lp_module, "_simplex", lapack_start)
    lapack = solve_lp(lp)
    monkeypatch.undo()
    assert starts[0] is not None

    real_inv = np.linalg.inv
    calls = []

    def counting_inv(a):
        calls.append(a.shape)
        return real_inv(a)

    monkeypatch.setattr(np.linalg, "inv", counting_inv)
    sol = solve_lp(lp)
    assert calls == [(lp.m, lp.m)]
    assert sol.iterations == lapack.iterations == 35
    assert sol.basis == lapack.basis
    assert sol.x.tobytes() == lapack.x.tobytes()


def test_lp_builder_infeasible_detected():
    # x = 1 and x = 2
    lp = StandardLP([[1.0], [1.0]], [1.0, 2.0], [0.0])
    assert solve_lp(lp).status == INFEASIBLE


# -- warm start: solve_lp(basis=) ----------------------------------------------


def assert_same_solve(warm, cold):
    """A warm re-solve reaches the cold solve's status and objective."""
    assert warm.status == cold.status
    if cold.status == OPTIMAL:
        assert warm.objective == pytest.approx(cold.objective, rel=1e-9, abs=1e-12)


def assert_fell_back(lp, basis):
    """An unusable basis is ignored: the solve is the cold one, pivot for
    pivot, and does not raise."""
    warm = solve_lp(lp, basis=basis)
    cold = solve_lp(lp)
    assert warm.status == cold.status
    assert warm.iterations == cold.iterations
    assert warm.basis == cold.basis
    if cold.status == OPTIMAL:
        assert warm.x.tobytes() == cold.x.tobytes()
        assert warm.kept_rows == cold.kept_rows


def test_warm_start_from_own_optimum_takes_no_pivot():
    rng = np.random.default_rng(5)
    lp = random_feasible_lp(rng, 5, 9)
    cold = solve_lp(lp)
    warm = solve_lp(lp, basis=cold.basis)
    assert warm.iterations == 0
    assert warm.basis == cold.basis
    assert np.allclose(warm.x, cold.x, rtol=1e-12, atol=1e-12)
    assert_kkt(lp, warm)


def test_warm_start_random_lps_with_new_rhs_match_cold():
    rng = np.random.default_rng(23)
    for _ in range(60):
        m = int(rng.integers(2, 7))
        n = m + int(rng.integers(1, 7))
        old = random_feasible_lp(rng, m, n)
        basis = solve_lp(old).basis
        new = StandardLP(old.A, old.A @ rng.random(n), old.c)
        warm = solve_lp(new, basis=basis)
        assert_same_solve(warm, solve_lp(new))
        assert_kkt(new, warm)


def test_warm_start_mpc_local_lps_match_cold(tmp_path):
    """Each agent's successive local OCPs share A and c; re-solving the
    next one from the previous optimum matches its cold solve, in fewer
    pivots overall."""
    lps = captured_mpc_lps(lambda: run_scenario(default_config("mpc", 4), str(tmp_path)))
    local = lps[5:]
    warm_pivots = cold_pivots = pairs = 0
    for prev, new in zip(local, local[4:]):
        assert prev.A.tobytes() == new.A.tobytes() and prev.c.tobytes() == new.c.tobytes()
        warm = solve_lp(new, basis=solve_lp(prev).basis)
        cold = solve_lp(new)
        assert_same_solve(warm, cold)
        assert_kkt(new, warm)
        warm_pivots += warm.iterations
        cold_pivots += cold.iterations
        pairs += 1
    assert pairs >= 20
    assert warm_pivots < cold_pivots / 4


def test_warm_basis_infeasible_for_new_rhs_falls_back():
    """An optimal basis that the new b makes infeasible is still dual
    feasible: the dual simplex re-solves from it to the cold optimum."""
    rng = np.random.default_rng(8)
    found = 0
    for _ in range(200):
        old = random_feasible_lp(rng, 4, 8)
        basis = solve_lp(old).basis
        new = StandardLP(old.A, old.A @ rng.random(8), old.c)
        if np.min(np.linalg.solve(new.A[:, basis], new.b)) >= -1e-6:
            continue
        warm = solve_lp(new, basis=basis)
        assert_same_solve(warm, solve_lp(new))
        assert_kkt(new, warm)
        found += 1
    assert found >= 10


def test_unusable_warm_basis_falls_back():
    rng = np.random.default_rng(2)
    A = rng.standard_normal((3, 6))
    A[:, 4] = 2.0 * A[:, 0]  # columns 0 and 4 are parallel
    lp = StandardLP(A, A @ rng.random(6), rng.random(6))
    for basis in ([0, 0, 1], [0, 4, 1], [0, 1], [0, 1, 2, 3], [0, 1, 6], [-1, 1, 2],
                  [0.0, 1.0, 2.0], []):
        assert_fell_back(lp, basis)
    # columns 0 and 1 are nearly parallel: inv() succeeds and B^-1 b = (1, 1)
    # is feasible, but the condition number is about 4e14
    near = np.array([[1.0, 1.0, 1.0, 0.0], [1.0, 1.0 + 1e-14, 0.0, 1.0]])
    lp = StandardLP(near, near[:, :2] @ np.ones(2), [1.0, 2.0, 0.0, 0.0])
    assert_fell_back(lp, [0, 1])


def test_warm_basis_short_a_dropped_row_falls_back():
    """A basis from a solve that dropped a dependent row has one entry
    fewer than the LP has rows."""
    lp = _rows_lp(
        [("eq", [1.0, 1.0], 1.0), ("eq", [1.0, 1.0], 1.0),
         ("le", [1.0, 0.0], 0.7), ("le", [0.0, 1.0], 0.9)],
        [-1.0, 0.0],
    )
    first = solve_lp(lp)
    assert len(first.basis) == lp.m - 1
    assert_fell_back(lp, first.basis)


def test_infeasible_lp_with_warm_basis_reports_infeasible():
    rows = [("le", [1.0, 1.0], 1.0), ("le", [1.0, 0.0], 0.5), ("eq", [1.0, 1.0], 0.8)]
    feasible = _rows_lp(rows, [1.0, 1.0])
    basis = solve_lp(feasible).basis
    assert len(basis) == feasible.m
    infeasible = StandardLP(feasible.A, [1.0, 0.5, 3.0], feasible.c)
    sol = solve_lp(infeasible, basis=basis)
    assert sol.status == INFEASIBLE and sol.x is None
    assert_same_solve(sol, solve_lp(infeasible))


def test_warm_start_factors_its_basis_once(monkeypatch, tmp_path):
    """Re-solving an MPC local LP, which has rows with b < 0, from its own
    optimum factors that basis once, for the feasibility check and phase 2
    together."""
    lp = captured_mpc_lps(lambda: run_scenario(default_config("mpc", 2), str(tmp_path)))[1]
    assert np.any(lp.b < 0)
    first = solve_lp(lp)
    real_inv = np.linalg.inv
    calls = []

    def counting_inv(a):
        calls.append(a.shape)
        return real_inv(a)

    monkeypatch.setattr(np.linalg, "inv", counting_inv)
    again = solve_lp(lp, basis=first.basis)
    assert calls == [(lp.m, lp.m)] and again.iterations == 0
    assert again.basis == first.basis
    assert again.x.tobytes() == first.x.tobytes()
    assert_kkt(lp, again)


# -- dual simplex re-solves and reused factors ---------------------------------


def phase1_spy(monkeypatch):
    """Count the phase-1 runs of every solve."""
    runs = []
    real = lp_module._phase1

    def spy(A, b):
        runs.append(A.shape)
        return real(A, b)

    monkeypatch.setattr(lp_module, "_phase1", spy)
    return runs


def inv_spy(monkeypatch):
    """Record the shape of every np.linalg.inv call."""
    calls = []
    real = np.linalg.inv

    def spy(a):
        calls.append(a.shape)
        return real(a)

    monkeypatch.setattr(np.linalg, "inv", spy)
    return calls


def assert_dual_resolve(monkeypatch, lp, basis):
    """``basis`` is infeasible for ``lp.b``: the warm solve runs no phase 1,
    pivots fewer times than the cold solve and reaches its objective, the
    HiGHS optimum and KKT."""
    assert np.min(np.linalg.solve(lp.A[:, basis], lp.b)) < -1e-6
    runs = phase1_spy(monkeypatch)
    warm = solve_lp(lp, basis=basis)
    assert runs == []
    cold = solve_lp(lp)
    assert len(runs) == 1
    monkeypatch.undo()
    assert_same_solve(warm, cold)
    assert_matches_highs(lp, warm)
    assert 0 < warm.iterations < cold.iterations


def test_dual_simplex_resolves_random_lps(monkeypatch):
    rng = np.random.default_rng(31)
    found = 0
    while found < 15:
        m = int(rng.integers(4, 9))
        old = random_feasible_lp(rng, m, 2 * m)
        basis = solve_lp(old).basis
        new = StandardLP(old.A, old.A @ rng.random(2 * m), old.c)
        if np.min(np.linalg.solve(new.A[:, basis], new.b)) >= -1e-6:
            continue
        if solve_lp(new).iterations < 2:
            continue  # a one-pivot cold solve leaves nothing to beat
        assert_dual_resolve(monkeypatch, new, basis)
        found += 1


def test_dual_simplex_resolves_mpc_local_lps(monkeypatch, tmp_path):
    """Each local OCP LP of a default run, re-solved from its own optimal
    basis after its initial state is mirrored (row 0 holds x_now), which
    makes that basis infeasible but leaves it dual feasible."""
    lps = captured_mpc_lps(lambda: run_scenario(default_config("mpc", 4), str(tmp_path)))
    local = [lp for lp in lps if lp.m == lps[0].m]
    assert len(local) >= 30
    for lp in local:
        b = lp.b.copy()
        b[0] = -b[0] if b[0] else 0.3
        assert_dual_resolve(monkeypatch, lp.with_rhs(b), solve_lp(lp).basis)


def test_dual_ray_reports_infeasible(monkeypatch):
    """x0 + x1 = 1 with x0, x1 <= 0.4 has no solution. From the basis
    optimal for x0 + x1 = 0.5, B^-1 b is infeasible, and its pivot row has
    no entering column: the dual simplex stops on that ray without phase 1."""
    rows = [("le", [1.0, 0.0], 0.4), ("le", [0.0, 1.0], 0.4), ("eq", [1.0, 1.0], 0.5)]
    feasible = _rows_lp(rows, [1.0, 2.0])
    basis = solve_lp(feasible).basis
    infeasible = StandardLP(feasible.A, [0.4, 0.4, 1.0], feasible.c)
    runs = phase1_spy(monkeypatch)
    sol = solve_lp(infeasible, basis=basis)
    assert runs == []
    assert sol.status == INFEASIBLE and sol.x is None
    ref = linprog(infeasible.c, A_eq=infeasible.A, b_eq=infeasible.b, bounds=(0, None),
                  method="highs")
    assert ref.status == 2
    assert solve_lp(infeasible).status == INFEASIBLE


def test_warm_basis_neither_primal_nor_dual_feasible_runs_both_phases(monkeypatch):
    """A basis that b makes infeasible and that has a negative reduced
    cost gives the dual simplex no start: it makes no pivot, and the solve
    runs phase 1 and phase 2 exactly as the cold solve does."""
    rng = np.random.default_rng(41)
    real = lp_module._simplex
    found = 0
    while found < 5:
        lp = random_feasible_lp(rng, 4, 8)
        basis = sorted(rng.choice(8, size=4, replace=False).tolist())
        B = lp.A[:, basis]
        if np.linalg.cond(B) > 1e3:
            continue
        rc = lp.c - lp.c[basis] @ np.linalg.solve(B, lp.A)
        if np.linalg.solve(B, lp.b).min() >= -1e-6 or rc.min() >= -1e-6:
            continue
        statuses = []

        def spy(*args, **kwargs):
            out = real(*args, **kwargs)
            if kwargs.get("dual"):
                statuses.append((out[4], out[5]))
            return out

        monkeypatch.setattr(lp_module, "_simplex", spy)
        runs = phase1_spy(monkeypatch)
        assert_fell_back(lp, basis)
        assert statuses == [(None, 0)] and len(runs) == 2  # the warm and the cold solve
        monkeypatch.undo()
        assert_kkt(lp, solve_lp(lp, basis=basis))
        found += 1


def mpc_local_lp_and_optimum(tmp_path):
    """A default two-agent local OCP LP, with rows b < 0, and its warm
    re-solve from its own optimum."""
    lp = captured_mpc_lps(lambda: run_scenario(default_config("mpc", 2), str(tmp_path)))[1]
    assert np.any(lp.b < 0)
    return lp, solve_lp(lp, basis=solve_lp(lp).basis)


def test_factor_hit_skips_inv_and_matches_a_fresh_factor(monkeypatch, tmp_path):
    lp, fresh = mpc_local_lp_and_optimum(tmp_path)
    assert fresh.warm.Binv is not None and fresh.iterations == 0
    moved = lp.with_rhs(lp.b * 1.001)  # still inside the region
    calls = inv_spy(monkeypatch)
    hit = solve_lp(moved, basis=fresh.warm)
    again = solve_lp(moved, basis=list(fresh.warm))
    assert calls == [(lp.m, lp.m)]  # the plain list alone was factored
    assert hit.iterations == again.iterations == 0
    assert hit.basis == again.basis
    assert hit.x.tobytes() == again.x.tobytes()
    assert hit.y.tobytes() == again.y.tobytes()
    assert hit.objective == again.objective
    assert hit.warm.Binv is fresh.warm.Binv
    assert_kkt(moved, hit)


def test_a_b_of_other_signs_reuses_the_kept_factor(monkeypatch, tmp_path):
    """The kept factor is B^-1 of the caller's rows, so it serves a b
    whose signs have changed with no factorization, and the solve equals
    one from a fresh factor bit for bit."""
    lp, fresh = mpc_local_lp_and_optimum(tmp_path)
    b = lp.b.copy()
    row = int(np.flatnonzero(b < 0)[0])
    b[row] = 0.0  # the sign of b in this row changes
    moved = lp.with_rhs(b)
    calls = inv_spy(monkeypatch)
    warm = solve_lp(moved, basis=fresh.warm)
    assert calls == []
    again = solve_lp(moved, basis=list(fresh.warm))
    monkeypatch.undo()
    assert warm.basis == again.basis
    assert warm.x.tobytes() == again.x.tobytes()
    assert warm.y.tobytes() == again.y.tobytes()
    assert_same_solve(warm, solve_lp(moved))
    assert_kkt(moved, warm)


def test_kept_factor_is_the_inverse_of_the_callers_basis():
    """Warm-solved from a plain list, an LP with rows b < 0 keeps
    np.linalg.inv of its own basis columns, no row negated."""
    lp = random_feasible_lp(np.random.default_rng(7), 5, 9)
    assert np.any(lp.b < 0)
    cold = solve_lp(lp)
    sol = solve_lp(lp, basis=list(cold.basis))
    assert sol.iterations == 0
    assert sol.warm.Binv.tobytes() == np.linalg.inv(lp.A[:, sol.basis]).tobytes()


def test_factor_of_another_lp_is_not_reused(monkeypatch, tmp_path):
    """A factor is tied to the A and c arrays it was made for: an equal
    copy of them is factored afresh."""
    lp, fresh = mpc_local_lp_and_optimum(tmp_path)
    copy = StandardLP(lp.A.copy(), lp.b, lp.c.copy())
    calls = inv_spy(monkeypatch)
    sol = solve_lp(copy, basis=fresh.warm)
    assert calls == [(lp.m, lp.m)]
    assert sol.x.tobytes() == fresh.x.tobytes()


def test_dual_pivots_leave_the_cached_factor_as_it_was(tmp_path):
    lp, fresh = mpc_local_lp_and_optimum(tmp_path)
    kept = fresh.warm.Binv.copy()
    x_rows = np.flatnonzero(lp.b < 0)
    b = lp.b.copy()
    b[x_rows] *= 3.0  # the same signs, outside the region
    moved = lp.with_rhs(b)
    assert np.min(fresh.warm.Binv @ moved.b) < 0
    sol = solve_lp(moved, basis=fresh.warm)
    assert sol.iterations > 0 and sol.warm.Binv is None
    assert fresh.warm.Binv.tobytes() == kept.tobytes()
    assert_matches_highs(moved, sol)


def test_with_rhs_checks_only_b():
    lp = random_feasible_lp(np.random.default_rng(3), 3, 5)
    moved = lp.with_rhs([1.0, 2.0, 3.0])
    assert moved.A is lp.A and moved.c is lp.c
    assert not moved.b.flags.writeable
    for bad in ([1.0, np.nan, 3.0], [1.0, np.inf, 3.0], [1.0, 2.0]):
        with pytest.raises(LpError):
            lp.with_rhs(bad)


# -- one digest over a seeded table of solves ---------------------------------


def seeded_lp_table(rng, per_family=50):
    """LPs from five families, each of which puts a sign of b to work:
    mixed-sign b with +1 slacks, >= rows (-1 slacks) with b < 0, integer
    coefficients in -2..2 with some b = 0, a duplicated (dependent) row,
    and singleton columns of both signs."""
    lps = []
    for _ in range(per_family):
        m = int(rng.integers(2, 7))
        k = int(rng.integers(1, 5))
        G = rng.standard_normal((m, k))
        lps.append(StandardLP(np.hstack([G, np.eye(m)]), rng.standard_normal(m),
                              np.concatenate([rng.random(k), np.zeros(m)])))
        lps.append(StandardLP(np.hstack([G, -np.eye(m)]), -rng.random(m) - 0.1,
                              np.concatenate([rng.random(k) + 0.1, rng.random(m)])))
        n = m + int(rng.integers(1, 5))
        Z = rng.integers(-2, 3, (m, n)).astype(float)
        x = rng.integers(0, 3, n) * (rng.random(n) < 0.5)
        b = Z @ x
        b[rng.random(m) < 0.3] = 0.0
        lps.append(StandardLP(Z, b, rng.integers(0, 3, n).astype(float)))
        A = rng.standard_normal((m, n))
        A = np.vstack([A, A[int(rng.integers(m))]])
        lps.append(StandardLP(A, A @ rng.random(n), rng.random(n)))
        D = np.zeros((m, 2 * m))
        D[np.arange(m), np.arange(m)] = rng.choice([1.0, 2.0], m)
        D[np.arange(m), m + np.arange(m)] = -rng.choice([1.0, 0.5], m)
        lps.append(StandardLP(np.hstack([G, D]), rng.standard_normal(m),
                              np.concatenate([rng.standard_normal(k), rng.random(2 * m)])))
    return lps


# recorded with numpy 2.4.6 and one OpenBLAS thread
SEEDED_TABLE_DIGEST = "031b185502f20caa94bbfefd6471ab25372b4a21ab7795f494d32bf4a1549d97"


def test_seeded_solve_table_digest():
    """Cold solves of the seeded table, then warm re-solves after b is
    scaled by 1.001, -1 and 0.5 and perturbed, each from the cold solve's
    ``warm``, from a re-solve's ``warm`` (which carries its factor) and
    from a plain list, hash to the digest recorded when rows with b < 0
    were still negated before the solve. Signing phase 1's artificials
    instead changes no bit of any result but the sign of a zero dual,
    which the negated rows left at -0.0."""
    rng = np.random.default_rng(2028)
    digest = hashlib.sha256()
    solves = 0

    def record(sol):
        nonlocal solves
        solves += 1
        digest.update(repr((sol.status, sol.basis, sol.kept_rows, sol.iterations)).encode())
        # + 0.0 turns -0.0 into 0.0: a zero dual carries no sign
        for arr in (sol.x, None if sol.y is None else sol.y + 0.0):
            digest.update(b"-" if arr is None else arr.tobytes())

    for lp in seeded_lp_table(rng):
        cold = solve_lp(lp)
        record(cold)
        if cold.status != OPTIMAL:
            continue
        own = solve_lp(lp, basis=cold.basis)
        record(own)
        for b in (lp.b * 1.001, -lp.b, lp.b * 0.5, lp.b + 0.3 * rng.standard_normal(lp.m)):
            moved = lp.with_rhs(b)
            for start in (cold.warm, own.warm, list(cold.basis)):
                record(solve_lp(moved, basis=start))
    assert solves > 2000
    assert digest.hexdigest() == SEEDED_TABLE_DIGEST
