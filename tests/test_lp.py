"""Simplex solver and assignment LP tests.

Covers the two-phase solver and its phase-1 crash basis, warm starts, cost
perturbation, and the assignment formulation with the dropped redundant row.
"""

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
    LpBuilder,
    StandardLP,
    assignment_column,
    assignment_cost,
    build_assignment_lp,
    hungarian,
    simplex_from_basis,
    solve_lp,
)
from fleetsim.simrunner import default_config, parse_config, run_scenario
from fleetsim.simrunner.scenarios import _build_ocp_specs


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
    """The stacked LP that ``centralized_bootstrap`` solves for the default
    n-agent MPC config."""
    ocps = [mpc.build_local_ocp(s) for s in _build_ocp_specs(default_config("mpc", n).params)]
    return captured_mpc_lps(lambda: mpc.centralized_bootstrap(ocps))[-1]


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


# -- builder -------------------------------------------------------------------


def test_lp_builder_round_trip():
    builder = LpBuilder()
    x = builder.add_var(2, free=True)
    builder.add_eq({x: np.array([1.0, 1.0])}, 3.0)
    builder.add_le({x: np.array([1.0, 0.0])}, 1.0)
    builder.add_cost(x, np.array([1.0, 2.0]))
    lp, extract = builder.build()
    sol = solve_lp(lp)
    assert sol.status == OPTIMAL
    val = extract.value(sol.x, x)
    assert val.shape == (2,)
    assert val.sum() == pytest.approx(3.0)
    assert val[0] <= 1.0 + 1e-9
    # free variables may go negative: check with a target below zero
    builder2 = LpBuilder()
    z = builder2.add_var(1, free=True)
    builder2.add_eq({z: np.array([1.0])}, -2.0)
    lp2, ex2 = builder2.build()
    sol2 = solve_lp(lp2)
    assert ex2.value(sol2.x, z)[0] == pytest.approx(-2.0)


# -- phase-1 crash basis ---------------------------------------------------------


def _builder_lp(rows, cost, free=None):
    """LP over two nonnegative variables, plus a free scalar ``z`` when
    ``free`` gives its coefficient in each row. ``rows`` holds
    (kind, coeffs, rhs) triples for ``add_eq`` / ``add_le``."""
    bld = LpBuilder()
    x = bld.add_var(2, free=False)
    z = bld.add_var(1) if free is not None else None
    for r, (kind, coeffs, rhs) in enumerate(rows):
        terms = {x: np.array(coeffs, dtype=float)}
        if free is not None and free[r]:
            terms[z] = np.array([free[r]], dtype=float)
        (bld.add_eq if kind == "eq" else bld.add_le)(terms, rhs)
    bld.add_cost(x, np.array(cost, dtype=float))
    if free is not None:
        bld.add_cost(z, np.array([0.5]))
    return bld.build()[0]


# x0 and x1 sit in both rows, so only the columns the comments name can
# crash.
CRASH_CASES = {
    # x0 + x1 >= 1 is stored as -x0 - x1 + s = -1; the row flip turns its
    # slack to -1, so that row cannot crash and takes an artificial
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
    "free variable in one row": _builder_lp(
        [("eq", [1.0, 1.0], 2.0), ("le", [1.0, 1.0], 1.5)], [1.0, 1.0], free=[1.0, 0.0]
    ),
    # after the flip of row 0 it is z's negative half that crashes
    "free variable in one flipped row": _builder_lp(
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
    lp = _builder_lp(
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
            for s in _build_ocp_specs(dependent_terminal_mpc(2).params)]
    plans = mpc.centralized_bootstrap(ocps)
    for ocp, plan in zip(ocps, plans):
        mpc.validate_plan(plan, ocp.spec)
        assert ocp.basis is None


def test_crash_basis_infeasible_with_one_artificial():
    """Every row but the equality crashes on its slack; phase 1 still
    reports the LP infeasible, as HiGHS does."""
    lp = _builder_lp(
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
    spec = _build_ocp_specs(default_config("mpc", 4).params)[0]
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
    builder = LpBuilder()
    x = builder.add_var(1, free=False)
    builder.add_eq({x: np.array([1.0])}, 1.0)
    builder.add_eq({x: np.array([1.0])}, 2.0)
    lp, _ = builder.build()
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
    rng = np.random.default_rng(8)
    found = 0
    for _ in range(200):
        old = random_feasible_lp(rng, 4, 8)
        basis = solve_lp(old).basis
        new = StandardLP(old.A, old.A @ rng.random(8), old.c)
        if np.min(np.linalg.solve(new.A[:, basis], new.b)) >= -1e-6:
            continue
        assert_fell_back(new, basis)
        assert_kkt(new, solve_lp(new, basis=basis))
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
    lp = _builder_lp(
        [("eq", [1.0, 1.0], 1.0), ("eq", [1.0, 1.0], 1.0),
         ("le", [1.0, 0.0], 0.7), ("le", [0.0, 1.0], 0.9)],
        [-1.0, 0.0],
    )
    first = solve_lp(lp)
    assert len(first.basis) == lp.m - 1
    assert_fell_back(lp, first.basis)


def test_infeasible_lp_with_warm_basis_reports_infeasible():
    rows = [("le", [1.0, 1.0], 1.0), ("le", [1.0, 0.0], 0.5), ("eq", [1.0, 1.0], 0.8)]
    feasible = _builder_lp(rows, [1.0, 1.0])
    basis = solve_lp(feasible).basis
    assert len(basis) == feasible.m
    infeasible = StandardLP(feasible.A, [1.0, 0.5, 3.0], feasible.c)
    sol = solve_lp(infeasible, basis=basis)
    assert sol.status == INFEASIBLE and sol.x is None
    assert_fell_back(infeasible, basis)


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
