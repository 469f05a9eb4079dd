"""Sequential distributed MPC tests.

Single-agent planning against a centralized oracle, the coupled
round-robin loop, recursive feasibility, and the validation surface.
"""

import numpy as np
import pytest

from fleetsim import mpc
from fleetsim.errors import FeasibilityError, ModelError, PlanError
from fleetsim.mpc import (
    Box,
    LinearAgentModel,
    OcpSpec,
    Plan,
    Polyhedron,
    StageCost,
    build_local_ocp,
    centralized_bootstrap,
    coupling_residual,
    mpc_round,
    mpc_step,
    plan_cost,
    receding_horizon_oracle,
    replan_local,
    shift_plan,
    validate_plan,
)


def scalar_spec(a=1.0, b=1.0, x0=0.9, x_term=0.0, u_term=0.0, horizon=10,
                w_x=1.0, w_u=0.1, u_lim=None, x_lower=None, coupling=None):
    model = LinearAgentModel(
        A=np.array([[a]]),
        B=np.array([[b]]),
        C=np.array([[1.0]]),
        D=np.array([[0.0]]),
        x0=np.array([x0]),
    )
    u_set = None if u_lim is None else Box(np.array([-u_lim]), np.array([u_lim]))
    x_set = None if x_lower is None else Box(np.array([x_lower]), np.array([np.inf]))
    return OcpSpec(
        model=model,
        horizon=horizon,
        terminal_state=np.array([x_term]),
        terminal_input=np.array([u_term]),
        cost=StageCost(w_x=np.array([w_x]), w_u=np.array([w_u])),
        x_set=x_set,
        u_set=u_set,
        coupling=coupling,
    )


def double_integrator_spec(horizon=10, x0=(1.5, 0.0)):
    model = LinearAgentModel(
        A=np.array([[1.0, 0.1], [0.0, 1.0]]),
        B=np.array([[0.0], [1.0]]),
        C=np.eye(2),
        D=np.zeros((2, 1)),
        x0=np.array(x0),
    )
    return OcpSpec(
        model=model,
        horizon=horizon,
        terminal_state=np.zeros(2),
        terminal_input=np.zeros(1),
        cost=StageCost(w_x=np.array([1.0, 0.5]), w_u=np.array([0.1])),
        u_set=Box(np.array([-2.0]), np.array([2.0])),
    )


def coupled_pair(horizon=8, x0=(0.2, -0.4)):
    """Two scalar agents sharing the budget sum z <= 1."""
    coupling = Polyhedron(np.array([[1.0]]), np.array([1.0]))
    return [
        scalar_spec(x0=x0[i], x_term=0.5, u_term=0.0, horizon=horizon,
                    u_lim=1.0, coupling=coupling)
        for i in range(2)
    ]


def fresh_ocps(specs):
    """One new episode-long OCP per agent, none solved yet."""
    return [build_local_ocp(spec) for spec in specs]


# -- validation ----------------------------------------------------------------


def test_model_shape_validation():
    with pytest.raises(ModelError):
        LinearAgentModel(np.zeros((2, 1)), np.zeros((2, 1)), np.eye(2),
                         np.zeros((2, 1)), np.zeros(2))
    with pytest.raises(ModelError):
        LinearAgentModel(np.eye(2), np.zeros((1, 1)), np.eye(2),
                         np.zeros((2, 1)), np.zeros(2))
    with pytest.raises(ModelError):
        LinearAgentModel(np.eye(2), np.zeros((2, 1)), np.eye(3),
                         np.zeros((3, 1)), np.zeros(2))
    with pytest.raises(ModelError):
        LinearAgentModel(np.eye(2), np.zeros((2, 1)), np.eye(2),
                         np.zeros((2, 1)), np.zeros(3))


def test_model_dims():
    spec = double_integrator_spec()
    assert (spec.model.n, spec.model.m, spec.model.r) == (2, 1, 2)


def test_stage_cost_rejects_negative_weights():
    with pytest.raises(ModelError):
        StageCost(w_x=np.array([-1.0]), w_u=np.array([0.1]))
    with pytest.raises(ModelError):
        StageCost(w_x=np.array([1.0]), w_u=np.array([-0.1]))


def test_ocp_spec_horizon_positive():
    with pytest.raises(ModelError):
        scalar_spec(horizon=0)


def test_ocp_spec_requires_equilibrium_terminal():
    with pytest.raises(ModelError):
        scalar_spec(a=0.95, x_term=0.4, u_term=0.0)
    # the matching input makes it an equilibrium again
    spec = scalar_spec(a=0.95, b=0.5, x_term=0.4, u_term=0.04)
    assert spec.terminal_state[0] == 0.4


def test_box_rows():
    box = Box(np.array([-1.0]), np.array([2.0]))
    G, g = box.rows(1)
    grid = sorted(zip(G[:, 0].tolist(), g.tolist()))
    assert grid == [(-1.0, 1.0), (1.0, 2.0)]
    # infinite sides produce no rows
    half = Box(np.array([-np.inf]), np.array([2.0]))
    G, g = half.rows(1)
    assert G.shape[0] == 1


def test_plan_shape_validation():
    with pytest.raises(PlanError):
        Plan(np.zeros((3, 1)), np.zeros((3, 1)), np.zeros((3, 1)))
    with pytest.raises(PlanError):
        Plan(np.zeros((3, 1)), np.zeros((2, 1)), np.zeros((3, 1)))


def test_validate_plan_catches_dynamics_violation():
    spec = scalar_spec(horizon=2, x0=1.0)
    good = Plan(
        np.array([[1.0], [0.5], [0.0]]),
        np.array([[-0.5], [-0.5]]),
        np.array([[1.0], [0.5]]),
    )
    validate_plan(good, spec)
    bad = Plan(
        np.array([[1.0], [0.7], [0.0]]),
        np.array([[-0.5], [-0.5]]),
        np.array([[1.0], [0.7]]),
    )
    with pytest.raises(PlanError):
        validate_plan(bad, spec)


def test_validate_plan_horizon_and_terminal():
    spec = scalar_spec(horizon=3)
    short = Plan(np.zeros((3, 1)), np.zeros((2, 1)), np.zeros((2, 1)))
    with pytest.raises(PlanError):
        validate_plan(short, spec)
    drifting = Plan(
        np.array([[1.0], [1.0], [1.0], [1.0]]),
        np.zeros((3, 1)),
        np.ones((3, 1)),
    )
    with pytest.raises(PlanError):
        validate_plan(drifting, spec)


def test_plan_cost_hand_value():
    spec = scalar_spec(horizon=1, x0=1.0, w_x=1.0, w_u=0.1)
    plan = Plan(np.array([[1.0], [0.0]]), np.array([[-1.0]]), np.array([[1.0]]))
    assert plan_cost(plan, spec) == pytest.approx(1.1)


# -- single-agent planning ---------------------------------------------------------


def test_deadbeat_single_step():
    spec = scalar_spec(horizon=1, x0=1.0)
    plan, cost = replan_local(build_local_ocp(spec), np.array([1.0]))
    assert plan is not None
    assert plan.inputs[0, 0] == pytest.approx(-1.0)
    assert plan.states[1, 0] == pytest.approx(0.0)
    assert cost == pytest.approx(plan_cost(plan, spec))


def test_unreachable_terminal_is_infeasible():
    spec = scalar_spec(horizon=1, x0=1.0, u_lim=0.1)
    plan, cost = replan_local(build_local_ocp(spec), np.array([1.0]))
    assert plan is None and cost is None


def test_build_local_ocp_round_trip():
    spec = double_integrator_spec(horizon=10)
    ocp = build_local_ocp(spec)
    from fleetsim.lp import solve_lp

    sol = solve_lp(ocp.lp)
    assert sol.status == "optimal"
    plan = ocp.extract_plan(sol.x)
    validate_plan(plan, spec)
    assert plan.states[0] == pytest.approx(spec.model.x0)


def test_already_optimal_plan_is_a_fixed_point():
    spec = scalar_spec(horizon=6, x0=0.8)
    ocp = build_local_ocp(spec)
    plan, _ = replan_local(ocp, spec.model.x0)
    again, _ = replan_local(ocp, spec.model.x0)  # warm, from the optimal basis
    assert np.array_equal(plan.states, again.states)
    assert np.array_equal(plan.inputs, again.inputs)


def test_equilibrium_start_stays_put():
    spec = scalar_spec(x0=0.0, x_term=0.0, u_term=0.0, horizon=5)
    plan, cost = replan_local(build_local_ocp(spec), np.array([0.0]))
    assert cost == pytest.approx(0.0)
    assert np.allclose(plan.states, 0.0, atol=1e-10)
    assert np.allclose(plan.inputs, 0.0, atol=1e-10)


def test_shift_plan_appends_equilibrium():
    spec = scalar_spec(horizon=3, x0=0.6)
    plan, _ = replan_local(build_local_ocp(spec), np.array([0.6]))
    shifted = shift_plan(plan, spec)
    assert shifted.states.shape == plan.states.shape
    assert shifted.states[0, 0] == pytest.approx(plan.states[1, 0])
    assert shifted.states[-1, 0] == pytest.approx(0.0)
    assert shifted.inputs[-1, 0] == pytest.approx(0.0)


def test_shift_plan_rejects_corrupted_input():
    spec = scalar_spec(horizon=3, x0=0.6)
    plan, _ = replan_local(build_local_ocp(spec), np.array([0.6]))
    broken = Plan(plan.states + 0.5, plan.inputs, plan.outputs)
    with pytest.raises(PlanError):
        shift_plan(broken, spec)


# -- oracle -------------------------------------------------------------------------


def test_oracle_matches_stepped_loop_single_agent():
    """The per-step loop reproduces the centralized receding-horizon run."""
    spec = double_integrator_spec(horizon=10)
    steps = 30
    ref_states, ref_inputs = receding_horizon_oracle(spec, steps)
    plans = centralized_bootstrap([spec])
    ocps = fresh_ocps([spec])
    states = [spec.model.x0.copy()]
    for t in range(steps):
        result = mpc_step(ocps, plans, t)
        plans = result.plans
        states.append(result.states[0])
    got = np.array(states)
    assert np.max(np.abs(got - ref_states)) <= 1e-6


def test_oracle_replan_predicate():
    spec = scalar_spec(horizon=5, x0=0.7)
    # never replanning just rolls the bootstrap plan forward
    states, inputs = receding_horizon_oracle(spec, 5, replan_at=lambda t: False)
    plan, _ = replan_local(build_local_ocp(spec), spec.model.x0)
    assert states[: 6] == pytest.approx(plan.states[:, 0].reshape(-1, 1))


# -- round-robin loop -----------------------------------------------------------------


def test_decoupled_round_equals_local_optimum():
    specs = [scalar_spec(x0=0.9), scalar_spec(x0=-0.4)]
    plans = centralized_bootstrap(specs)
    new_plans, replanned = mpc_round(fresh_ocps(specs), plans, turn=0)
    ref, _ = replan_local(build_local_ocp(specs[0]), specs[0].model.x0)
    assert np.allclose(new_plans[0].states, ref.states, atol=1e-9)
    # the other agent's plan is untouched
    assert new_plans[1] is plans[1]


def test_decoupled_equivalence_over_30_steps():
    """Round-robin with no coupling must equal per-agent centralized MPC
    replanned on the same cadence."""
    n_agents = 3
    specs = [
        scalar_spec(x0=0.9, horizon=10),
        double_integrator_spec(horizon=10),
        scalar_spec(a=0.95, b=0.5, x0=-1.2, x_term=0.4, u_term=0.04, horizon=10),
    ]
    steps = 30
    plans = centralized_bootstrap(specs)
    ocps = fresh_ocps(specs)
    states = {i: [np.array(specs[i].model.x0)] for i in range(n_agents)}
    for t in range(steps):
        result = mpc_step(ocps, plans, t)
        plans = result.plans
        for i in range(n_agents):
            states[i].append(result.states[i])
    for i, spec in enumerate(specs):
        ref_states, _ = receding_horizon_oracle(
            spec, steps, replan_at=lambda t, i=i: t % n_agents == i
        )
        got = np.array(states[i])
        assert np.max(np.abs(got - ref_states)) <= 1e-9


def test_coupled_rounds_keep_budget():
    specs = coupled_pair()
    plans = centralized_bootstrap(specs)
    ocps = fresh_ocps(specs)
    for turn in range(6):
        i = turn % 2
        others = plans[1 - i].outputs
        plans_new, _ = mpc_round(ocps, plans, turn=i, others_outputs=others)
        assert coupling_residual(plans_new, specs[0].coupling) <= 1e-9
        plans = plans_new


def test_coupled_closed_loop_residual():
    specs = coupled_pair()
    plans = centralized_bootstrap(specs)
    ocps = fresh_ocps(specs)
    worst = 0.0
    for t in range(30):
        result = mpc_step(ocps, plans, t)
        plans = result.plans
        worst = max(worst, result.applied_residual)
        # recursive feasibility: every new plan is still valid for its spec
        for i, spec in enumerate(specs):
            validate_plan(plans[i], spec)
    assert worst <= 1e-8


def test_per_agent_cost_monotone_between_replans():
    spec = scalar_spec(x0=0.9, horizon=8)
    plans = centralized_bootstrap([spec])
    ocps = fresh_ocps([spec])
    last = plan_cost(plans[0], spec)
    for t in range(20):
        result = mpc_step(ocps, plans, t)
        plans = result.plans
        now = plan_cost(plans[0], spec)
        assert now <= last + 1e-9
        last = now


def test_infeasible_replan_keeps_old_plan():
    specs = coupled_pair()
    plans = centralized_bootstrap(specs)
    # a neighbor claiming the whole budget and more leaves agent 0 with an
    # empty feasible set only if it cannot go negative; pin z >= 0
    pinned = [
        scalar_spec(x0=specs[i].model.x0[0], x_term=0.5, horizon=8, u_lim=1.0,
                    x_lower=0.0, coupling=specs[i].coupling)
        for i in range(2)
    ]
    plans = centralized_bootstrap(pinned, x_now=[np.array([0.2]), np.array([0.3])])
    huge = np.full((8, 1), 10.0)
    with pytest.warns(RuntimeWarning):
        new_plans, replanned = mpc_round(fresh_ocps(pinned), plans, turn=0,
                                         others_outputs=huge)
    assert not replanned
    assert new_plans[0] is plans[0]


def test_corrupted_plan_refused():
    specs = coupled_pair()
    plans = centralized_bootstrap(specs)
    broken = Plan(plans[0].states + 1.0, plans[0].inputs, plans[0].outputs)
    with pytest.raises(FeasibilityError):
        mpc_round(fresh_ocps(specs), [broken, plans[1]], turn=0,
                  others_outputs=plans[1].outputs)


# -- episode-long OCPs and warm replans -----------------------------------------


def binding_budget_specs(horizon=8):
    """Four scalar integrators whose output is their input, each steering
    from -0.25 to 0.25 under the shared budget sum u <= 0.5. Alone each
    would spend 0.5 at once (sum 2.0), so the budget binds."""
    coupling = Polyhedron(np.array([[1.0]]), np.array([0.5]))
    model = LinearAgentModel(A=np.eye(1), B=np.eye(1), C=np.zeros((1, 1)),
                             D=np.eye(1), x0=np.array([-0.25]))
    return [
        OcpSpec(model=model, horizon=horizon, terminal_state=np.array([0.25]),
                terminal_input=np.zeros(1),
                cost=StageCost(w_x=np.array([1.0]), w_u=np.array([0.1])),
                coupling=coupling)
        for _ in range(4)
    ]


def test_warm_replans_match_cold_under_a_binding_budget(monkeypatch):
    """The closed loop the MPC engine runs, mpc_round with episode-long
    OCPs then shift_plan, equals a loop whose every round replans on
    fresh, never-solved OCPs, step by step."""
    specs = binding_budget_specs()
    ocps = fresh_ocps(specs)
    stale = []  # per warm attempt: was the stored basis infeasible for the new b?
    real = mpc.solve_lp

    def spy(problem, basis=None):
        if basis is not None:
            x_b = np.linalg.solve(problem.A[:, basis], problem.b)
            stale.append(bool(x_b.min() < -1e-9))
        return real(problem, basis=basis)

    real_replan = mpc.replan_local
    rewrites = []

    def replan_spy(ocp, x_now, others_sum=None):
        out = real_replan(ocp, x_now, others_sum)
        if any(ocp is kept for kept in ocps):
            # the kept OCP's b is what a fresh build for this replan holds
            fresh = build_local_ocp(ocp.spec)
            fresh.set_rhs(x_now, others_sum)
            assert ocp.lp.b.tobytes() == fresh.lp.b.tobytes()
            rewrites.append(x_now)
        return out

    monkeypatch.setattr(mpc, "solve_lp", spy)
    monkeypatch.setattr(mpc, "replan_local", replan_spy)
    cold = warm = centralized_bootstrap(specs)
    peak = 0.0
    for t in range(24):
        turn = t % len(specs)
        cold, c_replanned = mpc_round(fresh_ocps(specs), cold, turn)
        warm, w_replanned = mpc_round(ocps, warm, turn)
        assert w_replanned == c_replanned, t
        for w_plan, c_plan, spec in zip(warm, cold, specs):
            assert w_plan.states.tobytes() == c_plan.states.tobytes(), t
            assert w_plan.inputs.tobytes() == c_plan.inputs.tobytes(), t
            assert plan_cost(w_plan, spec) == plan_cost(c_plan, spec), t
        assert coupling_residual(warm, specs[0].coupling) <= 1e-9
        assert max(float(sum(p.outputs[0][0] for p in warm)) - 0.5, 0.0) == 0.0
        peak = max(peak, float(sum(p.inputs[0][0] for p in warm)))
        cold = [shift_plan(p, s) for p, s in zip(cold, specs)]
        warm = [shift_plan(p, s) for p, s in zip(warm, specs)]
    assert peak == pytest.approx(0.5)
    # the fallback ran, and most replans did warm-start
    assert any(stale) and stale.count(False) > stale.count(True)
    assert len(rewrites) == 24


def test_build_local_ocp_rewrites_only_b():
    specs = binding_budget_specs()
    ocp = build_local_ocp(specs[0])
    A, c = ocp.lp.A, ocp.lp.c
    others = np.linspace(0.0, 0.3, 8).reshape(8, 1)
    ocp.set_rhs(np.array([0.1]), others)
    fresh = build_local_ocp(specs[0])
    fresh.set_rhs(np.array([0.1]), others)
    assert np.shares_memory(ocp.lp.A, A) and np.shares_memory(ocp.lp.c, c)
    assert ocp.lp.b.tobytes() == fresh.lp.b.tobytes()
    assert fresh.lp.A.tobytes() == A.tobytes()


def test_mpc_step_warm_starts_and_the_oracle_stays_cold(monkeypatch):
    """Over episode-long OCPs every replan after an agent's first passes
    its last optimal basis to the solver; the receding-horizon oracle
    builds a fresh OCP per replan and never does."""
    warm = []
    real = mpc.solve_lp

    def spy(problem, basis=None):
        warm.append(basis is not None)
        return real(problem, basis=basis)

    monkeypatch.setattr(mpc, "solve_lp", spy)
    spec = coupled_pair()[0]
    receding_horizon_oracle(spec, 12)
    assert len(warm) == 12 and not any(warm)

    warm.clear()
    specs = coupled_pair()
    plans = centralized_bootstrap(specs)
    assert warm == [False]  # the stacked bootstrap LP solves cold
    warm.clear()
    ocps = fresh_ocps(specs)
    for t in range(30):
        plans = mpc_step(ocps, plans, t).plans
    assert warm == [False, False] + [True] * 28


# -- bootstrap ------------------------------------------------------------------------


def test_bootstrap_is_jointly_feasible():
    specs = coupled_pair()
    plans = centralized_bootstrap(specs)
    for spec, plan in zip(specs, plans):
        validate_plan(plan, spec)
    assert coupling_residual(plans, specs[0].coupling) <= 1e-9


def test_bootstrap_requires_shared_horizon():
    specs = [scalar_spec(horizon=5), scalar_spec(horizon=6)]
    with pytest.raises(ModelError):
        centralized_bootstrap(specs)


def test_bootstrap_infeasible_start():
    specs = coupled_pair()
    # both agents start above the budget and cannot fix stage 0
    with pytest.raises(FeasibilityError):
        centralized_bootstrap(specs, x_now=[np.array([0.8]), np.array([0.9])])


def test_coupling_residual_values():
    specs = coupled_pair()
    plans = centralized_bootstrap(specs)
    assert coupling_residual(plans, None) == 0.0
    bumped = Plan(plans[0].states, plans[0].inputs, plans[0].outputs + 5.0)
    assert coupling_residual([bumped, plans[1]], specs[0].coupling) > 1.0
