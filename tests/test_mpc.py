"""Sequential distributed MPC tests.

Single-agent planning against a centralized oracle, the coupled
round-robin loop, recursive feasibility, and the validation surface.
"""

import hashlib
import json
import warnings
from dataclasses import replace

import numpy as np
import pytest
from scipy.optimize import linprog

from fleetsim import mpc
from fleetsim import lp as lp_module
from fleetsim.errors import FeasibilityError, LpError, ModelError, PlanError
from fleetsim.mpc import (
    LinearAgentModel,
    OcpSpec,
    Plan,
    Polyhedron,
    StageCost,
    build_local_ocp,
    build_local_ocps,
    centralized_bootstrap,
    coupling_residual,
    mpc_round,
    mpc_step,
    plan_cost,
    replan_local,
    shift_plan,
    validate_plan,
)
from fleetsim.simrunner import default_config, parse_config, read_trace, run_scenario
from fleetsim.simrunner.config import ocp_specs
from oracles import receding_horizon_oracle


def scalar_spec(a=1.0, b=1.0, x0=0.9, x_term=0.0, u_term=0.0, horizon=10,
                w_x=1.0, w_u=0.1, u_lim=None, x_lower=None, coupling=None):
    model = LinearAgentModel(
        A=np.array([[a]]),
        B=np.array([[b]]),
        C=np.array([[1.0]]),
        D=np.array([[0.0]]),
        x0=np.array([x0]),
    )
    u_set = None if u_lim is None else Polyhedron.box(np.array([-u_lim]), np.array([u_lim]))
    x_set = None if x_lower is None else Polyhedron.box(np.array([x_lower]), np.array([np.inf]))
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
        u_set=Polyhedron.box(np.array([-2.0]), np.array([2.0])),
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
    """One new episode-long OCP per agent, none solved yet, built as the
    ``mpc`` engine builds them: identical agents share A and c."""
    return build_local_ocps(specs)


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


def test_ocp_spec_rejects_references_of_the_wrong_length():
    spec = double_integrator_spec()  # n = 2, m = 1
    w = dict(w_x=spec.cost.w_x, w_u=spec.cost.w_u)
    for refs in (dict(x_ref=np.zeros(1)), dict(x_ref=np.zeros(3)),
                 dict(u_ref=np.zeros(2)), dict(u_ref=np.zeros(0)),
                 # one too long and one too short: as many entries in all
                 dict(x_ref=np.zeros(3), u_ref=np.zeros(0))):
        with pytest.raises(ModelError, match="_ref has"):
            replace(spec, cost=StageCost(**w, **refs))


def test_ocp_spec_rejects_sets_of_the_wrong_width():
    spec = double_integrator_spec()  # n = 2, m = 1, r = 2
    for field, region in (("x_set", Polyhedron.box(np.zeros(3), np.ones(3))),
                          ("u_set", Polyhedron(np.ones((1, 2)), np.ones(1))),
                          ("coupling", Polyhedron(np.ones((2, 3)), np.ones(2)))):
        with pytest.raises(ModelError, match=field):
            replace(spec, **{field: region})


def test_ocp_spec_rejects_non_finite_terminal_pair_and_references():
    spec = double_integrator_spec()
    w = dict(w_x=spec.cost.w_x, w_u=spec.cost.w_u)
    for change in (dict(terminal_state=np.array([np.nan, 0.0])),
                   dict(terminal_input=np.array([np.inf])),
                   dict(cost=StageCost(**w, x_ref=np.array([0.0, np.nan]))),
                   dict(cost=StageCost(**w, u_ref=np.array([-np.inf])))):
        with pytest.raises(ModelError, match="NaN or inf"):
            replace(spec, **change)


def test_box_rows():
    box = Polyhedron.box(np.array([-1.0]), np.array([2.0]))
    G, g = box.G, box.g
    grid = sorted(zip(G[:, 0].tolist(), g.tolist()))
    assert grid == [(-1.0, 1.0), (1.0, 2.0)]
    # infinite sides produce no rows
    half = Polyhedron.box(np.array([-np.inf]), np.array([2.0]))
    G, g = half.G, half.g
    assert G.shape[0] == 1


def test_polyhedron_rejects_non_finite_entries():
    G, g = np.array([[1.0, 0.0], [0.0, 1.0]]), np.array([1.0, 1.0])
    for bad in (np.nan, np.inf, -np.inf):
        with pytest.raises(ModelError, match="polyhedron G contains NaN or inf"):
            Polyhedron(np.where(np.eye(2) > 0, G, bad), g)
        with pytest.raises(ModelError, match="polyhedron g contains NaN or inf"):
            Polyhedron(G, np.array([1.0, bad]))


def test_box_rejects_nan_bounds():
    for lower, upper in (([np.nan], [1.0]), ([-1.0], [np.nan]), ([0.0, -np.inf], [np.nan, 1.0])):
        with pytest.raises(ModelError, match="box bounds contain NaN"):
            Polyhedron.box(lower, upper)


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


def test_a_plan_owns_read_only_copies_of_its_arrays():
    """A plan is a value: writing to the caller's arrays afterwards leaves
    it as it was, and its own arrays are read-only 2-d float64."""
    states = np.array([[1.0], [0.5], [0.0]])
    inputs = np.array([[-0.5], [-0.5]])
    outputs = np.array([[1.0], [0.5]])
    plan = Plan(states, inputs, outputs)
    before = [a.copy() for a in (states, inputs, outputs)]
    for arr in (states, inputs, outputs):
        arr[0] = 9.0
    for held, was in zip((plan.states, plan.inputs, plan.outputs), before):
        assert np.array_equal(held, was)
        assert held.dtype == np.float64 and held.ndim == 2 and not held.flags.writeable
    ints = Plan([[1], [0]], [[-1]], [[1]])
    assert ints.states.dtype == np.float64 and not ints.states.flags.writeable


def _default_n2_spec():
    """The default mpc n = 2 spec: T = 8, scalar state, input and output."""
    return ocp_specs(default_config("mpc", 2).params)[0]


def _resting_plan(spec, wide=None):
    """The plan resting at the terminal pair, with the array named ``wide``
    widened to two columns of the same values."""
    T = spec.horizon
    arrays = {"states": np.tile(spec.terminal_state, (T + 1, 1)),
              "inputs": np.tile(spec.terminal_input, (T, 1)),
              "outputs": np.tile(spec.terminal_output, (T, 1))}
    if wide is not None:
        arrays[wide] = np.hstack([arrays[wide], arrays[wide]])
    return Plan(**arrays)


def test_a_plan_refuses_an_array_that_is_not_2d():
    spec = _default_n2_spec()
    plan = _resting_plan(spec)
    with pytest.raises(PlanError, match="states must be 2-d"):
        Plan(plan.states[:, :, None], plan.inputs, plan.outputs)
    with pytest.raises(PlanError, match="outputs must be 2-d"):
        Plan(plan.states, plan.inputs, plan.outputs[None])


@pytest.mark.parametrize("name", ["states", "inputs", "outputs"])
def test_validate_plan_checks_each_width_before_the_dynamics(name):
    """An array wider than the model's state, input or output is refused
    by name, even where broadcasting would let the arithmetic run."""
    spec = _default_n2_spec()
    validate_plan(_resting_plan(spec), spec)
    plan = _resting_plan(spec, name)
    for check in (validate_plan, shift_plan):
        with pytest.raises(PlanError, match="plan %s are 2 wide, the model needs 1" % name):
            check(plan, spec)
    assert plan.valid_for is None


@pytest.mark.parametrize("name", ["states", "inputs", "outputs"])
def test_mpc_round_refuses_a_fallback_plan_of_the_wrong_width(name):
    specs = ocp_specs(default_config("mpc", 2).params)
    ocps = fresh_ocps(specs)
    plans = centralized_bootstrap(ocps)
    plans[0] = _resting_plan(specs[0], name)
    with pytest.raises(FeasibilityError, match="no valid fallback plan") as info:
        mpc_round(ocps, plans, 0)
    assert isinstance(info.value.__cause__, PlanError)


def test_validate_plan_refuses_nan():
    spec = scalar_spec(horizon=2, x0=1.0)
    states, inputs = np.array([[1.0], [0.5], [0.0]]), np.array([[-0.5], [-0.5]])
    outputs = np.array([[1.0], [0.5]])
    for arrays in ((np.where(states == 0.5, np.nan, states), inputs, outputs),
                   (states, inputs, np.where(outputs == 0.5, np.nan, outputs)),
                   (np.where(states == 0.0, np.nan, states), inputs, outputs)):
        plan = Plan(*arrays)
        with pytest.raises(PlanError):
            validate_plan(plan, spec)
        assert plan.valid_for is None


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


def test_a_valid_plan_is_marked_read_only_and_not_checked_again(monkeypatch):
    """A plan passes the full check once per spec: the check's arithmetic
    (its np.abs calls) runs for an unmarked plan and never for one marked
    valid for the spec, whose read-only arrays cannot have changed."""
    spec = scalar_spec(horizon=3, x0=0.6)
    plan, _ = replan_local(build_local_ocp(spec), np.array([0.6]))
    assert plan.valid_for is None
    for arr in (plan.states, plan.inputs, plan.outputs):
        with pytest.raises(ValueError):
            arr[0] = 9.0
    validate_plan(plan, spec)
    assert plan.valid_for is spec

    other = scalar_spec(horizon=3, x0=0.6)
    calls = []
    real_abs = np.abs
    monkeypatch.setattr(np, "abs", lambda x: (calls.append(1), real_abs(x))[1])
    validate_plan(plan, spec)
    assert calls == []
    # the mark holds for this spec only, and a copy of the arrays carries none
    validate_plan(plan, other)
    assert plan.valid_for is other and len(calls) == 3
    copy = Plan(plan.states, plan.inputs, plan.outputs)
    assert copy.valid_for is None
    validate_plan(copy, other)
    assert len(calls) == 6
    # the marked input of a shift is not checked again, nor is its output
    calls.clear()
    shifted = shift_plan(plan, other)
    assert shifted.valid_for is other and not shifted.states.flags.writeable
    validate_plan(shifted, other)
    assert calls == []


def test_shift_plan_checks_the_output_of_its_appended_step():
    """A plan that ends within the terminal tolerance but not at the
    terminal state gets an appended output its state does not give."""
    spec = scalar_spec(horizon=2, x0=1.0, a=0.0)
    end = 5e-7  # x(T) is free of the dynamics here, as A = 0
    plan = Plan(np.array([[1.0], [end], [end]]), np.array([[end], [end]]),
                np.array([[1.0], [end]]))
    validate_plan(plan, spec)
    with pytest.raises(PlanError, match="outputs inconsistent at the appended step"):
        shift_plan(plan, spec)


# -- oracle -------------------------------------------------------------------------


def test_oracle_matches_stepped_loop_single_agent():
    """The per-step loop reproduces the centralized receding-horizon run."""
    spec = double_integrator_spec(horizon=10)
    steps = 30
    ref_states, ref_inputs = receding_horizon_oracle(spec, steps)
    ocps = fresh_ocps([spec])
    plans = centralized_bootstrap(ocps)
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
    plans = centralized_bootstrap(fresh_ocps(specs))
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
    ocps = fresh_ocps(specs)
    plans = centralized_bootstrap(ocps)
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
    ocps = fresh_ocps(specs)
    plans = centralized_bootstrap(ocps)
    for turn in range(6):
        i = turn % 2
        others = plans[1 - i].outputs
        plans_new, _ = mpc_round(ocps, plans, turn=i, others_outputs=others)
        assert coupling_residual(plans_new, specs[0].coupling) <= 1e-9
        plans = plans_new


def test_coupled_closed_loop_residual():
    specs = coupled_pair()
    ocps = fresh_ocps(specs)
    plans = centralized_bootstrap(ocps)
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
    ocps = fresh_ocps([spec])
    plans = centralized_bootstrap(ocps)
    last = plan_cost(plans[0], spec)
    for t in range(20):
        result = mpc_step(ocps, plans, t)
        plans = result.plans
        now = plan_cost(plans[0], spec)
        assert now <= last + 1e-9
        last = now


def test_infeasible_replan_keeps_old_plan():
    specs = coupled_pair()
    plans = centralized_bootstrap(fresh_ocps(specs))
    # a neighbor claiming the whole budget and more leaves agent 0 with an
    # empty feasible set only if it cannot go negative; pin z >= 0
    pinned = [
        scalar_spec(x0=(0.2, 0.3)[i], x_term=0.5, horizon=8, u_lim=1.0,
                    x_lower=0.0, coupling=specs[i].coupling)
        for i in range(2)
    ]
    plans = centralized_bootstrap(fresh_ocps(pinned))
    huge = np.full((8, 1), 10.0)
    with pytest.warns(RuntimeWarning):
        new_plans, replanned = mpc_round(fresh_ocps(pinned), plans, turn=0,
                                         others_outputs=huge)
    assert not replanned
    assert new_plans[0] is plans[0]


def test_corrupted_plan_refused():
    specs = coupled_pair()
    plans = centralized_bootstrap(fresh_ocps(specs))
    broken = Plan(plans[0].states + 1.0, plans[0].inputs, plans[0].outputs)
    with pytest.raises(FeasibilityError):
        mpc_round(fresh_ocps(specs), [broken, plans[1]], turn=0,
                  others_outputs=plans[1].outputs)
    with pytest.raises(FeasibilityError):
        mpc_step(fresh_ocps(specs), [broken, plans[1]], 0, others_outputs=plans[1].outputs)


def test_a_step_without_a_fallback_says_where_it_arose(monkeypatch, tmp_path, capsys):
    """A FeasibilityError of a closed-loop step carries the step's t and
    turn, and the CLI prints them on its diagnostics line."""
    specs = coupled_pair()
    ocps = fresh_ocps(specs)
    plans = centralized_bootstrap(ocps)
    for t in range(3):
        plans = mpc_step(ocps, plans, t).plans
    broken = Plan(plans[1].states + 1.0, plans[1].inputs, plans[1].outputs)
    with pytest.raises(FeasibilityError) as info:
        mpc_step(ocps, [plans[0], broken], 3)
    assert info.value.diagnostics == {"t": 3, "turn": 1}

    from fleetsim.cli import main

    real = mpc.mpc_step

    def breaking_at_6(ocps, plans, t, **kw):
        """The engine's step, with the turn agent's fallback plan off its
        dynamics at t = 6."""
        if t == 6:
            plans = list(plans)
            p = plans[t % len(ocps)]
            plans[t % len(ocps)] = Plan(p.states + 1.0, p.inputs, p.outputs)
        return real(ocps, plans, t, **kw)

    monkeypatch.setattr(mpc, "mpc_step", breaking_at_6)
    assert main(["run", "mpc", "-n", "4", "--seed", "0", "--out", str(tmp_path)]) == 3
    message, line = capsys.readouterr().err.splitlines()
    assert message == "scenario error: agent 2 has no valid fallback plan"
    assert json.loads(line) == {"t": 6, "turn": 2}


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


def binding_budget_config(steps=12):
    """The scenario of binding_budget_specs: the one engine run whose
    bootstrap solves the stacked LP."""
    agent = {"A": [[1.0]], "B": [[1.0]], "C": [[0.0]], "D": [[1.0]], "x0": [-0.25],
             "terminal_state": [0.25], "terminal_input": [0.0], "w_x": [1.0], "w_u": [0.1]}
    return parse_config({"scenario": "mpc", "n": 4, "seed": 0, "mpc": {
        "steps": steps, "coupling": {"H": [[1.0]], "h": [0.5]}, "agents": [agent] * 4}})


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
    cold = warm = centralized_bootstrap(ocps)
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


@pytest.mark.parametrize("bad", ["x_now nan", "x_now inf", "others nan", "others -inf"])
def test_set_rhs_refuses_non_finite_input_and_keeps_the_ocp(bad):
    specs = binding_budget_specs()
    ocp = build_local_ocp(specs[0])
    replan_local(ocp, np.array([0.1]))
    lp, basis = ocp.lp, ocp.basis
    x_now, others = np.array([0.1]), np.zeros((8, 1))
    value = {"nan": np.nan, "inf": np.inf, "-inf": -np.inf}[bad.split()[1]]
    if bad.startswith("x_now"):
        x_now[0] = value
    else:
        others[3, 0] = value
    with pytest.raises(LpError):
        ocp.set_rhs(x_now, others)
    assert ocp.lp is lp and ocp.basis is basis


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


def hand_spec():
    """Two states, inputs and outputs, a polyhedral state set, an input box
    open on one side, a two-row coupling and explicit references."""
    model = LinearAgentModel(
        A=np.array([[1.0, 0.2], [-0.1, 0.9]]),
        B=np.array([[0.5, -0.0], [0.1, 1.0]]),
        C=np.array([[1.0, 0.5], [0.3, 1.0]]),
        D=np.array([[0.1, 0.0], [-0.0, 0.2]]),
        x0=np.array([0.4, -0.3]),
    )
    return OcpSpec(
        model=model,
        horizon=3,
        terminal_state=np.zeros(2),
        terminal_input=np.zeros(2),
        cost=StageCost(w_x=np.array([1.0, 0.5]), w_u=np.array([0.1, 0.2]),
                       x_ref=np.array([0.1, -0.0]), u_ref=np.array([0.0, 0.05])),
        x_set=Polyhedron(np.array([[1.0, 1.0], [-1.0, 0.3], [0.0, -1.0]]),
                         np.array([2.0, 1.5, 0.7])),
        u_set=Polyhedron.box(np.array([-1.0, -np.inf]), np.array([0.8, 0.6])),
        coupling=Polyhedron(np.array([[1.0, 0.3], [-0.7, 0.5]]), np.array([2.0, 1.0])),
    )


# sha256 of A, b and c of each spec's local OCP LP. centralized_bootstrap
# stacks these blocks and the simplex breaks ties by column index, so a
# rewrite of build_local_ocp must keep these bytes. They were recorded with
# numpy 2.4 and OpenBLAS on x86-64; a BLAS that rounds the coupling
# products H C and H D differently needs them re-recorded.
GOLDEN_OCP_LPS = {
    "mpc_default": "3f593b6d774a91ea14d86dc67708937d36f8b793da4c95490d02fdf693279c6a",
    "double_integrator": "5259ab56c9f835fe049f2074ac9dd92a2619ab4739a6fa80173d5bc4cee88474",
    "dependent_terminal": "9f87bf91ef1f66929981c80e10f17b099eb45351f5781f280cb75542d3d75f03",
    "hand": "ef42cb04324ae1b2649384590e19498bda47d0a2a267a5179ae6d73c16f34404",
    "zero_bounds": "977dc9fbf29bfb278d6466d688e6b542a9701b11a4f2ce1776431119b72105bd",
}


def zero_bounds_spec():
    """The default mpc agent with x >= 0 and -1 <= u <= 0: its state rows
    -x <= -0.0 and its input epigraph rows put 16 entries of -0.0 in b."""
    block = default_config("mpc", 4).params
    block["agents"][0].update(x_min=[0.0], u_min=[-1.0], u_max=[0.0])
    return ocp_specs(block)[0]


@pytest.mark.parametrize("name", sorted(GOLDEN_OCP_LPS))
def test_local_ocp_lp_bytes_match_golden(name):
    assert _lp_digest(build_local_ocp(_golden_spec(name)).lp) == GOLDEN_OCP_LPS[name]


def _golden_spec(name):
    from test_lp import dependent_terminal_mpc

    return {
        "mpc_default": lambda: ocp_specs(default_config("mpc", 4).params)[0],
        "double_integrator": double_integrator_spec,
        "dependent_terminal": lambda: ocp_specs(dependent_terminal_mpc(1).params)[0],
        "hand": hand_spec,
        "zero_bounds": zero_bounds_spec,
    }[name]()


def _lp_digest(lp):
    return hashlib.sha256(lp.A.tobytes() + lp.b.tobytes() + lp.c.tobytes()).hexdigest()


def test_grouped_build_shares_a_and_c_within_each_group_only():
    """A mixed fleet: three default agents (other x0 and input bounds move
    only b), two with another w_u, and one with another B. Each group
    shares one read-only A and one c by identity, no two groups share
    them, every agent has its own b, and each OCP is bitwise the one
    built alone."""
    block = default_config("mpc", 6, seed=2).params
    agents = block["agents"]
    agents[1].update(u_min=[-0.5], u_max=[0.8])
    for agent in agents[3:5]:
        agent.update(w_u=[0.3])
    agents[5].update(B=[[0.5]])
    specs = ocp_specs(block)
    ocps = build_local_ocps(specs)
    groups = [[0, 1, 2], [3, 4], [5]]
    for group in groups:
        head = ocps[group[0]].lp
        assert not head.A.flags.writeable and not head.c.flags.writeable
        for i in group:
            assert ocps[i].lp.A is head.A and ocps[i].lp.c is head.c
    heads = [ocps[group[0]].lp for group in groups]
    for j, one in enumerate(heads):
        for other in heads[j + 1:]:
            assert one.A is not other.A and one.c is not other.c
    for i, ocp in enumerate(ocps):
        assert ocp.spec is specs[i]
        assert not any(np.shares_memory(ocp.lp.b, o.lp.b) for o in ocps[:i])
        assert _lp_digest(ocp.lp) == _lp_digest(build_local_ocp(specs[i]).lp)
    assert not np.array_equal(ocps[0].lp.b, ocps[1].lp.b)


def test_grouped_build_keeps_every_golden_ocp():
    """Every golden OCP, built in one grouped call next to a twin of
    itself, keeps its recorded bytes and shares A and c with the twin."""
    names = sorted(GOLDEN_OCP_LPS)
    specs = [_golden_spec(name) for name in names]
    ocps = build_local_ocps(specs + specs)
    for k, name in enumerate(names):
        one, twin = ocps[k].lp, ocps[k + len(names)].lp
        assert _lp_digest(one) == _lp_digest(twin) == GOLDEN_OCP_LPS[name]
        assert one.A is twin.A and one.c is twin.c and one.b is not twin.b


def test_plan_cost_of_a_valid_plan_is_kept_bit_for_bit(monkeypatch, tmp_path):
    """plan_cost prices on demand: a plan, valid for the spec or not, costs
    the bits of a fresh sum each time. On the default n = 4 run a step
    prices at most n + 1 plans: the turn agent's old and new plan, and
    each other agent's plan for the step's costs; no shifted plan is
    priced, and the turn agent's cost is the one its round priced."""
    specs = coupled_pair()
    other = replace(specs[0], cost=StageCost(w_x=np.array([0.7]), w_u=np.array([0.3])))
    ocps = fresh_ocps(specs)
    plans = mpc_step(ocps, centralized_bootstrap(ocps), 0).plans
    plan, spec = plans[0], specs[0]

    def fresh(p, s):
        dx = np.abs(p.states[:-1] - s.x_ref)
        du = np.abs(p.inputs - s.u_ref)
        return float((dx * s.cost.w_x).sum() + (du * s.cost.w_u).sum())

    assert plan.valid_for is spec
    for s in (spec, other, spec):
        assert plan_cost(plan, s).hex() == fresh(plan, s).hex()
    validate_plan(plan, other)
    assert plan.valid_for is other
    for s in (other, spec):
        assert plan_cost(plan, s).hex() == fresh(plan, s).hex()

    n = 4
    cfg = default_config("mpc", n)
    priced = []
    real = mpc.plan_cost
    monkeypatch.setattr(mpc, "plan_cost", lambda p, s: priced.append(1) or real(p, s))
    run_scenario(cfg, str(tmp_path))
    assert 0 < len(priced) <= (n + 1) * cfg.params["steps"]


def test_mpc_step_warm_starts_and_the_oracle_stays_cold(monkeypatch):
    """Over episode-long OCPs seeded by the bootstrap every replan passes
    a basis to the solver; the receding-horizon oracle builds a fresh OCP
    per replan and never does."""
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
    ocps = fresh_ocps(specs)
    plans = centralized_bootstrap(ocps)
    # the first agent's OCP solves cold and the second's from its optimum;
    # their optima keep the budget, so no stacked LP is solved
    assert warm == [False, True]
    warm.clear()
    for t in range(30):
        plans = mpc_step(ocps, plans, t).plans
    assert warm == [True] * 30


# -- bootstrap ------------------------------------------------------------------------


def test_bootstrap_is_jointly_feasible():
    specs = coupled_pair()
    plans = centralized_bootstrap(fresh_ocps(specs))
    for spec, plan in zip(specs, plans):
        validate_plan(plan, spec)
    assert coupling_residual(plans, specs[0].coupling) <= 1e-9


def test_bootstrap_requires_shared_horizon():
    specs = [scalar_spec(horizon=5), scalar_spec(horizon=6)]
    with pytest.raises(ModelError):
        centralized_bootstrap(fresh_ocps(specs))


def test_bootstrap_infeasible_start():
    # both agents start above the budget and cannot fix stage 0
    specs = coupled_pair(x0=(0.8, 0.9))
    with pytest.raises(FeasibilityError):
        centralized_bootstrap(fresh_ocps(specs))


def test_bootstrap_refuses_terminal_equilibria_that_overspend_the_budget():
    """Each shift appends the terminal outputs, so their sum must keep the
    budget; coupled_pair's sums to exactly h, which is allowed."""
    specs = coupled_pair()
    assert float(sum(s.terminal_output for s in specs)[0]) == specs[0].coupling.g[0]
    centralized_bootstrap(fresh_ocps(specs))
    tight = Polyhedron(np.array([[1.0]]), np.array([0.9]))
    with pytest.raises(ModelError, match="terminal equilibria overspend the coupling by 0.1"):
        centralized_bootstrap(fresh_ocps([replace(s, coupling=tight) for s in specs]))


def test_coupling_residual_values():
    specs = coupled_pair()
    plans = centralized_bootstrap(fresh_ocps(specs))
    assert coupling_residual(plans, None) == 0.0
    bumped = Plan(plans[0].states, plans[0].inputs, plans[0].outputs + 5.0)
    assert coupling_residual([bumped, plans[1]], specs[0].coupling) > 1.0


def solve_spy(monkeypatch):
    """Record (problem, warm basis given, solution) for every solve_lp call
    that mpc makes."""
    calls = []
    real = mpc.solve_lp

    def spy(problem, basis=None):
        sol = real(problem, basis=basis)
        calls.append((problem, basis is not None, sol))
        return sol

    monkeypatch.setattr(mpc, "solve_lp", spy)
    return calls


@pytest.mark.parametrize("n", [2, 4, 6])
def test_bootstrap_starts_warm_and_seeds_every_first_replan(monkeypatch, tmp_path, n):
    """On the default config the agents share A and c, so only the first
    OCP solves cold and the others re-solve from its optimum. The budget
    rows are slack at the agents' own optima, so they certify the joint
    optimum with no stacked LP, and every replan of the run, the first
    ones included, is warm."""
    calls = solve_spy(monkeypatch)
    ocps = fresh_ocps(ocp_specs(default_config("mpc", n).params))
    centralized_bootstrap(ocps)
    assert [warm for _, warm, _ in calls] == [False] + [True] * (n - 1)
    assert all(ocp.basis is not None for ocp in ocps)

    calls.clear()
    run_scenario(default_config("mpc", n), str(tmp_path / "trace.jsonl"))
    replans = calls[n:]
    assert len(replans) == default_config("mpc", n).params["steps"]
    assert all(warm for _, warm, _ in replans)


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("n", [2, 4, 8])
def test_bootstrap_factors_once(monkeypatch, n, seed):
    """The agents of a default config share A and c, and the first one's
    kept factor serves every other local solve whatever the signs of its
    b: the bootstrap calls np.linalg.inv once."""
    ocps = fresh_ocps(ocp_specs(default_config("mpc", n, seed).params))
    calls = []
    real = np.linalg.inv

    def spy(a):
        calls.append(a.shape)
        return real(a)

    monkeypatch.setattr(np.linalg, "inv", spy)
    centralized_bootstrap(ocps)
    assert len(calls) == 1


def test_bootstrap_under_a_binding_budget_falls_back(monkeypatch):
    """Under the binding budget the agents' own optima overspend it: the
    stacked LP (``mpc._stacked_lp``) solves in two phases and reaches the
    HiGHS joint optimum. Its basis cannot seed the OCPs, so each keeps its
    own optimal basis, and the closed loop equals one run on OCPs the
    bootstrap never saw."""
    specs = binding_budget_specs()
    calls = solve_spy(monkeypatch)
    ocps = fresh_ocps(specs)
    plans = centralized_bootstrap(ocps)
    assert len(calls) == len(specs) + 1
    joint, _, sol = calls[-1]
    stacked, _ = mpc._stacked_lp(fresh_ocps(specs))
    assert [a.tobytes() for a in (joint.A, joint.b, joint.c)] == \
        [a.tobytes() for a in (stacked.A, stacked.b, stacked.c)]
    assert sol.iterations > 0
    assert [ocp.basis for ocp in ocps] == [alone.basis for _, _, alone in calls[:-1]]
    ref = linprog(joint.c, A_eq=joint.A, b_eq=joint.b, bounds=(0, None), method="highs")
    assert ref.status == 0 and sol.objective == pytest.approx(ref.fun, rel=1e-9)
    assert sum(plan_cost(p, s) for p, s in zip(plans, specs)) == pytest.approx(ref.fun)
    assert coupling_residual(plans, specs[0].coupling) <= 1e-9

    seeded, unseen = plans, centralized_bootstrap(fresh_ocps(specs))
    other = fresh_ocps(specs)
    for t in range(24):
        a, b = mpc_step(ocps, seeded, t), mpc_step(other, unseen, t)
        seeded, unseen = a.plans, b.plans
        assert [x.tobytes() for x in a.states] == [x.tobytes() for x in b.states], t


@pytest.mark.parametrize("n", [2, 4, 8])
def test_slack_budget_certifies_the_local_optima_without_a_stacked_lp(monkeypatch, n):
    """The agents' own optima keep the default budget: the bootstrap
    returns them and builds no stacked LP. Denied the certificate, it
    solves the stacked LP, which returns the same plans and seeds the same
    bases, each its own optimal basis with its coupling slacks last."""
    specs = ocp_specs(default_config("mpc", n).params)
    stacked = []
    real = mpc._stacked_lp
    monkeypatch.setattr(mpc, "_stacked_lp", lambda ocps: stacked.append(1) or real(ocps))
    calls = solve_spy(monkeypatch)
    certified = fresh_ocps(specs)
    plans = centralized_bootstrap(certified)
    assert stacked == [] and len(calls) == n
    assert all(problem.m == ocp.lp.m for (problem, _, _), ocp in zip(calls, certified))
    k = len(certified[0]._coupling_rows)
    for ocp, (_, _, alone) in zip(certified, calls):
        n_i = ocp.lp.n - k
        assert ocp.basis == [j for j in alone.warm if j < n_i] + list(range(n_i, n_i + k))

    monkeypatch.setattr(mpc, "coupling_residual", lambda plans, coupling: np.inf)
    calls.clear()
    joint = fresh_ocps(specs)
    joint_plans = centralized_bootstrap(joint)
    assert stacked == [1] and calls[-1][2].iterations == 0
    assert [ocp.basis for ocp in joint] == [ocp.basis for ocp in certified]
    for p, q in zip(plans, joint_plans):
        assert [a.tobytes() for a in (p.states, p.inputs, p.outputs)] == \
            [a.tobytes() for a in (q.states, q.inputs, q.outputs)]


def test_own_optima_held_back_by_the_budget_are_not_certified():
    """Agent 0 alone would spend 1.0 at once but the budget sum u <= 0.5
    holds it to 0.5; agent 1 gives 0.5 back at t = 0. The stacked own
    optima keep the budget, yet agent 0's binds there, so they are not the
    joint optimum: the bootstrap solves the stacked LP and reaches HiGHS."""
    coupling = Polyhedron(np.array([[1.0]]), np.array([0.5]))

    def integrator(x0, x_end):
        model = LinearAgentModel(A=np.eye(1), B=np.eye(1), C=np.zeros((1, 1)),
                                 D=np.eye(1), x0=np.array([x0]))
        return OcpSpec(model=model, horizon=4, terminal_state=np.array([x_end]),
                       terminal_input=np.zeros(1),
                       cost=StageCost(w_x=np.array([1.0]), w_u=np.array([0.1])),
                       coupling=coupling)

    specs = [integrator(-0.5, 0.5), integrator(0.25, -0.25)]
    alone = [replan_local(build_local_ocp(s), s.model.x0) for s in specs]
    assert coupling_residual([p for p, _ in alone], coupling) == 0.0
    plans = centralized_bootstrap(fresh_ocps(specs))
    joint, _ = mpc._stacked_lp(fresh_ocps(specs))
    ref = linprog(joint.c, A_eq=joint.A, b_eq=joint.b, bounds=(0, None), method="highs")
    cost = sum(plan_cost(p, s) for p, s in zip(plans, specs))
    assert cost == pytest.approx(ref.fun, rel=1e-9)
    assert cost < sum(c for _, c in alone) - 0.1
    assert coupling_residual(plans, coupling) <= 1e-9


def test_each_plan_is_fully_validated_once(monkeypatch, tmp_path):
    """On the default n = 4 run a plan is checked in full where it enters
    the loop, from the bootstrap or from a replan, and never again: at
    most steps + n full checks, where checking every plan every step
    took (n + 1) steps."""
    n = 4
    cfg = default_config("mpc", n)
    full, total = [], []
    real = mpc.validate_plan

    def spy(plan, spec):
        total.append(1)
        if plan.valid_for is not spec:
            full.append(1)
        real(plan, spec)

    monkeypatch.setattr(mpc, "validate_plan", spy)
    run_scenario(cfg, str(tmp_path))
    steps = cfg.params["steps"]
    assert len(total) == (n + 1) * steps
    assert len(full) <= steps + n


def test_bootstrap_of_uncoupled_agents_with_different_shapes():
    """With no budget rows the stacked LP is the agents' own blocks: it
    starts from their optima, takes no pivot, and returns them."""
    specs = [scalar_spec(x0=0.9), double_integrator_spec(),
             scalar_spec(a=0.95, b=0.5, x0=-1.2, x_term=0.4, u_term=0.04)]
    ocps = fresh_ocps(specs)
    plans = centralized_bootstrap(ocps)
    for spec, plan, ocp in zip(specs, plans, ocps):
        alone, _ = replan_local(build_local_ocp(spec), spec.model.x0)
        assert np.allclose(plan.states, alone.states, atol=1e-9)
        assert ocp.basis is not None and len(ocp.basis) == ocp.lp.m


def test_bootstrap_requires_a_shared_coupling():
    specs = coupled_pair()
    specs[1] = scalar_spec(x0=-0.4, x_term=0.5, horizon=8, u_lim=1.0)
    with pytest.raises(ModelError):
        centralized_bootstrap(fresh_ocps(specs))


def test_phase1_census(monkeypatch, tmp_path):
    """No replan runs phase 1: each re-solves from a dual feasible basis.
    The bootstrap runs it at most once per distinct (A, c) of its OCPs,
    plus once for the stacked LP."""
    where = ["bootstrap"]
    runs = {"bootstrap": 0, "replan": 0}
    real_phase1, real_replan = lp_module._phase1, mpc.replan_local

    def phase1(A, b):
        runs[where[0]] += 1
        return real_phase1(A, b)

    def replan(*args):
        where[0] = "replan"
        try:
            return real_replan(*args)
        finally:
            where[0] = "bootstrap"

    monkeypatch.setattr(lp_module, "_phase1", phase1)
    monkeypatch.setattr(mpc, "replan_local", replan)
    for n in (2, 4, 8):
        for seed in (0, 1, 2):
            runs["bootstrap"] = 0
            run_scenario(default_config("mpc", n, seed=seed), str(tmp_path))
            assert runs == {"bootstrap": 1, "replan": 0}, (n, seed)
    specs = binding_budget_specs()
    ocps = fresh_ocps(specs)
    runs["bootstrap"] = 0
    plans = centralized_bootstrap(ocps)
    for t in range(24):
        plans = mpc_step(ocps, plans, t).plans
    assert runs["bootstrap"] <= 2 and runs["replan"] == 0


# -- the engine's closed loop ------------------------------------------------------


@pytest.mark.parametrize("make, n_stacked", [(lambda: default_config("mpc", 4, seed=2), 0),
                                              (binding_budget_config, 1)],
                         ids=["default", "binding"])
def test_the_engine_runs_mpc_step_once_per_step(monkeypatch, tmp_path, make, n_stacked):
    """The mpc engine's closed loop is mpc.mpc_step: one call per step, fed
    the bitwise sum of the other agents' output plans as they came over
    the bus, and every record of a step is that step's result. Only the
    binding run's bootstrap builds the stacked LP; both keep the budget
    and warn of no infeasible solve."""
    cfg = make()
    n, steps = cfg.n, cfg.params["steps"]
    calls, stacked = [], []
    real, real_stacked = mpc.mpc_step, mpc._stacked_lp

    def spy(ocps, plans, t, others_outputs=None):
        sent = sum(p.outputs for j, p in enumerate(plans) if j != t % n)
        assert others_outputs.tobytes() == sent.tobytes(), t
        calls.append(real(ocps, plans, t, others_outputs))
        return calls[-1]

    monkeypatch.setattr(mpc, "mpc_step", spy)
    monkeypatch.setattr(mpc, "_stacked_lp", lambda ocps: stacked.append(1) or real_stacked(ocps))
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        summary = run_scenario(cfg, str(tmp_path))
    _, records = read_trace(summary["trace"])
    assert len(calls) == steps and len(stacked) == n_stacked
    assert summary["max_coupling_residual"] == max(r.applied_residual for r in calls) == 0.0
    kinds = {kind: [r for r in records if r["kind"] == kind]
             for kind in ("mpc_residual", "input", "pose")}
    for t, step in enumerate(calls):
        assert kinds["mpc_residual"][t] == {
            "kind": "mpc_residual", "t": float(t), "residual": step.applied_residual,
            "stage_cost": step.stage_cost, "turn": t % n, "replanned": step.replanned,
            "costs": step.costs}
        for i in range(n):
            assert kinds["input"][t * n + i] == {
                "kind": "input", "t": float(t), "agent": i, "u": step.inputs[i].tolist()}
            assert kinds["pose"][(t + 1) * n + i] == {
                "kind": "pose", "t": float(t + 1), "agent": i, "pos": step.states[i].tolist()}


@pytest.mark.parametrize("bad, error", [(np.zeros((9, 1)), ModelError),
                                        (np.zeros((8, 2)), ModelError),
                                        (np.full((8, 1), np.nan), LpError)],
                         ids=["long", "wide", "nan"])
def test_a_bad_bus_input_leaves_the_turn_agent_and_the_plans_as_they_were(bad, error):
    """others_outputs comes off the bus: one of the wrong shape or with a
    NaN raises before the turn agent's OCP or any plan changes."""
    specs = binding_budget_specs()
    ocps = fresh_ocps(specs)
    plans = centralized_bootstrap(ocps)
    plans = mpc_step(ocps, plans, 0).plans
    turn = 1
    b, basis = ocps[turn].lp.b.tobytes(), list(ocps[turn].basis)
    before = [[a.tobytes() for a in (p.states, p.inputs, p.outputs)] for p in plans]
    with pytest.raises(error):
        mpc_step(ocps, plans, turn, others_outputs=bad)
    assert ocps[turn].lp.b.tobytes() == b and ocps[turn].basis == basis
    assert [[a.tobytes() for a in (p.states, p.inputs, p.outputs)] for p in plans] == before


# -- seeded sweep ------------------------------------------------------------------

SWEEP_FAMILIES = ["inputs", "outputs", "double_inputs"]


def sweep_specs(family, n, rng, horizon=8):
    """n agents of one family steering from random starts to random
    equilibria under the budget sum z <= h, with h the summed terminal
    outputs plus a slack drawn from [0, 2]: scalar integrators coupled on
    their inputs or on their outputs, or double integrators coupled on
    their inputs."""
    slack = rng.uniform(0.0, 2.0)
    specs = []
    for _ in range(n):
        x0, x_end = rng.uniform(-1.0, 1.0, size=2)
        if family == "double_inputs":
            model = LinearAgentModel(A=[[1.0, 1.0], [0.0, 1.0]], B=[[0.5], [1.0]],
                                     C=[[0.0, 0.0]], D=[[1.0]], x0=[x0, 0.0])
            x_end, w_x = [x_end, 0.0], [1.0, 0.5]
        else:
            C, D = ([[0.0]], [[1.0]]) if family == "inputs" else ([[1.0]], [[0.0]])
            model = LinearAgentModel(A=[[1.0]], B=[[1.0]], C=C, D=D, x0=[x0])
            x_end, w_x = [x_end], [1.0]
        specs.append(OcpSpec(model, horizon, x_end, [0.0], StageCost(w_x, [0.1])))
    h = float(sum(s.terminal_output for s in specs)[0]) + slack
    return [replace(s, coupling=Polyhedron([[1.0]], [h])) for s in specs]


@pytest.mark.parametrize("n", [2, 4])
@pytest.mark.parametrize("family", SWEEP_FAMILIES)
def test_seeded_sweep_keeps_the_budget_and_never_raises_the_cost(family, n):
    """Sequential DMPC's promises on random draws, 12 steps of mpc_step
    each: every plan keeps the shared budget, no local solve is infeasible
    (no RuntimeWarning) and the summed plan cost never rises (Richards &
    How, Int. J. Control 80(9), 2007). A draw with no jointly feasible
    start is skipped and counted; each cell runs at least 3. The LP's
    roundoff leaves overspends of up to about 1e-15 where the budget
    binds, so residuals are held to 1e-9, the overspend that
    check_terminal_coupling admits, and costs to the acceptance tolerance
    of 1e-9 per step."""
    ran, skipped = 0, 0
    for seed in range(6):
        specs = sweep_specs(family, n, np.random.default_rng([SWEEP_FAMILIES.index(family), n, seed]))
        coupling = specs[0].coupling
        ocps = fresh_ocps(specs)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            try:
                plans = centralized_bootstrap(ocps)
            except FeasibilityError:
                skipped += 1
                continue
            residuals = [coupling_residual(plans, coupling)]
            cost = sum(plan_cost(p, s) for p, s in zip(plans, specs))
            for t in range(12):
                step = mpc_step(ocps, plans, t)
                plans = step.plans
                residuals += [step.applied_residual, coupling_residual(plans, coupling)]
                assert sum(step.costs) <= cost + 1e-9, (seed, t)
                cost = sum(step.costs)
        assert max(residuals) <= 1e-9, seed
        ran += 1
    assert ran >= 3, "%d of 6 draws had no feasible start" % skipped
