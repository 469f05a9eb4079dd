"""End-to-end release criteria.

Each test exercises one criterion at its stated tolerance and prints a
single PASS/FAIL verdict line (shown with ``pytest -s``, or in the
captured output on failure). Tolerances here are release gates; the
fine-grained behavior behind them lives in the per-module test files.
"""

import time

import numpy as np

from fleetsim.assignment import solve_assignment_network
from fleetsim.communicator import Communicator
from fleetsim.errors import NonConvergenceError, UnsupportedOperationError
from fleetsim.lp import (
    AssignmentProblem,
    assignment_cost,
    hungarian,
    solve_lp,
)
from fleetsim.mpc import (
    LinearAgentModel,
    OcpSpec,
    Polyhedron,
    StageCost,
    build_local_ocp,
    centralized_bootstrap,
    mpc_step,
    validate_plan,
)
from fleetsim.netgraph import erdos_renyi, graph_from_edges
from fleetsim.simrunner import (
    default_config,
    export_csv,
    parse_config,
    read_trace,
    run_scenario,
    summarize,
)
from fleetsim.transport import MessageBus, TransportConfig
from oracles import build_assignment_lp, joint_feasible, receding_horizon_oracle


def _verdict(label: str, ok: bool, detail: str = "") -> None:
    tail = " (%s)" % detail if detail else ""
    print("criterion %s: %s%s" % (label, "PASS" if ok else "FAIL", tail))
    assert ok, "criterion %s failed%s" % (label, tail)


# ------------------------------------------------------------ criterion 1


def test_criterion_1_containment_hull(tmp_path):
    """3 leaders / 3 followers on a half-alive graph end up inside the
    leader hull within 1e-2, in under 5 s of wall time."""
    cfg = parse_config({
        "scenario": "containment",
        "n": 6,
        "seed": 0,
        "dt": 0.01,
        "duration": 30.0,
        "graph": {"complete": True},
        "containment": {
            "leaders": [0, 1, 2],
            "activation": 0.5,
            "gain": 1.0,
            "leader_positions": [[0.0, 0.0], [2.0, 0.0], [1.0, 1.8]],
            "follower_positions": [[-1.5, 2.5], [3.2, 2.2], [2.8, -1.4]],
        },
    })
    summary = run_scenario(cfg, str(tmp_path))
    final = summarize(summary["trace"])["final_hull_distance"]
    wall = summary["wall_seconds"]
    _verdict(
        "1 containment hull",
        final <= 1e-2 and wall < 5.0,
        "worst follower hull distance %.3g, wall %.2fs" % (final, wall),
    )


# ------------------------------------------------------------ criterion 2


def test_criterion_2_hexagon_formation(tmp_path):
    """Ten seeded hexagon runs settle to the target shape: single
    integrators within 1e-6, the unicycle variant within 1e-2."""
    worst_si = 0.0
    worst_uni = 0.0
    for seed in range(10):
        cfg = default_config("formation", 6, seed=seed)
        summary = run_scenario(cfg, str(tmp_path / ("si%d" % seed)))
        worst_si = max(worst_si, summarize(summary["trace"])["final_formation_error"])

        raw = dict(cfg.raw)
        raw["formation"] = dict(raw["formation"], model="unicycle")
        summary = run_scenario(parse_config(raw), str(tmp_path / ("uni%d" % seed)))
        worst_uni = max(worst_uni, summarize(summary["trace"])["final_formation_error"])
    _verdict(
        "2 hexagon formation",
        worst_si <= 1e-6 and worst_uni <= 1e-2,
        "worst error: integrator %.3g, unicycle %.3g" % (worst_si, worst_uni),
    )


# ------------------------------------------------------------ criterion 3


def test_criterion_3_distributed_simplex_sweep():
    """500 reliable runs across fleet sizes 2..6 (including the sparse
    n=4, p=0.2 layout) match the Hungarian cost exactly; 100 lossy runs
    at 30% drop still converge and match; all inside 60 s."""
    t0 = time.perf_counter()
    exact = 0
    for n in range(2, 7):
        for seed in range(100):
            rng = np.random.default_rng([21, n, seed])
            p = 0.2 if n == 4 else float(rng.uniform(0.2, 0.8))
            graph = erdos_renyi(n, p, 1000 * n + seed, require_connected=True)
            costs = rng.random((n, n))
            try:
                perm, _, _ = solve_assignment_network(costs, graph)
            except NonConvergenceError:
                continue
            exact += assignment_cost(perm, costs) == hungarian(AssignmentProblem(n, costs))[1]

    lossy = 0
    for seed in range(100):
        rng = np.random.default_rng([22, seed])
        graph = erdos_renyi(4, 0.2, 5000 + seed, require_connected=True)
        costs = rng.random((4, 4))
        transport = TransportConfig(drop_prob=0.3, rng_seed=seed)
        try:
            perm, _, _ = solve_assignment_network(
                costs, graph, profile="best_effort", transport=transport
            )
        except NonConvergenceError:
            continue
        lossy += assignment_cost(perm, costs) == hungarian(AssignmentProblem(4, costs))[1]

    wall = time.perf_counter() - t0
    _verdict(
        "3 distributed simplex sweep",
        exact == 500 and lossy == 100 and wall < 60.0,
        "reliable %d/500, lossy %d/100, wall %.1fs" % (exact, lossy, wall),
    )


# ------------------------------------------------------------ criterion 4


def test_criterion_4_task_reveal_flow(tmp_path):
    """4 robots against 4 visible + 4 hidden tasks: one fresh reveal per
    completion until the backlog empties, all 8 done, 8 Gantt rows."""
    cfg = default_config("assignment", 4, seed=0)
    summary = run_scenario(cfg, str(tmp_path))
    _, records = read_trace(summary["trace"])
    flow = [
        r for r in records
        if r.get("kind") == "task_event"
        and r["event"] in ("reveal", "complete")
        and not (r["event"] == "reveal" and r["t"] == 0.0)
    ]
    initial = [
        r for r in records
        if r.get("kind") == "task_event" and r["event"] == "reveal" and r["t"] == 0.0
    ]

    hidden_left = 4
    completes = 0
    paired = True
    k = 0
    while k < len(flow):
        if flow[k]["event"] != "complete":
            paired = False  # a reveal without a completion right before it
            break
        completes += 1
        if hidden_left > 0:
            if k + 1 >= len(flow) or flow[k + 1]["event"] != "reveal":
                paired = False
                break
            hidden_left -= 1
            k += 2
        else:
            k += 1

    gantt = [
        p for p in export_csv(summary["trace"], str(tmp_path / "csv"))
        if p.endswith("gantt.csv")
    ][0]
    with open(gantt) as fh:
        gantt_rows = len(fh.read().splitlines()) - 1

    _verdict(
        "4 task reveal flow",
        paired
        and len(initial) == 4
        and completes == 8
        and hidden_left == 0
        and summary["completed_tasks"] == 8
        and gantt_rows == 8,
        "%d completions, %d paired reveals, %d gantt rows"
        % (completes, 4 - hidden_left, gantt_rows),
    )


# ------------------------------------------------------------ criterion 5


def _scalar_spec(a=1.0, b=1.0, x0=0.9, x_term=0.0, u_term=0.0, horizon=10,
                 u_lim=None, coupling=None):
    model = LinearAgentModel(
        A=np.array([[a]]), B=np.array([[b]]), C=np.array([[1.0]]),
        D=np.array([[0.0]]), x0=np.array([x0]),
    )
    u_set = None if u_lim is None else Polyhedron.box(np.array([-u_lim]), np.array([u_lim]))
    return OcpSpec(
        model=model,
        horizon=horizon,
        terminal_state=np.array([x_term]),
        terminal_input=np.array([u_term]),
        cost=StageCost(w_x=np.array([1.0]), w_u=np.array([0.1])),
        u_set=u_set,
        coupling=coupling,
    )


def _double_integrator_spec(horizon=10):
    model = LinearAgentModel(
        A=np.array([[1.0, 0.1], [0.0, 1.0]]),
        B=np.array([[0.0], [1.0]]),
        C=np.eye(2),
        D=np.zeros((2, 1)),
        x0=np.array([1.5, 0.0]),
    )
    return OcpSpec(
        model=model,
        horizon=horizon,
        terminal_state=np.zeros(2),
        terminal_input=np.zeros(1),
        cost=StageCost(w_x=np.array([1.0, 0.5]), w_u=np.array([0.1])),
        u_set=Polyhedron.box(np.array([-2.0]), np.array([2.0])),
    )


def _coupled_pair():
    coupling = Polyhedron(np.array([[1.0]]), np.array([1.0]))
    return [
        _scalar_spec(x0=x0, x_term=0.5, horizon=8, u_lim=1.0, coupling=coupling)
        for x0 in (0.2, -0.4)
    ]


def test_criterion_5a_decoupled_matches_oracle():
    """Without coupling, the sequential scheme must reproduce each
    agent's centralized receding-horizon trajectory within 1e-6."""
    specs = [
        _scalar_spec(x0=0.9),
        _double_integrator_spec(),
        _scalar_spec(a=0.95, b=0.5, x0=-1.2, x_term=0.4, u_term=0.04),
    ]
    steps = 30
    ocps = [build_local_ocp(spec) for spec in specs]
    plans = centralized_bootstrap(ocps)
    states = {i: [np.array(specs[i].model.x0)] for i in range(len(specs))}
    for t in range(steps):
        result = mpc_step(ocps, plans, t)
        plans = result.plans
        for i in range(len(specs)):
            states[i].append(result.states[i])
    worst = 0.0
    for i, spec in enumerate(specs):
        ref_states, _ = receding_horizon_oracle(
            spec, steps, replan_at=lambda t, i=i: t % len(specs) == i
        )
        worst = max(worst, float(np.max(np.abs(np.array(states[i]) - ref_states))))
    _verdict("5a decoupled equals oracle", worst <= 1e-6, "max state gap %.3g" % worst)


def test_criterion_5b_coupled_residual():
    """Two agents sharing the output budget sum z <= 1 keep the applied
    step inside the budget (residual <= 1e-8) for all 30 steps."""
    specs = _coupled_pair()
    ocps = [build_local_ocp(spec) for spec in specs]
    plans = centralized_bootstrap(ocps)
    worst = 0.0
    for t in range(30):
        result = mpc_step(ocps, plans, t)
        plans = result.plans
        worst = max(worst, result.applied_residual)
    _verdict("5b coupled residual", worst <= 1e-8, "max applied residual %.3g" % worst)


def test_criterion_5c_recursive_feasibility():
    """From jointly feasible bootstrap plans, every shifted plan stays
    dynamically valid and jointly feasible at every step."""
    specs = _coupled_pair()
    ocps = [build_local_ocp(spec) for spec in specs]
    plans = centralized_bootstrap(ocps)
    ok = joint_feasible(specs, plans)
    for t in range(30):
        result = mpc_step(ocps, plans, t)
        plans = result.plans
        for plan, spec in zip(plans, specs):
            validate_plan(plan, spec)  # raises on any violated plan
        ok = ok and joint_feasible(specs, plans)
    _verdict("5c recursive feasibility", ok, "30 steps validated")


# ------------------------------------------------------------ criterion 6


def test_criterion_6_lp_core():
    """200 random assignment LPs (3x3 .. 6x6): Hungarian-exact objective,
    duality certificate within 1e-8, vertex integrality within 1e-9."""
    rng = np.random.default_rng(61)
    exact = 0
    worst_gap = 0.0
    worst_frac = 0.0
    for _ in range(200):
        n = int(rng.integers(3, 7))
        costs = rng.random((n, n))
        problem = AssignmentProblem(n, costs)
        lp = build_assignment_lp(problem)
        sol = solve_lp(lp)

        xm = sol.x[: n * n].reshape(n, n)
        perm = tuple(int(np.argmax(xm[i])) for i in range(n))
        exact += assignment_cost(perm, costs) == hungarian(problem)[1]

        kept = sol.kept_rows if sol.kept_rows is not None else list(range(len(lp.b)))
        worst_gap = max(worst_gap, abs(float(lp.b[kept] @ sol.y) - sol.objective))
        worst_frac = max(worst_frac, float(np.max(np.abs(sol.x - np.round(sol.x)))))
    _verdict(
        "6 lp core",
        exact == 200 and worst_gap <= 1e-8 and worst_frac <= 1e-9,
        "exact %d/200, duality gap %.3g, integrality %.3g" % (exact, worst_gap, worst_frac),
    )


# ------------------------------------------------------------ criterion 7


def test_criterion_7_communicator_semantics():
    """Reliable links are FIFO over 1000 messages and honor round tags;
    best-effort links stay bounded at 100% drop and refuse synchronous
    receives."""
    g = graph_from_edges(2, [(0, 1)])

    a = Communicator(MessageBus(), 0, g)
    b = Communicator(a.bus, 1, g)
    for k in range(1000):
        a.send(k, to=1)
    fifo = all(b.receive(0, timeout=0) == k for k in range(1000))

    a2 = Communicator(MessageBus(), 0, g)
    b2 = Communicator(a2.bus, 1, g)
    for r in range(5):
        a2.send({"r": r}, to=1, round=r)
    rounds_ok = (
        b2.receive(0, round=3, timeout=0) == {"r": 3}
        and b2.receive(0, round=4, timeout=0) == {"r": 4}
    )

    cfg = TransportConfig(drop_prob=1.0, rng_seed=0)
    a3 = Communicator(MessageBus(), 0, g, profile="best_effort", config=cfg)
    b3 = Communicator(a3.bus, 1, g, profile="best_effort", config=cfg)
    t0 = time.perf_counter()
    for k in range(1000):
        a3.send(k, to=1)
    drained = b3.exchange_collect(round=0)
    bounded = drained == {} and (time.perf_counter() - t0) < 5.0

    try:
        b3.receive(0)
        rejected = False
    except UnsupportedOperationError:
        rejected = True

    _verdict(
        "7 communicator semantics",
        fifo and rounds_ok and bounded and rejected,
        "fifo=%s rounds=%s bounded=%s sync_rejected=%s"
        % (fifo, rounds_ok, bounded, rejected),
    )


# ------------------------------------------------------------ criterion 8


def test_criterion_8_trace_determinism(tmp_path):
    """Every scenario engine writes byte-identical traces when rerun with
    the same config and seed."""
    cases = [
        ("containment", 4, 0.3),
        ("formation", 6, 0.2),
        ("rendezvous", 3, 0.3),
        ("assignment", 3, 1.0),
        ("mpc", 2, None),
    ]
    identical = 0
    for scenario, n, duration in cases:
        cfg = default_config(scenario, n, seed=3, duration=duration)
        first = run_scenario(cfg, str(tmp_path / (scenario + "_a")))["trace"]
        second = run_scenario(cfg, str(tmp_path / (scenario + "_b")))["trace"]
        with open(first, "rb") as fa, open(second, "rb") as fb:
            identical += fa.read() == fb.read()
    _verdict(
        "8 trace determinism",
        identical == len(cases),
        "%d/%d scenarios byte-identical" % (identical, len(cases)),
    )
