"""Deterministic lockstep scenario engines.

Every engine drives real communicators over the message bus, one exchange
round per simulated tick: first a send sweep across all agents, then a
gather-and-step sweep. The kinematic scenarios (rendezvous, containment,
formation) share one loop that runs :class:`fleetsim.runtime.Agent` in
lockstep, so the simulated robot is the library's robot. With a lockstep
clock and seeded randomness the whole run is a pure function of (config,
seed), which is what makes trace bytes reproducible.

The assignment engine layers three concerns per tick: cloud inbox
processing (task reveals and completions, which restart the optimization
epoch), one distributed-simplex protocol round while an epoch is active,
and task-directed driving. The cloud lives on its own star-topology bus,
so robots never see each other's completions except through cloud
broadcasts.
"""

from __future__ import annotations

import math
import os
import time

import numpy as np

from .. import mpc
from ..assignment import (
    CloudState,
    LockstepSolve,
    cloud_complete,
    costs_from_positions,
    default_margin,
)
from ..communicator import Communicator
from ..control import SiToUniParams
from ..dynamics import SingleIntegratorState, UnicycleState
from ..errors import NonConvergenceError, clear_frames
from ..guidance import containment_law, formation_law
from ..lp import AssignmentProblem, hungarian
from ..mpc import centralized_bootstrap
from ..netgraph import EdgeSchedule, graph_from_edges
from ..runtime import Agent, AgentSpec, spawn_agent
from ..transport import MessageBus, TransportConfig
from .config import ScenarioConfig, formation_spec, ocp_specs
from .trace import TraceWriter

# unused here (Agent, formation_law and mpc_step call them), kept only
# because perfbench/spans.py looks these names up on this module
from ..control import si_to_unicycle  # noqa: F401
from ..dynamics import step  # noqa: F401
from ..guidance import formation_velocity  # noqa: F401
from ..mpc import mpc_round, shift_plan  # noqa: F401

__all__ = ["run_scenario"]


def _uniform_points(rng: np.random.Generator, box, count: int) -> np.ndarray:
    (x0, y0), (x1, y1) = box
    return rng.uniform([x0, y0], [x1, y1], size=(count, 2))


def _log_poses(writer: TraceWriter, t: float, positions) -> None:
    writer.rows("pose", t, enumerate(positions))


# -- consensus-style kinematic scenarios ----------------------------------------


def _agents(cfg: ScenarioConfig, bus: MessageBus, graph, profile: str, states, laws,
            **spec) -> list[Agent]:
    """One runtime agent per robot, each on its own communicator, for
    the engine to drive in lockstep."""
    return [
        spawn_agent(AgentSpec(i, states[i], laws[i], period=cfg.dt, **spec), bus, graph,
                    profile=profile)
        for i in range(cfg.n)
    ]


def _run_guidance(cfg: ScenarioConfig, writer: TraceWriter, bus: MessageBus,
                  agents: list[Agent]) -> int:
    """The lockstep tick shared by every kinematic scenario: all agents
    publish, then all gather, evaluate their law and step. Returns the
    number of ticks run."""
    steps = int(round(cfg.duration / cfg.dt))
    _log_poses(writer, 0.0, [a.pose for a in agents])
    for k in range(steps):
        for a in agents:
            a.tick_publish(k)
        for a in agents:
            a.tick_compute(k)
        writer.rows("input", k * cfg.dt, [(a.agent_id, a.last_input) for a in agents])
        bus.clock.advance(cfg.dt)
        _log_poses(writer, (k + 1) * cfg.dt, [a.pose for a in agents])
    return steps


def _run_containment(cfg: ScenarioConfig, writer: TraceWriter) -> dict:
    p = cfg.params
    n = cfg.n
    leaders = set(p["leaders"])
    followers = [i for i in range(n) if i not in leaders]
    rng = np.random.default_rng([cfg.seed, 11])

    lead_pts = p.get("leader_positions")
    if lead_pts is None:
        lead_pts = _uniform_points(rng, p["init_box"], len(leaders))
    foll_pts = p.get("follower_positions")
    if foll_pts is None:
        foll_pts = _uniform_points(rng, p["init_box"], len(followers))
    pos = np.zeros((n, 2))
    for idx, i in enumerate(sorted(leaders)):
        pos[i] = lead_pts[idx]
    for idx, i in enumerate(followers):
        pos[i] = foll_pts[idx]

    bus = MessageBus()
    schedule = EdgeSchedule(cfg.graph, activation_prob=p["activation"], rng_seed=cfg.seed)
    agents = _agents(cfg, bus, schedule, "time_varying",
                     [SingleIntegratorState(x) for x in pos],
                     [containment_law(i in leaders, p["gain"]) for i in range(n)])
    steps = _run_guidance(cfg, writer, bus, agents)
    return {"n": n, "leaders": sorted(leaders), "steps": steps}


def _formation_initials(p: dict, n: int, rng: np.random.Generator) -> np.ndarray:
    """Initial layout: explicit positions win; hexagon runs otherwise start
    at the target slots plus seeded noise of half a side per axis, because
    the distance-gradient flow has attracting wrong-shape equilibria and a
    box-uniform scatter lands in their basins for many seeds. Explicit
    formations without positions fall back to the uniform box."""
    pts = p.get("positions")
    if pts is not None:
        return np.asarray(pts, dtype=float)
    if p["kind"] == "hexagon":
        side = p["side"]
        angles = np.arange(n) * (math.pi / 3.0)
        slots = side * np.column_stack([np.cos(angles), np.sin(angles)])
        return slots + rng.uniform(-0.5 * side, 0.5 * side, size=(n, 2))
    return _uniform_points(rng, p["init_box"], n)


def _run_formation(cfg: ScenarioConfig, writer: TraceWriter) -> dict:
    p = cfg.params
    n = cfg.n
    rng = np.random.default_rng([cfg.seed, 12])
    pos = _formation_initials(p, n, rng)
    spec = formation_spec(p)
    laws = [formation_law(spec, i) for i in range(n)]

    bus = MessageBus()
    if p["model"] == "unicycle":
        thetas = rng.uniform(-math.pi, math.pi, size=n)
        states = [UnicycleState(pos[i][0], pos[i][1], thetas[i]) for i in range(n)]
        params = SiToUniParams(
            lookahead=p["lookahead"], v_max=p["v_max"], omega_max=p["omega_max"]
        )
        agents = _agents(cfg, bus, cfg.graph, "static", states, laws, si_params=params)
    else:
        agents = _agents(cfg, bus, cfg.graph, "static",
                         [SingleIntegratorState(x) for x in pos], laws)
    steps = _run_guidance(cfg, writer, bus, agents)
    return {"n": n, "model": p["model"], "steps": steps}


def _run_rendezvous(cfg: ScenarioConfig, writer: TraceWriter) -> dict:
    p = cfg.params
    rng = np.random.default_rng([cfg.seed, 13])
    pos = _uniform_points(rng, p["init_box"], cfg.n)
    bus = MessageBus()
    # the consensus law scaled by the gain is the containment follower law
    agents = _agents(cfg, bus, cfg.graph, "static",
                     [SingleIntegratorState(x) for x in pos],
                     [containment_law(False, p["gain"])] * cfg.n)
    steps = _run_guidance(cfg, writer, bus, agents)
    return {"n": cfg.n, "steps": steps}


# -- dynamic task assignment -----------------------------------------------------


def _run_assignment(cfg: ScenarioConfig, writer: TraceWriter) -> dict:
    p = cfg.params
    n = cfg.n
    rng = np.random.default_rng([cfg.seed, 14])
    pts = p.get("robot_positions")
    pos = np.asarray(pts, dtype=float) if pts is not None else _uniform_points(rng, p["init_box"], n)

    cloud = CloudState.from_positions(p["task_positions"], p["hidden_tasks"])
    total_tasks = len(cloud.revealed) + len(cloud.hidden)

    peer_bus = MessageBus()
    transport = TransportConfig(drop_prob=p["drop_prob"], rng_seed=cfg.seed)
    peer_comms = [
        Communicator(peer_bus, i, cfg.graph, profile=p["profile"], config=transport)
        for i in range(n)
    ]
    cloud_bus = MessageBus()
    star = graph_from_edges(n + 1, [[i, n] for i in range(n)])
    robot_cloud = [Communicator(cloud_bus, i, star, profile="static") for i in range(n)]
    cloud_comm = Communicator(cloud_bus, n, star, profile="static")

    margin = default_margin(cfg.graph, p["drop_prob"])
    speed = p["speed"]
    arrive = p["arrive_radius"]

    # robots' shared view of the live window; seeded from the initial reveal
    live: dict[int, np.ndarray] = {}
    targets: list[int | None] = [None] * n
    epoch = None  # (number, live task ids, costs, LockstepSolve)
    epoch_count = 0
    for task in cloud.revealed:
        writer.write({
            "kind": "task_event", "t": 0.0, "event": "reveal",
            "task": task.task_id, "pos": [float(v) for v in task.position],
        })
        live[task.task_id] = task.position.copy()

    steps = int(round(cfg.duration / cfg.dt))
    _log_poses(writer, 0.0, pos)
    completed = 0
    finished_at = None
    for k in range(steps):
        t = k * cfg.dt

        # phase A: cloud inbox (reveals and completions broadcast last tick)
        changed = k == 0  # the initial reveal at t=0
        for i in range(n):
            for _, msg in robot_cloud[i].drain(n):
                if msg["event"] == "reveal":
                    # every robot sees the same broadcast; first one in
                    # updates the shared window, the rest deduplicate
                    if msg["task"] not in live:
                        live[msg["task"]] = np.asarray(msg["pos"], dtype=float)
                        changed = True
                elif msg["event"] == "complete":
                    if msg["task"] in live:
                        del live[msg["task"]]
                        changed = True
                    if targets[i] == msg["task"]:
                        targets[i] = None

        # phase B: distributed optimization, one protocol round per tick
        if changed and live:
            live_ids = sorted(live)
            task_pts = [live[j] for j in live_ids]
            costs = np.zeros((n, n))
            costs[:, : len(task_pts)] = costs_from_positions(pos, task_pts)
            epoch = (epoch_count, live_ids, costs, LockstepSolve(costs, margin, p["round_budget"]))
            epoch_count += 1
        if epoch is not None:
            number, live_ids, costs, solve = epoch
            try:
                agreed = solve.round(peer_comms, k)
            except NonConvergenceError as exc:
                exc.diagnostics["epoch"] = number
                raise
            if agreed is not None:
                _, perm, objective = agreed
                reference = hungarian(AssignmentProblem(n, costs))[1]
                writer.write({
                    "kind": "assignment", "t": t, "epoch": number,
                    "perm": list(perm), "objective": float(objective),
                    "reference": float(reference), "rounds": solve.rounds,
                })
                for i in range(n):
                    task_id = live_ids[perm[i]] if perm[i] < len(live_ids) else None
                    if task_id in live:
                        targets[i] = task_id
                        writer.write({
                            "kind": "task_event", "t": t, "event": "assign",
                            "task": task_id, "agent": i,
                        })
                    else:
                        targets[i] = None
                epoch = None

        # phase C: task-directed driving
        arrivals: list[tuple[int, int]] = []
        inputs = []
        for i in range(n):
            tgt = targets[i]
            if tgt is None or tgt not in live:
                inputs.append((i, (0.0, 0.0)))
                continue
            goal = live[tgt]
            delta = goal - pos[i]
            dist = float(np.linalg.norm(delta))
            if dist <= speed * cfg.dt:
                new = goal.copy()
            else:
                new = pos[i] + (speed * cfg.dt / dist) * delta
            inputs.append((i, (new - pos[i]) / cfg.dt))
            pos[i] = new
            if float(np.linalg.norm(goal - pos[i])) <= arrive:
                arrivals.append((i, tgt))
                targets[i] = None
        writer.rows("input", t, inputs)

        for i, task_id in arrivals:
            robot_cloud[i].send({"complete": task_id}, n, round=k)

        # phase D: cloud processes completions and reveals replacements
        t_done = (k + 1) * cfg.dt
        for i in range(n):
            for _, msg in cloud_comm.drain(i):
                task_id = int(msg["complete"])
                fresh = cloud_complete(cloud, task_id)
                completed += 1
                writer.write({
                    "kind": "task_event", "t": t_done, "event": "complete",
                    "task": task_id, "agent": i,
                })
                cloud_comm.send(
                    {"event": "complete", "task": task_id, "agent": i},
                    cloud_comm.out_neighbors, round=k,
                )
                if fresh is not None:
                    writer.write({
                        "kind": "task_event", "t": t_done, "event": "reveal",
                        "task": fresh.task_id,
                        "pos": [float(v) for v in fresh.position],
                    })
                    cloud_comm.send(
                        {"event": "reveal", "task": fresh.task_id,
                         "pos": [float(v) for v in fresh.position]},
                        cloud_comm.out_neighbors, round=k,
                    )

        peer_bus.clock.advance(cfg.dt)
        cloud_bus.clock.advance(cfg.dt)
        _log_poses(writer, t_done, pos)
        if completed == total_tasks:
            finished_at = t_done
            break

    return {
        "n": n,
        "completed_tasks": completed,
        "total_tasks": total_tasks,
        "epochs": epoch_count,
        "finished_at": finished_at,
    }


# -- distributed MPC ---------------------------------------------------------------


def _run_mpc(cfg: ScenarioConfig, writer: TraceWriter) -> dict:
    p = cfg.params
    n = cfg.n
    # one OCP per agent for the episode, identical agents sharing A and c;
    # the bootstrap starts from their optima and seeds their bases, and each
    # replan rewrites its b and warm-starts. The build and the steps are
    # looked up on the module so that a wrapper installed there sees them.
    ocps = mpc.build_local_ocps(ocp_specs(p))
    plans = centralized_bootstrap(ocps)

    # each step the other agents send their plans to the agent whose turn
    # it is, over the config's graph, which _parse_mpc requires to be
    # complete; relaying through multi-hop topologies is out of scope for
    # this engine
    bus = MessageBus()
    comms = []
    if n > 1:
        comms = [Communicator(bus, i, cfg.graph, profile="static") for i in range(n)]

    steps = p["steps"]
    closed_loop_cost = 0.0
    max_residual = 0.0
    _log_poses(writer, 0.0, [pl.states[0] for pl in plans])
    for k in range(steps):
        turn = k % n
        others = None
        if comms:
            for i in range(n):
                if i != turn:
                    comms[i].send(plans[i].outputs, turn, round=k)  # a bare MAT item
            others = sum(comms[turn].exchange_collect(round=k).values())
        step = mpc.mpc_step(ocps, plans, k, others_outputs=others)
        plans = step.plans
        max_residual = max(max_residual, step.applied_residual)
        closed_loop_cost += step.stage_cost
        writer.write({
            "kind": "mpc_residual", "t": float(k), "residual": step.applied_residual,
            "stage_cost": step.stage_cost, "turn": turn, "replanned": step.replanned,
            "costs": step.costs,
        })
        for i in range(n):
            writer.input(k, i, step.inputs[i])
            writer.pose(k + 1, i, step.states[i])
        bus.clock.advance(cfg.dt)

    return {
        "n": n,
        "steps": steps,
        "max_coupling_residual": max_residual,
        "closed_loop_cost": closed_loop_cost,
    }


_ENGINES = {
    "containment": _run_containment,
    "formation": _run_formation,
    "rendezvous": _run_rendezvous,
    "assignment": _run_assignment,
    "mpc": _run_mpc,
}


def run_scenario(cfg: ScenarioConfig, out_path: str) -> dict:
    """Run a scenario, writing the trace to ``out_path``.

    ``out_path`` may be a directory (trace lands at ``<dir>/trace.jsonl``)
    or an explicit ``.jsonl`` file path. Returns the summary metrics; on
    failure the writer is closed before the error propagates, so the
    partial trace stays readable (it has no summary record).
    """
    if out_path.endswith(".jsonl"):
        trace_path = out_path
    else:
        trace_path = os.path.join(out_path, "trace.jsonl")
    engine = _ENGINES[cfg.scenario]
    writer = TraceWriter(trace_path, cfg.raw)
    started = time.perf_counter()
    try:
        summary = engine(cfg, writer)
        # the trace stays byte-identical across reruns of the same config
        # and seed, so wall time and the output path ride only on the
        # returned dict, never on disk
        writer.write({"kind": "summary", **summary})
        summary["wall_seconds"] = time.perf_counter() - started
        summary["trace"] = trace_path
        return summary
    except NonConvergenceError as exc:
        clear_frames(exc)  # the engine's frame holds its network
        raise
    finally:
        writer.close()
