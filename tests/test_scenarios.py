"""Scenario configs, engines, traces, summaries and the CLI."""

import csv
import hashlib
import json
import math
from pathlib import Path

import numpy as np
import pytest

from fleetsim.cli import main
from fleetsim.errors import ConfigError, NonConvergenceError, TraceError
from fleetsim.simrunner import (
    CONFIG_VERSION,
    SCHEMA_VERSION,
    TraceWriter,
    default_config,
    export_csv,
    parse_config,
    read_trace,
    run_scenario,
    summarize,
)
from fleetsim.transport import MessageBus

# ---------------------------------------------------------------- parsing


CONTAINMENT_YAML = """
version: 1
scenario: containment
n: 4
seed: 3
dt: 0.02
duration: 0.5
graph:
  complete: true
containment:
  leaders: [0, 1]
  gain: 2.0
  activation: 0.75
"""


def test_parse_containment_config():
    cfg = parse_config(CONTAINMENT_YAML)
    assert cfg.scenario == "containment"
    assert cfg.n == 4
    assert cfg.seed == 3
    assert cfg.dt == 0.02
    assert cfg.duration == 0.5
    assert cfg.version == CONFIG_VERSION
    assert cfg.graph.n == 4
    assert cfg.graph.adjacency.sum() == 12
    assert cfg.params["leaders"] == [0, 1]
    assert cfg.params["gain"] == 2.0
    assert cfg.params["activation"] == 0.75


def test_parse_accepts_loaded_mapping_and_normalized_raw_reparses():
    cfg = parse_config(CONTAINMENT_YAML)
    again = parse_config(cfg.raw)
    assert again.raw == cfg.raw
    assert np.array_equal(again.graph.adjacency, cfg.graph.adjacency)


def test_parse_defaults_dt_and_seed():
    cfg = parse_config({"scenario": "rendezvous", "n": 3})
    assert cfg.dt == 0.01
    assert cfg.seed == 0
    assert cfg.duration == 10.0
    # omitted graph means complete
    assert cfg.graph.adjacency.sum() == 6


@pytest.mark.parametrize(
    "mutate, fragment",
    [
        (lambda d: d.update(version=2), "version"),
        (lambda d: d.update(scenario="swarm"), "scenario"),
        (lambda d: d.update(n=0), "n"),
        (lambda d: d.update(dt=-0.1), "dt"),
        (lambda d: d.update(duration=0), "duration"),
        (lambda d: d.update(graph={"edges": [[0, 5]]}), "graph.edges[0]"),
        (lambda d: d.update(graph={"edges": [[0, 0]]}), "graph.edges[0]"),
        (lambda d: d.update(graph={"complete": True, "cycle": True}), "graph"),
        (lambda d: d.update(graph={"er": {"p": 1.5}}), "graph.er.p"),
        (lambda d: d.update(graph={"matrix": [[0, 2], [2, 0]]}), "graph.matrix"),
    ],
)
def test_parse_error_paths_name_the_field(mutate, fragment):
    data = {"scenario": "rendezvous", "n": 3}
    mutate(data)
    with pytest.raises(ConfigError) as err:
        parse_config(data)
    assert fragment in str(err.value)


def test_parse_rejects_non_mapping_and_bad_yaml():
    with pytest.raises(ConfigError, match="document"):
        parse_config([1, 2, 3])
    with pytest.raises(ConfigError):
        parse_config("scenario: [unclosed")


def test_containment_block_errors():
    base = {"scenario": "containment", "n": 3}
    with pytest.raises(ConfigError, match="containment"):
        parse_config(base)
    with pytest.raises(ConfigError, match=r"containment\.leaders\[1\]"):
        parse_config({**base, "containment": {"leaders": [0, 7]}})
    with pytest.raises(ConfigError, match=r"containment\.leaders\[1\]"):
        parse_config({**base, "containment": {"leaders": [0, 0]}})
    with pytest.raises(ConfigError, match="follower"):
        parse_config({**base, "containment": {"leaders": [0, 1, 2]}})
    with pytest.raises(ConfigError, match=r"containment\.activation"):
        parse_config({**base, "containment": {"leaders": [0], "activation": 0.0}})
    with pytest.raises(ConfigError, match=r"containment\.leader_positions"):
        parse_config(
            {**base, "containment": {"leaders": [0, 1], "leader_positions": [[0, 0]]}}
        )


def test_formation_block_errors():
    base = {"scenario": "formation", "n": 6}
    with pytest.raises(ConfigError, match=r"formation\.kind"):
        parse_config({**base, "n": 5, "formation": {"kind": "hexagon"}})
    with pytest.raises(ConfigError, match=r"formation\.kind"):
        parse_config({**base, "formation": {"kind": "wedge"}})
    with pytest.raises(ConfigError, match=r"formation\.positions"):
        parse_config(
            {**base, "formation": {"kind": "hexagon", "positions": [[0, 0]] * 5}}
        )
    with pytest.raises(ConfigError, match=r"formation\.model"):
        parse_config({**base, "formation": {"kind": "hexagon", "model": "boat"}})
    # declared distance without a matching communication edge
    with pytest.raises(ConfigError, match=r"formation\.distances"):
        parse_config(
            {
                "scenario": "formation",
                "n": 3,
                "graph": {"edges": [[0, 1], [1, 2]]},
                "formation": {"kind": "explicit", "distances": [[0, 2, 1.0]]},
            }
        )
    # malformed explicit rows reuse the FormationError text
    with pytest.raises(ConfigError, match=r"formation\.distances"):
        parse_config(
            {
                "scenario": "formation",
                "n": 3,
                "formation": {"kind": "explicit", "distances": [[0, 0, 1.0]]},
            }
        )


def test_assignment_block_errors():
    tasks = [[0.0, 0.0], [1.0, 1.0]]
    base = {"scenario": "assignment", "n": 2}
    with pytest.raises(ConfigError, match=r"assignment\.task_positions"):
        parse_config({**base, "assignment": {"task_positions": tasks[:1]}})
    with pytest.raises(ConfigError, match=r"assignment\.profile"):
        parse_config(
            {**base, "assignment": {"task_positions": tasks, "profile": "carrier"}}
        )
    with pytest.raises(ConfigError, match=r"assignment\.drop_prob"):
        parse_config(
            {**base, "assignment": {"task_positions": tasks, "drop_prob": 1.0}}
        )
    # lossy links only make sense on the best-effort profile
    with pytest.raises(ConfigError, match=r"assignment\.drop_prob"):
        parse_config(
            {
                **base,
                "assignment": {
                    "task_positions": tasks,
                    "profile": "static",
                    "drop_prob": 0.2,
                },
            }
        )


def test_assignment_config_refuses_time_varying(tmp_path, capsys):
    """The engine has no activation schedule, so time_varying would run
    exactly as static; the parser says so instead of running it."""
    raw = default_config("assignment", 3).raw
    raw["assignment"]["profile"] = "time_varying"
    with pytest.raises(ConfigError, match=r"assignment\.profile.*activation schedule"):
        parse_config(raw)
    path = tmp_path / "tv.json"
    path.write_text(json.dumps(raw))
    out = tmp_path / "out"
    assert main(["run", "assignment", "--config", str(path), "--out", str(out)]) == 2
    assert "assignment.profile" in capsys.readouterr().err
    assert not out.exists() or not any(out.iterdir())


@pytest.mark.parametrize("budget", [0, -5])
def test_assignment_config_refuses_a_budget_below_one_round(budget, tmp_path, capsys):
    """A budget that runs no round fails under assignment.round_budget,
    and the CLI exits 2 before it writes a trace."""
    raw = default_config("assignment", 3).raw
    raw["assignment"]["round_budget"] = budget
    with pytest.raises(ConfigError, match=r"assignment\.round_budget: must be >= 1"):
        parse_config(raw)
    path = tmp_path / "budget.json"
    path.write_text(json.dumps(raw))
    out = tmp_path / "out"
    assert main(["run", "assignment", "--config", str(path), "--out", str(out)]) == 2
    assert "assignment.round_budget" in capsys.readouterr().err
    assert not out.exists() or not any(out.iterdir())


def test_pinned_robot_positions_start_the_run(tmp_path):
    """``robot_positions`` replaces the seeded layout: the first pose
    records are the pinned points; a list of the wrong length is refused."""
    raw = default_config("assignment", 3).raw
    pinned = [[0.25, 1.75], [1.5, 0.125], [0.5, 0.5]]
    raw["assignment"]["robot_positions"] = pinned
    raw["duration"] = 0.05
    run_scenario(parse_config(raw), str(tmp_path))
    _, records = read_trace(str(tmp_path / "trace.jsonl"))
    poses = [r for r in records if r["kind"] == "pose"][:3]
    assert [(r["t"], r["agent"], r["pos"]) for r in poses] == [
        (0.0, i, p) for i, p in enumerate(pinned)]
    raw["assignment"]["robot_positions"] = pinned[:2]
    with pytest.raises(ConfigError, match=r"assignment\.robot_positions: need n=3"):
        parse_config(raw)


def test_mpc_block_errors():
    agent = {
        "A": [[1.0]], "B": [[1.0]], "C": [[1.0]], "D": [[0.0]],
        "x0": [0.1], "terminal_state": [0.0], "terminal_input": [0.0],
        "w_x": [1.0], "w_u": [0.1],
    }
    base = {"scenario": "mpc", "n": 1}
    with pytest.raises(ConfigError, match=r"mpc\.horizon"):
        parse_config({**base, "mpc": {"horizon": 0, "agents": [agent]}})
    with pytest.raises(ConfigError, match=r"mpc\.steps"):
        parse_config({**base, "mpc": {"steps": 0, "agents": [agent]}})
    with pytest.raises(ConfigError, match=r"mpc\.agents"):
        parse_config({**base, "mpc": {"agents": [agent, agent]}})
    with pytest.raises(ConfigError, match=r"mpc\.agents\[0\]\.A"):
        parse_config({**base, "mpc": {"agents": [{**agent, "A": "eye"}]}})
    with pytest.raises(ConfigError, match=r"mpc\.coupling"):
        parse_config({**base, "mpc": {"agents": [agent], "coupling": [1.0]}})


def test_graph_forms_realize_expected_adjacency():
    cyc = parse_config({"scenario": "rendezvous", "n": 4, "graph": {"cycle": True}})
    assert cyc.graph.adjacency.sum() == 8
    assert cyc.graph.adjacency[0, 1] == 1 and cyc.graph.adjacency[0, 3] == 1
    mat = parse_config(
        {"scenario": "rendezvous", "n": 2, "graph": {"matrix": [[0, 1], [1, 0]]}}
    )
    assert mat.graph.adjacency[0, 1] == 1
    er = parse_config(
        {"scenario": "rendezvous", "n": 5, "graph": {"er": {"p": 0.5, "seed": 7}}}
    )
    assert er.graph.n == 5
    edges = parse_config(
        {"scenario": "rendezvous", "n": 3, "graph": {"edges": [[0, 1]]}}
    )
    assert edges.graph.adjacency[1, 0] == 1  # undirected by default
    directed = parse_config(
        {
            "scenario": "rendezvous",
            "n": 3,
            "graph": {"edges": [[0, 1]], "directed": True},
        }
    )
    assert directed.graph.adjacency[0, 1] == 1
    assert directed.graph.adjacency[1, 0] == 0


def test_default_config_each_scenario():
    for scenario in ("containment", "formation", "rendezvous", "assignment", "mpc"):
        n = 6 if scenario == "formation" else 4
        cfg = default_config(scenario, n, seed=1)
        assert cfg.scenario == scenario
        assert cfg.n == n
    with pytest.raises(ConfigError):
        default_config("swarm", 4)
    with pytest.raises(ConfigError):
        default_config("formation", 5)


def test_default_assignment_has_hidden_backlog():
    cfg = default_config("assignment", 4, seed=0)
    assert len(cfg.params["task_positions"]) == 4
    assert len(cfg.params["hidden_tasks"]) == 4


# ---------------------------------------------------------------- engines


def _short(scenario, tmp_path, name, **over):
    defaults = {"containment": 0.1, "formation": 0.1, "rendezvous": 0.1, "assignment": 0.3}
    cfg = default_config(
        scenario,
        over.pop("n", 6 if scenario == "formation" else 3),
        seed=over.pop("seed", 0),
        duration=over.pop("duration", defaults.get(scenario)),
        **over,
    )
    out = tmp_path / name
    summary = run_scenario(cfg, str(out))
    return cfg, summary, str(out / "trace.jsonl")


def test_run_scenario_reports_wall_time_but_trace_stays_clean(tmp_path):
    cfg, summary, trace = _short("rendezvous", tmp_path, "rdv")
    assert summary["wall_seconds"] > 0
    assert summary["trace"] == trace
    header, records = read_trace(trace)
    assert header["schema"] == SCHEMA_VERSION
    assert header["config"] == cfg.raw
    tail = [r for r in records if r["kind"] == "summary"]
    assert len(tail) == 1
    assert "wall_seconds" not in tail[0]
    assert "trace" not in tail[0]


def test_run_scenario_accepts_explicit_jsonl_path(tmp_path):
    cfg = default_config("rendezvous", 3, seed=0, duration=0.05)
    path = tmp_path / "custom.jsonl"
    summary = run_scenario(cfg, str(path))
    assert summary["trace"] == str(path)
    read_trace(str(path))


def test_traces_are_byte_identical_for_same_config_and_seed(tmp_path):
    for scenario in ("containment", "rendezvous", "assignment"):
        _, _, a = _short(scenario, tmp_path, scenario + "_a")
        _, _, b = _short(scenario, tmp_path, scenario + "_b")
        assert Path(a).read_bytes() == Path(b).read_bytes(), scenario


def test_traces_differ_across_seeds(tmp_path):
    _, _, a = _short("rendezvous", tmp_path, "seed0", seed=0)
    _, _, b = _short("rendezvous", tmp_path, "seed1", seed=1)
    assert Path(a).read_bytes() != Path(b).read_bytes()


def test_formation_positions_override_initial_layout(tmp_path):
    cfg = default_config("formation", 6, seed=0, duration=0.02)
    raw = dict(cfg.raw)
    slots = [
        [math.cos(k * math.pi / 3), math.sin(k * math.pi / 3)] for k in range(6)
    ]
    raw["formation"] = dict(raw["formation"], positions=slots)
    cfg = parse_config(raw)
    summary = run_scenario(cfg, str(tmp_path))
    _, records = read_trace(summary["trace"])
    first = {
        r["agent"]: r["pos"] for r in records if r["kind"] == "pose" and r["t"] == 0.0
    }
    for k in range(6):
        assert first[k] == pytest.approx(slots[k], abs=1e-12)


def test_rendezvous_contracts_the_spread(tmp_path):
    cfg = default_config("rendezvous", 4, seed=2, duration=2.0)
    summary = run_scenario(cfg, str(tmp_path))
    stats = summarize(summary["trace"])
    assert stats["scenario"] == "rendezvous"
    assert stats["final_spread"] < 0.2


def test_containment_summary_metrics(tmp_path):
    cfg, summary, trace = _short("containment", tmp_path, "cont", n=4, duration=2.0)
    stats = summarize(trace)
    assert stats["final_hull_distance"] is not None
    assert stats["max_hull_distance_final_second"] >= stats["final_hull_distance"] - 1e-12


def test_formation_summary_metrics(tmp_path):
    cfg, summary, trace = _short("formation", tmp_path, "form", duration=0.5)
    stats = summarize(trace)
    assert stats["final_formation_error"] is not None
    assert stats["final_formation_error"] >= 0.0


def test_assignment_run_completes_all_tasks(tmp_path):
    cfg = default_config("assignment", 3, seed=0, duration=30.0)
    summary = run_scenario(cfg, str(tmp_path))
    assert summary["completed_tasks"] == summary["total_tasks"] == 6
    assert summary["finished_at"] is not None
    stats = summarize(summary["trace"])
    assert stats["completed_tasks"] == 6
    assert stats["reveals"] == 6
    assert stats["gantt_rows"] == 6
    assert stats["optimality_gap"] == pytest.approx(0.0, abs=1e-9)


def test_assignment_agents_agree_on_tied_costs(tmp_path):
    # once the backlog drains, the zero-padded cost columns tie exactly
    summary = run_scenario(default_config("assignment", 4, seed=1), str(tmp_path))
    assert summary["completed_tasks"] == summary["total_tasks"]


def _epochs_hit_their_reference(trace):
    _, records = read_trace(trace)
    epochs = [r for r in records if r["kind"] == "assignment"]
    assert epochs
    assert all(r["objective"] == r["reference"] for r in epochs)


def test_cli_assignment_run_at_n7_completes(tmp_path, capsys):
    """``fleetsim run assignment -n 7``: every drain epoch ties and agrees."""
    out = tmp_path / "assign7"
    out.mkdir()
    assert main(["run", "assignment", "-n", "7", "--out", str(out)]) == 0
    printed = json.loads(capsys.readouterr().out)
    assert printed["completed_tasks"] == printed["total_tasks"]
    _epochs_hit_their_reference(str(out / "trace.jsonl"))


@pytest.mark.parametrize("seed", [2, 4, 5])
def test_assignment_n6_drains_on_tied_windows(tmp_path, seed):
    summary = run_scenario(default_config("assignment", 6, seed=seed), str(tmp_path))
    assert summary["completed_tasks"] == summary["total_tasks"]
    _epochs_hit_their_reference(summary["trace"])


def test_mpc_engine_keeps_coupling_residual_tiny(tmp_path):
    cfg = default_config("mpc", 2, seed=0)
    summary = run_scenario(cfg, str(tmp_path))
    assert summary["steps"] == 30
    assert summary["max_coupling_residual"] <= 1e-8
    stats = summarize(summary["trace"])
    assert stats["max_coupling_residual"] <= 1e-8
    assert stats["closed_loop_cost"] == pytest.approx(summary["closed_loop_cost"])
    assert stats["steps"] == 30


def test_mpc_engine_sends_plans_only_to_the_turn_agent(tmp_path, monkeypatch):
    """Each step the n - 1 other agents send their plans to the agent whose
    turn it is, and nobody else; that is all the replan reads."""
    n, steps = 4, 5
    raw = dict(default_config("mpc", n, seed=0).raw)
    raw["mpc"] = dict(raw["mpc"], steps=steps)
    delivered = []
    deliver = MessageBus.deliver

    def counting(self, src, dst, env, **kw):
        delivered.append((env.round, src, dst))
        return deliver(self, src, dst, env, **kw)

    monkeypatch.setattr(MessageBus, "deliver", counting)
    run_scenario(parse_config(raw), str(tmp_path))
    assert len(delivered) == (n - 1) * steps
    assert all(dst == k % n and src != dst for k, src, dst in delivered)


def test_a_formation_broadcast_is_decoded_once(tmp_path, monkeypatch):
    """In a formation_hex-shaped episode (six unicycles, 1000 ticks, four
    in-neighbours each) every pose broadcast is encoded once and decoded
    once, by its first receiver, while the bus still delivers it to each
    of its four receivers (24 000 decodes before receivers shared them)."""
    from fleetsim import codec

    raw = dict(default_config("formation", 6, seed=0, dt=0.01, duration=10.0).raw)
    raw["formation"] = dict(raw["formation"], model="unicycle")
    calls = {"encode": 0, "decode": 0, "deliver": 0}

    def counted(name, fn):
        def spy(*args, **kw):
            calls[name] += 1
            return fn(*args, **kw)
        return spy

    monkeypatch.setattr(codec, "encode", counted("encode", codec.encode))
    monkeypatch.setattr(codec, "decode", counted("decode", codec.decode))
    monkeypatch.setattr(MessageBus, "deliver", counted("deliver", MessageBus.deliver))
    run_scenario(parse_config(raw), str(tmp_path))
    assert calls == {"encode": 6000, "decode": 6000, "deliver": 24000}


def _golden_config(name):
    scenario, _, variant = name.partition("_")
    if variant == "drained":
        # a full default run: the backlog drains, so zero-padded tied
        # columns pass through the simplex pool's dedupe and sort
        return default_config(scenario, 6, seed=0)
    if variant == "binding":
        # the one engine run whose bootstrap solves the stacked LP
        from test_mpc import binding_budget_config

        return binding_budget_config()
    if variant == "n12":
        # two-digit agent ids
        return default_config(scenario, 12, seed=1, duration=0.5)
    n = {"rendezvous": 4, "containment": 5, "formation": 6, "assignment": 4, "mpc": 3}
    cfg = default_config(scenario, n[scenario], seed=1, duration=0.5)
    raw = dict(cfg.raw)
    if variant == "unicycle":
        raw["formation"] = dict(raw["formation"], model="unicycle")
    if scenario == "mpc":
        raw["mpc"] = dict(raw["mpc"], steps=10)
    return parse_config(raw)


# sha256 of short runs' traces (and one full assignment run): a refactor of
# the engines must keep these bytes. They were recorded with numpy 2.4 and
# OpenBLAS on x86-64. The kinematic and assignment traces take no value from
# BLAS, so they hold under every OpenBLAS kernel (test_blas_portability.py);
# the mpc traces rest on BLAS through the LP solves, so a BLAS that rounds
# those differently needs them re-recorded.
GOLDEN_TRACES = {
    "rendezvous": "a1432cf882e48b383fa8de06c8ac24cbafa192aa400da10225b77d99f922668c",
    "rendezvous_n12": "e349dde3a1872cbea87b439a74e54b1fbc728b3a018937743cae74c205fb1930",
    "containment": "d66d53ad5d361f843825e92dcf90d82ac2c39554f5162423d15b804e10a029e1",
    "formation": "86450787f7172af420d960e29ff99d46bc6155d049cf6539df78de8299ec2dc5",
    "formation_unicycle": "2d6e2696099b184020c4a830e0a2ed5800541fd2f08ce44f0c724e5e15782c71",
    "assignment": "4867f4b3b2c87b6cd1112af5dad901e02f10817a8940f771cd923493d71a66c3",
    "assignment_drained": "31d2072baa021718b00071a6e863e4c9dc67182be7fe479f9051db5203501027",
    "mpc": "f63e43f34885a71ea36d12a403821e3a73f2a5d94717fbe7144698affbd22049",
    "mpc_binding": "ce4b5622d4f7a0b2d12864ee307c8820021af3c28004e14f0f9601504ca89332",
}


@pytest.mark.parametrize("name", sorted(GOLDEN_TRACES))
def test_trace_bytes_match_golden_digest(tmp_path, name):
    path = tmp_path / (name + ".jsonl")
    run_scenario(_golden_config(name), str(path))
    assert hashlib.sha256(path.read_bytes()).hexdigest() == GOLDEN_TRACES[name]


# ---------------------------------------------------------------- traces


def test_trace_writer_counts_and_rejects_kindless_records(tmp_path):
    path = tmp_path / "t.jsonl"
    with TraceWriter(str(path), {"scenario": "rendezvous", "n": 1}) as w:
        assert w.count == 1  # header
        w.write({"kind": "pose", "t": 0.0, "agent": 0, "pos": [0.0, 0.0]})
        assert w.count == 2
        with pytest.raises(TraceError):
            w.write({"t": 0.0})
    header, records = read_trace(str(path))
    assert header["config"]["n"] == 1
    assert len(records) == 1


_EDGE_FLOATS = [math.nan, math.inf, -math.inf, -0.0, 5e-324, 1e16, 0.1 + 0.2]


@pytest.mark.parametrize("t", [0.01, 3, math.nan, math.inf, -math.inf, np.float64(0.25)])
def test_pose_and_input_lines_match_the_generic_path(tmp_path, t):
    vectors = [[v] for v in _EDGE_FLOATS] + [
        _EDGE_FLOATS[k:k + width] for width in (2, 3, 4) for k in range(len(_EDGE_FLOATS) - width + 1)
    ]
    vectors += [np.array([0.1, -2.5, 1e-7, 7.0])[:w] for w in (1, 2, 3, 4)]
    vectors += [np.array([0.1, 1e16, -0.0], dtype=np.float32), [np.float64(0.1), np.float32(0.2)]]
    agents = [0, 7, 12, np.int64(10)]
    fast, slow = tmp_path / "fast.jsonl", tmp_path / "slow.jsonl"
    with TraceWriter(str(fast), {}) as wf, TraceWriter(str(slow), {}) as ws:
        for agent in agents:
            for vec in vectors:
                wf.pose(t, agent, vec)
                wf.input(t, agent, vec)
                floats = [float(v) for v in vec]
                ws.write({"kind": "pose", "t": float(t), "agent": agent, "pos": floats})
                ws.write({"kind": "input", "t": float(t), "agent": agent, "u": floats})
        assert wf.count == ws.count == 1 + 2 * len(agents) * len(vectors)
    assert fast.read_bytes() == slow.read_bytes()
    _, records = read_trace(str(fast))
    assert math.isnan(records[0]["pos"][0]) and records[2]["pos"] == [math.inf]


class _CountedWrites:
    """A file handle that counts its write calls."""

    def __init__(self, fh):
        self.fh, self.writes = fh, 0

    def write(self, text):
        self.writes += 1
        return self.fh.write(text)

    def __getattr__(self, name):
        return getattr(self.fh, name)


def test_a_tick_of_rows_writes_what_per_record_calls_write(tmp_path):
    """rows() writes a tick's pose or input records in one call. With a
    NaN pose and an infinite input between finite ones it gives the bytes
    and count of per-record pose/input calls and of the generic write;
    a finite tick takes one file write, and read_trace reads it back."""
    poses = [[0.5, -1.25], [math.nan, 2.0], np.array([0.1, 0.2]), (3.0, np.float32(0.5))]
    inputs = [(0.25, 0.0), np.array([1.0, math.inf]), [2.0, -0.0], [1e-7, 5.0]]
    paths = [tmp_path / name for name in ("rows.jsonl", "single.jsonl", "generic.jsonl")]
    with TraceWriter(str(paths[0]), {}) as wr, TraceWriter(str(paths[1]), {}) as ws, \
            TraceWriter(str(paths[2]), {}) as wg:
        for t in (0.01, np.float64(0.02)):
            wr.rows("pose", t, enumerate(poses))
            wr.rows("input", t, enumerate(inputs))
            for i, pos in enumerate(poses):
                ws.pose(t, i, pos)
                wg.write({"kind": "pose", "t": float(t), "agent": i,
                          "pos": [float(v) for v in pos]})
            for i, u in enumerate(inputs):
                ws.input(t, i, u)
                wg.write({"kind": "input", "t": float(t), "agent": i,
                          "u": [float(v) for v in u]})
        wr._fh = counted = _CountedWrites(wr._fh)
        wr.rows("pose", 0.03, enumerate(poses[2:]))
        assert counted.writes == 1
        assert wr.count == 1 + 4 * 4 + 2 and ws.count == wg.count == 1 + 4 * 4
    rows, single, generic = (p.read_bytes() for p in paths)
    assert rows.startswith(single) and single == generic
    _, records = read_trace(str(paths[0]))
    assert len(records) == 4 * 4 + 2
    assert records[0] == {"agent": 0, "kind": "pose", "pos": [0.5, -1.25], "t": 0.01}
    assert math.isnan(records[1]["pos"][0]) and records[5]["u"] == [1.0, math.inf]
    assert records[-1] == {"agent": 1, "kind": "pose", "pos": [3.0, 0.5], "t": 0.03}


def test_header_only_trace_summarizes_to_zero_rows(tmp_path):
    path = tmp_path / "empty.jsonl"
    TraceWriter(str(path), {"scenario": "rendezvous", "n": 2}).close()
    stats = summarize(str(path))
    assert stats["records"] == 0
    assert stats["final_spread"] is None


def test_read_trace_error_paths(tmp_path):
    with pytest.raises(TraceError, match="cannot open"):
        read_trace(str(tmp_path / "missing.jsonl"))

    empty = tmp_path / "empty.jsonl"
    empty.write_text("")
    with pytest.raises(TraceError, match="empty"):
        read_trace(str(empty))

    headerless = tmp_path / "headerless.jsonl"
    headerless.write_text('{"kind": "pose"}\n')
    with pytest.raises(TraceError, match="header"):
        read_trace(str(headerless))

    skewed = tmp_path / "skewed.jsonl"
    skewed.write_text(json.dumps({"kind": "header", "schema": 999, "config": {}}) + "\n")
    with pytest.raises(TraceError, match="schema"):
        read_trace(str(skewed))

    garbled = tmp_path / "garbled.jsonl"
    garbled.write_text(
        json.dumps({"kind": "header", "schema": SCHEMA_VERSION, "config": {}})
        + "\nnot json\n"
    )
    with pytest.raises(TraceError, match="line 2"):
        read_trace(str(garbled))


def test_export_csv_positions_and_metric_tables(tmp_path):
    _, summary, trace = _short("rendezvous", tmp_path, "rdv")
    out = tmp_path / "csv"
    written = export_csv(trace, str(out))
    names = {p.rsplit("/", 1)[-1] for p in written}
    assert names == {"positions.csv", "spread.csv"}
    with open(out / "positions.csv") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["t", "agent", "x", "y"]
    assert len(rows) > 1


def _mpc_pose_trace(path, states):
    with TraceWriter(str(path), {"scenario": "mpc", "n": len(states)}) as w:
        for agent, x in enumerate(states):
            w.pose(0.0, agent, x)


def test_export_csv_names_columns_beyond_three_states(tmp_path):
    trace = tmp_path / "four.jsonl"
    _mpc_pose_trace(trace, [[0.0, 0.1, 0.2, 0.3], [1.0, 1.1, 1.2, 1.3]])
    out = tmp_path / "csv"
    assert main(["export-csv", str(trace), "--out", str(out)]) == 0
    with open(out / "positions.csv") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["t", "agent", "x0", "x1", "x2", "x3"]
    assert rows[2] == ["0.0", "1", "1.0", "1.1", "1.2", "1.3"]


@pytest.mark.parametrize("states, names", [
    ([[0.5], [0.0, 1.0, 2.0]], ["x", "y", "z"]),
    ([[0.5, 1.5], [0.0, 1.0, 2.0, 3.0, 4.0]], ["x0", "x1", "x2", "x3", "x4"]),
])
def test_export_csv_header_fits_the_widest_pose(tmp_path, states, names):
    trace = tmp_path / "mixed.jsonl"
    _mpc_pose_trace(trace, states)
    export_csv(str(trace), str(tmp_path / "csv"))
    with open(tmp_path / "csv" / "positions.csv") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["t", "agent", *names]
    assert [len(row) for row in rows[1:]] == [2 + len(x) for x in states]


def test_export_csv_gantt_rows_match_completions(tmp_path):
    cfg = default_config("assignment", 3, seed=0, duration=30.0)
    summary = run_scenario(cfg, str(tmp_path))
    out = tmp_path / "csv"
    written = export_csv(summary["trace"], str(out))
    gantt = [p for p in written if p.endswith("gantt.csv")]
    assert gantt
    with open(gantt[0]) as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["task", "start", "end", "robot"]
    assert len(rows) - 1 == summary["completed_tasks"]
    for row in rows[1:]:
        assert float(row[1]) <= float(row[2])


def test_export_csv_mpc_residual_table(tmp_path):
    cfg = default_config("mpc", 2, seed=0)
    summary = run_scenario(cfg, str(tmp_path))
    out = tmp_path / "csv"
    written = export_csv(summary["trace"], str(out))
    residual = [p for p in written if p.endswith("coupling_residual.csv")]
    with open(residual[0]) as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["t", "residual", "stage_cost"]
    assert len(rows) - 1 == 30


# ---------------------------------------------------------------- CLI


def test_cli_run_writes_trace_and_prints_summary(tmp_path, capsys):
    out = tmp_path / "run"
    out.mkdir()
    code = main(
        ["run", "rendezvous", "-n", "3", "--seed", "4", "--duration", "0.1",
         "--out", str(out)]
    )
    assert code == 0
    printed = json.loads(capsys.readouterr().out)
    assert printed["n"] == 3
    header, _ = read_trace(str(out / "trace.jsonl"))
    assert header["config"]["seed"] == 4


def test_cli_graph_option_forms(tmp_path, capsys):
    out = tmp_path / "g"
    out.mkdir()
    assert main(
        ["run", "rendezvous", "-n", "3", "--duration", "0.05", "--graph", "cycle",
         "--out", str(out)]
    ) == 0
    header, _ = read_trace(str(out / "trace.jsonl"))
    assert header["config"]["graph"] == {"cycle": True}
    capsys.readouterr()

    adj = tmp_path / "adj.txt"
    adj.write_text("# ring of three\n0 1 1\n1 0 1\n1 1 0\n")
    assert main(
        ["run", "rendezvous", "-n", "3", "--duration", "0.05",
         "--graph", str(adj), "--out", str(out)]
    ) == 0
    header, _ = read_trace(str(out / "trace.jsonl"))
    assert header["config"]["graph"]["matrix"] == [[0, 1, 1], [1, 0, 1], [1, 1, 0]]
    capsys.readouterr()


def test_cli_config_errors_exit_2(tmp_path, capsys):
    # hexagon formation needs n=6
    assert main(["run", "formation", "-n", "5", "--out", str(tmp_path)]) == 2
    assert "config error" in capsys.readouterr().err
    # malformed er spec
    assert main(
        ["run", "rendezvous", "--graph", "er:lots", "--out", str(tmp_path)]
    ) == 2
    capsys.readouterr()
    # unreadable graph file
    assert main(
        ["run", "rendezvous", "--graph", str(tmp_path / "nope.txt"), "--out", str(tmp_path)]
    ) == 2
    capsys.readouterr()
    # graph file with a row that is not integers
    bad = tmp_path / "bad_adj.txt"
    bad.write_text("0 1\n1 x\n")
    assert main(
        ["run", "rendezvous", "-n", "2", "--graph", str(bad), "--out", str(tmp_path)]
    ) == 2
    assert "bad_adj.txt line 2" in capsys.readouterr().err
    # graph faults the config layer catches before any trace is written
    loop = tmp_path / "loop_adj.txt"
    loop.write_text("1 1\n1 0\n")
    wide = tmp_path / "wide_adj.txt"
    wide.write_text("0 1 1\n1 0 1\n")

    def mpc_fault(name, agent=None, coupling=None):
        """A two-agent mpc config file with agent 1 or the coupling changed."""
        raw = default_config("mpc", 2).raw
        raw["mpc"]["agents"][1].update(agent or {})
        raw["mpc"]["coupling"].update(coupling or {})
        path = tmp_path / (name + ".json")
        path.write_text(json.dumps(raw))
        return ["mpc", "--config", str(path)]

    for argv, where in [
        (["formation", "--graph", "complete"], "graph: edge (0, 3)"),
        (["rendezvous", "-n", "3", "--graph", "er:0.0"], "graph.er: "),
        (["rendezvous", "-n", "2", "--graph", str(loop)], "graph.matrix[0][0]: "),
        (["rendezvous", "-n", "2", "--graph", str(wide)], "graph.matrix: matrix is 2x3"),
        (["mpc", "-n", "4", "--graph", "cycle"], "graph: the mpc engine needs a complete graph"),
        # model faults the OCP specs catch
        (mpc_fault("square", {"A": [[1.0, 0.0]]}), "mpc.agents[1]: A must be square"),
        (mpc_fault("u_min", {"u_min": [-1.0, -1.0]}), "mpc.agents[1]: box bounds"),
        (mpc_fault("terminal", {"terminal_input": [0.1]}),
         "mpc.agents[1]: terminal pair is not an equilibrium"),
        (mpc_fault("coupling", coupling={"H": [[1.0, 1.0]]}), "mpc.coupling: coupling: "),
        # the terminal outputs sum to 0.5, so every shift would overspend h
        (mpc_fault("budget", coupling={"h": [0.3]}),
         "mpc.coupling: the terminal equilibria overspend the coupling by 0.2"),
    ]:
        out = tmp_path / "faults"
        out.mkdir()
        assert main(["run", *argv, "--out", str(out)]) == 2
        assert "config error: " + where in capsys.readouterr().err
        assert not any(out.iterdir())
        out.rmdir()


def test_cli_config_file_with_flag_overrides(tmp_path, capsys):
    cfg_file = tmp_path / "cfg.yaml"
    cfg_file.write_text(
        "scenario: rendezvous\nn: 4\nseed: 1\nduration: 0.1\n"
    )
    out = tmp_path / "run"
    out.mkdir()
    code = main(
        ["run", "rendezvous", "--config", str(cfg_file), "--seed", "9",
         "--out", str(out)]
    )
    assert code == 0
    capsys.readouterr()
    header, _ = read_trace(str(out / "trace.jsonl"))
    assert header["config"]["seed"] == 9
    assert header["config"]["n"] == 4

    # the config file pins the scenario; a different positional is an error
    assert main(["run", "containment", "--config", str(cfg_file)]) == 2
    assert "config error" in capsys.readouterr().err


def test_cli_flags_override_the_file_before_validation(tmp_path, capsys):
    """A config file that only the flags make valid runs."""
    hexagon = tmp_path / "hexagon.yaml"
    hexagon.write_text("scenario: formation\nn: 5\nduration: 0.05\nformation: {kind: hexagon}\n")
    ring = tmp_path / "ring_adj.txt"
    ring.write_text("".join(
        " ".join("1" if (j - i) % 6 in (1, 2, 4, 5) else "0" for j in range(6)) + "\n"
        for i in range(6)
    ))
    out = tmp_path / "run"
    out.mkdir()
    assert main(["run", "formation", "--config", str(hexagon), "-n", "6",
                 "--graph", str(ring), "--out", str(out)]) == 0
    capsys.readouterr()
    header, _ = read_trace(str(out / "trace.jsonl"))
    assert header["config"]["n"] == 6
    assert len(header["config"]["graph"]["matrix"]) == 6
    # without the graph flag the file's complete graph has edges with no distance
    assert main(["run", "formation", "--config", str(hexagon), "-n", "6",
                 "--out", str(tmp_path)]) == 2
    assert "config error: graph: edge (0, 3)" in capsys.readouterr().err


def test_cli_scenario_failures_exit_3(tmp_path, capsys):
    cfg_file = tmp_path / "tight.yaml"
    cfg_file.write_text(
        "scenario: assignment\n"
        "n: 2\n"
        "duration: 1.0\n"
        "assignment:\n"
        "  task_positions: [[0.0, 0.0], [1.0, 1.0]]\n"
        "  round_budget: 1\n"
    )
    code = main(
        ["run", "assignment", "--config", str(cfg_file), "--out", str(tmp_path)]
    )
    assert code == 3
    assert "scenario error" in capsys.readouterr().err


# the task cloud at n = 2 with a one-round budget: the first epoch fails
TIGHT_ASSIGNMENT_YAML = """
scenario: assignment
n: 2
duration: 1.0
assignment:
  task_positions: [[0.0, 0.0], [1.0, 1.0]]
  round_budget: 1
"""


def test_assignment_budget_error_carries_diagnostics(tmp_path):
    with pytest.raises(NonConvergenceError) as info:
        run_scenario(parse_config(TIGHT_ASSIGNMENT_YAML), str(tmp_path))
    diagnostics = info.value.diagnostics
    assert diagnostics["epoch"] == 0
    assert diagnostics["rounds"] == 1
    assert diagnostics["halted"] == [False, False]
    assert len(diagnostics["objectives"]) == 2
    assert all(math.isfinite(v) for v in diagnostics["objectives"])


def test_cli_prints_the_budget_errors_diagnostics(tmp_path, capsys):
    """After the message, exit 3 prints the error's diagnostics as one
    sorted JSON line, which names the epoch and the rounds it ran."""
    cfg_file = tmp_path / "tight.yaml"
    cfg_file.write_text(TIGHT_ASSIGNMENT_YAML)
    assert main(["run", "assignment", "--config", str(cfg_file), "--out", str(tmp_path)]) == 3
    message, line = capsys.readouterr().err.splitlines()
    assert message == "scenario error: no convergence in 1 rounds"
    diagnostics = json.loads(line)
    assert line == json.dumps(diagnostics, sort_keys=True)
    assert diagnostics["epoch"] == 0 and diagnostics["rounds"] == 1


def test_held_engine_error_keeps_no_network_alive(tmp_path):
    """Holding the assignment engine's budget error keeps none of its
    agents or buses reachable, while its traceback still names the raise
    site."""
    import gc
    import traceback

    from fleetsim.assignment import DistributedSimplexAgent

    def network():
        gc.collect()
        return [o for o in gc.get_objects() if isinstance(o, (DistributedSimplexAgent, MessageBus))]

    before = network()  # held, so no id of theirs is reused
    with pytest.raises(NonConvergenceError) as info:
        run_scenario(parse_config(TIGHT_ASSIGNMENT_YAML), str(tmp_path))
    assert info.value.diagnostics["epoch"] == 0
    assert [o for o in network() if not any(o is p for p in before)] == []
    text = "".join(traceback.format_exception(info.value))
    assert "in _run_assignment" in text and "raise NonConvergenceError(" in text


def test_failed_run_leaves_readable_partial_trace(tmp_path):
    """The engine raises during its first tick; the trace written so far
    reads back: the header, the t = 0 reveals and poses, no summary."""
    with pytest.raises(NonConvergenceError):
        run_scenario(parse_config(TIGHT_ASSIGNMENT_YAML), str(tmp_path))
    header, records = read_trace(str(tmp_path / "trace.jsonl"))
    assert header["config"]["scenario"] == "assignment"
    assert [(r["kind"], r["t"]) for r in records] == [("task_event", 0.0)] * 2 + [("pose", 0.0)] * 2
    assert [r["task"] for r in records[:2]] == [0, 1]
    assert all(r["event"] == "reveal" for r in records[:2])
    assert [r["agent"] for r in records[2:]] == [0, 1]


def test_cli_summarize_and_export(tmp_path, capsys):
    _, summary, trace = _short("rendezvous", tmp_path, "rdv")
    assert main(["summarize", trace]) == 0
    printed = json.loads(capsys.readouterr().out)
    assert printed["scenario"] == "rendezvous"

    out = tmp_path / "csv"
    assert main(["export-csv", trace, "--out", str(out)]) == 0
    listed = capsys.readouterr().out.strip().splitlines()
    assert any(p.endswith("spread.csv") for p in listed)

    # a broken trace is a scenario failure, not a config failure
    assert main(["summarize", str(tmp_path / "missing.jsonl")]) == 3
    capsys.readouterr()
    with open(trace, encoding="utf-8") as fh:
        header = json.loads(fh.readline())
    no_scenario = dict(header, config={k: v for k, v in header["config"].items()
                                       if k != "scenario"})
    broken = {
        "no_scenario": [no_scenario],
        "pose_without_pos": [header, {"kind": "pose", "t": 0.0, "agent": 0}],
        "array_line": [header, [1, 2]],
        "array_header": [[1, 2]],
        "unknown_scenario": [dict(header, config=dict(header["config"], scenario="rendezvuos")),
                             {"kind": "pose", "t": 0.0, "agent": 0, "pos": [0.0, 0.0]}],
    }
    for name, lines in broken.items():
        path = tmp_path / (name + ".jsonl")
        path.write_text("".join(json.dumps(line) + "\n" for line in lines))
        for argv in (["summarize", str(path)], ["export-csv", str(path), "--out", str(out)]):
            assert main(argv) == 3, (name, argv[0])
            assert "scenario error" in capsys.readouterr().err
