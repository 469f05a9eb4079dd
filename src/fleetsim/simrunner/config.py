"""Scenario configuration: parsing, validation and defaults.

Configs are YAML (JSON is a subset) with a versioned schema. Every
validation failure raises :class:`~fleetsim.errors.ConfigError` carrying
the dotted path of the offending field, e.g.
``containment.leaders[2]: agent index 9 outside 0..5``.

Schema sketch (see the README for the full field list)::

    version: 1
    scenario: containment          # formation | rendezvous | assignment | mpc
    n: 6
    seed: 0
    dt: 0.01                       # defaults to 0.01
    duration: 30.0
    graph:                         # exactly one of the keys below
      edges: [[0, 1], [1, 2]]      # undirected unless directed: true
      matrix: [[0, 1], [1, 0]]     # binary adjacency, accepted verbatim
      er: {p: 0.3, seed: 0}        # connected Erdos-Renyi sample
      complete: true
      cycle: true
    containment: {leaders: [...], gain: 1.0, activation: 0.5, ...}
"""

from __future__ import annotations

import copy
import math
from dataclasses import dataclass, field

import numpy as np
import yaml

from ..errors import ConfigError, FormationError, GraphError
from ..guidance import FormationSpec, hexagon_formation
from ..netgraph import CommGraph, erdos_renyi, graph_from_edges, graph_from_matrix

__all__ = ["ScenarioConfig", "load_document", "parse_config", "default_config",
           "formation_spec", "SCENARIOS", "CONFIG_VERSION"]

SCENARIOS = ("containment", "formation", "rendezvous", "assignment", "mpc")
CONFIG_VERSION = 1


def _fail(path: str, msg: str):
    raise ConfigError("%s: %s" % (path, msg))


def _need(d: dict, key: str, path: str):
    if key not in d:
        _fail("%s.%s" % (path, key) if path else key, "missing required field")
    return d[key]


def _as_int(value, path: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        _fail(path, "expected an integer, got %r" % (value,))
    return value


def _as_num(value, path: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        _fail(path, "expected a number, got %r" % (value,))
    if not math.isfinite(float(value)):
        _fail(path, "must be finite")
    return float(value)


def _as_positive(value, path: str) -> float:
    v = _as_num(value, path)
    if v <= 0:
        _fail(path, "must be positive")
    return v


def _as_point(value, path: str) -> list[float]:
    if not isinstance(value, (list, tuple)) or len(value) != 2:
        _fail(path, "expected a 2-element point, got %r" % (value,))
    return [_as_num(v, "%s[%d]" % (path, k)) for k, v in enumerate(value)]


def _as_points(value, path: str) -> list[list[float]]:
    if not isinstance(value, list):
        _fail(path, "expected a list of points")
    return [_as_point(p, "%s[%d]" % (path, k)) for k, p in enumerate(value)]


def _as_vec(value, path: str) -> list[float]:
    if not isinstance(value, (list, tuple)) or not value:
        _fail(path, "expected a non-empty list of numbers")
    return [_as_num(v, "%s[%d]" % (path, k)) for k, v in enumerate(value)]


def _as_matrix(value, path: str) -> list[list[float]]:
    if not isinstance(value, list) or not value or not all(isinstance(r, list) for r in value):
        _fail(path, "expected a matrix (list of rows)")
    width = len(value[0])
    rows = []
    for k, row in enumerate(value):
        if len(row) != width:
            _fail("%s[%d]" % (path, k), "ragged matrix row")
        rows.append([_as_num(v, "%s[%d][%d]" % (path, k, c)) for c, v in enumerate(row)])
    return rows


@dataclass
class ScenarioConfig:
    """A fully validated scenario description, built by :func:`parse_config`.

    ``graph`` is the realized communication graph; ``raw`` is the
    normalized plain-data config (defaults filled) that trace headers
    embed and that re-parses to itself; ``params`` is its scenario block.
    """

    scenario: str
    n: int
    seed: int
    dt: float
    duration: float
    graph: CommGraph
    raw: dict = field(repr=False)
    version: int = CONFIG_VERSION

    @property
    def params(self) -> dict:
        return self.raw[self.scenario]


def _parse_graph(block, n: int, default_seed: int) -> tuple[CommGraph, dict]:
    path = "graph"
    if block is None:
        block = {"complete": True}
    if not isinstance(block, dict):
        _fail(path, "expected a mapping")
    keys = [k for k in ("edges", "matrix", "er", "complete", "cycle") if k in block]
    if len(keys) != 1:
        _fail(path, "exactly one of edges/matrix/er/complete/cycle required, got %s" % (keys,))
    kind = keys[0]
    if kind == "complete":
        adj = 1 - np.eye(n, dtype=np.int8)
        return CommGraph(n, adj), {"complete": True}
    if kind == "cycle":
        edges = [[i, (i + 1) % n] for i in range(n)] if n > 1 else []
        return graph_from_edges(n, edges), {"cycle": True}
    if kind == "edges":
        edges = block["edges"]
        if not isinstance(edges, list):
            _fail(path + ".edges", "expected a list of pairs")
        directed = bool(block.get("directed", False))
        pairs = []
        for k, e in enumerate(edges):
            if not isinstance(e, (list, tuple)) or len(e) != 2:
                _fail("%s.edges[%d]" % (path, k), "expected [i, j]")
            i, j = _as_int(e[0], "%s.edges[%d][0]" % (path, k)), _as_int(e[1], "%s.edges[%d][1]" % (path, k))
            if not (0 <= i < n and 0 <= j < n):
                _fail("%s.edges[%d]" % (path, k), "agent index outside 0..%d" % (n - 1))
            if i == j:
                _fail("%s.edges[%d]" % (path, k), "self-loop not allowed")
            pairs.append([i, j])
        return graph_from_edges(n, pairs, undirected=not directed), {
            "edges": pairs,
            "directed": directed,
        }
    if kind == "matrix":
        mat = _as_matrix(block["matrix"], path + ".matrix")
        if len(mat) != n or len(mat[0]) != n:
            _fail(path + ".matrix", "matrix is %dx%d but n=%d" % (len(mat), len(mat[0]), n))
        for r, row in enumerate(mat):
            for c, v in enumerate(row):
                if v not in (0, 1, 0.0, 1.0):
                    _fail("%s.matrix[%d][%d]" % (path, r, c), "entries must be 0 or 1")
                if r == c and v:
                    _fail("%s.matrix[%d][%d]" % (path, r, c), "self-loops are not allowed")
        return graph_from_matrix(mat), {"matrix": [[int(v) for v in row] for row in mat]}
    er = block["er"]
    if not isinstance(er, dict):
        _fail(path + ".er", "expected {p, seed}")
    p = _as_num(_need(er, "p", path + ".er"), path + ".er.p")
    if not 0.0 <= p <= 1.0:
        _fail(path + ".er.p", "probability outside [0, 1]")
    gseed = _as_int(er.get("seed", default_seed), path + ".er.seed")
    try:
        graph = erdos_renyi(n, p, gseed, require_connected=True)
    except GraphError as exc:
        _fail(path + ".er", str(exc))
    return graph, {"er": {"p": p, "seed": gseed}}


def _parse_containment(block, n: int, graph: CommGraph) -> dict:
    path = "containment"
    if not isinstance(block, dict):
        _fail(path, "missing scenario block")
    leaders = _need(block, "leaders", path)
    if not isinstance(leaders, list) or not leaders:
        _fail(path + ".leaders", "expected a non-empty list of agent ids")
    seen = set()
    for k, v in enumerate(leaders):
        idx = _as_int(v, "%s.leaders[%d]" % (path, k))
        if not 0 <= idx < n:
            _fail("%s.leaders[%d]" % (path, k), "agent index %d outside 0..%d" % (idx, n - 1))
        if idx in seen:
            _fail("%s.leaders[%d]" % (path, k), "duplicate leader %d" % idx)
        seen.add(idx)
    if len(leaders) >= n:
        _fail(path + ".leaders", "need at least one follower")
    gain = _as_positive(block.get("gain", 1.0), path + ".gain")
    activation = _as_num(block.get("activation", 1.0), path + ".activation")
    if not 0.0 < activation <= 1.0:
        _fail(path + ".activation", "must be in (0, 1]")
    out = {
        "leaders": sorted(seen),
        "gain": gain,
        "activation": activation,
        "init_box": _parse_box(block.get("init_box", [[-1.0, -1.0], [3.0, 3.0]]), path + ".init_box"),
    }
    if "leader_positions" in block:
        pts = _as_points(block["leader_positions"], path + ".leader_positions")
        if len(pts) != len(seen):
            _fail(path + ".leader_positions", "%d positions for %d leaders" % (len(pts), len(seen)))
        out["leader_positions"] = pts
    if "follower_positions" in block:
        pts = _as_points(block["follower_positions"], path + ".follower_positions")
        if len(pts) != n - len(seen):
            _fail(
                path + ".follower_positions",
                "%d positions for %d followers" % (len(pts), n - len(seen)),
            )
        out["follower_positions"] = pts
    return out


def _parse_box(value, path: str) -> list[list[float]]:
    pts = _as_points(value, path)
    if len(pts) != 2:
        _fail(path, "expected [[xmin, ymin], [xmax, ymax]]")
    (x0, y0), (x1, y1) = pts
    if x1 <= x0 or y1 <= y0:
        _fail(path, "box must have positive extent")
    return pts


def formation_spec(block: dict) -> FormationSpec:
    """The target distances a normalized formation block declares."""
    if block["kind"] == "hexagon":
        return hexagon_formation(block["side"])
    return FormationSpec.from_pairs(block["distances"])


def _parse_formation(block, n: int, graph: CommGraph) -> dict:
    path = "formation"
    if not isinstance(block, dict):
        _fail(path, "missing scenario block")
    kind = block.get("kind", "hexagon")
    if kind == "hexagon":
        if n != 6:
            _fail(path + ".kind", "hexagon formation needs n=6, got n=%d" % n)
        out = {"kind": kind, "side": _as_positive(block.get("side", 1.0), path + ".side")}
    elif kind == "explicit":
        rows = _need(block, "distances", path)
        if not isinstance(rows, list) or not rows:
            _fail(path + ".distances", "expected a list of [i, j, d] rows")
        distances = []
        for k, row in enumerate(rows):
            rp = "%s.distances[%d]" % (path, k)
            if not isinstance(row, (list, tuple)) or len(row) != 3:
                _fail(rp, "expected [i, j, d]")
            i = _as_int(row[0], rp + "[0]")
            j = _as_int(row[1], rp + "[1]")
            d = _as_positive(row[2], rp + "[2]")
            if not (0 <= i < n and 0 <= j < n):
                _fail(rp, "agent index outside 0..%d" % (n - 1))
            distances.append([i, j, d])
        out = {"kind": kind, "distances": distances}
    else:
        _fail(path + ".kind", "unknown formation kind %r" % (kind,))
    try:
        spec = formation_spec(out)
    except FormationError as exc:
        _fail(path + ".distances", str(exc))
    for i, j in spec.edges():
        if not graph.adjacency[i, j] or not graph.adjacency[j, i]:
            _fail(
                path + ".distances",
                "pair (%d, %d) has a declared distance but no graph edge" % (i, j),
            )
    model = block.get("model", "single_integrator")
    if model not in ("single_integrator", "unicycle"):
        _fail(path + ".model", "expected single_integrator or unicycle, got %r" % (model,))
    positions = block.get("positions")
    if positions is not None:
        positions = _as_points(positions, path + ".positions")
        if len(positions) != n:
            _fail(path + ".positions", "need exactly n=%d rows, got %d" % (n, len(positions)))
    out.update(
        model=model,
        init_box=_parse_box(block.get("init_box", [[0.0, 0.0], [2.0, 2.0]]), path + ".init_box"),
        lookahead=_as_positive(block.get("lookahead", 0.01), path + ".lookahead"),
        v_max=_as_positive(block.get("v_max", 2.0), path + ".v_max"),
        omega_max=_as_positive(block.get("omega_max", 12.0), path + ".omega_max"),
    )
    if positions is not None:
        out["positions"] = positions
    # the formation law raises on a neighbour without a declared distance
    for i, j in zip(*np.nonzero(graph.adjacency)):
        if not spec.has(i, j):
            _fail("graph", "edge (%d, %d) has no declared formation distance" % (i, j))
    return out


def _parse_rendezvous(block, n: int, graph: CommGraph) -> dict:
    path = "rendezvous"
    block = block or {}
    if not isinstance(block, dict):
        _fail(path, "expected a mapping")
    return {
        "gain": _as_positive(block.get("gain", 1.0), path + ".gain"),
        "init_box": _parse_box(block.get("init_box", [[0.0, 0.0], [2.0, 2.0]]), path + ".init_box"),
    }


def _parse_assignment(block, n: int, graph: CommGraph) -> dict:
    path = "assignment"
    if not isinstance(block, dict):
        _fail(path, "missing scenario block")
    tasks = _as_points(_need(block, "task_positions", path), path + ".task_positions")
    if len(tasks) != n:
        _fail(path + ".task_positions", "need exactly n=%d initial tasks, got %d" % (n, len(tasks)))
    hidden = _as_points(block.get("hidden_tasks", []), path + ".hidden_tasks")
    profile = block.get("profile", "static")
    if profile not in ("static", "time_varying", "best_effort"):
        _fail(path + ".profile", "unknown communicator profile %r" % (profile,))
    drop = _as_num(block.get("drop_prob", 0.0), path + ".drop_prob")
    if not 0.0 <= drop < 1.0:
        _fail(path + ".drop_prob", "must be in [0, 1)")
    if drop > 0 and profile != "best_effort":
        _fail(path + ".drop_prob", "lossy links require the best_effort profile")
    out = {
        "task_positions": tasks,
        "hidden_tasks": hidden,
        "profile": profile,
        "drop_prob": drop,
        "speed": _as_positive(block.get("speed", 1.0), path + ".speed"),
        "arrive_radius": _as_positive(block.get("arrive_radius", 1e-3), path + ".arrive_radius"),
        "init_box": _parse_box(block.get("init_box", [[0.0, 0.0], [2.0, 2.0]]), path + ".init_box"),
        "round_budget": _as_int(block.get("round_budget", 50 * n), path + ".round_budget"),
    }
    if "robot_positions" in block:
        pts = _as_points(block["robot_positions"], path + ".robot_positions")
        if len(pts) != n:
            _fail(path + ".robot_positions", "need n=%d positions, got %d" % (n, len(pts)))
        out["robot_positions"] = pts
    return out


def _parse_mpc(block, n: int, graph: CommGraph) -> dict:
    path = "mpc"
    if not isinstance(block, dict):
        _fail(path, "missing scenario block")
    horizon = _as_int(block.get("horizon", 8), path + ".horizon")
    if horizon < 1:
        _fail(path + ".horizon", "must be >= 1")
    steps = _as_int(block.get("steps", 30), path + ".steps")
    if steps < 1:
        _fail(path + ".steps", "must be >= 1")
    agents = _need(block, "agents", path)
    if not isinstance(agents, list) or len(agents) != n:
        _fail(path + ".agents", "need one agent block per robot (n=%d)" % n)
    parsed_agents = []
    for k, a in enumerate(agents):
        ap = "%s.agents[%d]" % (path, k)
        if not isinstance(a, dict):
            _fail(ap, "expected a mapping")
        entry = {
            "A": _as_matrix(_need(a, "A", ap), ap + ".A"),
            "B": _as_matrix(_need(a, "B", ap), ap + ".B"),
            "C": _as_matrix(_need(a, "C", ap), ap + ".C"),
            "D": _as_matrix(_need(a, "D", ap), ap + ".D"),
            "x0": _as_vec(_need(a, "x0", ap), ap + ".x0"),
            "terminal_state": _as_vec(_need(a, "terminal_state", ap), ap + ".terminal_state"),
            "terminal_input": _as_vec(_need(a, "terminal_input", ap), ap + ".terminal_input"),
            "w_x": _as_vec(_need(a, "w_x", ap), ap + ".w_x"),
            "w_u": _as_vec(_need(a, "w_u", ap), ap + ".w_u"),
        }
        for bound in ("x_min", "x_max", "u_min", "u_max"):
            if bound in a:
                entry[bound] = _as_vec(a[bound], "%s.%s" % (ap, bound))
        parsed_agents.append(entry)
    out = {"horizon": horizon, "steps": steps, "agents": parsed_agents}
    if "coupling" in block:
        cp = block["coupling"]
        if not isinstance(cp, dict):
            _fail(path + ".coupling", "expected {H, h}")
        out["coupling"] = {
            "H": _as_matrix(_need(cp, "H", path + ".coupling"), path + ".coupling.H"),
            "h": _as_vec(_need(cp, "h", path + ".coupling"), path + ".coupling.h"),
        }
    return out


_SCENARIO_PARSERS = {
    "containment": _parse_containment,
    "formation": _parse_formation,
    "rendezvous": _parse_rendezvous,
    "assignment": _parse_assignment,
    "mpc": _parse_mpc,
}


def load_document(text_or_data) -> dict:
    """The top-level mapping of a YAML/JSON config document (text, or a
    copy of an already-loaded mapping), not yet validated."""
    if isinstance(text_or_data, (str, bytes)):
        try:
            data = yaml.safe_load(text_or_data)
        except yaml.YAMLError as exc:
            raise ConfigError("document: not valid YAML/JSON (%s)" % exc) from exc
    else:
        data = copy.deepcopy(text_or_data)
    if not isinstance(data, dict):
        raise ConfigError("document: expected a mapping at the top level")
    return data


def parse_config(text_or_data) -> ScenarioConfig:
    """Parse and validate a YAML/JSON config document.

    Accepts either the document text or an already-loaded mapping.
    """
    data = load_document(text_or_data)

    version = _as_int(data.get("version", CONFIG_VERSION), "version")
    if version != CONFIG_VERSION:
        _fail("version", "unsupported config version %d (this build reads %d)" % (version, CONFIG_VERSION))
    scenario = _need(data, "scenario", "")
    if scenario not in SCENARIOS:
        _fail("scenario", "unknown scenario %r, expected one of %s" % (scenario, SCENARIOS))
    n = _as_int(_need(data, "n", ""), "n")
    if n < 1:
        _fail("n", "need at least one agent")
    seed = _as_int(data.get("seed", 0), "seed")
    dt = _as_positive(data.get("dt", 0.01), "dt")
    duration = _as_positive(data.get("duration", 10.0), "duration")

    graph, graph_raw = _parse_graph(data.get("graph"), n, seed)
    raw = {
        "version": version,
        "scenario": scenario,
        "n": n,
        "seed": seed,
        "dt": dt,
        "duration": duration,
        "graph": graph_raw,
        scenario: _SCENARIO_PARSERS[scenario](data.get(scenario), n, graph),
    }
    return ScenarioConfig(scenario, n, seed, dt, duration, graph, raw, version)


def default_config(scenario: str, n: int, seed: int = 0, dt: float | None = None,
                   duration: float | None = None, graph: dict | None = None) -> ScenarioConfig:
    """A runnable config for each scenario with everything defaulted.

    Used by the CLI when no config file is given. The defaults mirror the
    shipped example scenarios: containment picks the first half of the
    agents as leaders on a seeded layout, formation is the unit hexagon
    (n must be 6), assignment scatters n tasks plus n hidden tasks, and
    mpc builds n scalar agents sharing a sum bound.
    """
    if scenario not in SCENARIOS:
        raise ConfigError("scenario: unknown scenario %r" % (scenario,))
    data: dict = {"scenario": scenario, "n": n, "seed": seed}
    if dt is not None:
        data["dt"] = dt
    if duration is not None:
        data["duration"] = duration
    if graph is not None:
        data["graph"] = graph

    rng = np.random.default_rng([seed, 2024])
    if scenario == "containment":
        n_lead = max(1, n // 2) if n > 1 else 1
        if n_lead >= n:
            raise ConfigError("n: containment needs at least one follower")
        data.setdefault("duration", 30.0)
        data["containment"] = {
            "leaders": list(range(n_lead)),
            "activation": 0.5,
            "gain": 1.0,
            "leader_positions": [
                [float(2.0 * math.cos(2 * math.pi * k / n_lead)),
                 float(2.0 * math.sin(2 * math.pi * k / n_lead))]
                for k in range(n_lead)
            ],
        }
    elif scenario == "formation":
        data.setdefault("duration", 30.0)
        data["formation"] = {"kind": "hexagon", "side": 1.0}
        if graph is None and n >= 3:
            data["graph"] = {
                "edges": [[i, (i + 1) % n] for i in range(n)]
                + [[i, (i + 2) % n] for i in range(n)]
            }
    elif scenario == "rendezvous":
        data.setdefault("duration", 10.0)
        data["rendezvous"] = {}
    elif scenario == "assignment":
        data.setdefault("duration", 60.0)
        pts = rng.uniform(0.0, 2.0, size=(2 * n, 2))
        data["assignment"] = {
            "task_positions": [[float(x), float(y)] for x, y in pts[:n]],
            "hidden_tasks": [[float(x), float(y)] for x, y in pts[n:]],
        }
    else:
        data.setdefault("duration", 1.0)
        data["mpc"] = {
            "horizon": 8,
            "steps": 30,
            "coupling": {"H": [[1.0]], "h": [float(n) / 2.0]},
            "agents": [
                {
                    "A": [[1.0]], "B": [[1.0]], "C": [[1.0]], "D": [[0.0]],
                    "x0": [float(rng.uniform(-0.5, 0.5))],
                    "terminal_state": [0.25],
                    "terminal_input": [0.0],
                    "w_x": [1.0], "w_u": [0.1],
                    "u_min": [-1.0], "u_max": [1.0],
                }
                for _ in range(n)
            ],
        }
    return parse_config(data)
