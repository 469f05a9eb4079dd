"""Trace recording and post-processing.

Traces are line-delimited JSON. The first line is a header carrying the
schema version and the full normalized config; every following line is
one record with a ``kind`` field, written with sorted keys and no spaces
(values shortened here):

    {"agent":2,"kind":"pose","pos":[0.5,-1.25],"t":0.01}
    {"agent":2,"kind":"input","t":0.01,"u":[0.25,0.0]}
    {"agent":1,"event":"assign","kind":"task_event","t":1.2,"task":3}
    {"epoch":0,"kind":"assignment","objective":1.3,"perm":[1,2,0],"reference":1.3,"rounds":6,"t":1.2}
    {"costs":[0.3,0.02],"kind":"mpc_residual","replanned":true,"residual":0.0,"stage_cost":0.32,"t":3.0,"turn":0}
    {"kind":"summary",...}

Non-finite floats are written as ``NaN``/``Infinity``/``-Infinity``, which
:func:`read_trace` reads back. No record carries a wall-clock timestamp,
so a run is byte-reproducible from (config, seed). Readers reject traces
whose schema version does not match.
"""

from __future__ import annotations

import contextlib
import csv
import json
import math
import os

import numpy as np

from ..errors import TraceError
from .config import formation_spec
from .metrics import convex_hull, formation_error, max_pairwise_distance, point_hull_distance

__all__ = [
    "SCHEMA_VERSION",
    "TraceWriter",
    "read_trace",
    "summarize",
    "export_csv",
]

SCHEMA_VERSION = 1

# a pose or input line as json.dumps writes it (sorted keys, no spaces),
# split around its time into (head, tail, vector field): head + repr(t) +
# tail takes the agent and the joined vector
_ROW_FORMATS = {
    "pose": ('{"agent":%d,"kind":"pose","pos":[%s],"t":', "}\n", "pos"),
    "input": ('{"agent":%d,"kind":"input","t":', ',"u":[%s]}\n', "u"),
}


def _numpy_default(value):
    """``json.dumps`` hook for the numpy values engines put in records."""
    if isinstance(value, np.ndarray):
        return value.tolist()
    if isinstance(value, np.integer):
        return int(value)
    if isinstance(value, np.floating):
        return float(value)
    raise TypeError("%s is not JSON serializable" % type(value).__name__)


class TraceWriter:
    """Appends schema-versioned JSONL records to a file.

    :meth:`rows` writes all of a tick's pose or input records, and
    :meth:`pose` and :meth:`input` write one. They format the line
    :meth:`write` gives, with ``%r`` for floats and ``t`` formatted once
    per call. When the sum of a record's floats is not finite (``%r``
    writes ``nan`` where json writes ``NaN``), that record goes to
    :meth:`write` instead.

    Records are flushed on close; ``run_scenario`` closes the writer
    when an engine fails too, so a failed run leaves a readable partial
    trace.
    """

    def __init__(self, path: str, config: dict):
        self.path = path
        parent = os.path.dirname(os.path.abspath(path))
        os.makedirs(parent, exist_ok=True)
        self._fh = open(path, "w", encoding="utf-8")
        self._count = 0
        self.write({"kind": "header", "schema": SCHEMA_VERSION, "config": config})

    def write(self, record: dict) -> None:
        if "kind" not in record:
            raise TraceError("record without a kind: %r" % (record,))
        line = json.dumps(record, sort_keys=True, separators=(",", ":"), default=_numpy_default)
        self._fh.write(line + "\n")
        self._count += 1

    def rows(self, kind: str, t: float, items) -> None:
        """Write one ``kind`` record, ``"pose"`` or ``"input"``, at time
        ``t`` for each (agent, vector) pair of ``items``, in order. The
        formatted lines go out in one file write, split only around a
        record that goes to :meth:`write`."""
        head, tail, field = _ROW_FORMATS[kind]
        t = float(t)
        line = head + repr(t) + tail
        lines = []
        for agent, vec in items:
            vec = np.asarray(vec, dtype=float).tolist()
            if math.isfinite(sum(vec, t)):
                lines.append(line % (agent, ",".join(map(repr, vec))))
                continue
            self._put(lines)
            lines = []
            self.write({"kind": kind, "t": t, "agent": agent, field: vec})
        self._put(lines)

    def _put(self, lines: list[str]) -> None:
        if lines:
            self._fh.write("".join(lines))
            self._count += len(lines)

    def pose(self, t: float, agent: int, pos) -> None:
        """Write ``{"kind": "pose", "t": t, "agent": agent, "pos": pos}``."""
        self.rows("pose", t, ((agent, pos),))

    def input(self, t: float, agent: int, u) -> None:
        """Write ``{"kind": "input", "t": t, "agent": agent, "u": u}``."""
        self.rows("input", t, ((agent, u),))

    @property
    def count(self) -> int:
        return self._count

    def close(self) -> None:
        if not self._fh.closed:
            self._fh.flush()
            self._fh.close()

    def __enter__(self) -> "TraceWriter":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()


def read_trace(path: str) -> tuple[dict, list[dict]]:
    """Load (header, records); raises TraceError on version or format skew."""
    try:
        fh = open(path, "r", encoding="utf-8")
    except OSError as exc:
        raise TraceError("cannot open trace %s: %s" % (path, exc)) from exc
    with fh:
        lines = fh.read().splitlines()
    if not lines:
        raise TraceError("trace %s is empty (no header)" % path)
    try:
        header = json.loads(lines[0])
    except json.JSONDecodeError as exc:
        raise TraceError("trace header is not valid JSON: %s" % exc) from exc
    if not isinstance(header, dict) or header.get("kind") != "header":
        raise TraceError("first trace line must be the header record")
    if header.get("schema") != SCHEMA_VERSION:
        raise TraceError(
            "trace schema %r does not match reader schema %d"
            % (header.get("schema"), SCHEMA_VERSION)
        )
    if not isinstance(header.get("config"), dict):
        raise TraceError("trace header config is not a JSON object")
    records = []
    for lineno, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        try:
            record = json.loads(line)
        except json.JSONDecodeError as exc:
            raise TraceError("line %d is not valid JSON: %s" % (lineno, exc)) from exc
        if not isinstance(record, dict):
            raise TraceError("line %d is not a JSON object" % lineno)
        records.append(record)
    return header, records


def _pose_series(records) -> dict[float, dict[int, list[float]]]:
    """t -> {agent: pos}, insertion-ordered by time."""
    series: dict[float, dict[int, list[float]]] = {}
    for rec in records:
        if rec.get("kind") == "pose":
            series.setdefault(rec["t"], {})[rec["agent"]] = rec["pos"]
    return series


def _containment_series(config: dict, records) -> list[tuple[float, float]]:
    leaders = set(config["containment"]["leaders"])
    out = []
    for t, poses in _pose_series(records).items():
        lead = [p for a, p in poses.items() if a in leaders]
        foll = [p for a, p in poses.items() if a not in leaders]
        if not lead or not foll:
            continue
        hull = convex_hull(lead)
        out.append((t, max(point_hull_distance(p, hull) for p in foll)))
    return out


def _formation_series(config: dict, records) -> list[tuple[float, float]]:
    spec = formation_spec(config["formation"])
    out = []
    for t, poses in _pose_series(records).items():
        if len(poses) == config["n"]:
            out.append((t, formation_error(poses, spec)))
    return out


def _spread_series(records) -> list[tuple[float, float]]:
    out = []
    for t, poses in _pose_series(records).items():
        if len(poses) >= 2:
            out.append((t, max_pairwise_distance(list(poses.values()))))
    return out


def _gantt_rows(records) -> list[tuple[int, float, float, int]]:
    """(task, start, end, robot) per completed task.

    Start is the moment the completing robot was (last) assigned the
    task; end is the completion time.
    """
    assigns: dict[tuple[int, int], float] = {}
    rows = []
    for rec in records:
        if rec.get("kind") != "task_event":
            continue
        if rec["event"] == "assign":
            assigns[(rec["task"], rec["agent"])] = rec["t"]
        elif rec["event"] == "complete":
            start = assigns.get((rec["task"], rec["agent"]), rec["t"])
            rows.append((rec["task"], start, rec["t"], rec["agent"]))
    rows.sort(key=lambda r: (r[1], r[0]))
    return rows


def _metric_table(config: dict, records) -> tuple[str, list[str], list[tuple]]:
    """The scenario's metric table as (csv name, headers, rows): the table
    :func:`export_csv` writes and :func:`summarize` derives its figures
    from."""
    scenario = config["scenario"]
    if scenario == "containment":
        return ("hull_distance.csv", ["t", "max_hull_distance"],
                _containment_series(config, records))
    if scenario == "formation":
        return "formation_error.csv", ["t", "error"], _formation_series(config, records)
    if scenario == "rendezvous":
        return "spread.csv", ["t", "max_distance"], _spread_series(records)
    if scenario == "assignment":
        return "gantt.csv", ["task", "start", "end", "robot"], _gantt_rows(records)
    if scenario == "mpc":
        rows = [(r["t"], r["residual"], r.get("stage_cost", ""))
                for r in records if r.get("kind") == "mpc_residual"]
        return "coupling_residual.csv", ["t", "residual", "stage_cost"], rows
    raise TraceError("trace header names unknown scenario %r" % (scenario,))


@contextlib.contextmanager
def _record_fields(path: str):
    """Turn a record that lacks a field a reader needs, or holds one of the
    wrong type, into a TraceError."""
    try:
        yield
    except (KeyError, IndexError, TypeError, ValueError) as exc:
        raise TraceError("trace %s has a malformed record: %s: %s"
                         % (path, type(exc).__name__, exc)) from exc


def summarize(path: str) -> dict:
    """Scenario-appropriate summary metrics computed from a trace file."""
    header, records = read_trace(path)
    with _record_fields(path):
        config = header["config"]
        scenario = config["scenario"]
        _, _, rows = _metric_table(config, records)
        summary: dict = {"scenario": scenario, "records": len(records)}
        last = rows[-1][1] if rows else None
        if scenario == "containment":
            summary["final_hull_distance"] = last
            tail = [d for t, d in rows if t >= rows[-1][0] - 1.0]
            summary["max_hull_distance_final_second"] = max(tail) if tail else None
        elif scenario == "formation":
            summary["final_formation_error"] = last
        elif scenario == "rendezvous":
            summary["final_spread"] = last
        elif scenario == "assignment":
            solves = [r for r in records if r.get("kind") == "assignment"]
            events = [r["event"] for r in records if r.get("kind") == "task_event"]
            summary["total_cost"] = sum(r["objective"] for r in solves) if solves else 0.0
            summary["optimality_gap"] = (
                sum(r["objective"] - r["reference"] for r in solves) if solves else 0.0
            )
            summary["solves"] = len(solves)
            summary["completed_tasks"] = events.count("complete")
            summary["reveals"] = events.count("reveal")
            summary["gantt_rows"] = len(rows)
        else:
            summary["max_coupling_residual"] = max(r[1] for r in rows) if rows else None
            summary["closed_loop_cost"] = sum(r[2] for r in rows if r[2] != "") if rows else None
            summary["steps"] = len(rows)
    return summary


def _write_csv(path: str, headers: list[str], rows) -> str:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        w = csv.writer(fh)
        w.writerow(headers)
        for row in rows:
            w.writerow(row)
    return path


def export_csv(path: str, out_dir: str) -> list[str]:
    """Write plot-ready CSV tables for a trace; returns written paths.

    Every scenario gets ``positions.csv`` when pose records exist, with
    columns ``t,agent,x,y[,z]``, or ``x0...x{k-1}`` past three states,
    sized by the widest pose; each scenario adds its metric table:
    a time series, or for assignment runs ``gantt.csv`` with one row per
    completed task.
    """
    header, records = read_trace(path)
    with _record_fields(path):
        poses = [(r["t"], r["agent"], *r["pos"]) for r in records if r.get("kind") == "pose"]
        name, headers, rows = _metric_table(header["config"], records)
    os.makedirs(out_dir, exist_ok=True)
    written = []
    if poses:
        cols = max(len(p) for p in poses) - 2
        names = "xyz" if cols <= 3 else ["x%d" % k for k in range(cols)]
        pose_headers = ["t", "agent", *names[:cols]]
        written.append(_write_csv(os.path.join(out_dir, "positions.csv"), pose_headers, poses))
    written.append(_write_csv(os.path.join(out_dir, name), headers, rows))
    return written
