"""Spans around the program's public functions, for the traced run.

The wrappers are installed from the benchmark's own files by replacing a
module or class attribute. A name that a module imported with
``from ... import`` is replaced where it is looked up, for example
``fleetsim.simrunner.scenarios.formation_velocity``. Spans (name, start,
end, parent) are kept in memory for the op being run; when it ends they
fold into per-name totals. The spans of the first traced op are kept
and written out when the traced run ends.
"""

from __future__ import annotations

import functools
import json
import os
import time

from fleetsim import assignment, codec, communicator, mpc, simrunner, transport
from fleetsim.simrunner import config as sim_config
from fleetsim.simrunner import scenarios, trace


class Aggregate:
    """Per-name call counts, total and self seconds, plus named counts."""

    def __init__(self):
        self.calls: dict[str, int] = {}
        self.total: dict[str, float] = {}
        self.self_s: dict[str, float] = {}
        self.counts: dict[str, float] = {}

    def add(self, other: "Aggregate") -> None:
        for mine, theirs in ((self.calls, other.calls), (self.total, other.total),
                             (self.self_s, other.self_s), (self.counts, other.counts)):
            for key, value in theirs.items():
                mine[key] = mine.get(key, 0) + value

    def per_call(self, name: str, self_time: bool = False) -> float:
        calls = self.calls.get(name, 0)
        if not calls:
            return 0.0
        return (self.self_s if self_time else self.total)[name] / calls


class Tracer:
    """Records nested spans; ``fold`` turns the current op's spans into an
    Aggregate. A span whose parent is ``p`` is also counted under the name
    ``name<p``, which splits a callee by caller."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index]
        self.stack: list[int] = []
        self.counts: dict[str, float] = {}

    def parent_name(self) -> str:
        return self.spans[self.stack[-1]][0] if self.stack else ""

    def count(self, key: str, value: float = 1) -> None:
        self.counts[key] = self.counts.get(key, 0) + value

    def call(self, name: str, fn, args, kwargs, observe=None):
        index = len(self.spans)
        span = [name, 0.0, 0.0, self.stack[-1] if self.stack else -1]
        self.spans.append(span)
        self.stack.append(index)
        span[1] = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            span[2] = time.perf_counter()
            self.stack.pop()
        if observe is not None:
            observe(self, result)
        return result

    def fold(self) -> Aggregate:
        agg = Aggregate()
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        for (name, start, end, parent), inner in zip(self.spans, child):
            dur = end - start
            keys = (name, "%s<%s" % (name, self.spans[parent][0])) if parent >= 0 else (name,)
            for key in keys:
                agg.calls[key] = agg.calls.get(key, 0) + 1
                agg.total[key] = agg.total.get(key, 0.0) + dur
                agg.self_s[key] = agg.self_s.get(key, 0.0) + dur - inner
        agg.counts = dict(self.counts)
        return agg

    def reset(self) -> None:
        self.spans = []
        self.stack = []
        self.counts = {}


def dump(spans: list, path: str) -> None:
    """Write spans as JSON lines: name, start, end, parent index (-1 at the root)."""
    with open(path, "w", encoding="utf-8") as fh:
        for name, start, end, parent in spans:
            fh.write(json.dumps({"name": name, "start": start, "end": end,
                                 "parent": parent}) + "\n")


# -- what each wrapper counts, from public return values --------------------


def _encoded(tr: Tracer, data: bytes) -> None:
    tr.count("codec.encode_bytes", len(data))


def _received(tr: Tracer, result) -> None:
    if isinstance(result, list):
        tr.count("transport.received", len(result))
    elif result is not None:
        tr.count("transport.received")


def _solved(tr: Tracer, sol) -> None:
    tr.count("lp.pivots<" + tr.parent_name(), sol.iterations)
    tr.count("lp.pivots", sol.iterations)


def _absorbed(tr: Tracer, changed: bool) -> None:
    tr.count("assignment.absorb_changed", bool(changed))


def _mpc_round(tr: Tracer, result) -> None:
    tr.count("mpc.accepted", bool(result[1]))


def _scenario(tr: Tracer, summary: dict) -> None:
    tr.count("trace.bytes", os.path.getsize(summary["trace"]))


# (owner, attribute, span name, observer)
TARGETS = [
    (simrunner, "run_scenario", "simrunner.run_scenario", _scenario),
    (sim_config, "parse_config", "simrunner.parse_config", None),
    (simrunner, "parse_config", "simrunner.parse_config", None),
    (trace.TraceWriter, "write", "trace.write", None),
    (codec, "encode", "codec.encode", _encoded),
    (codec, "decode", "codec.decode", None),
    (transport.MessageBus, "deliver", "transport.deliver", None),
    (transport.MessageBus, "pop_next", "transport.receive", _received),
    (transport.MessageBus, "pop_newest", "transport.receive", _received),
    (transport.MessageBus, "drain", "transport.receive", _received),
    (communicator.Communicator, "send", "communicator.send", None),
    (communicator.Communicator, "exchange_collect", "communicator.receive", None),
    (communicator.Communicator, "drain", "communicator.receive", None),
    (scenarios, "formation_velocity", "guidance.law", None),
    (scenarios, "si_to_unicycle", "control.map", None),
    (scenarios, "step", "dynamics.step", None),
    (assignment, "solve_assignment_network", "assignment.solve", None),
    (assignment, "simplex_round", "assignment.simplex_round", None),
    (assignment, "simplex_from_basis", "lp.simplex_from_basis", None),
    (assignment.DistributedSimplexAgent, "__init__", "assignment.agent_init", None),
    (assignment.DistributedSimplexAgent, "parse", "assignment.parse", None),
    (assignment.DistributedSimplexAgent, "payload", "assignment.payload", None),
    (assignment.DistributedSimplexAgent, "absorb", "assignment.absorb", _absorbed),
    (scenarios, "centralized_bootstrap", "mpc.centralized_bootstrap", None),
    (scenarios, "mpc_round", "mpc.mpc_round", _mpc_round),
    (scenarios, "shift_plan", "mpc.shift_plan", None),
    (mpc, "replan_local", "mpc.replan_local", None),
    (mpc, "build_local_ocp", "mpc.build_local_ocp", None),
    (mpc, "solve_lp", "lp.solve_lp", _solved),
]


class Installed:
    """Context manager that swaps every target for its wrapper and puts
    the originals back on exit."""

    def __init__(self, tracer: Tracer):
        self.tracer = tracer
        self._saved: list[tuple] = []

    def __enter__(self) -> "Installed":
        for owner, attr, name, observe in TARGETS:
            original = getattr(owner, attr)
            self._saved.append((owner, attr, original))
            setattr(owner, attr, _wrap(self.tracer, name, original, observe))
        return self

    def __exit__(self, *exc) -> None:
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved = []


def _wrap(tracer: Tracer, name: str, fn, observe):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        return tracer.call(name, fn, args, kwargs, observe)

    return wrapper


def layer_metrics(agg: Aggregate, agent_ticks: int, import_s: float,
                  overhead: float) -> dict[str, tuple[float, str]]:
    """Every per-layer metric, as name -> (value, unit). A layer the
    workload never calls reads 0."""
    us, ms = 1e6, 1e3

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    c, n = agg.counts, agg.calls
    pivots_local = c.get("lp.pivots<mpc.replan_local", 0)
    pivots_boot = c.get("lp.pivots<mpc.centralized_bootstrap", 0)
    absorbs = n.get("assignment.absorb", 0)
    solves = n.get("assignment.solve", 0)
    return {
        "setup.import_s": (import_s, "s"),
        "simrunner.parse_config_ms": (agg.per_call("simrunner.parse_config") * ms, "ms"),
        "simrunner.engine_self_us": (
            ratio(agg.self_s.get("simrunner.run_scenario", 0.0), agent_ticks) * us, "us"),
        "trace.write_us": (agg.per_call("trace.write") * us, "us"),
        "trace.bytes_per_agent_tick": (ratio(c.get("trace.bytes", 0), agent_ticks), "B"),
        "codec.encode_us": (agg.per_call("codec.encode") * us, "us"),
        "codec.decode_us": (agg.per_call("codec.decode") * us, "us"),
        "codec.payload_bytes_per_agent_tick": (
            ratio(c.get("codec.encode_bytes", 0), agent_ticks), "B"),
        "transport.deliver_us": (agg.per_call("transport.deliver") * us, "us"),
        "transport.receive_us": (agg.per_call("transport.receive") * us, "us"),
        "transport.messages_per_agent_tick": (
            ratio(n.get("transport.deliver", 0), agent_ticks), "count"),
        "transport.received_per_delivered": (
            ratio(c.get("transport.received", 0), n.get("transport.deliver", 0)), "ratio"),
        "communicator.send_self_us": (agg.per_call("communicator.send", True) * us, "us"),
        "communicator.receive_self_us": (
            agg.per_call("communicator.receive", True) * us, "us"),
        "guidance.law_us": (agg.per_call("guidance.law") * us, "us"),
        "control.map_us": (agg.per_call("control.map") * us, "us"),
        "dynamics.step_us": (agg.per_call("dynamics.step") * us, "us"),
        "lp.warm_solve_us": (agg.per_call("lp.simplex_from_basis") * us, "us"),
        "lp.local_solve_ms": (agg.per_call("lp.solve_lp<mpc.replan_local") * ms, "ms"),
        "lp.bootstrap_solve_s": (agg.per_call("lp.solve_lp<mpc.centralized_bootstrap"), "s"),
        "lp.pivots_per_local_solve": (
            ratio(pivots_local, n.get("lp.solve_lp<mpc.replan_local", 0)), "count"),
        "lp.pivots_per_bootstrap": (
            ratio(pivots_boot, n.get("lp.solve_lp<mpc.centralized_bootstrap", 0)), "count"),
        "lp.us_per_pivot": (
            ratio(agg.total.get("lp.solve_lp", 0.0), c.get("lp.pivots", 0)) * us, "us"),
        "assignment.round_self_us": (
            agg.per_call("assignment.simplex_round", True) * us, "us"),
        "assignment.parse_us": (agg.per_call("assignment.parse") * us, "us"),
        "assignment.payload_us": (agg.per_call("assignment.payload") * us, "us"),
        "assignment.agent_init_ms": (agg.per_call("assignment.agent_init") * ms, "ms"),
        "assignment.rounds_per_solve": (
            ratio(absorbs, solves * _fleet_size(agg)), "count"),
        "assignment.changed_round_ratio": (
            ratio(c.get("assignment.absorb_changed", 0), absorbs), "ratio"),
        "mpc.bootstrap_s": (agg.per_call("mpc.centralized_bootstrap"), "s"),
        "mpc.replan_ms": (agg.per_call("mpc.replan_local") * ms, "ms"),
        "mpc.build_ocp_ms": (agg.per_call("mpc.build_local_ocp", True) * ms, "ms"),
        "mpc.shift_plan_us": (agg.per_call("mpc.shift_plan") * us, "us"),
        "mpc.accept_ratio": (ratio(c.get("mpc.accepted", 0), n.get("mpc.mpc_round", 0)), "ratio"),
        "bench.trace_overhead_ratio": (overhead, "ratio"),
    }


def _fleet_size(agg: Aggregate) -> int:
    """Agents per solve: each solve builds one agent per robot."""
    solves = agg.calls.get("assignment.solve", 0)
    return agg.calls.get("assignment.agent_init", 0) // solves if solves else 0
