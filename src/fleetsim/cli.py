"""Command-line entry point.

    fleetsim run <scenario> [-n N] [--seed S] [--dt DT] [--duration T]
                 [--graph <file|er:P|complete|cycle>] [--config FILE]
                 [--out DIR]
    fleetsim summarize <trace.jsonl>
    fleetsim export-csv <trace.jsonl> --out DIR

Exit codes: 0 on success, 2 for configuration errors, 3 for scenario
failures (non-convergence, infeasibility, broken traces).
"""

from __future__ import annotations

import argparse
import json
import sys

from .errors import ConfigError, FleetError
from .simrunner import default_config, export_csv, parse_config, run_scenario, summarize
from .simrunner.config import SCENARIOS, load_document

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_SCENARIO = 3


def _graph_option(value: str) -> dict:
    if value == "complete":
        return {"complete": True}
    if value == "cycle":
        return {"cycle": True}
    if value.startswith("er:"):
        try:
            p = float(value[3:])
        except ValueError:
            raise ConfigError("graph: er spec %r is not er:<p>" % value) from None
        return {"er": {"p": p}}
    try:
        with open(value, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ConfigError("graph: cannot read %s (%s)" % (value, exc)) from exc
    rows = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        try:
            rows.append([int(tok) for tok in line.replace(",", " ").split()])
        except ValueError:
            raise ConfigError("graph: %s line %d is not a row of integers: %r"
                              % (value, lineno, line)) from None
    if not rows:
        raise ConfigError("graph: file %s holds no adjacency rows" % value)
    return {"matrix": rows}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fleetsim",
        description="peer-to-peer multi-robot coordination simulator",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="run a scenario and write a trace")
    run_p.add_argument("scenario", choices=SCENARIOS)
    run_p.add_argument("-n", type=int, default=None, help="number of robots (default 6)")
    run_p.add_argument("--seed", type=int, default=None)
    run_p.add_argument("--dt", type=float, default=None, help="step size in seconds")
    run_p.add_argument("--duration", type=float, default=None, help="simulated seconds")
    run_p.add_argument(
        "--graph",
        default=None,
        help="adjacency file, er:<p> for a connected random graph, complete, or cycle",
    )
    run_p.add_argument("--config", default=None, help="YAML/JSON config file; CLI flags override its top-level fields")
    run_p.add_argument("--out", default=".", help="output directory (default: current)")

    sum_p = sub.add_parser("summarize", help="print summary metrics for a trace")
    sum_p.add_argument("trace")

    exp_p = sub.add_parser("export-csv", help="write plot-ready CSV tables for a trace")
    exp_p.add_argument("trace")
    exp_p.add_argument("--out", default=".", help="output directory for the CSV files")
    return parser


def _config_for_run(args):
    if args.config is not None:
        # the flags override the file's fields before anything is
        # validated, so a file that only the flags make valid runs
        with open(args.config, "r", encoding="utf-8") as fh:
            data = load_document(fh.read())
        declared = data.get("scenario", args.scenario)
        if args.scenario != declared:
            raise ConfigError(
                "scenario: config file declares %r but the command says %r"
                % (declared, args.scenario)
            )
        for key in ("n", "seed", "dt", "duration"):
            if getattr(args, key) is not None:
                data[key] = getattr(args, key)
        if args.graph is not None:
            data["graph"] = _graph_option(args.graph)
        return parse_config(data)
    graph = _graph_option(args.graph) if args.graph is not None else None
    return default_config(
        args.scenario,
        args.n if args.n is not None else 6,
        seed=args.seed if args.seed is not None else 0,
        dt=args.dt,
        duration=args.duration,
        graph=graph,
    )


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "run":
            cfg = _config_for_run(args)
            summary = run_scenario(cfg, args.out)
            print(json.dumps(summary, sort_keys=True, indent=2, default=str))
            return EXIT_OK
        if args.command == "summarize":
            print(json.dumps(summarize(args.trace), sort_keys=True, indent=2, default=str))
            return EXIT_OK
        written = export_csv(args.trace, args.out)
        for path in written:
            print(path)
        return EXIT_OK
    except ConfigError as exc:
        print("config error: %s" % exc, file=sys.stderr)
        return EXIT_CONFIG
    except OSError as exc:
        print("io error: %s" % exc, file=sys.stderr)
        return EXIT_CONFIG
    except FleetError as exc:
        print("scenario error: %s" % exc, file=sys.stderr)
        return EXIT_SCENARIO


if __name__ == "__main__":
    sys.exit(main())
