#!/usr/bin/env python3
"""Benchmark for fleetsim: one named workload in one single-threaded process.

    python3 perfbench/run.py --workload formation_hex --seed 0 --seconds 28 --trace 0

Runs whole rounds of the workload's deterministic ops for ``--seconds``
after one untimed warm-up op, checks every output, and prints the
end-to-end metrics (``--trace 0``) or the per-layer metrics of a run with
spans around the program's public functions (``--trace 1``). ``--smoke``
runs one op of each input shape once, checks included. The last line of
standard output is the result as one JSON object. See README.md.
"""

import os
import sys
import time

# one BLAS thread, fixed before numpy loads
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
             "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import gc  # noqa: E402
import itertools  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")

SETUP_PROBES = 5
WORKLOAD_NAMES = ("formation_hex", "assign_solve", "dmpc_coupled")


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=28.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="one op of each input shape, run once, checks included")
    ap.add_argument("--setup-probe", action="store_true",
                    help="set up, print the monotonic clock and exit (used for setup_s)")
    return ap.parse_args(argv)


def load_program():
    """Import fleetsim from this checkout's ``src``, never from elsewhere."""
    sys.path.insert(0, SRC)
    import fleetsim

    if not os.path.abspath(fleetsim.__file__).startswith(SRC + os.sep):
        raise ImportError("fleetsim resolved to %s, outside %s" % (fleetsim.__file__, SRC))
    return fleetsim


def run_rounds(ops, seconds, after_op=None):
    """Whole rounds of every op until ``seconds`` have passed (at least
    one round). Garbage is collected between ops, outside the timed span.

    Successive rounds pin the process to successive CPUs of its affinity
    set. On a shared host the slow phases hit one core at a time, so each
    op's fastest repeat then comes from whichever core was quiet."""
    times = [[] for _ in ops]
    outcomes = [[] for _ in ops]
    cpus = sorted(os.sched_getaffinity(0))
    start = time.perf_counter()
    for rnd in itertools.count():
        os.sched_setaffinity(0, {cpus[rnd % len(cpus)]})
        for k, op in enumerate(ops):
            gc.collect()
            t0 = time.perf_counter()
            out = op.call()
            dt = time.perf_counter() - t0
            times[k].append(dt)
            outcomes[k].append(out)
            if after_op is not None:
                after_op(k, dt)
        if time.perf_counter() - start >= seconds:
            os.sched_setaffinity(0, cpus)
            return times, outcomes


def op_seconds(times):
    """The in-run statistic: each op's fastest repeat, averaged over ops."""
    return statistics.fmean(min(t) for t in times)


def setup_probe_seconds(args, probes):
    """Median over fresh processes of the time from launch until the
    inputs are built, the window ``setup_s`` covers."""
    cmd = [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-probe"]
    samples = []
    cpus = sorted(os.sched_getaffinity(0))
    for k in range(probes):
        os.sched_setaffinity(0, {cpus[k % len(cpus)]})  # inherited by the probe
        launched = time.monotonic()
        done = subprocess.run(cmd, check=True, capture_output=True, text=True, timeout=120)
        samples.append(float(done.stdout.split()[-1]) - launched)
    os.sched_setaffinity(0, cpus)
    return statistics.median(samples), samples


def solve_ticks(op, outcome):
    """Agent-ticks of one assignment solve: rounds times agents. A solve
    that raised reports no rounds, so it is re-run once, untimed, with its
    absorb() calls counted."""
    import spans

    if not outcome.failed:
        return outcome.value[2] * op.inputs["costs"].shape[0]
    tracer = spans.Tracer()
    with spans.Installed(tracer):
        op.call()
    return tracer.fold().calls["assignment.absorb"]


def run_checks(workload, ops, outcomes):
    import checks
    import workloads

    try:
        for op, outs in zip(ops, outcomes):
            if workload == "formation_hex":
                checks.check_formation(op, outs, workloads.FORMATION_STEPS)
            elif workload == "assign_solve":
                checks.check_assignment(op, outs)
            else:
                checks.check_mpc(op, outs, workloads.MPC_STEPS)
    except checks.CheckError as exc:
        print("CHECK FAILED: %s" % exc, file=sys.stderr)
        return False
    return True


def environment():
    import numpy
    import scipy

    return {
        "machine": platform.machine(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
    }


def traced_layers(args, ops, phase_s, base_op_s, import_s):
    """The traced half of a ``--trace 1`` run: rebuild the inputs and run
    whole rounds with spans around the program's public functions. Each
    op contributes the spans of its fastest traced repeat."""
    import spans
    import workloads

    tracer = spans.Tracer()
    best = [None] * len(ops)
    first_op_spans = []

    def fold_op(k, dt):
        if not first_op_spans:
            first_op_spans.extend(tracer.spans)
        agg = tracer.fold()
        tracer.reset()
        if best[k] is None or dt < best[k][0]:
            best[k] = (dt, agg)

    with spans.Installed(tracer):
        workloads.build(args.workload, args.seed, OUT)
        total = tracer.fold()
        tracer.reset()
        times, outcomes = run_rounds(ops, phase_s, fold_op)
    spans.dump(first_op_spans, os.path.join(OUT, args.workload, "spans.jsonl"))
    for _, agg in best:
        total.add(agg)
    ticks = sum(op.agent_ticks if op.agent_ticks is not None else agg.calls["assignment.absorb"]
                for op, (_, agg) in zip(ops, best))
    overhead = op_seconds(times) / base_op_s
    return spans.layer_metrics(total, ticks, import_s, overhead), outcomes


def main(argv=None):
    started = time.monotonic()
    args = parse_args(argv)
    t0 = time.perf_counter()
    try:
        load_program()
    except ImportError as exc:
        print("cannot load fleetsim from %s: %s" % (SRC, exc), file=sys.stderr)
        return 2
    import_s = time.perf_counter() - t0

    import workloads

    ops = workloads.build(args.workload, args.seed, OUT)
    if args.setup_probe:
        print(repr(time.monotonic()))
        return 0
    setup_in_process = time.monotonic() - started

    seconds = args.seconds
    warm = None
    if args.smoke:
        first_of_shape = {}
        for op in ops:
            first_of_shape.setdefault(op.shape, op)
        ops = list(first_of_shape.values())
        seconds = 0.0
    else:
        gc.collect()
        warm = ops[0].call()
    phase_s = seconds / 2 if args.trace else seconds
    times, outcomes = run_rounds(ops, phase_s)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    base_op_s = op_seconds(times)
    if args.trace:
        metrics, traced = traced_layers(args, ops, phase_s, base_op_s, import_s)
        for k in range(len(ops)):
            outcomes[k].extend(traced[k])
    attempted = sum(len(outs) for outs in outcomes)
    failed = sum(out.failed for outs in outcomes for out in outs)
    if warm is not None:
        outcomes[0].insert(0, warm)
    correct = run_checks(args.workload, ops, outcomes)

    detail = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "smoke": args.smoke, "environment": environment(),
              "import_s": import_s}
    if not args.trace:
        if args.workload == "assign_solve":
            for op, outs in zip(ops, outcomes):
                op.agent_ticks = solve_ticks(op, outs[0])
        if args.smoke:
            setup_s, detail["setup_samples"] = setup_in_process, [setup_in_process]
        else:
            setup_s, detail["setup_samples"] = setup_probe_seconds(args, SETUP_PROBES)
        metrics = {
            "agent_ticks_per_s": (
                sum(op.agent_ticks for op in ops) / sum(min(t) for t in times), "1/s"),
            "op_s": (base_op_s, "s"),
            "setup_s": (setup_s, "s"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
        }
    detail["ops"] = [{"index": op.index, "shape": op.shape, "agent_ticks": op.agent_ticks,
                      "times": t, "failed": sum(o.failed for o in outs)}
                     for op, t, outs in zip(ops, times, outcomes)]
    detail["metrics"] = {k: v for k, (v, _) in metrics.items()}
    name = "result_trace.json" if args.trace else "result.json"
    with open(os.path.join(OUT, args.workload, name), "w", encoding="utf-8") as fh:
        json.dump(detail, fh, indent=1)

    for key, (value, unit) in metrics.items():
        print("%-40s %14.6g %s" % (key, value, unit))
    print("attempted %d, failed %d, correct %s" % (attempted, failed, correct))
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
