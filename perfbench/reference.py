#!/usr/bin/env python3
"""Reference figures for README.md: the machine and library versions,
scipy HiGHS times on the LPs that dmpc_coupled solves, and the sha256 of
each scenario workload's first-episode trace.

    python3 perfbench/reference.py [--seed 0]
"""

import argparse
import hashlib
import json
import time

import run  # pins BLAS to one thread before numpy loads


def best_of(fn, repeats: int) -> float:
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args()
    run.load_program()

    from scipy.optimize import linprog

    import workloads
    from fleetsim import mpc

    print(json.dumps(run.environment()))
    for name in ("formation_hex", "dmpc_coupled"):
        op = workloads.build(name, args.seed, run.OUT)[0]
        op.call()
        with open(op.inputs["trace"], "rb") as fh:
            digest = hashlib.sha256(fh.read()).hexdigest()
        print("%s seed %d first-episode trace sha256 %s" % (name, args.seed, digest))

    captured = []
    solve_lp = mpc.solve_lp

    def capture(problem, **kw):
        t0 = time.perf_counter()
        sol = solve_lp(problem, **kw)
        captured.append((problem, sol, time.perf_counter() - t0))
        return sol

    mpc.solve_lp = capture
    try:
        workloads.build("dmpc_coupled", args.seed, run.OUT)[0].call()
    finally:
        mpc.solve_lp = solve_lp
    for label, (problem, sol, own_s) in (("bootstrap", captured[0]), ("local OCP", captured[1])):
        def highs():
            return linprog(problem.c, A_eq=problem.A, b_eq=problem.b, bounds=(0, None),
                           method="highs")

        res = highs()
        print("%s LP %dx%d: fleetsim %.4f s (%d pivots, objective %.9g); "
              "HiGHS best of 5 %.4f s (objective %.9g)"
              % (label, problem.A.shape[0], problem.A.shape[1], own_s, sol.iterations,
                 sol.objective, best_of(highs, 5), res.fun))


if __name__ == "__main__":
    main()
