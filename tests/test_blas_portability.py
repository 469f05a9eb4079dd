"""The kinematic and assignment traces, and the summaries and CSV tables
read from kinematic traces, take no value from BLAS, so they hold bit for
bit under every OpenBLAS kernel. Each kernel runs in its own process,
because OpenBLAS reads ``OPENBLAS_CORETYPE`` once, when it loads.

    python tests/test_blas_portability.py   # prints this process's digests
"""

import hashlib
import importlib.util
import json
import os
import platform
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parents[1]

# golden configs of tests/test_scenarios.py; mpc rests on BLAS through its
# LP solves, and agrees across these kernels too
GOLDEN = ("formation", "formation_unicycle", "assignment", "rendezvous", "containment", "mpc")
# a portable AVX2 kernel and the oldest SSE3 one
KERNELS = ("Haswell", "Prescott")
# default n = 6 runs whose summary and exported tables are hashed
SUMMARIZED = tuple((name, seed) for name in ("formation", "containment", "rendezvous")
                   for seed in range(3))


def trace_digests() -> dict:
    """sha256 of each golden config's trace, of the ``formation_hex``
    first-episode trace that ``perfbench/reference.py`` prints, and of the
    ``summarize`` JSON and each ``export_csv`` file of every SUMMARIZED
    default run."""
    from fleetsim.simrunner import default_config, export_csv, run_scenario, summarize
    from test_scenarios import _golden_config

    spec = importlib.util.spec_from_file_location("perfbench_workloads",
                                                  ROOT / "perfbench" / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)

    def sha(path):
        return hashlib.sha256(Path(path).read_bytes()).hexdigest()

    out = {}
    with tempfile.TemporaryDirectory() as tmp:
        for name in GOLDEN:
            path = os.path.join(tmp, name + ".jsonl")
            run_scenario(_golden_config(name), path)
            out[name] = sha(path)
        op = workloads.build("formation_hex", 0, tmp)[0]
        op.call()
        out["formation_hex"] = sha(op.inputs["trace"])
        for name, seed in SUMMARIZED:
            key = "%s/%d" % (name, seed)
            path = os.path.join(tmp, "default.jsonl")
            run_scenario(default_config(name, 6, seed=seed), path)
            summary = json.dumps(summarize(path), sort_keys=True)
            out["summary/" + key] = hashlib.sha256(summary.encode()).hexdigest()
            for table in export_csv(path, os.path.join(tmp, "csv")):
                out["csv/%s/%s" % (key, os.path.basename(table))] = sha(table)
    return out


def _openblas_on_x86_64() -> bool:
    try:  # numpy before 1.26 has no "dicts" mode
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
    except (TypeError, KeyError):
        return False
    return "openblas" in blas.lower() and platform.machine().lower() in ("x86_64", "amd64")


def _digests_under(kernel: str | None) -> dict:
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1",
               PYTHONPATH=os.pathsep.join([str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]))
    env.pop("OPENBLAS_CORETYPE", None)
    if kernel is not None:
        env["OPENBLAS_CORETYPE"] = kernel
    done = subprocess.run([sys.executable, __file__], env=env, capture_output=True, text=True,
                          timeout=120)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout)


@pytest.mark.skipif(not _openblas_on_x86_64(), reason="numpy's BLAS is not OpenBLAS on x86-64")
def test_traces_hold_under_every_openblas_kernel():
    default = _digests_under(None)
    tables = {"formation": "formation_error.csv", "containment": "hull_distance.csv",
              "rendezvous": "spread.csv"}
    summarized = ["%s/%s/%d%s" % (kind, name, seed, suffix)
                  for name, seed in SUMMARIZED
                  for kind, suffix in (("summary", ""), ("csv", "/positions.csv"),
                                       ("csv", "/" + tables[name]))]
    assert sorted(default) == sorted(GOLDEN + ("formation_hex",) + tuple(summarized))
    for kernel in KERNELS:
        assert _digests_under(kernel) == default, kernel


if __name__ == "__main__":
    print(json.dumps(trace_digests()))
