"""The kinematic and assignment traces take no value from BLAS, so they
hold bit for bit under every OpenBLAS kernel. Each kernel runs in its own
process, because OpenBLAS reads ``OPENBLAS_CORETYPE`` once, when it loads.

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


def trace_digests() -> dict:
    """sha256 of each golden config's trace, and of the ``formation_hex``
    first-episode trace that ``perfbench/reference.py`` prints."""
    from fleetsim.simrunner import run_scenario
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
    assert sorted(default) == sorted(GOLDEN + ("formation_hex",))
    for kernel in KERNELS:
        assert _digests_under(kernel) == default, kernel


if __name__ == "__main__":
    print(json.dumps(trace_digests()))
