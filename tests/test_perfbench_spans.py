"""The benchmark's traced run wraps library functions by name; a rename
in the library must fail here rather than crash a ``--trace 1`` run."""

import importlib.util
from pathlib import Path

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def test_every_traced_target_resolves():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    missing = [
        (getattr(owner, "__name__", repr(owner)), attr)
        for owner, attr, _, _ in spans.TARGETS
        if not callable(getattr(owner, attr, None))
    ]
    assert spans.TARGETS and not missing
