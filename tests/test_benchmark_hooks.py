"""The benchmark's tracer wraps exturan functions by name; a rename or
deletion of one of them must fail here, not only in a traced benchmark run."""

import importlib
import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def test_every_trace_target_resolves():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    assert tracing.TARGETS
    for mod_name, attr, name in tracing.TARGETS:
        obj = importlib.import_module(f"exturan.{mod_name}")
        for part in attr.split("."):
            assert hasattr(obj, part), f"{name}: exturan.{mod_name} has no {attr}"
            obj = getattr(obj, part)
        assert callable(obj), name
