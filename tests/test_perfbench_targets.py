"""The benchmark's tracer wraps library functions by name; a rename must
fail here rather than in a traced benchmark run."""

import importlib
import importlib.util
from pathlib import Path

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def test_traced_functions_exist():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    assert spans.TARGETS
    for module, func, _, _ in spans.TARGETS:
        assert callable(getattr(importlib.import_module(f"qbounds.{module}"), func, None)), (
            f"qbounds.{module}.{func}"
        )
