"""The benchmark tracer wraps functions by (module, attribute) name.

Moving or renaming a traced function would leave the tracer pointing at
nothing, and the benchmark tests run outside this suite, so the names are
checked here.
"""

from __future__ import annotations

import importlib
import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "benchmarks" / "tracing.py"


def test_every_traced_binding_resolves_to_a_callable():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    assert tracing.BINDINGS
    for module_name, attr, _layer in tracing.BINDINGS:
        assert callable(getattr(importlib.import_module(module_name), attr, None)), (module_name, attr)
