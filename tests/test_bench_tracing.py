"""The benchmark tracer wraps library names that must keep existing."""

import importlib
import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parent.parent / "bench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_span_resolves():
    tracing = _load_tracing()
    missing = []
    for name, (modules, _hook) in tracing.SPANS.items():
        attr = name.rsplit(".", 1)[1]
        for modname in modules:
            if not callable(getattr(importlib.import_module(modname), attr, None)):
                missing.append(f"{modname}.{attr}")
    assert tracing.SPANS and missing == []
