"""The benchmark tracer wraps package functions by name from outside
(`benchmarks/tracing.py`), so a rename or removal in the package breaks
`benchmarks/run.py --trace 1`. This guards every name it binds."""

import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "benchmarks" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("benchmark_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_is_bound():
    tracing = _load_tracing()
    unbound = [
        f"{getattr(owner, '__name__', owner)}.{attr}"
        for owner, attr, _ in tracing.SPANNED + tracing.COUNTED
        if attr not in owner.__dict__
    ]
    assert tracing.SPANNED and tracing.COUNTED
    assert unbound == []
