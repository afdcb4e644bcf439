"""The benchmark looks up package functions by name from outside: the tracer
(`benchmarks/tracing.py`) wraps the names it lists, and the workloads
(`benchmarks/workloads.py`) swap names with `_replaced`. Both read
`owner.__dict__[attr]`, so a rename or removal in the package makes
`benchmarks/run.py` raise. This guards every name they bind, and runs each
workload once on its tiny inputs, so a change to what a workload builds,
reads or hands to the package shows here too."""

import ast
import importlib.util
import inspect
import sys
from pathlib import Path

import pytest

BENCHMARKS = Path(__file__).resolve().parents[1] / "benchmarks"


def _load(name):
    spec = importlib.util.spec_from_file_location(f"benchmark_{name}", BENCHMARKS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up here
    try:
        spec.loader.exec_module(module)
    finally:
        del sys.modules[spec.name]
    return module


def _unbound(bindings):
    """The owner.attr names of bindings that are not a function in the
    owner's own namespace."""
    return [
        f"{getattr(owner, '__name__', owner)}.{attr}"
        for owner, attr in bindings
        if not inspect.isfunction(owner.__dict__.get(attr))
    ]


def _replaced_names(workloads):
    """(owner, attr) of every `_replaced(owner, "attr", ...)` call in the
    workloads, the owner resolved in the workloads' namespace."""
    tree = ast.parse((BENCHMARKS / "workloads.py").read_text())
    return [
        (vars(workloads)[call.args[0].id], call.args[1].value)
        for call in ast.walk(tree)
        if isinstance(call, ast.Call)
        and isinstance(call.func, ast.Name)
        and call.func.id == "_replaced"
    ]


def test_every_traced_name_is_bound():
    tracing = _load("tracing")
    assert tracing.SPANNED and tracing.COUNTED
    assert _unbound((owner, attr) for owner, attr, _ in tracing.SPANNED + tracing.COUNTED) == []


def test_every_name_the_workloads_replace_is_bound():
    workloads = _load("workloads")
    replaced = _replaced_names(workloads)
    assert "load_replications" in {attr for _, attr in replaced}
    assert _unbound(replaced) == []


@pytest.mark.parametrize("name", ["d1_protocol", "c3_large_n", "d1_scoring"])
def test_workload_runs_clean_on_tiny_inputs(name, tmp_path):
    setup, unit = _load("workloads").WORKLOADS[name]
    result = unit(setup(1, True), tmp_path)
    assert result.failed == 0
    assert result.problems == []


def test_traced_protocol_unit_sees_kmeans(tmp_path):
    # a k-means that partition_cus stops calling through the module global
    # reads 0 here, as the Dunn metrics once did
    tracing = _load("tracing")
    setup, unit = _load("workloads").WORKLOADS["d1_protocol"]
    state = setup(1, True)
    with tracing.Tracer() as tracer:
        unit(state, tmp_path)
    metrics = tracer.layer_metrics()
    assert metrics["sampling.kmeans_calls"] > 0
    assert metrics["sampling.kmeans_s"] > 0
