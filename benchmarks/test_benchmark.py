"""Self-tests of the benchmark, on tiny inputs.

    PYTHONPATH=src python -m pytest -q benchmarks
"""

from __future__ import annotations

import json
import shutil
import signal
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import run  # noqa: E402
import workloads  # noqa: E402
from hostspeed import HostSpeed  # noqa: E402
from pboost.rng import RngStream  # noqa: E402
from tracing import Tracer, tail  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _cli(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, str(Path(cwd) / "benchmarks" / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=600,
    )


def _tiny(workload: str, trace: int):
    proc = _cli("--workload", workload, "--seed", "1", "--seconds", "0",
                "--trace", str(trace), "--size", "tiny")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    return lines, json.loads(lines[-1])


@pytest.mark.parametrize("workload", run.WORKLOAD_NAMES)
def test_every_metric_printed_with_unit_and_digests_equal(workload):
    plain_lines, plain = _tiny(workload, 0)
    traced_lines, traced = _tiny(workload, 1)
    assert plain["correct"] and traced["correct"]
    assert plain["attempted"] >= 1 and plain["failed"] == traced["failed"] == 0
    for result, declared in ((plain, SPEC["end_to_end"]), (traced, SPEC["per_layer"])):
        assert list(result["metrics"]) == [m["name"] for m in declared]
        for m in declared:
            assert result["metrics"][m["name"]]["unit"] == m["unit"]
            assert isinstance(result["metrics"][m["name"]]["value"], (int, float))
    printed = {line.split()[1]: line.split()[3] for line in plain_lines
               if line.startswith("metric ")}
    for name, unit in run.REPORTED:
        assert printed[name] == unit
    printed = {line.split()[1]: line.split()[3] for line in traced_lines
               if line.startswith("metric ")}
    for m in SPEC["per_layer"]:
        assert printed[m["name"]] == m["unit"]

    def digests(lines):
        return [line.split()[:3] for line in lines if line.startswith("digest ")]

    assert digests(plain_lines) and digests(plain_lines) == digests(traced_lines)


@pytest.mark.parametrize("workload", run.WORKLOAD_NAMES)
def test_tracing_draws_no_random_numbers(workload, tmp_path, monkeypatch):
    setup, unit = workloads.WORKLOADS[workload]
    state = setup(2, True)
    draws = []
    generator = RngStream.generator
    monkeypatch.setattr(RngStream, "generator", lambda s: draws.append(s) or generator(s))

    plain = unit(state, tmp_path / "plain")
    plain_draws = list(draws)
    draws.clear()
    with Tracer() as tracer:
        traced = unit(state, tmp_path / "traced")
    assert not plain.problems and not traced.problems
    assert traced.digests == plain.digests
    assert draws == plain_draws
    assert tracer.spans and all(span[2] is not None for span in tracer.spans)


def test_host_speed_leaves_outputs_and_signals_alone(tmp_path):
    setup, unit = workloads.WORKLOADS["d1_scoring"]
    state = setup(2, True)
    plain = unit(state, tmp_path / "plain")
    handler = signal.getsignal(signal.SIGPROF)
    with HostSpeed() as hs:
        sampled = unit(state, tmp_path / "sampled")
    assert sampled.digests == plain.digests
    assert signal.getsignal(signal.SIGPROF) is handler
    assert signal.getitimer(signal.ITIMER_PROF) == (0.0, 0.0)
    assert hs.samples > 2 and hs.cpu_s > 0 and hs.scaled_s > 0


def test_tracer_restores_every_patched_name():
    from tracing import COUNTED, SPANNED

    before = [owner.__dict__[attr] for owner, attr, _ in SPANNED + COUNTED]
    with Tracer():
        pass
    assert [owner.__dict__[attr] for owner, attr, _ in SPANNED + COUNTED] == before


def test_tail_is_highest_percentile_with_ten_samples_beyond():
    assert tail(range(1000)) == (989, 99.0)
    assert tail(range(25)) == (12, 50.0)
    assert tail(range(5)) == (4, 100.0)


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "benchmarks",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _cli("--workload", "d1_scoring", "--seed", "0", "--seconds", "1",
                "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
