"""pboost benchmark: three workloads, end-to-end metrics, per-layer tracing.

    python3 benchmarks/run.py                      # all workloads, untraced
    python3 benchmarks/run.py --trace 1            # all workloads, traced
    python3 benchmarks/run.py --workload d1_scoring --seed 3 --seconds 20 --trace 0

With --workload, one workload runs in this process: it is set up a few
times (set-up time is the median), then its unit of work is
repeated until --seconds have passed (run time is the median unit). Both
times are CPU seconds scaled to a reference host speed (hostspeed.py). With
--trace 1 untraced and traced units alternate, and the per-layer metrics
are medians over the traced units. The last line of output is one JSON
object: {"correct", "attempted", "failed", "metrics"}. Without --workload,
every workload runs in a fresh process of its own, so that each reports its
own peak RSS, and a table of the end-to-end metrics follows.

Metric names and units are those of BENCHMARK.json at the repository root;
the program under test is imported from src/ beside it and nowhere else.
"""

from __future__ import annotations

import os

# OpenBLAS otherwise starts one thread per core, and the summation order of
# a matmul can depend on the thread count; one thread keeps the outputs (and
# their digests) the same on every machine and matches jobs = 1.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

from hostspeed import HostSpeed  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = Path(__file__).resolve().parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"
REFERENCE_DIGESTS = BENCH_DIR / "reference_digests.json"
# Set-up repeats at least SETUP_MIN_REPEATS times and, while it is cheap,
# until SETUP_MIN_SECONDS have passed: the median of a few fresh-interpreter
# imports is too noisy on its own.
SETUP_MIN_REPEATS = 3
SETUP_MAX_REPEATS = 11
SETUP_MIN_SECONDS = 3.0
# The first unit after set-up ran 5-10 % slow on d1_scoring. Where a run
# holds this many units it is left out of run_s; a longer unit is timed
# from the first, as a warm-up unit would not fit the run.
WARM_UP_FROM = 3
# CPU seconds of the imports, scaled by the host's speed measured after them
IMPORT_PROBE = (
    "import time; t = time.process_time(); "
    "import numpy, pboost.experiment; cpu_s = time.process_time() - t; "
    "from hostspeed import speed_now; print(cpu_s * speed_now())"
)
WORKLOAD_NAMES = ("d1_protocol", "c3_large_n", "d1_scoring")
# printed for every workload; the last two only where a workload evaluates
REPORTED = (
    ("setup_s", "s"),
    ("run_s", "s"),
    ("peak_rss_mb", "MB"),
    ("fail_ratio", "ratio"),
    ("aupr_mean", "ratio"),
    ("f_op_mean", "ratio"),
)


def import_program():
    """Import pboost from this checkout's src/, or exit without a result."""
    sys.path.insert(0, str(SRC))
    try:
        import pboost
    except ImportError as exc:
        sys.exit(f"cannot import pboost from {SRC}: {exc}")
    if Path(pboost.__file__).resolve().parent.parent != SRC:
        sys.exit(f"pboost was imported from {pboost.__file__}, not from {SRC}")


def _read(path: str) -> str:
    try:
        return Path(path).read_text().strip()
    except OSError:
        return ""


def _blas_threads() -> int | None:
    """Thread count reported by numpy's bundled OpenBLAS, when it is one."""
    import ctypes
    import numpy as np

    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for lib in sorted(libs.glob("*openblas*")):
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            try:
                fn = getattr(ctypes.CDLL(str(lib)), symbol)
            except (OSError, AttributeError):
                continue
            fn.restype = ctypes.c_int
            return int(fn())
    return None


def machine_facts() -> dict:
    import platform

    import numpy as np

    cpu_model = ""
    for line in _read("/proc/cpuinfo").splitlines():
        if line.startswith("model name"):
            cpu_model = line.split(":", 1)[1].strip()
            break
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        level, kind = _read(index / "level"), _read(index / "type")
        name = f"L{level}" + {"Data": "d", "Instruction": "i"}.get(kind, "")
        caches[name] = _read(index / "size")
    ram_kb = next(
        (int(line.split()[1]) for line in _read("/proc/meminfo").splitlines()
         if line.startswith("MemTotal:")),
        0,
    )
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model or platform.processor(),
        "caches": caches,
        "ram_mb": ram_kb // 1024,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads_env": os.environ["OPENBLAS_NUM_THREADS"],
        "blas_threads": _blas_threads(),
    }


def reference_digests(workload: str, size: str, seed: int) -> dict:
    refs = json.loads(REFERENCE_DIGESTS.read_text()) if REFERENCE_DIGESTS.exists() else {}
    return refs.get(workload, {}).get(size, {}).get(str(seed), {})


def time_setup(setup, seed: int, tiny: bool):
    """Median over the repeats of (fresh-interpreter import + setup), in
    CPU seconds at the reference host's speed (see hostspeed.py)."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join((str(SRC), str(BENCH_DIR))))
    totals, state = [], None
    start = time.perf_counter()
    while len(totals) < SETUP_MIN_REPEATS or (
        len(totals) < SETUP_MAX_REPEATS
        and time.perf_counter() - start < SETUP_MIN_SECONDS
    ):
        probe = subprocess.run(
            [sys.executable, "-c", IMPORT_PROBE],
            env=env, cwd=ROOT, capture_output=True, text=True, timeout=120, check=True,
        )
        with HostSpeed() as hs:
            state = setup(seed, tiny)
        totals.append(float(probe.stdout.strip()) + hs.scaled_s)
    return statistics.median(totals), state


def counted(unit_times: list[float]) -> list[float]:
    """The unit times that count: with WARM_UP_FROM units or more the first
    is a warm-up (caches, heap growth) and is left out."""
    return unit_times[1:] if len(unit_times) >= WARM_UP_FROM else unit_times


def run_workload(args) -> int:
    import_program()
    import workloads
    from tracing import Tracer

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    setup, unit = workloads.WORKLOADS[args.workload]
    tiny = args.size == "tiny"
    print(f"workload {args.workload} seed {args.seed} seconds {args.seconds} "
          f"trace {args.trace} size {args.size}")
    print("machine " + json.dumps(machine_facts(), sort_keys=True))

    setup_s, state = time_setup(setup, args.seed, tiny)
    work_root = OUT_DIR / f"work-{args.workload}-{os.getpid()}"
    # unit times: scaled CPU (the metric), raw CPU and wall (printed)
    plain_times, plain_cpu, plain_wall, traced_times = [], [], [], []
    layer_runs, results, span_dumps = [], [], []
    start = time.perf_counter()
    try:
        while not results or time.perf_counter() - start < args.seconds:
            for traced in ((False, True) if args.trace else (False,)):
                work_dir = work_root / f"unit{len(results)}"
                work_dir.mkdir(parents=True)
                if traced:
                    with Tracer() as tracer, HostSpeed() as hs:
                        res = unit(state, work_dir)
                    traced_times.append(hs.scaled_s)
                    layer_runs.append(tracer.layer_metrics())
                    span_dumps.append(tracer.records())
                else:
                    w0 = time.perf_counter()
                    with HostSpeed() as hs:
                        res = unit(state, work_dir)
                    plain_wall.append(time.perf_counter() - w0)
                    plain_times.append(hs.scaled_s)
                    plain_cpu.append(hs.cpu_s)
                results.append(res)
                shutil.rmtree(work_dir)
    finally:
        shutil.rmtree(work_root, ignore_errors=True)

    problems = sorted({p for r in results for p in r.problems})
    digests = results[0].digests
    if any(r.digests != digests for r in results):
        problems.append("output digests differ between units"
                        + (" (traced vs untraced)" if args.trace else ""))
    refs = reference_digests(args.workload, args.size, args.seed)
    for name, digest in digests.items():
        ref = refs.get(name)
        verdict = "unrecorded" if ref is None else ("match" if ref == digest else "MISMATCH")
        print(f"digest {name} {digest} reference {ref or '-'} {verdict}")
    for problem in problems:
        print(f"check FAILED: {problem}")
    if not problems:
        print("checks passed")

    attempted = sum(r.attempted for r in results)
    failed = sum(r.failed for r in results)
    run_s = statistics.median(counted(plain_times))
    reported = {
        "setup_s": setup_s,
        "run_s": run_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "fail_ratio": failed / attempted,
        **results[0].quality,
    }
    print(f"units {len(plain_times)} untraced, unit seconds "
          + " ".join(f"{t:.3f}" for t in plain_times)
          + "; CPU " + " ".join(f"{t:.3f}" for t in plain_cpu)
          + "; wall " + " ".join(f"{t:.3f}" for t in plain_wall))
    if traced_times:
        print(f"units {len(traced_times)} traced, unit seconds "
              + " ".join(f"{t:.3f}" for t in traced_times))
    for name, unit_name in REPORTED:
        if name in reported:
            print(f"metric {name} {reported[name]!r} {unit_name}")
        else:
            print(f"metric {name} n/a {unit_name} (workload does not evaluate)")

    if args.trace:
        layer = {
            key: statistics.median(run[key] for run in layer_runs) for key in layer_runs[0]
        }
        layer["trace.run_s"] = statistics.median(counted(traced_times))
        layer["trace.overhead_s"] = layer["trace.run_s"] - run_s
        OUT_DIR.mkdir(exist_ok=True)
        trace_file = OUT_DIR / f"trace-{args.workload}-{args.size}-seed{args.seed}.json"
        trace_file.write_text(json.dumps({"units": span_dumps, "metrics": layer}))
        print(f"spans written to {trace_file.relative_to(ROOT)}")
        declared = spec["per_layer"]
    else:
        layer = reported
        declared = spec["end_to_end"]
    metrics = {}
    for m in declared:
        metrics[m["name"]] = {"value": layer[m["name"]], "unit": m["unit"]}
        if args.trace:
            print(f"metric {m['name']} {layer[m['name']]!r} {m['unit']}")
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


def run_all(args) -> int:
    """Each workload in a fresh process; a table of its reported metrics."""
    rows, ok = {}, True
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace), "--size", args.size]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"{name}: exited with code {proc.returncode}")
            ok = False
            continue
        result = json.loads(lines[-1])
        ok = ok and result["correct"]
        rows[name] = {
            line.split()[1]: line.split()[2] for line in lines if line.startswith("metric ")
        }
        rows[name]["correct"] = str(result["correct"])
    names = [n for n, _ in REPORTED] + ["correct"]
    print()
    print("| workload | " + " | ".join(names) + " |")
    print("|---" * (len(names) + 1) + "|")
    for name, row in rows.items():
        cells = []
        for metric in names:
            value = row.get(metric, "n/a")
            try:
                value = f"{float(value):.4g}"
            except ValueError:
                pass
            cells.append(value)
        print(f"| {name} | " + " | ".join(cells) + " |")
    units = ", ".join(f"{n} in {u}" for n, u in REPORTED)
    print(f"units: {units}")
    return 0 if ok else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny shrinks every workload for the self-tests")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    if args.workload is None:
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
