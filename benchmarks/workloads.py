"""The three benchmark workloads.

Each workload has a `setup(seed, tiny)` that builds its inputs (timed as
set-up) and a `unit(state, work_dir)` that does one fixed unit of work
(timed as run time) and returns a `UnitResult`: how many cells or
ensembles it attempted and how many raised, the correctness problems found
(by name), the sha256 of each output, and the quality means where the
workload evaluates. Every workload runs in one process with jobs = 1.
"""

from __future__ import annotations

import csv
import dataclasses
import hashlib
import json
import math
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from pboost import boosting, experiment, sampling
from pboost.datagen import POSITIVE_GROUP, SynthConfig, gen_synthetic
from pboost.experiment import ExperimentConfig
from pboost.rng import RngStream
from pboost.svm import LearnerConfig

D1_VARIANTS = ("RUS", "PRUS-F", "PCUS-F")
# One replication from each half of the 2 x 5 protocol: the full protocol
# (10 replications, about 90 s) does not fit a run.
D1_REPLICATIONS = (0, 5)
SCORING_VARIANTS = ("RUS", "PRUS-F")
SCORING_LAMBDAS = (1.0, 20.0, 50.0, 100.0)
SCORING_DRAWS = 4
C3_LEARNER = LearnerConfig(c_penalty=50.0, max_passes=10)
C3_ROUNDS = {"ada": 2, "smt": 1, "rus": 2, "rb": 2}
TINY_TRAIN_CLUSTERS = 10  # tiny size keeps negatives of 10 of the 50 clusters

UNIT_RATIO_METRICS = ("f_op", "f_d", "g_mean", "expected_cost", "aupr")
SCORING_COLUMNS = (
    "draw", "variant", "lambda_test", "f_op", "f_d", "g_mean",
    "expected_cost", "aupr", "threshold", "ensemble_size",
)


@dataclass
class UnitResult:
    attempted: int
    failed: int
    problems: list[str] = field(default_factory=list)
    digests: dict[str, str] = field(default_factory=dict)
    quality: dict[str, float] = field(default_factory=dict)


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _json_bytes(obj) -> bytes:
    return json.dumps(obj, sort_keys=True).encode()


def _read_csv(path: Path) -> list[dict]:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def _check_eval_row(name: str, row: dict, problems: list[str]) -> None:
    for metric in UNIT_RATIO_METRICS:
        value = float(row[metric])
        if not (math.isfinite(value) and 0.0 <= value <= 1.0):
            problems.append(f"{name}: {metric}={value!r} outside [0, 1]")
    if math.isnan(float(row["threshold"])):
        problems.append(f"{name}: threshold is NaN")
    if int(row["ensemble_size"]) < 1:
        problems.append(f"{name}: empty ensemble")


def _quality(rows) -> dict[str, float]:
    return {
        "aupr_mean": float(np.mean([float(r["aupr"]) for r in rows])),
        "f_op_mean": float(np.mean([float(r["f_op"]) for r in rows])),
    }


def _shrink(rep):
    """Tiny size: training negatives from the first clusters only."""
    gids = rep.train.group_ids
    keep = np.flatnonzero((gids == POSITIVE_GROUP) | (gids <= TINY_TRAIN_CLUSTERS))
    return dataclasses.replace(rep, train=rep.train.select(keep))


@contextmanager
def _replaced(owner, attr, value):
    original = owner.__dict__[attr]
    setattr(owner, attr, value)
    try:
        yield
    finally:
        setattr(owner, attr, original)


def _d1_config(seed: int, lambdas, variants, out_dir: str = "") -> ExperimentConfig:
    return ExperimentConfig(
        source="synthetic",
        setting="D1",
        variants=tuple(variants),
        out_dir=out_dir,
        lambda_tests=tuple(lambdas),
        seed=seed,
        jobs=1,
        dump_models=True,
    )


# --- d1_protocol -----------------------------------------------------------


def d1_protocol_setup(seed: int, tiny: bool) -> dict:
    cfg = _d1_config(seed, (100.0,), D1_VARIANTS)
    experiment.synthetic_replications(cfg)  # data generation + replication build
    return {"seed": seed, "tiny": tiny}


def d1_protocol_unit(state: dict, work_dir: Path) -> UnitResult:
    cfg = _d1_config(state["seed"], (100.0,), D1_VARIANTS, str(work_dir))
    load = experiment.load_replications

    def selected(c):
        reps = [rep for rep in load(c) if rep.index in D1_REPLICATIONS]
        return [_shrink(r) for r in reps] if state["tiny"] else reps

    cells = len(D1_REPLICATIONS) * len(D1_VARIANTS)
    result = UnitResult(attempted=cells, failed=0)
    with _replaced(experiment, "load_replications", selected):
        try:
            experiment.run_experiment(cfg)
        except Exception as exc:  # a failed cell; the others are on disk
            result.problems.append(f"run_experiment raised {exc!r}")
    return _d1_protocol_outputs(work_dir, result)


def _d1_protocol_outputs(work_dir: Path, result: UnitResult) -> UnitResult:
    results = work_dir / "results.csv"
    complexity = work_dir / "complexity.csv"
    if not results.exists() or not complexity.exists():
        result.failed = result.attempted
        result.problems.append("results.csv or complexity.csv missing")
        return result
    rows = _read_csv(results)
    cells = {(int(r["replication"]), r["variant"]) for r in rows}
    expected = {(i, v) for i in D1_REPLICATIONS for v in D1_VARIANTS}
    result.failed = len(expected - cells)
    for key in sorted(expected - cells):
        result.problems.append(f"cell {key} missing from results.csv")
    if len(rows) != len(cells):
        result.problems.append(f"{len(rows)} result rows for {len(cells)} cells")
    for row in rows:
        _check_eval_row(f"cell ({row['replication']}, {row['variant']})", row, result.problems)
    comp_rows = _read_csv(complexity)
    if {(int(r["replication"]), r["variant"]) for r in comp_rows} != cells:
        result.problems.append("complexity.csv cells differ from results.csv cells")
    models = sorted((work_dir / "ensembles").glob("*.json"))
    if len(models) != len(cells):
        result.problems.append(f"{len(models)} model dumps for {len(cells)} cells")
    model_digest = hashlib.sha256()
    for path in models:
        model_digest.update(path.name.encode() + b"\0" + path.read_bytes())
    result.digests = {
        "results": sha256(results.read_bytes()),
        "complexity": sha256(complexity.read_bytes()),
        "models": model_digest.hexdigest(),
    }
    if rows:
        result.quality = _quality(rows)
    return result


# --- c3_large_n ------------------------------------------------------------


def c3_large_n_setup(seed: int, tiny: bool) -> dict:
    synth = SynthConfig(delta=0.1, t_neg=5 if tiny else 50, per_cluster=100, seed=seed)
    return {"seed": seed, "data": gen_synthetic(synth)}


def c3_large_n_unit(state: dict, work_dir: Path) -> UnitResult:
    data = state["data"]
    m_pos, m_neg = data.m_pos, data.m_neg
    rng = RngStream(state["seed"]).child("c3")
    result = UnitResult(attempted=len(C3_ROUNDS) + 1, failed=0)
    reports, records = {}, {}
    for variant, rounds in C3_ROUNDS.items():
        try:
            ens = boosting.run_boosting(
                variant, data, rounds, C3_LEARNER, boosting.WeightedError(),
                rng.child(variant),
            )
        except Exception as exc:
            result.failed += 1
            result.problems.append(f"{variant} raised {exc!r}")
            continue
        reports[variant] = boosting.complexity_report(ens)
        records[variant] = ens.to_record()
    sizes = []
    try:
        part = sampling.partition_ruswr(m_neg, m_pos, rng.child("part"))
        sizes = part.sizes
        prus = boosting.pboost(data, part, C3_LEARNER, 2.0, rng.child("prus"))
        reports["prus"] = boosting.complexity_report(prus)
        records["prus"] = prus.to_record()
    except Exception as exc:
        result.failed += 1
        result.problems.append(f"prus raised {exc!r}")

    # criterion-3 sample-count identities (sums over accepted iterations)
    m = m_pos + m_neg
    expected = {
        "ada": (C3_ROUNDS["ada"] * m, C3_ROUNDS["ada"] * m),
        "smt": (2 * C3_ROUNDS["smt"] * m_neg, C3_ROUNDS["smt"] * m),
        "rus": (2 * C3_ROUNDS["rus"] * m_pos, C3_ROUNDS["rus"] * m),
        "rb": (C3_ROUNDS["rb"] * m, C3_ROUNDS["rb"] * m),
    }
    for variant, (n_tr, n_val) in expected.items():
        rep = reports.get(variant)
        if rep is None:
            continue
        if rep.total_train != n_tr:
            result.problems.append(f"{variant} n_tr {rep.total_train} != {n_tr}")
        if rep.total_val != n_val:
            result.problems.append(f"{variant} n_val {rep.total_val} != {n_val}")
    if "prus" in reports:
        rep = reports["prus"]
        e_p = rep.ensemble_size
        direct = sum(m_pos + sum(sizes[: i + 1]) for i in range(len(sizes)))
        if rep.total_train != e_p * m_pos + m_neg:
            result.problems.append(f"prus n_tr {rep.total_train} != {e_p * m_pos + m_neg}")
        if rep.total_val != direct:
            result.problems.append(f"prus total_val {rep.total_val} != direct sum {direct}")
        if not rep.total_val < e_p * m:
            result.problems.append(f"prus n_val {rep.total_val} not < {e_p * m}")
    result.digests = {
        "complexity": sha256(_json_bytes({k: vars(r) for k, r in reports.items()})),
        "models": sha256(_json_bytes(records)),
    }
    return result


# --- d1_scoring ------------------------------------------------------------


def d1_scoring_setup(seed: int, tiny: bool) -> dict:
    cfg = _d1_config(seed, SCORING_LAMBDAS, SCORING_VARIANTS)
    rep = experiment.synthetic_replications(cfg)[0]
    if tiny:
        rep = _shrink(rep)
    ensembles = {}
    for token in SCORING_VARIANTS:
        spec = experiment.parse_variant(token)
        stream = RngStream(seed).child("rep", rep.index, spec.token)
        ensembles[spec.token] = experiment.train_variant(
            spec, rep.train, cfg, LearnerConfig(), stream
        )
    return {
        "seed": seed,
        "cfg": cfg,
        "rep": rep,
        "ensembles": ensembles,
        "draws": 1 if tiny else SCORING_DRAWS,
    }


def d1_scoring_unit(state: dict, work_dir: Path) -> UnitResult:
    rep, cfg, ensembles = state["rep"], state["cfg"], state["ensembles"]
    stream = RngStream(state["seed"]).child("scoring")
    rows = []
    result = UnitResult(attempted=state["draws"] * len(SCORING_LAMBDAS) * len(ensembles), failed=0)
    for draw in range(state["draws"]):
        for li, lam in enumerate(SCORING_LAMBDAS):
            eval_stream = stream.child(draw, li)
            validation = experiment.subsample_to_skew(
                rep.validation_pool, lam, eval_stream.child("val")
            )
            test = experiment.subsample_to_skew(rep.test_pool, lam, eval_stream.child("test"))
            for token, ens in ensembles.items():
                try:
                    row = experiment.evaluate_ensemble(ens, validation, test, cfg.beta)
                except Exception as exc:
                    result.failed += 1
                    result.problems.append(f"{token} draw {draw} lambda {lam} raised {exc!r}")
                    continue
                row.pop("curve")
                row.update(draw=draw, variant=token, lambda_test=lam, ensemble_size=ens.size)
                _check_eval_row(f"{token} draw {draw} lambda {lam}", row, result.problems)
                rows.append(row)
    # floats as repr, the way results.csv writes them
    text = "".join(
        ",".join(repr(v) if isinstance(v, float) else str(v)
                 for v in (row[c] for c in SCORING_COLUMNS)) + "\n"
        for row in rows
    )
    result.digests = {
        "results": sha256(text.encode()),
        "models": sha256(_json_bytes({k: e.to_record() for k, e in ensembles.items()})),
    }
    if rows:
        result.quality = _quality(rows)
    return result


WORKLOADS = {
    "d1_protocol": (d1_protocol_setup, d1_protocol_unit),
    "c3_large_n": (c3_large_n_setup, c3_large_n_unit),
    "d1_scoring": (d1_scoring_setup, d1_scoring_unit),
}
EVALUATING = ("d1_protocol", "d1_scoring")
