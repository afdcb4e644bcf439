"""End-to-end experiment protocol: replications, training, threshold
selection on validation data, evaluation across test skews, and the run
directory's CSV and markdown output."""

from __future__ import annotations

import csv
import io
import json
import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass, fields
from pathlib import Path

import numpy as np

from .boosting import (
    VARIANTS,
    BoostedEnsemble,
    ComplexityReport,
    FBetaLoss,
    WeightedError,
    _scores_and_majority,
    complexity_report,
    pboost,
    predict_majority_labels,  # noqa: F401  (bound here for benchmarks/tracing.py)
    predict_scores,
    run_boosting,
)
from .data import (
    Dataset, _label_groups, deal_folds, is_integer, round_half_up, subsample_to_skew
)
from .datagen import POSITIVE_GROUP, gen_synthetic, make_setting, split_design_test
from .errors import DataError, PBoostError
from .keel import parse_csv, parse_keel
from .metrics import (
    expected_cost,
    f_beta,
    g_mean,
    pr_curve_and_aupr,
    select_threshold_max_fbeta,
    weighted_confusion,
)
from .rng import RngStream
from .sampling import default_k_range, partition_apriori, partition_cus, partition_ruswr
from .svm import LearnerConfig

@dataclass(frozen=True)
class VariantSpec:
    token: str  # canonical token, e.g. "RUS" or "PRUS-F"
    sampler: str  # ada/smt/rus/rb/prus/pcus/pa
    fbeta_loss: bool


def parse_variant(token: str) -> VariantSpec:
    canon = token.strip().upper()
    base, _, suffix = canon.partition("-")
    sampler = base.lower()
    if suffix not in ("", "F") or sampler not in (*VARIANTS, "prus", "pcus", "pa"):
        raise ValueError(f"unknown variant token {token!r}")
    return VariantSpec(canon, sampler, suffix == "F")


@dataclass(frozen=True)
class ExperimentConfig:
    source: str  # "synthetic" | "keel" | "csv"
    variants: tuple[str, ...]
    out_dir: str
    setting: str = "D2"  # synthetic setting name
    data_path: str = ""  # KEEL .dat or CSV path for the keel/csv sources
    positive_token: str = "positive"
    ensemble_size: int | str = "auto"
    beta: float = 2.0
    lambda_tests: tuple[float, ...] = ()
    seed: int = 0
    jobs: int = 1
    dump_models: bool = False

    def __post_init__(self):
        if self.source not in ("synthetic", "keel", "csv"):
            raise ValueError(f"unknown source {self.source!r}")
        if self.source == "synthetic":
            make_setting(self.setting)  # an unknown name is a ValueError
        if not self.variants:
            raise ValueError("at least one variant is required")
        tokens = [parse_variant(token).token for token in self.variants]
        size = self.ensemble_size
        if size != "auto" and not (is_integer(size) and size >= 1):
            raise ValueError(
                f"ensemble_size must be 'auto' or a positive integer, not {size!r}"
            )
        if not 0 < self.beta < math.inf:
            raise ValueError("beta must be positive and finite")
        if not all(0 < lam < math.inf for lam in self.lambda_tests):
            raise ValueError("every lambda_tests value must be positive and finite")
        for key, values in (("variants", tokens), ("lambda_tests", self.lambda_tests)):
            repeated = [v for i, v in enumerate(values) if v in values[:i]]
            if repeated:  # each would be run and aggregated twice
                raise ValueError(f"{key} repeats {repeated[0]!r}")
        if not (is_integer(self.seed) and self.seed >= 0):
            raise ValueError(f"seed must be a nonnegative integer, not {self.seed!r}")
        if not (is_integer(self.jobs) and self.jobs >= 1):
            raise ValueError(f"jobs must be a positive integer, not {self.jobs!r}")


@dataclass(frozen=True)
class ReplicationData:
    """Materialized train set plus validation/test pools for one replication.

    Pools hold every candidate sample; evaluation subsamples them to each
    requested test skew (validation skew always matches the test skew).
    """

    index: int
    train: Dataset
    validation_pool: Dataset
    test_pool: Dataset


def _group_folds(indices: np.ndarray, gids: np.ndarray, k: int, rng: RngStream):
    """Split indices into k folds, k-way per group so every fold sees every group."""
    gen = rng.generator()
    folds = [[] for _ in range(k)]
    for group in _label_groups(gids):
        idx = gen.permutation(indices[group])
        for f in range(k):
            folds[f].append(idx[f::k])
    return [np.sort(np.concatenate(f)) for f in folds]


def _two_by_five(data, halves, fold, stream, keep=None) -> list[ReplicationData]:
    """The 2 x 5-fold rotation shared by every source.

    Each of the two halves serves once as the design set and once as the
    test pool. The design set is cut into five folds by
    `fold(design, stream.child("folds", h))`; each fold validates once while
    the other four train. `keep`, a row mask over data, filters the training
    rows.
    """
    replications = []
    for h, (design, test) in enumerate([halves, halves[::-1]]):
        folds = fold(design, stream.child("folds", h))
        for v in range(5):
            train = np.sort(np.concatenate([folds[f] for f in range(5) if f != v]))
            if keep is not None:
                train = train[keep[train]]
            replications.append(
                ReplicationData(
                    index=len(replications),
                    train=data.select(train),
                    validation_pool=data.select(folds[v]),
                    test_pool=data.select(test),
                )
            )
    return replications


def synthetic_replications(cfg: ExperimentConfig) -> list[ReplicationData]:
    """The 2 x 5-fold protocol on generated data.

    Every cluster is halved; the folds deal each cluster five ways, so every
    fold sees every cluster. Training negatives come only from the first
    lambda_train clusters.
    """
    synth_cfg = make_setting(cfg.setting, seed=cfg.seed)
    data = gen_synthetic(synth_cfg)
    stream = RngStream(cfg.seed).child("protocol")
    gids = data.group_ids
    keep = (gids == POSITIVE_GROUP) | (gids <= round_half_up(synth_cfg.lambda_train))
    return _two_by_five(
        data,
        split_design_test(data, stream.child("halves")),
        lambda design, rng: _group_folds(design, gids[design], 5, rng),
        stream,
        keep,
    )


def tabular_replications(data: Dataset, seed: int) -> list[ReplicationData]:
    """The 2 x 5-fold protocol on an ingested dataset (skew left as-is).

    Halves and folds are dealt by class, so the class ratio of every set
    matches the data's up to rounding.
    """
    for cls in (1, -1):
        if int(np.count_nonzero(data.labels == cls)) < 10:
            raise DataError(f"class {cls:+d} needs at least 10 samples")

    def by_class(idx):
        return [idx[data.labels[idx] == cls] for cls in (1, -1)]

    stream = RngStream(seed).child("2x5")
    return _two_by_five(
        data,
        deal_folds(by_class(np.arange(data.m)), 2, stream.child("halves")),
        lambda design, rng: deal_folds(by_class(design), 5, rng),
        stream,
    )


def load_replications(cfg: ExperimentConfig) -> list[ReplicationData]:
    if cfg.source == "synthetic":
        return synthetic_replications(cfg)
    parse = parse_keel if cfg.source == "keel" else parse_csv
    return tabular_replications(parse(cfg.data_path, cfg.positive_token), cfg.seed)


def train_variant(
    spec: VariantSpec,
    train: Dataset,
    cfg: ExperimentConfig,
    learner_cfg: LearnerConfig,
    stream: RngStream,
) -> BoostedEnsemble:
    loss = FBetaLoss(cfg.beta) if spec.fbeta_loss else WeightedError()
    if spec.sampler in VARIANTS:
        if cfg.ensemble_size == "auto":
            n_rounds = max(1, round_half_up(train.m_neg / train.m_pos))
        else:
            n_rounds = int(cfg.ensemble_size)
        return run_boosting(
            spec.sampler, train, n_rounds, learner_cfg, loss, stream.child("boost")
        )
    if spec.sampler == "prus":
        partitioning = partition_ruswr(train.m_neg, train.m_pos, stream.child("part"))
    elif spec.sampler == "pcus":
        neg_features = train.features[train.neg_indices]
        partitioning = partition_cus(
            neg_features, default_k_range(train.m_neg), stream.child("part")
        )
    else:  # pa
        if train.group_ids is None:
            raise PBoostError("a-priori partitioning needs group ids in the data")
        partitioning = partition_apriori(train.group_ids[train.neg_indices])
    return pboost(
        train, partitioning, learner_cfg, rng=stream.child("boost"), loss_kind=loss
    )


def evaluate_ensemble(
    ensemble: BoostedEnsemble,
    validation: Dataset,
    test: Dataset,
    beta: float,
) -> dict:
    """Threshold from validation scores, then all test metrics at that point."""
    val_scores = predict_scores(ensemble, validation.features)
    threshold, _ = select_threshold_max_fbeta(val_scores, validation.labels, beta)
    test_scores, majority = _scores_and_majority(ensemble, test.features)
    preds = np.where(test_scores >= threshold, 1, -1)
    counts = weighted_confusion(test.labels, preds, np.ones(test.m))
    counts_maj = weighted_confusion(test.labels, majority, np.ones(test.m))
    curve, aupr = pr_curve_and_aupr(test_scores, test.labels)
    pi = test.m_pos / test.m
    return {
        "f_op": f_beta(counts, beta),
        "f_d": f_beta(counts_maj, beta),
        "g_mean": g_mean(counts),
        "expected_cost": expected_cost(counts, pi),
        "aupr": aupr,
        "threshold": threshold,
        "curve": curve,
    }


_METRICS = ("f_op", "f_d", "g_mean", "expected_cost", "aupr")
RESULT_COLUMNS = (
    "replication", "variant", "lambda_test", *_METRICS, "threshold", "ensemble_size"
)
AGGREGATE_COLUMNS = (
    "variant",
    "lambda_test",
    "n_runs",
    *(f"{metric}_{stat}" for metric in _METRICS for stat in ("mean", "std")),
)
COMPLEXITY_COLUMNS = (
    "replication", "variant", *(f.name for f in fields(ComplexityReport))
)
FAILURE_COLUMNS = ("replication", "variant", "error_type", "message")
CURVE_COLUMNS = ("threshold", "recall", "precision")


def run_replication_variant(
    rep: ReplicationData,
    token: str,
    cfg: ExperimentConfig,
    learner_cfg: LearnerConfig,
) -> dict:
    """Train one variant on one replication and evaluate it at every skew.

    Every skew's validation and test sets are drawn before the fit, so a
    skew the pools cannot reach fails the cell untrained. Returns the results
    rows (one per test skew, the pools' own skew when cfg.lambda_tests is
    empty), the complexity row and "files": the text of each file the cell
    adds to the run directory, by its path there. Those are the PR curves on
    replication 0 and, with cfg.dump_models, the ensemble record.
    """
    spec = parse_variant(token)
    stream = RngStream(cfg.seed).child("rep", rep.index, spec.token)
    skews = []  # (lambda_test, validation, test)
    for li, lam in enumerate(cfg.lambda_tests or (None,)):
        if lam is None:
            validation, test = rep.validation_pool, rep.test_pool
            lam = test.m_neg / test.m_pos
        else:
            eval_stream = stream.child("eval", li)
            validation = subsample_to_skew(
                rep.validation_pool, lam, eval_stream.child("val")
            )
            test = subsample_to_skew(rep.test_pool, lam, eval_stream.child("test"))
        skews.append((lam, validation, test))
    ensemble = train_variant(spec, rep.train, cfg, learner_cfg, stream)
    cell = {"replication": rep.index, "variant": spec.token}
    rows, files = [], {}
    for lam, validation, test in skews:
        metrics = evaluate_ensemble(ensemble, validation, test, cfg.beta)
        curve = metrics.pop("curve")
        if rep.index == 0:
            points = zip(
                curve.thresholds.tolist(), curve.recalls.tolist(), curve.precisions.tolist()
            )
            files[f"pr_curves/{spec.token}_lambda_{float(lam)!r}.csv"] = _csv_text(
                CURVE_COLUMNS, points
            )
        rows.append({**cell, "lambda_test": lam, "ensemble_size": ensemble.size, **metrics})
    if cfg.dump_models:
        files[f"ensembles/rep{rep.index}_{spec.token}.json"] = json.dumps(ensemble.to_record())
    complexity = {**cell, **asdict(complexity_report(ensemble))}
    return {"rows": rows, "complexity": complexity, "files": files}


def _csv_text(columns, rows) -> str:
    """A header of columns, then each row, a sequence of values in that
    order, as CSV."""
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(columns)
    writer.writerows(rows)
    return buffer.getvalue()


def _in_columns(columns, records):
    """Each record's values (a dict keyed by column) in the order of columns."""
    return ([record[c] for c in columns] for record in records)


def _run_cell(rep, token, cfg, learner_cfg):
    """run_replication_variant's result, or the exception it raised."""
    try:
        return run_replication_variant(rep, token, cfg, learner_cfg)
    except Exception as exc:  # listed in failures.csv, re-raised after the writes
        return exc


def run_experiment(
    cfg: ExperimentConfig, learner_cfg: LearnerConfig | None = None
) -> Path:
    """Run every (replication, variant) cell and write the run directory.

    Output is deterministic for a fixed seed regardless of the worker count
    because random streams are keyed by logical position, not execution order.
    After every cell has finished, one loop in the main process writes every
    file: results.csv, complexity.csv, aggregate.csv, summary.md (rendered
    from those rows, not read back), each cell's "files" and, if any cell
    failed, failures.csv naming each failed cell; the completed cells are
    still written, summary.md says how many failed, and the first failure is
    re-raised.
    """
    learner_cfg = learner_cfg or LearnerConfig()
    tasks = [
        (rep, parse_variant(token).token, cfg, learner_cfg)
        for rep in load_replications(cfg)
        for token in cfg.variants
    ]
    out = Path(cfg.out_dir)  # after loading, so a data error leaves no directory
    out.mkdir(parents=True, exist_ok=True)
    if cfg.jobs > 1:
        with ProcessPoolExecutor(max_workers=cfg.jobs) as pool:
            futures = [pool.submit(_run_cell, *t) for t in tasks]
            # a crashed worker fails the cells not yet finished; the rest keep
            outcomes = [f.exception() or f.result() for f in futures]
    else:
        outcomes = [_run_cell(*t) for t in tasks]
    failed = [
        (t, oc) for t, oc in zip(tasks, outcomes) if isinstance(oc, BaseException)
    ]
    done = [oc for oc in outcomes if not isinstance(oc, BaseException)]

    stale = [*out.glob("pr_curves/*_lambda_*.csv"), *out.glob("ensembles/rep*_*.json")]
    for path in [*stale, out / "failures.csv"]:  # written by an earlier run
        path.unlink(missing_ok=True)
    rows = [row for oc in done for row in oc["rows"]]
    complexity = [oc["complexity"] for oc in done]
    aggregate = aggregate_rows(rows, pooled=not cfg.lambda_tests)
    files = {
        "results.csv": _csv_text(RESULT_COLUMNS, _in_columns(RESULT_COLUMNS, rows)),
        "complexity.csv": _csv_text(
            COMPLEXITY_COLUMNS, _in_columns(COMPLEXITY_COLUMNS, complexity)
        ),
        "aggregate.csv": _csv_text(AGGREGATE_COLUMNS, _in_columns(AGGREGATE_COLUMNS, aggregate)),
        "summary.md": _summary_text(aggregate, complexity, len(failed)),
    }
    failures = [
        (rep.index, token, type(exc).__name__, str(exc)) for (rep, token, *_), exc in failed
    ]
    if failures:
        files["failures.csv"] = _csv_text(FAILURE_COLUMNS, failures)
    for oc in done:
        files.update(oc["files"])
    (out / "pr_curves").mkdir(exist_ok=True)  # even when replication 0 failed
    for name, text in files.items():
        (out / name).parent.mkdir(exist_ok=True)
        with open(out / name, "w", newline="") as fh:
            fh.write(text)
    if failed:
        raise failed[0][1]
    return out


def aggregate_rows(rows: list[dict], pooled: bool = False) -> list[dict]:
    """Mean and population standard deviation per (variant, lambda_test).

    pooled groups by variant alone, for rows each at its pools' own skew
    (which differs between the two halves when a class count is odd); a
    group whose skews differ is labelled with their mean.
    """
    groups: dict = {}  # first-seen order
    for row in rows:
        key = row["variant"] if pooled else (row["variant"], row["lambda_test"])
        groups.setdefault(key, []).append(row)
    out = []
    for group in groups.values():
        lams = [r["lambda_test"] for r in group]
        lam = lams[0] if len(set(lams)) == 1 else float(np.mean(lams))
        agg = {"variant": group[0]["variant"], "lambda_test": lam, "n_runs": len(group)}
        for metric in _METRICS:
            values = np.array([r[metric] for r in group], dtype=np.float64)
            agg[f"{metric}_mean"] = float(values.mean())
            agg[f"{metric}_std"] = float(values.std())
        out.append(agg)
    return out


def _summary_text(aggregate: list[dict], complexity: list[dict], n_failed: int) -> str:
    """summary.md: the aggregate rows and each variant's mean complexity totals
    as markdown tables, after a note of the failed cells if any failed."""
    lines = ["# Experiment summary", ""]
    if n_failed:
        total = n_failed + len(complexity)
        note = f"Partial run: {n_failed} of {total} cells failed; see failures.csv."
        lines += [f"**{note}**", ""]
    lines += ["## Mean ± std over replications", ""]
    lines.append("| variant | lambda_test | F_op | F_D | G-mean | EC | AUPR |")
    lines.append("|---|---|---|---|---|---|---|")
    for row in aggregate:
        cells = [row["variant"], f"{row['lambda_test']:g}"]
        for metric in _METRICS:
            cells.append(f"{row[f'{metric}_mean']:.3f} ± {row[f'{metric}_std']:.3f}")
        lines.append("| " + " | ".join(cells) + " |")

    lines += ["", "## Complexity totals (summed over accepted iterations)", ""]
    lines.append(
        "| variant | total n_tr | total n_val | total n_sv | n_sv x n_val | E |"
    )
    lines.append("|---|---|---|---|---|---|")
    by_variant: dict[str, list[dict]] = {}
    for row in complexity:
        by_variant.setdefault(row["variant"], []).append(row)
    columns = ("total_train", "total_val", "total_sv", "kernel_evals_design", "ensemble_size")
    for variant, group in by_variant.items():
        means = [np.mean([r[col] for r in group]) for col in columns]
        lines.append(f"| {variant} | " + " | ".join(f"{m:.1f}" for m in means) + " |")
    return "\n".join(lines) + "\n"
