"""End-to-end experiment protocol: replications, training, threshold
selection on validation data, evaluation across test skews, and CSV output."""

from __future__ import annotations

import json
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .boosting import (
    BoostedEnsemble,
    FBetaLoss,
    WeightedError,
    _scores_and_majority,
    complexity_report,
    pboost,
    predict_majority_labels,  # noqa: F401  (bound here for benchmarks/tracing.py)
    predict_scores,
    run_boosting,
)
from .data import Dataset, round_half_up, subsample_to_skew
from .datagen import POSITIVE_GROUP, gen_synthetic, make_setting, split_design_test
from .errors import MissingResults, PBoostError
from .keel import load_manifest, make_2x5_folds, parse_csv, parse_keel
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

BASELINE_SAMPLERS = {"ADA": "ada", "SMT": "smt", "RUS": "rus", "RB": "rb"}
PROGRESSIVE_SAMPLERS = ("PRUS", "PCUS", "PA")


@dataclass(frozen=True)
class VariantSpec:
    token: str  # canonical token, e.g. "RUS" or "PRUS-F"
    sampler: str  # ada/smt/rus/rb/prus/pcus/pa
    fbeta_loss: bool


def parse_variant(token: str) -> VariantSpec:
    canon = token.strip().upper()
    base, _, suffix = canon.partition("-")
    fbeta = suffix == "F"
    if suffix not in ("", "F"):
        raise ValueError(f"unknown variant token {token!r}")
    if base in BASELINE_SAMPLERS:
        return VariantSpec(canon, BASELINE_SAMPLERS[base], fbeta)
    if base in PROGRESSIVE_SAMPLERS:
        return VariantSpec(canon, base.lower(), fbeta)
    raise ValueError(f"unknown variant token {token!r}")


@dataclass(frozen=True)
class ExperimentConfig:
    source: str  # "synthetic" | "keel" | "csv"
    variants: tuple[str, ...]
    out_dir: str
    setting: str = "D2"  # synthetic setting name
    data_path: str = ""  # manifest or csv path for keel/csv sources
    positive_token: str = "positive"
    ensemble_size: int | str = "auto"
    beta: float = 2.0
    lambda_tests: tuple[float, ...] = ()
    seed: int = 0
    jobs: int = 1
    dump_models: bool = False

    def __post_init__(self):
        if not self.variants:
            raise ValueError("at least one variant is required")
        for token in self.variants:
            parse_variant(token)
        if self.ensemble_size != "auto" and int(self.ensemble_size) < 1:
            raise ValueError("ensemble_size must be 'auto' or a positive integer")


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
    for gid in np.unique(gids):
        idx = gen.permutation(indices[gids == gid])
        for f in range(k):
            folds[f].append(idx[f::k])
    return [np.sort(np.concatenate(f)) for f in folds]


def synthetic_replications(cfg: ExperimentConfig) -> list[ReplicationData]:
    """The 2 x 5-fold protocol on generated data.

    Each half of every cluster serves once as design and once as test; the
    design half is folded five ways, four folds train and one validates.
    Training negatives come only from the first lambda_train clusters.
    """
    synth_cfg = make_setting(cfg.setting, seed=cfg.seed)
    data = gen_synthetic(synth_cfg)
    stream = RngStream(cfg.seed).child("protocol")
    design_idx, test_idx = split_design_test(data, stream.child("halves"))
    n_train_clusters = round_half_up(synth_cfg.lambda_train)
    replications = []
    rep = 0
    for half_id, (design, test) in enumerate(
        [(design_idx, test_idx), (test_idx, design_idx)]
    ):
        folds = _group_folds(
            design, data.group_ids[design], 5, stream.child("folds", half_id)
        )
        for v in range(5):
            val_idx = folds[v]
            train_idx = np.sort(
                np.concatenate([folds[f] for f in range(5) if f != v])
            )
            gids = data.group_ids[train_idx]
            keep = (gids == POSITIVE_GROUP) | (gids <= n_train_clusters)
            replications.append(
                ReplicationData(
                    index=rep,
                    train=data.select(train_idx[keep]),
                    validation_pool=data.select(val_idx),
                    test_pool=data.select(test),
                )
            )
            rep += 1
    return replications


def tabular_replications(data: Dataset, cfg: ExperimentConfig) -> list[ReplicationData]:
    """2 x 5-fold replications of an ingested dataset (skew left as-is)."""
    reps = make_2x5_folds(data, cfg.seed)
    return [
        ReplicationData(
            index=i,
            train=data.select(r.train),
            validation_pool=data.select(r.validation),
            test_pool=data.select(r.test),
        )
        for i, r in enumerate(reps)
    ]


def load_replications(cfg: ExperimentConfig) -> list[ReplicationData]:
    if cfg.source == "synthetic":
        return synthetic_replications(cfg)
    if cfg.source == "keel":
        manifest = load_manifest(cfg.data_path)[0]
        data = parse_keel(manifest.path, manifest.positive_label_token)
        return tabular_replications(data, cfg)
    if cfg.source == "csv":
        data = parse_csv(cfg.data_path, cfg.positive_token)
        return tabular_replications(data, cfg)
    raise ValueError(f"unknown source {cfg.source!r}")


def train_variant(
    spec: VariantSpec,
    train: Dataset,
    cfg: ExperimentConfig,
    learner_cfg: LearnerConfig,
    stream: RngStream,
) -> BoostedEnsemble:
    loss = FBetaLoss(cfg.beta) if spec.fbeta_loss else WeightedError()
    if spec.sampler in BASELINE_SAMPLERS.values():
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
        partitioning, _ = partition_cus(
            neg_features, default_k_range(train.m_neg), stream.child("part")
        )
    else:  # pa
        if train.group_ids is None:
            raise PBoostError("a-priori partitioning needs group ids in the data")
        partitioning = partition_apriori(train.group_ids[train.neg_indices])
    return pboost(
        train,
        partitioning,
        learner_cfg,
        cfg.beta,
        stream.child("boost"),
        loss_kind=loss,
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
        "expected_cost": expected_cost(counts, pi, 1.0, 1.0),
        "aupr": aupr,
        "threshold": threshold,
        "curve": curve,
    }


RESULT_COLUMNS = (
    "replication",
    "variant",
    "lambda_test",
    "f_op",
    "f_d",
    "g_mean",
    "expected_cost",
    "aupr",
    "threshold",
    "ensemble_size",
)

COMPLEXITY_COLUMNS = (
    "replication",
    "variant",
    "total_train",
    "total_val",
    "total_sv",
    "kernel_evals_design",
    "ensemble_size",
    "discarded_attempts",
)


def _native_lambda(data: Dataset) -> float:
    return data.m_neg / data.m_pos


def run_replication_variant(
    rep: ReplicationData,
    token: str,
    cfg: ExperimentConfig,
    learner_cfg: LearnerConfig,
) -> dict:
    """Train one variant on one replication and evaluate it at every skew."""
    spec = parse_variant(token)
    stream = RngStream(cfg.seed).child("rep", rep.index, spec.token)
    ensemble = train_variant(spec, rep.train, cfg, learner_cfg, stream)
    lambdas = cfg.lambda_tests or (None,)
    rows = []
    curves = {}
    for li, lam in enumerate(lambdas):
        if lam is None:
            validation, test = rep.validation_pool, rep.test_pool
            lam_value = _native_lambda(rep.test_pool)
        else:
            eval_stream = stream.child("eval", li)
            validation = subsample_to_skew(
                rep.validation_pool, lam, eval_stream.child("val")
            )
            test = subsample_to_skew(rep.test_pool, lam, eval_stream.child("test"))
            lam_value = lam
        metrics = evaluate_ensemble(ensemble, validation, test, cfg.beta)
        curves[lam_value] = metrics.pop("curve")
        rows.append(
            {
                "replication": rep.index,
                "variant": spec.token,
                "lambda_test": lam_value,
                "ensemble_size": ensemble.size,
                **metrics,
            }
        )
    report = complexity_report(ensemble)
    complexity_row = {
        "replication": rep.index,
        "variant": spec.token,
        "total_train": report.total_train,
        "total_val": report.total_val,
        "total_sv": report.total_sv,
        "kernel_evals_design": report.kernel_evals_design,
        "ensemble_size": report.ensemble_size,
        "discarded_attempts": report.discarded_attempts,
    }
    return {
        "rows": rows,
        "complexity": complexity_row,
        "curves": curves if rep.index == 0 else {},
        "ensemble_record": ensemble.to_record() if cfg.dump_models else None,
        "key": (rep.index, spec.token),
    }


def _format_value(value) -> str:
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _write_csv(path: Path, columns, rows) -> None:
    with open(path, "w") as fh:
        fh.write(",".join(columns) + "\n")
        for row in rows:
            fh.write(",".join(_format_value(row[c]) for c in columns) + "\n")


def _task(payload):
    rep, token, cfg, learner_cfg = payload
    try:
        return run_replication_variant(rep, token, cfg, learner_cfg)
    except Exception as exc:  # re-raised by the collector after partial writes
        return {"key": (rep.index, parse_variant(token).token), "error": exc}


def run_experiment(
    cfg: ExperimentConfig, learner_cfg: LearnerConfig | None = None
) -> Path:
    """Run every (replication, variant) cell and write result files.

    Output is deterministic for a fixed seed regardless of the worker count
    because random streams are keyed by logical position, not execution order.
    """
    learner_cfg = learner_cfg or LearnerConfig()
    out = Path(cfg.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    replications = load_replications(cfg)
    tasks = [
        (rep, token, cfg, learner_cfg)
        for rep in replications
        for token in cfg.variants
    ]
    if cfg.jobs > 1:
        with ProcessPoolExecutor(max_workers=cfg.jobs) as pool:
            outcomes = list(pool.map(_task, tasks))
    else:
        outcomes = [_task(t) for t in tasks]
    order = {
        (rep.index, parse_variant(token).token): i
        for i, (rep, token, *_rest) in enumerate(tasks)
    }
    outcomes.sort(key=lambda oc: order[oc["key"]])
    failures = [oc for oc in outcomes if "error" in oc]
    outcomes = [oc for oc in outcomes if "error" not in oc]

    rows = [row for oc in outcomes for row in oc["rows"]]
    complexity_rows = [oc["complexity"] for oc in outcomes]
    _write_csv(out / "results.csv", RESULT_COLUMNS, rows)
    _write_csv(out / "complexity.csv", COMPLEXITY_COLUMNS, complexity_rows)
    _write_csv(out / "aggregate.csv", AGGREGATE_COLUMNS, aggregate_rows(rows))

    curve_dir = out / "pr_curves"
    curve_dir.mkdir(exist_ok=True)
    for oc in outcomes:
        for lam, curve in oc["curves"].items():
            name = f"{oc['key'][1]}_lambda_{_format_value(float(lam))}.csv"
            with open(curve_dir / name, "w") as fh:
                fh.write("threshold,recall,precision\n")
                for t, r, p in curve.csv_rows():
                    fh.write(f"{t!r},{r!r},{p!r}\n")

    if cfg.dump_models:
        model_dir = out / "ensembles"
        model_dir.mkdir(exist_ok=True)
        for oc in outcomes:
            if oc["ensemble_record"] is not None:
                rep_idx, token = oc["key"]
                with open(model_dir / f"rep{rep_idx}_{token}.json", "w") as fh:
                    json.dump(oc["ensemble_record"], fh)

    if outcomes:
        emit_reports(out)
    if failures:
        # completed cells are already on disk; surface the first failure
        raise failures[0]["error"]
    return out


AGGREGATE_COLUMNS = (
    "variant",
    "lambda_test",
    "n_runs",
    "f_op_mean",
    "f_op_std",
    "f_d_mean",
    "f_d_std",
    "g_mean_mean",
    "g_mean_std",
    "expected_cost_mean",
    "expected_cost_std",
    "aupr_mean",
    "aupr_std",
)


def aggregate_rows(rows: list[dict]) -> list[dict]:
    """Mean and population standard deviation per (variant, lambda_test)."""
    keys = []
    for row in rows:
        key = (row["variant"], row["lambda_test"])
        if key not in keys:
            keys.append(key)
    out = []
    for variant, lam in keys:
        group = [
            r for r in rows if r["variant"] == variant and r["lambda_test"] == lam
        ]
        agg = {"variant": variant, "lambda_test": lam, "n_runs": len(group)}
        for metric in ("f_op", "f_d", "g_mean", "expected_cost", "aupr"):
            values = np.array([r[metric] for r in group], dtype=np.float64)
            agg[f"{metric}_mean"] = float(values.mean())
            agg[f"{metric}_std"] = float(values.std())
        out.append(agg)
    return out


def _read_csv(path: Path) -> list[dict]:
    lines = path.read_text().splitlines()
    header = lines[0].split(",")
    return [dict(zip(header, line.split(","))) for line in lines[1:]]


def emit_reports(run_dir) -> Path:
    """Render aggregate and complexity tables as a markdown summary."""
    run_dir = Path(run_dir)
    results = run_dir / "results.csv"
    if not results.exists():
        raise MissingResults(f"no results.csv under {run_dir}")
    agg = _read_csv(run_dir / "aggregate.csv")
    complexity = _read_csv(run_dir / "complexity.csv")

    lines = ["# Experiment summary", "", "## Mean ± std over replications", ""]
    lines.append("| variant | lambda_test | F_op | F_D | G-mean | EC | AUPR |")
    lines.append("|---|---|---|---|---|---|---|")
    for row in agg:
        cells = [row["variant"], _short(row["lambda_test"])]
        for metric in ("f_op", "f_d", "g_mean", "expected_cost", "aupr"):
            cells.append(
                f"{float(row[f'{metric}_mean']):.3f} ± {float(row[f'{metric}_std']):.3f}"
            )
        lines.append("| " + " | ".join(cells) + " |")

    lines += ["", "## Complexity totals (summed over accepted iterations)", ""]
    lines.append(
        "| variant | total n_tr | total n_val | total n_sv | n_sv x n_val | E |"
    )
    lines.append("|---|---|---|---|---|---|")
    by_variant: dict[str, list[dict]] = {}
    for row in complexity:
        by_variant.setdefault(row["variant"], []).append(row)
    for variant, group in by_variant.items():
        means = {
            col: np.mean([float(r[col]) for r in group])
            for col in (
                "total_train",
                "total_val",
                "total_sv",
                "kernel_evals_design",
                "ensemble_size",
            )
        }
        lines.append(
            f"| {variant} | {means['total_train']:.1f} | {means['total_val']:.1f} "
            f"| {means['total_sv']:.1f} | {means['kernel_evals_design']:.1f} "
            f"| {means['ensemble_size']:.1f} |"
        )
    summary = run_dir / "summary.md"
    summary.write_text("\n".join(lines) + "\n")
    return summary


def _short(value: str) -> str:
    try:
        return f"{float(value):g}"
    except ValueError:
        return value
