"""Command-line experiment runner.

Exit codes: 0 success, 2 configuration error, 3 data error, 4 runtime error.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .errors import (
    MalformedHeader,
    MissingResults,
    MoreThanTwoClasses,
    NonNumericAttribute,
    PBoostError,
    TooFewSamples,
    UnknownSetting,
)
from .experiment import ExperimentConfig, emit_reports, run_experiment
from .keel import _read_key_values
from .svm import LearnerConfig

_DATA_ERRORS = (
    MalformedHeader,
    NonNumericAttribute,
    MoreThanTwoClasses,
    TooFewSamples,
    FileNotFoundError,
)


def _read_config_file(path: str) -> dict:
    text = Path(path).read_text()
    stripped = text.lstrip()
    if stripped.startswith("{"):
        return json.loads(text)
    return _read_key_values(text)


def _parse_bool(key: str, value) -> bool:
    if isinstance(value, bool):
        return value
    token = str(value).strip().lower()
    if token in ("true", "1"):
        return True
    if token in ("false", "0"):
        return False
    raise ValueError(f"{key} must be true, false, 1 or 0, not {value!r}")


def _parse_list(value, cast):
    if isinstance(value, (list, tuple)):
        return tuple(cast(v) for v in value)
    return tuple(cast(tok.strip()) for tok in str(value).split(",") if tok.strip())


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pboost", description="Boosting ensembles for imbalanced data"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run an experiment and write result CSVs")
    run.add_argument("--config", help="JSON or key=value config file")
    run.add_argument("--synthetic", help="synthetic setting name (D1, D2, D3)")
    run.add_argument("--keel", help="manifest file for a KEEL dataset")
    run.add_argument("--csv", help="CSV dataset with a trailing label column")
    run.add_argument("--positive-token", help="label token of the positive class")
    run.add_argument("--variants", help="comma list, e.g. RUS,RUS-F,PRUS-F")
    run.add_argument("--lambda-tests", help="comma list of test skews, e.g. 1,20,100")
    run.add_argument("--ensemble-size", help="integer or 'auto'")
    run.add_argument("--beta", type=float, help="F-measure beta (default 2)")
    run.add_argument("--seed", type=int, help="random seed (default 0)")
    run.add_argument("--jobs", type=int, help="parallel workers (default 1)")
    run.add_argument("--out", help="output directory")
    run.add_argument(
        "--dump-models", action="store_true", help="also write ensemble JSON dumps"
    )
    run.add_argument("--svm-c", type=float, help="SVM penalty C (default 1.0)")
    run.add_argument(
        "--svm-max-passes",
        type=int,
        help="SMO pass budget; a pass is n pair updates (default 10 x n_train)",
    )

    report = sub.add_parser("report", help="render summary.md from a run directory")
    report.add_argument("run_dir")
    return parser


def _config_from_args(args) -> tuple[ExperimentConfig, LearnerConfig]:
    raw = _read_config_file(args.config) if args.config else {}

    def pick(flag_value, key, default):
        if flag_value is not None:
            return flag_value
        return raw.get(key, default)

    source = None
    setting = pick(args.synthetic, "setting", "D2")
    data_path = ""
    if args.synthetic or raw.get("source") == "synthetic":
        source = "synthetic"
    if args.keel or raw.get("source") == "keel":
        source = "keel"
        data_path = pick(args.keel, "data_path", "")
    if args.csv or raw.get("source") == "csv":
        source = "csv"
        data_path = pick(args.csv, "data_path", "")
    if source is None:
        raise ValueError("one data source is required: --synthetic, --keel, or --csv")

    variants = pick(args.variants, "variants", None)
    if variants is None:
        raise ValueError("--variants is required")
    out_dir = pick(args.out, "out", None)
    if out_dir is None:
        raise ValueError("--out is required")
    ensemble_size = pick(args.ensemble_size, "ensemble_size", "auto")
    if ensemble_size != "auto":
        ensemble_size = int(ensemble_size)
    lambda_tests = pick(args.lambda_tests, "lambda_tests", ())

    cfg = ExperimentConfig(
        source=source,
        setting=setting,
        data_path=str(data_path),
        positive_token=str(pick(args.positive_token, "positive_token", "positive")),
        variants=_parse_list(variants, str),
        lambda_tests=_parse_list(lambda_tests, float) if lambda_tests else (),
        ensemble_size=ensemble_size,
        beta=float(pick(args.beta, "beta", 2.0)),
        seed=int(pick(args.seed, "seed", 0)),
        jobs=int(pick(args.jobs, "jobs", 1)),
        out_dir=str(out_dir),
        dump_models=_parse_bool("dump_models", raw.get("dump_models", False))
        or args.dump_models,
    )
    max_passes = pick(args.svm_max_passes, "svm_max_passes", None)
    learner_cfg = LearnerConfig(
        c_penalty=float(pick(args.svm_c, "svm_c", 1.0)),
        max_passes=None if max_passes is None else int(max_passes),
    )
    return cfg, learner_cfg


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "report":
        try:
            summary = emit_reports(args.run_dir)
        except MissingResults as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 3
        print(summary)
        return 0

    try:
        cfg, learner_cfg = _config_from_args(args)
    except (ValueError, UnknownSetting, json.JSONDecodeError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    try:
        out = run_experiment(cfg, learner_cfg)
    except _DATA_ERRORS as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 3
    except UnknownSetting as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except PBoostError as exc:
        print(f"runtime error: {exc}", file=sys.stderr)
        return 4
    print(out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
