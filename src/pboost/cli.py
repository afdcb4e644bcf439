"""Command-line experiment runner.

Exit codes: 0 success, 2 configuration error, 3 data error, 4 runtime error.
"""

from __future__ import annotations

import argparse
import sys
from concurrent.futures import BrokenExecutor
from pathlib import Path

from .data import is_integer
from .errors import (
    MalformedHeader,
    MissingResults,
    MoreThanTwoClasses,
    NoPositives,
    NonNumericAttribute,
    PBoostError,
    TooFewSamples,
    UnknownSetting,
)
from .experiment import ExperimentConfig, emit_reports, partial_run_note, run_experiment
from .keel import load_manifest, read_settings
from .svm import LearnerConfig

_DATA_ERRORS = (
    MalformedHeader,
    NonNumericAttribute,
    MoreThanTwoClasses,
    NoPositives,
    TooFewSamples,
    UnicodeDecodeError,  # a data file that is not UTF-8
)


def _parse_bool(value) -> bool:
    token = str(value).strip().lower()
    if token not in ("true", "1", "false", "0"):
        raise ValueError(f"expected true, false, 1 or 0, not {value!r}")
    return token in ("true", "1")


def _list_of(cast):
    def parse(value):
        items = value if isinstance(value, list) else str(value).split(",")
        return tuple(cast(tok) for tok in (str(item).strip() for item in items) if tok)

    parse.__name__ = f"{cast.__name__} list"  # named in argparse's error message
    return parse


def _integer(value) -> int:
    """int() of a flag or key=value string. A JSON value is kept as it is,
    after the configs' own integer test, since a flag may replace it before
    the configs see it."""
    if isinstance(value, str):
        return int(value)
    if not is_integer(value):
        raise ValueError(f"expected an integer, not {value!r}")
    return value


_integer.__name__ = "int"  # named in argparse's error message


def _ensemble_size(value):
    return value if value == "auto" else _integer(value)


# config-file key -> (cast, flag help). The flag of the same name (dashes for
# underscores) overrides the file; keys without help have no flag of their own:
# --synthetic, --keel and --csv set source and the setting or data_path.
_KEYS = {
    "source": (str, None),
    "setting": (str, None),
    "data_path": (str, None),
    "positive_token": (str, "label token of the positive class"),
    "variants": (_list_of(str), "comma list, e.g. RUS,RUS-F,PRUS-F"),
    "lambda_tests": (_list_of(float), "comma list of test skews, e.g. 1,20,100"),
    "ensemble_size": (_ensemble_size, "integer or 'auto'"),
    "beta": (float, "F-measure beta"),
    "seed": (_integer, "random seed"),
    "jobs": (_integer, "parallel workers"),
    "out": (str, "output directory"),
    "dump_models": (_parse_bool, None),  # --dump-models is a switch
    "svm_c": (float, "SVM penalty C"),
    "svm_max_passes": (_integer, "SMO pass budget; a pass is n pair updates"),
}
_CASTS = {key: cast for key, (cast, _) in _KEYS.items()}
_SOURCES = {"synthetic": "setting", "keel": "data_path", "csv": "data_path"}
_REQUIRED = {
    "source": "one data source (--synthetic, --keel or --csv)",
    "variants": "--variants",
    "out": "--out",
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pboost", description="Boosting ensembles for imbalanced data"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run an experiment and write result CSVs")
    run.add_argument("--config", help="JSON or key=value file; flags override it")
    source = run.add_mutually_exclusive_group()
    source.add_argument("--synthetic", help="synthetic setting name (D1, D2, D3)")
    source.add_argument("--keel", help="manifest file for a KEEL dataset")
    source.add_argument("--csv", help="CSV dataset with a trailing label column")
    for key, (cast, text) in _KEYS.items():
        if text:
            run.add_argument("--" + key.replace("_", "-"), type=cast, help=text)
    run.add_argument(
        "--dump-models", action="store_true", default=None,
        help="also write ensemble JSON dumps",
    )

    report = sub.add_parser("report", help="render summary.md from a run directory")
    report.add_argument("run_dir")
    return parser


def _config_from_args(args) -> tuple[ExperimentConfig, LearnerConfig]:
    settings = read_settings(args.config, _CASTS) if args.config else {}
    for key in _KEYS:
        if getattr(args, key, None) is not None:
            settings[key] = getattr(args, key)
    for source, key in _SOURCES.items():
        if getattr(args, source) is not None:
            settings.update({"source": source, key: getattr(args, source)})
    for key, flag in _REQUIRED.items():
        if key not in settings:
            raise ValueError(f"{flag} is required")
    if settings["source"] in ("keel", "csv") and not settings.get("data_path"):
        raise ValueError(f"source {settings['source']} needs a data_path")
    if settings["source"] == "keel":
        manifest = load_manifest(settings["data_path"])
        settings["data_path"] = manifest.path
        settings["positive_token"] = manifest.positive_label_token
    learner = {
        field: settings.pop(key)
        for key, field in (("svm_c", "c_penalty"), ("svm_max_passes", "max_passes"))
        if key in settings
    }
    settings["out_dir"] = settings.pop("out")
    return ExperimentConfig(**settings), LearnerConfig(**learner)


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
        note = partial_run_note(args.run_dir)
        if note:
            print(note, file=sys.stderr)
        return 0

    try:
        cfg, learner_cfg = _config_from_args(args)
    except (ValueError, OSError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    try:
        out = run_experiment(cfg, learner_cfg)
    except _DATA_ERRORS as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        # a data error only when reading the data file failed (missing, a
        # directory, unreadable); an --out that cannot be written is not
        on_data = exc.filename is not None and Path(exc.filename) == Path(cfg.data_path)
        print(f"{'data' if on_data else 'runtime'} error: {exc}", file=sys.stderr)
        return 3 if on_data else 4
    except UnknownSetting as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (PBoostError, BrokenExecutor) as exc:
        print(f"runtime error: {exc}", file=sys.stderr)
        return 4
    print(out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
