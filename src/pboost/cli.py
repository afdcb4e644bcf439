"""Command-line experiment runner.

Exit codes: 0 success, 2 configuration error, 3 DataError, 4 runtime error.
"""

from __future__ import annotations

import argparse
import json
import sys
from concurrent.futures import BrokenExecutor
from pathlib import Path

from .data import is_integer
from .errors import DataError, PBoostError
from .experiment import ExperimentConfig, run_experiment
from .svm import LearnerConfig


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
    "positive_token": (str, "label token of the positive class (default positive)"),
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
    source.add_argument("--keel", help="KEEL .dat dataset file")
    source.add_argument("--csv", help="CSV dataset with a trailing label column")
    for key, (cast, text) in _KEYS.items():
        if text:
            run.add_argument("--" + key.replace("_", "-"), type=cast, help=text)
    run.add_argument(
        "--dump-models", action="store_true", default=None,
        help="also write ensemble JSON dumps",
    )
    return parser


def read_settings(path, casts: dict) -> dict:
    """Read a JSON object or `key = value` lines (# starts a comment line).

    Each value passes through casts[key]. An unknown key, a value its cast
    rejects, or JSON that is not one object raises ValueError.
    """
    text = Path(path).read_text()
    if text.lstrip().startswith(("{", "[")):
        raw = json.loads(text)
        if not isinstance(raw, dict):
            raise ValueError(f"{path}: expected one JSON object")
    else:
        raw = {}
        for line in text.splitlines():
            line = line.strip()
            if line and not line.startswith("#"):
                key, _, value = line.partition("=")
                raw[key.strip()] = value.strip()
    settings = {}
    for key, value in raw.items():
        if key not in casts:
            raise ValueError(f"{path}: unknown key {key!r}")
        try:
            settings[key] = casts[key](value)
        except (TypeError, ValueError) as exc:
            raise ValueError(f"{path}: {key}: {exc}") from None
    return settings


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
    learner = {
        field: settings.pop(key)
        for key, field in (("svm_c", "c_penalty"), ("svm_max_passes", "max_passes"))
        if key in settings
    }
    settings["out_dir"] = settings.pop("out")
    return ExperimentConfig(**settings), LearnerConfig(**learner)


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg, learner_cfg = _config_from_args(args)
    except (ValueError, OSError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    try:
        out = run_experiment(cfg, learner_cfg)
    except DataError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 3
    except (PBoostError, BrokenExecutor, OSError) as exc:
        # reading the data raises only DataError, so an OSError comes from --out
        print(f"runtime error: {exc}", file=sys.stderr)
        return 4
    print(out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
