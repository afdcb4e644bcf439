"""Parsing KEEL-format and CSV datasets plus the 2x5 cross-validation split."""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .data import Dataset, stratified_kfold
from .errors import (
    MalformedHeader,
    MoreThanTwoClasses,
    NonNumericAttribute,
    TooFewSamples,
)
from .rng import RngStream


@dataclass(frozen=True)
class DatasetManifest:
    name: str
    path: str
    positive_label_token: str
    expected_lambda: float | None = None

    def __post_init__(self):
        if not self.positive_label_token:
            raise ValueError("positive_label_token must be nonempty")


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


def load_manifest(path) -> DatasetManifest:
    """One dataset's manifest: a JSON object or key = value lines."""
    required = {"name": str, "path": str, "positive_label_token": str}
    fields = read_settings(path, {**required, "expected_lambda": float})
    missing = [key for key in required if key not in fields]
    if missing:
        raise ValueError(f"{path}: missing key(s) {', '.join(missing)}")
    return DatasetManifest(**fields)


def _labels_from_tokens(tokens: list[str], positive_token: str) -> np.ndarray:
    norm = [t.strip().lower() for t in tokens]
    classes = sorted(set(norm))
    if len(classes) > 2:
        raise MoreThanTwoClasses(f"found class tokens {classes}")
    pos = positive_token.strip().lower()
    if pos not in classes:
        raise ValueError(f"positive token {positive_token!r} not among {classes}")
    return np.array([1 if t == pos else -1 for t in norm], dtype=np.int64)


def parse_keel(path, positive_label_token: str) -> Dataset:
    """Read a KEEL .dat file with numeric inputs and a binary class output.

    The class token matching positive_label_token (case-insensitive, trimmed)
    maps to +1 and the other token to -1. Attribute range annotations in the
    header are ignored; missing values are rejected.
    """
    lines = Path(path).read_text().splitlines()
    attributes: list[str] = []
    output_name = None
    in_data = False
    rows: list[list[str]] = []
    for line in lines:
        line = line.strip()
        if not line:
            continue
        if in_data:
            rows.append([tok.strip() for tok in line.split(",")])
            continue
        lower = line.lower()
        if lower.startswith("@relation"):
            continue
        if lower.startswith("@attribute"):
            rest = line.split(None, 1)[1].strip()
            name = rest.split("[")[0].split("{")[0].split()[0].strip()
            attributes.append(name)
        elif lower.startswith("@inputs"):
            continue
        elif lower.startswith("@outputs") or lower.startswith("@output"):
            output_name = line.split(None, 1)[1].strip().rstrip(",")
        elif lower.startswith("@data"):
            in_data = True
        else:
            raise MalformedHeader(f"unrecognised header line: {line!r}")
    if not in_data or not attributes:
        raise MalformedHeader("file lacks @attribute/@data sections")
    names = [a.lower() for a in attributes]
    if output_name is not None and output_name.lower() in names:
        class_col = names.index(output_name.lower())
    else:
        class_col = len(attributes) - 1
    feature_cols = [i for i in range(len(attributes)) if i != class_col]

    features = np.empty((len(rows), len(feature_cols)))
    tokens: list[str] = []
    for r, row in enumerate(rows):
        if len(row) != len(attributes):
            raise MalformedHeader(
                f"row {r} has {len(row)} values, header declares {len(attributes)}"
            )
        for c, col in enumerate(feature_cols):
            try:
                features[r, c] = float(row[col])
            except ValueError:
                raise NonNumericAttribute(
                    f"row {r}, attribute {attributes[col]!r}: {row[col]!r}"
                )
        tokens.append(row[class_col])
    labels = _labels_from_tokens(tokens, positive_label_token)
    return Dataset(features, labels)


def parse_csv(path, positive_label_token: str) -> Dataset:
    """Generic CSV: numeric feature columns with the label in the last column.

    A non-numeric first line is treated as a header and skipped.
    """
    lines = [l.strip() for l in Path(path).read_text().splitlines() if l.strip()]
    if not lines:
        raise MalformedHeader("empty file")
    first = lines[0].split(",")
    try:
        float(first[0])
    except ValueError:
        lines = lines[1:]
    rows = [[tok.strip() for tok in line.split(",")] for line in lines]
    width = len(rows[0])
    features = np.empty((len(rows), width - 1))
    tokens = []
    for r, row in enumerate(rows):
        if len(row) != width:
            raise MalformedHeader(f"row {r} has {len(row)} values, expected {width}")
        for c in range(width - 1):
            try:
                features[r, c] = float(row[c])
            except ValueError:
                raise NonNumericAttribute(f"row {r}, column {c}: {row[c]!r}")
        tokens.append(row[-1])
    labels = _labels_from_tokens(tokens, positive_label_token)
    return Dataset(features, labels)


def write_csv(data: Dataset, path) -> None:
    """Write rows the parse_csv reader accepts: features then a ±1 label."""
    with open(path, "w") as fh:
        for row, label in zip(data.features, data.labels):
            fh.write(",".join(repr(float(v)) for v in row))
            fh.write(f",{int(label)}\n")


@dataclass(frozen=True)
class Replication:
    """One train/validation/test split of a 2x5 cross-validation run."""

    train: np.ndarray
    validation: np.ndarray
    test: np.ndarray


def make_2x5_folds(data: Dataset, seed: int) -> list[Replication]:
    """Ten replications from a stratified half split and 5 folds per half.

    Each half serves once as the design set (4 folds train, 1 fold
    validation, rotating) with the other half as test; reversing the roles
    doubles 5 rotations to 10 replications. Class ratios match across the
    three sets up to rounding.
    """
    for cls in (1, -1):
        if int(np.count_nonzero(data.labels == cls)) < 10:
            raise TooFewSamples(f"class {cls:+d} needs at least 10 samples")
    stream = RngStream(seed).child("2x5")
    halves = stratified_kfold(data, 2, stream.child("halves"))
    replications = []
    for h, (other_half, half) in enumerate(halves):
        design = data.select(half)
        folds = stratified_kfold(design, 5, stream.child("folds", h))
        for train_local, val_local in folds:
            replications.append(
                Replication(
                    train=half[train_local],
                    validation=half[val_local],
                    test=other_half,
                )
            )
    return replications
