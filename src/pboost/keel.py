"""Parsing KEEL-format and CSV datasets, manifests and settings files."""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .data import Dataset
from .errors import (
    DataError,
    MalformedHeader,
    MoreThanTwoClasses,
    NoPositives,
    NonNumericAttribute,
)


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


def _read_lines(path) -> list[str]:
    """The lines of a UTF-8 data file. A file that cannot be read or decoded
    is a DataError naming the path."""
    try:
        return Path(path).read_text(encoding="utf-8").splitlines()
    except (OSError, UnicodeDecodeError) as exc:
        # an OSError's str() repeats the path; its strerror does not
        raise DataError(f"{path}: {getattr(exc, 'strerror', None) or exc}") from exc


def _table(
    rows: list[list[str]], names: list[str], class_col: int, positive_token: str
) -> Dataset:
    """The Dataset of rows split into stripped cells, one per column name.

    Every row must have one cell per name, and every cell outside the class
    column must parse as a finite float. The class tokens, matched
    case-insensitively, must be at most two, and the positive token must
    name at least one row: it maps to +1 and the other token to -1.
    """
    if not rows:
        raise MalformedHeader("file has no data rows")
    feature_cols = [c for c in range(len(names)) if c != class_col]
    features = np.empty((len(rows), len(feature_cols)))
    for r, row in enumerate(rows):
        if len(row) != len(names):
            raise MalformedHeader(f"row {r} has {len(row)} values, expected {len(names)}")
        for c, col in enumerate(feature_cols):
            try:
                value = float(row[col])
            except ValueError:
                value = math.nan
            if not math.isfinite(value):
                raise NonNumericAttribute(f"row {r}, column {names[col]}: {row[col]!r}")
            features[r, c] = value
    tokens = [row[class_col].lower() for row in rows]
    classes = sorted(set(tokens))
    if len(classes) > 2:
        raise MoreThanTwoClasses(f"found class tokens {classes}")
    pos = positive_token.strip().lower()
    if pos not in classes:
        raise NoPositives(f"positive token {positive_token!r} not among {classes}")
    return Dataset(features, np.array([1 if t == pos else -1 for t in tokens]))


def parse_keel(path, positive_label_token: str) -> Dataset:
    """Read a KEEL .dat file with numeric inputs and a binary class output.

    The class token matching positive_label_token (case-insensitive, trimmed)
    maps to +1 and the other token to -1. Attribute range annotations in the
    header are ignored; missing values are rejected.
    """
    attributes: list[str] = []
    output_name = None
    in_data = False
    rows: list[list[str]] = []
    for line in _read_lines(path):
        line = line.strip()
        if not line:
            continue
        if in_data:
            rows.append([tok.strip() for tok in line.split(",")])
            continue
        lower = line.lower()
        if lower.startswith(("@relation", "@inputs")):
            continue
        rest = "".join(line.split(None, 1)[1:])  # what follows the keyword
        if lower.startswith("@attribute"):
            name = rest.split("[")[0].split("{")[0].split()
            if not name:
                raise MalformedHeader(f"header line names no attribute: {line!r}")
            attributes.append(name[0])
        elif lower.startswith("@output"):  # @output or @outputs
            if not rest:
                raise MalformedHeader(f"header line names no attribute: {line!r}")
            output_name = rest.rstrip(",")
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
    return _table(rows, attributes, class_col, positive_label_token)


def parse_csv(path, positive_label_token: str) -> Dataset:
    """Generic CSV: numeric feature columns with the label in the last column.

    A first line whose first cell is not a number is treated as a header and
    skipped. Columns are named by position.
    """
    lines = _read_lines(path)
    rows = [[tok.strip() for tok in line.split(",")] for line in lines if line.strip()]
    if rows:
        try:
            float(rows[0][0])
        except ValueError:
            rows = rows[1:]
    width = len(rows[0]) if rows else 0
    return _table(rows, [str(c) for c in range(width)], width - 1, positive_label_token)
