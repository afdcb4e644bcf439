"""Parsing KEEL-format and CSV datasets.

Each dataset is one file and a positive class token: the rows of that token
(matched case-insensitively) are +1, the rows of the other token -1.
"""

from __future__ import annotations

import math
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


def _located(kind: type[DataError], path, line: int | None, message: str) -> DataError:
    """A data error whose message starts with `path:line:`, or `path:` when
    no one line is at fault."""
    where = path if line is None else f"{path}:{line}"
    return kind(f"{where}: {message}")


def _read_lines(path) -> list[tuple[int, str]]:
    """The non-blank lines of a UTF-8 data file, stripped, each with its
    1-based line number. A file that cannot be read or decoded is a
    DataError naming the path."""
    try:
        lines = Path(path).read_text(encoding="utf-8").splitlines()
    except (OSError, UnicodeDecodeError) as exc:
        # an OSError's str() repeats the path; its strerror does not
        raise _located(DataError, path, None, getattr(exc, "strerror", None) or exc) from exc
    return [(n, line.strip()) for n, line in enumerate(lines, 1) if line.strip()]


def _table(
    path, rows: list[tuple[int, list[str]]], names: list[str], class_col: int,
    positive_token: str,
) -> Dataset:
    """The Dataset of numbered rows split into stripped cells, one per column
    name.

    There must be a column besides the class column. Every row must have
    one cell per name, and every cell outside the class column must parse
    as a finite float. The class tokens, matched case-insensitively, must be
    at most two, and the positive token must name at least one row: it maps
    to +1 and the other token to -1.
    """
    if not rows:
        raise _located(MalformedHeader, path, None, "file has no data rows")
    feature_cols = [c for c in range(len(names)) if c != class_col]
    if not feature_cols:
        raise _located(MalformedHeader, path, None, "file has no feature column")
    features = np.empty((len(rows), len(feature_cols)))
    for r, (line, row) in enumerate(rows):
        if len(row) != len(names):
            raise _located(
                MalformedHeader, path, line, f"{len(row)} values, expected {len(names)}"
            )
        for c, col in enumerate(feature_cols):
            try:
                value = float(row[col])
            except ValueError:
                value = math.nan
            if not math.isfinite(value):
                raise _located(
                    NonNumericAttribute, path, line, f"column {names[col]}: {row[col]!r}"
                )
            features[r, c] = value
    tokens = [row[class_col].lower() for _, row in rows]
    classes = sorted(set(tokens))
    if len(classes) > 2:
        raise _located(MoreThanTwoClasses, path, None, f"found class tokens {classes}")
    pos = positive_token.strip().lower()
    if pos not in classes:
        raise _located(
            NoPositives, path, None, f"positive token {positive_token!r} not among {classes}"
        )
    return Dataset(features, np.array([1 if t == pos else -1 for t in tokens]))


def parse_keel(path, positive_token: str) -> Dataset:
    """Read a KEEL .dat file with numeric inputs and a binary class output.

    The class token matching positive_token (case-insensitive, trimmed)
    maps to +1 and the other token to -1. Attribute range annotations in the
    header are ignored; missing values are rejected.
    """
    attributes: list[str] = []
    output_name = None
    in_data = False
    rows: list[tuple[int, list[str]]] = []
    for n, line in _read_lines(path):
        if in_data:
            rows.append((n, [tok.strip() for tok in line.split(",")]))
            continue
        lower = line.lower()
        if lower.startswith(("@relation", "@inputs")):
            continue
        rest = "".join(line.split(None, 1)[1:])  # what follows the keyword
        if lower.startswith("@attribute"):
            name = rest.split("[")[0].split("{")[0].split()
            if not name:
                raise _located(
                    MalformedHeader, path, n, f"header line names no attribute: {line!r}"
                )
            attributes.append(name[0])
        elif lower.startswith("@output"):  # @output or @outputs
            if not rest:
                raise _located(
                    MalformedHeader, path, n, f"header line names no attribute: {line!r}"
                )
            output_name = rest.rstrip(",")
        elif lower.startswith("@data"):
            in_data = True
        else:
            raise _located(MalformedHeader, path, n, f"unrecognised header line: {line!r}")
    if not in_data or not attributes:
        raise _located(MalformedHeader, path, None, "file lacks @attribute/@data sections")
    names = [a.lower() for a in attributes]
    if output_name is not None and output_name.lower() in names:
        class_col = names.index(output_name.lower())
    else:
        class_col = len(attributes) - 1
    return _table(path, rows, attributes, class_col, positive_token)


def parse_csv(path, positive_token: str) -> Dataset:
    """Generic CSV: numeric feature columns with the label in the last column.

    A first line whose first cell is not a number is treated as a header and
    skipped. Columns are named by position.
    """
    rows = [(n, [tok.strip() for tok in line.split(",")]) for n, line in _read_lines(path)]
    if rows:
        try:
            float(rows[0][1][0])
        except ValueError:
            rows = rows[1:]
    width = len(rows[0][1]) if rows else 0
    return _table(path, rows, [str(c) for c in range(width)], width - 1, positive_token)
