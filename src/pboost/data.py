"""Labeled datasets, sample weights, and skew-controlled splitting."""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    AllZeroWeights,
    InsufficientNegatives,
    LengthMismatch,
    TooFewSamples,
)
from .rng import RngStream

_SQ_DISTS_BLOCK = 1 << 15  # elements (256 KB) per temporary in sq_dists


@dataclass(frozen=True)
class Dataset:
    """Feature matrix with ±1 labels and optional a-priori group ids.

    Rows are immutable once constructed; all operations that "modify" a
    dataset return a new one.
    """

    features: np.ndarray
    labels: np.ndarray
    group_ids: np.ndarray | None = field(default=None)

    def __post_init__(self):
        feats = np.atleast_2d(np.asarray(self.features, dtype=np.float64))
        labels = np.asarray(self.labels, dtype=np.int64)
        object.__setattr__(self, "features", feats)
        object.__setattr__(self, "labels", labels)
        if feats.shape[0] != labels.shape[0]:
            raise LengthMismatch(
                f"{feats.shape[0]} feature rows vs {labels.shape[0]} labels"
            )
        if not np.isfinite(feats).all():
            raise ValueError("features must be finite")
        if labels.size and not np.isin(labels, (-1, 1)).all():
            raise ValueError("labels must be -1 or +1")
        if self.group_ids is not None:
            gids = np.asarray(self.group_ids, dtype=np.int64)
            if gids.shape[0] != labels.shape[0]:
                raise LengthMismatch("group_ids length differs from labels")
            if gids.size and gids.min() < 0:
                raise ValueError("group_ids must be nonnegative")
            object.__setattr__(self, "group_ids", gids)
        for arr in (self.features, self.labels, self.group_ids):
            if arr is not None:
                arr.setflags(write=False)

    @property
    def m(self) -> int:
        return int(self.labels.shape[0])

    @property
    def m_pos(self) -> int:
        return int(np.count_nonzero(self.labels == 1))

    @property
    def m_neg(self) -> int:
        return int(np.count_nonzero(self.labels == -1))

    @property
    def n_features(self) -> int:
        return int(self.features.shape[1])

    @property
    def pos_indices(self) -> np.ndarray:
        return np.flatnonzero(self.labels == 1)

    @property
    def neg_indices(self) -> np.ndarray:
        return np.flatnonzero(self.labels == -1)

    def select(self, indices) -> "Dataset":
        """Row subset (by position), preserving group ids."""
        idx = np.asarray(indices, dtype=np.int64)
        gids = None if self.group_ids is None else self.group_ids[idx]
        return Dataset(self.features[idx], self.labels[idx], gids)


def concat(datasets) -> Dataset:
    """Stack datasets row-wise; group ids survive only if all parts have them."""
    parts = list(datasets)
    feats = np.vstack([d.features for d in parts])
    labels = np.concatenate([d.labels for d in parts])
    if all(d.group_ids is not None for d in parts):
        gids = np.concatenate([d.group_ids for d in parts])
    else:
        gids = None
    return Dataset(feats, labels, gids)


def normalize_weights(w: np.ndarray) -> np.ndarray:
    """Scale a nonnegative weight vector to sum to one.

    Raises AllZeroWeights when there is no mass to normalize.
    """
    w = np.asarray(w, dtype=np.float64)
    if w.size and w.min() < 0:
        raise ValueError("weights must be nonnegative")
    total = w.sum()
    if total <= 0.0:
        raise AllZeroWeights("cannot normalize an all-zero weight vector")
    return w / total


def sq_dists(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Squared Euclidean distances between the rows of a and b, clamped at 0.

    Each entry is fl(fl(|a_i|^2 + |b_j|^2) - 2 fl(a_i . b_j)), built in the
    one n x m array of the product: doubling is exact, and the sums of norms
    are formed in row blocks of at most _SQ_DISTS_BLOCK elements. The product
    stays one `a @ b.T` call, because splitting it (or, for `a is b`, leaving
    the symmetric BLAS path it takes) changes the low bits.
    """
    a2 = np.sum(a * a, axis=1)
    b2 = np.sum(b * b, axis=1)
    sq = a @ b.T
    sq *= 2.0
    rows = max(1, _SQ_DISTS_BLOCK // max(1, b2.size))
    for start in range(0, a2.size, rows):
        block = sq[start : start + rows]
        np.subtract(a2[start : start + rows, None] + b2, block, out=block)
    np.maximum(sq, 0.0, out=sq)
    return sq


def round_half_up(x: float) -> int:
    """round(0.5) == 1, unlike Python's banker rounding."""
    return int(math.floor(x + 0.5))


def stratified_kfold(
    data: Dataset, k: int, rng: RngStream
) -> list[tuple[np.ndarray, np.ndarray]]:
    """Split into k folds keeping the class ratio within one sample per fold.

    Returns (train_indices, heldout_indices) pairs. When a class count does
    not divide by k, the extra samples land in the lowest-indexed folds.
    """
    if k < 2:
        raise ValueError("k must be at least 2")
    for cls in (1, -1):
        if int(np.count_nonzero(data.labels == cls)) < k:
            raise TooFewSamples(f"class {cls:+d} has fewer than {k} samples")
    gen = rng.generator()
    folds: list[list[np.ndarray]] = [[] for _ in range(k)]
    for cls in (1, -1):
        idx = np.flatnonzero(data.labels == cls)
        idx = gen.permutation(idx)
        n = idx.size
        base, extra = divmod(n, k)
        start = 0
        for f in range(k):
            size = base + (1 if f < extra else 0)
            folds[f].append(idx[start : start + size])
            start += size
    out = []
    for f in range(k):
        held = np.sort(np.concatenate(folds[f]))
        train = np.sort(
            np.concatenate([np.concatenate(folds[g]) for g in range(k) if g != f])
        )
        out.append((train, held))
    return out


def subsample_to_skew(data: Dataset, lambda_target: float, rng: RngStream) -> Dataset:
    """Keep all positives and a uniform draw of round(m_pos * lambda) negatives."""
    if lambda_target <= 0:
        raise ValueError("lambda_target must be positive")
    n_neg = round_half_up(data.m_pos * lambda_target)
    neg_idx = data.neg_indices
    if neg_idx.size < n_neg:
        raise InsufficientNegatives(
            f"need {n_neg} negatives, have {neg_idx.size}"
        )
    gen = rng.generator()
    chosen = gen.choice(neg_idx, size=n_neg, replace=False)
    keep = np.sort(np.concatenate([data.pos_indices, chosen]))
    return data.select(keep)
