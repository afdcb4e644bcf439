"""Labeled datasets, sample weights, and skew-controlled splitting."""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field

import numpy as np

from .errors import AllZeroWeights, InsufficientNegatives, LengthMismatch
from .rng import RngStream

_SQ_DISTS_BLOCK = 1 << 15  # elements (256 KB) per temporary in sq_dists
_NEIGHBOUR_BLOCK = 1 << 18  # elements (2 MB) per distance block in _row_blocks


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


def _row_blocks(n: int) -> list[tuple[int, int]]:
    """(start, stop) of consecutive row blocks of an n-row x, each block's
    distances to all of x at most _NEIGHBOUR_BLOCK elements (but at least one
    row). Reductions over sq_dists(x[start:stop], x) then hold
    O(_NEIGHBOUR_BLOCK + n) memory rather than an n x n array.

    An x of up to sqrt(_NEIGHBOUR_BLOCK) = 512 rows is one block, `x[0:n] @
    x.T` on x's own buffer, which takes the same symmetric BLAS path as
    `sq_dists(x, x)` and gives the same bytes; more rows take general
    row-block products, whose low bits may differ.
    """
    rows = max(1, _NEIGHBOUR_BLOCK // n)
    return [(start, min(start + rows, n)) for start in range(0, n, rows)]


def _neighbour_block(x: np.ndarray, start: int, stop: int) -> np.ndarray:
    """sq_dists(x[start:stop], x) with every row's distance to itself set to
    inf, for nearest-neighbour searches over the blocks of _row_blocks."""
    block = sq_dists(x[start:stop], x)
    np.fill_diagonal(block[:, start:], np.inf)
    return block


def _neighbour_blocks(x: np.ndarray):
    """Yield (start, _neighbour_block(x, start, stop)) over _row_blocks."""
    for start, stop in _row_blocks(x.shape[0]):
        yield start, _neighbour_block(x, start, stop)


def is_integer(value) -> bool:
    """Whether value is an integer run value: any numbers.Integral but a
    bool, so that 1.9 or True is an error rather than truncated to 1."""
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def round_half_up(x: float) -> int:
    """round(0.5) == 1, unlike Python's banker rounding."""
    return int(math.floor(x + 0.5))


def _label_groups(labels: np.ndarray) -> list[np.ndarray]:
    """Ascending row indices of each distinct label, in ascending label order."""
    order = np.argsort(labels, kind="stable")
    return np.split(order, np.flatnonzero(np.diff(labels[order])) + 1)


def deal_folds(strata, k: int, rng: RngStream) -> list[np.ndarray]:
    """Deal every stratum (an index array) into k folds of near-equal size.

    Each stratum is permuted with one generator and cut into k contiguous
    parts, the extra rows going to the first parts. Fold f collects part f
    of every stratum, sorted.
    """
    gen = rng.generator()
    parts = [np.array_split(gen.permutation(stratum), k) for stratum in strata]
    return [np.sort(np.concatenate([p[f] for p in parts])) for f in range(k)]


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
