"""Labeled datasets, sample weights, and skew-controlled splitting."""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field

import numpy as np

from .errors import AllZeroWeights, InsufficientNegatives, LengthMismatch
from .rng import RngStream

_SQ_DISTS_BLOCK = 1 << 15  # elements (256 KB) per row block in sq_dists
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
    """Squared Euclidean distances sum_f (a_if - b_jf)^2 between the rows of a
    and b, each entry summed over the features in ascending order, starting
    from feature 0's term.

    Every squared distance in the package has this form. It uses numpy ufuncs
    only, no BLAS, so an entry's bytes depend on its two rows alone: not on
    the call or row block that computes it, nor on the thread count.
    (a - b)^2 == (b - a)^2 in IEEE arithmetic, so sq_dists(b, a) is exactly
    sq_dists(a, b).T. The result is filled in row blocks of at most
    _SQ_DISTS_BLOCK elements, each through all features while it is in
    cache, with one block-sized term array: an n x m term array instead made
    the bootstrap baselines (ADA-F, RB, SMT) up to a third slower.
    """
    sq = np.empty((a.shape[0], b.shape[0]))
    rows = max(1, _SQ_DISTS_BLOCK // max(1, b.shape[0]))
    term = np.empty((min(rows, a.shape[0]), b.shape[0]))
    for start in range(0, a.shape[0], rows):
        block = sq[start : start + rows]
        part, t = a[start : start + rows], term[: block.shape[0]]
        np.subtract.outer(part[:, 0], b[:, 0], out=block)
        np.multiply(block, block, out=block)
        for f in range(1, a.shape[1]):
            np.subtract.outer(part[:, f], b[:, f], out=t)
            np.multiply(t, t, out=t)
            block += t
    return sq


def row_sq_dists(columns: np.ndarray, i: int, out: np.ndarray, term: np.ndarray) -> None:
    """sq_dists(x, x[i : i + 1])[:, 0] into out, for the x whose features are
    the rows of `columns` (x.T, contiguous), with term as scratch: the same
    bytes, in place, for loops that need one row's distances per step."""
    np.subtract(columns[0], columns[0, i], out=out)
    np.multiply(out, out, out=out)
    for column in columns[1:]:
        np.subtract(column, column[i], out=term)
        np.multiply(term, term, out=term)
        out += term


def _row_blocks(n: int) -> list[tuple[int, int]]:
    """(start, stop) of consecutive row blocks of an n-row x, each block's
    distances to all of x at most _NEIGHBOUR_BLOCK elements (but at least one
    row). Reductions over sq_dists(x[start:stop], x) then hold
    O(_NEIGHBOUR_BLOCK + n) memory rather than an n x n array. They visit all
    n^2 pairs, so nearest_sq_dists uses them above 1024 rows only where
    sorting cannot prune.
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


def nearest_sq_dists(x: np.ndarray) -> np.ndarray:
    """Each row's smallest sq_dists entry to any other row of a finite x
    (at least two rows), from blocks of at most _NEIGHBOUR_BLOCK elements
    (but at least one row).

    Up to 2 sqrt(_NEIGHBOUR_BLOCK) = 1024 rows this is the minimum over
    _neighbour_blocks. Below that size, the sort and probe would cost too
    large a share of the search wherever sorting cannot prune.

    More rows are searched in a sorted strip (Friedman, Baskett & Shustek,
    IEEE Trans. Computers C-24, 1975). Rows are sorted on the feature with
    the widest range and cut into blocks of r = sqrt(_NEIGHBOUR_BLOCK) / 4
    rows, and each block is compared with its r sorted neighbours on either
    side. A row is open when its strip, the sorted rows within reach of it
    along that feature, extends past that window; a block's open rows are
    then compared with the union of their strips. The reach fl(sqrt(best) (1
    + 2^-51)) is at least sqrt(best) despite its two roundings, so a row
    outside the rounded edges s +- reach is more than sqrt(best) away along
    the sort feature, and its entry, a sum of nonnegative terms that
    includes that feature's, rounds to at least best. Every entry has the
    bytes of sq_dists, so the result is the row blocks' to the byte.

    A probe of r/4 middle rows goes first. If their strips hold a quarter of
    the rows on average, sorting cannot prune (isotropic data in four or
    more features), and the search falls back to _neighbour_blocks.
    """
    n = x.shape[0]
    if n * n <= 4 * _NEIGHBOUR_BLOCK:
        return _nearest_in_row_blocks(x)
    key = int(np.argmax(np.ptp(x, axis=0)))
    order = np.argsort(x[:, key], kind="stable")
    xs = x[order]
    s = xs[:, key]
    rows = max(1, math.isqrt(_NEIGHBOUR_BLOCK) // 4)

    def window(start, stop):
        lo, hi = max(0, start - rows), min(n, stop + rows)
        block = sq_dists(xs[start:stop], xs[lo:hi])
        np.fill_diagonal(block[:, start - lo :], np.inf)
        near = block.min(axis=1)
        reach = np.sqrt(near) * (1.0 + 2.0**-51)
        left = np.searchsorted(s, s[start:stop] - reach, "left")
        right = np.searchsorted(s, s[start:stop] + reach, "right")
        return near, left, right, (left < lo) | (right > hi)  # open rows

    _, left, right, _ = window(n // 2, n // 2 + max(1, rows // 4))
    if 4 * np.sum(right - left) >= n * right.size:
        return _nearest_in_row_blocks(x)
    best = np.empty(n)
    for start in range(0, n, rows):
        stop = min(start + rows, n)
        near, left, right, is_open = window(start, stop)
        opened = np.flatnonzero(is_open)
        if opened.size:
            a, b = int(left[opened].min()), int(right[opened].max())
            step = max(1, _NEIGHBOUR_BLOCK // (b - a))
            for k in range(0, opened.size, step):
                part = opened[k : k + step]
                strip = sq_dists(xs[start + part], xs[a:b])
                strip[np.arange(part.size), start + part - a] = np.inf
                near[part] = np.minimum(near[part], strip.min(axis=1))
        best[start:stop] = near
    nearest = np.empty(n)
    nearest[order] = best
    return nearest


def _nearest_in_row_blocks(x: np.ndarray) -> np.ndarray:
    """nearest_sq_dists over all n^2 pairs, block by block."""
    nearest = np.empty(x.shape[0])
    for start, block in _neighbour_blocks(x):
        nearest[start : start + block.shape[0]] = block.min(axis=1)
    return nearest


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
