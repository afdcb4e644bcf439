"""Labeled datasets, sample weights, and skew-controlled splitting."""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field

import numpy as np

from .errors import AllZeroWeights, DegenerateData, InsufficientNegatives, LengthMismatch
from .rng import RngStream

# elements (256 KB) per distance block of _sq_dist_blocks: a block stays in
# cache through all its feature passes, and one buffer serves every block of a
# call (fresh 2 MB blocks cost more in first-touch page faults than in sums)
_BLOCK = 1 << 15
# elements of numpy's ufunc buffer while a block's differences are computed.
# numpy stages a broadcast operand through that buffer (8192 elements by
# default) whenever a block's rows are shorter than it, at 1-1.5 ns an entry;
# under a buffer no longer than a row, each row runs as one inner loop with
# no copy, at about 0.3 ns an entry
_BUFSIZE = 16
_STRIP_ABOVE = 1024  # rows; nearest_sq_dists searches a sorted strip above it


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
        # labels are checked before their int64 cast, which would truncate 1.5
        # to 1; group ids are checked by that cast keeping every value
        labels = np.asarray(self.labels)
        if feats.shape[0] != labels.shape[0]:
            raise LengthMismatch(
                f"{feats.shape[0]} feature rows vs {labels.shape[0]} labels"
            )
        if not np.isfinite(feats).all():
            raise ValueError("features must be finite")
        if not (np.abs(labels) == 1).all():
            raise ValueError("labels must be -1 or +1")
        object.__setattr__(self, "features", feats)
        object.__setattr__(self, "labels", labels.astype(np.int64, copy=False))
        if self.group_ids is not None:
            raw = np.asarray(self.group_ids)
            with np.errstate(invalid="ignore"):  # NaN and inf fail the test below
                gids = raw.astype(np.int64, copy=False)
            if gids.shape[0] != labels.shape[0]:
                raise LengthMismatch("group_ids length differs from labels")
            if not (gids == raw).all():
                raise ValueError("group_ids must be integers")
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
    the call or row block that computes it, its memory layout, nor on the
    thread count. (a - b)^2 == (b - a)^2 in IEEE arithmetic, so sq_dists(b, a)
    is exactly sq_dists(a, b).T. The result is filled by the blocks of
    _sq_dist_blocks, whose rows run along b, innermost.
    """
    sq = np.empty((a.shape[0], b.shape[0]))
    for _ in _sq_dist_blocks(a, b, out=sq):
        pass
    return sq


def check_sq_dists_finite(x: np.ndarray) -> None:
    """Raise DegenerateData when a squared distance between rows of x, or
    from a row to a point in their bounding box such as a k-means centroid,
    may overflow to inf (finite features near 1e200, whose squares do).

    The sq_dists entry between the box's corners x.min(0) and x.max(0)
    bounds every such entry: each of its differences is at least as large
    in magnitude as theirs in the same feature, and rounding is monotone, so
    each of its terms and partial sums is at least as large too. It is at
    most d times the largest entry between two rows, so it may overflow
    where none of those does.
    """
    if x.shape[0] < 2:
        return
    with np.errstate(over="ignore"):  # an inf bound is raised just below
        bound = sq_dists(x.min(axis=0)[None], x.max(axis=0)[None])[0, 0]
    if not np.isfinite(bound):
        raise DegenerateData("squared distances overflow; rescale the features")


def _fill_sq_dists(a: np.ndarray, columns: np.ndarray, block: np.ndarray, term: np.ndarray):
    """sq_dists(a, b) into block, for the b whose features are the rows of
    `columns` (b.T, each row contiguous), with term (block's shape) as
    scratch.

    b's rows run along block's inner axis. The subtract, square and add run
    under a ufunc buffer of _BUFSIZE elements, so that numpy makes no staging
    copy of a row when b has more rows than that; the buffer size, and the
    caller's error state with it, are restored before this returns.
    """
    with np.errstate():
        np.setbufsize(_BUFSIZE)
        np.subtract.outer(a[:, 0], columns[0], out=block)
        np.multiply(block, block, out=block)
        for f in range(1, a.shape[1]):
            np.subtract.outer(a[:, f], columns[f], out=term)
            np.multiply(term, term, out=term)
            block += term


def _sq_dist_blocks(a: np.ndarray, b: np.ndarray, out=None, skip=None):
    """Yield (start, block), where block holds the bytes of
    sq_dists(a[start:stop], b), over consecutive row blocks of a of at most
    _BLOCK elements (but at least one row).

    Each block is filled by _fill_sq_dists through all features while it is
    in cache, from contiguous columns of b (b's rows innermost, so the long
    axis of an all-pairs or a many-against-all search runs unbuffered), with
    one term array made per call. Without `out` every block is written into
    one buffer made per call, so a reduction must be done with a block before
    the next is yielded; with `out` (a.shape[0] x b.shape[0]) each block is
    the view out[start:stop]. With `skip`, row i of a is row skip[i] of b,
    and that self entry is set to inf, for nearest-neighbour searches.
    """
    rows = max(1, _BLOCK // max(1, b.shape[0]))
    shape = (min(rows, a.shape[0]), b.shape[0])
    # one allocation for both: as two, the strip's many small calls handed
    # them back to the OS and page-faulted them afresh, 1.3-1.5x slower
    term, buffer = np.empty((2, *shape)) if out is None else (np.empty(shape), out)
    columns = np.ascontiguousarray(b.T)
    for start in range(0, a.shape[0], rows):
        part = a[start : start + rows]
        block = buffer[: part.shape[0]] if out is None else out[start : start + rows]
        _fill_sq_dists(part, columns, block, term[: part.shape[0]])
        if skip is not None:
            block[np.arange(part.shape[0]), skip[start : start + rows]] = np.inf
        yield start, block


def row_sq_dists(
    columns: np.ndarray, point: np.ndarray, out: np.ndarray, term: np.ndarray
) -> None:
    """sq_dists(x, point[None])[:, 0] into out, for the x whose features are
    the rows of `columns` (x.T, fastest contiguous) and any point of as many
    features (a row of x or a centroid), with term as scratch: the same
    bytes, in place and in O(n d), for loops that need one point's distances
    per step."""
    np.subtract(columns[0], point[0], out=out)
    np.multiply(out, out, out=out)
    for column, value in zip(columns[1:], point[1:]):
        np.subtract(column, value, out=term)
        np.multiply(term, term, out=term)
        out += term


def _nearest(a: np.ndarray, b: np.ndarray, skip: np.ndarray) -> np.ndarray:
    """Each row's least entry of sq_dists(a, b) but its self entry, where row
    i of a is row skip[i] of b."""
    least = np.empty(a.shape[0])
    for start, block in _sq_dist_blocks(a, b, skip=skip):
        least[start : start + block.shape[0]] = block.min(axis=1)
    return least


def nearest_sq_dists(x: np.ndarray) -> np.ndarray:
    """Each row's smallest sq_dists entry to any other row of a finite x
    (at least two rows), from the blocks of _sq_dist_blocks.

    Up to _STRIP_ABOVE = 1024 rows this is the minimum over all n^2 pairs.
    Below that size, the sort and probe would cost too large a share of the
    search wherever sorting cannot prune.

    More rows are searched in a sorted strip (Friedman, Baskett & Shustek,
    IEEE Trans. Computers C-24, 1975). Rows are sorted on the feature with
    the widest range and cut into blocks of r = _STRIP_ABOVE / 8 rows, and
    each block is compared with its r sorted neighbours on either side. A
    row is open when its strip, the sorted rows within reach of it along
    that feature, extends past that window; a block's open rows are then
    compared with the union of their strips. The reach fl(sqrt(best) (1 +
    2^-51)) is at least sqrt(best) despite its two roundings, so a row
    outside the rounded edges s +- reach is more than sqrt(best) away along
    the sort feature, and its entry, a sum of nonnegative terms that
    includes that feature's, rounds to at least best. Every entry has the
    bytes of sq_dists, so the result is the all-pairs minimum to the byte.

    A probe of r/4 middle rows goes first. If their strips hold a quarter of
    the rows on average, sorting cannot prune (isotropic data in four or
    more features), and the search falls back to all n^2 pairs.
    """
    n = x.shape[0]
    if n <= _STRIP_ABOVE:
        return _nearest(x, x, np.arange(n))
    key = int(np.argmax(np.ptp(x, axis=0)))
    order = np.argsort(x[:, key], kind="stable")
    xs = x[order]
    s = xs[:, key]
    rows = _STRIP_ABOVE // 8

    def window(start, stop):
        lo, hi = max(0, start - rows), min(n, stop + rows)
        near = _nearest(xs[start:stop], xs[lo:hi], np.arange(start - lo, stop - lo))
        reach = np.sqrt(near) * (1.0 + 2.0**-51)
        left = np.searchsorted(s, s[start:stop] - reach, "left")
        right = np.searchsorted(s, s[start:stop] + reach, "right")
        return near, left, right, (left < lo) | (right > hi)  # open rows

    _, left, right, _ = window(n // 2, n // 2 + max(1, rows // 4))
    if 4 * np.sum(right - left) >= n * right.size:
        return _nearest(x, x, np.arange(n))
    best = np.empty(n)
    for start in range(0, n, rows):
        stop = min(start + rows, n)
        near, left, right, is_open = window(start, stop)
        if is_open.any():
            opened = start + np.flatnonzero(is_open)
            a, b = int(left[is_open].min()), int(right[is_open].max())
            strip = _nearest(xs[opened], xs[a:b], opened - a)
            near[is_open] = np.minimum(near[is_open], strip)
        best[start:stop] = near
    nearest = np.empty(n)
    nearest[order] = best
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
    if n_neg < 1:
        raise InsufficientNegatives(
            f"lambda {lambda_target} keeps no negative beside {data.m_pos} positives"
        )
    neg_idx = data.neg_indices
    if neg_idx.size < n_neg:
        raise InsufficientNegatives(
            f"lambda {lambda_target} needs {n_neg} negatives beside {data.m_pos} "
            f"positives, the pool has {neg_idx.size}"
        )
    gen = rng.generator()
    chosen = gen.choice(neg_idx, size=n_neg, replace=False)
    keep = np.sort(np.concatenate([data.pos_indices, chosen]))
    return data.select(keep)
