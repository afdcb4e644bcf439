"""Up-sampling, under-sampling, and negative-class partitioning."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .data import Dataset, concat, sq_dists
from .errors import (
    MissingGroupIds,
    SingleCluster,
    SubsetTooLarge,
    TooFewNegatives,
    TooFewPositives,
    TooManyClusters,
)
from .rng import RngStream

_KMEANS_MAX_ITER = 300


@dataclass(frozen=True)
class Partitioning:
    """Disjoint index sets over the negative samples of a training set."""

    parts: tuple[np.ndarray, ...]

    def __post_init__(self):
        parts = tuple(np.asarray(p, dtype=np.int64) for p in self.parts)
        object.__setattr__(self, "parts", parts)
        if not parts or any(p.size == 0 for p in parts):
            raise ValueError("every partition must be nonempty")
        all_idx = np.concatenate(parts)
        if np.unique(all_idx).size != all_idx.size:
            raise ValueError("partitions overlap")

    @property
    def count(self) -> int:
        return len(self.parts)

    @property
    def sizes(self) -> list[int]:
        return [int(p.size) for p in self.parts]

    @property
    def n_total(self) -> int:
        return int(sum(self.sizes))

    def covers(self, n_negatives: int) -> bool:
        all_idx = np.concatenate(self.parts)
        return self.n_total == n_negatives and bool(
            np.array_equal(np.sort(all_idx), np.arange(n_negatives))
        )


@dataclass(frozen=True)
class KMeansResult:
    assignments: np.ndarray
    centroids: np.ndarray
    k: int


def rus(indices, n: int, rng: RngStream) -> np.ndarray:
    """Uniform draw of n distinct indices."""
    idx = np.asarray(indices, dtype=np.int64)
    if n > idx.size:
        raise SubsetTooLarge(f"cannot pick {n} from {idx.size}")
    if n == idx.size:
        return idx.copy()
    gen = rng.generator()
    return gen.choice(idx, size=n, replace=False)


def weighted_draw_without_replacement(
    indices, weights, n: int, rng: RngStream
) -> np.ndarray:
    """n distinct indices, selection probability proportional to weight.

    Falls back to a uniform top-up if fewer than n entries carry positive
    weight, which can only happen after extreme weight concentration.
    """
    idx = np.asarray(indices, dtype=np.int64)
    w = np.asarray(weights, dtype=np.float64)
    if n > idx.size:
        raise SubsetTooLarge(f"cannot pick {n} from {idx.size}")
    if n == 0:
        return np.empty(0, dtype=np.int64)
    gen = rng.generator()
    positive = w > 0
    if int(positive.sum()) < n:
        chosen = idx[positive]
        rest = gen.choice(idx[~positive], size=n - chosen.size, replace=False)
        return np.concatenate([chosen, rest])
    return gen.choice(idx, size=n, replace=False, p=w / w.sum())


def smote(pos_features, n_new: int, k_neighbors: int, rng: RngStream) -> np.ndarray:
    """Synthetic positives interpolated toward k-nearest positive neighbours."""
    x = np.atleast_2d(np.asarray(pos_features, dtype=np.float64))
    n = x.shape[0]
    if n < 2:
        raise TooFewPositives("SMOTE needs at least two positive samples")
    if k_neighbors < 1:
        raise ValueError("k_neighbors must be at least 1")
    if n_new == 0:
        return np.empty((0, x.shape[1]))
    k = min(k_neighbors, n - 1)
    sq = sq_dists(x, x)
    np.fill_diagonal(sq, np.inf)
    neighbours = np.argsort(sq, axis=1)[:, :k]
    gen = rng.generator()
    base = gen.integers(n, size=n_new)
    pick = gen.integers(k, size=n_new)
    u = gen.random(n_new)
    target = neighbours[base, pick]
    return x[base] + u[:, None] * (x[target] - x[base])


def partition_ruswr(neg_count: int, m_pos: int, rng: RngStream) -> Partitioning:
    """Random partitioning of negatives with part sizes in [m_pos/2, 2*m_pos].

    Sizes are drawn until the remainder drops to the minimum part size or
    below; that remainder is merged into the final part, so every part but
    the last stays within the drawn range.
    """
    low = math.ceil(m_pos / 2)
    high = 2 * m_pos
    if neg_count < low:
        raise TooFewNegatives(f"need at least {low} negatives, have {neg_count}")
    gen = rng.generator()
    sizes: list[int] = []
    remaining = neg_count
    while remaining > low:
        size = int(gen.integers(low, min(high, remaining) + 1))
        sizes.append(size)
        remaining -= size
    if sizes:
        sizes[-1] += remaining
    else:
        sizes = [remaining]
    order = gen.permutation(neg_count)
    parts = []
    start = 0
    for size in sizes:
        parts.append(np.sort(order[start : start + size]))
        start += size
    return Partitioning(tuple(parts))


def kmeans(features, k: int, rng: RngStream) -> KMeansResult:
    """Lloyd iterations with greedy farthest-point seeding.

    Runs to an assignment fixpoint or 300 iterations; empty clusters are
    re-seeded from the point farthest from its centroid.
    """
    x = np.atleast_2d(np.asarray(features, dtype=np.float64))
    n = x.shape[0]
    if k > np.unique(x, axis=0).shape[0]:
        raise TooManyClusters(f"k={k} exceeds distinct rows")
    gen = rng.generator()
    centroids = np.empty((k, x.shape[1]))
    centroids[0] = x[gen.integers(n)]
    dist = ((x - centroids[0]) ** 2).sum(axis=1)
    for j in range(1, k):
        centroids[j] = x[int(np.argmax(dist))]
        dist = np.minimum(dist, ((x - centroids[j]) ** 2).sum(axis=1))

    assignments = np.full(n, -1, dtype=np.int64)
    for _ in range(_KMEANS_MAX_ITER):
        sq = sq_dists(x, centroids)
        new_assignments = np.argmin(sq, axis=1)
        for j in range(k):
            if not np.any(new_assignments == j):
                own_dist = sq[np.arange(n), new_assignments].copy()
                counts = np.bincount(new_assignments, minlength=k)
                own_dist[counts[new_assignments] <= 1] = -np.inf
                new_assignments[int(np.argmax(own_dist))] = j
        if np.array_equal(new_assignments, assignments):
            break
        assignments = new_assignments
        for j in range(k):
            centroids[j] = x[assignments == j].mean(axis=0)
    return KMeansResult(assignments=assignments, centroids=centroids, k=k)


def dunn_index(features, assignments) -> float:
    """Min single-linkage inter-cluster distance over max cluster diameter.

    All-singleton clusterings have zero diameters and map to +inf.
    """
    x = np.atleast_2d(np.asarray(features, dtype=np.float64))
    return _dunn_from_sq(sq_dists(x, x), np.asarray(assignments))


def _dunn_from_sq(sq: np.ndarray, labels: np.ndarray) -> float:
    """Dunn index from the squared pairwise distances of the rows.

    Only the two extremes are square-rooted: sqrt is monotone and correctly
    rounded, so it commutes exactly with min and max.
    """
    clusters = np.unique(labels)
    if clusters.size < 2:
        raise SingleCluster("Dunn index needs at least two clusters")
    max_diameter = 0.0
    min_inter = np.inf
    for cid in clusters:
        members = labels == cid
        later = labels > cid
        if members.sum() > 1:
            max_diameter = max(max_diameter, float(sq[np.ix_(members, members)].max()))
        if later.any():
            min_inter = min(min_inter, float(sq[np.ix_(members, later)].min()))
    if max_diameter == 0.0:
        return np.inf
    return float(np.sqrt(min_inter)) / float(np.sqrt(max_diameter))


def partition_cus(
    neg_features, k_range, rng: RngStream
) -> tuple[Partitioning, int]:
    """Cluster the negatives with k-means, choosing k by max Dunn index.

    Ties resolve to the smallest k. The pairwise distances do not depend on
    k, so they are computed once for all candidates.
    """
    ks = sorted(set(int(k) for k in k_range))
    if not ks:
        raise ValueError("k_range must be nonempty")
    x = np.atleast_2d(np.asarray(neg_features, dtype=np.float64))
    sq = sq_dists(x, x)
    best = None
    for k in ks:
        result = kmeans(x, k, rng.child("kmeans", k))
        score = _dunn_from_sq(sq, result.assignments) if k > 1 else -np.inf
        if best is None or score > best[0]:
            best = (score, k, result)
    _, chosen_k, result = best
    parts = tuple(
        np.flatnonzero(result.assignments == j) for j in range(chosen_k)
    )
    return Partitioning(parts), chosen_k


def partition_apriori(group_ids) -> Partitioning:
    """One part per distinct group id, in ascending id order."""
    if group_ids is None:
        raise MissingGroupIds("a-priori partitioning needs group ids")
    gids = np.asarray(group_ids, dtype=np.int64)
    if gids.size == 0:
        raise MissingGroupIds("a-priori partitioning needs group ids")
    parts = tuple(np.flatnonzero(gids == g) for g in np.unique(gids))
    return Partitioning(parts)


def default_k_range(neg_count: int) -> range:
    """2 .. min(20, neg_count // 2), the search window for cluster counts."""
    return range(2, max(3, min(20, neg_count // 2) + 1))


def random_balance(data: Dataset, rng: RngStream, k_neighbors: int = 5) -> Dataset:
    """Re-balance to a random class ratio while keeping the total size.

    A target positive count is drawn uniformly from [2, M-2]; whichever class
    sits above its target is reduced by uniform under-sampling and the other
    is grown with synthetic interpolation.
    """
    m = data.m
    if data.m_pos == 0 or data.m_neg == 0:
        raise ValueError("random balance needs both classes")
    if m < 4:
        raise ValueError("random balance needs at least four samples")
    gen_stream = rng.child("target")
    target_pos = int(gen_stream.generator().integers(2, m - 1))
    target_neg = m - target_pos

    pos = data.select(data.pos_indices)
    neg = data.select(data.neg_indices)

    def resize(part: Dataset, target: int, label: int, stream: RngStream) -> Dataset:
        if target == part.m:
            return part
        if target < part.m:
            keep = rus(np.arange(part.m), target, stream.child("rus"))
            return part.select(keep)
        if part.m < 2:
            raise (TooFewPositives if label == 1 else TooFewNegatives)(
                "synthetic growth needs at least two samples"
            )
        synth = smote(part.features, target - part.m, k_neighbors, stream.child("smote"))
        grown = Dataset(
            np.vstack([part.features, synth]),
            np.full(target, label, dtype=np.int64),
        )
        return grown

    new_pos = resize(pos, target_pos, 1, rng.child("pos"))
    new_neg = resize(neg, target_neg, -1, rng.child("neg"))
    merged = concat([new_pos, new_neg])
    order = rng.child("shuffle").generator().permutation(merged.m)
    out = merged.select(order)
    return Dataset(out.features, out.labels)  # group ids do not survive synthesis
