"""Up-sampling, under-sampling, and negative-class partitioning."""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .data import Dataset, _label_groups, _sq_dist_blocks, check_sq_dists_finite, row_sq_dists
from .errors import TooFewNegatives, TooManyClusters
from .rng import RngStream

_KMEANS_MAX_ITER = 300
SMOTE_K_NEIGHBORS = 5  # neighbours per synthetic row in random balance and SMT


@dataclass(frozen=True)
class Partitioning:
    """One integer part label per negative sample of a training set.

    Part e holds the ascending indices of the e-th smallest label, so the
    parts are disjoint, cover every negative and are nonempty by construction.
    """

    labels: np.ndarray

    def __post_init__(self):
        labels = np.asarray(self.labels)
        if labels.ndim != 1 or labels.size == 0 or labels.dtype.kind not in "iu":
            raise ValueError("part labels must be a nonempty 1-D integer array")
        object.__setattr__(self, "labels", labels)

    @cached_property
    def parts(self) -> tuple[np.ndarray, ...]:
        return tuple(_label_groups(self.labels))

    @property
    def count(self) -> int:
        return len(self.parts)

    @property
    def sizes(self) -> list[int]:
        return [int(p.size) for p in self.parts]


@dataclass(frozen=True)
class KMeansResult:
    assignments: np.ndarray
    centroids: np.ndarray


def rus(indices, n: int, rng: RngStream) -> np.ndarray:
    """Uniform draw of n distinct indices."""
    idx = np.asarray(indices, dtype=np.int64)
    if n > idx.size:
        raise ValueError(f"cannot pick {n} from {idx.size}")
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
        raise ValueError(f"cannot pick {n} from {idx.size}")
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
    """Synthetic positives interpolated toward k-nearest positive neighbours.

    The draws come first. Only the distinct drawn base rows get distances
    to all rows, in blocks of at most 2^15 elements (256 KB) in one reused
    buffer, and only they are sorted, so the call holds one block and its
    sort plus a neighbour table of the drawn rows, never an n x n matrix.
    Rows whose squared distances may overflow raise DegenerateData, as in
    data.check_sq_dists_finite.
    """
    x = np.atleast_2d(np.asarray(pos_features, dtype=np.float64))
    n = x.shape[0]
    if n < 2:
        raise ValueError("SMOTE needs at least two positive samples")
    if k_neighbors < 1:
        raise ValueError("k_neighbors must be at least 1")
    check_sq_dists_finite(x)
    k = min(k_neighbors, n - 1)
    gen = rng.generator()
    base = gen.integers(n, size=n_new)
    pick = gen.integers(k, size=n_new)
    u = gen.random(n_new)
    drawn, base_row = np.unique(base, return_inverse=True)
    neighbours = np.empty((drawn.size, k), dtype=np.intp)
    for start, block in _sq_dist_blocks(x[drawn], x, skip=drawn):
        neighbours[start : start + block.shape[0]] = np.argsort(block, axis=1)[:, :k]
    target = neighbours[base_row, pick]
    return x[base] + u[:, None] * (x[target] - x[base])


def partition_ruswr(neg_count: int, m_pos: int, rng: RngStream) -> Partitioning:
    """Random partitioning of negatives with part sizes in [m_pos/2, 2*m_pos].

    Sizes are drawn until the remainder drops to the minimum part size or
    below; that remainder is merged into the final part, so every part but
    the last stays within the drawn range.
    """
    if m_pos < 1:
        raise ValueError(f"m_pos must be at least 1, not {m_pos}")
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
    labels = np.empty(neg_count, dtype=np.int64)
    labels[gen.permutation(neg_count)] = np.repeat(np.arange(len(sizes)), sizes)
    return Partitioning(labels)


def kmeans(features, k: int, rng: RngStream) -> KMeansResult:
    """Lloyd iterations with greedy farthest-point seeding.

    Runs to an assignment fixpoint or 300 iterations. An empty cluster is
    re-seeded with the point farthest from its own centroid among the
    clusters of two or more points. Each centroid is the mean of its rows in
    ascending row order: the row-order sums of np.bincount for two or more
    features, which have the bytes of .mean(axis=0), and for one feature
    each group's own .mean (from `data._label_groups`), which sums pairwise.

    The work is centroid-major: seeding and every Lloyd assignment take one
    centroid's distances to all rows at a time from data.row_sq_dists, and an
    assignment keeps each row's least distance so far, moving a row only to
    a strictly closer centroid, so ties go to the lowest index as in
    argmin. A Lloyd step costs O(n k d) in 3d + 2 ufunc calls per centroid
    over arrays of length n, and the call holds O(n d) memory, never an
    n x k array.

    Seeding finds a k above the number of distinct rows: the farthest row is
    then at distance 0 from a chosen centroid. Only then are the distinct
    rows counted, as two distinct rows less than 1e-161 apart also give 0.
    """
    x = np.atleast_2d(np.asarray(features, dtype=np.float64))
    n = x.shape[0]
    if k < 1:
        raise ValueError(f"k must be at least 1, not {k}")
    if k > n:
        raise TooManyClusters(f"k={k} exceeds distinct rows")
    gen = rng.generator()
    columns = np.ascontiguousarray(x.T)
    least, row, term = np.empty(n), np.empty(n), np.empty(n)
    closer = np.empty(n, dtype=bool)
    centroids = np.empty((k, x.shape[1]))
    centroids[0] = x[gen.integers(n)]
    row_sq_dists(columns, centroids[0], least, term)
    for j in range(1, k):
        far = int(np.argmax(least))
        if least[far] == 0.0 and k > np.unique(x, axis=0).shape[0]:
            raise TooManyClusters(f"k={k} exceeds distinct rows")
        centroids[j] = x[far]
        row_sq_dists(columns, centroids[j], row, term)
        np.minimum(least, row, out=least)

    assignments = np.full(n, -1, dtype=np.int64)
    for _ in range(_KMEANS_MAX_ITER):
        new_assignments = np.zeros(n, dtype=np.int64)
        row_sq_dists(columns, centroids[0], least, term)
        for j in range(1, k):
            row_sq_dists(columns, centroids[j], row, term)
            np.less(row, least, out=closer)
            np.copyto(new_assignments, j, where=closer)
            np.copyto(least, row, where=closer)
        counts = np.bincount(new_assignments, minlength=k)
        for j in np.flatnonzero(counts == 0):  # a re-seed empties no cluster
            own_dist = np.where(counts[new_assignments] > 1, least, -np.inf)
            far = int(np.argmax(own_dist))
            counts[new_assignments[far]] -= 1
            counts[j] += 1
            new_assignments[far] = j
            row_sq_dists(columns, centroids[j], row, term)
            least[far] = row[far]  # its own distance is now to centroid j
        if np.array_equal(new_assignments, assignments):
            break
        assignments = new_assignments
        if len(columns) == 1:
            for j, rows in enumerate(_label_groups(assignments)):
                centroids[j] = x[rows].mean(axis=0)
        else:
            for f, column in enumerate(columns):
                sums = np.bincount(assignments, weights=column, minlength=k)
                np.divide(sums, counts, out=centroids[:, f])
    return KMeansResult(assignments=assignments, centroids=centroids)


def dunn_index(features, assignments) -> float:
    """Min single-linkage inter-cluster distance over max cluster diameter.

    The inter-cluster distance is the lightest edge of a minimum spanning
    tree of the rows that joins two clusters; each diameter is the largest
    distance within one cluster, reduced over distance blocks. Both hold
    O(m d) memory plus one block of at most 2^15 elements, never an m x m
    matrix. The tree costs O(m^2 d), the index then O(m + d * sum of
    squared cluster sizes). All-singleton clusterings have zero diameters
    and map to +inf.
    """
    x = np.atleast_2d(np.asarray(features, dtype=np.float64))
    return _dunn(x, _spanning_tree(x), np.asarray(assignments))


def _spanning_tree(x: np.ndarray):
    """Edges (u, v, w) of a minimum spanning tree of the rows of x under the
    squared distance w of sq_dists, by Prim's algorithm: m steps of O(m d),
    holding O(m d) memory.

    A row's distances are computed when it joins the tree, with the bytes of
    sq_dists, whose entries are exactly symmetric, as _dunn needs.
    """
    m = x.shape[0]
    columns = np.ascontiguousarray(x.T)
    nearest = np.full(m, np.inf)  # each row's least distance to the tree
    link = np.zeros(m, dtype=np.intp)  # the tree row at that distance
    outside = np.ones(m, dtype=bool)
    joined = np.empty(m, dtype=np.intp)  # rows in the order they join
    weight = np.empty(m)
    row = np.empty(m)
    term = np.empty(m)
    for i in range(m):
        j = int(np.argmin(nearest))  # row 0 first, with no edge
        joined[i], weight[i] = j, nearest[j]
        outside[j] = False
        nearest[j] = np.inf
        row_sq_dists(columns, x[j], row, term)
        closer = row < nearest
        closer &= outside
        np.copyto(nearest, row, where=closer)
        link[closer] = j
    return link[joined[1:]], joined[1:], weight[1:]


def _diameter(x: np.ndarray) -> float:
    """Largest squared distance between two rows of x, the max over the
    blocks of sq_dists(x, x) from data._sq_dist_blocks."""
    return max(float(block.max()) for _, block in _sq_dist_blocks(x, x))


def _dunn(x: np.ndarray, tree, labels: np.ndarray) -> float:
    """Dunn index of the rows of x from a minimum spanning tree of them, in
    O(m + d * sum of squared cluster sizes).

    The least squared distance between two clusters is the least tree edge
    that joins two clusters: the tree path between the closest such pair has
    an edge that joins two clusters, and no edge of that path is heavier than
    the pair, or swapping the two would lighten the tree. This needs the tree
    weights to be exactly symmetric, as _spanning_tree's are. Each diameter
    is the largest entry of sq_dists over the cluster's own rows. Only the
    two extremes are square-rooted: sqrt is monotone and correctly rounded,
    so it commutes exactly with min and max.
    """
    groups = _label_groups(labels)
    if len(groups) < 2:
        raise ValueError("Dunn index needs at least two clusters")
    u, v, w = tree
    min_inter = float(w[labels[u] != labels[v]].min())
    max_diameter = max(
        (_diameter(x[idx]) for idx in groups if idx.size > 1), default=0.0
    )
    if max_diameter == 0.0:
        return np.inf
    return float(np.sqrt(min_inter)) / float(np.sqrt(max_diameter))


def partition_cus(neg_features, k_range, rng: RngStream) -> Partitioning:
    """Cluster the negatives with k-means, choosing k by max Dunn index.

    Ties resolve to the smallest k. k-means re-seeds every empty cluster, so
    the chosen k is the partitioning's count. The minimum spanning tree of
    the rows does not depend on k, so it is built once per call (m Prim
    steps of O(m d)); each candidate k then costs its k-means run (O(m k d)
    per Lloyd step, centroid by centroid) plus O(m + d * sum of squared
    cluster sizes) for its Dunn index. No step holds an m x m or an m x k
    array: the tree computes each row's distances as the row joins it,
    k-means holds O(m d), and the diameters reduce blocks of at most 2^15
    elements. Rows whose squared distances may overflow raise
    DegenerateData first, as in data.check_sq_dists_finite.
    """
    ks = sorted(set(int(k) for k in k_range))
    if not ks:
        raise ValueError("k_range must be nonempty")
    x = np.atleast_2d(np.asarray(neg_features, dtype=np.float64))
    check_sq_dists_finite(x)
    tree = _spanning_tree(x)
    best = None
    for k in ks:
        result = kmeans(x, k, rng.child("kmeans", k))
        score = _dunn(x, tree, result.assignments) if k > 1 else -np.inf
        if best is None or score > best[0]:
            best = (score, result)
    return Partitioning(best[1].assignments)


def partition_apriori(group_ids) -> Partitioning:
    """One part per distinct group id, in ascending id order."""
    if group_ids is None or np.size(group_ids) == 0:
        raise ValueError("a-priori partitioning needs group ids")
    return Partitioning(np.asarray(group_ids, dtype=np.int64))


def default_k_range(neg_count: int) -> range:
    """2 .. min(20, neg_count // 2), the search window for cluster counts."""
    return range(2, max(3, min(20, neg_count // 2) + 1))


def random_balance(data: Dataset, rng: RngStream) -> Dataset:
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

    def resize(x, target: int, stream: RngStream) -> np.ndarray:
        if target <= len(x):  # rus draws nothing when target == len(x)
            return x[rus(np.arange(len(x)), target, stream.child("rus"))]
        if len(x) < 2:
            raise ValueError("synthetic growth needs at least two samples")
        synth = smote(x, target - len(x), SMOTE_K_NEIGHBORS, stream.child("smote"))
        return np.vstack([x, synth])

    features = np.vstack([
        resize(data.features[data.pos_indices], target_pos, rng.child("pos")),
        resize(data.features[data.neg_indices], target_neg, rng.child("neg")),
    ])
    labels = np.repeat([1, -1], [target_pos, target_neg])
    order = rng.child("shuffle").generator().permutation(labels.size)
    return Dataset(features[order], labels[order])  # group ids do not survive synthesis
