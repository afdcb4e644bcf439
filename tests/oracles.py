"""Independent brute-force reference implementations used by the tests.

Nothing here shares code with the package beyond the kernel definition;
each oracle recomputes its quantity from first principles so the fast
implementations are checked against a separately-derived answer.
"""

import itertools
import math

import numpy as np


def aupr_bruteforce(scores, labels):
    """Trapezoid AUPR over every distinct threshold, O(n^2) loops."""
    scores = list(map(float, scores))
    labels = list(map(int, labels))
    n_pos = sum(1 for l in labels if l == 1)
    points = []
    for t in sorted(set(scores), reverse=True):
        tp = sum(1 for s, l in zip(scores, labels) if s >= t and l == 1)
        fp = sum(1 for s, l in zip(scores, labels) if s >= t and l == -1)
        points.append((tp / n_pos, tp / (tp + fp)))
    grid = []
    seen = set()
    for recall, precision in points:
        if recall > 0 and recall not in seen:
            grid.append((recall, precision))
            seen.add(recall)
    grid = [(0.0, grid[0][1])] + grid
    area = 0.0
    for (r0, p0), (r1, p1) in zip(grid, grid[1:]):
        area += (r1 - r0) * (p0 + p1) / 2.0
    return area


def best_fbeta_over_thresholds(scores, labels, beta):
    """Max F-beta over the midpoint threshold sweep, recomputed from scratch."""
    scores = np.asarray(scores, dtype=float)
    labels = np.asarray(labels)
    uniq = np.unique(scores)
    candidates = [-np.inf, np.inf] + list((uniq[:-1] + uniq[1:]) / 2.0)
    best = -1.0
    b2 = beta * beta
    for t in candidates:
        pred = np.where(scores >= t, 1, -1)
        tp = int(((labels == 1) & (pred == 1)).sum())
        fp = int(((labels == -1) & (pred == 1)).sum())
        fn = int(((labels == 1) & (pred == -1)).sum())
        f = (1 + b2) * tp / ((1 + b2) * tp + fp + b2 * fn)
        best = max(best, f)
    return best


def sq_dists_difference(a, b):
    """Squared row distances as sum_f (a_if - b_jf)^2, summed over the
    features in ascending order, in one dense n x m array."""
    sq = np.zeros((a.shape[0], b.shape[0]))
    for f in range(a.shape[1]):
        sq += (a[:, f, None] - b[None, :, f]) ** 2
    return sq


def self_sq_dists_dense(x):
    """sq_dists_difference(x, x) with the diagonal set to inf."""
    sq = sq_dists_difference(x, x)
    np.fill_diagonal(sq, np.inf)
    return sq


def kappa_dense(features):
    """The kernel-width heuristic from the full n x n distance matrix: mean
    nearest-neighbour distance averaged with the scatter radius."""
    x = np.asarray(features, dtype=np.float64)
    mean_min = float(np.sqrt(self_sq_dists_dense(x).min(axis=1)).mean())
    radius = float(np.sqrt(sq_dists_difference(x, x.mean(axis=0)[None, :]).max()))
    return (mean_min + radius) / 2.0


def smote_neighbours_dense(features, k):
    """Each row's k nearest other rows, in argsort order, from the full
    n x n distance matrix."""
    x = np.asarray(features, dtype=np.float64)
    return np.argsort(self_sq_dists_dense(x), axis=1)[:, :k]


def kmeans_masks(features, k, rng):
    """Lloyd's k-means as the package first wrote it: one boolean mask per
    cluster for every empty-cluster test and centroid mean. Same seeding,
    stopping rule and re-seed rule as `sampling.kmeans`; returns
    (assignments, centroids, number of empty-cluster re-seeds)."""
    x = np.atleast_2d(np.asarray(features, dtype=np.float64))
    n = x.shape[0]
    gen = rng.generator()
    centroids = np.empty((k, x.shape[1]))
    centroids[0] = x[gen.integers(n)]
    dist = sq_dists_difference(x, centroids[:1])[:, 0]
    for j in range(1, k):
        centroids[j] = x[int(np.argmax(dist))]
        dist = np.minimum(dist, sq_dists_difference(x, centroids[j : j + 1])[:, 0])
    assignments = np.full(n, -1, dtype=np.int64)
    reseeds = 0
    for _ in range(300):
        sq = sq_dists_difference(x, centroids)
        new_assignments = np.argmin(sq, axis=1)
        for j in range(k):
            if not np.any(new_assignments == j):
                own_dist = sq[np.arange(n), new_assignments].copy()
                counts = np.bincount(new_assignments, minlength=k)
                own_dist[counts[new_assignments] <= 1] = -np.inf
                new_assignments[int(np.argmax(own_dist))] = j
                reseeds += 1
        if np.array_equal(new_assignments, assignments):
            break
        assignments = new_assignments
        for j in range(k):
            centroids[j] = x[assignments == j].mean(axis=0)
    return assignments, centroids, reseeds


def dunn_ix_blocks(x, labels):
    """Dunn index of the rows of x from dense matrices: the separation from
    every cluster's np.ix_ block of the difference-form distances against
    every later-labelled row, each diameter from the difference-form
    distances of the cluster's own rows. inf when all diameters are 0."""
    x = np.asarray(x, dtype=np.float64)
    labels = np.asarray(labels)
    sq = sq_dists_difference(x, x)
    max_diameter = 0.0
    min_inter = np.inf
    for cid in np.unique(labels):
        members = labels == cid
        later = labels > cid
        if members.sum() > 1:
            rows = x[members]
            max_diameter = max(max_diameter, float(sq_dists_difference(rows, rows).max()))
        if later.any():
            min_inter = min(min_inter, float(sq[np.ix_(members, later)].min()))
    if max_diameter == 0.0:
        return np.inf
    return float(np.sqrt(min_inter)) / float(np.sqrt(max_diameter))


def partition_cus_reference(neg_features, k_range, rng):
    """partition_cus from the two references above: k-means per candidate k,
    scored by the dense Dunn index, the first best score winning. Returns
    (chosen k, parts, scores by k)."""
    x = np.atleast_2d(np.asarray(neg_features, dtype=np.float64))
    scores, results = {}, {}
    for k in sorted(set(k_range)):
        results[k] = kmeans_masks(x, k, rng.child("kmeans", k))[0]
        scores[k] = dunn_ix_blocks(x, results[k]) if k > 1 else -np.inf
    chosen = max(scores, key=lambda k: (scores[k], -k))
    parts = [np.flatnonzero(results[chosen] == j) for j in range(chosen)]
    return chosen, parts, scores


def partition_ruswr_reference(neg_count, m_pos, rng):
    """partition_ruswr by slicing: the same size draws, then part e is the
    sorted e-th slice of one permutation of the negatives, with no part
    labels. Returns the list of parts."""
    if m_pos < 1:
        raise ValueError(f"m_pos must be at least 1, not {m_pos}")
    low = math.ceil(m_pos / 2)
    high = 2 * m_pos
    if neg_count < low:
        raise ValueError(f"need at least {low} negatives, have {neg_count}")
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
    return parts


def mst_weights_kruskal(sq):
    """Ascending edge weights of a minimum spanning tree of the symmetric
    matrix sq, by Kruskal's algorithm over its upper-triangle edges. Every
    minimum spanning tree has the same multiset of weights."""
    m = sq.shape[0]
    parent = list(range(m))

    def root(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    rows, cols = np.triu_indices(m, 1)
    weights = []
    for e in np.argsort(sq[rows, cols], kind="stable"):
        a, b = root(rows[e]), root(cols[e])
        if a != b:
            parent[a] = b
            weights.append(sq[rows[e], cols[e]])
    return np.array(weights)


def rbf(a, b, kappa):
    d = np.asarray(a, float) - np.asarray(b, float)
    return float(np.exp(-(d @ d) / (2.0 * kappa * kappa)))


def svm_dual_objective(alpha, features, labels, kappa):
    n = len(labels)
    total = float(np.sum(alpha))
    for i in range(n):
        for j in range(n):
            total -= 0.5 * alpha[i] * alpha[j] * labels[i] * labels[j] * rbf(
                features[i], features[j], kappa
            )
    return total


def svm_grid_search(features, labels, c, kappa, step=0.01):
    """Exhaustive dual search: grid the first n-1 alphas, solve the last one
    from the equality constraint, keep the feasible maximizer.

    The per-candidate objective is evaluated with vectorized arithmetic for
    speed, but the search itself enumerates the full grid.
    """
    features = np.asarray(features, float)
    labels = np.asarray(labels)
    n = len(labels)
    q = np.empty((n, n))
    for i in range(n):
        for j in range(n):
            q[i, j] = labels[i] * labels[j] * rbf(features[i], features[j], kappa)
    grid = np.arange(0.0, c + step / 2.0, step)
    partial = np.array(list(itertools.product(grid, repeat=n - 1)))
    last = -(partial @ labels[: n - 1]) / labels[n - 1]
    feasible = (last >= -1e-12) & (last <= c + 1e-12)
    candidates = np.column_stack(
        [partial[feasible], np.clip(last[feasible], 0.0, c)]
    )
    objectives = candidates.sum(axis=1) - 0.5 * np.einsum(
        "ki,ij,kj->k", candidates, q, candidates
    )
    winner = int(np.argmax(objectives))
    best_obj = float(objectives[winner])
    best_alpha = candidates[winner]
    raw = np.array([
        float(np.sum([
            best_alpha[j] * labels[j] * rbf(features[j], features[i], kappa)
            for j in range(n)
        ]))
        for i in range(n)
    ])
    g = labels - raw
    margin = (best_alpha > 1e-9) & (best_alpha < c - 1e-9)
    if margin.any():
        bias = float(np.mean(g[margin]))
    else:
        # KKT: alpha=0 positives and alpha=C negatives bound b from below;
        # alpha=0 negatives and alpha=C positives bound it from above.
        lo = [g[i] for i in range(n)
              if (best_alpha[i] <= 1e-9 and labels[i] == 1)
              or (best_alpha[i] >= c - 1e-9 and labels[i] == -1)]
        hi = [g[i] for i in range(n)
              if (best_alpha[i] <= 1e-9 and labels[i] == -1)
              or (best_alpha[i] >= c - 1e-9 and labels[i] == 1)]
        bias = ((max(lo) if lo else float(g.min()))
                + (min(hi) if hi else float(g.max()))) / 2.0
    preds = np.where(raw + bias >= 0.0, 1, -1)
    return best_obj, best_alpha, bias, preds


def smo_reference(features, labels, c, max_passes, kappa):
    """The SMO fit of train_svm as first written: both bound masks, the
    masked argmaxes and every kernel row rebuilt as new arrays each step.
    The bias and the support set are read from alpha by exact comparisons.
    Returns the to_record() dict of the model it trains; max_passes None
    means 10 * n."""
    x = np.atleast_2d(np.asarray(features, dtype=np.float64))
    y = np.asarray(labels, dtype=np.float64)
    n = x.shape[0]
    tol = 1e-3
    max_passes = max_passes if max_passes is not None else 10 * n

    def krow(i):
        d = sq_dists_difference(x, x[i : i + 1])[:, 0]
        return np.exp(-d / (2.0 * kappa * kappa))

    pos = y > 0
    alpha = np.zeros(n)
    g = y.copy()
    converged = False
    for _ in range(max_passes * n):
        up = np.where(pos, alpha < c, alpha > 0.0)
        low = np.where(pos, alpha > 0.0, alpha < c)
        i = int(np.argmax(np.where(up, g, -np.inf)))
        b = g[i] - g
        if np.where(low, b, -np.inf).max() < 2.0 * tol:
            converged = True
            break
        k_i = krow(i)
        a = np.maximum(2.0 - 2.0 * k_i, 1e-12)
        j = int(np.argmax(np.where(low & (b > 0.0), b * b / a, -np.inf)))
        room_i = c - alpha[i] if pos[i] else alpha[i]
        room_j = alpha[j] if pos[j] else c - alpha[j]
        t = min(b[j] / a[j], room_i, room_j)
        alpha[i] = alpha[i] + y[i] * t if t < room_i else (c if pos[i] else 0.0)
        alpha[j] = alpha[j] - y[j] * t if t < room_j else (0.0 if pos[j] else c)
        g -= t * (k_i - krow(j))

    # LIBSVM's bias: the mean g over free rows, else the midpoint between the
    # largest g of the rows that bound it from below and the least g of the
    # rows that bound it from above
    free = (alpha > 0.0) & (alpha < c)
    if free.any():
        bias = float(g[free].mean())
    else:
        at_zero, at_c = alpha == 0.0, alpha == c
        lower = (at_zero & pos) | (at_c & ~pos)
        upper = (at_zero & ~pos) | (at_c & pos)
        bias = (float(g[lower].max()) + float(g[upper].min())) / 2.0

    sv = alpha > 0.0
    return {
        "support_vectors": x[sv].copy().tolist(),
        "dual_coefficients": (alpha * y)[sv].tolist(),
        "bias": bias,
        "kappa": kappa,
        "converged": converged,
    }


def smo_objective_from_model(model, features, labels, kappa):
    """Recover the dual objective of a trained model by matching support
    vectors back to training rows."""
    n = len(labels)
    alpha = np.zeros(n)
    used = set()
    for sv, coef in zip(model.support_vectors, model.dual_coefficients):
        for i in range(n):
            if i not in used and np.allclose(sv, features[i]):
                alpha[i] = coef * labels[i]
                used.add(i)
                break
    return svm_dual_objective(alpha, features, labels, kappa), alpha


def dunn_bruteforce(features, assignments):
    """Pairwise-loop Dunn index."""
    x = np.asarray(features, float)
    labels = np.asarray(assignments)
    ids = sorted(set(labels.tolist()))
    diameter = 0.0
    for cid in ids:
        members = np.flatnonzero(labels == cid)
        for a in members:
            for b in members:
                diameter = max(diameter, float(np.linalg.norm(x[a] - x[b])))
    inter = np.inf
    for p, cid_a in enumerate(ids):
        for cid_b in ids[p + 1 :]:
            for a in np.flatnonzero(labels == cid_a):
                for b in np.flatnonzero(labels == cid_b):
                    inter = min(inter, float(np.linalg.norm(x[a] - x[b])))
    if diameter == 0.0:
        return np.inf
    return inter / diameter


def adaboost_hand_trace():
    """Frozen two-iteration weight trace for a fixed six-sample problem.

    Labels are [+,+,+,-,-,-]; the first base model misclassifies sample 2,
    the second misclassifies sample 3. Worked by hand with exact fractions
    (misclassified samples scaled by alpha, then normalized):

      eps_1 = 1/6,  alpha_1 = 1/5:
        pre-norm [1/6 x5, 1/30 at idx 2], sum 13/15 -> W_2 = [5,5,1,5,5,5]/26
      eps_2 = W_2[3] = 5/26, alpha_2 = 5/21:
        pre-norm [5/26 x2, 1/26, 25/546, 5/26 x2] -> W_3 = [105,105,21,25,105,105]/466
    """
    labels = np.array([1, 1, 1, -1, -1, -1])
    preds_iter1 = np.array([1, 1, -1, -1, -1, -1])
    preds_iter2 = np.array([1, 1, 1, 1, -1, -1])
    return {
        "labels": labels,
        "preds": [preds_iter1, preds_iter2],
        "eps": [1.0 / 6.0, 5.0 / 26.0],
        "alpha": [1.0 / 5.0, 5.0 / 21.0],
        "weights_after": [
            np.array([5, 5, 1, 5, 5, 5], dtype=float) / 26.0,
            np.array([105, 105, 21, 25, 105, 105], dtype=float) / 466.0,
        ],
    }
