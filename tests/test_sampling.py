import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pboost import Dataset, RngStream, sampling
from pboost import data as data_module
from pboost.errors import TooFewNegatives, TooManyClusters
from pboost.sampling import (
    Partitioning,
    dunn_index,
    kmeans,
    partition_apriori,
    partition_cus,
    partition_ruswr,
    random_balance,
    rus,
    smote,
    weighted_draw_without_replacement,
)

from conftest import BLOCK_ROWS, integer_grid, make_blobs, set_block_rows
from oracles import (
    dunn_bruteforce,
    dunn_ix_blocks,
    kmeans_masks,
    mst_weights_kruskal,
    partition_cus_reference,
    partition_ruswr_reference,
    smote_neighbours_dense,
    sq_dists_difference,
)


def _rows_with_duplicates(n_distinct, n_dup, d, seed, integers=True):
    """Up to n_distinct distinct rows of d small-integer features (or those
    plus a little noise) and n_dup repeats of them, shuffled."""
    gen = np.random.default_rng(seed)
    base = np.unique(gen.integers(-6, 7, (n_distinct, d)).astype(np.float64), axis=0)
    if not integers:
        base = base + gen.normal(0.0, 0.01, base.shape)
    repeats = base[gen.integers(base.shape[0], size=n_dup)]
    rows = np.vstack([base, repeats])
    return rows[gen.permutation(rows.shape[0])]


def _smote_from_dense(x, n_new, k, rng):
    """smote's draws, interpolating toward the dense oracle's neighbours."""
    neighbours = smote_neighbours_dense(x, k)
    gen = rng.generator()
    base = gen.integers(x.shape[0], size=n_new)
    pick = gen.integers(k, size=n_new)
    u = gen.random(n_new)
    return x[base] + u[:, None] * (x[neighbours[base, pick]] - x[base])


class TestRus:
    def test_identity(self):
        idx = np.arange(7)
        assert np.array_equal(np.sort(rus(idx, 7, RngStream(0))), idx)

    def test_empty(self):
        assert rus(np.arange(7), 0, RngStream(0)).size == 0

    def test_too_large(self):
        with pytest.raises(ValueError, match="cannot pick 4 from 3"):
            rus(np.arange(3), 4, RngStream(0))

    def test_determinism_and_seed_sensitivity(self):
        idx = np.arange(100)
        a = rus(idx, 5, RngStream(1))
        b = rus(idx, 5, RngStream(1))
        c = rus(idx, 5, RngStream(2))
        assert np.array_equal(a, b)
        assert not np.array_equal(np.sort(a), np.sort(c))

    def test_distinct(self):
        out = rus(np.arange(50), 20, RngStream(3))
        assert np.unique(out).size == 20


class TestWeightedDrawWithoutReplacement:
    def test_distinct_and_deterministic(self):
        idx = np.arange(30)
        w = np.linspace(1, 30, 30)
        a = weighted_draw_without_replacement(idx, w, 10, RngStream(0))
        b = weighted_draw_without_replacement(idx, w, 10, RngStream(0))
        assert np.array_equal(a, b)
        assert np.unique(a).size == 10

    def test_heavy_weights_always_present(self):
        idx = np.arange(10)
        w = np.full(10, 1e-12)
        w[3] = 1.0
        for seed in range(20):
            out = weighted_draw_without_replacement(idx, w, 3, RngStream(seed))
            assert 3 in out

    def test_zero_weight_fallback(self):
        idx = np.arange(5)
        w = np.array([1.0, 0.0, 0.0, 0.0, 0.0])
        out = weighted_draw_without_replacement(idx, w, 3, RngStream(1))
        assert np.unique(out).size == 3 and 0 in out


class TestSmote:
    def test_on_segment(self):
        pos = np.array([[0.0, 0.0], [1.0, 1.0]])
        out = smote(pos, 10, 1, RngStream(0))
        # points lie on the segment between the two positives
        assert np.allclose(out[:, 0], out[:, 1])
        assert np.all(out >= 0.0) and np.all(out <= 1.0)

    def test_empty(self):
        assert smote(np.eye(2), 0, 1, RngStream(0)).shape == (0, 2)

    def test_too_few(self):
        with pytest.raises(ValueError, match="SMOTE needs at least two positive samples"):
            smote(np.array([[1.0, 2.0]]), 3, 1, RngStream(0))

    def test_collinear(self):
        pos = np.array([[0.0, 0.0], [1.0, 2.0], [2.0, 4.0]])
        out = smote(pos, 25, 2, RngStream(1))
        residual = np.abs(out[:, 1] - 2.0 * out[:, 0])
        assert np.all(residual < 1e-12)

    @settings(max_examples=200, deadline=None)
    @given(seed=st.integers(0, 10_000), n_new=st.integers(1, 30))
    def test_within_positive_bounding_box(self, seed, n_new):
        gen = np.random.default_rng(seed)
        pos = gen.normal(size=(6, 3))
        out = smote(pos, n_new, 3, RngStream(seed))
        lo, hi = pos.min(axis=0), pos.max(axis=0)
        assert np.all(out >= lo - 1e-12) and np.all(out <= hi + 1e-12)

    @pytest.mark.parametrize("n", [2, 40, 512])
    def test_one_block_equals_dense_oracle(self, n):
        x = np.random.default_rng(n).normal(3.0, 2.0, (n, 4))
        k = min(5, n - 1)
        got = smote(x, 300, 5, RngStream(n))
        assert got.tobytes() == _smote_from_dense(x, 300, k, RngStream(n)).tobytes()

    @pytest.mark.parametrize("rows", BLOCK_ROWS)
    def test_row_blocks_exact_on_integer_grid(self, monkeypatch, rows):
        rows = set_block_rows(monkeypatch, rows, 300)
        x = integer_grid(300, rows, seed=rows)
        blocks = data_module._sq_dist_blocks(x, x, skip=np.arange(300))
        neighbours = np.vstack([np.argsort(block, axis=1)[:, :5] for _, block in blocks])
        assert np.array_equal(neighbours, smote_neighbours_dense(x, 5))
        got = smote(x, 3000, 5, RngStream(rows))
        assert got.tobytes() == _smote_from_dense(x, 3000, 5, RngStream(rows)).tobytes()

    @pytest.mark.parametrize("n, n_new", [(40, 3), (512, 3), (1500, 3), (1500, 3000)])
    def test_drawn_blocks_equal_dense_oracle(self, n, n_new):
        # duplicated pairs straddle the 21-row blocks of 1500 rows, and 3
        # draws search at most 3 rows
        x = integer_grid(n, data_module._BLOCK // n, seed=n)
        got = smote(x, n_new, 5, RngStream(n_new))
        assert got.tobytes() == _smote_from_dense(x, n_new, 5, RngStream(n_new)).tobytes()

    def test_memory_bounded_by_row_blocks(self):
        n = 4000
        x = np.random.default_rng(3).normal(size=(n, 2))
        tracemalloc.start()
        try:
            smote(x, 100, 5, RngStream(0))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 16e6  # a dense n x n matrix: 8 n^2 = 128 MB


class TestPartitionRuswr:
    def test_equal_counts_single_part(self):
        part = partition_ruswr(100, 100, RngStream(0))
        assert len(part.parts) == 1 and part.sizes == [100]

    def test_sizes_in_range(self):
        part = partition_ruswr(5000, 100, RngStream(1))
        assert sum(part.sizes) == 5000
        low, high = 50, 200
        for size in part.sizes[:-1]:
            assert low <= size <= high
        assert low <= part.sizes[-1] <= high + low

    def test_too_few(self):
        with pytest.raises(TooFewNegatives):
            partition_ruswr(30, 100, RngStream(0))

    def test_no_positives_raises(self):
        # with m_pos = 0 every drawn size is 0, so the draw loop never ends
        with pytest.raises(ValueError, match="m_pos"):
            partition_ruswr(20, 0, RngStream(0))

    @settings(max_examples=1000, deadline=None)
    @given(
        m_pos=st.integers(2, 120),
        factor=st.floats(0.5, 60.0),
        seed=st.integers(0, 2**31),
    )
    def test_partition_invariants(self, m_pos, factor, seed):
        neg_count = int(m_pos * factor)
        low = math.ceil(m_pos / 2)
        if neg_count < low:
            return
        part = partition_ruswr(neg_count, m_pos, RngStream(seed))
        flat = np.concatenate(part.parts)
        assert np.array_equal(np.sort(flat), np.arange(neg_count))
        for size in part.sizes[:-1]:
            assert low <= size <= 2 * m_pos
        assert part.sizes[-1] >= 1

    @settings(max_examples=1000, deadline=None)
    @given(
        m_pos=st.integers(1, 120),
        factor=st.floats(0.5, 60.0),
        seed=st.integers(0, 2**31),
    )
    def test_parts_match_slice_reference(self, m_pos, factor, seed):
        neg_count = int(m_pos * factor)
        if neg_count < math.ceil(m_pos / 2):
            return
        parts = partition_ruswr(neg_count, m_pos, RngStream(seed)).parts
        expected = partition_ruswr_reference(neg_count, m_pos, RngStream(seed))
        assert [p.dtype for p in parts] == [p.dtype for p in expected]
        assert [p.tobytes() for p in parts] == [p.tobytes() for p in expected]


class TestKmeans:
    def test_two_blobs(self):
        gen = np.random.default_rng(0)
        a = gen.normal(0.0, 0.3, (30, 2))
        b = gen.normal(10.0, 0.3, (25, 2))
        x = np.vstack([a, b])
        result = kmeans(x, 2, RngStream(0))
        first, second = result.assignments[:30], result.assignments[30:]
        assert np.unique(first).size == 1 and np.unique(second).size == 1
        assert first[0] != second[0]

    def test_k_one(self):
        x = np.random.default_rng(1).normal(size=(12, 2))
        result = kmeans(x, 1, RngStream(0))
        assert np.allclose(result.centroids[0], x.mean(axis=0))

    def test_k_equals_n(self):
        x = np.arange(10, dtype=float)[:, None] * 3.0
        result = kmeans(x, 10, RngStream(0))
        assert np.unique(result.assignments).size == 10

    def test_too_many_clusters(self):
        x = np.zeros((5, 2))
        with pytest.raises(TooManyClusters):
            kmeans(x, 2, RngStream(0))

    @pytest.mark.parametrize("k", [0, -1])
    def test_k_below_one_rejected(self, k):
        x = np.random.default_rng(1).normal(size=(12, 2))
        with pytest.raises(ValueError, match="k must be at least 1"):
            kmeans(x, k, RngStream(0))

    def test_rows_closer_than_underflow_count_as_distinct(self):
        # (1e-200)^2 rounds to 0, so seeding sees no distance between these
        # two distinct rows; k = 2 is still allowed, as np.unique counts
        x = np.array([[0.0], [1e-200], [0.0]])
        result = kmeans(x, 2, RngStream(0))
        assignments, centroids, _ = kmeans_masks(x, 2, RngStream(0))
        assert result.assignments.tobytes() == assignments.tobytes()
        assert result.centroids.tobytes() == centroids.tobytes()
        with pytest.raises(TooManyClusters):
            kmeans(x, 3, RngStream(0))
        with pytest.raises(TooManyClusters):
            kmeans(np.empty((0, 2)), 1, RngStream(0))

    def test_objective_nonincreasing(self):
        # run Lloyd manually from the same seeding and check monotonicity
        gen = np.random.default_rng(3)
        x = gen.normal(size=(60, 2))
        result = kmeans(x, 4, RngStream(7))
        # within-cluster sum of squares of the final result is a fixpoint:
        # one more Lloyd step must not increase it
        def wcss(assign, cents):
            return sum(
                float(((x[assign == j] - cents[j]) ** 2).sum())
                for j in range(4)
            )
        d = ((x[:, None, :] - result.centroids[None]) ** 2).sum(-1)
        reassigned = np.argmin(d, axis=1)
        new_cents = np.vstack(
            [x[reassigned == j].mean(0) if (reassigned == j).any() else result.centroids[j]
             for j in range(4)]
        )
        assert wcss(reassigned, new_cents) <= wcss(result.assignments, result.centroids) + 1e-9

    @settings(max_examples=300, deadline=None)
    @given(
        d=st.sampled_from([1, 2, 5]),
        n_distinct=st.integers(1, 40),
        n_dup=st.integers(0, 40),
        integers=st.booleans(),
        k_frac=st.floats(0.0, 1.0),
        k_all=st.booleans(),
        seed=st.integers(0, 10_000),
    )
    def test_equals_mask_reference(self, d, n_distinct, n_dup, integers, k_frac, k_all, seed):
        x = _rows_with_duplicates(n_distinct, n_dup, d, seed, integers)
        distinct = np.unique(x, axis=0).shape[0]
        k = distinct if k_all else 1 + int(k_frac * (distinct - 1))
        result = kmeans(x, k, RngStream(seed))
        assignments, centroids, _ = kmeans_masks(x, k, RngStream(seed))
        assert result.assignments.tobytes() == assignments.tobytes()
        assert result.centroids.tobytes() == centroids.tobytes()

    @pytest.mark.parametrize("d", [1, 2, 5])
    def test_empty_cluster_reseed_equals_reference(self, d):
        # At a spacing of 2e-163 squared distances underflow to a few
        # subnormal steps or to 0, so distinct rows tie and Lloyd steps pile
        # rows into few clusters and empty the others.
        x = _rows_with_duplicates(12, 6, d, seed=0) * 2e-163
        k = np.unique(x, axis=0).shape[0]
        result = kmeans(x, k, RngStream(0))
        assignments, centroids, reseeds = kmeans_masks(x, k, RngStream(0))
        assert reseeds > 0
        assert result.assignments.tobytes() == assignments.tobytes()
        assert result.centroids.tobytes() == centroids.tobytes()

    def test_holds_no_n_by_k_array(self):
        # the 20 000 x 20 distance block alone is 3.2 MB
        x = np.random.default_rng(8).normal(size=(20_000, 2))
        tracemalloc.start()
        try:
            kmeans(x, 20, RngStream(0))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2e6


class TestDunnIndex:
    def test_singletons_give_inf(self):
        x = np.array([[0.0, 0.0], [5.0, 0.0]])
        assert dunn_index(x, [0, 1]) == np.inf

    def test_hand_geometry(self):
        x = np.array([[0.0, 0.0], [0.0, 1.0], [10.0, 0.0], [10.0, 1.0]])
        assert dunn_index(x, [0, 0, 1, 1]) == pytest.approx(10.0)

    def test_single_cluster(self):
        with pytest.raises(ValueError, match="Dunn index needs at least two clusters"):
            dunn_index(np.eye(3), [0, 0, 0])

    @settings(max_examples=200, deadline=None)
    @given(seed=st.integers(0, 10_000), k=st.integers(2, 4))
    def test_matches_bruteforce(self, seed, k):
        gen = np.random.default_rng(seed)
        n = int(gen.integers(k + 1, 20))
        x = gen.normal(size=(n, 2))
        labels = gen.integers(k, size=n)
        for j in range(k):  # ensure nonempty clusters
            labels[j] = j
        fast = dunn_index(x, labels)
        slow = dunn_bruteforce(x, labels)
        if math.isinf(slow):
            assert math.isinf(fast)
        else:
            assert fast == pytest.approx(slow, rel=1e-9)


def _tree_dunn(x, labels):
    return sampling._dunn(x, sampling._spanning_tree(x), np.asarray(labels))


class TestSpanningTree:
    @settings(max_examples=200, deadline=None)
    @given(
        d=st.sampled_from([1, 2, 5]),
        n_distinct=st.integers(1, 30),
        n_dup=st.integers(0, 30),
        integers=st.booleans(),
        seed=st.integers(0, 10_000),
    )
    def test_spans_every_row_with_minimum_weight(self, d, n_distinct, n_dup, integers, seed):
        x = _rows_with_duplicates(n_distinct, n_dup, d, seed, integers)
        m = x.shape[0]
        sq = sq_dists_difference(x, x)
        u, v, w = sampling._spanning_tree(x)
        assert u.size == v.size == w.size == m - 1
        assert w.tobytes() == sq[u, v].tobytes()
        root = list(range(m))

        def find(i):
            while root[i] != i:
                i = root[i]
            return i

        for a, b in zip(u, v):
            root[find(a)] = find(b)
        assert len({find(i) for i in range(m)}) == 1
        assert np.sort(w).tobytes() == mst_weights_kruskal(sq).tobytes()

    @pytest.mark.parametrize("m", [1, 2, 7, 513, 2000])
    @pytest.mark.parametrize("d", [1, 2, 5])
    def test_self_distances_are_exactly_symmetric(self, m, d):
        x = np.random.default_rng(m * d).normal(3.0, 2.0, (m, d))
        for rows in (x, np.asfortranarray(x), x[::2]):
            sq = data_module.sq_dists(rows, rows)
            assert sq.tobytes() == np.ascontiguousarray(sq.T).tobytes()


class TestTreeDunn:
    @settings(max_examples=300, deadline=None)
    @given(
        d=st.sampled_from([1, 2, 5]),
        n_distinct=st.integers(1, 30),
        n_dup=st.integers(0, 30),
        integers=st.booleans(),
        k=st.integers(2, 8),
        seed=st.integers(0, 10_000),
    )
    def test_equals_ix_blocks(self, d, n_distinct, n_dup, integers, k, seed):
        x = _rows_with_duplicates(n_distinct, n_dup, d, seed, integers)
        m = x.shape[0]
        if m < 2:
            return
        labels = np.random.default_rng(seed).integers(k, size=m) * 3  # gaps in the ids
        labels[:2] = [0, 3]  # at least two clusters
        assert _tree_dunn(x, labels) == dunn_ix_blocks(x, labels)
        for idx in sampling._label_groups(labels):
            rows = x[idx]
            assert sampling._diameter(rows) == sq_dists_difference(rows, rows).max()

    def test_zero_distances(self):
        x = np.array([[0.0, 0.0], [0.0, 0.0], [1.0, 0.0], [1.0, 0.0], [3.0, 0.0]])
        split = [0, 1, 1, 2, 2]  # duplicates in different clusters: separation 0
        assert _tree_dunn(x, split) == dunn_ix_blocks(x, split) == 0.0
        together = [0, 0, 1, 1, 2]  # every diameter 0
        assert _tree_dunn(x, together) == dunn_ix_blocks(x, together) == np.inf

    def test_singleton_clusters(self):
        x = np.array([[0.0], [1.0], [5.0], [9.0], [9.5]])
        labels = [0, 0, 1, 2, 2]  # cluster 1 is a singleton
        assert _tree_dunn(x, labels) == dunn_ix_blocks(x, labels) == 4.0

    def test_all_singletons_give_inf(self):
        x = np.random.default_rng(0).normal(size=(6, 2))
        assert _tree_dunn(x, np.arange(6)) == dunn_ix_blocks(x, np.arange(6)) == np.inf

    def test_single_cluster(self):
        with pytest.raises(ValueError, match="Dunn index needs at least two clusters"):
            _tree_dunn(np.eye(3), [4, 4, 4])


class TestPartitionCus:
    def test_three_blobs(self):
        gen = np.random.default_rng(2)
        blobs = [gen.normal(c, 0.2, (20, 2)) for c in ((0, 0), (8, 0), (0, 8))]
        x = np.vstack(blobs)
        part = partition_cus(x, range(2, 7), RngStream(0))
        assert len(part.parts) == 3
        assert np.array_equal(np.sort(np.concatenate(part.parts)), np.arange(60))

    def test_single_k(self):
        gen = np.random.default_rng(4)
        x = gen.normal(size=(30, 2))
        part = partition_cus(x, [2], RngStream(0))
        assert len(part.parts) == 2

    def test_search_stops_at_the_first_k_above_the_distinct_rows(self):
        # k = 4 exceeds the 3 distinct rows, and so does every larger k
        x = np.repeat([[0.0, 0.0], [5.0, 0.0], [0.0, 5.0]], 10, axis=0)
        part = partition_cus(x, range(2, 21), RngStream(0))
        assert len(part.parts) == 3
        assert sorted(p.tolist() for p in part.parts) == [
            list(range(r, r + 10)) for r in (0, 10, 20)
        ]
        with pytest.raises(TooManyClusters, match="k=2 exceeds distinct rows"):
            partition_cus(x[:10], range(2, 21), RngStream(0))

    def test_memory_bounded_without_distance_matrix(self):
        x = np.random.default_rng(4).normal(size=(5000, 2))
        tracemalloc.start()
        try:
            partition_cus(x, range(2, 4), RngStream(0))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 16e6  # a dense m x m matrix: 8 m^2 = 200 MB

    @pytest.mark.parametrize("cols, seed", [(1, 0), (1, 3), (2, 6)])
    def test_ties_between_k_resolve_like_reference(self, cols, seed):
        x = integer_grid(300, 7, seed)[:, :cols]
        chosen, parts, scores = partition_cus_reference(x, range(2, 21), RngStream(seed))
        assert sum(score == scores[chosen] for score in scores.values()) > 1
        part = partition_cus(x, range(2, 21), RngStream(seed))
        assert len(part.parts) == chosen
        assert [p.tobytes() for p in part.parts] == [p.tobytes() for p in parts]


class TestPartitionApriori:
    def test_three_groups(self):
        part = partition_apriori([0, 0, 1, 1, 2])
        assert len(part.parts) == 3
        assert part.sizes == [2, 2, 1]

    def test_single_group(self):
        assert len(partition_apriori([7, 7, 7]).parts) == 1

    def test_missing(self):
        for group_ids in (None, []):
            with pytest.raises(ValueError, match="a-priori partitioning needs group ids"):
                partition_apriori(group_ids)

    def test_ascending_group_order(self):
        part = partition_apriori([3, 1, 1, 3, 2])
        assert [p.tolist() for p in part.parts] == [[1, 2], [4], [0, 3]]


class TestPartitioningType:
    def test_parts_follow_ascending_labels(self):
        part = Partitioning(np.array([3, 1, 1, 3, 2]))
        assert [p.tolist() for p in part.parts] == [[1, 2], [4], [0, 3]]
        assert len(part.parts) == 3 and part.sizes == [2, 1, 2]

    @pytest.mark.parametrize(
        "labels",
        [
            np.array([], dtype=np.int64),
            np.zeros((2, 3), dtype=np.int64),
            np.array([0.0, 1.0]),
        ],
        ids=["empty", "2-D", "float"],
    )
    def test_rejects_labels_that_are_not_nonempty_1d_integers(self, labels):
        with pytest.raises(ValueError):
            Partitioning(labels)


class TestRandomBalance:
    def test_preserves_total(self):
        data = make_blobs(10, 90)
        out = random_balance(data, RngStream(0))
        assert out.m == 100
        assert out.m_pos >= 2 and out.m_neg >= 2

    def test_growth_needs_two(self):
        data = make_blobs(1, 99)
        with pytest.raises(ValueError, match="synthetic growth needs at least two samples"):
            # any drawn target >= 2 forces synthetic growth of the singleton
            random_balance(data, RngStream(0))

    def test_target_counts(self):
        data = make_blobs(10, 90)
        for seed in range(10):
            out = random_balance(data, RngStream(seed))
            assert out.m == 100
            assert 2 <= out.m_pos <= 98

    def test_deterministic(self):
        data = make_blobs(10, 40)
        a = random_balance(data, RngStream(5))
        b = random_balance(data, RngStream(5))
        assert np.array_equal(a.features, b.features)

    def test_classes_at_targets_are_only_shuffled(self, monkeypatch):
        data = make_blobs(2, 2)  # M = 4, so the positive target is always 2
        root = RngStream(0)
        paths = []
        real_generator = RngStream.generator

        def spy(stream):
            paths.append(stream.path)
            return real_generator(stream)

        monkeypatch.setattr(RngStream, "generator", spy)
        out = random_balance(data, root)
        monkeypatch.undo()
        assert paths == [root.child("target").path, root.child("shuffle").path]
        order = root.child("shuffle").generator().permutation(4)
        assert np.array_equal(out.features, data.features[order])
        assert np.array_equal(out.labels, data.labels[order])

    def test_negative_growth_needs_two(self):
        with pytest.raises(ValueError, match="synthetic growth needs at least two samples"):
            # the target 2 of 4 forces synthetic growth of the single negative
            random_balance(make_blobs(3, 1), RngStream(0))
