import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pboost import Dataset, RngStream, sampling
from pboost.errors import (
    MissingGroupIds,
    SingleCluster,
    SubsetTooLarge,
    TooFewNegatives,
    TooFewPositives,
    TooManyClusters,
)
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

from conftest import make_blobs
from oracles import dunn_bruteforce


class TestRus:
    def test_identity(self):
        idx = np.arange(7)
        assert np.array_equal(np.sort(rus(idx, 7, RngStream(0))), idx)

    def test_empty(self):
        assert rus(np.arange(7), 0, RngStream(0)).size == 0

    def test_too_large(self):
        with pytest.raises(SubsetTooLarge):
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
        with pytest.raises(TooFewPositives):
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


class TestPartitionRuswr:
    def test_equal_counts_single_part(self):
        part = partition_ruswr(100, 100, RngStream(0))
        assert part.count == 1 and part.sizes == [100]

    def test_sizes_in_range(self):
        part = partition_ruswr(5000, 100, RngStream(1))
        assert part.n_total == 5000
        low, high = 50, 200
        for size in part.sizes[:-1]:
            assert low <= size <= high
        assert low <= part.sizes[-1] <= high + low

    def test_too_few(self):
        with pytest.raises(TooFewNegatives):
            partition_ruswr(30, 100, RngStream(0))

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


class TestDunnIndex:
    def test_singletons_give_inf(self):
        x = np.array([[0.0, 0.0], [5.0, 0.0]])
        assert dunn_index(x, [0, 1]) == np.inf

    def test_hand_geometry(self):
        x = np.array([[0.0, 0.0], [0.0, 1.0], [10.0, 0.0], [10.0, 1.0]])
        assert dunn_index(x, [0, 0, 1, 1]) == pytest.approx(10.0)

    def test_single_cluster(self):
        with pytest.raises(SingleCluster):
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


class TestPartitionCus:
    def test_three_blobs(self):
        gen = np.random.default_rng(2)
        blobs = [gen.normal(c, 0.2, (20, 2)) for c in ((0, 0), (8, 0), (0, 8))]
        x = np.vstack(blobs)
        part, chosen_k = partition_cus(x, range(2, 7), RngStream(0))
        assert chosen_k == 3
        assert part.covers(60)

    def test_single_k(self):
        gen = np.random.default_rng(4)
        x = gen.normal(size=(30, 2))
        part, chosen_k = partition_cus(x, [2], RngStream(0))
        assert chosen_k == 2 and part.count == 2

    def test_one_distance_matrix_per_call(self, monkeypatch):
        shapes = []
        original = sampling.sq_dists

        def spy(a, b):
            out = original(a, b)
            shapes.append(out.shape)
            return out

        monkeypatch.setattr(sampling, "sq_dists", spy)
        x = np.random.default_rng(4).normal(size=(30, 2))
        partition_cus(x, range(2, 7), RngStream(0))
        assert shapes.count((30, 30)) == 1


class TestPartitionApriori:
    def test_three_groups(self):
        part = partition_apriori([0, 0, 1, 1, 2])
        assert part.count == 3
        assert part.sizes == [2, 2, 1]

    def test_single_group(self):
        assert partition_apriori([7, 7, 7]).count == 1

    def test_missing(self):
        with pytest.raises(MissingGroupIds):
            partition_apriori(None)

    def test_ascending_group_order(self):
        part = partition_apriori([3, 1, 1, 3, 2])
        assert [p.tolist() for p in part.parts] == [[1, 2], [4], [0, 3]]


class TestPartitioningType:
    def test_rejects_overlap(self):
        with pytest.raises(ValueError):
            Partitioning((np.array([0, 1]), np.array([1, 2])))

    def test_rejects_empty_part(self):
        with pytest.raises(ValueError):
            Partitioning((np.array([0]), np.array([], dtype=int)))


class TestRandomBalance:
    def test_preserves_total(self):
        data = make_blobs(10, 90)
        out = random_balance(data, RngStream(0))
        assert out.m == 100
        assert out.m_pos >= 2 and out.m_neg >= 2

    def test_growth_needs_two(self):
        data = make_blobs(1, 99)
        with pytest.raises(TooFewPositives):
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
