import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pboost import Dataset, RngStream, deal_folds, normalize_weights, subsample_to_skew
from pboost import data as data_module
from pboost.data import round_half_up, sq_dists
from pboost.errors import AllZeroWeights, InsufficientNegatives

from conftest import integer_grid, make_blobs
from oracles import self_sq_dists_dense, sq_dists_difference


class TestNormalizeWeights:
    def test_symmetric(self):
        assert np.allclose(normalize_weights([2.0, 2.0]), [0.5, 0.5])

    def test_ratio(self):
        assert np.allclose(normalize_weights([1.0, 3.0]), [0.25, 0.75])

    def test_all_zero(self):
        with pytest.raises(AllZeroWeights):
            normalize_weights([0.0, 0.0])

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            normalize_weights([0.5, -0.1])

    @settings(max_examples=1000, deadline=None)
    @given(
        st.lists(st.floats(min_value=0.0, max_value=1e6), min_size=1, max_size=40).filter(
            lambda w: sum(w) > 0
        )
    )
    def test_sums_to_one_and_preserves_ratios(self, w):
        out = normalize_weights(np.array(w))
        assert abs(out.sum() - 1.0) < 1e-9
        w = np.array(w)
        positive = w > 0
        if positive.sum() >= 2:
            i, j = np.flatnonzero(positive)[:2]
            assert out[i] * w[j] == pytest.approx(out[j] * w[i], rel=1e-9)


def _class_folds(data, k, rng):
    """(train, held-out) index pairs of deal_folds over the class strata."""
    folds = deal_folds([data.pos_indices, data.neg_indices], k, rng)
    return [(np.setdiff1d(np.arange(data.m), held), held) for held in folds]


class TestStratifiedKfold:
    """Stratified k-fold splitting: deal_folds over the class strata."""

    def test_balanced_divisible(self):
        data = make_blobs(10, 10)
        folds = _class_folds(data, 5, RngStream(0))
        for _, held in folds:
            labels = data.labels[held]
            assert (labels == 1).sum() == 2 and (labels == -1).sum() == 2

    def test_imbalanced_divisible(self):
        data = make_blobs(10, 90)
        folds = _class_folds(data, 5, RngStream(0))
        for _, held in folds:
            labels = data.labels[held]
            assert (labels == 1).sum() == 2 and (labels == -1).sum() == 18

    @settings(max_examples=1000, deadline=None)
    @given(
        n_pos=st.integers(min_value=2, max_value=30),
        n_neg=st.integers(min_value=2, max_value=60),
        k=st.integers(min_value=2, max_value=6),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
    )
    def test_exact_partition_and_ratio(self, n_pos, n_neg, k, seed):
        if n_pos < k or n_neg < k:
            return
        data = make_blobs(n_pos, n_neg, seed=seed % 7)
        folds = _class_folds(data, k, RngStream(seed))
        held_all = np.concatenate([held for _, held in folds])
        assert np.array_equal(np.sort(held_all), np.arange(data.m))
        for train, held in folds:
            assert np.intersect1d(train, held).size == 0
            assert np.array_equal(
                np.sort(np.concatenate([train, held])), np.arange(data.m)
            )
            pos_in_fold = (data.labels[held] == 1).sum()
            assert abs(pos_in_fold - n_pos / k) < 1.0 + 1e-9

    def test_deterministic(self):
        data = make_blobs(8, 20)
        a = _class_folds(data, 4, RngStream(9))
        b = _class_folds(data, 4, RngStream(9))
        for (ta, ha), (tb, hb) in zip(a, b):
            assert np.array_equal(ta, tb) and np.array_equal(ha, hb)


class TestSubsampleToSkew:
    def test_one_to_one(self):
        data = make_blobs(100, 10000)
        out = subsample_to_skew(data, 1.0, RngStream(0))
        assert out.m_pos == 100 and out.m_neg == 100

    def test_exact_boundary(self):
        data = make_blobs(100, 10000)
        out = subsample_to_skew(data, 100.0, RngStream(0))
        assert out.m_pos == 100 and out.m_neg == 10000

    def test_insufficient(self):
        data = make_blobs(100, 5000)
        with pytest.raises(InsufficientNegatives):
            subsample_to_skew(data, 100.0, RngStream(0))

    def test_idempotent_counts(self):
        data = make_blobs(40, 900)
        once = subsample_to_skew(data, 10.0, RngStream(1))
        twice = subsample_to_skew(once, 10.0, RngStream(2))
        assert (once.m_pos, once.m_neg) == (twice.m_pos, twice.m_neg) == (40, 400)

    def test_group_ids_preserved(self):
        gen = np.random.default_rng(0)
        data = Dataset(
            gen.normal(size=(30, 2)),
            np.concatenate([np.ones(10, int), -np.ones(20, int)]),
            np.arange(30),
        )
        out = subsample_to_skew(data, 1.0, RngStream(3))
        assert out.group_ids is not None
        # group ids still identify the original rows
        assert set(out.group_ids.tolist()) <= set(range(30))

    def test_deterministic(self):
        data = make_blobs(40, 900)
        a = subsample_to_skew(data, 5.0, RngStream(11))
        b = subsample_to_skew(data, 5.0, RngStream(11))
        assert np.array_equal(a.features, b.features)


def test_round_half_up():
    assert round_half_up(0.5) == 1
    assert round_half_up(1.5) == 2
    assert round_half_up(2.4) == 2


def test_dataset_validation():
    with pytest.raises(ValueError):
        Dataset(np.array([[np.inf, 0.0]]), np.array([1]))
    with pytest.raises(ValueError):
        Dataset(np.array([[0.0, 0.0]]), np.array([2]))


class TestSqDists:
    @settings(max_examples=150, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=10_000),
        n=st.integers(min_value=1, max_value=300),
        m=st.integers(min_value=1, max_value=300),
        d=st.integers(min_value=1, max_value=8),
        same=st.booleans(),
        duplicates=st.booleans(),
        shift=st.floats(min_value=-1e3, max_value=1e3),
        block=st.sampled_from([1, 7, 300, 1 << 15]),
    )
    def test_bit_identical_to_difference_oracle(
        self, seed, n, m, d, same, duplicates, shift, block
    ):
        gen = np.random.default_rng(seed)
        a = gen.normal(shift, 1.0, (n, d))
        if duplicates:
            a = a[gen.integers(n, size=n)]
        b = a if same else gen.normal(shift, 1.0, (m, d))
        with mock.patch.object(data_module, "_SQ_DISTS_BLOCK", block):
            got = sq_dists(a, b)
            flipped = sq_dists(b, a)
        want = sq_dists_difference(a, b)
        assert got.shape == want.shape
        assert got.tobytes() == want.tobytes()
        assert flipped.tobytes() == np.ascontiguousarray(got.T).tobytes()
        row = np.empty(n)
        data_module.row_sq_dists(np.ascontiguousarray(a.T), n // 2, row, np.empty(n))
        assert row.tobytes() == sq_dists(a, a[n // 2 : n // 2 + 1])[:, 0].tobytes()

    def test_spans_several_default_blocks(self):
        gen = np.random.default_rng(7)
        a = gen.normal(0.0, 1.0, (700, 4))
        a[350:] = a[:350]
        b = gen.normal(0.0, 1.0, (500, 4))
        assert 700 * 500 > 3 * data_module._SQ_DISTS_BLOCK
        for left, right in ((a, a), (a, b)):
            got = sq_dists(left, right)
            assert got.tobytes() == sq_dists_difference(left, right).tobytes()

    def test_one_distance_matrix_in_memory(self):
        n = 2000
        x = np.random.default_rng(3).normal(0.0, 1.0, (n, 5))
        tracemalloc.start()
        try:
            sq = sq_dists(x, x)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert sq.shape == (n, n)
        assert peak < 1.25 * 8 * n * n


class TestNeighbourBlocks:
    @pytest.mark.parametrize("rows", [1, 7, 299, 300])
    def test_blocks_stack_to_the_dense_matrix(self, rows):
        # 300 exact rows in blocks of `rows`: a short last block for 7 and
        # 299, and the diagonal of each block offset by its start
        x = integer_grid(300, rows, seed=rows)
        with mock.patch.object(data_module, "_NEIGHBOUR_BLOCK", rows * 300):
            blocks = list(data_module._neighbour_blocks(x))
        starts = [start for start, _ in blocks]
        assert starts == list(range(0, 300, rows))
        assert all(block.shape[0] <= rows for _, block in blocks)
        stacked = np.vstack([block for _, block in blocks])
        assert stacked.tobytes() == self_sq_dists_dense(x).tobytes()

    @pytest.mark.parametrize("n", [2, 100, 512])
    def test_one_block_up_to_512_rows_is_the_dense_matrix(self, n):
        x = np.random.default_rng(n).normal(3.0, 2.0, (n, 4))
        blocks = list(data_module._neighbour_blocks(x))
        assert len(blocks) == 1
        assert blocks[0][1].tobytes() == self_sq_dists_dense(x).tobytes()


def _strip_cases(n, d):
    """Inputs for nearest_sq_dists that stress its sort: Gaussian rows, heavy
    duplicates, ties on the sort feature, every feature constant, one far
    outlier along the sort feature, and collinear rows."""
    gen = np.random.default_rng(n * 100 + d)
    gauss = gen.normal(0.0, 1.0, (n, d))
    ties = gauss.copy()
    ties[:, 0] = 10.0 * gen.integers(-1, 2, n)
    outlier = gauss.copy()
    outlier[n // 3, 0] = 1e4
    return {
        "gaussian": gauss,
        "duplicates": gauss[gen.integers(0, 7, n)],
        "ties": ties,
        "constant": np.full((n, d), 2.5),
        "outlier": outlier,
        "collinear": gen.normal(0.0, 1.0, (n, 1)) * gen.normal(0.0, 1.0, d) + 3.0,
    }


class TestNearestSqDists:
    # the strip replaces row blocks above 2 sqrt(_NEIGHBOUR_BLOCK) rows;
    # patching _NEIGHBOUR_BLOCK to 2500 puts that threshold at 100 rows
    @pytest.mark.parametrize("block", [1600, 2500, 10_000])
    def test_strip_exact_on_integer_grid(self, sq_dists_entries, block):
        x = integer_grid(300, 7, seed=block)
        with mock.patch.object(data_module, "_NEIGHBOUR_BLOCK", block):
            got = data_module.nearest_sq_dists(x)
            assert sum(sq_dists_entries) < 300 * 300  # the strip pruned
            plain = data_module._nearest_in_row_blocks(x)
        assert got.tobytes() == plain.tobytes()
        assert got.tobytes() == self_sq_dists_dense(x).min(axis=1).tobytes()

    # the strip widens its reach by a few ulps, and no entry moves: the
    # result is the dense minimum to the byte
    @pytest.mark.parametrize("d", [1, 2, 3, 5, 9, 13])
    @pytest.mark.parametrize("n", [99, 100, 101])
    def test_within_slack_of_dense(self, n, d):
        for name, x in _strip_cases(n, d).items():
            with mock.patch.object(data_module, "_NEIGHBOUR_BLOCK", 2500):
                got = data_module.nearest_sq_dists(x)
            want = self_sq_dists_dense(x).min(axis=1)
            assert got.tobytes() == want.tobytes(), name

    def test_reach_covers_a_row_past_the_rounded_edge(self):
        # Row 0's nearest row is row 2, fl(r+) - tiny == r away along the sort
        # feature, whose square rounds below 3 = its distance to row 1. The
        # edge fl(tiny + sqrt(3)) ties down to r and leaves row 2 out, unless
        # the reach is widened; the 30 rows between push row 2 out of the
        # window.
        r = float(np.sqrt(3.0))  # even last bit, and fl(r * r) < 3
        tiny = 2.0**-53  # half an ulp of r
        rows = [[tiny, 0, 0, 0], [tiny, 1, 1, 1], [np.nextafter(r, 2.0), 0, 0, 0]]
        rows += [[0.01 * (k + 1), 100, 0, 0] for k in range(30)]
        rows += [[1000 + 0.01 * k, 0, 0, 0] for k in range(120)]
        x = np.array(rows)
        with mock.patch.object(data_module, "_NEIGHBOUR_BLOCK", 2500):
            got = data_module.nearest_sq_dists(x)
        want = self_sq_dists_dense(x).min(axis=1)
        assert want[0] < 3.0
        assert got.tobytes() == want.tobytes()

    def test_products_stay_within_one_block(self, sq_dists_entries):
        x = _strip_cases(1500, 2)["outlier"]
        data_module.nearest_sq_dists(x)
        assert max(sq_dists_entries) <= data_module._NEIGHBOUR_BLOCK
        assert sum(sq_dists_entries) < 1500 * 1500 / 4
