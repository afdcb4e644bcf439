import contextlib
import tracemalloc
from functools import partial
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pboost import Dataset, RngStream, deal_folds, normalize_weights, subsample_to_skew
from pboost import data as data_module
from pboost import sampling as sampling_module
from pboost.data import round_half_up, sq_dists
from pboost.errors import AllZeroWeights, DegenerateData, InsufficientNegatives
from pboost.metrics import weighted_confusion
from pboost.sampling import partition_cus, smote
from pboost.svm import SvmModel, rbf_kappa_heuristic

from conftest import BLOCK_ROWS, integer_grid, make_blobs, set_block_rows
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
        with pytest.raises(
            InsufficientNegatives,
            match=r"^lambda 100\.0 needs 10000 negatives beside 100 positives, "
            r"the pool has 5000$",
        ):
            subsample_to_skew(data, 100.0, RngStream(0))

    def test_skew_that_keeps_no_negative_raises(self):
        data = make_blobs(10, 50)
        with pytest.raises(InsufficientNegatives, match=r"lambda 0\.01 .* 10 positives"):
            subsample_to_skew(data, 0.01, RngStream(0))
        # 10 * 0.05 rounds half up to one negative
        out = subsample_to_skew(data, 0.05, RngStream(0))
        assert (out.m_pos, out.m_neg) == (10, 1)

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


@pytest.mark.parametrize("bad", [0.0, 2.0, np.nan, 1.5, -1.9])  # 1.5 not truncated to 1
def test_labels_other_than_plus_minus_one_rejected(bad):
    labels = np.array([1.0, bad, -1.0])
    with pytest.raises(ValueError, match="labels must be -1 or \\+1"):
        Dataset(np.zeros((3, 2)), labels)
    ok, w = np.array([1, -1, -1]), np.ones(3)
    for y, yhat in ((labels, ok), (ok, labels)):
        with pytest.raises(ValueError, match="labels must be -1 or \\+1"):
            weighted_confusion(y, yhat, w)


@pytest.mark.parametrize("bad", [0.5, 2.7, np.nan, np.inf])
def test_fractional_group_ids_rejected_not_truncated(bad):
    with pytest.raises(ValueError, match="group_ids must be integers"):
        Dataset(np.zeros((2, 2)), [1, -1], [bad, 1.0])


def test_integral_float_group_ids_kept():
    data = Dataset(np.zeros((3, 2)), [1, -1, -1], [0.0, 2.0, 1.0])
    assert data.group_ids.dtype == np.int64
    assert data.group_ids.tolist() == [0, 2, 1]


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
        with mock.patch.object(data_module, "_BLOCK", block):
            got = sq_dists(a, b)
            flipped = sq_dists(b, a)
        want = sq_dists_difference(a, b)
        assert got.shape == want.shape
        assert got.tobytes() == want.tobytes()
        assert flipped.tobytes() == np.ascontiguousarray(got.T).tobytes()
        row = np.empty(n)
        data_module.row_sq_dists(np.ascontiguousarray(a.T), a[n // 2], row, np.empty(n))
        assert row.tobytes() == sq_dists(a, a[n // 2 : n // 2 + 1])[:, 0].tobytes()

    @pytest.mark.parametrize("d", [1, 2, 9])
    def test_row_sq_dists_to_a_point_off_the_rows(self, d):
        # the rows' mean, as a k-means centroid is, is no row of x
        x = np.random.default_rng(d).normal(3.0, 2.0, (500, d))
        point = x.mean(axis=0)
        row = np.empty(500)
        data_module.row_sq_dists(np.ascontiguousarray(x.T), point, row, np.empty(500))
        assert row.tobytes() == sq_dists(x, point[None])[:, 0].tobytes()

    def test_spans_several_default_blocks(self):
        gen = np.random.default_rng(7)
        a = gen.normal(0.0, 1.0, (700, 4))
        a[350:] = a[:350]
        b = gen.normal(0.0, 1.0, (500, 4))
        assert 700 * 500 > 3 * data_module._BLOCK
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
    @pytest.mark.parametrize("rows", BLOCK_ROWS)
    def test_blocks_stack_to_the_dense_matrix(self, monkeypatch, rows):
        # 300 exact rows in blocks of `rows`: a short last block for 7, 299
        # and the default 109, and the self entries of each block offset by
        # its start
        rows = set_block_rows(monkeypatch, rows, 300)
        x = integer_grid(300, rows, seed=rows)
        blocks = data_module._sq_dist_blocks(x, x, skip=np.arange(300))
        starts, stacked, buffers = [], [], set()
        for start, block in blocks:
            starts.append(start)
            stacked.append(block.copy())  # the next block overwrites this one
            buffers.add(block.__array_interface__["data"][0])
        assert starts == list(range(0, 300, rows))
        assert all(block.shape[0] <= rows for block in stacked)
        assert len(buffers) == 1
        assert np.vstack(stacked).tobytes() == self_sq_dists_dense(x).tobytes()

    @pytest.mark.parametrize("case", ["kappa-13-features", "smote", "diameter"])
    def test_reductions_peak_below_1_5_mb(self, case):
        # one 2 MB block per call, as each of these once held, breaks the bound
        gen = np.random.default_rng(6)
        call = {
            "kappa-13-features": partial(rbf_kappa_heuristic, gen.normal(size=(4000, 13))),
            "smote": partial(smote, gen.normal(size=(4000, 2)), 4000, 5, RngStream(0)),
            "diameter": partial(sampling_module._diameter, gen.normal(size=(2000, 2))),
        }[case]
        tracemalloc.start()
        try:
            call()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1.5e6


@contextlib.contextmanager
def _caller_state():
    """A caller's own numpy state, unlike the defaults: a larger ufunc buffer
    and overflow and invalid results raised. Yields (bufsize, errors)."""
    with np.errstate(over="raise", invalid="raise", divide="ignore", under="ignore"):
        np.setbufsize(1 << 14)  # errstate restores it on exit
        yield np.getbufsize(), np.geterr()


def _state():
    return np.getbufsize(), np.geterr()


class TestNumpyStateStaysContained:
    # the distance blocks set the ufunc buffer size for their differences
    # only; every caller sees its own buffer size and error state

    @pytest.mark.parametrize("case", [
        "sq_dists", "kappa", "kappa-strip", "smote", "partition_cus", "decision_function",
    ])
    def test_state_after_each_call(self, case):
        gen = np.random.default_rng(8)
        x = gen.normal(size=(300, 3))
        model = SvmModel(x[:40], gen.normal(size=40), 0.5, 1.2)
        call = {
            "sq_dists": partial(sq_dists, x, x[:50]),
            "kappa": partial(rbf_kappa_heuristic, x),
            "kappa-strip": partial(rbf_kappa_heuristic, gen.normal(size=(2000, 2))),
            "smote": partial(smote, x, 100, 5, RngStream(0)),
            "partition_cus": partial(partition_cus, x, range(2, 5), RngStream(0)),
            "decision_function": partial(model.decision_function, x),
        }[case]
        with _caller_state() as caller:
            call()
            assert _state() == caller

    def test_state_inside_a_consumers_loop(self):
        x = np.random.default_rng(9).normal(size=(700, 2))
        with _caller_state() as caller:
            blocks = 0
            for _, block in data_module._sq_dist_blocks(x, x):
                assert _state() == caller
                block.max()
                blocks += 1
            assert blocks > 1 and _state() == caller

    @pytest.mark.parametrize("case", ["sq_dists", "decision_function"])
    def test_state_after_a_call_that_raises(self, case):
        # the caller's over="raise" fires inside a block's differences
        x = np.random.default_rng(10).normal(size=(60, 2)) * 1e200
        model = SvmModel(x[:5] * 1e-200, np.ones(5), 0.0, 1.0)
        call = partial(sq_dists, x, x) if case == "sq_dists" else partial(model.decision_function, x)
        before = _state()
        with _caller_state() as caller:
            with pytest.raises(FloatingPointError):
                call()
            assert _state() == caller
        assert _state() == before


class TestOverflowingSquaredDistances:
    @pytest.mark.parametrize("case", ["smote", "partition_cus"])
    def test_raise_degenerate_data_without_a_warning(self, case):
        # filterwarnings = error turns any numpy overflow warning into a failure
        x = np.random.default_rng(11).normal(size=(100, 2)) * 1e200
        with pytest.raises(DegenerateData, match="squared distances overflow"):
            if case == "smote":
                smote(x, 20, 5, RngStream(0))
            else:
                partition_cus(x, range(2, 5), RngStream(0))

    def test_check_fires_only_where_the_bound_overflows(self):
        # the largest entry, between the last two rows, is the corner bound
        # itself: 2 * (9e153)^2 = 1.62e308, just below the largest double
        x = np.array([[0.0, 0.0], [9e153, 0.0], [0.0, 9e153]])
        data_module.check_sq_dists_finite(x)
        assert np.isfinite(sq_dists(x, x)).all()
        with pytest.raises(DegenerateData):
            data_module.check_sq_dists_finite(x * 1.1)
        data_module.check_sq_dists_finite(x[1:2] * 1e150)  # one row: no distance


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
    # the strip searches above _STRIP_ABOVE rows, in blocks of an eighth as
    # many; patching it to 100 puts 99 and 100 rows below and 101 above
    @pytest.mark.parametrize("above", [80, 100, 200])
    def test_strip_exact_on_integer_grid(self, sq_dists_entries, above):
        x = integer_grid(300, 7, seed=above)
        with mock.patch.object(data_module, "_STRIP_ABOVE", above):
            got = data_module.nearest_sq_dists(x)
            assert sum(sq_dists_entries) < 300 * 300  # the strip pruned
        assert max(sq_dists_entries) <= data_module._BLOCK
        assert got.tobytes() == self_sq_dists_dense(x).min(axis=1).tobytes()

    # the strip widens its reach by a few ulps, and no entry moves: the
    # result is the dense minimum to the byte
    @pytest.mark.parametrize("d", [1, 2, 3, 5, 9, 13])
    @pytest.mark.parametrize("n", [99, 100, 101])
    def test_within_slack_of_dense(self, n, d):
        for name, x in _strip_cases(n, d).items():
            with mock.patch.object(data_module, "_STRIP_ABOVE", 100):
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
        with mock.patch.object(data_module, "_STRIP_ABOVE", 100):
            got = data_module.nearest_sq_dists(x)
        want = self_sq_dists_dense(x).min(axis=1)
        assert want[0] < 3.0
        assert got.tobytes() == want.tobytes()

    def test_products_stay_within_one_block(self, sq_dists_entries):
        x = _strip_cases(1500, 2)["outlier"]
        data_module.nearest_sq_dists(x)
        assert max(sq_dists_entries) <= data_module._BLOCK
        assert sum(sq_dists_entries) < 1500 * 1500 / 4
