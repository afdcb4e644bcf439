import json
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from pboost import Dataset, RngStream
from pboost import data as data_module
from pboost import svm as svm_module
from pboost.datagen import SynthConfig, gen_synthetic
from pboost.errors import AllZeroWeights, DegenerateData, SingleClassInput
from pboost.svm import (
    LearnerConfig,
    SMO_TOLERANCE,
    SvmModel,
    rbf_kappa_heuristic,
    train_svm,
    weighted_resample,
)

from conftest import BLOCK_ROWS, integer_grid, make_blobs, set_block_rows
from oracles import (
    kappa_dense,
    smo_full_scan,
    smo_objective_from_model,
    smo_reference,
    sq_dists_difference,
    svm_grid_search,
)

class TestKappaHeuristic:
    def test_two_points(self):
        # distance 2, radius 1 from the midpoint
        assert rbf_kappa_heuristic([[0.0, 0.0], [2.0, 0.0]]) == pytest.approx(1.5)

    def test_unit_square(self):
        corners = [[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 1.0]]
        expected = (1.0 + np.sqrt(2.0) / 2.0) / 2.0
        assert rbf_kappa_heuristic(corners) == pytest.approx(expected)

    def test_degenerate(self):
        with pytest.raises(DegenerateData):
            rbf_kappa_heuristic([[1.0, 1.0], [1.0, 1.0], [1.0, 1.0]])

    def test_overflowing_width(self):
        # finite features whose squared distances overflow to inf
        with pytest.raises(DegenerateData, match="overflows"):
            rbf_kappa_heuristic([[0.0, 1e200], [1e200, 0.0], [-1e200, 0.0]])

    @settings(max_examples=200, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=10_000),
        shift=st.floats(min_value=-50, max_value=50),
        scale=st.floats(min_value=0.1, max_value=20),
    )
    def test_translation_invariant_and_scale_linear(self, seed, shift, scale):
        gen = np.random.default_rng(seed)
        x = gen.normal(size=(8, 3))
        base = rbf_kappa_heuristic(x)
        assert rbf_kappa_heuristic(x + shift) == pytest.approx(base, rel=1e-6)
        assert rbf_kappa_heuristic(x * scale) == pytest.approx(base * scale, rel=1e-6)

    @pytest.mark.parametrize("n", [2, 3, 97, 512])
    def test_one_block_equals_dense_oracle(self, n):
        x = np.random.default_rng(n).normal(3.0, 2.0, (n, 4))
        assert rbf_kappa_heuristic(x) == kappa_dense(x)

    @pytest.mark.parametrize("rows", BLOCK_ROWS)
    def test_row_blocks_exact_on_integer_grid(self, monkeypatch, rows):
        rows = set_block_rows(monkeypatch, rows, 300)
        x = integer_grid(300, rows, seed=rows)
        assert rbf_kappa_heuristic(x) == kappa_dense(x)

    def test_sorted_strip_equals_dense_oracle(self):
        # the criterion-3 set resampled with replacement, as boosting does:
        # duplicated rows, in the sorted strip
        data = gen_synthetic(SynthConfig(delta=0.1, t_neg=50, per_cluster=100, seed=0))
        x = data.features[np.random.default_rng(4).integers(data.m, size=data.m)]
        assert x.shape[0] > data_module._STRIP_ABOVE
        assert rbf_kappa_heuristic(x) == kappa_dense(x)

    def test_memory_bounded_by_row_blocks(self):
        n = 4000
        x = np.random.default_rng(3).normal(size=(n, 2))
        tracemalloc.start()
        try:
            rbf_kappa_heuristic(x)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 16e6  # a dense n x n matrix: 8 n^2 = 128 MB

    def test_sorted_strip_skips_most_pairs(self, sq_dists_entries):
        # the with-replacement resample above: duplicates close at once, and
        # two features sort well
        data = gen_synthetic(SynthConfig(delta=0.1, t_neg=50, per_cluster=100, seed=0))
        x = data.features[np.random.default_rng(4).integers(data.m, size=data.m)]
        rbf_kappa_heuristic(x)
        assert sum(sq_dists_entries) < x.shape[0] ** 2 / 4
        assert max(sq_dists_entries) <= data_module._BLOCK

    def test_isotropic_13_features_fall_back_to_row_blocks(self, sq_dists_entries):
        # sorting cannot prune here: the strip gives up after one probe
        n = 4000
        x = np.random.default_rng(5).normal(size=(n, 13))
        tracemalloc.start()
        try:
            rbf_kappa_heuristic(x)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert sum(sq_dists_entries) <= 1.1 * n * n
        assert max(sq_dists_entries) <= data_module._BLOCK
        assert peak < 16e6

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("n", [3, 1100])
    def test_non_finite_features_rejected(self, bad, n):
        x = np.random.default_rng(n).normal(size=(n, 2))
        x[n // 2, 1] = bad
        with pytest.raises(DegenerateData):
            rbf_kappa_heuristic(x)

    @pytest.mark.parametrize("n", [40, 5100])
    def test_distinct_rows_with_counts_equal_the_drawn_rows(self, n):
        # a draw with replacement: its distinct rows with their counts give
        # the width of the n drawn rows, up to the order of the sums
        x = np.random.default_rng(n).normal(3.0, 2.0, (n, 2))
        idx = np.random.default_rng(n + 1).integers(n, size=n)
        rows, counts = np.unique(idx, return_counts=True)
        assert counts.max() > 1
        want = kappa_dense(x[idx])
        assert rbf_kappa_heuristic(x[rows], counts) == pytest.approx(want, rel=1e-14)

    def test_one_row_drawn_twice_is_degenerate(self):
        with pytest.raises(DegenerateData, match="all rows identical"):
            rbf_kappa_heuristic([[1.0, 2.0]], np.array([2]))
        with pytest.raises(DegenerateData, match="at least two rows"):
            rbf_kappa_heuristic([[1.0, 2.0]], np.array([1]))

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 10_000),
        m=st.one_of(st.integers(2, 80), st.integers(1025, 1100)),
        d=st.integers(1, 13),
        distinct=st.floats(0.0, 1.0),
    )
    def test_no_counts_is_one_draw_per_row(self, seed, m, d, distinct):
        # some rows repeated, below and above the sorted strip's 1024 rows
        gen = np.random.default_rng(seed)
        pool = gen.normal(size=(max(2, round(distinct * m)), d))
        x = pool[gen.permutation(np.arange(m) % len(pool))]
        ones = np.ones(m, np.int64)
        assert rbf_kappa_heuristic(x) == rbf_kappa_heuristic(x, ones)


def _blob_rows(n, d, seed):
    """n rows of two overlapping blobs, a fifth of them positive (at least one)."""
    n_pos = max(1, n // 5)
    data = make_blobs(n_pos, n - n_pos, separation=2.0, seed=seed, d=d)
    return data.features, data.labels


SEPARABLE = (
    np.array([[1.0, 0.0], [1.0, 1.0], [-1.0, 0.0], [-1.0, 1.0]]),
    np.array([1, 1, -1, -1]),
)
XOR = (
    np.array([[0.0, 0.0], [1.0, 1.0], [0.0, 1.0], [1.0, 0.0]]),
    np.array([1, 1, -1, -1]),
)


class TestTrainSvm:
    def test_separable_four_points(self):
        x, y = SEPARABLE
        model = train_svm(x, y, LearnerConfig(), 1.0)
        preds = np.where(model.decision_function(x) >= 0, 1, -1)
        assert np.array_equal(preds, y)

    def test_xor(self):
        x, y = XOR
        model = train_svm(x, y, LearnerConfig(), 0.5)
        preds = np.where(model.decision_function(x) >= 0, 1, -1)
        assert np.array_equal(preds, y)

    def test_single_class(self):
        with pytest.raises(SingleClassInput):
            train_svm([[0.0], [1.0]], [1, 1], LearnerConfig(), 1.0)

    @pytest.mark.parametrize("kappa", [np.nan, np.inf, -np.inf, 0.0, -1.0])
    def test_kappa_must_be_finite_and_positive(self, kappa):
        x, y = SEPARABLE
        with pytest.raises(ValueError, match="kappa"):
            train_svm(x, y, LearnerConfig(), kappa)

    def test_rows_and_labels_must_match(self):
        x, y = SEPARABLE
        with pytest.raises(ValueError, match=r"feature rows vs labels of shape \(3,\)"):
            train_svm(x, y[:3], LearnerConfig(), 1.0)

    @pytest.mark.parametrize("labels", [[1, 1, 0, 0], [2, 2, -1, -1], [1, 1, -1, np.nan]])
    def test_labels_must_be_plus_or_minus_one(self, labels):
        x, _ = SEPARABLE
        with pytest.raises(ValueError, match="labels"):
            train_svm(x, labels, LearnerConfig(), 1.0)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_features_rejected(self, bad):
        x, y = _blob_rows(100, 2, seed=1)
        x = x.copy()
        x[50, 1] = bad
        with pytest.raises(DegenerateData):
            train_svm(x, y, LearnerConfig(), 1.0)

    @pytest.mark.parametrize(
        "counts", [[1, 1, 1], [1, 0, 1, 1], [1.0, 1.0, 1.0, 1.0], [[1, 1, 1, 1]]]
    )
    def test_counts_must_be_one_positive_integer_per_row(self, counts):
        x, y = SEPARABLE
        with pytest.raises(ValueError, match="counts must be 4 integers of at least 1"):
            train_svm(x, y, LearnerConfig(), 1.0, np.array(counts))

    @pytest.mark.parametrize("c", [np.nan, np.inf, -np.inf, 0.0, -1.0, True, "1"])
    def test_penalty_must_be_finite_and_positive(self, c):
        with pytest.raises(ValueError, match="c_penalty"):
            LearnerConfig(c_penalty=c)

    def test_memory_is_a_few_arrays_of_length_n(self):
        # the criterion-3 set balanced to 10 000 rows, the size of a SMOTE
        # member: no n x n array and nothing that grows with the step count
        data = gen_synthetic(SynthConfig(delta=0.1, t_neg=50, per_cluster=100, seed=0))
        idx = np.concatenate([np.repeat(data.pos_indices, 50), data.neg_indices])
        x, y = data.features[idx], data.labels[idx]
        kappa = rbf_kappa_heuristic(x)
        tracemalloc.start()
        try:
            model = train_svm(x, y, LearnerConfig(c_penalty=50.0, max_passes=10), kappa)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert model.converged
        assert peak < 16 * 8 * y.size + x.nbytes

    def test_recent_kernel_rows_are_reused(self, monkeypatch):
        # the 10 000-row set above at C = 50: SMO returns to a few rows so
        # often that the kept rows (6) compute under 60 % of the rows that
        # the floor of 2 (row i and row j) computes
        data = gen_synthetic(SynthConfig(delta=0.1, t_neg=50, per_cluster=100, seed=0))
        idx = np.concatenate([np.repeat(data.pos_indices, 50), data.neg_indices])
        x, y = data.features[idx], data.labels[idx]
        kappa = rbf_kappa_heuristic(x)
        computed = []

        def spy(columns, point, out, term):
            computed.append(1)
            data_module.row_sq_dists(columns, point, out, term)

        monkeypatch.setattr(svm_module, "row_sq_dists", spy)
        kept, counts = svm_module.KERNEL_ROWS, {}
        for rows in (2, kept):
            monkeypatch.setattr(svm_module, "KERNEL_ROWS", rows)
            computed.clear()
            train_svm(x, y, LearnerConfig(c_penalty=50.0, max_passes=10), kappa)
            counts[rows] = len(computed)
        assert counts[kept] < 0.6 * counts[2]

    def test_matches_grid_search_on_fixed_problems(self):
        for x, y, kappa in [
            (*SEPARABLE, 1.0),
            (*XOR, 0.5),
            (np.array([[0.0, 0.0], [2.0, 0.0]]), np.array([1, -1]), 1.5),
            (np.array([[0.0, 0.0], [0.5, 0.0], [2.0, 0.0]]), np.array([1, 1, -1]), 1.0),
        ]:
            model = train_svm(x, y, LearnerConfig(), kappa)
            smo_obj, _ = smo_objective_from_model(model, x, y, kappa)
            grid_obj, _, _, grid_preds = svm_grid_search(x, y, 1.0, kappa)
            assert abs(smo_obj - grid_obj) <= 1e-2
            preds = np.where(model.decision_function(x) >= 0, 1, -1)
            assert np.array_equal(preds, grid_preds)

    def test_matches_grid_search_on_random_problems(self):
        gen = np.random.default_rng(17)
        for _ in range(6):
            x = gen.normal(0.0, 1.5, size=(4, 2)).round(2)
            y = np.array([1, 1, -1, -1])
            kappa = rbf_kappa_heuristic(x)
            model = train_svm(x, y, LearnerConfig(), kappa)
            smo_obj, _ = smo_objective_from_model(model, x, y, kappa)
            grid_obj, _, _, grid_preds = svm_grid_search(x, y, 1.0, kappa)
            assert abs(smo_obj - grid_obj) <= 1e-2
            preds = np.where(model.decision_function(x) >= 0, 1, -1)
            assert np.array_equal(preds, grid_preds)

    def test_alpha_within_box(self):
        gen = np.random.default_rng(2)
        x = np.vstack([gen.normal(0, 1, (20, 2)), gen.normal(2, 1, (20, 2))])
        y = np.concatenate([np.ones(20, int), -np.ones(20, int)])
        cfg = LearnerConfig(c_penalty=0.7)
        model = train_svm(x, y, cfg, 1.0)
        assert np.all(np.abs(model.dual_coefficients) <= cfg.c_penalty + 1e-9)
        assert model.n_sv >= 1


class TestSolverProperties:
    @settings(max_examples=150, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=10_000),
        n=st.integers(min_value=2, max_value=40),
        c=st.sampled_from([0.5, 1.0, 10.0, 50.0]),
    )
    @example(seed=453, n=22, c=1.0)  # a row ends at alpha = C - 1.1e-16
    @example(seed=591, n=12, c=0.5)
    def test_kkt_and_equality_constraint(self, seed, n, c):
        gen = np.random.default_rng(seed)
        x = gen.normal(0.0, 1.5, size=(n, 2))  # continuous draws: distinct rows
        y = np.where(gen.random(n) < 0.5, 1, -1)
        y[:2] = [1, -1]
        kappa = rbf_kappa_heuristic(x)
        cfg = LearnerConfig(c_penalty=c)
        model = train_svm(x, y, cfg, kappa)
        assert abs(model.dual_coefficients.sum()) <= 1e-9 * c * n
        if not model.converged:
            return
        _, alpha = smo_objective_from_model(model, x, y, kappa)
        margin = y * model.decision_function(x)
        band = 2.0 * SMO_TOLERANCE
        at_zero, at_c = alpha <= 0.0, alpha >= c
        inside = ~at_zero & ~at_c
        assert np.all(margin[at_zero] >= 1.0 - band)
        assert np.all(margin[at_c] <= 1.0 + band)
        assert np.all(np.abs(margin[inside] - 1.0) <= band)

    def test_tiny_penalty_keeps_the_support_set_and_the_bias(self):
        # at C = 1e-9 every alpha lies within 1e-8 of both 0 and C, so only
        # exact bound status tells free, bound and zero rows apart
        gen = np.random.default_rng(3)
        x = gen.normal(size=(60, 2))
        y = np.where(gen.random(60) < 0.3, 1, -1)
        kappa = rbf_kappa_heuristic(x)
        tiny, small = (
            train_svm(x, y, LearnerConfig(c_penalty=c), kappa) for c in (1e-9, 1e-6)
        )
        assert tiny.converged and small.converged
        assert np.array_equal(tiny.support_vectors, small.support_vectors)
        assert tiny.n_sv < y.size
        assert abs(tiny.bias - small.bias) <= 1e-6


    @settings(max_examples=100, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=10_000),
        n=st.integers(min_value=2, max_value=40),
        c=st.sampled_from([0.5, 1.0, 10.0, 50.0]),
        most=st.integers(min_value=1, max_value=6),
    )
    def test_kkt_with_counts(self, seed, n, c, most):
        # each row's box is C * count: a converged fit meets KKT against it
        gen = np.random.default_rng(seed)
        x = gen.normal(0.0, 1.5, size=(n, 2))  # continuous draws: distinct rows
        y = np.where(gen.random(n) < 0.5, 1, -1)
        y[:2] = [1, -1]
        counts = gen.integers(1, most + 1, size=n)
        kappa = rbf_kappa_heuristic(x, counts)
        model = train_svm(x, y, LearnerConfig(c_penalty=c), kappa, counts)
        box = c * counts
        assert abs(model.dual_coefficients.sum()) <= 1e-9 * box.sum()
        if not model.converged:
            return
        _, alpha = smo_objective_from_model(model, x, y, kappa)
        assert np.all(alpha <= box)
        margin = y * model.decision_function(x)
        band = 2.0 * SMO_TOLERANCE
        at_zero, at_box = alpha <= 0.0, alpha >= box
        inside = ~at_zero & ~at_box
        assert np.all(margin[at_zero] >= 1.0 - band)
        assert np.all(margin[at_box] <= 1.0 + band)
        assert np.all(np.abs(margin[inside] - 1.0) <= band)

    @pytest.mark.parametrize("c, bound", [(1.0, 2e-3), (50.0, 4e-2)])
    def test_counts_agree_with_the_expanded_rows(self, c, bound):
        # the criterion-3 set resampled with replacement (rng 4), fitted on
        # its 5100 drawn rows and on their 3192 distinct rows with counts,
        # scored on a second draw of the generator: both solutions meet KKT
        # within 2 * SMO_TOLERANCE, and their largest score difference is
        # 7.0e-4 at C = 1 and 2.6e-2 at C = 50; every sign agrees
        data = gen_synthetic(SynthConfig(delta=0.1, t_neg=50, per_cluster=100, seed=0))
        probe = gen_synthetic(SynthConfig(delta=0.1, t_neg=50, per_cluster=100, seed=1))
        idx = np.random.default_rng(4).integers(data.m, size=data.m)
        rows, counts = np.unique(idx, return_counts=True)
        cfg = LearnerConfig(c_penalty=c, max_passes=10)
        kappa = rbf_kappa_heuristic(data.features[idx])
        expanded = train_svm(data.features[idx], data.labels[idx], cfg, kappa)
        distinct = train_svm(data.features[rows], data.labels[rows], cfg, kappa, counts)
        assert expanded.converged and distinct.converged
        assert distinct.n_sv < expanded.n_sv
        want, got = (m.decision_function(probe.features) for m in (expanded, distinct))
        assert np.abs(got - want).max() < bound
        assert np.mean((got >= 0) == (want >= 0)) >= 0.9996


class TestAgainstFullScan:
    """j sought among the candidate rows is the full scan's j: train_svm
    returns the model of the loop that scans every row byte for byte."""

    @settings(max_examples=150, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=10_000),
        n=st.integers(min_value=2, max_value=60),
        d=st.integers(min_value=1, max_value=3),
        repeats=st.integers(min_value=0, max_value=30),
        c=st.sampled_from([1e-9, 0.01, 1.0, 50.0]),
        kappa=st.sampled_from([0.3, 1.0, 3.0]),
        max_passes=st.sampled_from([None, 1]),
        ones=st.booleans(),
    )
    def test_equals_full_scan(self, seed, n, d, repeats, c, kappa, max_passes, ones):
        # rows on a 0.5 grid and repeated rows: ties in g and in the gain
        gen = np.random.default_rng(seed)
        x = (gen.normal(0.0, 1.5, (n, d)) * 2).round() / 2
        y = np.where(gen.random(n) < 0.4, 1, -1)
        y[:2] = [1, -1]
        idx = np.concatenate([np.arange(n), gen.integers(n, size=repeats)])
        x, y = x[idx], y[idx]
        counts = np.ones(y.size, dtype=np.int64) if ones else None
        model = train_svm(x, y, LearnerConfig(c_penalty=c, max_passes=max_passes), kappa, counts)
        want = smo_full_scan(x, y, c, max_passes, kappa)
        assert json.dumps(model.to_record()) == json.dumps(want)

    @pytest.mark.parametrize("ones", [False, True])
    def test_exhausted_budget_equals_full_scan(self, ones):
        x, y = _blob_rows(300, 2, seed=9)
        counts = np.ones(y.size, dtype=np.int64) if ones else None
        model = train_svm(x, y, LearnerConfig(c_penalty=50.0, max_passes=1), 0.5, counts)
        assert not model.converged
        assert json.dumps(model.to_record()) == json.dumps(smo_full_scan(x, y, 50.0, 1, 0.5))


class TestAgainstReference:
    """train_svm returns the reference loop's model byte for byte."""

    @staticmethod
    def _assert_same(x, y, c, max_passes=None):
        kappa = rbf_kappa_heuristic(x)
        model = train_svm(x, y, LearnerConfig(c_penalty=c, max_passes=max_passes), kappa)
        want = smo_reference(x, y, c, max_passes, kappa)
        assert json.dumps(model.to_record()) == json.dumps(want)
        return model

    @pytest.mark.parametrize("c", [0.1, 1.0, 50.0])
    @pytest.mark.parametrize("d", [1, 2, 9])
    @pytest.mark.parametrize("n", [2, 3, 50, 513, 2000])
    def test_blobs(self, n, d, c):
        self._assert_same(*_blob_rows(n, d, seed=n + d), c)

    @pytest.mark.parametrize("c", [1.0, 50.0])
    def test_duplicated_rows(self, c):
        x, y = _blob_rows(400, 2, seed=8)
        idx = np.concatenate([np.arange(y.size), np.arange(0, y.size, 3)])
        self._assert_same(x[idx], y[idx], c)

    def test_budget_exhausted(self):
        x, y = _blob_rows(300, 2, seed=9)
        assert not self._assert_same(x, y, 50.0, max_passes=1).converged

    def test_criterion3_resample(self):
        data = gen_synthetic(SynthConfig(delta=0.1, t_neg=50, per_cluster=100, seed=0))
        idx = np.random.default_rng(4).integers(data.m, size=data.m)
        self._assert_same(data.features[idx], data.labels[idx], 50.0, max_passes=10)


class TestDecisionValue:
    def test_sign_at_strong_support_vector(self):
        x, y = SEPARABLE
        model = train_svm(x, y, LearnerConfig(), 1.0)
        assert model.decision_function([1.0, 0.5])[0] > 0

    def test_midpoint_near_zero(self):
        x = np.array([[0.0, 0.0], [2.0, 0.0]])
        y = np.array([1, -1])
        model = train_svm(x, y, LearnerConfig(), 1.5)
        assert abs(model.decision_function([1.0, 0.0])[0]) < 1e-6

    def test_permutation_invariant(self):
        x, y = XOR
        model = train_svm(x, y, LearnerConfig(), 0.5)
        perm = [2, 0, 3, 1]
        permuted = SvmModel(
            support_vectors=model.support_vectors[perm],
            dual_coefficients=model.dual_coefficients[perm],
            bias=model.bias,
            kappa=model.kappa,
        )
        probe = np.array([[0.3, 0.7], [0.9, 0.1]])
        assert np.allclose(
            model.decision_function(probe), permuted.decision_function(probe)
        )

    def test_dimension_mismatch(self):
        x, y = SEPARABLE
        model = train_svm(x, y, LearnerConfig(), 1.0)
        with pytest.raises(ValueError, match="probe has 3 features, model expects 2"):
            model.decision_function([1.0, 2.0, 3.0])

    @staticmethod
    def _model(n_sv, seed):
        gen = np.random.default_rng(seed)
        sv = gen.normal(0.0, 2.0, (n_sv, 2))
        return SvmModel(sv, gen.normal(0.0, 1.0, n_sv), 0.25, 1.3), gen

    @pytest.mark.parametrize("n_sv", [1, 300])
    def test_scores_do_not_depend_on_the_block_size(self, monkeypatch, n_sv):
        model, gen = self._model(n_sv, seed=n_sv)
        probe = gen.normal(0.0, 2.0, (5050, 2))
        want = model.decision_function(probe)  # default blocks
        for block in (1, 7 * n_sv, 1 << 30):  # one row, 7 rows, one block
            monkeypatch.setattr(data_module, "_BLOCK", block)
            assert model.decision_function(probe).tobytes() == want.tobytes()
        k = np.exp(data_module.sq_dists(probe[:3], model.support_vectors) / -(2 * model.kappa**2))
        assert np.allclose(want[:3], (k * model.dual_coefficients).sum(axis=1) + model.bias)

    @pytest.mark.parametrize("layout", ["C", "F", "strided"])
    @pytest.mark.parametrize("n_sv, n", [(1, 40_000), (7, 10_000), (300, 329), ((1 << 15) + 1, 3)])
    @pytest.mark.parametrize("d", [1, 2, 9])
    def test_scores_match_the_difference_oracle(self, d, n_sv, n, layout):
        # two to four blocks of probe rows, the last one short (one row a
        # block against 2^15 + 1 support vectors), against the dense kernel
        gen = np.random.default_rng(d * n_sv)
        model = SvmModel(gen.normal(0.0, 2.0, (n_sv, d)), gen.normal(0.0, 1.0, n_sv), 0.25, 1.3)
        rows = gen.normal(0.0, 2.0, (2 * n, d + 1))
        probe = {
            "C": np.ascontiguousarray(rows[:n, :d]),
            "F": np.asfortranarray(rows[:n, :d]),
            "strided": rows[::2, 1:],
        }[layout]
        k = np.exp(sq_dists_difference(probe, model.support_vectors) / -(2.0 * model.kappa**2))
        if n_sv <= 8192:
            want = np.einsum("ij,j->i", k, model.dual_coefficients)
        else:
            # einsum sums a row of over 8192 entries one way alone and another
            # beside other rows, so past 8192 support vectors a block is one row
            want = np.concatenate([np.einsum("ij,j->i", r[None], model.dual_coefficients) for r in k])
        want += model.bias
        assert model.decision_function(probe).tobytes() == want.tobytes()

    @pytest.mark.parametrize("scoring", ["default", "block", "bufsize"])
    def test_scores_above_8192_support_vectors_do_not_depend_on_the_probe(
        self, monkeypatch, scoring
    ):
        # einsum sums a row of over 8192 entries one way alone and another
        # beside other rows, so such a model scores one probe row a block
        model, gen = self._model(12_000, seed=5)
        probe = gen.normal(0.0, 2.0, (3, 2))
        alone = [model.decision_function(row).tobytes() for row in probe]
        if scoring == "block":
            monkeypatch.setattr(data_module, "_BLOCK", 1 << 20)
        old = np.getbufsize()
        if scoring == "bufsize":
            np.setbufsize(1 << 20)
        try:
            scores = model.decision_function(probe)
        finally:
            np.setbufsize(old)
        assert [s.tobytes() for s in scores] == alone

    def test_memory_bounded_by_score_blocks(self):
        model, gen = self._model(300, seed=1)
        probe = gen.normal(0.0, 2.0, (20_000, 2))
        tracemalloc.start()
        try:
            model.decision_function(probe)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 4e6  # unblocked, a kernel and its copy: 2 * 8 * 20000 * 300 = 96 MB


# Scores, kappa and an SMO fit, printed as one sha256 each; see
# TestBlasThreadCount.
_THREAD_SCRIPT = """
import hashlib, json
import numpy as np
from pboost.svm import LearnerConfig, SvmModel, rbf_kappa_heuristic, train_svm

gen = np.random.default_rng(0)
model = SvmModel(gen.normal(0.0, 2.0, (300, 2)), gen.normal(0.0, 1.0, 300), 0.25, 1.3)
scores = model.decision_function(gen.normal(0.0, 2.0, (5050, 2)))
kappa = rbf_kappa_heuristic(gen.normal(0.0, 2.0, (5100, 2)))
x = np.vstack([gen.normal(0.0, 1.0, (300, 2)), gen.normal(1.5, 1.0, (1200, 2))])
y = np.repeat([1, -1], [300, 1200])
fit = train_svm(x, y, LearnerConfig(c_penalty=10.0, max_passes=5), rbf_kappa_heuristic(x))
for name, data in (
    ("scores", scores.tobytes()),
    ("kappa", np.float64(kappa).tobytes()),
    ("fit", json.dumps(fit.to_record()).encode()),
):
    print(name, hashlib.sha256(data).hexdigest())
"""


class TestBlasThreadCount:
    @staticmethod
    def _digests(threads, prelude=""):
        src = str(Path(svm_module.__file__).resolve().parents[1])
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        run = subprocess.run(
            [sys.executable, "-c", prelude + _THREAD_SCRIPT],
            env=env, capture_output=True, text=True, check=True, timeout=120,
        )
        return run.stdout.splitlines()

    def test_outputs_do_not_depend_on_the_blas_thread_count(self):
        outputs = [self._digests(threads) for threads in ("1", "2")]
        assert len(outputs[0]) == 3
        assert outputs[0] == outputs[1]

    def test_outputs_do_not_depend_on_the_callers_buffer_size(self):
        # a caller's own ufunc buffer size, as the distance blocks set theirs
        plain = self._digests("1")
        assert len(plain) == 3
        assert self._digests("1", "import numpy as np\nnp.setbufsize(1 << 20)\n") == plain


class TestWeightedResample:
    def _data(self, n=3):
        return Dataset(np.arange(n, dtype=float)[:, None], np.array([1] * (n - 1) + [-1]))

    def test_point_mass(self):
        out, counts = weighted_resample(self._data(), [1.0, 0.0, 0.0], 5, RngStream(0))
        assert out.features.tolist() == [[0.0]]
        assert counts.tolist() == [5]

    def test_empty_draw(self):
        out, counts = weighted_resample(self._data(), [0.4, 0.3, 0.3], 0, RngStream(0))
        assert out.m == 0 and counts.size == 0

    def test_all_zero(self):
        with pytest.raises(AllZeroWeights):
            weighted_resample(self._data(), [0.0, 0.0, 0.0], 2, RngStream(0))

    @settings(max_examples=50, deadline=None)
    @given(seed=st.integers(0, 10_000), m=st.integers(1, 40), n=st.integers(0, 80))
    def test_distinct_rows_ascending_with_counts_of_the_draw(self, seed, m, n):
        data = Dataset(np.arange(m, dtype=float)[:, None], np.where(np.arange(m) % 2, -1, 1))
        w = np.random.default_rng(seed).random(m)
        out, counts = weighted_resample(data, w, n, RngStream(seed))
        rows = out.features[:, 0].astype(int)
        assert np.all(np.diff(rows) > 0)
        assert np.all(counts >= 1) and counts.sum() == n
        assert np.array_equal(out.labels, data.labels[rows])
        draws = RngStream(seed).generator().choice(m, size=n, replace=True, p=w / w.sum())
        assert np.array_equal(np.repeat(rows, counts), np.sort(draws))

    def test_uniform_frequencies_chi_squared(self):
        n_rows, n_draws = 5, 10000
        data = Dataset(
            np.arange(n_rows, dtype=float)[:, None],
            np.array([1, 1, 1, -1, -1]),
        )
        out, drawn = weighted_resample(
            data, np.full(n_rows, 1.0 / n_rows), n_draws, RngStream(42)
        )
        counts = np.zeros(n_rows)
        counts[out.features[:, 0].astype(int)] = drawn
        expected = n_draws / n_rows
        chi2 = float(((counts - expected) ** 2 / expected).sum())
        # chi-squared with 4 dof: mean 4, sd sqrt(8); 3 sigma above the mean
        assert chi2 < 4 + 3 * np.sqrt(8.0)
