import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pboost.errors import UndefinedMetric
from pboost.metrics import (
    ConfusionCounts,
    expected_cost,
    f_beta,
    g_mean,
    pr_curve_and_aupr,
    select_threshold_max_fbeta,
    weighted_confusion,
)

from oracles import aupr_bruteforce, best_fbeta_over_thresholds

NO_POSITIVE = "a precision-recall sweep needs at least one positive label"


class TestWeightedConfusion:
    def test_perfect(self):
        c = weighted_confusion([1, -1], [1, -1], [0.5, 0.5])
        assert (c.tp, c.fp, c.tn, c.fn) == (0.5, 0.0, 0.5, 0.0)

    def test_inverted(self):
        c = weighted_confusion([1, -1], [-1, 1], [0.5, 0.5])
        assert (c.tp, c.fp, c.tn, c.fn) == (0.0, 0.5, 0.0, 0.5)

    def test_four_cells(self):
        c = weighted_confusion(
            [1, 1, -1, -1], [1, -1, 1, -1], [0.25, 0.25, 0.25, 0.25]
        )
        assert (c.tp, c.fp, c.tn, c.fn) == (0.25, 0.25, 0.25, 0.25)

    def test_length_mismatch(self):
        with pytest.raises(ValueError, match="labels, predictions, and weights must align"):
            weighted_confusion([1, -1], [1], [0.5, 0.5])

    @settings(max_examples=1000, deadline=None)
    @given(
        st.lists(
            st.tuples(
                st.sampled_from([-1, 1]),
                st.sampled_from([-1, 1]),
                st.floats(min_value=0.0, max_value=10.0),
            ),
            min_size=1,
            max_size=30,
        )
    )
    def test_cells_sum_to_total_weight(self, rows):
        y = np.array([r[0] for r in rows])
        yhat = np.array([r[1] for r in rows])
        w = np.array([r[2] for r in rows])
        c = weighted_confusion(y, yhat, w)
        assert c.total == pytest.approx(w.sum(), abs=1e-9)


class TestFBeta:
    def test_perfect(self):
        assert f_beta(ConfusionCounts(1, 0, 0, 0), 2.0) == 1.0

    def test_symmetric(self):
        assert f_beta(ConfusionCounts(1, 1, 0, 1), 1.0) == pytest.approx(0.5)

    def test_closed_form(self):
        # Pr = Re = 2/3 -> F_2 = 5*(2/9)/( (4*2+2)/3 ) cross-checked directly
        assert f_beta(ConfusionCounts(2, 1, 0, 1), 2.0) == pytest.approx(10.0 / 15.0)

    def test_undefined(self):
        with pytest.raises(UndefinedMetric):
            f_beta(ConfusionCounts(0, 0, 5, 0), 2.0)

    def test_one_iff_no_errors(self):
        assert f_beta(ConfusionCounts(3, 0, 7, 0), 3.0) == 1.0
        assert f_beta(ConfusionCounts(3, 1e-9, 7, 0), 3.0) < 1.0

    @settings(max_examples=1000, deadline=None)
    @given(
        tp=st.floats(min_value=0.01, max_value=100),
        fp=st.floats(min_value=0.0, max_value=100),
        fn=st.floats(min_value=0.01, max_value=100),
    )
    def test_large_beta_approaches_recall(self, tp, fp, fn):
        c = ConfusionCounts(tp, fp, 0.0, fn)
        recall = tp / (tp + fn)
        assert abs(f_beta(c, 10.0) - recall) <= abs(f_beta(c, 1.0) - recall) + 1e-12


class TestGMean:
    def test_perfect(self):
        assert g_mean(ConfusionCounts(5, 0, 5, 0)) == 1.0

    def test_one_sided(self):
        assert g_mean(ConfusionCounts(5, 5, 0, 0)) == 0.0

    def test_hand_value(self):
        assert g_mean(ConfusionCounts(3, 2, 8, 1)) == pytest.approx(
            np.sqrt(0.75 * 0.8)
        )

    def test_undefined(self):
        with pytest.raises(UndefinedMetric):
            g_mean(ConfusionCounts(1, 0, 0, 0))


class TestExpectedCost:
    def test_perfect(self):
        assert expected_cost(ConfusionCounts(5, 0, 5, 0), 0.5) == 0.0

    def test_all_misses(self):
        c = ConfusionCounts(0, 0, 5, 5)
        assert expected_cost(c, 0.5) == pytest.approx(0.5)

    def test_direct(self):
        c = ConfusionCounts(8, 1, 9, 2)  # FNR = 0.2, FPR = 0.1
        assert expected_cost(c, 0.1) == pytest.approx(0.11)

    def test_undefined(self):
        with pytest.raises(UndefinedMetric):
            expected_cost(ConfusionCounts(0, 1, 1, 0), 0.5)


class TestPrCurveAndAupr:
    def test_perfect_separation(self):
        _, aupr = pr_curve_and_aupr([0.9, 0.8, 0.2, 0.1], [1, 1, -1, -1])
        assert aupr == pytest.approx(1.0)

    def test_positive_ranked_last(self):
        _, aupr = pr_curve_and_aupr([0.1, 0.9, 0.8, 0.7], [1, -1, -1, -1])
        assert aupr == pytest.approx(0.25, abs=1e-12)

    def test_all_tied(self):
        _, aupr = pr_curve_and_aupr([0.5, 0.5], [1, -1])
        assert aupr == pytest.approx(0.5, abs=1e-12)

    def test_no_positives(self):
        with pytest.raises(ValueError, match=NO_POSITIVE):
            pr_curve_and_aupr([0.1, 0.2], [-1, -1])

    def test_recall_nondecreasing_and_bounds(self):
        gen = np.random.default_rng(5)
        for _ in range(50):
            n = int(gen.integers(2, 40))
            labels = gen.choice([-1, 1], size=n)
            labels[0] = 1
            scores = gen.normal(size=n)
            curve, aupr = pr_curve_and_aupr(scores, labels)
            assert np.all(np.diff(curve.recalls) >= 0)
            assert 0.0 <= aupr <= 1.0
            # every point reproduces its confusion matrix
            for t, r, p in zip(curve.thresholds, curve.recalls, curve.precisions):
                pred = np.where(scores >= t, 1, -1)
                tp = int(((labels == 1) & (pred == 1)).sum())
                fp = int(((labels == -1) & (pred == 1)).sum())
                assert r == pytest.approx(tp / (labels == 1).sum())
                assert p == pytest.approx(tp / (tp + fp))

    @settings(max_examples=1000, deadline=None)
    @given(
        labels=st.lists(st.sampled_from([-1, 1]), min_size=1, max_size=12),
        raw=st.data(),
    )
    def test_matches_bruteforce(self, labels, raw):
        if 1 not in labels:
            labels[0] = 1
        # small score alphabet provokes heavy ties
        scores = raw.draw(
            st.lists(
                st.sampled_from([0.0, 0.25, 0.5, 0.75, 1.0]),
                min_size=len(labels),
                max_size=len(labels),
            )
        )
        _, aupr = pr_curve_and_aupr(scores, labels)
        assert aupr == pytest.approx(aupr_bruteforce(scores, labels), abs=1e-12)


class TestSelectThreshold:
    def test_separating_gap_midpoint(self):
        t, f = select_threshold_max_fbeta([0.9, 0.8, 0.2, 0.1], [1, 1, -1, -1], 2.0)
        assert t == pytest.approx(0.5)
        assert f == 1.0

    def test_enumerated_case(self):
        t, f = select_threshold_max_fbeta([0.9, 0.8, 0.1], [1, -1, -1], 2.0)
        assert t == pytest.approx(0.85)
        assert f == 1.0

    def test_tie_returns_lowest(self):
        # both classes at the same score: every threshold yields the same F
        t, _ = select_threshold_max_fbeta([0.5, 0.5], [1, -1], 1.0)
        assert t == -np.inf

    def test_no_positives(self):
        with pytest.raises(ValueError, match=NO_POSITIVE):
            select_threshold_max_fbeta([0.1, 0.2], [-1, -1], 2.0)

    def test_non_finite_scores_rejected(self):
        with pytest.raises(ValueError):
            select_threshold_max_fbeta([0.1, np.inf], [1, -1], 2.0)

    @settings(max_examples=300, deadline=None)
    @given(
        labels=st.lists(st.sampled_from([-1, 1]), min_size=1, max_size=15),
        seed=st.integers(min_value=0, max_value=1000),
        beta=st.sampled_from([0.5, 1.0, 2.0]),
    )
    def test_same_pair_as_candidate_loop(self, labels, seed, beta):
        """Exactly the (threshold, F) of scoring each candidate in turn."""
        if 1 not in labels:
            labels[0] = 1
        scores = np.random.default_rng(seed).choice([-0.3, 0.0, 0.3, 0.6], size=len(labels))
        uniq = np.unique(scores)
        candidates = np.concatenate([[-np.inf], (uniq[:-1] + uniq[1:]) / 2.0, [np.inf]])
        best_t, best_f = -np.inf, -1.0
        for t in candidates:
            pred = np.where(scores >= t, 1, -1)
            f = f_beta(weighted_confusion(labels, pred, np.ones(len(labels))), beta)
            if f > best_f:
                best_t, best_f = float(t), f
        assert select_threshold_max_fbeta(scores, labels, beta) == (best_t, best_f)

    @settings(max_examples=300, deadline=None)
    @given(
        labels=st.lists(st.sampled_from([-1, 1]), min_size=2, max_size=15),
        seed=st.integers(min_value=0, max_value=1000),
    )
    def test_maximum_matches_independent_sweep(self, labels, seed):
        if 1 not in labels:
            labels[0] = 1
        gen = np.random.default_rng(seed)
        scores = gen.choice([0.1, 0.3, 0.6, 0.9], size=len(labels))
        _, f = select_threshold_max_fbeta(scores, labels, 2.0)
        assert f == pytest.approx(
            best_fbeta_over_thresholds(scores, labels, 2.0), abs=1e-12
        )
