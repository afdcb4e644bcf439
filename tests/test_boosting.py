import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pboost import Dataset, RngStream
from pboost import boosting
from pboost.boosting import (
    BoostedEnsemble,
    EnsembleMember,
    FBetaLoss,
    WeightedError,
    alpha_from_loss,
    complexity_report,
    pboost,
    predict_majority_labels,
    predict_scores,
    run_boosting,
    update_weights,
)
from pboost.errors import SingleClassInput, UndefinedMetric
from pboost.experiment import evaluate_ensemble
from pboost.metrics import ConfusionCounts, f_beta, weighted_confusion
from pboost.sampling import Partitioning, partition_apriori, partition_ruswr
from pboost.svm import LearnerConfig

from conftest import make_blobs
from oracles import adaboost_hand_trace


class TestLossFbeta:
    def test_perfect(self):
        assert FBetaLoss(2.0).loss(ConfusionCounts(0.6, 0.0, 0.4, 0.0)) == 0.0

    def test_direct(self):
        got = FBetaLoss(2.0).loss(ConfusionCounts(0.5, 0.1, 0.0, 0.1))
        assert got == pytest.approx(0.5 / 3.0)

    def test_all_positives_missed(self):
        assert FBetaLoss(2.0).loss(ConfusionCounts(0.0, 0.3, 0.0, 0.7)) == 1.0

    def test_complements_f_beta(self):
        c = ConfusionCounts(0.4, 0.2, 0.3, 0.1)
        assert FBetaLoss(2.0).loss(c) == pytest.approx(1.0 - f_beta(c, 2.0))

    def test_undefined(self):
        with pytest.raises(UndefinedMetric):
            FBetaLoss(2.0).loss(ConfusionCounts(0.0, 0.0, 1.0, 0.0))

    def test_beta_must_be_positive(self):
        with pytest.raises(ValueError):
            FBetaLoss(0.0)


class TestLbBound:
    def test_balanced_beta_one(self):
        assert FBetaLoss(1.0).bound(100, 100) == pytest.approx(1.0 / 3.0)

    def test_paper_scale(self):
        assert FBetaLoss(2.0).bound(100, 5000) == pytest.approx(5000.0 / 5500.0)

    def test_beta_to_zero_limit(self):
        assert FBetaLoss(1e-9).bound(100, 400) == pytest.approx(400.0 / 500.0)

    def test_equals_always_positive_loss(self):
        # the bound is the F-beta loss of predicting +1 everywhere
        m_pos, m_neg, beta = 37, 410, 2.0
        w = np.full(m_pos + m_neg, 1.0 / (m_pos + m_neg))
        y = np.concatenate([np.ones(m_pos, int), -np.ones(m_neg, int)])
        c = weighted_confusion(y, np.ones_like(y), w)
        assert FBetaLoss(beta).loss(c) == pytest.approx(FBetaLoss(beta).bound(m_pos, m_neg))

    def test_needs_both_classes(self):
        with pytest.raises(ValueError):
            FBetaLoss(2.0).bound(0, 5)

    @pytest.mark.parametrize("beta", [0.5, 1.0, 2.0, 3.7])
    def test_is_the_always_positive_loss_exactly(self, beta):
        # and the closed form m_neg / ((1 + b^2) m_pos + m_neg), byte for byte
        loss, b2 = FBetaLoss(beta), beta * beta
        for m_pos in range(1, 60):
            for m_neg in range(1, 394, 3):
                bound = loss.bound(m_pos, m_neg)
                assert bound == loss.loss(ConfusionCounts(m_pos, m_neg, 0, 0))
                assert bound == m_neg / ((1.0 + b2) * m_pos + m_neg)


class TestAlphaFromLoss:
    def test_half(self):
        assert alpha_from_loss(0.5) == pytest.approx(1.0)

    def test_quarter(self):
        assert alpha_from_loss(0.25) == pytest.approx(1.0 / 3.0)

    def test_clamped_zero(self):
        alpha = alpha_from_loss(0.0)
        assert alpha == pytest.approx(1e-10, rel=1e-3)
        assert math.log(1.0 / alpha) == pytest.approx(23.03, abs=0.01)

    def test_vote_weight_sign(self):
        assert math.log(1.0 / alpha_from_loss(0.3)) > 0
        assert math.log(1.0 / alpha_from_loss(0.7)) < 0


class TestUpdateWeights:
    def test_all_correct(self):
        w = np.array([0.25, 0.75])
        y = np.array([1, -1])
        out = update_weights(w, y, y, 0.2)
        assert np.allclose(out, w)

    def test_alpha_one(self):
        w = np.array([0.5, 0.5])
        out = update_weights(w, [1, -1], [-1, -1], 1.0)
        assert np.allclose(out, [0.5, 0.5])

    def test_hand_case(self):
        # misclassified entry scaled by 1/3: [1/2, 1/6] -> normalized [3/4, 1/4]
        out = update_weights([0.5, 0.5], [1, -1], [1, 1], 1.0 / 3.0)
        assert np.allclose(out, [0.75, 0.25])

    @settings(max_examples=1000, deadline=None)
    @given(
        n=st.integers(2, 20),
        seed=st.integers(0, 2**31),
        loss=st.floats(0.01, 0.99),
    )
    def test_normalized_and_nonnegative(self, n, seed, loss):
        gen = np.random.default_rng(seed)
        w = gen.random(n) + 1e-3
        w /= w.sum()
        y = gen.choice([-1, 1], size=n)
        yhat = gen.choice([-1, 1], size=n)
        if np.all(y != yhat):  # all-wrong keeps proportions, fine; ensure valid
            yhat[0] = y[0]
        out = update_weights(w, y, yhat, alpha_from_loss(loss))
        assert abs(out.sum() - 1.0) < 1e-9
        assert np.all(out >= 0)


class _StubModel:
    """Fixed prediction table over the training rows (keyed by row id)."""

    def __init__(self, decisions):
        self.decisions = np.asarray(decisions, dtype=float)
        self.n_sv = 1

    def decision_function(self, x):
        # row identity travels in the single feature column
        idx = np.asarray(np.atleast_2d(x), dtype=float)[:, 0].astype(int)
        return self.decisions[idx]


def _stub_learner(per_call_decisions):
    """Returns fixed models in sequence, one per training call."""
    calls = {"n": 0}

    def learner(features, labels, counts):
        model = _StubModel(per_call_decisions[min(calls["n"], len(per_call_decisions) - 1)])
        calls["n"] += 1
        return model

    return learner


def _id_dataset(labels):
    labels = np.asarray(labels, dtype=np.int64)
    return Dataset(np.arange(labels.size, dtype=float)[:, None], labels)


_TEN_LABELS = np.array([1] * 5 + [-1] * 5)


def _wrong_on(n):
    """Stub decisions wrong on the first n of _TEN_LABELS' rows: weighted
    error n/10 under uniform weights."""
    return np.where(np.arange(10) < n, -_TEN_LABELS, _TEN_LABELS).astype(float)


class TestAdaboostHandTrace:
    def test_two_iterations_match_hand_computation(self):
        trace = adaboost_hand_trace()
        data = _id_dataset(trace["labels"])
        learner = _stub_learner(
            [np.where(p == 1, 1.0, -1.0) for p in trace["preds"]]
        )
        # capture the weight vector passed to each attempt via the loss logs
        ens = run_boosting(
            "ada",
            data,
            2,
            loss_kind=WeightedError(),
            rng=RngStream(0),
            learner=learner,
        )
        assert ens.size == 2
        losses = [log.loss for log in ens.logs if log.accepted]
        assert losses[0] == pytest.approx(trace["eps"][0], abs=1e-9)
        assert losses[1] == pytest.approx(trace["eps"][1], abs=1e-9)
        assert ens.members[0].alpha == pytest.approx(trace["alpha"][0], abs=1e-12)
        assert ens.members[1].alpha == pytest.approx(trace["alpha"][1], abs=1e-12)

    def test_final_weights_match_hand_computation(self):
        trace = adaboost_hand_trace()
        data = _id_dataset(trace["labels"])
        learner = _stub_learner(
            [np.where(p == 1, 1.0, -1.0) for p in trace["preds"]]
        )
        seen_weights = []
        real_update = update_weights

        import pboost.boosting as boosting_mod

        def spy(w, y, yhat, alpha):
            out = real_update(w, y, yhat, alpha)
            seen_weights.append(out)
            return out

        boosting_mod.update_weights, saved = spy, boosting_mod.update_weights
        try:
            run_boosting(
                "ada", data, 2, loss_kind=WeightedError(),
                rng=RngStream(0), learner=learner,
            )
        finally:
            boosting_mod.update_weights = saved
        np.testing.assert_allclose(
            seen_weights[0], trace["weights_after"][0], atol=1e-9
        )
        np.testing.assert_allclose(
            seen_weights[1], trace["weights_after"][1], atol=1e-9
        )


class TestRunBoosting:
    def test_separable_f1_is_one(self):
        data = make_blobs(25, 100, separation=8.0)
        ens = run_boosting(
            "ada", data, 3, LearnerConfig(), WeightedError(), RngStream(1)
        )
        preds = predict_majority_labels(ens, data.features)
        counts = weighted_confusion(data.labels, preds, np.ones(data.m))
        assert f_beta(counts, 1.0) == 1.0

    def test_rus_sample_counts(self, blobs):
        ens = run_boosting(
            "rus", blobs, 4, LearnerConfig(), WeightedError(), RngStream(2)
        )
        for log in ens.logs:
            if log.accepted:
                assert log.n_tr == 2 * blobs.m_pos
                assert log.n_val == blobs.m

    def test_smt_sample_counts(self, blobs):
        ens = run_boosting(
            "smt", blobs, 2, LearnerConfig(), WeightedError(), RngStream(3)
        )
        for log in ens.logs:
            if log.accepted:
                assert log.n_tr == 2 * blobs.m_neg

    def test_rb_sample_counts(self, blobs):
        ens = run_boosting(
            "rb", blobs, 2, LearnerConfig(), WeightedError(), RngStream(4)
        )
        for log in ens.logs:
            if log.accepted:
                assert log.n_tr == blobs.m

    def test_single_class_rejected(self):
        data = make_blobs(5, 0)
        with pytest.raises(SingleClassInput):
            run_boosting("ada", data, 1, LearnerConfig(), WeightedError(), RngStream(0))

    def test_accepted_weighted_error_below_half(self, blobs):
        ens = run_boosting(
            "rus", blobs, 5, LearnerConfig(), WeightedError(), RngStream(5)
        )
        for log in ens.logs:
            if log.accepted and not log.forced:
                assert log.loss < 0.5

    def test_accepted_fbeta_loss_below_bound(self, blobs):
        bound = FBetaLoss(2.0).bound(blobs.m_pos, blobs.m_neg)
        ens = run_boosting(
            "rus", blobs, 5, LearnerConfig(), FBetaLoss(2.0), RngStream(6)
        )
        for log in ens.logs:
            if log.accepted and not log.forced:
                assert log.loss < bound

    def test_always_positive_stub_hits_lb_and_is_rejected(self, monkeypatch):
        monkeypatch.setattr(boosting, "DEFAULT_RETRY_CAP", 4)
        data = make_blobs(100, 5000)
        learner = _stub_learner([np.ones(data.m)])
        # identity features needed by the stub
        data = _id_dataset(data.labels)
        ens = run_boosting(
            "rus", data, 1, loss_kind=FBetaLoss(2.0),
            rng=RngStream(0), learner=learner,
        )
        lb = FBetaLoss(2.0).bound(100, 5000)
        # loss == l_b fails the strict gate on every attempt, so all four run
        # and the first of the equal losses is kept, forced
        assert all(log.loss == pytest.approx(lb, abs=1e-9) for log in ens.logs)
        assert [(log.retries, log.accepted, log.forced) for log in ens.logs] == [
            (0, True, True), (1, False, False), (2, False, False), (3, False, False),
        ]

    def test_rejected_attempt_before_acceptance_is_logged(self):
        # uniform weights: the first model errs on 7 of 10 rows (loss 0.7),
        # the second on 3 (loss 0.3), against the weighted-error bound 0.5
        labels = np.array([1] * 5 + [-1] * 5)
        wrong_7, wrong_3 = (
            np.where(np.arange(10) < n, -labels, labels).astype(float) for n in (7, 3)
        )
        ens = run_boosting(
            "ada", _id_dataset(labels), 1, loss_kind=WeightedError(),
            rng=RngStream(0), learner=_stub_learner([wrong_7, wrong_3]),
        )
        assert [(log.loss, log.accepted, log.retries) for log in ens.logs] == [
            (pytest.approx(0.7), False, 0),
            (pytest.approx(0.3), True, 1),
        ]
        assert complexity_report(ens).discarded_attempts == 1

    def test_single_class_attempt_before_acceptance_is_logged(self):
        labels = np.array([1] * 5 + [-1] * 5)
        wrong_3 = np.where(np.arange(10) < 3, -labels, labels).astype(float)
        calls = {"n": 0}

        def learner(features, labels, counts):
            calls["n"] += 1
            if calls["n"] == 1:
                raise SingleClassInput("one class drawn")
            return _StubModel(wrong_3)

        ens = run_boosting(
            "ada", _id_dataset(labels), 1, loss_kind=WeightedError(),
            rng=RngStream(0), learner=learner,
        )
        assert [
            (log.loss, log.accepted, log.retries, log.n_tr, log.n_sv) for log in ens.logs
        ] == [
            (math.inf, False, 0, 0, 0),
            (pytest.approx(0.3), True, 1, 10, 1),
        ]
        assert complexity_report(ens).discarded_attempts == 1

    @staticmethod
    def _gate_logs(decisions):
        """(loss, accepted, forced, retries, n_tr) of one weighted-error round on
        10 rows with uniform weights; a None decision raises SingleClassInput."""
        calls = {"n": 0}

        def learner(features, labels, counts):
            d = decisions[calls["n"]]
            calls["n"] += 1
            if d is None:
                raise SingleClassInput("one class drawn")
            return _StubModel(d)

        ens = run_boosting(
            "ada", _id_dataset(_TEN_LABELS), 1, loss_kind=WeightedError(),
            rng=RngStream(0), learner=learner,
        )
        return [(log.loss, log.accepted, log.forced, log.retries, log.n_tr) for log in ens.logs]

    def test_rejected_attempts_are_logged_in_attempt_order(self):
        logs = self._gate_logs([_wrong_on(6), _wrong_on(7), _wrong_on(3)])
        assert [entry[:4] for entry in logs] == [
            (pytest.approx(0.6), False, False, 0),
            (pytest.approx(0.7), False, False, 1),
            (pytest.approx(0.3), True, False, 2),
        ]

    def test_forced_member_is_the_lowest_loss_rejected_attempt(self, monkeypatch):
        monkeypatch.setattr(boosting, "DEFAULT_RETRY_CAP", 3)
        logs = self._gate_logs([_wrong_on(8), _wrong_on(6), _wrong_on(7)])
        assert [entry[:4] for entry in logs] == [
            (pytest.approx(0.8), False, False, 0),
            (pytest.approx(0.6), True, True, 1),
            (pytest.approx(0.7), False, False, 2),
        ]

    def test_single_class_attempt_then_forced_member(self, monkeypatch):
        monkeypatch.setattr(boosting, "DEFAULT_RETRY_CAP", 2)
        logs = self._gate_logs([None, _wrong_on(7)])
        assert logs == [
            (math.inf, False, False, 0, 0),
            (pytest.approx(0.7), True, True, 1, 10),
        ]

    def test_every_attempt_single_class_raises(self, monkeypatch):
        monkeypatch.setattr(boosting, "DEFAULT_RETRY_CAP", 3)
        calls = {"n": 0}

        def learner(features, labels, counts):
            calls["n"] += 1
            raise SingleClassInput("one class drawn")

        labels = np.array([1] * 5 + [-1] * 5)
        with pytest.raises(SingleClassInput):
            run_boosting(
                "ada", _id_dataset(labels), 1, loss_kind=WeightedError(),
                rng=RngStream(0), learner=learner,
            )
        assert calls["n"] == 3

    def test_unknown_variant_raises(self, blobs):
        with pytest.raises(ValueError, match="xyz"):
            run_boosting("xyz", blobs, 1)

    def test_zero_rounds_raises(self, blobs):
        with pytest.raises(ValueError, match="n_rounds"):
            run_boosting("rus", blobs, 0)

    def test_non_integer_rounds_raise(self, blobs):
        for n_rounds in (2.5, 2.0, True, "2"):
            with pytest.raises(ValueError, match="n_rounds"):
                run_boosting("rus", blobs, n_rounds)
        assert run_boosting("rus", blobs, np.int64(2), rng=RngStream(3)).size == 2


class TestPboost:
    def test_sizes_and_growth(self, blobs):
        part = partition_ruswr(blobs.m_neg, blobs.m_pos, RngStream(7))
        ens = pboost(blobs, part, LearnerConfig(), 2.0, RngStream(8))
        assert ens.size == len(part.parts)
        accepted = [log for log in ens.logs if log.accepted]
        for log, n_e in zip(accepted, part.sizes):
            assert log.n_tr == blobs.m_pos + n_e
        n_vals = [log.n_val for log in accepted]
        assert n_vals == [
            blobs.m_pos + sum(part.sizes[: e + 1]) for e in range(len(part.parts))
        ]
        assert all(a < b for a, b in zip(n_vals, n_vals[1:]))

    def test_total_train_count(self, blobs):
        part = partition_ruswr(blobs.m_neg, blobs.m_pos, RngStream(9))
        ens = pboost(blobs, part, LearnerConfig(), 2.0, RngStream(10))
        report = complexity_report(ens)
        assert report.total_train == ens.size * blobs.m_pos + blobs.m_neg

    def test_equal_parts_validation_total(self):
        data = make_blobs(10, 40, seed=3)
        part = partition_apriori(np.repeat(np.arange(4), 10))
        ens = pboost(data, part, LearnerConfig(), 2.0, RngStream(11))
        report = complexity_report(ens)
        e, n = 4, 10
        assert report.total_val == e * data.m_pos + n * e * (e + 1) // 2

    def test_single_partition_degenerates_to_one_rus_round(self, blobs):
        part = partition_apriori(np.zeros(blobs.m_neg, dtype=int))
        ens = pboost(blobs, part, LearnerConfig(), 2.0, RngStream(12))
        assert ens.size == 1
        log = [l for l in ens.logs if l.accepted][0]
        assert log.n_tr == blobs.m
        assert log.n_val == blobs.m

    def test_wini_carry_forward_hand_computed(self):
        # 4 positives (rows 0-3) + two partitions of 4 negatives each.
        # The stub classifier mislabels only row 4 (a false positive):
        #   counts tp=4/8, fp=1/8 -> raw loss (1/8)/(21/8) = 1/21; the bound
        #   is 8/28, so the calibrated loss is (1/21)(0.5/(2/7)) = 1/12 and
        #   alpha = 1/11. Row 4 scales by 1/11 -> pool weights
        #   [11,11,11,11,1,11,11,11]/78, so w_ini = 11/78; the new partition
        #   enters at that weight, giving iteration-2 draw weights
        #   [1, 11, 11, 11, 11, 11, 11, 11]/122 over the pool negatives.
        labels = np.concatenate([np.ones(4, int), -np.ones(8, int)])
        data = _id_dataset(labels)
        part = partition_apriori(np.repeat([0, 1], 4))
        decisions = -np.ones(12)
        decisions[:4] = 1.0
        decisions[4] = 1.0  # false positive on row 4

        import pboost.boosting as boosting_mod

        seen = []
        real_draw = boosting_mod.weighted_draw_without_replacement

        def spy(indices, weights, n, rng):
            seen.append(np.asarray(weights, dtype=float).copy())
            return real_draw(indices, weights, n, rng)

        boosting_mod.weighted_draw_without_replacement = spy
        try:
            pboost(
                data, part, beta=2.0, rng=RngStream(13),
                learner=lambda f, l, c: _StubModel(decisions),
            )
        finally:
            boosting_mod.weighted_draw_without_replacement = real_draw

        assert len(seen) == 2
        np.testing.assert_allclose(seen[0], np.full(4, 1.0 / 8.0), atol=1e-12)
        expected = np.array([1.0, 11.0, 11.0, 11.0, 11.0, 11.0, 11.0, 11.0]) / 122.0
        np.testing.assert_allclose(seen[1], expected, atol=1e-12)

    def test_partition_must_cover(self, blobs):
        bad = partition_apriori(np.zeros(blobs.m_neg - 1, dtype=int))
        with pytest.raises(ValueError):
            pboost(blobs, bad, LearnerConfig(), 2.0, RngStream(0))

    def test_single_class_input_raises(self):
        with pytest.raises(SingleClassInput):
            pboost(make_blobs(0, 20), Partitioning(np.zeros(20, dtype=np.int64)))


class TestPrediction:
    def _fixed_ensemble(self, alphas, decisions):
        members = tuple(
            EnsembleMember(model=_StubModel(d), alpha=a, loss=a / (1 + a))
            for a, d in zip(alphas, decisions)
        )
        logs = tuple()
        return BoostedEnsemble(members=members, logs=logs)

    def test_single_member_score(self):
        ens = self._fixed_ensemble([1.0 / 3.0], [np.array([0.7])])
        assert predict_scores(ens, [[0.0]])[0] == pytest.approx(0.7 * math.log(3.0))

    def test_opposite_members_cancel(self):
        ens = self._fixed_ensemble(
            [0.25, 0.25], [np.array([0.5]), np.array([-0.5])]
        )
        assert predict_scores(ens, [[0.0]])[0] == pytest.approx(0.0)

    def test_alpha_one_gives_zero_scores(self):
        ens = self._fixed_ensemble([1.0, 1.0], [np.array([5.0]), np.array([2.0])])
        assert predict_scores(ens, [[0.0]])[0] == 0.0

    def test_majority_unanimous(self):
        ens = self._fixed_ensemble(
            [0.3, 0.3, 0.3],
            [np.array([1.0]), np.array([2.0]), np.array([0.1])],
        )
        assert predict_majority_labels(ens, [[0.0]])[0] == 1

    def test_majority_tie_goes_positive(self):
        ens = self._fixed_ensemble(
            [0.25, 0.25], [np.array([1.0]), np.array([-1.0])]
        )
        assert predict_majority_labels(ens, [[0.0]])[0] == 1

    def test_majority_dominant_vote(self):
        # alpha 0.1 -> vote 2.30; two at 0.45 -> votes 0.8 each
        ens = self._fixed_ensemble(
            [0.1, 0.45, 0.45],
            [np.array([1.0]), np.array([-1.0]), np.array([-1.0])],
        )
        assert predict_majority_labels(ens, [[0.0]])[0] == 1

    def test_majority_invariant_to_decision_scaling(self):
        decisions = [np.array([0.2, -0.4]), np.array([-0.1, -3.0])]
        base = self._fixed_ensemble([0.2, 0.4], decisions)
        scaled = self._fixed_ensemble([0.2, 0.4], [d * 37.0 for d in decisions])
        probe = np.array([[0.0], [1.0]])
        assert np.array_equal(
            predict_majority_labels(base, probe),
            predict_majority_labels(scaled, probe),
        )

    def test_evaluation_scores_each_set_once_per_member(self):
        calls = []

        class Counting(_StubModel):
            def decision_function(self, x):
                calls.append(len(x))
                return super().decision_function(x)

        decisions = [
            np.array([0.9, -0.3, 0.2, -1.0, 0.4, -0.1]),
            np.array([-0.2, 0.5, 0.7, -0.6, -0.4, 0.3]),
        ]
        members = tuple(
            EnsembleMember(model=Counting(d), alpha=a, loss=a / (1 + a))
            for a, d in zip([0.2, 0.4], decisions)
        )
        ens = BoostedEnsemble(members=members, logs=())
        rows = np.arange(6, dtype=float)[:, None]
        data = Dataset(rows, np.array([1, -1, 1, -1, -1, 1]))
        metrics = evaluate_ensemble(ens, data, data, 1.0)
        assert calls == [6, 6, 6, 6]  # each member once on validation, once on test
        majority = predict_majority_labels(ens, rows)
        counts = weighted_confusion(data.labels, majority, np.ones(6))
        assert metrics["f_d"] == f_beta(counts, 1.0)

    def test_empty_ensemble(self):
        ens = BoostedEnsemble(members=(), logs=())
        with pytest.raises(ValueError, match="cannot predict with an empty ensemble"):
            predict_scores(ens, [[0.0]])
        with pytest.raises(ValueError, match="cannot predict with an empty ensemble"):
            predict_majority_labels(ens, [[0.0]])

    def test_vote_weight_sign_matches_loss(self):
        weak = EnsembleMember(model=None, alpha=alpha_from_loss(0.6), loss=0.6)
        strong = EnsembleMember(model=None, alpha=alpha_from_loss(0.2), loss=0.2)
        assert weak.vote_weight < 0 < strong.vote_weight

    @settings(max_examples=1000, deadline=None)
    @given(loss=st.floats(min_value=0.0, max_value=1.0))
    def test_vote_weight_sign_and_alpha_identity(self, loss):
        member = EnsembleMember(model=None, alpha=alpha_from_loss(loss), loss=loss)
        assert np.sign(member.vote_weight) == np.sign(0.5 - loss)
        if 1e-9 < loss < 1.0 - 1e-9:
            assert member.alpha == pytest.approx(
                member.loss / (1.0 - member.loss), abs=1e-12
            )


class TestComplexityReport:
    def test_single_member(self, blobs):
        ens = run_boosting(
            "rus", blobs, 1, LearnerConfig(), WeightedError(), RngStream(20)
        )
        report = complexity_report(ens)
        accepted = [l for l in ens.logs if l.accepted]
        assert report.ensemble_size == 1
        assert report.total_train == accepted[0].n_tr
        assert report.total_val == accepted[0].n_val
        assert report.kernel_evals_design == accepted[0].n_sv * accepted[0].n_val

    def test_ada_totals(self, blobs):
        e = 3
        ens = run_boosting(
            "ada", blobs, e, LearnerConfig(), WeightedError(), RngStream(21)
        )
        report = complexity_report(ens)
        assert report.total_train == e * blobs.m
        assert report.total_val == e * blobs.m


@settings(max_examples=100, deadline=None)
@given(seed=st.integers(0, 2**31))
def test_boosting_loop_weight_invariants(seed):
    """Weights stay normalized and nonnegative through random stub runs."""
    gen = np.random.default_rng(seed)
    n = int(gen.integers(6, 16))
    labels = np.concatenate([np.ones(n // 2, int), -np.ones(n - n // 2, int)])
    data = _id_dataset(labels)
    decisions = [gen.choice([-1.0, 1.0], size=n) for _ in range(3)]

    seen = []
    real_update, real_cap = boosting.update_weights, boosting.DEFAULT_RETRY_CAP

    def spy(w, y, yhat, alpha):
        out = real_update(w, y, yhat, alpha)
        seen.append(out)
        return out

    # patched by hand: Hypothesis does not reset the monkeypatch fixture
    # between examples
    boosting.update_weights, boosting.DEFAULT_RETRY_CAP = spy, 2
    try:
        run_boosting(
            "ada", data, 3, loss_kind=WeightedError(),
            rng=RngStream(seed % 1000), learner=_stub_learner(decisions),
        )
    finally:
        boosting.update_weights, boosting.DEFAULT_RETRY_CAP = real_update, real_cap
    for w in seen:
        assert abs(w.sum() - 1.0) < 1e-9
        assert np.all(w >= 0)


@settings(max_examples=200, deadline=None)
@given(
    cap=st.integers(1, 5),
    outcomes=st.lists(st.none() | st.integers(0, 10), min_size=5, max_size=5),
)
def test_gate_logs_every_attempt_in_call_order(cap, outcomes):
    """One weighted-error round on _TEN_LABELS under a retry cap of 1-5, whose
    k-th learner call is single-class (None) or wrong on outcomes[k] rows."""
    calls = []

    def learner(features, labels, counts):
        n = outcomes[len(calls)]
        calls.append(n)
        if n is None:
            raise SingleClassInput("one class drawn")
        return _StubModel(_wrong_on(n))

    def run():
        return run_boosting(
            "ada", _id_dataset(_TEN_LABELS), 1, loss_kind=WeightedError(),
            rng=RngStream(0), learner=learner,
        )

    # a context, not the fixture: Hypothesis rejects function-scoped fixtures
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(boosting, "DEFAULT_RETRY_CAP", cap)
        if all(n is None for n in outcomes[:cap]):
            with pytest.raises(SingleClassInput):
                run()
            assert len(calls) == cap
            return
        logs = run().logs

    assert len(calls) == len(logs)
    assert [log.retries for log in logs] == list(range(len(logs)))
    assert [log.loss for log in logs] == pytest.approx(
        [math.inf if n is None else n / 10 for n in calls]
    )
    losses = [log.loss for log in logs]
    below = [k for k, loss in enumerate(losses) if loss < 0.5]
    if below:
        kept, forced = below[0], False
        assert len(logs) == kept + 1
    else:
        kept, forced = losses.index(min(losses)), True
        assert len(logs) == cap
    assert [(log.accepted, log.forced) for log in logs] == [
        (k == kept, k == kept and forced) for k in range(len(logs))
    ]
