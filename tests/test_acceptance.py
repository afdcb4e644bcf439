"""Acceptance suite: one test per exit criterion, each printing a PASS/FAIL
line. Criterion 4a currently fails and is left red on purpose; the synthetic
generator family admits the trend's direction but not its required margin
(see the notes accompanying the build for the full analysis).

The KEEL point-reproduction criterion needs the real vowel0/glass2 files,
which cannot be fetched in an offline environment; the tests look for them
under tests/data/keel/ (or $PBOOST_KEEL_DIR) and skip with an explicit
message when absent.
"""

import os
import time
from pathlib import Path

import numpy as np
import pytest

from pboost import Dataset, RngStream
from pboost.boosting import (
    FBetaLoss,
    WeightedError,
    complexity_report,
    l_b_bound,
    pboost,
    predict_scores,
    run_boosting,
    update_weights,
)
from pboost.data import normalize_weights
from pboost.datagen import SynthConfig, gen_synthetic
from pboost.experiment import (
    ExperimentConfig,
    run_replication_variant,
    synthetic_replications,
)
from pboost.keel import make_2x5_folds, parse_keel
from pboost.metrics import f_beta, pr_curve_and_aupr, select_threshold_max_fbeta, weighted_confusion
from pboost.sampling import partition_ruswr, rus
from pboost.svm import LearnerConfig, rbf_kappa_heuristic, train_svm

from oracles import (
    adaboost_hand_trace,
    aupr_bruteforce,
    smo_objective_from_model,
    svm_grid_search,
)

KEEL_DIR = Path(os.environ.get("PBOOST_KEEL_DIR", Path(__file__).parent / "data" / "keel"))


def _report(criterion: str, passed: bool, detail: str = ""):
    line = f"[acceptance] criterion {criterion}: {'PASS' if passed else 'FAIL'}"
    if detail:
        line += f" ({detail})"
    print(line, flush=True)
    return passed


class TestCriterion1Properties:
    """Randomized re-checks of representative per-module invariants.

    The full hypothesis suites in the per-module test files run alongside
    this; here the three areas named by the criterion are exercised with
    1000 fresh random cases each so the acceptance log carries the result.
    """

    def test_weights_metrics_partitioning_properties(self):
        start = time.time()
        gen = np.random.default_rng(20260808)
        for _ in range(1000):
            n = int(gen.integers(1, 40))
            w = gen.random(n) + 1e-12
            out = normalize_weights(w)
            assert abs(out.sum() - 1.0) < 1e-9 and np.all(out >= 0)

            y = gen.choice([-1, 1], size=n)
            yhat = gen.choice([-1, 1], size=n)
            c = weighted_confusion(y, yhat, w)
            assert c.total == pytest.approx(w.sum(), abs=1e-9)

        for _ in range(1000):
            m_pos = int(gen.integers(2, 80))
            neg = int(gen.integers(int(np.ceil(m_pos / 2)), m_pos * 40))
            part = partition_ruswr(neg, m_pos, RngStream(int(gen.integers(2**31))))
            flat = np.concatenate(part.parts)
            assert np.array_equal(np.sort(flat), np.arange(neg))
            low = int(np.ceil(m_pos / 2))
            assert all(low <= s <= 2 * m_pos for s in part.sizes[:-1])
        elapsed = time.time() - start
        assert _report("1 (property suites)", elapsed < 300, f"{elapsed:.0f}s")


class TestCriterion2Oracles:
    def test_2a_aupr_bruteforce_equivalence(self):
        gen = np.random.default_rng(42)
        worst = 0.0
        for _ in range(500):
            n = int(gen.integers(2, 13))
            labels = gen.choice([-1, 1], size=n)
            if (labels == 1).sum() == 0:
                labels[int(gen.integers(n))] = 1
            if gen.random() < 0.5:
                scores = gen.choice([0.0, 0.25, 0.5, 0.75, 1.0], size=n)
            else:
                scores = gen.normal(size=n)
            _, fast = pr_curve_and_aupr(scores, labels)
            slow = aupr_bruteforce(scores, labels)
            worst = max(worst, abs(fast - slow))
        ok = worst <= 1e-12
        assert _report("2a (AUPR vs brute force)", ok, f"worst gap {worst:.2e}")

    def test_2b_smo_vs_grid_search(self):
        problems = [
            (np.array([[1.0, 0.0], [1.0, 1.0], [-1.0, 0.0], [-1.0, 1.0]]),
             np.array([1, 1, -1, -1]), 1.0),
            (np.array([[0.0, 0.0], [1.0, 1.0], [0.0, 1.0], [1.0, 0.0]]),
             np.array([1, 1, -1, -1]), 0.5),
            (np.array([[0.0, 0.0], [2.0, 0.0]]), np.array([1, -1]), 1.5),
            (np.array([[0.0, 0.0], [0.5, 0.0], [2.0, 0.0]]),
             np.array([1, 1, -1]), 1.0),
        ]
        gen = np.random.default_rng(7)
        for _ in range(4):
            x = gen.normal(0.0, 1.5, size=(4, 2)).round(2)
            problems.append((x, np.array([1, 1, -1, -1]), rbf_kappa_heuristic(x)))
        worst_obj = 0.0
        all_preds_match = True
        for x, y, kappa in problems:
            model = train_svm(x, y, LearnerConfig(), kappa)
            smo_obj, _ = smo_objective_from_model(model, x, y, kappa)
            grid_obj, _, _, grid_preds = svm_grid_search(x, y, 1.0, kappa)
            worst_obj = max(worst_obj, abs(smo_obj - grid_obj))
            preds = np.where(model.decision_function(x) >= 0, 1, -1)
            all_preds_match &= bool(np.array_equal(preds, grid_preds))
        ok = worst_obj <= 1e-2 and all_preds_match
        assert _report(
            "2b (SMO vs grid search)", ok,
            f"worst objective gap {worst_obj:.2e}, predictions match: {all_preds_match}",
        )

    def test_2c_adaboost_hand_trace(self):
        trace = adaboost_hand_trace()
        labels = trace["labels"]
        data = Dataset(np.arange(6, dtype=float)[:, None], labels)

        class Stub:
            n_sv = 1

            def __init__(self, decisions):
                self.decisions = decisions

            def decision_function(self, x):
                idx = np.atleast_2d(np.asarray(x))[:, 0].astype(int)
                return self.decisions[idx]

        calls = {"n": 0}

        def learner(features, labels_):
            preds = trace["preds"][min(calls["n"], 1)]
            calls["n"] += 1
            return Stub(np.where(preds == 1, 1.0, -1.0))

        seen = []
        import pboost.boosting as boosting_mod

        real = boosting_mod.update_weights

        def spy(w, y, yhat, alpha):
            out = real(w, y, yhat, alpha)
            seen.append(out)
            return out

        boosting_mod.update_weights = spy
        try:
            ens = run_boosting(
                "ada", data, 2, loss_kind=WeightedError(),
                rng=RngStream(0), learner=learner,
            )
        finally:
            boosting_mod.update_weights = real
        losses = [log.loss for log in ens.logs if log.accepted]
        ok = (
            abs(losses[0] - trace["eps"][0]) < 1e-9
            and abs(losses[1] - trace["eps"][1]) < 1e-9
            and np.allclose(seen[0], trace["weights_after"][0], atol=1e-9)
            and np.allclose(seen[1], trace["weights_after"][1], atol=1e-9)
        )
        assert _report("2c (AdaBoost.M1 hand trace)", ok)


def _complexity_training_set() -> Dataset:
    # 100 positives and 50 clusters x 100 = 5000 negatives, overlap like D2
    cfg = SynthConfig(delta=0.1, t_neg=50, per_cluster=100, seed=11)
    return gen_synthetic(cfg)


class TestCriterion3Complexity:
    def test_sample_count_formulas(self):
        start = time.time()
        data = _complexity_training_set()
        m_pos, m_neg = data.m_pos, data.m_neg
        assert (m_pos, m_neg) == (100, 5000)
        # C large enough that full-set members do not collapse to the
        # all-negative predictor at this skew; pass budget kept small since
        # only the sample accounting is asserted here
        fast = LearnerConfig(c_penalty=50.0, max_passes=10)
        e = 3
        rng = RngStream(99)

        totals = {}
        for variant in ("ada", "smt", "rus", "rb"):
            ens = run_boosting(
                variant, data, e, fast, WeightedError(), rng.child(variant)
            )
            totals[variant] = complexity_report(ens)

        part = partition_ruswr(m_neg, m_pos, rng.child("part"))
        prus = pboost(data, part, fast, 2.0, rng.child("prus"))
        prus_report = complexity_report(prus)
        e_p = prus_report.ensemble_size
        sizes = part.sizes

        checks = {
            "ada n_tr": totals["ada"].total_train == e * (m_pos + m_neg),
            "ada n_val": totals["ada"].total_val == e * (m_pos + m_neg),
            "smt n_tr": totals["smt"].total_train == 2 * e * m_neg,
            "smt n_val": totals["smt"].total_val == e * (m_pos + m_neg),
            "rus n_tr": totals["rus"].total_train == 2 * e * m_pos,
            "rus n_val": totals["rus"].total_val == e * (m_pos + m_neg),
            "rb n_tr": totals["rb"].total_train == e * (m_pos + m_neg),
            "rb n_val": totals["rb"].total_val == e * (m_pos + m_neg),
            "prus n_tr": prus_report.total_train == e_p * m_pos + m_neg,
            "prus n_val strict": prus_report.total_val < e_p * (m_pos + m_neg),
        }
        direct = sum(
            m_pos + sum(sizes[: i + 1]) for i in range(len(sizes))
        )
        closed_form = (
            e_p * m_pos + m_neg + e_p**2
            - sum((i + 1) * n for i, n in enumerate(sizes))
        )
        print(
            f"[acceptance] criterion 3 note: PRUS total n_val direct={direct}, "
            f"closed-form variant={closed_form} (reported for comparison, not asserted)"
        )
        elapsed = time.time() - start
        ok = all(checks.values()) and prus_report.total_val == direct and elapsed < 120
        assert _report(
            "3 (complexity accounting)", ok,
            f"{elapsed:.0f}s; " + ", ".join(k for k, v in checks.items() if not v),
        )


def _trend_metrics(setting: str, tokens, lam: float):
    cfg = ExperimentConfig(
        source="synthetic", setting=setting, variants=tuple(tokens),
        out_dir="unused", seed=0, lambda_tests=(lam,),
    )
    reps = synthetic_replications(cfg)
    out = {t: {"aupr": [], "f_op": []} for t in tokens}
    for token in tokens:
        for rep in reps:
            metrics = run_replication_variant(rep, token, cfg, LearnerConfig())["rows"][0]
            out[token]["aupr"].append(metrics["aupr"])
            out[token]["f_op"].append(metrics["f_op"])
    return out


class TestCriterion4SyntheticTrends:
    def test_4a_prusf_aupr_gap_on_d1(self):
        start = time.time()
        res = _trend_metrics("D1", ("RUS", "PRUS-F"), 100.0)
        rus = float(np.mean(res["RUS"]["aupr"]))
        prusf = float(np.mean(res["PRUS-F"]["aupr"]))
        gap = prusf - rus
        ok = gap >= 0.15
        _report(
            "4a (D1 AUPR gap PRUS-F vs RUS >= 0.15)", ok,
            f"PRUS-F {prusf:.3f} vs RUS {rus:.3f}, gap {gap:+.3f}, {time.time()-start:.0f}s",
        )
        assert ok, (
            f"mean AUPR gap {gap:+.4f} < 0.15 (PRUS-F {prusf:.4f}, RUS {rus:.4f}); "
            "the progressive ensemble beats the under-sampling baseline in the "
            "mean but not by the required margin on this generator family"
        )

    def test_4b_rusf_f2_on_d2(self):
        start = time.time()
        res = _trend_metrics("D2", ("RUS", "RUS-F"), 100.0)
        rus = float(np.mean(res["RUS"]["f_op"]))
        rusf = float(np.mean(res["RUS-F"]["f_op"]))
        ok = rusf >= rus
        _report(
            "4b (D2 F2 RUS-F >= RUS)", ok,
            f"RUS-F {rusf:.3f} vs RUS {rus:.3f}, {time.time()-start:.0f}s",
        )
        assert ok


def _keel_prusf_scores(path: Path, positive_token: str, seed: int = 0):
    data = parse_keel(path, positive_token)
    reps = make_2x5_folds(data, seed=seed)
    f2s, auprs = [], []
    for i, rep in enumerate(reps):
        train = data.select(rep.train)
        val = data.select(rep.validation)
        test = data.select(rep.test)
        stream = RngStream(seed).child("keel", i)
        part = partition_ruswr(train.m_neg, train.m_pos, stream.child("part"))
        ens = pboost(train, part, LearnerConfig(), 2.0, stream.child("boost"))
        val_scores = predict_scores(ens, val.features)
        threshold, _ = select_threshold_max_fbeta(val_scores, val.labels, 2.0)
        test_scores = predict_scores(ens, test.features)
        preds = np.where(test_scores >= threshold, 1, -1)
        counts = weighted_confusion(test.labels, preds, np.ones(test.m))
        f2s.append(f_beta(counts, 2.0))
        auprs.append(pr_curve_and_aupr(test_scores, test.labels)[1])
    return float(np.mean(f2s)), float(np.mean(auprs))


class TestCriterion5Keel:
    def test_vowel0(self):
        path = KEEL_DIR / "vowel0.dat"
        if not path.exists():
            pytest.skip(
                f"vowel0.dat not found under {KEEL_DIR}; the real KEEL file "
                "cannot be fetched offline. Place it there (positive token "
                "'positive') to run this criterion."
            )
        start = time.time()
        f2, aupr = _keel_prusf_scores(path, "positive")
        ok = f2 >= 0.97 and aupr >= 0.97 and time.time() - start < 600
        assert _report("5 (vowel0 PRUS-F)", ok, f"F2 {f2:.3f}, AUPR {aupr:.3f}")

    def test_glass2(self):
        path = KEEL_DIR / "glass2.dat"
        if not path.exists():
            pytest.skip(
                f"glass2.dat not found under {KEEL_DIR}; the real KEEL file "
                "cannot be fetched offline. Place it there (positive token "
                "'positive') to run this criterion."
            )
        start = time.time()
        f2, _ = _keel_prusf_scores(path, "positive")
        ok = f2 >= 0.80 and time.time() - start < 600
        assert _report("5 (glass2 PRUS-F)", ok, f"F2 {f2:.3f}")

    def test_corpus_parses_with_expected_skew(self):
        files = sorted(KEEL_DIR.glob("*.dat")) if KEEL_DIR.exists() else []
        if not files:
            pytest.skip(f"no KEEL corpus under {KEEL_DIR}")
        for path in files:
            data = parse_keel(path, "positive")
            assert data.m_pos > 0 and data.m_neg > 0


class TestCriterion6LossGate:
    def test_always_positive_classifier_hits_lb_and_is_rejected(self):
        m_pos, m_neg, beta = 100, 5000, 2.0
        labels = np.concatenate([np.ones(m_pos, int), -np.ones(m_neg, int)])
        data = Dataset(np.arange(labels.size, dtype=float)[:, None], labels)

        class AlwaysPositive:
            n_sv = 0

            def decision_function(self, x):
                return np.ones(np.atleast_2d(np.asarray(x)).shape[0])

        ens = run_boosting(
            "rus", data, 1, loss_kind=FBetaLoss(beta),
            rng=RngStream(1), learner=lambda f, l: AlwaysPositive(),
            retry_cap=3,
        )
        lb = l_b_bound(m_pos, m_neg, beta)
        first = ens.logs[0]
        final = ens.logs[-1]
        ok = (
            abs(first.loss - lb) <= 1e-9
            and not first.accepted
            and final.forced
            and abs(lb - 5000.0 / 5500.0) < 1e-12
        )
        assert _report(
            "6 (l_b gate)", ok,
            f"loss {first.loss:.10f} vs l_b {lb:.10f}, rejected={not first.accepted}",
        )
