"""Boosting engines for imbalanced two-class data.

Every engine is one gated member loop driven by a schedule. Each step of the
schedule inserts rows into a validation pool and names how an attempt's
training subset is built from the pool. `run_boosting` covers the resampling
ensembles (plain reweighted resampling, random under-sampling, synthetic
minority over-sampling, random balance): its pool holds the whole training
set from the first step. `pboost` is the progressive variant: its pool starts
with the positives and grows by one disjoint negative partition per step.
Both accept either the classic weighted-error loss or the F-measure loss
factor.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .data import Dataset, is_integer, normalize_weights
from .errors import SingleClassInput, UndefinedMetric
from .metrics import ConfusionCounts, weighted_confusion
from .rng import RngStream
from .sampling import (
    SMOTE_K_NEIGHBORS, Partitioning, random_balance, smote, weighted_draw_without_replacement
)
from .svm import LearnerConfig, SvmModel, rbf_kappa_heuristic, train_svm, weighted_resample

_LOSS_CLAMP = 1e-10
DEFAULT_RETRY_CAP = 10

VARIANTS = ("ada", "rus", "smt", "rb")


@dataclass(frozen=True)
class WeightedError:
    """Classic loss factor: total weight of misclassified samples."""

    def loss(self, c: ConfusionCounts) -> float:
        return c.fp + c.fn

    def bound(self, m_pos: int, m_neg: int) -> float:
        """A member is accepted only below the zero-information error 1/2."""
        return 0.5


@dataclass(frozen=True)
class FBetaLoss:
    """Loss factor 1 - F_beta computed from weighted confusion counts."""

    beta: float = 2.0

    def __post_init__(self):
        if self.beta <= 0:
            raise ValueError("beta must be positive")

    def loss(self, c: ConfusionCounts) -> float:
        """1 - F_beta: (fp + b^2 fn) / ((1+b^2) tp + fp + b^2 fn)."""
        b2 = self.beta * self.beta
        denom = (1.0 + b2) * c.tp + c.fp + b2 * c.fn
        if denom <= 0.0:
            raise UndefinedMetric("loss undefined: no positives and no false positives")
        return (c.fp + b2 * c.fn) / denom

    def bound(self, m_pos: int, m_neg: int) -> float:
        """Loss of the predict-everything-positive baseline under unit weights.

        This replaces the 0.5 acceptance bound of the weighted error.
        """
        if m_pos < 1 or m_neg < 1:
            raise ValueError("both class counts must be at least 1")
        return self.loss(ConfusionCounts(tp=m_pos, fp=m_neg, tn=0, fn=0))


LossFactor = WeightedError | FBetaLoss


@dataclass(frozen=True)
class IterationLog:
    """One boosting attempt: training draws (rows drawn, with repeats when
    drawn with replacement), pool size, support vectors and pool loss (inf,
    with n_tr and n_sv 0, for a single-class subset), the
    attempt's index k within its step (its stream is ("iter", e, "attempt",
    k)), and whether it was kept as the step's member, forced when its loss
    did not beat the bound."""

    n_tr: int
    n_val: int
    n_sv: int
    loss: float
    retries: int
    accepted: bool = False
    forced: bool = False


@dataclass(frozen=True)
class EnsembleMember:
    model: object
    alpha: float
    loss: float  # clamped loss the alpha was derived from

    @property
    def vote_weight(self) -> float:
        return math.log(1.0 / self.alpha)


@dataclass(frozen=True)
class BoostedEnsemble:
    members: tuple[EnsembleMember, ...]
    logs: tuple[IterationLog, ...]

    @property
    def size(self) -> int:
        return len(self.members)

    def to_record(self) -> dict:
        return {
            "members": [
                {
                    "alpha": m.alpha,
                    "loss": m.loss,
                    "vote_weight": m.vote_weight,
                    "model": m.model.to_record(),
                }
                for m in self.members
            ],
            "logs": [vars(log) for log in self.logs],
        }


@dataclass(frozen=True)
class ComplexityReport:
    """Sample-count totals over the accepted iterations."""

    total_train: int
    total_val: int
    total_sv: int
    kernel_evals_design: int  # sum of n_sv * n_val
    ensemble_size: int
    discarded_attempts: int


def clamp_loss(loss: float) -> float:
    """Keep the loss inside (0, 1) so vote weights stay finite."""
    return min(max(loss, _LOSS_CLAMP), 1.0 - _LOSS_CLAMP)


def alpha_from_loss(loss: float) -> float:
    """loss / (1 - loss), with the loss clamped away from 0 and 1."""
    clamped = clamp_loss(loss)
    return clamped / (1.0 - clamped)


def update_weights(weights, true_labels, predicted_labels, alpha: float):
    """Scale each misclassified weight by alpha^1, correct ones by alpha^0,
    then renormalize. A zero-mistake iteration leaves weights unchanged."""
    w = np.asarray(weights, dtype=np.float64)
    y = np.asarray(true_labels)
    yhat = np.asarray(predicted_labels)
    if not (w.shape == y.shape == yhat.shape):
        raise ValueError("weights, labels, and predictions must align")
    out = np.where(y == yhat, w, w * alpha)
    return normalize_weights(out)


def calibrate_loss(raw_loss: float, bound: float) -> float:
    """Map the loss so its acceptance bound lands on 1/2.

    The weight-update factor loss/(1 - loss) treats 1/2 as the
    zero-information point, which is right for the weighted error but not
    for the F-measure loss, whose trivial-classifier level is the bound
    itself. Rescaling by 0.5/bound keeps the weight-update factor of every
    accepted member below 1; the weighted-error path (bound exactly 1/2) is
    unaffected. Only the weight update uses it: a member's alpha and vote
    weight come from the raw loss, so under the F-measure loss a member
    accepted with 1/2 < loss < bound gets alpha > 1 and a negative vote
    weight (ROADMAP item 3).
    """
    return raw_loss * (0.5 / bound)


def svm_learner(cfg: LearnerConfig | None = None):
    """Default base learner: RBF SVM with the distance-based width heuristic."""
    cfg = cfg or LearnerConfig()

    def train(features, labels, counts) -> SvmModel:
        kappa = rbf_kappa_heuristic(features, counts)
        return train_svm(features, labels, cfg, kappa, counts)

    return train


def _predict_labels(model, features: np.ndarray) -> np.ndarray:
    values = np.asarray(model.decision_function(features), dtype=np.float64)
    return np.where(values >= 0.0, 1, -1)


def _undersample(pool: Dataset, weights: np.ndarray, n: int, rng: RngStream) -> Dataset:
    """All pool positives plus a weight-driven draw of n pool negatives: the
    training subset of a RUS round and of every PBoost step."""
    neg = pool.neg_indices
    picked = weighted_draw_without_replacement(neg, weights[neg], n, rng)
    return pool.select(np.concatenate([pool.pos_indices, picked]))


def _build_subset(variant: str, train: Dataset, weights: np.ndarray, rng: RngStream):
    """One attempt's training subset and its row counts: the distinct rows of
    a draw with replacement and their counts (ADA, SMT), or None for a
    subset without repeats (RUS, RB)."""
    if variant == "ada":
        return weighted_resample(train, weights, train.m, rng)
    if variant == "rus":
        return _undersample(train, weights, min(train.m_pos, train.m_neg), rng), None
    if variant == "smt":
        n_synth = max(0, train.m_neg - train.m_pos)
        synth = smote(
            train.features[train.pos_indices], n_synth, SMOTE_K_NEIGHBORS, rng.child("smote")
        )
        feats = np.vstack([train.features, synth])
        labels = np.concatenate([train.labels, np.ones(n_synth, dtype=np.int64)])
        mean_pos_w = float(weights[train.pos_indices].mean())
        aug_w = np.concatenate([weights, np.full(n_synth, mean_pos_w)])
        augmented = Dataset(feats, labels)
        return weighted_resample(
            augmented, normalize_weights(aug_w), 2 * train.m_neg, rng.child("draw")
        )
    return random_balance(train, rng), None  # "rb"; run_boosting checks the name


def _boost(
    train: Dataset,
    schedule,
    learner,
    loss_kind: LossFactor,
    rng: RngStream,
) -> BoostedEnsemble:
    """The gated member loop shared by every engine.

    Step e of the schedule is a pair (rows, build): `rows` are training rows
    inserted into the validation pool before the step, each seeded with the
    running initial weight; `build(pool, weights, stream)` returns the
    training subset for one attempt and its row counts (None when no row
    repeats), and `learner(features, labels, counts)` fits a model with a
    `decision_function` to it. Every attempt is validated on the
    whole pool and gated on the bound of the full training set's class counts.
    A step runs up to DEFAULT_RETRY_CAP attempts, logged in attempt order, and
    stops at the first loss strictly below the bound; if none beats it, the
    first lowest-loss fitted attempt is kept and forced, and with no fitted
    attempt at all the step raises SingleClassInput. Only the kept-so-far
    attempt's model and predictions are held besides the current one's.
    After each accepted member the pool weights get the calibrated update,
    and the initial weight for later insertions becomes the largest negative
    weight in the pool.
    """
    if train.m_pos == 0 or train.m_neg == 0:
        raise SingleClassInput("training set must contain both classes")
    bound = loss_kind.bound(train.m_pos, train.m_neg)
    pool_idx = np.empty(0, dtype=np.int64)
    weights = np.empty(0)
    w_ini = 1.0
    members: list[EnsembleMember] = []
    logs: list[IterationLog] = []

    for e, (rows, build) in enumerate(schedule):
        if rows.size:
            pool_idx = np.concatenate([pool_idx, rows])
            weights = normalize_weights(np.concatenate([weights, np.full(rows.size, w_ini)]))
            pool = train.select(pool_idx)

        step_logs: list[IterationLog] = []  # attempt k's log at index k
        kept = None  # (k, model, preds) of the first lowest-loss fitted attempt
        for k in range(DEFAULT_RETRY_CAP):
            stream = rng.child("iter", e, "attempt", k)
            try:
                subset, counts = build(pool, weights, stream)
                model = learner(subset.features, subset.labels, counts)
            except SingleClassInput:
                step_logs.append(IterationLog(0, pool.m, 0, math.inf, retries=k))
                continue
            preds = _predict_labels(model, pool.features)
            loss = loss_kind.loss(weighted_confusion(pool.labels, preds, weights))
            n_sv = int(getattr(model, "n_sv", 0))
            n_tr = subset.m if counts is None else int(counts.sum())
            step_logs.append(IterationLog(n_tr, pool.m, n_sv, loss, retries=k))
            if kept is None or loss < step_logs[kept[0]].loss:
                kept = (k, model, preds)
            if loss < bound:
                break
        if kept is None:
            raise SingleClassInput(
                "every resampling attempt produced a single-class training subset"
            )
        k, model, preds = kept
        loss = step_logs[k].loss
        step_logs[k] = replace(step_logs[k], accepted=True, forced=loss >= bound)
        logs += step_logs
        members.append(EnsembleMember(model, alpha_from_loss(loss), clamp_loss(loss)))
        weights = update_weights(
            weights, pool.labels, preds, alpha_from_loss(calibrate_loss(loss, bound))
        )
        w_ini = float(weights[pool.labels == -1].max())

    return BoostedEnsemble(members=tuple(members), logs=tuple(logs))


def run_boosting(
    variant: str,
    train: Dataset,
    n_rounds: int,
    cfg: LearnerConfig | None = None,
    loss_kind: LossFactor = WeightedError(),
    rng: RngStream = RngStream(0),
    *,
    learner=None,
) -> BoostedEnsemble:
    """Boost a weight-unaware base learner with per-variant resampling.

    The pool holds the whole training set from the first round on. Every
    round builds a training subset from the current weights, trains a base
    model, evaluates it on the full training set under the current weight
    vector, and rejects it (with retry) if its loss does not beat the loss
    factor's bound.
    """
    if variant not in VARIANTS:
        raise ValueError(f"unknown variant {variant!r}; expected one of {VARIANTS}")
    if not (is_integer(n_rounds) and n_rounds >= 1):
        raise ValueError(f"n_rounds must be an integer of at least 1, got {n_rounds!r}")

    def build(pool: Dataset, weights: np.ndarray, stream: RngStream):
        return _build_subset(variant, pool, weights, stream.child("build"))

    no_rows = np.empty(0, dtype=np.int64)
    schedule = [(np.arange(train.m), build)] + [(no_rows, build)] * (n_rounds - 1)
    return _boost(train, schedule, learner or svm_learner(cfg), loss_kind, rng)


def pboost(
    train: Dataset,
    partitioning: Partitioning,
    cfg: LearnerConfig | None = None,
    beta: float = 2.0,
    rng: RngStream = RngStream(0),
    *,
    loss_kind: LossFactor | None = None,
    learner=None,
) -> BoostedEnsemble:
    """Progressive boosting over disjoint negative partitions.

    Iteration e inserts partition e into a temporary pool that starts with
    all positives, seeds the new samples with the running initial weight,
    trains on all positives plus a weight-driven draw of N_e pool negatives,
    and validates on the whole pool, whose imbalance grows monotonically.
    After each accepted iteration the initial weight for the next partition
    becomes the largest negative weight in the pool. `update_weights` scales
    the *misclassified* rows by alpha < 1, so that weight belongs to negatives
    the members got right, not to the hardest ones: fresh samples enter as
    heavy as the easiest negatives seen so far. Whether the update should
    run the other way is ROADMAP item 3; the first FOUND line in CHANGES.md
    traces one consequence.
    """
    if partitioning.labels.size != train.m_neg:
        raise ValueError("partitioning must cover exactly the training negatives")
    loss_kind = loss_kind if loss_kind is not None else FBetaLoss(beta)

    def draw(n_e: int):
        return lambda pool, w, stream: (_undersample(pool, w, n_e, stream.child("draw")), None)

    neg_idx = train.neg_indices
    inserts = [neg_idx[part] for part in partitioning.parts]
    inserts[0] = np.concatenate([train.pos_indices, inserts[0]])
    schedule = [
        (rows, draw(part.size)) for rows, part in zip(inserts, partitioning.parts)
    ]
    return _boost(train, schedule, learner or svm_learner(cfg), loss_kind, rng)


def _scores_and_majority(
    ensemble: BoostedEnsemble, features
) -> tuple[np.ndarray, np.ndarray]:
    """Vote-weighted sum of member decision values, and vote-weighted majority
    of member label decisions (ties go positive), for each row.

    Each member's decision_function runs once, and both sums are accumulated
    from it before the next member's, so no member's decisions are kept.
    """
    if not ensemble.members:
        raise ValueError("cannot predict with an empty ensemble")
    x = np.atleast_2d(np.asarray(features, dtype=np.float64))
    scores = np.zeros(x.shape[0])
    votes = np.zeros(x.shape[0])
    for member in ensemble.members:
        d = np.asarray(member.model.decision_function(x))
        scores += member.vote_weight * d
        votes += member.vote_weight * np.where(d >= 0.0, 1.0, -1.0)
    return scores, np.where(votes >= 0.0, 1, -1)


def predict_scores(ensemble: BoostedEnsemble, features) -> np.ndarray:
    """Vote-weighted sum of member decision values for each row."""
    return _scores_and_majority(ensemble, features)[0]


def predict_majority_labels(ensemble: BoostedEnsemble, features) -> np.ndarray:
    """Vote-weighted majority over member label decisions; ties go positive."""
    return _scores_and_majority(ensemble, features)[1]


def complexity_report(ensemble: BoostedEnsemble) -> ComplexityReport:
    """Totals of the per-iteration sample counts for accepted members."""
    accepted = [log for log in ensemble.logs if log.accepted]
    discarded = len(ensemble.logs) - len(accepted)
    return ComplexityReport(
        total_train=sum(log.n_tr for log in accepted),
        total_val=sum(log.n_val for log in accepted),
        total_sv=sum(log.n_sv for log in accepted),
        kernel_evals_design=sum(log.n_sv * log.n_val for log in accepted),
        ensemble_size=len(accepted),
        discarded_attempts=discarded,
    )
