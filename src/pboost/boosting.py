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
from dataclasses import dataclass

import numpy as np

from .data import Dataset, normalize_weights
from .errors import EmptyEnsemble, LengthMismatch, SingleClassInput, UndefinedMetric
from .metrics import ConfusionCounts, weighted_confusion
from .rng import RngStream
from .sampling import Partitioning, random_balance, smote, weighted_draw_without_replacement
from .svm import LearnerConfig, SvmModel, model_from_record, rbf_kappa_heuristic, train_svm, weighted_resample

_LOSS_CLAMP = 1e-10
DEFAULT_RETRY_CAP = 10

VARIANTS = ("ada", "rus", "smt", "rb")


@dataclass(frozen=True)
class WeightedError:
    """Classic loss factor: total weight of misclassified samples."""


@dataclass(frozen=True)
class FBetaLoss:
    """Loss factor 1 - F_beta computed from weighted confusion counts."""

    beta: float = 2.0

    def __post_init__(self):
        if self.beta <= 0:
            raise ValueError("beta must be positive")


LossFactor = WeightedError | FBetaLoss


@dataclass(frozen=True)
class IterationLog:
    n_tr: int
    n_val: int
    n_sv: int
    loss: float
    retries: int
    accepted: bool
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


def ensemble_from_record(record: dict) -> BoostedEnsemble:
    members = tuple(
        EnsembleMember(
            model=model_from_record(m["model"]),
            alpha=float(m["alpha"]),
            loss=float(m["loss"]),
        )
        for m in record["members"]
    )
    logs = tuple(IterationLog(**log) for log in record["logs"])
    return BoostedEnsemble(members=members, logs=logs)


@dataclass(frozen=True)
class ComplexityReport:
    """Sample-count totals over the accepted iterations."""

    total_train: int
    total_val: int
    total_sv: int
    kernel_evals_design: int  # sum of n_sv * n_val
    ensemble_size: int
    discarded_attempts: int


def loss_fbeta(c: ConfusionCounts, beta: float) -> float:
    """1 - F_beta: (fp + b^2 fn) / ((1+b^2) tp + fp + b^2 fn)."""
    if beta <= 0:
        raise ValueError("beta must be positive")
    b2 = beta * beta
    denom = (1.0 + b2) * c.tp + c.fp + b2 * c.fn
    if denom <= 0.0:
        raise UndefinedMetric("loss undefined: no positives and no false positives")
    return (c.fp + b2 * c.fn) / denom


def l_b_bound(m_pos: int, m_neg: int, beta: float) -> float:
    """Loss of the predict-everything-positive baseline under unit weights.

    This replaces the 0.5 acceptance bound when the F-measure loss is used.
    """
    if m_pos < 1 or m_neg < 1:
        raise ValueError("both class counts must be at least 1")
    b2 = beta * beta
    return m_neg / ((1.0 + b2) * m_pos + m_neg)


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
        raise LengthMismatch("weights, labels, and predictions must align")
    out = np.where(y == yhat, w, w * alpha)
    return normalize_weights(out)


def iteration_loss(counts: ConfusionCounts, loss_kind: LossFactor) -> float:
    if isinstance(loss_kind, FBetaLoss):
        return loss_fbeta(counts, loss_kind.beta)
    return counts.fp + counts.fn


def loss_bound(loss_kind: LossFactor, m_pos: int, m_neg: int) -> float:
    if isinstance(loss_kind, FBetaLoss):
        return l_b_bound(m_pos, m_neg, loss_kind.beta)
    return 0.5


def calibrate_loss(raw_loss: float, bound: float) -> float:
    """Map the loss so its acceptance bound lands on 1/2.

    The weight-update factor loss/(1 - loss) treats 1/2 as the
    zero-information point, which is right for the weighted error but not
    for the F-measure loss, whose trivial-classifier level is the bound
    itself. Rescaling by 0.5/bound re-anchors the factor so that every
    accepted member votes positively and weight updates stay contractive;
    the weighted-error path (bound exactly 1/2) is unaffected.
    """
    return raw_loss * (0.5 / bound)


def svm_learner(cfg: LearnerConfig | None = None):
    """Default base learner: RBF SVM with the distance-based width heuristic."""
    cfg = cfg or LearnerConfig()

    def train(features, labels) -> SvmModel:
        kappa = rbf_kappa_heuristic(features)
        return train_svm(features, labels, cfg, kappa)

    return train


def _predict_labels(model, features: np.ndarray) -> np.ndarray:
    values = np.asarray(model.decision_function(features), dtype=np.float64)
    return np.where(values >= 0.0, 1, -1)


@dataclass
class _Attempt:
    model: object
    preds: np.ndarray
    loss: float
    n_tr: int
    n_sv: int


def _gated_attempts(run_attempt, bound: float, retry_cap: int):
    """Run attempts until one beats the loss bound (strict inequality).

    Returns (accepted attempt, discarded logs, forced flag). When every
    attempt is rejected the best-loss attempt is kept and flagged.
    """
    best: _Attempt | None = None
    discarded: list[_Attempt | None] = []
    for attempt_idx in range(retry_cap):
        try:
            attempt = run_attempt(attempt_idx)
        except SingleClassInput:
            discarded.append(None)
            continue
        if attempt.loss < bound:
            return attempt, discarded, False
        if best is None or attempt.loss < best.loss:
            if best is not None:
                discarded.append(best)
            best = attempt
        else:
            discarded.append(attempt)
    if best is None:
        raise SingleClassInput(
            "every resampling attempt produced a single-class training subset"
        )
    return best, discarded, True


def _build_subset(variant: str, train: Dataset, weights: np.ndarray, rng: RngStream) -> Dataset:
    if variant == "ada":
        return weighted_resample(train, weights, train.m, rng)
    if variant == "rus":
        n_draw = min(train.m_pos, train.m_neg)
        neg_idx = train.neg_indices
        picked = weighted_draw_without_replacement(
            neg_idx, weights[neg_idx], n_draw, rng
        )
        keep = np.concatenate([train.pos_indices, picked])
        return train.select(keep)
    if variant == "smt":
        n_synth = max(0, train.m_neg - train.m_pos)
        synth = smote(
            train.features[train.pos_indices], n_synth, 5, rng.child("smote")
        )
        feats = np.vstack([train.features, synth])
        labels = np.concatenate([train.labels, np.ones(n_synth, dtype=np.int64)])
        mean_pos_w = float(weights[train.pos_indices].mean())
        aug_w = np.concatenate([weights, np.full(n_synth, mean_pos_w)])
        augmented = Dataset(feats, labels)
        return weighted_resample(
            augmented, normalize_weights(aug_w), 2 * train.m_neg, rng.child("draw")
        )
    if variant == "rb":
        return random_balance(train, rng)
    raise ValueError(f"unknown variant {variant!r}; expected one of {VARIANTS}")


def _boost(
    train: Dataset,
    schedule,
    learner,
    loss_kind: LossFactor,
    rng: RngStream,
    retry_cap: int,
) -> BoostedEnsemble:
    """The gated member loop shared by every engine.

    Step e of the schedule is a pair (rows, build): `rows` are training rows
    inserted into the validation pool before the step, each seeded with the
    running initial weight; `build(pool, weights, stream)` returns the
    training subset for one attempt, and `learner(features, labels)` fits a
    model with a `decision_function` to it. Every attempt is validated on the
    whole pool and gated on the bound of the full training set's class counts.
    After each accepted member the pool weights get the calibrated update,
    and the initial weight for later insertions becomes the largest negative
    weight in the pool.
    """
    bound = loss_bound(loss_kind, train.m_pos, train.m_neg)
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

        # called only within this step, so the closure sees this step's pool
        def run_attempt(attempt_idx: int) -> _Attempt:
            stream = rng.child("iter", e, "attempt", attempt_idx)
            subset = build(pool, weights, stream)
            model = learner(subset.features, subset.labels)
            preds = _predict_labels(model, pool.features)
            counts = weighted_confusion(pool.labels, preds, weights)
            return _Attempt(
                model=model,
                preds=preds,
                loss=iteration_loss(counts, loss_kind),
                n_tr=subset.m,
                n_sv=int(getattr(model, "n_sv", 0)),
            )

        accepted, discarded, forced = _gated_attempts(run_attempt, bound, retry_cap)
        # one log per attempt; the accepted one comes last
        for idx, attempt in enumerate([*discarded, accepted]):
            is_accepted = idx == len(discarded)
            logs.append(
                IterationLog(
                    n_tr=0 if attempt is None else attempt.n_tr,
                    n_val=pool.m,
                    n_sv=0 if attempt is None else attempt.n_sv,
                    loss=math.inf if attempt is None else attempt.loss,
                    retries=idx,
                    accepted=is_accepted,
                    forced=forced and is_accepted,
                )
            )
        members.append(
            EnsembleMember(
                model=accepted.model,
                alpha=alpha_from_loss(accepted.loss),
                loss=clamp_loss(accepted.loss),
            )
        )
        weights = update_weights(
            weights, pool.labels, accepted.preds,
            alpha_from_loss(calibrate_loss(accepted.loss, bound)),
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
    retry_cap: int = DEFAULT_RETRY_CAP,
) -> BoostedEnsemble:
    """Boost a weight-unaware base learner with per-variant resampling.

    The pool holds the whole training set from the first round on. Every
    round builds a training subset from the current weights, trains a base
    model, evaluates it on the full training set under the current weight
    vector, and rejects it (with retry) if its loss does not beat the bound:
    0.5 for the weighted error, the always-positive baseline loss for the
    F-measure factor.
    """
    if variant not in VARIANTS:
        raise ValueError(f"unknown variant {variant!r}; expected one of {VARIANTS}")
    if n_rounds < 1:
        raise ValueError("n_rounds must be at least 1")
    if train.m_pos == 0 or train.m_neg == 0:
        raise SingleClassInput("training set must contain both classes")

    def build(pool: Dataset, weights: np.ndarray, stream: RngStream) -> Dataset:
        return _build_subset(variant, pool, weights, stream.child("build"))

    no_rows = np.empty(0, dtype=np.int64)
    schedule = [(np.arange(train.m), build)] + [(no_rows, build)] * (n_rounds - 1)
    return _boost(train, schedule, learner or svm_learner(cfg), loss_kind, rng, retry_cap)


def pboost(
    train: Dataset,
    partitioning: Partitioning,
    cfg: LearnerConfig | None = None,
    beta: float = 2.0,
    rng: RngStream = RngStream(0),
    *,
    loss_kind: LossFactor | None = None,
    learner=None,
    retry_cap: int = DEFAULT_RETRY_CAP,
) -> BoostedEnsemble:
    """Progressive boosting over disjoint negative partitions.

    Iteration e inserts partition e into a temporary pool that starts with
    all positives, seeds the new samples with the running initial weight,
    trains on all positives plus a weight-driven draw of N_e pool negatives,
    and validates on the whole pool, whose imbalance grows monotonically.
    After each accepted iteration the initial weight for the next partition
    becomes the largest negative weight in the pool, so fresh samples compete
    on equal terms with the hardest ones seen so far.
    """
    if train.m_pos == 0 or train.m_neg == 0:
        raise SingleClassInput("training set must contain both classes")
    if not partitioning.covers(train.m_neg):
        raise ValueError("partitioning must cover exactly the training negatives")
    loss_kind = loss_kind if loss_kind is not None else FBetaLoss(beta)

    def draw(n_e: int):
        def build(pool: Dataset, weights: np.ndarray, stream: RngStream) -> Dataset:
            neg = pool.neg_indices
            picked = weighted_draw_without_replacement(
                neg, weights[neg], n_e, stream.child("draw")
            )
            return pool.select(np.concatenate([pool.pos_indices, picked]))

        return build

    neg_idx = train.neg_indices
    inserts = [neg_idx[part] for part in partitioning.parts]
    inserts[0] = np.concatenate([train.pos_indices, inserts[0]])
    schedule = [
        (rows, draw(part.size)) for rows, part in zip(inserts, partitioning.parts)
    ]
    return _boost(train, schedule, learner or svm_learner(cfg), loss_kind, rng, retry_cap)


def _scores_and_majority(
    ensemble: BoostedEnsemble, features
) -> tuple[np.ndarray, np.ndarray]:
    """Vote-weighted sum of member decision values, and vote-weighted majority
    of member label decisions (ties go positive), for each row.

    Each member's decision_function runs once, and both sums are accumulated
    from it before the next member's, so no member's decisions are kept.
    """
    if not ensemble.members:
        raise EmptyEnsemble("cannot predict with an empty ensemble")
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
