"""RBF-kernel SVM trained with sequential minimal optimization.

The kernel width heuristic and the weighted-resampling adapter live here too;
boosting engines that need a weight-aware learner materialize the weights by
sampling and train these SVMs unweighted.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import Dataset, sq_dists
from .errors import (
    AllZeroWeights,
    DegenerateData,
    DimensionMismatch,
    SingleClassInput,
)
from .rng import RngStream

_SV_EPS = 1e-8
_KERNEL_CACHE_LIMIT = 5500  # precompute the full Gram matrix below this size
_FALLBACK_SCAN_LIMIT = 128  # second-choice candidates tried per violator


@dataclass(frozen=True)
class LearnerConfig:
    c_penalty: float = 1.0
    smo_tolerance: float = 1e-3
    max_passes: int | None = None  # None -> 10 * n_train

    def __post_init__(self):
        if self.c_penalty <= 0 or self.smo_tolerance <= 0:
            raise ValueError("penalty and tolerance must be positive")
        if self.max_passes is not None and self.max_passes <= 0:
            raise ValueError("max_passes must be positive")


@dataclass(frozen=True)
class SvmModel:
    """Trained RBF SVM: decision(x) = sum_j coef_j K(x, sv_j) + bias."""

    support_vectors: np.ndarray
    dual_coefficients: np.ndarray  # alpha_j * y_j
    bias: float
    kappa: float
    converged: bool = True

    @property
    def n_sv(self) -> int:
        return int(self.support_vectors.shape[0])

    def decision_function(self, x) -> np.ndarray:
        """Decision values for one row or a matrix of rows."""
        probe = np.atleast_2d(np.asarray(x, dtype=np.float64))
        if probe.shape[1] != self.support_vectors.shape[1]:
            raise DimensionMismatch(
                f"probe has {probe.shape[1]} features, model expects "
                f"{self.support_vectors.shape[1]}"
            )
        k = rbf_kernel(probe, self.support_vectors, self.kappa)
        return k @ self.dual_coefficients + self.bias

    def to_record(self) -> dict:
        """JSON-serializable snapshot of the model."""
        return {
            "support_vectors": self.support_vectors.tolist(),
            "dual_coefficients": self.dual_coefficients.tolist(),
            "bias": self.bias,
            "kappa": self.kappa,
            "converged": self.converged,
        }


def model_from_record(record: dict) -> SvmModel:
    return SvmModel(
        support_vectors=np.asarray(record["support_vectors"], dtype=np.float64),
        dual_coefficients=np.asarray(record["dual_coefficients"], dtype=np.float64),
        bias=float(record["bias"]),
        kappa=float(record["kappa"]),
        converged=bool(record.get("converged", True)),
    )


def rbf_kernel(a: np.ndarray, b: np.ndarray, kappa: float) -> np.ndarray:
    """exp(-||a_i - b_j||^2 / (2 kappa^2)) for all pairs."""
    return np.exp(-sq_dists(a, b) / (2.0 * kappa * kappa))


def rbf_kappa_heuristic(features) -> float:
    """Kernel width: mean nearest-neighbour distance averaged with the
    scatter radius (largest distance from any sample to the sample mean)."""
    x = np.atleast_2d(np.asarray(features, dtype=np.float64))
    n = x.shape[0]
    if n < 2:
        raise DegenerateData("need at least two rows")
    sq = sq_dists(x, x)
    np.fill_diagonal(sq, np.inf)
    mean_min = float(np.sqrt(sq.min(axis=1)).mean())
    center = x.mean(axis=0)
    radius = float(np.sqrt(((x - center) ** 2).sum(axis=1).max()))
    kappa = (mean_min + radius) / 2.0
    if kappa <= 0.0:
        raise DegenerateData("all rows identical; kernel width would be zero")
    return kappa


def train_svm(
    features,
    labels,
    cfg: LearnerConfig,
    kappa: float,
    rng: RngStream,
) -> SvmModel:
    """Solve the soft-margin RBF dual with simplified SMO.

    Stops early once a full sweep finds no KKT violations beyond the
    tolerance. If the pass budget runs out first the best-so-far solution is
    returned with converged=False; the boosting loss gate decides its fate.
    """
    x = np.atleast_2d(np.asarray(features, dtype=np.float64))
    y = np.asarray(labels, dtype=np.float64)
    n = x.shape[0]
    if kappa <= 0:
        raise ValueError("kappa must be positive")
    if np.all(y == 1) or np.all(y == -1):
        raise SingleClassInput("training set has a single class")

    c = cfg.c_penalty
    tol = cfg.smo_tolerance
    max_passes = cfg.max_passes if cfg.max_passes is not None else 10 * n
    gen = rng.generator()

    cache = None
    if n <= _KERNEL_CACHE_LIMIT:
        cache = rbf_kernel(x, x, kappa)

    sq_norms = np.sum(x * x, axis=1)

    def krow(i: int) -> np.ndarray:
        if cache is not None:
            return cache[i]
        d = sq_norms + sq_norms[i] - 2.0 * (x @ x[i])
        np.maximum(d, 0.0, out=d)
        return np.exp(-d / (2.0 * kappa * kappa))

    # Without the Gram cache every row costs a pass over x, so a row is
    # computed only when it is used: k_i once per violator, reused across its
    # whole second-choice scan; K(x_j, x_j) once per j, memoised from krow(j)
    # (a GEMV element need not equal a separate dot product); the full k_j
    # only once a step commits. NaN marks a diagonal entry not yet known.
    diag = cache.diagonal().copy() if cache is not None else np.full(n, np.nan)

    alpha = np.zeros(n)
    bias = 0.0
    f = np.zeros(n)  # current decision values including bias
    converged = False

    def take_step(i: int, j: int, k_i: np.ndarray) -> bool:
        nonlocal bias, f
        if i == j:
            return False
        e_i = f[i] - y[i]
        e_j = f[j] - y[j]
        if y[i] != y[j]:
            lo = max(0.0, alpha[j] - alpha[i])
            hi = min(c, c + alpha[j] - alpha[i])
        else:
            lo = max(0.0, alpha[i] + alpha[j] - c)
            hi = min(c, alpha[i] + alpha[j])
        if lo >= hi:
            return False
        k_jj = diag[j]
        if k_jj != k_jj:
            k_jj = diag[j] = krow(j)[j]
        eta = 2.0 * k_i[j] - k_i[i] - k_jj
        if eta >= 0:
            return False
        a_j = alpha[j] - y[j] * (e_i - e_j) / eta
        a_j = min(hi, max(lo, a_j))
        if abs(a_j - alpha[j]) < 1e-12:
            return False
        a_i = alpha[i] + y[i] * y[j] * (alpha[j] - a_j)
        k_j = krow(j)

        d_i = y[i] * (a_i - alpha[i])
        d_j = y[j] * (a_j - alpha[j])
        b1 = bias - e_i - d_i * k_i[i] - d_j * k_i[j]
        b2 = bias - e_j - d_i * k_i[j] - d_j * k_jj
        if 0.0 < a_i < c:
            new_bias = b1
        elif 0.0 < a_j < c:
            new_bias = b2
        else:
            new_bias = (b1 + b2) / 2.0
        f += d_i * k_i + d_j * k_j + (new_bias - bias)
        bias = new_bias
        alpha[i], alpha[j] = a_i, a_j
        return True

    for _ in range(max_passes):
        changed = 0
        for i in range(n):
            r_i = y[i] * (f[i] - y[i])
            if not ((r_i < -tol and alpha[i] < c) or (r_i > tol and alpha[i] > 0)):
                continue
            # second choice: largest |E_i - E_j| first, then scan from a
            # random offset until some pair makes progress (bounded scan;
            # small problems are still searched exhaustively)
            k_i = krow(i)
            j = int(np.argmax(np.abs((f - y) - (f[i] - y[i]))))
            if take_step(i, j, k_i):
                changed += 1
                continue
            offset = int(gen.integers(n))
            for shift in range(min(n, _FALLBACK_SCAN_LIMIT)):
                j = (offset + shift) % n
                if take_step(i, j, k_i):
                    changed += 1
                    break
        if changed == 0:
            converged = True
            break

    # The incremental bias steers the KKT checks; the reported bias is
    # recomputed so models at a box-constrained optimum (no margin vectors,
    # where the dual leaves b underdetermined) get a canonical value:
    # mean over margin vectors, else the midpoint of the KKT interval.
    raw = f - bias
    g = y - raw
    margin = (alpha > _SV_EPS) & (alpha < c - _SV_EPS)
    if margin.any():
        bias = float(g[margin].mean())
    else:
        lower = ((alpha <= _SV_EPS) & (y == 1)) | ((alpha >= c - _SV_EPS) & (y == -1))
        upper = ((alpha <= _SV_EPS) & (y == -1)) | ((alpha >= c - _SV_EPS) & (y == 1))
        b_lo = float(g[lower].max()) if lower.any() else float(g.min())
        b_hi = float(g[upper].min()) if upper.any() else float(g.max())
        bias = (b_lo + b_hi) / 2.0

    sv = alpha > _SV_EPS
    if not sv.any():
        sv = alpha >= 0  # degenerate: keep everything, decision is the bias
    coef = (alpha * y)[sv]
    model = SvmModel(
        support_vectors=x[sv].copy(),
        dual_coefficients=coef,
        bias=bias,
        kappa=kappa,
        converged=converged,
    )
    return model


def weighted_resample(data: Dataset, weights, n: int, rng: RngStream) -> Dataset:
    """Draw n rows with replacement, row i with probability weights[i]."""
    w = np.asarray(weights, dtype=np.float64)
    total = w.sum()
    if total <= 0:
        raise AllZeroWeights("resampling needs positive total weight")
    if n == 0:
        return data.select(np.empty(0, dtype=np.int64))
    gen = rng.generator()
    idx = gen.choice(data.m, size=n, replace=True, p=w / total)
    return data.select(idx)
