"""RBF-kernel SVM trained with sequential minimal optimization.

Each SMO step updates the maximal-violating pair of dual variables, the
second chosen by second-order gain, and computes kernel rows on demand, the
last KERNEL_ROWS kept, so training holds no kernel matrix.

The kernel width heuristic and the weighted-resampling adapter live here too;
boosting engines that need a weight-aware learner materialize the weights by
sampling and train these SVMs unweighted.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from . import data as data_module
from .data import Dataset, _fill_sq_dists, is_integer, nearest_sq_dists, row_sq_dists
from .errors import AllZeroWeights, DegenerateData, SingleClassInput
from .rng import RngStream

SMO_TOLERANCE = 1e-3  # see train_svm's stopping rule
KERNEL_ROWS = 6  # kernel rows an SMO fit keeps; 2 at least, so row j never evicts row i
_EINSUM_ROW = 8192  # longest row einsum sums alike alone and beside other rows


@dataclass(frozen=True)
class LearnerConfig:
    c_penalty: float = 1.0
    max_passes: int | None = None  # a pass is n pair updates; None -> 10 * n_train

    def __post_init__(self):
        c = self.c_penalty
        if isinstance(c, bool) or not (isinstance(c, numbers.Real) and 0 < c < math.inf):
            raise ValueError(f"c_penalty must be finite and positive, not {c!r}")
        if self.max_passes is not None and not (
            is_integer(self.max_passes) and self.max_passes > 0
        ):
            raise ValueError(
                f"max_passes must be a positive integer, not {self.max_passes!r}"
            )


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
        """Decision values for one row or a matrix of rows.

        Rows are scored m = data._BLOCK // n_sv at a time (at least one),
        and one at a time above 8192 support vectors, where einsum sums a
        row one way alone and another beside other rows. Each block of
        distances is filled support-vector-major, shape (n_sv, m) with the
        probe rows innermost, by data._fill_sq_dists, so that its
        differences run unbuffered even when the support vectors are few.
        It is turned into kernel entries in place, and its transpose copied
        into a second buffer that is reduced row by row against the
        coefficients by einsum, which uses no BLAS. A score's bytes thus
        depend on its row alone, not on the block size, the layout, the
        thread count or the caller's buffer size. The call holds the two
        blocks and a contiguous copy of the probe's columns.
        """
        probe = np.atleast_2d(np.asarray(x, dtype=np.float64))
        if probe.shape[1] != self.support_vectors.shape[1]:
            raise ValueError(
                f"probe has {probe.shape[1]} features, model expects "
                f"{self.support_vectors.shape[1]}"
            )
        sv = self.support_vectors
        n, n_sv = probe.shape[0], sv.shape[0]
        rows = 1 if n_sv > _EINSUM_ROW else max(1, data_module._BLOCK // n_sv)
        scores = np.empty(n)
        neg_width = -(2.0 * self.kappa * self.kappa)
        columns = np.ascontiguousarray(probe.T)
        dist, kernel = np.empty((2, min(rows, n) * n_sv))
        for start in range(0, n, rows):
            part = columns[:, start : start + rows]
            size = part.shape[1] * n_sv
            d = dist[:size].reshape(n_sv, -1)
            k = kernel[:size].reshape(-1, n_sv)
            _fill_sq_dists(sv, part, d, kernel[:size].reshape(d.shape))  # kernel as scratch
            np.divide(d, neg_width, out=d)  # exp(-d / (2 kappa^2)), in place
            np.exp(d, out=d)
            np.copyto(k, d.T)
            scores[start : start + k.shape[0]] = np.einsum("ij,j->i", k, self.dual_coefficients)
        scores += self.bias
        return scores

    def to_record(self) -> dict:
        """JSON-serializable snapshot of the model."""
        return {
            "support_vectors": self.support_vectors.tolist(),
            "dual_coefficients": self.dual_coefficients.tolist(),
            "bias": self.bias,
            "kappa": self.kappa,
            "converged": self.converged,
        }


def rbf_kappa_heuristic(features) -> float:
    """Kernel width: mean nearest-neighbour distance averaged with the
    scatter radius (largest distance from any sample to the sample mean).

    The nearest-neighbour distances come from data.nearest_sq_dists: up to
    1024 rows all n^2 pairs, above that a sorted strip that leaves out the
    pairs that cannot be nearest. Either way the distances come in blocks
    of at most 2^15 elements (256 KB) in one reused buffer, never an n x n
    matrix. The radius takes every row's distance to the mean from
    data.row_sq_dists, in two arrays of length n.
    Non-finite features raise DegenerateData, as does a width of zero or one
    that overflows to inf (features near 1e200, whose squares overflow).
    """
    x = np.atleast_2d(np.asarray(features, dtype=np.float64))
    n = x.shape[0]
    if n < 2:
        raise DegenerateData("need at least two rows")
    if not np.isfinite(x).all():
        raise DegenerateData("features must be finite")
    with np.errstate(over="ignore"):  # an inf width is raised just below
        mean_min = float(np.sqrt(nearest_sq_dists(x)).mean())
        scatter = np.empty(n)
        row_sq_dists(x.T, x.mean(axis=0), scatter, np.empty(n))
        radius = float(np.sqrt(scatter.max()))
    kappa = (mean_min + radius) / 2.0
    if kappa <= 0.0:
        raise DegenerateData("all rows identical; kernel width would be zero")
    if not math.isfinite(kappa):
        raise DegenerateData("kernel width overflows; rescale the features")
    return kappa


def train_svm(features, labels, cfg: LearnerConfig, kappa: float) -> SvmModel:
    """Solve the soft-margin RBF dual with maximal-violating-pair SMO.

    Keeps the gradient g = y - sum_s alpha_s y_s K(x_s, .) up to date. Each
    step takes i, the row with the largest g among those whose alpha can move
    with y_i, and j, the row with the largest second-order gain among those
    whose alpha can move against y_j (Fan, Chen & Lin, JMLR 6, 2005), and
    solves the two-variable problem exactly. It stops once those two g differ
    by less than 2 * SMO_TOLERANCE. Kernel rows are computed on demand, the
    last KERNEL_ROWS kept (least recently used evicted first; a kept row has
    the bytes it would be computed with), so a fit holds only arrays of
    length n: a fixed set of buffers made once and filled in place, those
    kernel rows, and the bound status of every row, set from alpha = 0 and
    updated at rows i and j only. If the budget of max_passes * n steps
    runs out first the solution so far is returned with converged=False; the
    boosting loss gate decides its fate.

    The end state reads that same bound status, with no tolerance of its
    own. The bias is the mean g over the free rows (0 < alpha < C), or, with
    no free row, the midpoint between the largest g of the rows that can
    move with y and the least g of those that can move against it (as in
    LIBSVM). After a converged fit every row then meets its KKT condition
    within 2 * SMO_TOLERANCE. The support vectors are the rows with
    alpha > 0.

    Raises ValueError when rows and labels differ in number, for a label
    other than -1 or +1 or a kappa that is not finite and positive,
    DegenerateData for a non-finite feature and SingleClassInput for a
    single class.
    """
    x = np.atleast_2d(np.asarray(features, dtype=np.float64))
    y = np.asarray(labels)  # no float copy: y * t is +-t, alpha * y is +-alpha
    n = x.shape[0]
    if y.shape != (n,):
        raise ValueError(f"{n} feature rows vs labels of shape {y.shape}")
    if not (np.abs(y) == 1.0).all():
        raise ValueError("labels must be -1 or +1")
    if not np.isfinite(x).all():
        raise DegenerateData("features must be finite")
    if not (np.isfinite(kappa) and kappa > 0):
        raise ValueError(f"kappa must be finite and positive, got {kappa}")
    if np.all(y == 1) or np.all(y == -1):
        raise SingleClassInput("training set has a single class")

    c = cfg.c_penalty
    tol = SMO_TOLERANCE
    max_passes = cfg.max_passes if cfg.max_passes is not None else 10 * n
    columns = np.ascontiguousarray(x.T)
    neg_width = -(2.0 * kappa * kappa)
    b, s, a, tmp = (np.empty(n) for _ in range(4))
    cache = np.empty((min(KERNEL_ROWS, n), n))
    slots: dict[int, int] = {}  # row index -> cache row, least recently used first

    def krow(i: int) -> np.ndarray:
        # K(x, x_i) = exp(-||x - x_i||^2 / (2 kappa^2)), kept while recent
        if i in slots:
            slots[i] = slots.pop(i)
            return cache[slots[i]]
        slot = len(slots) if len(slots) < len(cache) else slots.pop(next(iter(slots)))
        slots[i] = slot
        out = cache[slot]
        row_sq_dists(columns, x[i], out, tmp)
        np.divide(out, neg_width, out=out)
        np.exp(out, out=out)
        return out

    pos = y > 0
    alpha = np.zeros(n)
    g = y.astype(np.float64)
    # alpha_i += y_i * t and alpha_j -= y_j * t keep sum(alpha * y); `up`
    # rows have room for the first move, `low` rows for the second. Each
    # penalty is 0 on its rows and -inf elsewhere, so adding it to g or b
    # (finite, as the features, C and kappa are) masks the other rows out of
    # a max.
    up = np.where(np.where(pos, alpha < c, alpha > 0.0), 0.0, -np.inf)
    low = np.where(np.where(pos, alpha > 0.0, alpha < c), 0.0, -np.inf)
    converged = False
    for _ in range(max_passes * n):
        np.add(g, up, out=s)
        i = int(np.argmax(s))
        np.subtract(g[i], g, out=b)
        np.add(b, low, out=s)
        if s.max() < 2.0 * tol:
            converged = True
            break
        k_i = krow(i)
        np.multiply(k_i, 2.0, out=a)
        np.subtract(2.0, a, out=a)
        np.maximum(a, 1e-12, out=a)  # K(x, x) = 1
        # The gain b^2 / a on `low` rows with b > 0, -inf elsewhere: s * |s| / a
        # is -inf off `low` (s = -inf there) and b * b / a where b > 0. `low`
        # rows with b <= 0 get a value <= 0 instead of -inf, but some `low` row
        # has b >= 2 * tol > 0 here, so they never reach the max: same argmax.
        np.abs(s, out=tmp)
        np.multiply(s, tmp, out=s)
        np.divide(s, a, out=s)
        j = int(np.argmax(s))  # not i, whose b is 0: fetching j keeps row i
        room_i = c - alpha[i] if pos[i] else alpha[i]
        room_j = alpha[j] if pos[j] else c - alpha[j]
        t = min(b[j] / a[j], room_i, room_j)
        alpha[i] = alpha[i] + y[i] * t if t < room_i else (c if pos[i] else 0.0)
        alpha[j] = alpha[j] - y[j] * t if t < room_j else (0.0 if pos[j] else c)
        for r in (i, j):
            rise, fall = alpha[r] < c, alpha[r] > 0.0
            up[r] = 0.0 if (rise if pos[r] else fall) else -np.inf
            low[r] = 0.0 if (fall if pos[r] else rise) else -np.inf
        np.subtract(k_i, krow(j), out=tmp)
        np.multiply(tmp, t, out=tmp)
        np.subtract(g, tmp, out=g)
    del cache, k_i  # every fit takes a step; its kernel rows end with the loop

    # The bias from the loop's own bound status: the mean g over free rows
    # (0 < alpha < C, in both `up` and `low`), else the midpoint of the
    # interval between the `up` rows' largest g and the `low` rows' least,
    # neither set empty while sum(alpha * y) = 0 and both classes are present.
    free = (up == 0.0) & (low == 0.0)
    if free.any():
        bias = float(g[free].mean())
    else:
        bias = (float((g + up).max()) + float((g - low).min())) / 2.0

    sv = alpha > 0.0  # never empty: the first step makes two alpha positive
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
    gen = rng.generator()
    idx = gen.choice(data.m, size=n, replace=True, p=w / total)
    return data.select(idx)
