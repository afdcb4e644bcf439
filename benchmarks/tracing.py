"""Per-layer tracing from outside the package.

The package binds its collaborators by name (`from .svm import train_svm`),
so a wrapper has to replace the name in the namespace of the module that
calls it; `SvmModel.decision_function` is replaced on the class. Each
wrapper records a span (name, start, end, parent) and the facts the layer
metrics need, in memory only. Wrappers never touch an `RngStream`, so a
traced run draws exactly the random numbers an untraced run draws.
"""

from __future__ import annotations

import functools
import hashlib
import math
import statistics
import time
from collections import Counter

import numpy as np

from pboost import boosting, experiment, metrics, sampling
from pboost.svm import SvmModel

LAYERS = ("svm", "sampling", "boosting", "metrics", "data", "experiment")

# (owner, attribute, span name); the owner is the namespace the caller reads.
SPANNED = (
    (boosting, "train_svm", "svm.fit"),
    (boosting, "rbf_kappa_heuristic", "svm.kappa"),
    (SvmModel, "decision_function", "svm.decision"),
    (boosting, "weighted_resample", "sampling.subset"),
    (boosting, "smote", "sampling.subset"),
    (boosting, "random_balance", "sampling.subset"),
    (boosting, "weighted_draw_without_replacement", "sampling.subset"),
    (experiment, "partition_ruswr", "sampling.partition"),
    (experiment, "partition_cus", "sampling.partition"),
    (experiment, "partition_apriori", "sampling.partition"),
    (sampling, "partition_ruswr", "sampling.partition"),
    (sampling, "kmeans", "sampling.kmeans"),
    (sampling, "dunn_index", "sampling.dunn"),
    (experiment, "run_boosting", "boosting.engine"),
    (experiment, "pboost", "boosting.engine"),
    (boosting, "run_boosting", "boosting.engine"),
    (boosting, "pboost", "boosting.engine"),
    (boosting, "update_weights", "boosting.weight_update"),
    (experiment, "predict_scores", "boosting.predict"),
    (experiment, "predict_majority_labels", "boosting.predict"),
    (experiment, "select_threshold_max_fbeta", "metrics.threshold"),
    (experiment, "pr_curve_and_aupr", "metrics.pr"),
    (experiment, "subsample_to_skew", "data.subsample"),
    (experiment, "run_experiment", "experiment.run"),
    (experiment, "synthetic_replications", "experiment.replications"),
    (experiment, "run_replication_variant", "experiment.cell"),
    (experiment, "evaluate_ensemble", "experiment.evaluate"),
)

# Called once per threshold candidate: counted, not spanned, to keep the
# tracing overhead off the threshold loop.
COUNTED = (
    (metrics, "weighted_confusion", "metrics.confusion_calls"),
    (experiment, "weighted_confusion", "metrics.confusion_calls"),
    (boosting, "weighted_confusion", "metrics.confusion_calls"),
)

TAIL_MIN_BEYOND = 10
_TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)


class Tracer:
    """Spans and counts of one unit of work, kept in memory."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index]
        self.attrs: dict[int, dict] = {}
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._patches: list[tuple] = []

    def __enter__(self):
        for owner, attr, name in SPANNED:
            self._patch(owner, attr, self._spanning(owner.__dict__[attr], name))
        for owner, attr, name in COUNTED:
            self._patch(owner, attr, self._counting(owner.__dict__[attr], name))
        return self

    def __exit__(self, *exc):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()
        return False

    def _patch(self, owner, attr, wrapper):
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, wrapper)

    def _counting(self, original, name):
        counts = self.counts

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return original(*args, **kwargs)

        return wrapper

    def _spanning(self, original, name):
        observe = _OBSERVERS.get(name)

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            idx = len(self.spans)
            parent = self._stack[-1] if self._stack else -1
            self.spans.append([name, time.thread_time(), None, parent])
            self._stack.append(idx)
            try:
                result = original(*args, **kwargs)
            finally:
                self.spans[idx][2] = time.thread_time()
                self._stack.pop()
            if observe is not None:
                self.attrs[idx] = observe(self, parent, args, result)
            return result

        return wrapper

    def records(self) -> list[dict]:
        """Spans as JSON-ready records, times relative to the first span."""
        t0 = self.spans[0][1] if self.spans else 0.0
        return [
            {"name": n, "start": s - t0, "end": e - t0, "parent": p, **self.attrs.get(i, {})}
            for i, (n, s, e, p) in enumerate(self.spans)
        ]

    def layer_metrics(self) -> dict[str, float]:
        """Per-layer metrics of the traced unit (names as in BENCHMARK.json)."""
        dur = [e - s for _, s, e, _ in self.spans]
        child = [0.0] * len(self.spans)
        for i, (_, _, _, parent) in enumerate(self.spans):
            if parent >= 0:
                child[parent] += dur[i]
        by_name: dict[str, list[int]] = {}
        for i, span in enumerate(self.spans):
            by_name.setdefault(span[0], []).append(i)

        def ids(name):
            return by_name.get(name, [])

        def total(name):
            return sum(dur[i] for i in ids(name))

        def attr_list(name, key):
            return [self.attrs[i][key] for i in ids(name)]

        out: dict[str, float] = {}
        fits = ids("svm.fit")
        rows = attr_list("svm.fit", "rows")
        out["svm.fit_s"] = total("svm.fit")
        out["svm.fits"] = len(fits)
        out.update(_distribution("svm.fit_s", [dur[i] for i in fits]))
        out["svm.fit_rows_sq"] = sum(n * n for n in rows)
        out["svm.fit_rows.max"] = max(rows, default=0)
        out["svm.unconverged_ratio"] = _ratio(
            sum(not c for c in attr_list("svm.fit", "converged")), len(fits)
        )
        out["svm.sv_ratio"] = _ratio(sum(attr_list("svm.fit", "n_sv")), sum(rows))
        out["svm.kappa_s"] = total("svm.kappa")
        out["svm.kappa_calls"] = len(ids("svm.kappa"))
        out["svm.kappa_bytes.max"] = max(attr_list("svm.kappa", "bytes"), default=0)
        out["svm.decision_s"] = total("svm.decision")
        out["svm.decision_calls"] = len(ids("svm.decision"))
        out["svm.kernel_evals"] = sum(attr_list("svm.decision", "kernel_evals"))

        out["sampling.partition_s"] = total("sampling.partition")
        out["sampling.kmeans_s"] = total("sampling.kmeans")
        out["sampling.kmeans_calls"] = len(ids("sampling.kmeans"))
        out["sampling.dunn_s"] = total("sampling.dunn")
        out["sampling.dunn_calls"] = len(ids("sampling.dunn"))
        out["sampling.dunn_bytes.max"] = max(attr_list("sampling.dunn", "bytes"), default=0)
        out["sampling.subset_s"] = total("sampling.subset")

        engines = ids("boosting.engine")
        attempts = sum(attr_list("boosting.engine", "attempts"))
        out["boosting.engine_s"] = total("boosting.engine")
        out["boosting.engine_self_s"] = sum(dur[i] - child[i] for i in engines)
        out["boosting.attempts"] = attempts
        out["boosting.accept_ratio"] = _ratio(
            sum(attr_list("boosting.engine", "accepted")), attempts
        )
        out["boosting.forced"] = sum(attr_list("boosting.engine", "forced"))
        engine_set = set(engines)
        out["boosting.member_val_s"] = sum(
            dur[i] for i in ids("svm.decision") if self.spans[i][3] in engine_set
        )
        out["boosting.weight_update_s"] = total("boosting.weight_update")
        out["boosting.predict_s"] = total("boosting.predict")
        eval_keys = [
            self.attrs[i]["key"]
            for i in ids("svm.decision")
            if self.attrs[i]["key"] is not None
        ]
        out["boosting.decision_reuse_ratio"] = _ratio(len(set(eval_keys)), len(eval_keys))

        out["metrics.threshold_s"] = total("metrics.threshold")
        out["metrics.confusion_calls"] = self.counts["metrics.confusion_calls"]
        out["metrics.pr_s"] = total("metrics.pr")
        out["data.subsample_s"] = total("data.subsample")

        cells = ids("experiment.cell")
        out["experiment.cells"] = len(cells)
        out.update(_distribution("experiment.cell_s", [dur[i] for i in cells]))
        out["experiment.write_s"] = sum(dur[i] - child[i] for i in ids("experiment.run"))
        out["experiment.replications_s"] = total("experiment.replications")

        for layer in LAYERS:
            out[f"{layer}.self_s"] = sum(
                dur[i] - child[i]
                for i, span in enumerate(self.spans)
                if span[0].split(".", 1)[0] == layer
            )
        out["trace.spans"] = len(self.spans)
        return out


def _ratio(num, den) -> float:
    return num / den if den else 0.0


def tail(values) -> tuple[float, float]:
    """(value, percentile) of the highest percentile with at least
    TAIL_MIN_BEYOND samples above it; the maximum (100) when there are
    too few samples for any."""
    xs = sorted(values)
    n = len(xs)
    for pct in _TAIL_LADDER:
        rank = math.ceil(pct / 100.0 * n)
        if rank >= 1 and n - rank >= TAIL_MIN_BEYOND:
            return xs[rank - 1], pct
    return (xs[-1] if xs else 0.0), 100.0


def _distribution(name: str, values) -> dict[str, float]:
    value, pct = tail(values)
    return {
        f"{name}.p50": statistics.median(values) if values else 0.0,
        f"{name}.tail": value,
        f"{name}.tail_pct": pct,
    }


def _observe_fit(tracer, parent, args, model):
    return {
        "rows": int(np.atleast_2d(args[0]).shape[0]),
        "converged": bool(model.converged),
        "n_sv": model.n_sv,
    }


def _observe_square_bytes(tracer, parent, args, result):
    n = int(np.atleast_2d(args[0]).shape[0])
    return {"bytes": 8 * n * n}


def _observe_decision(tracer, parent, args, result):
    model, x = args[0], np.atleast_2d(np.asarray(args[1], dtype=np.float64))
    key = None
    if parent >= 0 and tracer.spans[parent][0] == "boosting.predict":
        # one key per (member, probe row set): repeated keys are reusable work
        key = (id(model), hashlib.blake2b(np.ascontiguousarray(x).tobytes()).hexdigest())
    return {"kernel_evals": int(x.shape[0]) * model.n_sv, "key": key}


def _observe_engine(tracer, parent, args, ensemble):
    logs = ensemble.logs
    return {
        "attempts": len(logs),
        "accepted": sum(log.accepted for log in logs),
        "forced": sum(log.forced for log in logs),
    }


_OBSERVERS = {
    "svm.fit": _observe_fit,
    "svm.kappa": _observe_square_bytes,
    "sampling.dunn": _observe_square_bytes,
    "svm.decision": _observe_decision,
    "boosting.engine": _observe_engine,
}
