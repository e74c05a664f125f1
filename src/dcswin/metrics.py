"""Classification metrics and multi-run aggregation.

AUC uses the Mann-Whitney rank statistic with average ranks for ties (a
tied positive/negative pair counts 1/2), macro-averaged one-vs-rest for
more than two classes. Balanced accuracy is the mean of per-class
recalls. F1 is reported for the designated positive class on binary
tasks and macro-averaged otherwise. Kappa is (p_o - p_e) / (1 - p_e).
"""
from __future__ import annotations

import csv
import json
import warnings
from dataclasses import dataclass
from pathlib import Path
from typing import Mapping, Optional, Sequence, Union

import numpy as np

from .errors import MetricUndefinedError, ShapeError

METRIC_NAMES = ("auc_roc", "balanced_accuracy", "f1", "cohens_kappa")


@dataclass
class ConfusionMatrix:
    """counts[i, j] = samples with true class i predicted as class j."""
    counts: np.ndarray
    class_names: Optional[tuple[str, ...]] = None

    def __post_init__(self):
        c = np.asarray(self.counts)
        if c.ndim != 2 or c.shape[0] != c.shape[1]:
            raise ShapeError(f"confusion matrix must be square, got {c.shape}")
        if np.any(c < 0):
            raise ShapeError("confusion matrix counts must be nonnegative")
        self.counts = c.astype(np.int64)
        if self.class_names is not None:
            self.class_names = tuple(self.class_names)
            if len(self.class_names) != c.shape[0]:
                raise ShapeError(f"{len(self.class_names)} names for "
                                 f"{c.shape[0]} classes")

    @property
    def num_classes(self) -> int:
        return self.counts.shape[0]

    @classmethod
    def from_predictions(cls, truth, pred, num_classes: int,
                         class_names: Optional[Sequence[str]] = None
                         ) -> "ConfusionMatrix":
        truth = np.asarray(truth, dtype=np.int64)
        pred = np.asarray(pred, dtype=np.int64)
        if truth.shape != pred.shape or truth.ndim != 1:
            raise ShapeError(f"truth {truth.shape} and pred {pred.shape} must "
                             "be equal-length vectors")
        if truth.size and (truth.min() < 0 or truth.max() >= num_classes
                           or pred.min() < 0 or pred.max() >= num_classes):
            raise IndexError(f"labels outside [0, {num_classes})")
        counts = np.zeros((num_classes, num_classes), dtype=np.int64)
        np.add.at(counts, (truth, pred), 1)
        return cls(counts, tuple(class_names) if class_names else None)

    def to_csv(self, path: Union[str, Path]) -> None:
        names = self.class_names or tuple(f"class{i}" for i
                                          in range(self.num_classes))
        with open(path, "w", newline="", encoding="utf-8") as f:
            writer = csv.writer(f)
            writer.writerow(["true\\pred", *names])
            for i, row in enumerate(self.counts):
                writer.writerow([names[i], *row.tolist()])


def _average_ranks(scores: np.ndarray) -> np.ndarray:
    """1-based ranks; tied values share the mean of their rank range."""
    order = np.argsort(scores, kind="mergesort")
    ranks = np.empty(scores.size, dtype=np.float64)
    sorted_scores = scores[order]
    i = 0
    while i < scores.size:
        j = i
        while j + 1 < scores.size and sorted_scores[j + 1] == sorted_scores[i]:
            j += 1
        ranks[order[i:j + 1]] = 0.5 * (i + j) + 1.0
        i = j + 1
    return ranks


def binary_auc(scores, positive_mask) -> float:
    """P(score_pos > score_neg) + P(==)/2 via the rank statistic."""
    scores = np.asarray(scores, dtype=np.float64)
    positive_mask = np.asarray(positive_mask, dtype=bool)
    if scores.shape != positive_mask.shape or scores.ndim != 1:
        raise ShapeError(f"scores {scores.shape} / mask {positive_mask.shape} "
                         "must be equal-length vectors")
    n_pos = int(positive_mask.sum())
    n_neg = int(scores.size - n_pos)
    if n_pos == 0 or n_neg == 0:
        raise MetricUndefinedError(f"AUC undefined with {n_pos} positives and "
                                   f"{n_neg} negatives")
    ranks = _average_ranks(scores)
    u = ranks[positive_mask].sum() - n_pos * (n_pos + 1) / 2.0
    return float(u / (n_pos * n_neg))


def auc_roc(truth, probs) -> float:
    """Binary: AUC of class-1 probabilities. Multiclass: macro one-vs-rest,
    skipping (with a warning) classes absent from the truth."""
    truth = np.asarray(truth, dtype=np.int64)
    probs = np.asarray(probs, dtype=np.float64)
    if probs.ndim == 1:
        return binary_auc(probs, truth == 1)
    if probs.ndim != 2 or probs.shape[0] != truth.shape[0]:
        raise ShapeError(f"probs {probs.shape} does not match {truth.shape[0]} "
                         "labels")
    c = probs.shape[1]
    if c == 2:
        return binary_auc(probs[:, 1], truth == 1)
    per_class = []
    for k in range(c):
        mask = truth == k
        n_pos = int(mask.sum())
        if n_pos == 0 or n_pos == truth.size:
            warnings.warn(f"class {k} has no {'positives' if n_pos == 0 else 'negatives'}; "
                          "skipped in macro AUC", stacklevel=2)
            continue
        per_class.append(binary_auc(probs[:, k], mask))
    if not per_class:
        raise MetricUndefinedError("macro AUC undefined: no class has both "
                                   "positives and negatives")
    return float(np.mean(per_class))


def balanced_accuracy(cm: ConfusionMatrix) -> float:
    """Mean per-class recall."""
    counts = cm.counts
    support = counts.sum(axis=1)
    if np.any(support == 0):
        empty = np.flatnonzero(support == 0).tolist()
        raise MetricUndefinedError(f"balanced accuracy undefined: classes "
                                   f"{empty} have no true samples")
    recalls = np.diag(counts) / support
    return float(recalls.mean())


def _per_class_f1(cm: ConfusionMatrix, k: int) -> float:
    counts = cm.counts
    tp = counts[k, k]
    denom = 2 * tp + (counts[:, k].sum() - tp) + (counts[k, :].sum() - tp)
    if denom == 0:
        warnings.warn(f"class {k} has no true or predicted samples; "
                      "F1 defined as 0", stacklevel=3)
        return 0.0
    return float(2 * tp / denom)


def f1(cm: ConfusionMatrix) -> float:
    """Binary: F1 of the positive class, class 1. Multiclass: macro mean of
    per-class F1."""
    if cm.num_classes == 2:
        return _per_class_f1(cm, 1)
    return float(np.mean([_per_class_f1(cm, k) for k in range(cm.num_classes)]))


def cohens_kappa(cm: ConfusionMatrix) -> float:
    """(p_o - p_e) / (1 - p_e) with marginal-product expected agreement."""
    counts = cm.counts.astype(np.float64)
    total = counts.sum()
    if total == 0:
        raise MetricUndefinedError("kappa undefined on an empty matrix")
    p_o = np.trace(counts) / total
    p_e = float((counts.sum(axis=1) * counts.sum(axis=0)).sum()) / (total * total)
    if p_e == 1.0:
        raise MetricUndefinedError("kappa undefined: expected agreement is 1")
    return float((p_o - p_e) / (1.0 - p_e))


def evaluate_predictions(truth, probs, num_classes: int,
                         class_names: Optional[Sequence[str]] = None
                         ) -> tuple[dict[str, float], ConfusionMatrix]:
    """All four metrics plus the confusion matrix for one run."""
    truth = np.asarray(truth, dtype=np.int64)
    probs = np.asarray(probs, dtype=np.float64)
    pred = probs.argmax(axis=1)
    cm = ConfusionMatrix.from_predictions(truth, pred, num_classes, class_names)
    values = {
        "auc_roc": auc_roc(truth, probs),
        "balanced_accuracy": balanced_accuracy(cm),
        "f1": f1(cm),
        "cohens_kappa": cohens_kappa(cm),
    }
    return values, cm


@dataclass
class MetricsReport:
    """Per-run metric values plus mean / sample-std aggregates."""
    seeds: tuple[int, ...]
    runs: tuple[dict[str, float], ...]
    aggregate: dict[str, dict[str, Optional[float]]]

    def to_json(self) -> str:
        payload = {
            "seeds": list(self.seeds),
            "runs": [dict(r) for r in self.runs],
            "aggregate": {k: dict(v) for k, v in self.aggregate.items()},
        }
        return json.dumps(payload, indent=2, sort_keys=True)

    def save(self, path: Union[str, Path]) -> None:
        Path(path).write_text(self.to_json() + "\n", encoding="utf-8")

    def render(self) -> str:
        lines = []
        for name in METRIC_NAMES:
            agg = self.aggregate[name]
            lines.append(f"{name:>18}: {format_aggregate(agg['mean'], agg['std'])}")
        return "\n".join(lines)


def format_aggregate(mean: float, std: Optional[float]) -> str:
    if std is None:
        return f"{mean:.4f}"
    return f"{mean:.4f} ± {std:.4f}"


def aggregate_runs(runs: Sequence[Mapping[str, float]],
                   seeds: Sequence[int]) -> MetricsReport:
    """Mean and sample standard deviation (n-1) across runs; std is omitted
    for a single run."""
    if not runs:
        raise MetricUndefinedError("no runs to aggregate")
    if len(runs) != len(seeds):
        raise ShapeError(f"{len(runs)} runs but {len(seeds)} seeds")
    agg: dict[str, dict[str, Optional[float]]] = {}
    for name in METRIC_NAMES:
        vals = np.array([float(r[name]) for r in runs])
        agg[name] = {
            "mean": float(vals.mean()),
            "std": float(vals.std(ddof=1)) if vals.size > 1 else None,
        }
    return MetricsReport(seeds=tuple(int(s) for s in seeds),
                         runs=tuple({k: float(r[k]) for k in METRIC_NAMES}
                                    for r in runs),
                         aggregate=agg)


def write_predictions_jsonl(path: Union[str, Path], ids: Sequence[str],
                            truth, probs) -> None:
    """One JSON object per line: {"id", "truth", "probs"}."""
    truth = np.asarray(truth)
    probs = np.asarray(probs)
    with open(path, "w", encoding="utf-8") as f:
        for i, sample_id in enumerate(ids):
            rec = {"id": str(sample_id), "truth": int(truth[i]),
                   "probs": [float(p) for p in probs[i]]}
            f.write(json.dumps(rec) + "\n")
