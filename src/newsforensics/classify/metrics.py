"""Binary classification metrics with class-weighted aggregation.

The fake class is positive, and a score at or above DECISION_THRESHOLD
is labelled fake.  Per-class TP rate equals that class's recall;
aggregate values are support-weighted means of the per-class values.
AUC uses mid-ranks for tied scores, equivalent to trapezoidal
integration of the ROC curve.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

POSITIVE_LABEL = 1  # fake
NEGATIVE_LABEL = 0  # real
DECISION_THRESHOLD = 0.5


@dataclass(frozen=True)
class ClassMetrics:
    tp_rate: float
    fp_rate: float
    precision: float
    recall: float
    f1: float
    support: int


@dataclass
class MetricsReport:
    tp_rate: float
    fp_rate: float
    precision: float
    recall: float
    f1: float
    auc: float | None
    weighted_auc: float | None
    per_class: dict[str, ClassMetrics]
    confusion: dict[str, int]  # tp / fp / tn / fn at the threshold
    n: int
    folds: list["MetricsReport"] = field(default_factory=list)

    def to_dict(self) -> dict:
        out = {**vars(self), "per_class": {k: vars(v) for k, v in self.per_class.items()},
               "folds": [f.to_dict() for f in self.folds]}
        if not self.folds:
            del out["folds"]
        return out


def _safe_div(num: float, den: float) -> float:
    return num / den if den else 0.0


def _class_metrics(tp: int, fp: int, fn: int, tn: int) -> ClassMetrics:
    """Metrics of the class whose members are the tp + fn rows."""
    recall = _safe_div(tp, tp + fn)
    precision = _safe_div(tp, tp + fp)
    return ClassMetrics(tp_rate=recall, fp_rate=_safe_div(fp, fp + tn), precision=precision,
                        recall=recall, f1=_safe_div(2 * precision * recall, precision + recall),
                        support=tp + fn)


def auc_score(scores, labels) -> float:
    """Probability a positive outranks a negative, ties counted half.

    Computed from mid-ranks of the scores (Mann-Whitney statistic),
    which equals the area under the ROC curve with trapezoidal tie
    handling.
    """
    scores = np.asarray(scores, dtype=float)
    labels = np.asarray(labels, dtype=int)
    n_pos = int((labels == POSITIVE_LABEL).sum())
    n_neg = int((labels == NEGATIVE_LABEL).sum())
    if n_pos == 0 or n_neg == 0:
        raise ValueError("AUC undefined: both classes must be present")
    _, group, counts = np.unique(scores, return_inverse=True, return_counts=True)
    # 1-based mid-rank of each group of tied scores: its last rank minus
    # half the ranks it spans beyond the first
    ranks = (np.cumsum(counts) - (counts - 1) / 2)[group]
    rank_sum = float(ranks[labels == POSITIVE_LABEL].sum())
    return (rank_sum - n_pos * (n_pos + 1) / 2) / (n_pos * n_neg)


def compute_metrics(scores, labels) -> MetricsReport:
    """Confusion counts at DECISION_THRESHOLD plus weighted per-class metrics.

    With a single class present, AUC is undefined and reported as None;
    everything else is still computed.
    """
    scores = np.asarray(scores, dtype=float)
    labels = np.asarray(labels, dtype=int)
    if scores.shape != labels.shape:
        raise ValueError("scores and labels must have equal length")
    if scores.size == 0:
        raise ValueError("cannot compute metrics on empty input")
    predicted = (scores >= DECISION_THRESHOLD).astype(int)

    tp = int(((predicted == 1) & (labels == 1)).sum())
    fp = int(((predicted == 1) & (labels == 0)).sum())
    tn = int(((predicted == 0) & (labels == 0)).sum())
    fn = int(((predicted == 0) & (labels == 1)).sum())

    # for the real class, real rows predicted real are its true positives
    per_class = {"fake": _class_metrics(tp, fp, fn, tn), "real": _class_metrics(tn, fn, fp, tp)}

    n = len(labels)
    weights = {name: m.support / n for name, m in per_class.items()}

    def weighted(attr: str) -> float:
        return sum(getattr(per_class[name], attr) * w for name, w in weights.items())

    try:
        auc = auc_score(scores, labels)
        # the per-class ROC curves of a binary scorer mirror each other, so
        # the support-weighted per-class AUC coincides with the plain AUC
        weighted_auc = auc
    except ValueError:
        auc = None
        weighted_auc = None

    return MetricsReport(
        tp_rate=weighted("tp_rate"),
        fp_rate=weighted("fp_rate"),
        precision=weighted("precision"),
        recall=weighted("recall"),
        f1=weighted("f1"),
        auc=auc,
        weighted_auc=weighted_auc,
        per_class=per_class,
        confusion={"tp": tp, "fp": fp, "tn": tn, "fn": fn},
        n=n,
    )
