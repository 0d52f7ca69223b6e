"""Training, cross-validation and rank-split evaluation of news classifiers.

A fitted classifier bundles the feature encoder with the model so
predictions are reproducible from one JSON document.  Folds are
stratified by label and every source of randomness is derived from the
master seed.
"""

from __future__ import annotations

import logging
import operator
import re
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from ..files import read_json, write_json
from ..traffic import ProfileTable
from .encoder import FeatureEncoder, complete
from .metrics import DECISION_THRESHOLD, MetricsReport, compute_metrics
from .models import make_model

log = logging.getLogger(__name__)

PERSIST_FORMAT_VERSION = 1


@dataclass
class NewsClassifier:
    encoder: FeatureEncoder
    model: object

    def score(self, profiles: ProfileTable) -> np.ndarray:
        """P(fake) per profile; raises on the first incomplete profile."""
        return self.model.score(self.encoder.transform(profiles))

    def to_dict(self) -> dict:
        return {
            "format_version": PERSIST_FORMAT_VERSION,
            "kind": self.model.kind,
            "encoder": self.encoder.to_dict(),
            "model": self.model.to_dict(),
        }

    def save(self, path: str | Path) -> None:
        write_json(path, self.to_dict())

    @classmethod
    def from_dict(cls, data: dict) -> "NewsClassifier":
        version = data.get("format_version")
        if version != PERSIST_FORMAT_VERSION:
            raise ValueError(f"unsupported model format version: {version}")
        # make_model rejects an unknown kind; its class restores the fitted
        # state, which must fit the encoder's dimension
        model = make_model(data.get("kind")).from_dict(data["model"])
        encoder = FeatureEncoder.from_dict(data["encoder"])
        model.check(encoder.dimension)
        return cls(encoder, model)

    @classmethod
    def load(cls, path: str | Path) -> "NewsClassifier":
        with read_json(path, {}) as data:
            return cls.from_dict(data)


def _check_trainable(labels: np.ndarray) -> None:
    pos, neg = int((labels == 1).sum()), int((labels == 0).sum())
    if pos < 2 or neg < 2:
        raise ValueError(
            f"need at least two examples per class, got fake={pos} real={neg}"
        )


def _fit_classifier(
    kind: str, rows: ProfileTable, labels: np.ndarray, seed: int, model_params: dict
) -> NewsClassifier:
    """Fit an encoder on rows, then a model on the encoded rows and labels."""
    encoder = FeatureEncoder.fit(rows)
    model = make_model(kind, **model_params).fit(encoder.transform(rows), labels, seed=seed)
    return NewsClassifier(encoder, model)


def train_classifier(
    kind: str,
    profiles: ProfileTable,
    seed: int = 0,
    **model_params,
) -> NewsClassifier:
    """Fit the encoder and one model on all complete profiles."""
    rows = profiles.take(complete(profiles))
    labels = FeatureEncoder.labels(rows)
    _check_trainable(labels)
    return _fit_classifier(kind, rows, labels, seed, model_params)


def stratified_folds(labels: np.ndarray, k: int, seed: int) -> list[np.ndarray]:
    """Deterministic stratified k-fold assignment (round-robin per class).

    Falls back to plain shuffled folds with a warning when some class
    has fewer members than k.
    """
    if k < 2:
        raise ValueError("k must be >= 2")
    n = len(labels)
    if n < k:
        raise ValueError(f"dataset of {n} rows cannot form {k} folds")
    groups = [np.nonzero(labels == c)[0] for c in (0, 1)]
    smallest = min(len(members) for members in groups)
    if smallest < k:
        log.warning(
            "class with %d examples cannot be stratified into %d folds; "
            "falling back to unstratified folds",
            smallest,
            k,
        )
        groups = [np.arange(n)]
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    folds: list[list[int]] = [[] for _ in range(k)]
    for members in groups:  # each dealt round-robin from fold 0 in a seeded order
        for i, idx in enumerate(members[rng.permutation(len(members))]):
            folds[i % k].append(int(idx))
    return [np.array(sorted(f), dtype=int) for f in folds]


def cross_validate(
    kind: str,
    profiles: ProfileTable,
    k: int = 10,
    seed: int = 0,
    **model_params,
) -> MetricsReport:
    """Stratified k-fold cross-validation with per-fold encoders.

    Test scores are pooled across folds for the aggregate report;
    per-fold reports ride along in ``folds``.
    """
    rows = profiles.take(complete(profiles))
    labels = FeatureEncoder.labels(rows)
    _check_trainable(labels)
    folds = stratified_folds(labels, k, seed)
    fold_seeds = [int(s.generate_state(1)[0]) for s in np.random.SeedSequence(seed).spawn(k)]

    pooled_scores = np.empty(len(rows))
    fold_reports = []
    for fold_id, test_idx in enumerate(folds):
        train_idx = np.delete(np.arange(len(rows)), test_idx)
        classifier = _fit_classifier(kind, rows.take(train_idx), labels[train_idx],
                                     fold_seeds[fold_id], model_params)
        scores = classifier.score(rows.take(test_idx))
        pooled_scores[test_idx] = scores
        fold_reports.append(compute_metrics(scores, labels[test_idx]))

    report = compute_metrics(pooled_scores, labels)
    report.folds = fold_reports
    return report


_PREDICATE_RE = re.compile(r"^\s*rank\s*(<=|>=|<|>)\s*(\d+)\s*$")

_OPS = {"<": operator.lt, "<=": operator.le, ">": operator.gt, ">=": operator.ge}


@dataclass(frozen=True)
class RankPredicate:
    op: str
    value: int

    def __call__(self, profiles: ProfileTable) -> np.ndarray:
        """Mask of the rows whose global rank, if any, satisfies the predicate."""
        op = _OPS[self.op]
        return np.array([rank is not None and op(rank, self.value)
                         for rank in profiles["global_rank"]], dtype=bool)

    def __str__(self) -> str:
        return f"rank{self.op}{self.value}"


@dataclass(frozen=True)
class SplitSpec:
    """Train/test predicates over global rank, e.g. ``rank>10000|rank<=10000``."""

    train: RankPredicate
    test: RankPredicate

    @classmethod
    def parse(cls, text: str) -> "SplitSpec":
        parts = text.split("|")
        if len(parts) != 2:
            raise ValueError(
                f"expected 'TRAIN|TEST' rank predicates, got {text!r}"
            )
        preds = []
        for part in parts:
            m = _PREDICATE_RE.match(part)
            if not m:
                raise ValueError(f"bad rank predicate {part.strip()!r}")
            preds.append(RankPredicate(m.group(1), int(m.group(2))))
        return cls(preds[0], preds[1])


def rank_split_experiment(
    profiles: ProfileTable,
    spec: SplitSpec,
    kind: str = "random_forest",
    seed: int = 0,
    **model_params,
) -> MetricsReport:
    """Train on one rank band and test on the other (no cross-validation)."""
    rows = profiles.take(complete(profiles))
    train_rows = rows.take(spec.train(rows))
    test_rows = rows.take(spec.test(rows))
    overlap = set(train_rows["site"]) & set(test_rows["site"])
    if overlap:
        raise ValueError(f"split predicates overlap on: {sorted(overlap)[:5]}")
    if not len(train_rows):
        raise ValueError(f"no profiles satisfy train predicate {spec.train}")
    if not len(test_rows):
        raise ValueError(f"no profiles satisfy test predicate {spec.test}")

    y_train = FeatureEncoder.labels(train_rows)
    y_test = FeatureEncoder.labels(test_rows)
    _check_trainable(y_train)
    if len(set(y_test.tolist())) < 2:
        raise ValueError("test side must contain both classes")
    classifier = _fit_classifier(kind, train_rows, y_train, seed, model_params)
    return compute_metrics(classifier.score(test_rows), y_test)


def predict_profiles(
    classifier: NewsClassifier, profiles: ProfileTable
) -> list[tuple[str, str, float]]:
    """Per-profile (site, label, score); raises on incomplete profiles."""
    scores = classifier.score(profiles).tolist()
    return [
        (site, "fake" if score >= DECISION_THRESHOLD else "real", score)
        for site, score in zip(profiles["site"], scores)
    ]
