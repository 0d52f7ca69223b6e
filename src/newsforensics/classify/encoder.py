"""Feature encoding for traffic profiles.

Numeric features are standardized, country and category are one-hot
encoded, and near-zero-variance features are dropped.  Column order is
canonicalized lexicographically so encodings never depend on input
order, and all statistics come from the data the encoder was fitted on.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import attrgetter

import numpy as np

from ..traffic import TrafficProfile

NUMERIC_FEATURES = (
    "global_rank",
    "country_rank",
    "category_rank",
    "total_visits",
    "pages_per_visit",
    "bounce_rate",
    "src_direct",
    "src_referrals",
    "src_search",
    "src_social",
    "src_mail",
    "src_display",
)

CATEGORICAL_FEATURES = ("country", "category")

REQUIRED_FEATURES = NUMERIC_FEATURES + CATEGORICAL_FEATURES

LABEL_CODES = {"real": 0, "fake": 1}

# numeric features whose variance falls below this are dropped as constant
VARIANCE_THRESHOLD = 1e-12


def missing_features(profile: TrafficProfile) -> list[str]:
    return [f for f in REQUIRED_FEATURES if getattr(profile, f) is None]


def complete_profiles(profiles) -> list[TrafficProfile]:
    """Profiles carrying every classification feature."""
    return [p for p in profiles if not missing_features(p)]


def _feature_table(profiles: list[TrafficProfile]) -> np.ndarray:
    """Object array of raw feature values, one column per REQUIRED_FEATURES."""
    get = attrgetter(*REQUIRED_FEATURES)
    rows = [get(p) for p in profiles]
    return np.array(rows, dtype=object).reshape(len(rows), len(REQUIRED_FEATURES))


@dataclass
class FeatureEncoder:
    columns: list[str]
    means: dict[str, float]
    stds: dict[str, float]
    vocab: dict[str, list[str]]  # categorical feature -> seen values
    dropped: list[str]

    @classmethod
    def fit(cls, profiles) -> "FeatureEncoder":
        rows = complete_profiles(profiles)
        if not rows:
            raise ValueError("no profiles with a complete feature set")

        table = _feature_table(rows)
        means, stds, dropped = {}, {}, []
        columns = []
        for name in NUMERIC_FEATURES:
            values = table[:, REQUIRED_FEATURES.index(name)].astype(float)
            if values.var() < VARIANCE_THRESHOLD:
                dropped.append(name)
                continue
            means[name] = float(values.mean())
            stds[name] = float(values.std())
            columns.append(name)

        vocab = {}
        for name in CATEGORICAL_FEATURES:
            seen = sorted(set(table[:, REQUIRED_FEATURES.index(name)]))
            if len(seen) < 2:
                # a single observed value is a constant column
                dropped.append(name)
                continue
            vocab[name] = seen
            columns.extend(f"{name}={v}" for v in seen)

        return cls(sorted(columns), means, stds, vocab, sorted(dropped))

    @property
    def dimension(self) -> int:
        return len(self.columns)

    def transform_one(self, profile: TrafficProfile) -> np.ndarray:
        return self.transform([profile])[0]

    def transform(self, profiles) -> np.ndarray:
        """One encoded row per profile; raises on the first incomplete one."""
        profiles = list(profiles)
        table = _feature_table(profiles)
        incomplete = np.flatnonzero(np.equal(table, None).any(axis=1))
        if incomplete.size:
            p = profiles[incomplete[0]]
            raise ValueError(f"profile {p.site} missing features: {missing_features(p)}")
        X = np.empty((len(profiles), len(self.columns)))
        for j, column in enumerate(self.columns):
            name, one_hot, value = column.partition("=")
            values = table[:, REQUIRED_FEATURES.index(name)]
            if one_hot:
                X[:, j] = values.astype(str) == value
            else:
                X[:, j] = (values.astype(float) - self.means[name]) / self.stds[name]
        return X

    @staticmethod
    def labels(profiles) -> np.ndarray:
        bad = sorted({p.label for p in profiles} - set(LABEL_CODES))
        if bad:
            raise ValueError(f"profiles must be labeled fake/real, found {bad}")
        return np.array([LABEL_CODES[p.label] for p in profiles], dtype=int)

    def to_dict(self) -> dict:
        return {
            "columns": self.columns,
            "means": self.means,
            "stds": self.stds,
            "vocab": self.vocab,
            "dropped": self.dropped,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "FeatureEncoder":
        return cls(
            columns=list(data["columns"]),
            means=dict(data["means"]),
            stds=dict(data["stds"]),
            vocab={k: list(v) for k, v in data["vocab"].items()},
            dropped=list(data["dropped"]),
        )
