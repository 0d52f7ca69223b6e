"""Feature encoding for traffic profiles.

Numeric features are standardized, country and category are one-hot
encoded, and near-zero-variance features are dropped.  Column order is
canonicalized lexicographically so encodings never depend on input
order, and all statistics come from the data the encoder was fitted on.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, fields

import numpy as np

from ..files import check
from ..traffic import ProfileTable, TrafficProfile

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


def complete(profiles: ProfileTable) -> np.ndarray:
    """Mask of the rows carrying every classification feature."""
    return np.all([np.not_equal(profiles[name], None) for name in REQUIRED_FEATURES], axis=0)


@dataclass
class FeatureEncoder:
    columns: list[str]
    means: dict[str, float]
    stds: dict[str, float]
    vocab: dict[str, list[str]]  # categorical feature -> seen values
    dropped: list[str]

    @classmethod
    def fit(cls, profiles: ProfileTable) -> "FeatureEncoder":
        rows = profiles.take(complete(profiles))
        if not len(rows):
            raise ValueError("no profiles with a complete feature set")

        means, stds, dropped = {}, {}, []
        columns = []
        for name in NUMERIC_FEATURES:
            values = rows[name].astype(float)
            if values.var() < VARIANCE_THRESHOLD:
                dropped.append(name)
                continue
            means[name] = float(values.mean())
            stds[name] = float(values.std())
            columns.append(name)

        vocab = {}
        for name in CATEGORICAL_FEATURES:
            seen = sorted(set(rows[name]))
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
        return self.transform(ProfileTable.of([profile]))[0]

    def transform(self, profiles: ProfileTable) -> np.ndarray:
        """One encoded row per profile; raises on the first incomplete one."""
        incomplete = np.flatnonzero(~complete(profiles))
        if incomplete.size:
            i = incomplete[0]
            missing = [f for f in REQUIRED_FEATURES if profiles[f][i] is None]
            raise ValueError(f"profile {profiles['site'][i]} missing features: {missing}")
        X = np.empty((len(profiles), len(self.columns)))
        for j, column in enumerate(self.columns):
            name, one_hot, value = column.partition("=")
            if one_hot:
                X[:, j] = profiles[name].astype(str) == value
            else:
                X[:, j] = (profiles[name].astype(float) - self.means[name]) / self.stds[name]
        return X

    @staticmethod
    def labels(profiles: ProfileTable) -> np.ndarray:
        bad = sorted(set(profiles["label"]) - set(LABEL_CODES))
        if bad:
            raise ValueError(f"profiles must be labeled fake/real, found {bad}")
        return np.array([LABEL_CODES[label] for label in profiles["label"]], dtype=int)

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, data: dict) -> "FeatureEncoder":
        """Raises ValueError, TypeError or KeyError unless each column can
        be encoded: a numeric feature with a finite mean and a finite std
        above 0, or a categorical feature's value from ``vocab``."""
        check(data, {"columns": [str], "dropped": [str], "means": dict, "stds": dict,
                     "vocab": dict})
        encoder = cls(**{f.name: data[f.name] for f in fields(cls)})
        for column in encoder.columns:
            name, one_hot, value = column.partition("=")
            if one_hot:
                if name not in CATEGORICAL_FEATURES or value not in encoder.vocab.get(name, []):
                    raise ValueError(f"encoder column {column!r} is not in its vocab")
            elif name not in NUMERIC_FEATURES:
                raise ValueError(f"encoder column {column!r} is not a feature")
            elif not _finite(encoder.means.get(name)):
                raise ValueError(f"encoder column {column!r} has no finite mean")
            elif not (_finite(encoder.stds.get(name)) and encoder.stds[name] > 0):
                raise ValueError(f"encoder column {column!r} has no finite std above 0")
        return encoder


def _finite(value) -> bool:
    return type(value) in (int, float) and math.isfinite(value)
