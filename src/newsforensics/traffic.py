"""Audience-engagement statistics over per-site traffic profiles.

Profiles come from provider exports (CSV or JSON lines) with a fixed
schema; invalid rows are rejected with row-level diagnostics.  Summary
statistics use population standard deviation and linear-interpolation
percentiles so that published tables are reproducible.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass
from decimal import Decimal, InvalidOperation
from pathlib import Path
from typing import Iterable, Sequence, get_type_hints

import numpy as np

from .timeline import normalize_site


@dataclass(frozen=True)
class TrafficProfile:
    site: str
    label: str  # "fake" or "real"
    global_rank: int | None = None
    country_rank: int | None = None
    category_rank: int | None = None
    country: str | None = None
    category: str | None = None
    total_visits: int | None = None
    pages_per_visit: float | None = None
    visit_duration_s: float | None = None
    bounce_rate: float | None = None
    src_direct: float | None = None
    src_referrals: float | None = None
    src_search: float | None = None
    src_social: float | None = None
    src_mail: float | None = None
    src_display: float | None = None
    backlinks: int | None = None
    referring_domains: int | None = None
    edu_backlinks: int | None = None
    gov_backlinks: int | None = None
    edu_ref_domains: int | None = None
    gov_ref_domains: int | None = None


# The dataclass is the schema: the "domain" column fills ``site``, count
# columns are the ``int | None`` fields, and ``src_*`` shares are floats.
_SCHEMA = get_type_hints(TrafficProfile)
REQUIRED_COLUMNS = ["domain", *list(_SCHEMA)[1:]]
METRIC_FIELDS = [n for n, t in _SCHEMA.items() if t in (int | None, float | None)]
_INT_FIELDS = tuple(n for n in METRIC_FIELDS if _SCHEMA[n] == int | None)
_FLOAT_FIELDS = tuple(n for n in METRIC_FIELDS if _SCHEMA[n] == float | None)
SHARE_FIELDS = tuple(n for n in _FLOAT_FIELDS if n.startswith("src_"))

# EDU/GOV share name -> (part, whole) count fields
EDU_GOV_RATIOS = {
    "edu_backlink_ratio": ("edu_backlinks", "backlinks"),
    "gov_backlink_ratio": ("gov_backlinks", "backlinks"),
    "edu_ref_domain_ratio": ("edu_ref_domains", "referring_domains"),
    "gov_ref_domain_ratio": ("gov_ref_domains", "referring_domains"),
}

_SUFFIX_MULTIPLIERS = {"K": 1000, "M": 1000000, "B": 1000000000}


def parse_quantity(raw: str) -> int:
    """Parse provider-style counts like ``4.7K`` or ``23.2M`` into exact ints."""
    text = raw.strip().replace(",", "")
    mult = 1
    if text and text[-1].upper() in _SUFFIX_MULTIPLIERS:
        mult = _SUFFIX_MULTIPLIERS[text[-1].upper()]
        text = text[:-1]
    try:
        value = Decimal(text) * mult
    except InvalidOperation:
        raise ValueError(f"not a quantity: {raw!r}") from None
    if not math.isfinite(value):
        raise ValueError(f"not a finite count: {raw!r}")
    if value != value.to_integral_value():
        raise ValueError(f"not a whole count: {raw!r}")
    return int(value)


@dataclass(frozen=True)
class RowError:
    line: int
    site: str
    reason: str


def _blank(value) -> bool:
    return value is None or (isinstance(value, str) and not value.strip())


def _parse_row(row: dict, allow_unlabeled: bool = False) -> TrafficProfile:
    nested = [c for c in REQUIRED_COLUMNS if isinstance(row.get(c), (list, dict))]
    if nested:
        raise ValueError(f"{nested[0]} must be a single value, got {row[nested[0]]!r}")
    site = normalize_site(str(row["domain"]))
    label = str(row.get("label") or "").strip().lower()
    if label not in ("fake", "real"):
        if allow_unlabeled and not label:
            label = "unknown"
        else:
            raise ValueError(f"label must be fake or real, got {row.get('label')!r}")

    values: dict = {"site": site, "label": label}
    for name in ("country", "category"):
        values[name] = None if _blank(row.get(name)) else str(row[name]).strip()
    for name in METRIC_FIELDS:
        raw = row.get(name)
        if _blank(raw):
            values[name] = None
            continue
        parse = parse_quantity if name in _INT_FIELDS else float
        try:
            v = parse(str(raw))  # from text, so JSON 5.5, inf or 400-digit ints fail as CSV cells do
        except ValueError as exc:
            raise ValueError(f"{name}: {exc}") from None
        if not math.isfinite(v) or v < 0:
            raise ValueError(f"{name} must be finite and non-negative, got {raw!r}")
        values[name] = v

    for name in ("global_rank", "country_rank", "category_rank"):
        if values[name] is not None and values[name] < 1:
            raise ValueError(f"{name} must be positive, got {values[name]}")
    for name in ("bounce_rate",) + SHARE_FIELDS:
        v = values[name]
        if v is not None and not 0.0 <= v <= 100.0:
            raise ValueError(f"{name} out of [0, 100]: {v}")
    shares = [values[name] for name in SHARE_FIELDS]
    if all(s is not None for s in shares):
        total = sum(shares)
        if not 99.0 <= total <= 101.0:
            raise ValueError(f"traffic source shares sum to {total:.2f}, not ~100")
    for part, whole in EDU_GOV_RATIOS.values():
        if (
            values[part] is not None
            and values[whole] is not None
            and values[part] > values[whole]
        ):
            raise ValueError(f"{part} ({values[part]}) exceeds {whole} ({values[whole]})")
    return TrafficProfile(**values)


def load_profiles(
    path: str | Path, allow_unlabeled: bool = False
) -> tuple[list[TrafficProfile], list[RowError]]:
    """Load traffic profiles from a CSV or JSON-lines export.

    Files ending in .jsonl, .ndjson or .json are read as JSON lines,
    anything else as CSV.  A missing required column is a hard error;
    rows violating value invariants, and JSON lines that are not a JSON
    object, are returned as RowErrors in line order.  With
    allow_unlabeled, rows may leave the label blank (prediction inputs)
    and get label "unknown".
    """
    path = Path(path)
    json_lines = path.suffix in (".jsonl", ".ndjson", ".json")

    required = [
        c for c in REQUIRED_COLUMNS if not (allow_unlabeled and c == "label")
    ]
    rows: list[tuple[int, dict]] = []
    errors: list[RowError] = []
    if not json_lines:
        with open(path, newline="", encoding="utf-8") as fh:
            reader = csv.DictReader(fh)
            header = set(reader.fieldnames or [])
            for col in required:
                if col not in header:
                    raise ValueError(f"{path}: missing required column: {col}")
            rows = [(i, row) for i, row in enumerate(reader, start=2)]
    else:
        with open(path, encoding="utf-8") as fh:
            for i, line in enumerate(fh, start=1):
                line = line.strip()
                if not line:
                    continue
                try:
                    rec = json.loads(line)
                except ValueError as exc:
                    errors.append(RowError(i, "?", f"not valid JSON: {exc}"))
                    continue
                if not isinstance(rec, dict):
                    errors.append(RowError(i, "?", f"not a JSON object: {line[:40]}"))
                    continue
                for col in required:
                    if col not in rec:
                        raise ValueError(f"{path}:{i}: missing required column: {col}")
                rows.append((i, rec))

    profiles = []
    for line, row in rows:
        try:
            profiles.append(_parse_row(row, allow_unlabeled=allow_unlabeled))
        except (ValueError, KeyError) as exc:
            errors.append(RowError(line, str(row.get("domain", "?")), str(exc)))
    errors.sort(key=lambda e: e.line)
    return profiles, errors


@dataclass(frozen=True)
class DescriptiveStats:
    mean: float
    std: float
    median: float
    p90: float
    count: int


def describe(values: Sequence[float], sample_std: bool = False) -> DescriptiveStats:
    """Mean, std, median and 90th percentile (linear interpolation).

    Std is population (divide by N) by default; sample_std switches to
    the N-1 divisor.
    """
    arr = np.asarray(list(values), dtype=float)
    if arr.size == 0:
        raise ValueError("cannot describe an empty sequence")
    ddof = 1 if sample_std and arr.size > 1 else 0
    return DescriptiveStats(
        mean=float(arr.mean()),
        std=float(arr.std(ddof=ddof)),
        median=float(np.median(arr)),
        p90=float(np.percentile(arr, 90, method="linear")),
        count=int(arr.size),
    )


def ecdf(values: Sequence[float]) -> list[tuple[float, float]]:
    """Empirical CDF points (value, fraction of observations <= value)."""
    arr = sorted(values)
    if not arr:
        raise ValueError("cannot compute the ECDF of an empty sequence")
    n = len(arr)
    points = []
    for i, v in enumerate(arr, start=1):
        if i == n or arr[i] != v:
            points.append((float(v), i / n))
    return points


def edu_gov_ratios(p: TrafficProfile) -> dict[str, float]:
    """EDU/GOV shares of backlinks and referring domains; 0 for empty totals."""
    out = {}
    for name, (part, whole) in EDU_GOV_RATIOS.items():
        n, d = getattr(p, part), getattr(p, whole)
        out[name] = n / d if d and n is not None else 0.0
    return out


@dataclass
class CohortReport:
    """Per-metric, per-label descriptive statistics plus ECDF exports."""

    stats: dict[str, dict[str, DescriptiveStats]]  # metric -> label -> stats
    ecdfs: dict[str, dict[str, list[tuple[float, float]]]]
    ratio_ecdfs: dict[str, dict[str, list[tuple[float, float]]]]
    warnings: list[str]

    def to_dict(self) -> dict:
        return {
            "stats": {
                metric: {
                    label: vars(s) for label, s in sorted(per_label.items())
                }
                for metric, per_label in sorted(self.stats.items())
            },
            "ecdfs": self.ecdfs,
            "ratio_ecdfs": self.ratio_ecdfs,
            "warnings": self.warnings,
        }


def cohort_report(
    profiles: Iterable[TrafficProfile], sample_std: bool = False
) -> CohortReport:
    """Summary table over fake and real cohorts; absent values excluded per metric."""
    profiles = list(profiles)
    labels = sorted({p.label for p in profiles})
    warnings = []
    if len(labels) < 2:
        warnings.append(
            f"only {labels or 'no'} label(s) present; table is partial"
        )

    stats: dict[str, dict[str, DescriptiveStats]] = {}
    ecdfs: dict[str, dict[str, list]] = {}
    for metric in METRIC_FIELDS:
        for label in labels:
            values = [
                getattr(p, metric)
                for p in profiles
                if p.label == label and getattr(p, metric) is not None
            ]
            if not values:
                continue
            stats.setdefault(metric, {})[label] = describe(values, sample_std=sample_std)
            ecdfs.setdefault(metric, {})[label] = ecdf(values)

    ratio_ecdfs: dict[str, dict[str, list]] = {}
    for label in labels:
        ratios = [edu_gov_ratios(p) for p in profiles if p.label == label]
        if not ratios:
            continue
        for name in EDU_GOV_RATIOS:
            ratio_ecdfs.setdefault(name, {})[label] = ecdf([r[name] for r in ratios])
    return CohortReport(stats, ecdfs, ratio_ecdfs, warnings)
