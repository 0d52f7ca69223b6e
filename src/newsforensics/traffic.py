"""Audience-engagement statistics over per-site traffic profiles.

Profiles come from provider exports (CSV or JSON lines) with a fixed
schema; invalid rows are rejected with row-level diagnostics.  Summary
statistics use population standard deviation and linear-interpolation
percentiles so that published tables are reproducible.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from decimal import Decimal, InvalidOperation, Overflow
from pathlib import Path
from typing import Iterable, Sequence, get_type_hints

import numpy as np

from .files import numbered_lines, read_csv
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


class ProfileTable:
    """Traffic profiles as one object array per TrafficProfile field; an absent
    value is None.  Each value stays the Python int, float or str it was parsed
    as, so counts beyond int64 stay exact."""

    def __init__(self, columns: dict[str, np.ndarray]):
        self._columns = columns

    @classmethod
    def of(cls, rows: Iterable[TrafficProfile]) -> "ProfileTable":
        rows = list(rows)
        return cls({name: np.array([getattr(p, name) for p in rows], dtype=object)
                    for name in _SCHEMA})

    def __len__(self) -> int:
        return len(self._columns["site"])

    def __getitem__(self, field: str) -> np.ndarray:
        return self._columns[field]

    def take(self, rows) -> "ProfileTable":
        """The rows a boolean mask or an index array selects, in that order."""
        return ProfileTable({name: column[rows] for name, column in self._columns.items()})


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
    except Overflow:  # an exponent beyond the decimal context's
        raise ValueError(f"not a finite count: {raw!r}") from None
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


def _read_json_lines(
    path: Path, required: list[str]
) -> tuple[list[int], dict[str, Sequence], list[RowError]]:
    """Like files.read_csv, for one JSON object per line; lines that are not a
    JSON object of single values are RowErrors."""
    lines, records, errors = [], [], []
    for i, line in numbered_lines(path):
        line = line.strip()
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
        nested = [c for c in REQUIRED_COLUMNS if isinstance(rec.get(c), (list, dict))]
        if nested:
            errors.append(RowError(i, str(rec["domain"]), f"{nested[0]} must be a single "
                                                          f"value, got {rec[nested[0]]!r}"))
            continue
        lines.append(i)
        records.append(rec)
    return lines, {c: [rec.get(c) for rec in records] for c in REQUIRED_COLUMNS}, errors


def _blank(value) -> bool:
    return value is None or (isinstance(value, str) and not value.strip())


def _count(text: str) -> int:
    # at most 308 digits stay below 1e308, where parse_quantity stops
    if text.isascii() and text.isdigit() and len(text) <= 308:
        return int(text)
    return parse_quantity(text)


def _map(parse, items: list) -> tuple[list, dict[int, str]]:
    """parse per item, and the error text of each item it rejects (whose
    value is None)."""
    try:
        return list(map(parse, items)), {}
    except ValueError:
        pass
    values, errors = [], {}
    for i, item in enumerate(items):
        try:
            values.append(parse(item))
        except ValueError as exc:
            values.append(None)
            errors[i] = str(exc)
    return values, errors


def _parse_cells(cells: Sequence, parse) -> tuple[list, dict[int, str]]:
    """parse(str(cell)) per cell, None for a blank one, and the error text
    of each cell that does not parse (whose value is None)."""
    try:
        joined = "".join(cells)  # TypeError: a None or a JSON number
    except TypeError:
        joined = None
    if joined is not None and all(cells):  # all text and none empty: one C-level pass
        if parse is float:
            try:
                return list(map(float, cells)), {}
            except ValueError:
                pass
        elif joined.isascii() and joined.isdigit() and max(map(len, cells)) <= 308:
            return list(map(int, cells)), {}
    texts = [None if _blank(raw) else str(raw) for raw in cells]
    return _map(lambda text: None if text is None else parse(text), texts)


def _array(values: list, dtype) -> tuple[np.ndarray, np.ndarray]:
    """values as an array, 0 where None, and the mask of those not None.
    Integers beyond int64 make an object array of exact ints."""
    if None in values:
        present = np.array([v is not None for v in values], dtype=bool)
        values = [0 if v is None else v for v in values]
    else:
        present = np.ones(len(values), dtype=bool)
    try:
        return np.array(values, dtype=dtype), present
    except OverflowError:
        return np.array(values, dtype=object), present


def _parse_columns(
    lines: list[int], cols: dict[str, Sequence], allow_unlabeled: bool
) -> tuple[ProfileTable, list[RowError]]:
    """Profiles of the rows that pass every check, and a RowError for each
    row that does not, with the first reason in this order: domain, a domain
    an earlier row already names, label, each metric's parse and sign in
    schema order, ranks, percentages, the share sum and the EDU/GOV counts."""
    reasons: list[str | None] = [None] * len(lines)

    def reject(rows, reason) -> None:  # a row keeps its first reason
        for i in rows:
            if reasons[i] is None:
                reasons[i] = reason(i)

    sites, errors = _map(normalize_site, [str(d) for d in cols["domain"]])
    reject(errors, errors.get)
    first_line: dict[str, int] = {}
    for i, site in enumerate(sites):
        if site is not None and first_line.setdefault(site, lines[i]) != lines[i]:
            reasons[i] = f"duplicate domain {site}, first on line {first_line[site]}"
    labels = []
    for i, raw in enumerate(cols["label"]):
        label = str(raw or "").strip().lower()
        if label not in ("fake", "real"):
            if allow_unlabeled and not label:
                label = "unknown"
            elif reasons[i] is None:
                reasons[i] = f"label must be fake or real, got {raw!r}"
        labels.append(label)
    # a cell that is not text is never blank
    values = {name: [None if raw is None else str(raw).strip() or None for raw in cols[name]]
              for name in ("country", "category")}

    arrays = {}
    for name in METRIC_FIELDS:
        raw = cols.pop(name)  # released once parsed: the next column rebinds raw
        values[name], errors = _parse_cells(raw, _count if name in _INT_FIELDS else float)
        reject(errors, lambda i: f"{name}: {errors[i]}")
        arr, present = _array(values[name], np.int64 if name in _INT_FIELDS else float)
        ok = arr >= 0 if arr.dtype != float else np.isfinite(arr) & (arr >= 0)
        bad = present & ~ok
        reject(bad.nonzero()[0], lambda i: f"{name} must be finite and non-negative, "
                                           f"got {raw[i]!r}")
        arr[bad] = 0  # later checks see only the values this one accepted
        arrays[name] = arr, present & ok

    for name in ("global_rank", "country_rank", "category_rank"):
        arr, present = arrays[name]
        reject((present & (arr < 1)).nonzero()[0],
               lambda i: f"{name} must be positive, got {values[name][i]}")
    for name in ("bounce_rate",) + SHARE_FIELDS:
        arr, present = arrays[name]
        reject((present & ~((arr >= 0.0) & (arr <= 100.0))).nonzero()[0],
               lambda i: f"{name} out of [0, 100]: {values[name][i]}")
    total = np.zeros(len(lines))
    every = np.ones(len(lines), dtype=bool)
    for name in SHARE_FIELDS:  # left to right from 0, as sum() adds them
        total = total + arrays[name][0]
        every &= arrays[name][1]
    reject((every & ~((total >= 99.0) & (total <= 101.0))).nonzero()[0],
           lambda i: f"traffic source shares sum to {float(total[i]):.2f}, not ~100")
    for part, whole in EDU_GOV_RATIOS.values():
        (part_arr, part_ok), (whole_arr, whole_ok) = arrays[part], arrays[whole]
        reject((part_ok & whole_ok & (part_arr > whole_arr)).nonzero()[0],
               lambda i: f"{part} ({values[part][i]}) exceeds {whole} ({values[whole][i]})")

    values.update(site=sites, label=labels)
    accepted = np.array([reason is None for reason in reasons], dtype=bool)
    table = ProfileTable({name: np.array(values[name], dtype=object)[accepted]
                          for name in _SCHEMA})
    domains = cols["domain"]
    rejected = [RowError(lines[i], str(domains[i]), reason)
                for i, reason in enumerate(reasons) if reason is not None]
    return table, rejected


def load_profiles(
    path: str | Path, allow_unlabeled: bool = False
) -> tuple[ProfileTable, list[RowError]]:
    """Load traffic profiles from a CSV or JSON-lines export into one table.

    Files ending in .jsonl, .ndjson or .json are read as JSON lines,
    anything else as CSV.  A missing required column is a hard error;
    rows violating value invariants or naming a domain an earlier row names,
    and JSON lines that are not a JSON object, are returned as RowErrors in
    line order, each with the physical line its row starts on.  With
    allow_unlabeled, rows may leave the label blank (prediction inputs) and
    get label "unknown".
    All rows are read first, then parsed and checked a column at a time.
    """
    path = Path(path)
    required = [
        c for c in REQUIRED_COLUMNS if not (allow_unlabeled and c == "label")
    ]
    errors: list[RowError] = []
    if path.suffix in (".jsonl", ".ndjson", ".json"):
        lines, cols, errors = _read_json_lines(path, required)
    else:
        lines, cols = read_csv(path, REQUIRED_COLUMNS, required)
    profiles, rejected = _parse_columns(lines, cols, allow_unlabeled)
    errors = sorted(errors + rejected, key=lambda e: e.line)
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


def edu_gov_ratios(profiles: ProfileTable) -> dict[str, list[float]]:
    """EDU/GOV shares of backlinks and referring domains per row; 0 for
    empty totals."""
    return {
        name: [n / d if d and n is not None else 0.0
               for n, d in zip(profiles[part], profiles[whole])]
        for name, (part, whole) in EDU_GOV_RATIOS.items()
    }


@dataclass
class CohortReport:
    """Per-metric, per-label descriptive statistics plus ECDF exports."""

    stats: dict[str, dict[str, DescriptiveStats]]  # metric -> label -> stats
    ecdfs: dict[str, dict[str, list[tuple[float, float]]]]
    ratio_ecdfs: dict[str, dict[str, list[tuple[float, float]]]]
    warnings: list[str]

    def to_dict(self) -> dict:
        stats = {metric: {label: vars(s) for label, s in sorted(per_label.items())}
                 for metric, per_label in sorted(self.stats.items())}
        return {**vars(self), "stats": stats}


def cohort_report(profiles: ProfileTable, sample_std: bool = False) -> CohortReport:
    """Summary table over fake and real cohorts; absent values excluded per metric."""
    labels = sorted(set(profiles["label"]))
    warnings = []
    if len(labels) < 2:
        warnings.append(f"only {labels or 'no'} label(s) present; table is partial")

    stats: dict[str, dict[str, DescriptiveStats]] = {}
    ecdfs: dict[str, dict[str, list]] = {}
    ratio_ecdfs: dict[str, dict[str, list]] = {}
    for label in labels:
        cohort = profiles.take(profiles["label"] == label)
        for metric in METRIC_FIELDS:
            values = [v for v in cohort[metric] if v is not None]
            if values:
                stats.setdefault(metric, {})[label] = describe(values, sample_std=sample_std)
                ecdfs.setdefault(metric, {})[label] = ecdf(values)
        for name, ratios in edu_gov_ratios(cohort).items():
            ratio_ecdfs.setdefault(name, {})[label] = ecdf(ratios)
    return CohortReport(stats, ecdfs, ratio_ecdfs, warnings)
