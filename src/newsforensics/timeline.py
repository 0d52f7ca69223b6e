"""Per-site monthly state timelines: aggregation, gap interpolation, lifetime metrics.

A site's archive history is reduced to one state per calendar month
(alive / zombie / dead / missing).  Two interpolation phases fill
unobserved months, after which lifetime summaries and cohort histograms
are computed from the repaired sequences.
"""

from __future__ import annotations

import csv
import json
import logging
import re
import statistics
from dataclasses import dataclass
from enum import Enum
from pathlib import Path
from typing import Iterable, Iterator, Mapping, Sequence

log = logging.getLogger(__name__)


class SiteState(Enum):
    ALIVE = "A"
    ZOMBIE = "Z"
    DEAD = "D"
    MISSING = "M"

    def __repr__(self) -> str:  # terser test/debug output
        return self.name


_DOMAIN_RE = re.compile(r"^[a-z0-9][a-z0-9.-]*\.[a-z0-9-]+$")


def normalize_site(raw: str) -> str:
    """Normalize a site identifier to a bare lowercase domain.

    Strips scheme, path, port, credentials and a leading ``www.``;
    raises ValueError if what remains is not a plausible domain.
    """
    s = raw.strip().lower()
    if "://" in s:
        s = s.split("://", 1)[1]
    elif s.startswith("//"):
        s = s[2:]
    s = s.split("/", 1)[0].split("?", 1)[0].split("#", 1)[0]
    if "@" in s:
        s = s.rsplit("@", 1)[1]
    s = s.split(":", 1)[0]
    s = s.rstrip(".")
    if s.startswith("www.") and s.count(".") > 1:
        s = s[4:]
    if not _DOMAIN_RE.match(s):
        raise ValueError(f"not a valid site domain: {raw!r}")
    return s


@dataclass(frozen=True, order=True)
class MonthStamp:
    """A calendar month; ordered chronologically."""

    year: int
    month: int

    def __post_init__(self):
        if not 1996 <= self.year <= 2100:
            raise ValueError(f"year out of range: {self.year}")
        if not 1 <= self.month <= 12:
            raise ValueError(f"month out of range: {self.month}")

    @property
    def ordinal(self) -> int:
        return self.year * 12 + self.month - 1

    def plus(self, months: int) -> "MonthStamp":
        o = self.ordinal + months
        return MonthStamp(o // 12, o % 12 + 1)

    def __sub__(self, other: "MonthStamp") -> int:
        return self.ordinal - other.ordinal

    @property
    def quarter(self) -> "Quarter":
        return Quarter(self.year, (self.month - 1) // 3 + 1)

    @classmethod
    def parse(cls, text: str) -> "MonthStamp":
        m = re.match(r"^(\d{4})-(\d{2})$", text)
        if not m:
            raise ValueError(f"expected YYYY-MM, got {text!r}")
        return cls(int(m.group(1)), int(m.group(2)))

    def __str__(self) -> str:
        return f"{self.year:04d}-{self.month:02d}"


def month_range(start: MonthStamp, end: MonthStamp) -> Iterator[MonthStamp]:
    """Months from start to end, inclusive."""
    if end < start:
        raise ValueError(f"empty month window: {start}..{end}")
    cur = start
    while cur <= end:
        yield cur
        cur = cur.plus(1)


@dataclass(frozen=True, order=True)
class Quarter:
    """A calendar quarter (year + 1..4); ordered chronologically."""

    year: int
    q: int

    def __post_init__(self):
        if not 1 <= self.q <= 4:
            raise ValueError(f"quarter out of range: {self.q}")

    @property
    def ordinal(self) -> int:
        return self.year * 4 + self.q - 1

    def plus(self, quarters: int) -> "Quarter":
        o = self.ordinal + quarters
        return Quarter(o // 4, o % 4 + 1)

    def __sub__(self, other: "Quarter") -> int:
        return self.ordinal - other.ordinal

    def months(self) -> tuple[MonthStamp, MonthStamp, MonthStamp]:
        first = (self.q - 1) * 3 + 1
        return tuple(MonthStamp(self.year, first + i) for i in range(3))

    @classmethod
    def parse(cls, text: str) -> "Quarter":
        m = re.match(r"^(\d{4})-?Q([1-4])$", text.upper())
        if not m:
            raise ValueError(f"expected YYYY-Qn, got {text!r}")
        return cls(int(m.group(1)), int(m.group(2)))

    def __str__(self) -> str:
        return f"{self.year:04d}-Q{self.q}"


@dataclass(frozen=True)
class MonthlyTimeline:
    """Contiguous monthly states for one site, starting at ``start``."""

    site: str
    start: MonthStamp
    states: tuple[SiteState, ...]

    def __post_init__(self):
        if not self.states:
            raise ValueError("timeline must cover at least one month")

    def __len__(self) -> int:
        return len(self.states)

    @property
    def end(self) -> MonthStamp:
        return self.start.plus(len(self.states) - 1)

    def months(self) -> Iterator[MonthStamp]:
        return month_range(self.start, self.end)

    def state_at(self, month: MonthStamp) -> SiteState:
        """State for a month; months outside the covered span are Missing."""
        i = month - self.start
        if 0 <= i < len(self.states):
            return self.states[i]
        return SiteState.MISSING

    def with_states(self, states: Sequence[SiteState]) -> "MonthlyTimeline":
        return MonthlyTimeline(self.site, self.start, tuple(states))


def aggregate_month(captures: Iterable[SiteState]) -> SiteState:
    """Collapse the captures of one site-month to a single state.

    Alive dominates zombie, zombie dominates dead; no captures means missing.
    """
    seen = set(captures)
    if SiteState.MISSING in seen:
        raise ValueError("capture states cannot be Missing")
    for state in (SiteState.ALIVE, SiteState.ZOMBIE, SiteState.DEAD):
        if state in seen:
            return state
    return SiteState.MISSING


def interpolate_p1(t: MonthlyTimeline, max_gap_months: int = 36) -> MonthlyTimeline:
    """Phase 1: fill missing runs bounded by the same alive/zombie label.

    A maximal run of missing months of length <= max_gap_months whose
    immediate neighbours on both sides carry the same label (alive or
    zombie) takes that label.  Scanning maximal runs once is equivalent
    to repeated passes over increasing gap sizes, because a fill never
    changes the non-missing boundaries of any other run.
    """
    if max_gap_months < 1:
        raise ValueError("max_gap_months must be >= 1")
    states = list(t.states)
    n = len(states)
    i = 0
    while i < n:
        if states[i] is not SiteState.MISSING:
            i += 1
            continue
        j = i
        while j < n and states[j] is SiteState.MISSING:
            j += 1
        if (
            0 < i
            and j < n
            and states[i - 1] is states[j]
            and states[i - 1] in (SiteState.ALIVE, SiteState.ZOMBIE)
            and j - i <= max_gap_months
        ):
            for k in range(i, j):
                states[k] = states[i - 1]
        i = j
    return t.with_states(states)


def interpolate_p2(
    t: MonthlyTimeline, max_span_months: int = 36, max_nonalive: int = 12
) -> MonthlyTimeline:
    """Phase 2: bridge missing months between nearby alive anchors.

    For consecutive alive months at most max_span_months apart with at
    most max_nonalive zombie/dead months between them, every missing
    month in between becomes alive.  Observed zombie/dead months are
    never relabelled.
    """
    states = list(t.states)
    alive_idx = [i for i, s in enumerate(states) if s is SiteState.ALIVE]
    for a, b in zip(alive_idx, alive_idx[1:]):
        if b - a > max_span_months:
            continue
        nonalive = sum(
            1 for k in range(a + 1, b) if states[k] in (SiteState.ZOMBIE, SiteState.DEAD)
        )
        if nonalive > max_nonalive:
            continue
        for k in range(a + 1, b):
            if states[k] is SiteState.MISSING:
                states[k] = SiteState.ALIVE
    return t.with_states(states)


def interpolate(
    t: MonthlyTimeline,
    max_gap_months: int = 36,
    max_span_months: int = 36,
    max_nonalive: int = 12,
) -> MonthlyTimeline:
    """Both interpolation phases, in order."""
    return interpolate_p2(
        interpolate_p1(t, max_gap_months), max_span_months, max_nonalive
    )


@dataclass(frozen=True)
class LifetimeSummary:
    site: str
    lifespan_months: int
    alive_months: int
    zombie_months: int


def lifetime_summary(t: MonthlyTimeline) -> LifetimeSummary:
    """Inclusive span between first and last alive month, plus state counts."""
    alive_idx = [i for i, s in enumerate(t.states) if s is SiteState.ALIVE]
    lifespan = alive_idx[-1] - alive_idx[0] + 1 if alive_idx else 0
    zombie = sum(1 for s in t.states if s is SiteState.ZOMBIE)
    return LifetimeSummary(t.site, lifespan, len(alive_idx), zombie)


@dataclass(frozen=True)
class CohortHistogram:
    """Per-month alive/zombie/dead counts over a fixed cohort."""

    months: tuple[MonthStamp, ...]
    alive: tuple[int, ...]
    zombie: tuple[int, ...]
    dead: tuple[int, ...]
    cohort_size: int


def cohort_histogram(
    timelines: Iterable[MonthlyTimeline], window: tuple[MonthStamp, MonthStamp]
) -> CohortHistogram:
    """Count cohort states per month; missing and out-of-range count as dead."""
    ts = list(timelines)
    months = list(month_range(*window))
    alive, zombie, dead = [], [], []
    for m in months:
        a = sum(1 for t in ts if t.state_at(m) is SiteState.ALIVE)
        z = sum(1 for t in ts if t.state_at(m) is SiteState.ZOMBIE)
        alive.append(a)
        zombie.append(z)
        dead.append(len(ts) - a - z)
    return CohortHistogram(tuple(months), tuple(alive), tuple(zombie), tuple(dead), len(ts))


@dataclass(frozen=True)
class DistributionSummary:
    """Sorted observations of one metric, ready for ECDF plotting."""

    values: tuple[int, ...]
    median: float


def lifetime_distribution(
    summaries: Iterable[LifetimeSummary],
) -> dict[str, DistributionSummary]:
    """Sorted value lists and medians for lifespan / alive / zombie time."""
    ss = list(summaries)
    if not ss:
        raise ValueError("empty cohort")
    out = {}
    for metric in ("lifespan_months", "alive_months", "zombie_months"):
        values = tuple(sorted(getattr(s, metric) for s in ss))
        out[metric] = DistributionSummary(values, float(statistics.median(values)))
    return out


# ---------------------------------------------------------------------------
# persistence

_STATE_BY_CODE = {s.value: s for s in SiteState}


def timeline_to_record(t: MonthlyTimeline) -> dict:
    return {
        "site": t.site,
        "start": str(t.start),
        "states": "".join(s.value for s in t.states),
    }


def timeline_from_record(rec: Mapping) -> MonthlyTimeline:
    codes = rec["states"]
    bad = set(codes) - set(_STATE_BY_CODE)
    if bad:
        raise ValueError(f"unknown state codes {sorted(bad)} for {rec.get('site')}")
    return MonthlyTimeline(
        site=rec["site"],
        start=MonthStamp.parse(rec["start"]),
        states=tuple(_STATE_BY_CODE[c] for c in codes),
    )


def write_timelines(timelines: Iterable[MonthlyTimeline], path: str | Path) -> None:
    """One JSON record per line, sorted by site for reproducible output."""
    Path(path).parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        for t in sorted(timelines, key=lambda t: t.site):
            fh.write(json.dumps(timeline_to_record(t), sort_keys=True) + "\n")


def read_timelines(path: str | Path) -> list[MonthlyTimeline]:
    out = []
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if line:
                out.append(timeline_from_record(json.loads(line)))
    return out


_ANNOTATION_STATES = {
    "alive": SiteState.ALIVE,
    "zombie": SiteState.ZOMBIE,
    "dead": SiteState.DEAD,
}

Annotations = dict[str, dict[MonthStamp, list[SiteState]]]


def read_annotations(path: str | Path) -> Annotations:
    """Load a ``domain,year,month,state`` CSV of human/imported month labels."""
    out: Annotations = {}
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.DictReader(fh)
        required = {"domain", "year", "month", "state"}
        missing = required - set(reader.fieldnames or [])
        if missing:
            raise ValueError(f"annotation CSV missing columns: {sorted(missing)}")
        for lineno, row in enumerate(reader, start=2):
            state = row["state"].strip().lower()
            if state not in _ANNOTATION_STATES:
                raise ValueError(f"line {lineno}: unknown state {row['state']!r}")
            site = normalize_site(row["domain"])
            month = MonthStamp(int(row["year"]), int(row["month"]))
            out.setdefault(site, {}).setdefault(month, []).append(
                _ANNOTATION_STATES[state]
            )
    return out


def timelines_from_annotations(
    annotations: Annotations,
    window: tuple[MonthStamp, MonthStamp] | None = None,
) -> list[MonthlyTimeline]:
    """Fold per-site month evidence into one timeline per site.

    Each month's evidence goes through the alive > zombie > dead
    aggregation and months without evidence are missing.  The window
    defaults to the full annotated month span.
    """
    if not annotations:
        return []
    if window is None:
        months = [m for per_site in annotations.values() for m in per_site]
        window = (min(months), max(months))
    start, end = window
    months = list(month_range(start, end))
    out = []
    for site in sorted(annotations):
        per_month = annotations[site]
        for month, found in per_month.items():
            if start <= month <= end and len(set(found)) > 1:
                log.info(
                    "conflicting evidence for %s %s: %s",
                    site, month, sorted(s.name for s in set(found)),
                )
        states = [aggregate_month(per_month.get(m, ())) for m in months]
        out.append(MonthlyTimeline(site, start, tuple(states)))
    return out
