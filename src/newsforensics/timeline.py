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
from typing import Iterable, Iterator

log = logging.getLogger(__name__)


class SiteState(str, Enum):
    """One month's state; a member equals its one-letter code."""

    ALIVE = "A"
    ZOMBIE = "Z"
    DEAD = "D"
    MISSING = "M"

    def __repr__(self) -> str:  # terser test/debug output
        return self.name


_DOMAIN_RE = re.compile(r"[a-z0-9][a-z0-9.-]*\.[a-z0-9-]+")


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
    if not _DOMAIN_RE.fullmatch(s):
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
        m = re.fullmatch(r"(\d{4})-(\d{2})", text)
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
        m = re.fullmatch(r"(\d{4})-?Q([1-4])", text.upper())
        if not m:
            raise ValueError(f"expected YYYY-Qn, got {text!r}")
        return cls(int(m.group(1)), int(m.group(2)))

    def __str__(self) -> str:
        return f"{self.year:04d}-Q{self.q}"


_CODES = frozenset(s.value for s in SiteState)


@dataclass(frozen=True)
class MonthlyTimeline:
    """Contiguous monthly states for one site, starting at ``start``.

    ``states`` holds one A/Z/D/M code per month; the constructor joins any
    iterable of ``SiteState`` members or codes into that string.
    """

    site: str
    start: MonthStamp
    states: str

    def __post_init__(self):
        states = "".join(self.states)
        if not states:
            raise ValueError(f"timeline of {self.site} must cover at least one month")
        bad = set(states) - _CODES
        if bad:
            raise ValueError(f"unknown state codes {sorted(bad)} for {self.site}")
        object.__setattr__(self, "states", states)

    def __len__(self) -> int:
        return len(self.states)

    @property
    def end(self) -> MonthStamp:
        return self.start.plus(len(self.states) - 1)

    def window(self, start: MonthStamp, end: MonthStamp) -> str:
        """Codes for the months start..end inclusive, ``M`` outside this timeline."""
        width = end - start + 1
        if width < 1:
            raise ValueError(f"empty month window: {start}..{end}")
        lo = start - self.start
        codes = self.states[max(lo, 0) : max(lo + width, 0)]
        head = min(max(-lo, 0), width)
        return "M" * head + codes + "M" * (width - head - len(codes))


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


# a maximal missing run between two equal alive/zombie labels
_P1_GAP = re.compile(r"(?<=([AZ]))M+(?=\1)")
# a maximal non-alive run between two alive months
_P2_GAP = re.compile(r"(?<=A)[^A]+(?=A)")


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

    def fill(run: re.Match) -> str:
        gap = run[0]
        return run[1] * len(gap) if len(gap) <= max_gap_months else gap

    return MonthlyTimeline(t.site, t.start, _P1_GAP.sub(fill, t.states))


def interpolate_p2(
    t: MonthlyTimeline, max_span_months: int = 36, max_nonalive: int = 12
) -> MonthlyTimeline:
    """Phase 2: bridge missing months between nearby alive anchors.

    For consecutive alive months at most max_span_months apart with at
    most max_nonalive zombie/dead months between them, every missing
    month in between becomes alive.  Observed zombie/dead months are
    never relabelled.
    """

    def bridge(run: re.Match) -> str:
        gap = run[0]
        if len(gap) < max_span_months and len(gap) - gap.count("M") <= max_nonalive:
            return gap.replace("M", "A")
        return gap

    return MonthlyTimeline(t.site, t.start, _P2_GAP.sub(bridge, t.states))


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
    states = t.states
    first = states.find("A")
    lifespan = states.rfind("A") - first + 1 if first >= 0 else 0
    return LifetimeSummary(t.site, lifespan, states.count("A"), states.count("Z"))


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
    months = tuple(month_range(*window))
    rows = [t.window(*window) for t in timelines]
    columns = list(zip(*rows)) or [()] * len(months)
    alive = tuple(column.count("A") for column in columns)
    zombie = tuple(column.count("Z") for column in columns)
    dead = tuple(len(rows) - a - z for a, z in zip(alive, zombie))
    return CohortHistogram(months, alive, zombie, dead, len(rows))


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

def timeline_to_record(t: MonthlyTimeline) -> dict:
    return {"site": t.site, "start": str(t.start), "states": t.states}


def timeline_from_record(rec: object) -> MonthlyTimeline:
    if not isinstance(rec, dict):
        raise ValueError(f"expected a JSON object, got {type(rec).__name__}")
    bad = [key for key in ("site", "start", "states") if not isinstance(rec.get(key), str)]
    if bad:
        raise ValueError(f"missing or non-string {', '.join(bad)}")
    return MonthlyTimeline(rec["site"], MonthStamp.parse(rec["start"]), rec["states"])


def write_timelines(timelines: Iterable[MonthlyTimeline], path: str | Path) -> None:
    """One JSON record per line, sorted by site for reproducible output."""
    Path(path).parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        for t in sorted(timelines, key=lambda t: t.site):
            fh.write(json.dumps(timeline_to_record(t), sort_keys=True) + "\n")


def read_timelines(path: str | Path) -> list[MonthlyTimeline]:
    """Timelines of a JSON-lines file; each error names ``path:line:``.

    Rows may start in different months: readers align them through
    ``MonthlyTimeline.window``.  A site may appear only once.
    """
    out: dict[str, MonthlyTimeline] = {}
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            try:
                t = timeline_from_record(json.loads(line))
                if t.site in out:
                    raise ValueError(f"duplicate site {t.site!r}")
            except ValueError as exc:
                raise ValueError(f"{path}:{lineno}: {exc}") from None
            out[t.site] = t
    return list(out.values())


_ANNOTATION_STATES = {
    "alive": SiteState.ALIVE,
    "zombie": SiteState.ZOMBIE,
    "dead": SiteState.DEAD,
}

Annotations = dict[str, dict[MonthStamp, list[SiteState]]]


def read_annotations(path: str | Path) -> Annotations:
    """Load a ``domain,year,month,state`` CSV of human/imported month labels."""
    out: Annotations = {}
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            reader = csv.DictReader(fh)
            required = {"domain", "year", "month", "state"}
            missing = required - set(reader.fieldnames or [])
            if missing:
                raise ValueError(f"{path}: annotation CSV missing columns: {sorted(missing)}")
            for lineno, row in enumerate(reader, start=2):
                try:
                    short = sorted(c for c in required if row[c] is None)
                    if short:
                        raise ValueError(f"row too short, no {', '.join(short)}")
                    state = row["state"].strip().lower()
                    if state not in _ANNOTATION_STATES:
                        raise ValueError(f"unknown state {row['state']!r}")
                    site = normalize_site(row["domain"])
                    month = MonthStamp(int(row["year"]), int(row["month"]))
                except ValueError as exc:
                    raise ValueError(f"{path}:{lineno}: {exc}") from None
                out.setdefault(site, {}).setdefault(month, []).append(
                    _ANNOTATION_STATES[state]
                )
    except UnicodeDecodeError as exc:
        raise ValueError(f"{path}: {exc}") from None
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
        if not months:
            raise ValueError("no annotated month to span; pass a window")
        window = (min(months), max(months))
    start, end = window
    width = end - start + 1
    if width < 1:
        raise ValueError(f"empty month window: {start}..{end}")
    out = []
    for site in sorted(annotations):
        row = ["M"] * width
        for month, found in annotations[site].items():
            if start <= month <= end:
                if len(set(found)) > 1:
                    log.info(
                        "conflicting evidence for %s %s: %s",
                        site, month, sorted(s.name for s in set(found)),
                    )
                row[month - start] = aggregate_month(found)
        out.append(MonthlyTimeline(site, start, row))
    return out
