"""Third-party tracker audit: filter-list matching over archived HTML.

Parses the domain-oriented subset of AdblockPlus filter syntax, extracts
embedded third-party registrable domains from page HTML, and aggregates
tracker prevalence over time and coverage across site cohorts.
"""

from __future__ import annotations

import re
from collections import Counter
from dataclasses import dataclass, field
from typing import Iterable
from urllib.parse import urlsplit

from .domains import PublicSuffixList, bundled_psl
from .textproc import parse_page
from .timeline import MonthStamp, month_range

DOMAIN_ANCHOR = "domain-anchor"
PLAIN_SUBSTRING = "plain-substring"

_DOMAIN_PATTERN_RE = re.compile(r"^[a-z0-9-]+(\.[a-z0-9-]+)+$")


@dataclass(frozen=True)
class FilterRule:
    kind: str  # DOMAIN_ANCHOR or PLAIN_SUBSTRING
    pattern: str
    source_line: int


@dataclass
class FilterList:
    rules: list[FilterRule] = field(default_factory=list)
    skipped: dict[str, int] = field(default_factory=dict)

    def skip(self, reason: str):
        self.skipped[reason] = self.skipped.get(reason, 0) + 1

    @property
    def total_skipped(self) -> int:
        return sum(self.skipped.values())


def parse_filter_list(text: str) -> FilterList:
    """Parse the supported AdblockPlus subset.

    Supported: ``||domain^`` anchors and bare domain substrings.
    Comments, element-hiding rules, exception rules and option-suffixed
    rules are skipped and counted in the parse summary.
    """
    out = FilterList()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line:
            out.skip("blank")
        elif line.startswith("!") or line.startswith("["):
            out.skip("comment")
        elif "##" in line or "#@#" in line or "#?#" in line:
            out.skip("element-hiding")
        elif line.startswith("@@"):
            out.skip("exception")
        elif "$" in line:
            out.skip("option")
        elif line.startswith("||"):
            pattern = line[2:]
            if pattern.endswith("^") and _DOMAIN_PATTERN_RE.match(pattern[:-1]):
                out.rules.append(FilterRule(DOMAIN_ANCHOR, pattern[:-1], lineno))
            else:
                out.skip("unsupported")
        elif _DOMAIN_PATTERN_RE.match(line):
            out.rules.append(FilterRule(PLAIN_SUBSTRING, line, lineno))
        else:
            out.skip("unsupported")
    return out


def serialize_rule(rule: FilterRule) -> str:
    if rule.kind == DOMAIN_ANCHOR:
        return f"||{rule.pattern}^"
    return rule.pattern


# archive-rewritten reference: .../web/<timestamp><flag>/<original url>
_ARCHIVE_REWRITE_RE = re.compile(r"/web/\d{4,14}[a-z]{0,3}_?/(?=(?:https?:)?//)")


def unwrap_archive_url(url: str) -> str:
    """Strip web-archive replay prefixes so the original target remains."""
    while True:
        m = _ARCHIVE_REWRITE_RE.search(url)
        if not m:
            return url
        url = url[m.end() :]


def third_party_domains(
    urls: Iterable[str],
    first_party: str,
    psl: PublicSuffixList | None = None,
    hosts: dict[str, str | None] | None = None,
) -> set[str]:
    """Registrable domains of the third parties that ``urls`` point to.

    Only absolute and protocol-relative URLs count, archive-rewritten
    ones unwrapped.  Hosts are reduced to registrable domains and the
    first party's own domain is dropped.  ``hosts`` maps each host seen
    so far to its registrable domain; callers auditing many pages pass
    one dict to all of them.  It belongs to the caller, never to the
    (possibly process-wide) suffix list.
    """
    psl = psl or bundled_psl()
    if hosts is None:
        hosts = {}
    own = psl.registrable_domain(first_party) or first_party.lower()

    found: set[str] = set()
    for raw in urls:
        url = unwrap_archive_url(raw.strip())
        if url.startswith("//"):
            url = "http:" + url
        if not url.lower().startswith(("http://", "https://")):
            continue  # relative paths and non-http schemes
        try:
            host = urlsplit(url).hostname
        except ValueError:
            continue
        if not host:
            continue
        try:
            domain = hosts[host]
        except KeyError:
            domain = hosts[host] = psl.registrable_domain(host)
        if domain and domain != own:
            found.add(domain)
    return found


def extract_third_parties(
    html: bytes | str,
    first_party: str,
    psl: PublicSuffixList | None = None,
) -> set[str]:
    """Registrable domains of embedded third-party resources.

    ``third_party_domains`` of the page's src/href/data-src attributes
    and inline ``url(...)`` references (see ``parse_page``).
    """
    return third_party_domains(parse_page(html)[1], first_party, psl)


def match_trackers(domains: Iterable[str], rules: Iterable[FilterRule]) -> set[str]:
    """Domains that hit any rule: anchor equality/subdomain or substring."""
    rules = list(rules)
    matched = set()
    for domain in domains:
        for rule in rules:
            if rule.kind == DOMAIN_ANCHOR:
                if domain == rule.pattern or domain.endswith("." + rule.pattern):
                    matched.add(domain)
                    break
            elif rule.pattern in domain:
                matched.add(domain)
                break
    return matched


@dataclass(frozen=True)
class ThirdPartyHit:
    site: str
    month: MonthStamp
    tracker_domain: str


@dataclass(frozen=True)
class PrevalenceSeries:
    tracker_domain: str
    months: tuple[MonthStamp, ...]
    site_counts: tuple[int, ...]
    cumulative: int


def prevalence_timeline(
    hits: Iterable[ThirdPartyHit],
    cohort: Iterable[str],
    window: tuple[MonthStamp, MonthStamp],
    top_k: int = 10,
) -> list[PrevalenceSeries]:
    """Per-month distinct-site counts for the most widespread trackers.

    Trackers rank by cumulative (site, month) appearances inside the
    window; ties break lexicographically.
    """
    if top_k < 1:
        raise ValueError("top_k must be >= 1")
    cohort = set(cohort)
    start, end = window
    months = tuple(month_range(start, end))

    seen: dict[str, set[tuple[str, MonthStamp]]] = {}
    for hit in hits:
        if hit.site in cohort and start <= hit.month <= end:
            seen.setdefault(hit.tracker_domain, set()).add((hit.site, hit.month))

    ranked = sorted(seen.items(), key=lambda kv: (-len(kv[1]), kv[0]))[:top_k]
    out = []
    for tracker, site_months in ranked:
        per_month = Counter(month for _, month in site_months)
        counts = tuple(per_month[m] for m in months)
        out.append(PrevalenceSeries(tracker, months, counts, len(site_months)))
    return out


def coverage_compare(
    hits_fake: Iterable[ThirdPartyHit],
    hits_real: Iterable[ThirdPartyHit],
    window: tuple[MonthStamp, MonthStamp],
    fake_cohort_size: int,
    real_cohort_size: int,
) -> dict[str, tuple[float, float]]:
    """Per-tracker fraction of fake and real sites embedding it in the window."""
    if fake_cohort_size <= 0 or real_cohort_size <= 0:
        raise ValueError("cohort sizes must be positive")
    start, end = window

    def sites_per_tracker(hits):
        per: dict[str, set[str]] = {}
        for h in hits:
            if start <= h.month <= end:
                per.setdefault(h.tracker_domain, set()).add(h.site)
        return per

    fake, real = sites_per_tracker(hits_fake), sites_per_tracker(hits_real)
    return {
        tracker: (
            len(fake.get(tracker, ())) / fake_cohort_size,
            len(real.get(tracker, ())) / real_cohort_size,
        )
        for tracker in sorted(set(fake) | set(real))
    }
