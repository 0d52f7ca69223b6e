"""Web-archive client: CDX capture index, snapshot downloads, local cache.

Snapshots are fetched in the archive's raw-content form (no replay
toolbar), stored under ``cache/<site>/<timestamp>.html`` and tracked in
a JSON manifest that also carries automatic dead-state evidence, so
every downstream stage works offline from the cache.
"""

from __future__ import annotations

import json
import logging
import os
import random
import re
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Callable, Iterable, Iterator

import requests

from .timeline import (
    Annotations,
    MonthStamp,
    MonthlyTimeline,
    SiteState,
    timelines_from_annotations,
)

log = logging.getLogger(__name__)

DEFAULT_ARCHIVE_BASE = "https://web.archive.org"

_TIMESTAMP_RE = re.compile(r"^\d{14}$")


class ArchiveError(Exception):
    """Archive endpoint unreachable after retries."""


@dataclass(frozen=True)
class SnapshotRef:
    site: str
    timestamp: str  # YYYYMMDDhhmmss
    original_url: str
    status_code: int | None = None
    mime_type: str = ""

    def __post_init__(self):
        if not _TIMESTAMP_RE.match(self.timestamp):
            raise ValueError(f"bad archive timestamp: {self.timestamp!r}")
        if not self.original_url:
            raise ValueError("original_url must be non-empty")

    @property
    def month(self) -> MonthStamp:
        return MonthStamp(int(self.timestamp[:4]), int(self.timestamp[4:6]))


@dataclass
class SnapshotDocument:
    ref: SnapshotRef
    html: bytes


def auto_dead_state(doc: SnapshotDocument) -> SiteState | None:
    """Dead when the capture has no body or an error status; None otherwise.

    None means the automatic rules cannot tell alive from zombie, which
    is left to imported annotations.
    """
    if not doc.html:
        return SiteState.DEAD
    if doc.ref.status_code is not None and doc.ref.status_code >= 400:
        return SiteState.DEAD
    return None


class RateLimiter:
    """Global minimum spacing between requests; injectable clock for tests."""

    def __init__(self, rate_per_second: float,
                 clock: Callable[[], float] = time.monotonic,
                 sleep: Callable[[float], None] = time.sleep):
        self._interval = 1.0 / rate_per_second if rate_per_second > 0 else 0.0
        self._clock = clock
        self._sleep = sleep
        self._lock = threading.Lock()
        self._next_slot = float("-inf")

    def acquire(self) -> None:
        if not self._interval:
            return
        with self._lock:
            now = self._clock()
            slot = max(now, self._next_slot)
            self._next_slot = slot + self._interval
        if slot > now:
            self._sleep(slot - now)


class SnapshotCache:
    """Filesystem cache keyed by (site, timestamp); atomic per-key writes."""

    def __init__(self, root: str | Path):
        self.root = Path(root)

    def path(self, site: str, timestamp: str) -> Path:
        return self.root / site / f"{timestamp}.html"

    def get(self, site: str, timestamp: str) -> bytes | None:
        path = self.path(site, timestamp)
        try:
            return path.read_bytes()
        except FileNotFoundError:
            return None

    def put(self, site: str, timestamp: str, html: bytes) -> None:
        path = self.path(site, timestamp)
        path.parent.mkdir(parents=True, exist_ok=True)
        tmp = path.with_name(f".{path.name}.{os.getpid()}.{threading.get_ident()}.tmp")
        tmp.write_bytes(html)
        os.replace(tmp, path)  # readers never observe partial writes


FETCHED = "fetched"
FAILED = "failed"


@dataclass(frozen=True)
class ManifestEntry:
    ref: SnapshotRef
    fetch_status: str
    retries: int = 0
    auto_state: str | None = None  # "dead" when the capture is auto-classified


@dataclass
class CrawlManifest:
    """Fetch ledger for one crawl: per-site snapshot refs plus outcomes."""

    window: tuple[MonthStamp, MonthStamp] | None = None
    entries: dict[str, list[ManifestEntry]] = field(default_factory=dict)
    cdx_failures: list[str] = field(default_factory=list)

    def add(self, entry: ManifestEntry) -> None:
        per_site = self.entries.setdefault(entry.ref.site, [])
        if any(e.ref.timestamp == entry.ref.timestamp for e in per_site):
            raise ValueError(
                f"duplicate manifest entry: {entry.ref.site} {entry.ref.timestamp}"
            )
        per_site.append(entry)

    def sites(self) -> list[str]:
        return sorted(self.entries)

    def to_dict(self) -> dict:
        return {
            "window": [str(self.window[0]), str(self.window[1])] if self.window else None,
            "cdx_failures": sorted(self.cdx_failures),
            "sites": {
                site: [
                    {
                        "timestamp": e.ref.timestamp,
                        "original_url": e.ref.original_url,
                        "status_code": e.ref.status_code,
                        "mime_type": e.ref.mime_type,
                        "fetch_status": e.fetch_status,
                        "retries": e.retries,
                        "auto_state": e.auto_state,
                    }
                    for e in sorted(per_site, key=lambda e: e.ref.timestamp)
                ]
                for site, per_site in sorted(self.entries.items())
            },
        }

    def save(self, path: str | Path) -> None:
        Path(path).write_text(json.dumps(self.to_dict(), sort_keys=True, indent=2) + "\n")

    @classmethod
    def from_dict(cls, data: dict) -> "CrawlManifest":
        window = None
        if data.get("window"):
            window = (MonthStamp.parse(data["window"][0]), MonthStamp.parse(data["window"][1]))
        manifest = cls(window=window, cdx_failures=list(data.get("cdx_failures", [])))
        for site, rows in data.get("sites", {}).items():
            manifest.entries.setdefault(site, [])
            for row in rows:
                manifest.add(
                    ManifestEntry(
                        ref=SnapshotRef(
                            site=site,
                            timestamp=row["timestamp"],
                            original_url=row["original_url"],
                            status_code=row["status_code"],
                            mime_type=row.get("mime_type", ""),
                        ),
                        fetch_status=row["fetch_status"],
                        retries=row.get("retries", 0),
                        auto_state=row.get("auto_state"),
                    )
                )
        return manifest

    @classmethod
    def load(cls, path: str | Path) -> "CrawlManifest":
        return cls.from_dict(json.loads(Path(path).read_text()))


class WaybackClient:
    """CDX index queries and raw snapshot downloads with retry and rate limit."""

    def __init__(
        self,
        cdx_base: str = DEFAULT_ARCHIVE_BASE,
        web_base: str = DEFAULT_ARCHIVE_BASE,
        session: requests.Session | None = None,
        cache: SnapshotCache | None = None,
        rate_limit: float = 1.0,
        max_retries: int = 3,
        backoff_base: float = 1.0,
        timeout: float = 30.0,
        clock: Callable[[], float] = time.monotonic,
        sleep: Callable[[float], None] = time.sleep,
        jitter_seed: int = 0,
    ):
        self.cdx_base = cdx_base.rstrip("/")
        self.web_base = web_base.rstrip("/")
        self.session = session or requests.Session()
        self.cache = cache
        self.max_retries = max_retries
        self.backoff_base = backoff_base
        self.timeout = timeout
        self._limiter = RateLimiter(rate_limit, clock=clock, sleep=sleep)
        self._sleep = sleep
        self._jitter = random.Random(jitter_seed)
        self._local = threading.local()
        self.request_count = 0
        self.cdx_rows_skipped = 0

    @property
    def last_retries(self) -> int:
        """Retries spent on this thread's most recent successful request."""
        return getattr(self._local, "retries", 0)

    def _request(self, url: str, params: dict | None = None) -> requests.Response:
        """GET with rate limiting and jittered exponential backoff.

        Retries transport errors and 429/5xx responses; other statuses
        are returned to the caller.
        """
        last_error: Exception | None = None
        for attempt in range(self.max_retries):
            if attempt:
                delay = self.backoff_base * (2 ** (attempt - 1))
                self._sleep(delay + self._jitter.uniform(0, delay / 10))
            self._limiter.acquire()
            self.request_count += 1
            try:
                response = self.session.get(url, params=params, timeout=self.timeout)
            except requests.RequestException as exc:
                last_error = exc
                log.warning("request failed (%s), attempt %d: %s", url, attempt + 1, exc)
                continue
            if response.status_code == 429 or response.status_code >= 500:
                last_error = ArchiveError(f"HTTP {response.status_code} from {url}")
                log.warning("retriable HTTP %d from %s", response.status_code, url)
                continue
            self._local.retries = attempt
            return response
        raise ArchiveError(f"gave up on {url} after {self.max_retries} attempts") from last_error

    def fetch_cdx_index(
        self,
        site: str,
        window: tuple[MonthStamp, MonthStamp],
        per_month: int | None = 1,
    ) -> list[SnapshotRef]:
        """Captures the CDX endpoint reports for a site within the window.

        Results come back ordered by timestamp, optionally collapsed to
        the first per_month captures of each month; malformed rows are
        skipped and counted on the client.
        """
        start, end = window
        if end < start:
            raise ValueError(f"empty crawl window: {start}..{end}")
        params = {
            "url": site,
            "output": "json",
            "from": f"{start.year:04d}{start.month:02d}",
            "to": f"{end.year:04d}{end.month:02d}",
            "fl": "timestamp,original,statuscode,mimetype",
        }
        response = self._request(f"{self.cdx_base}/cdx/search/cdx", params=params)
        if not response.text.strip():
            return []
        try:
            rows = response.json()
        except ValueError:
            raise ArchiveError(f"CDX returned non-JSON for {site}")
        refs = []
        for row in rows[1:]:  # first row is the header
            try:
                timestamp, original, status, mime = (list(row) + [""] * 4)[:4]
                status_code = int(status) if str(status).isdigit() else None
                ref = SnapshotRef(site, str(timestamp), str(original), status_code, str(mime))
            except (ValueError, TypeError):
                self.cdx_rows_skipped += 1
                log.warning("skipping malformed CDX row for %s: %r", site, row)
                continue
            if start <= ref.month <= end:
                refs.append(ref)
        refs.sort(key=lambda r: r.timestamp)
        if per_month:
            kept, seen = [], {}
            for ref in refs:
                n = seen.get(ref.month, 0)
                if n < per_month:
                    kept.append(ref)
                    seen[ref.month] = n + 1
            refs = kept
        return refs

    def fetch_snapshot(self, ref: SnapshotRef) -> SnapshotDocument:
        """Raw archived body for one capture, cached locally.

        A 404 yields an empty-body document (dead-state evidence);
        transport failures raise ArchiveError after retries.
        """
        if self.cache is not None:
            cached = self.cache.get(ref.site, ref.timestamp)
            if cached is not None:
                self._local.retries = 0
                return SnapshotDocument(ref, cached)
        url = f"{self.web_base}/web/{ref.timestamp}id_/{ref.original_url}"
        response = self._request(url)
        html = b"" if response.status_code == 404 else response.content
        if response.status_code >= 400:
            ref = replace(ref, status_code=response.status_code)
        doc = SnapshotDocument(ref, html)
        if self.cache is not None:
            self.cache.put(ref.site, ref.timestamp, html)
        return doc


def crawl_sites(
    client: WaybackClient,
    sites: Iterable[str],
    window: tuple[MonthStamp, MonthStamp],
    per_month: int | None = 1,
    workers: int = 4,
) -> CrawlManifest:
    """Index and download one crawl; returns the manifest of outcomes.

    Snapshot fetches run on a bounded worker pool behind the client's
    global rate limiter.  Sites whose CDX query fails are recorded with
    zero entries rather than aborting the crawl.
    """
    manifest = CrawlManifest(window=window)
    lock = threading.Lock()

    refs: list[SnapshotRef] = []
    for site in sorted(set(sites)):
        try:
            site_refs = client.fetch_cdx_index(site, window, per_month=per_month)
        except ArchiveError as exc:
            log.error("CDX index failed for %s: %s", site, exc)
            manifest.entries.setdefault(site, [])
            manifest.cdx_failures.append(site)
            continue
        manifest.entries.setdefault(site, [])
        refs.extend(site_refs)

    def fetch(ref: SnapshotRef) -> None:
        try:
            doc = client.fetch_snapshot(ref)
        except ArchiveError:
            entry = ManifestEntry(ref, FAILED, retries=client.max_retries)
        else:
            state = auto_dead_state(doc)
            entry = ManifestEntry(
                ref,
                FETCHED,
                retries=client.last_retries,
                auto_state="dead" if state is SiteState.DEAD else None,
            )
        with lock:
            manifest.add(entry)

    with ThreadPoolExecutor(max_workers=max(1, workers)) as pool:
        list(pool.map(fetch, refs))
    return manifest


def load_documents(
    cache: SnapshotCache, manifest: CrawlManifest, sites: Iterable[str] | None = None
) -> Iterator[SnapshotDocument]:
    """Cached documents for fetched manifest entries, in (site, ts) order."""
    wanted = set(sites) if sites is not None else None
    for site in manifest.sites():
        if wanted is not None and site not in wanted:
            continue
        for entry in sorted(manifest.entries[site], key=lambda e: e.ref.timestamp):
            if entry.fetch_status != FETCHED:
                continue
            html = cache.get(site, entry.ref.timestamp)
            if html is None:
                log.warning("cache miss for %s %s", site, entry.ref.timestamp)
                continue
            yield SnapshotDocument(entry.ref, html)


def build_timelines(
    manifest: CrawlManifest | None,
    annotations: Annotations,
    sites: Iterable[str],
    window: tuple[MonthStamp, MonthStamp],
) -> list[MonthlyTimeline]:
    """One timeline per site from manifest auto-dead captures plus annotations.

    ``manifest`` is None when no crawl ran.  Sites without any evidence
    yield all-missing timelines, so cohort math stays total.
    """
    crawled = manifest.entries if manifest else {}
    evidence: Annotations = {site: {} for site in sites}
    for site, per_month in evidence.items():
        for entry in crawled.get(site, ()):
            if entry.auto_state == "dead":
                per_month.setdefault(entry.ref.month, []).append(SiteState.DEAD)
        for month, states in annotations.get(site, {}).items():
            per_month.setdefault(month, []).extend(states)
    return timelines_from_annotations(evidence, window)
