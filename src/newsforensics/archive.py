"""Web-archive client: CDX capture index, snapshot downloads, local cache.

Snapshots are fetched in the archive's raw-content form (no replay
toolbar), stored under ``cache/<site>/<timestamp>.html`` and tracked in
a JSON manifest that also carries automatic dead-state evidence, so
every downstream stage works offline from the cache.
"""

from __future__ import annotations

import gzip
import http.client
import json
import logging
import random
import re
import ssl
import string
import threading
import time
import urllib.request
import zlib
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Iterable, Iterator
from urllib.parse import quote, urlencode, urljoin, urlparse, urlsplit

from . import __version__
from .files import read_json, replacing, write_json
from .timeline import (
    Annotations,
    MonthStamp,
    MonthlyTimeline,
    SiteState,
    timelines_from_annotations,
)

log = logging.getLogger(__name__)

DEFAULT_ARCHIVE_BASE = "https://web.archive.org"
# snapshot fetches a crawl keeps submitted and not yet taken, per worker
FETCHES_QUEUED_PER_WORKER = 4

_TIMESTAMP_RE = re.compile(r"\d{14}")


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
        if not _TIMESTAMP_RE.fullmatch(self.timestamp):
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
    retries: int = 0  # attempts beyond the first; 0 when read from the cache


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
        with replacing(self.path(site, timestamp), binary=True) as fh:
            fh.write(html)  # readers never observe partial writes


FETCHED = "fetched"
FAILED = "failed"


@dataclass(frozen=True)
class ManifestEntry:
    ref: SnapshotRef
    fetch_status: str
    retries: int = 0
    auto_state: str | None = None  # "dead" when the capture is auto-classified


_REQUIRED = object()

# A ledger row's keys, named as the fields of SnapshotRef and ManifestEntry
# they hold: the check of each value, and the value an older row that omits
# the key stands for (_REQUIRED if every row must hold it).
_LEDGER_ROW = {
    "timestamp": (lambda v: isinstance(v, str), _REQUIRED),
    "original_url": (lambda v: isinstance(v, str), _REQUIRED),
    "status_code": (lambda v: v is None or type(v) is int, _REQUIRED),
    "mime_type": (lambda v: isinstance(v, str), ""),
    "fetch_status": (lambda v: v in (FETCHED, FAILED), _REQUIRED),
    "retries": (lambda v: type(v) is int and v >= 0, 0),
    "auto_state": (lambda v: v in (None, "dead"), None),
}


def _ledger_row(entry: ManifestEntry) -> dict:
    fields = vars(entry.ref) | vars(entry)
    return {key: fields[key] for key in _LEDGER_ROW}


def _manifest_entry(site: str, row) -> ManifestEntry:
    """One ledger row of ``site``; ValueError names the site and the row."""
    if not isinstance(row, dict):
        raise ValueError(f"manifest row of {site} is not an object: {row!r}")
    values = {key: row.get(key, default) for key, (_, default) in _LEDGER_ROW.items()}
    missing = [key for key, value in values.items() if value is _REQUIRED]
    if missing:
        raise ValueError(f"manifest row of {site} lacks {', '.join(missing)}: {row!r}")
    wrong = [key for key, (ok, _) in _LEDGER_ROW.items() if not ok(values[key])]
    if wrong:
        raise ValueError(f"manifest row of {site} has a bad {', '.join(wrong)}: {row!r}")
    ref = SnapshotRef(site, values["timestamp"], values["original_url"],
                      values["status_code"], values["mime_type"])
    return ManifestEntry(ref, values["fetch_status"], values["retries"], values["auto_state"])


@dataclass
class CrawlManifest:
    """Fetch ledger for one crawl: per-site snapshot refs plus outcomes.

    Each site's entries are in timestamp order, one per timestamp:
    ``crawl_sites`` appends them in the order of the CDX index, and
    ``from_dict`` sorts and checks what it loads.
    """

    window: tuple[MonthStamp, MonthStamp] | None = None
    entries: dict[str, list[ManifestEntry]] = field(default_factory=dict)
    cdx_failures: list[str] = field(default_factory=list)

    def sites(self) -> list[str]:
        return sorted(self.entries)

    def to_dict(self) -> dict:
        return {
            "window": [str(self.window[0]), str(self.window[1])] if self.window else None,
            "cdx_failures": sorted(self.cdx_failures),
            "sites": {site: [_ledger_row(e) for e in per_site]
                      for site, per_site in self.entries.items()},
        }

    def save(self, path: str | Path) -> None:
        write_json(path, self.to_dict())

    @classmethod
    def from_dict(cls, data: dict) -> "CrawlManifest":
        if not isinstance(data, dict):
            raise ValueError(f"crawl manifest is not an object: {type(data).__name__}")
        sites = data.get("sites", {})
        if not isinstance(sites, dict) or not all(isinstance(r, list) for r in sites.values()):
            raise ValueError(f'manifest "sites" is not an object of lists: {sites!r:.80}')
        window = data.get("window")
        if window:
            if not (isinstance(window, list) and len(window) == 2
                    and all(isinstance(month, str) for month in window)):
                raise ValueError(f'manifest "window" is not a pair of months: {window!r}')
            window = (MonthStamp.parse(window[0]), MonthStamp.parse(window[1]))
        failures = data.get("cdx_failures", [])
        if not (isinstance(failures, list) and all(isinstance(site, str) for site in failures)):
            raise ValueError(f'manifest "cdx_failures" is not a list of sites: {failures!r:.80}')
        manifest = cls(window=window or None, cdx_failures=list(failures))
        for site, rows in sites.items():
            per_site = sorted(
                (_manifest_entry(site, row) for row in rows), key=lambda e: e.ref.timestamp
            )
            for before, after in zip(per_site, per_site[1:]):
                if before.ref.timestamp == after.ref.timestamp:
                    raise ValueError(f"duplicate manifest entry: {site} {after.ref.timestamp}")
            manifest.entries[site] = per_site
        return manifest

    @classmethod
    def load(cls, path: str | Path) -> "CrawlManifest":
        with read_json(path) as data:
            return cls.from_dict(data)


@dataclass
class Response:
    status_code: int
    content: bytes

    @property
    def text(self) -> str:
        return self.content.decode("utf-8", errors="replace")

    def json(self):
        return json.loads(self.content)


MAX_REDIRECTS = 30
_REDIRECT_STATUSES = frozenset({301, 302, 303, 307, 308})

# Request targets are encoded exactly as requests 2.x prepares them: urllib3
# splits the URL, drops dot segments and escapes what each component may
# not hold, then requests' requote_uri unescapes unreserved characters.
_URI_RE = re.compile(
    r"^(?:([a-zA-Z][a-zA-Z0-9+.-]*):)?(?://([^\\/?#]*))?([^?#]*)(?:\?([^#]*))?(?:#(.*))?$",
    re.DOTALL,
)
_ESCAPE_RE = re.compile(r"%[a-fA-F0-9]{2}")
_PATH_SAFE = "!$&'()*+,;=:@/"
_QUERY_SAFE = _PATH_SAFE + "?"
_UNRESERVED = frozenset(string.ascii_letters + string.digits + "-._~")


def _remove_dot_segments(path: str) -> str:
    """RFC 3986 section 5.2.4, as urllib3 applies it."""
    output: list[str] = []
    for segment in path.split("/"):
        if segment == "..":
            if output:
                output.pop()
        elif segment != ".":
            output.append(segment)
    if path.startswith("/") and (not output or output[0]):
        output.insert(0, "")
    if path.endswith(("/.", "/..")):
        output.append("")
    return "/".join(output)


def _escape_invalid(component: str, safe: str) -> str:
    """Escape the bytes a URL component may not hold, keeping its escapes.

    Existing escapes are upper-cased; if any ``%`` starts no escape,
    every ``%`` is escaped instead.
    """
    component, escapes = _ESCAPE_RE.subn(lambda m: m.group(0).upper(), component)
    raw = component.encode("utf-8", "surrogatepass")
    return quote(raw, safe=safe + "%" if escapes == raw.count(b"%") else safe)


def _unquote_unreserved(uri: str) -> str:
    parts = uri.split("%")
    for i in range(1, len(parts)):
        h = parts[i][:2]
        if len(h) == 2 and h.isalnum():
            c = chr(int(h, 16))  # ValueError: not an escape
            parts[i] = c + parts[i][2:] if c in _UNRESERVED else "%" + parts[i]
        else:
            parts[i] = "%" + parts[i]
    return "".join(parts)


def _requote_uri(uri: str) -> str:
    """Unescape unreserved characters and escape illegal ones, as requests does."""
    try:
        return quote(_unquote_unreserved(uri), safe="!#$%&'()*+,/:;=?@[]~")
    except ValueError:
        return quote(uri, safe="!#$&'()*+,/:;=?@[]~")


def prepare_url(url: str, params: dict | None = None) -> tuple[str, str, str]:
    """(scheme, authority, request target) of a GET for url plus query params."""
    scheme, authority, path, query, _ = _URI_RE.match(url.lstrip()).groups()
    scheme = (scheme or "").lower()
    if scheme not in ("http", "https") or not authority:
        raise http.client.InvalidURL(f"not an absolute http(s) URL: {url!r}")
    if path:
        path = _escape_invalid(_remove_dot_segments(path), _PATH_SAFE)
    if not path.startswith("/"):
        path = "/" + path
    if query:
        query = _escape_invalid(query, _QUERY_SAFE)
    if params:
        encoded = urlencode(params)
        query = f"{query}&{encoded}" if query else encoded
    return scheme, authority, _requote_uri(f"{path}?{query}" if query else path)


def _follow(url: str, location: str) -> tuple[str, str, str, str]:
    """Where a Location header sent in answer to url leads, as requests follows it.

    Returns the new URL, which is the base for the next relative
    Location, and its scheme, authority and request target.
    """
    try:  # http.client decodes header values as latin-1; servers send UTF-8
        location = location.encode("latin-1").decode("utf-8")
        if location.startswith("//"):
            location = f"{urlsplit(url).scheme}:{location}"
        parsed = urlparse(location)
        location = _requote_uri(parsed.geturl())
        url = location if parsed.netloc else urljoin(url, location)
        split = urlsplit(url)
    except ValueError as exc:
        raise http.client.InvalidURL(f"bad Location {location!r}: {exc}") from None
    if split.scheme not in ("http", "https") or not split.netloc:
        raise http.client.InvalidURL(f"redirect to a non-http(s) URL: {url!r}")
    target = _escape_invalid(split.path or "/", _PATH_SAFE)
    if split.query:
        target += "?" + _escape_invalid(split.query, _QUERY_SAFE)
    return url, split.scheme, split.netloc, target


def _decode_body(body: bytes, content_encoding: str) -> bytes:
    """Undo gzip and deflate content codings, last applied first."""
    for coding in reversed(content_encoding.lower().split(",")):
        coding = coding.strip()
        try:
            if body and coding in ("gzip", "x-gzip"):
                body = gzip.decompress(body)
            elif body and coding == "deflate":
                try:
                    body = zlib.decompress(body)
                except zlib.error:  # raw deflate, without the zlib wrapper
                    body = zlib.decompress(body, -zlib.MAX_WBITS)
        except (EOFError, OSError, zlib.error) as exc:
            raise http.client.HTTPException(f"undecodable {coding} body: {exc}") from None
    return body


class HttpSession:
    """Keep-alive HTTP/1.1 GETs over one connection per thread and host.

    Follows up to MAX_REDIRECTS redirects and decodes gzip and deflate
    bodies.  Proxies come from the environment (``http_proxy``,
    ``https_proxy``, ``no_proxy``) once, when the session is made; each
    host's route is worked out on its first request.  Transport failures
    raise OSError or http.client.HTTPException; if the server dropped an
    idle connection, the request is sent once more on a new one.
    """

    def __init__(self, timeout: float):
        self.timeout = timeout
        self._proxies = urllib.request.getproxies()
        self._headers = {
            "User-Agent": f"newsforensics/{__version__}",
            "Accept-Encoding": "gzip, deflate",
            "Accept": "*/*",
        }
        self._routes: dict[tuple[str, str], tuple[Callable, str]] = {}
        self._tls: ssl.SSLContext | None = None
        self._local = threading.local()
        self._lock = threading.Lock()
        self._open: list[tuple[dict, tuple[str, str]]] = []

    def _route(self, scheme: str, authority: str) -> tuple[Callable, str]:
        """Connection factory and request-target prefix for one origin."""
        try:
            split = urlsplit(f"//{authority}")
            host, port = split.hostname, split.port
        except ValueError as exc:
            raise http.client.InvalidURL(f"bad host {authority!r}: {exc}") from None
        if not host or not host.isascii():
            raise http.client.InvalidURL(f"bad host {authority!r}")
        netloc = f"{host}:{port}" if port else host
        address = (host, port)
        proxy = self._proxies.get(scheme) or self._proxies.get("all")
        proxied = bool(proxy) and not urllib.request.proxy_bypass_environment(
            netloc, self._proxies)
        if proxied:
            proxy_split = urlsplit(proxy if "://" in proxy else f"http://{proxy}")
            if proxy_split.scheme != "http" or not proxy_split.hostname:
                raise http.client.InvalidURL(f"unsupported proxy {proxy!r}")
            address = (proxy_split.hostname, proxy_split.port)
        if scheme == "http":  # a proxy is sent the absolute URL
            return (lambda: http.client.HTTPConnection(*address, timeout=self.timeout),
                    f"http://{netloc}" if proxied else "")
        if self._tls is None:
            self._tls = ssl.create_default_context()
        context = self._tls

        def connect() -> http.client.HTTPSConnection:
            conn = http.client.HTTPSConnection(*address, timeout=self.timeout, context=context)
            if proxied:  # a proxy relays the TLS stream through CONNECT
                conn.set_tunnel(host, port)
            return conn

        return connect, ""

    def _connection(self, scheme: str, authority: str) -> tuple[http.client.HTTPConnection, str]:
        """This thread's connection to an origin, and its request-target prefix."""
        key = (scheme, authority)
        route = self._routes.get(key)
        if route is None:
            route = self._routes[key] = self._route(scheme, authority)
        try:
            conns = self._local.conns
        except AttributeError:
            conns = self._local.conns = {}
        conn = conns.get(key)
        if conn is None:
            conn = conns[key] = route[0]()
            with self._lock:
                self._open.append((conns, key))
        return conn, route[1]

    def _send(self, conn: http.client.HTTPConnection,
              target: str) -> tuple[http.client.HTTPResponse, bytes]:
        reused = conn.sock is not None
        try:
            try:
                conn.request("GET", target, headers=self._headers)
                response = conn.getresponse()
            except ConnectionError:
                if not reused:
                    raise
                conn.close()  # the server closed the idle connection
                conn.request("GET", target, headers=self._headers)
                response = conn.getresponse()
            return response, response.read()
        except BaseException:
            conn.close()  # a half-done exchange leaves nothing to reuse
            raise

    def get(self, url: str, params: dict | None = None) -> Response:
        scheme, authority, target = prepare_url(url, params)
        url = f"{scheme}://{authority}{target}"
        for _ in range(MAX_REDIRECTS + 1):
            conn, prefix = self._connection(scheme, authority)
            response, body = self._send(conn, prefix + target)
            location = response.getheader("Location")
            if response.status not in _REDIRECT_STATUSES or not location:
                body = _decode_body(body, response.getheader("Content-Encoding", ""))
                return Response(response.status, body)
            url, scheme, authority, target = _follow(url, location)
        raise http.client.HTTPException(f"more than {MAX_REDIRECTS} redirects, last to {url}")

    def close(self) -> None:
        """Close every open connection; later requests open new ones."""
        with self._lock:
            opened, self._open = self._open, []
        for conns, key in opened:
            conns.pop(key).close()


class WaybackClient:
    """CDX index queries and raw snapshot downloads with retry and rate limit."""

    def __init__(
        self,
        cdx_base: str = DEFAULT_ARCHIVE_BASE,
        web_base: str = DEFAULT_ARCHIVE_BASE,
        session: HttpSession | None = None,
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
        self.session = session or HttpSession(timeout)
        self.cache = cache
        self.max_retries = max_retries
        self.backoff_base = backoff_base
        self._limiter = RateLimiter(rate_limit, clock=clock, sleep=sleep)
        self._sleep = sleep
        self._jitter = random.Random(jitter_seed)
        self._count_lock = threading.Lock()
        self.request_count = 0
        self.cdx_rows_skipped = 0

    def _request(self, url: str, params: dict | None = None) -> tuple[Response, int]:
        """GET with rate limiting and jittered exponential backoff.

        Retries transport errors and 429/5xx responses; other statuses
        are returned to the caller with the number of retries spent.
        """
        last_error: Exception | None = None
        for attempt in range(self.max_retries):
            if attempt:
                delay = self.backoff_base * (2 ** (attempt - 1))
                self._sleep(delay + self._jitter.uniform(0, delay / 10))
            self._limiter.acquire()
            with self._count_lock:
                self.request_count += 1
            try:
                response = self.session.get(url, params=params)
            except (OSError, http.client.HTTPException) as exc:
                last_error = exc
                log.warning("request failed (%s), attempt %d: %s", url, attempt + 1, exc)
                continue
            if response.status_code == 429 or response.status_code >= 500:
                last_error = ArchiveError(f"HTTP {response.status_code} from {url}")
                log.warning("retriable HTTP %d from %s", response.status_code, url)
                continue
            return response, attempt
        raise ArchiveError(f"gave up on {url} after {self.max_retries} attempts") from last_error

    def close(self) -> None:
        """Close the session's connections."""
        self.session.close()

    def fetch_cdx_index(
        self,
        site: str,
        window: tuple[MonthStamp, MonthStamp],
        per_month: int = 1,
    ) -> list[SnapshotRef]:
        """Captures the CDX endpoint reports for a site within the window.

        Results come back ordered by timestamp, optionally collapsed to
        the first per_month captures of each month (0 keeps all; a
        negative per_month is a ValueError).  Malformed rows, and
        rows repeating an earlier row's timestamp (an http and an https
        capture of the same second), are skipped and counted on the client.
        """
        start, end = window
        if end < start:
            raise ValueError(f"empty crawl window: {start}..{end}")
        if per_month < 0:
            raise ValueError(f"per_month must be >= 0, got {per_month}")
        params = {
            "url": site,
            "output": "json",
            "from": f"{start.year:04d}{start.month:02d}",
            "to": f"{end.year:04d}{end.month:02d}",
            "fl": "timestamp,original,statuscode,mimetype",
        }
        response, _ = self._request(f"{self.cdx_base}/cdx/search/cdx", params=params)
        if not response.text.strip():
            return []
        try:
            rows = response.json()
        except ValueError:
            raise ArchiveError(f"CDX returned non-JSON for {site}")
        if not isinstance(rows, list):
            raise ArchiveError(f"CDX returned JSON that is not a list for {site}")
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
        refs.sort(key=lambda r: r.timestamp)  # stable: the first row per timestamp leads
        unique = [r for i, r in enumerate(refs) if i == 0 or r.timestamp != refs[i - 1].timestamp]
        if len(unique) < len(refs):
            self.cdx_rows_skipped += len(refs) - len(unique)
            log.warning("skipping %d CDX rows for %s that repeat a timestamp",
                        len(refs) - len(unique), site)
            refs = unique
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

        An answer of 400 or above yields an empty body (dead-state evidence)
        and the index's ref; transport failures raise ArchiveError after
        retries.  The document carries the retries its download spent.
        """
        if self.cache is not None:
            cached = self.cache.get(ref.site, ref.timestamp)
            if cached is not None:
                return SnapshotDocument(ref, cached)
        url = f"{self.web_base}/web/{ref.timestamp}id_/{ref.original_url}"
        response, retries = self._request(url)
        html = b"" if response.status_code >= 400 else response.content
        if self.cache is not None:
            self.cache.put(ref.site, ref.timestamp, html)
        return SnapshotDocument(ref, html, retries)


def crawl_sites(
    client: WaybackClient,
    sites: Iterable[str],
    window: tuple[MonthStamp, MonthStamp],
    per_month: int = 1,
    workers: int = 4,
) -> CrawlManifest:
    """Index and download one crawl; returns the manifest of outcomes.

    Snapshot fetches run on a bounded worker pool behind the client's
    global rate limiter, with at most ``FETCHES_QUEUED_PER_WORKER`` fetches
    per worker submitted and not yet taken, so memory does not grow with
    the number of captures.  Their entries are taken and appended in the
    order of the refs (sites sorted, each site's captures by timestamp),
    so the manifest does not depend on ``workers``.  Sites whose CDX query fails
    are recorded with zero entries rather than aborting the crawl.  The
    client's connections are closed when the crawl ends.
    """
    try:
        manifest = CrawlManifest(window=window)
        refs: list[SnapshotRef] = []
        for site in sorted(set(sites)):
            manifest.entries[site] = []
            try:
                refs.extend(client.fetch_cdx_index(site, window, per_month=per_month))
            except ArchiveError as exc:
                log.error("CDX index failed for %s: %s", site, exc)
                manifest.cdx_failures.append(site)

        def fetch(ref: SnapshotRef) -> ManifestEntry:
            try:
                doc = client.fetch_snapshot(ref)
            except ArchiveError:
                return ManifestEntry(ref, FAILED, retries=client.max_retries)
            dead = auto_dead_state(doc) is SiteState.DEAD
            return ManifestEntry(ref, FETCHED, retries=doc.retries,
                                 auto_state="dead" if dead else None)

        def take(future) -> None:
            entry = future.result()
            manifest.entries[entry.ref.site].append(entry)

        workers = max(1, workers)
        queued: deque = deque()
        with ThreadPoolExecutor(max_workers=workers) as pool:
            for ref in refs:
                if len(queued) == FETCHES_QUEUED_PER_WORKER * workers:
                    take(queued.popleft())
                queued.append(pool.submit(fetch, ref))
            while queued:
                take(queued.popleft())
        return manifest
    finally:
        client.close()


def load_documents(
    cache: SnapshotCache, manifest: CrawlManifest, sites: Iterable[str] | None = None
) -> Iterator[SnapshotDocument]:
    """Pages of the crawl in (site, ts) order: fetched, not dead in the
    ledger, with a non-empty cached body.  No other rule picks pages."""
    wanted = set(sites) if sites is not None else None
    for site in manifest.sites():
        if wanted is not None and site not in wanted:
            continue
        for entry in manifest.entries[site]:
            if entry.fetch_status != FETCHED or entry.auto_state == "dead":
                continue
            html = cache.get(site, entry.ref.timestamp)
            if html is None:
                log.warning("cache miss for %s %s", site, entry.ref.timestamp)
            elif html:
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
