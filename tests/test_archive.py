import gzip
import http.client
import json
import os
import random
import re
import ssl
import sys
import threading
import time
import zlib
from contextlib import contextmanager
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path
from urllib.parse import parse_qsl, urlsplit

import pytest

from newsforensics import archive
from newsforensics.archive import (
    FAILED,
    FETCHED,
    MAX_REDIRECTS,
    ArchiveError,
    CrawlManifest,
    HttpSession,
    ManifestEntry,
    RateLimiter,
    Response,
    SnapshotCache,
    SnapshotDocument,
    SnapshotRef,
    WaybackClient,
    auto_dead_state,
    build_timelines,
    crawl_sites,
    load_documents,
    prepare_url,
)
from newsforensics.timeline import MonthStamp, SiteState

from fakes import FakeSession, VirtualClock
from fixture_corpus import build_corpus, serve

A, Z, D, M = SiteState.ALIVE, SiteState.ZOMBIE, SiteState.DEAD, SiteState.MISSING

WINDOW = (MonthStamp(2016, 1), MonthStamp(2016, 6))

CDX_ROWS = [
    ["20160105120000", "http://example.com/", "200", "text/html"],
    ["20160118090100", "http://example.com/", "200", "text/html"],
    ["20160203000000", "http://example.com/", "200", "text/html"],
    ["20160310101010", "http://example.com/", "404", "text/html"],
    ["20160401235959", "http://example.com/", "200", "text/html"],
    ["20160602010203", "http://example.com/", "301", "text/html"],
]


def make_client(tmp_path=None, rate_limit=0.0, **kwargs):
    clock = VirtualClock()
    session = FakeSession(clock=clock)
    cache = SnapshotCache(tmp_path / "cache") if tmp_path else None
    client = WaybackClient(
        cdx_base="https://archive.test",
        web_base="https://archive.test",
        session=session,
        cache=cache,
        rate_limit=rate_limit,
        clock=clock,
        sleep=clock.sleep,
        **kwargs,
    )
    return client, session, clock


class TestSnapshotRef:
    @pytest.mark.parametrize("timestamp", ["20150101000000\n", "2015010100000", "2015-01-01"])
    def test_timestamp_must_be_exactly_fourteen_digits(self, timestamp):
        with pytest.raises(ValueError, match="bad archive timestamp"):
            SnapshotRef("a.com", timestamp, "http://a.com/")


class TestFetchCdxIndex:
    def test_fixture_rows_roundtrip(self):
        client, session, _ = make_client()
        session.route_cdx("example.com", CDX_ROWS)
        refs = client.fetch_cdx_index("example.com", WINDOW, per_month=0)
        assert len(refs) == 6
        assert [r.timestamp for r in refs] == sorted(row[0] for row in CDX_ROWS)
        assert refs[0].status_code == 200
        assert refs[3].status_code == 404

    def test_empty_body(self):
        client, session, _ = make_client()
        session.route_cdx_raw("example.com", Response(200, b""))
        assert client.fetch_cdx_index("example.com", WINDOW) == []

    def test_window_excludes_all_rows(self):
        client, session, _ = make_client()
        session.route_cdx("example.com", CDX_ROWS)
        window = (MonthStamp(2019, 1), MonthStamp(2019, 12))
        assert client.fetch_cdx_index("example.com", window) == []

    def test_per_month_collapse_default_one(self):
        client, session, _ = make_client()
        session.route_cdx("example.com", CDX_ROWS)
        refs = client.fetch_cdx_index("example.com", WINDOW)
        # 2016-01 had two captures: only the first survives
        assert [r.timestamp for r in refs] == [
            "20160105120000",
            "20160203000000",
            "20160310101010",
            "20160401235959",
            "20160602010203",
        ]

    def test_per_month_two(self):
        client, session, _ = make_client()
        session.route_cdx("example.com", CDX_ROWS)
        refs = client.fetch_cdx_index("example.com", WINDOW, per_month=2)
        assert len(refs) == 6

    def test_malformed_rows_skipped_and_counted(self):
        client, session, _ = make_client()
        session.route_cdx(
            "example.com",
            [
                ["20160105120000", "http://example.com/", "200", "text/html"],
                ["not-a-timestamp", "http://example.com/", "200", "text/html"],
                ["20160210000000", "", "200", "text/html"],
            ],
        )
        refs = client.fetch_cdx_index("example.com", WINDOW)
        assert len(refs) == 1
        assert client.cdx_rows_skipped == 2

    @pytest.mark.parametrize("per_month", [0, 2])
    def test_repeated_timestamp_keeps_first_row(self, per_month):
        client, session, _ = make_client()
        session.route_cdx(
            "example.com",
            [
                ["20160105120000", "http://example.com/", "200", "text/html"],
                ["20160105120000", "https://example.com/", "200", "text/html"],
                ["20160203000000", "https://example.com/", "200", "text/html"],
                ["20160203000000", "http://example.com/", "404", "text/html"],
            ],
        )
        refs = client.fetch_cdx_index("example.com", WINDOW, per_month=per_month)
        assert [(r.timestamp, r.original_url) for r in refs] == [
            ("20160105120000", "http://example.com/"),
            ("20160203000000", "https://example.com/"),
        ]
        assert client.cdx_rows_skipped == 2

    def test_negative_per_month_rejected(self):
        client, session, _ = make_client()
        session.route_cdx("example.com", CDX_ROWS)
        with pytest.raises(ValueError, match="per_month must be >= 0"):
            client.fetch_cdx_index("example.com", WINDOW, per_month=-1)
        assert session.requests == []

    @pytest.mark.parametrize("body", [b'{"error": "busy"}', b"null", b"5"],
                             ids=["object", "null", "number"])
    def test_json_that_is_not_a_list_is_a_cdx_failure(self, tmp_path, body):
        client, session, _ = make_client(tmp_path)
        session.route_cdx_raw("busy.net", Response(200, body))
        seeded_session(session)
        with pytest.raises(ArchiveError, match="^CDX returned JSON that is not a list for busy.net$"):
            client.fetch_cdx_index("busy.net", WINDOW)
        manifest = crawl_sites(client, ["busy.net", "example.com"], WINDOW)
        assert manifest.cdx_failures == ["busy.net"]
        assert manifest.entries["busy.net"] == []
        assert [e.fetch_status for e in manifest.entries["example.com"]] == [FETCHED, FETCHED]

    def test_status_dash_becomes_none(self):
        client, session, _ = make_client()
        session.route_cdx(
            "example.com", [["20160105120000", "http://example.com/", "-", "warc/revisit"]]
        )
        refs = client.fetch_cdx_index("example.com", WINDOW, per_month=0)
        assert refs[0].status_code is None


class TestFetchSnapshot:
    REF = SnapshotRef("example.com", "20160105120000", "http://example.com/", 200, "text/html")

    def test_body_bytes_identical(self, tmp_path):
        client, session, _ = make_client(tmp_path)
        body = b"<html><body>" + b"x" * 2048 + b"</body></html>"
        session.route_snapshot("/web/20160105120000id_/http://example.com/", Response(200, body))
        doc = client.fetch_snapshot(self.REF)
        assert doc.html == body
        assert client.cache.get("example.com", "20160105120000") == body

    def test_archived_404_yields_empty_body(self, tmp_path):
        client, session, _ = make_client(tmp_path)
        session.route_snapshot(
            "/web/20160105120000id_/http://example.com/",
            Response(404, b"replay error page"),
        )
        doc = client.fetch_snapshot(self.REF)
        assert doc.html == b""
        assert doc.ref == self.REF  # the index's ref; the empty body is the evidence
        assert client.cache.get("example.com", "20160105120000") == b""

    def test_cache_hit_issues_no_request(self, tmp_path):
        client, session, _ = make_client(tmp_path)
        body = b"<html>cached</html>"
        session.route_snapshot("/web/20160105120000id_/http://example.com/", Response(200, body))
        first = client.fetch_snapshot(self.REF)
        before = client.request_count
        second = client.fetch_snapshot(self.REF)
        assert second.html == first.html
        assert client.request_count == before

    def test_transport_failure_retried_then_succeeds(self, tmp_path):
        client, session, clock = make_client(tmp_path)
        session.failures_remaining = 2
        session.route_snapshot("/web/20160105120000id_/http://example.com/", Response(200, b"ok"))
        doc = client.fetch_snapshot(self.REF)
        assert doc.html == b"ok"
        assert client.request_count == 3
        assert doc.retries == 2
        assert clock.now > 0  # backoff slept on the virtual clock
        assert client.fetch_snapshot(self.REF).retries == 0  # cache hit

    def test_persistent_failure_raises(self, tmp_path):
        client, session, _ = make_client(tmp_path)
        session.failures_remaining = 99
        with pytest.raises(ArchiveError, match="gave up"):
            client.fetch_snapshot(self.REF)
        assert client.request_count == 3

    def test_server_errors_retried(self, tmp_path):
        client, session, _ = make_client(tmp_path)
        session.route_snapshot(
            "/web/20160105120000id_/http://example.com/", Response(503, b"")
        )
        with pytest.raises(ArchiveError):
            client.fetch_snapshot(self.REF)
        assert client.request_count == 3


class TestRateLimiter:
    def test_spacing_enforced(self):
        clock = VirtualClock()
        limiter = RateLimiter(2.0, clock=clock, sleep=clock.sleep)
        stamps = []
        for _ in range(5):
            limiter.acquire()
            stamps.append(clock.now)
        gaps = [b - a for a, b in zip(stamps, stamps[1:])]
        assert all(gap >= 0.5 - 1e-9 for gap in gaps)

    def test_client_never_exceeds_ceiling(self, tmp_path):
        client, session, clock = make_client(tmp_path, rate_limit=4.0)
        session.route_cdx("example.com", CDX_ROWS)
        for path in {f"/web/{row[0]}id_/http://example.com/" for row in CDX_ROWS}:
            session.route_snapshot(path, Response(200, b"<html>hi</html>"))
        crawl_sites(client, ["example.com"], WINDOW, per_month=0, workers=3)
        times = sorted(t for t, _ in session.requests)
        for a, b in zip(times, times[1:]):
            assert b - a >= 0.25 - 1e-9

    def test_zero_rate_means_unthrottled(self):
        clock = VirtualClock()
        limiter = RateLimiter(0.0, clock=clock, sleep=clock.sleep)
        for _ in range(10):
            limiter.acquire()
        assert clock.now == 0.0


class TestAutoDeadState:
    def ref(self, status):
        return SnapshotRef("a.com", "20160101000000", "http://a.com/", status)

    def test_empty_body_dead(self):
        assert auto_dead_state(SnapshotDocument(self.ref(200), b"")) is D

    def test_error_status_with_body_dead(self):
        doc = SnapshotDocument(self.ref(500), b"<html>oops</html>")
        assert auto_dead_state(doc) is D

    def test_healthy_page_unknown(self):
        doc = SnapshotDocument(self.ref(200), b"<html>news</html>")
        assert auto_dead_state(doc) is None

    def test_missing_status_with_body_unknown(self):
        doc = SnapshotDocument(self.ref(None), b"<html>x</html>")
        assert auto_dead_state(doc) is None


def seeded_session(session):
    """Two sites, mixed outcomes."""
    session.route_cdx(
        "example.com",
        [
            ["20160105120000", "http://example.com/", "200", "text/html"],
            ["20160203000000", "http://example.com/", "404", "text/html"],
        ],
    )
    session.route_cdx("empty.org", [])
    session.route_snapshot(
        "/web/20160105120000id_/http://example.com/", Response(200, b"<html>news</html>")
    )
    session.route_snapshot(
        "/web/20160203000000id_/http://example.com/", Response(404, b"")
    )


class TestCrawlSites:
    def test_manifest_outcomes(self, tmp_path):
        client, session, _ = make_client(tmp_path)
        seeded_session(session)
        manifest = crawl_sites(client, ["example.com", "empty.org"], WINDOW, workers=2)
        assert manifest.sites() == ["empty.org", "example.com"]
        entries = manifest.entries["example.com"]
        assert [e.fetch_status for e in sorted(entries, key=lambda e: e.ref.timestamp)] == [
            FETCHED,
            FETCHED,
        ]
        by_ts = {e.ref.timestamp: e for e in entries}
        assert by_ts["20160203000000"].auto_state == "dead"
        assert by_ts["20160105120000"].auto_state is None
        assert manifest.entries["empty.org"] == []

    @pytest.mark.parametrize("workers", [1, 3, 8])
    def test_cache_and_manifest_deterministic(self, tmp_path, workers):
        outputs = []
        for run, run_workers in (("serial", 1), ("one", workers), ("two", workers)):
            client, session, _ = make_client(tmp_path / run)
            seeded_session(session)
            session.route_cdx("busy.net", [
                [f"2016{m:02d}05120000", "http://busy.net/", "200", "text/html"]
                for m in range(1, 7)
            ])
            for m in range(1, 7):
                session.route_snapshot(f"/web/2016{m:02d}05120000id_/http://busy.net/",
                                       Response(200, f"<html>{m}</html>".encode()))
            get = session.get

            def earlier_finishes_later(url, params=None, get=get):
                month = re.search(r"/web/2016(\d\d)", url)
                if month:
                    time.sleep((7 - int(month.group(1))) * 0.005)
                return get(url, params)

            session.get = earlier_finishes_later
            manifest = crawl_sites(client, ["example.com", "busy.net", "empty.org"], WINDOW,
                                   workers=run_workers)
            manifest_path = tmp_path / run / "manifest.json"
            manifest.save(manifest_path)
            cache_dump = {
                str(p.relative_to(tmp_path / run)): p.read_bytes()
                for p in sorted((tmp_path / run).rglob("*.html"))
            }
            outputs.append((manifest_path.read_bytes(), cache_dump))
        assert outputs[0] == outputs[1] == outputs[2]

    @pytest.mark.parametrize("workers", [1, 2, 4])
    def test_fetch_queue_is_bounded_per_worker(self, tmp_path, workers, monkeypatch):
        client, session, _ = make_client(tmp_path)
        sites = [f"site{i:02d}.com" for i in range(40)]
        for site in sites:  # 40 sites x 6 months = 240 captures
            session.route_cdx(site, [[f"2016{m:02d}05120000", f"http://{site}/", "200",
                                      "text/html"] for m in range(1, 7)])
        counts = {"outstanding": 0, "peak": 0}

        class CountingPool(archive.ThreadPoolExecutor):
            """Counts futures submitted whose result has not been taken."""

            def submit(self, fn, *args, **kwargs):
                future = super().submit(fn, *args, **kwargs)
                counts["outstanding"] += 1
                counts["peak"] = max(counts["peak"], counts["outstanding"])
                result = future.result

                def take(*args, **kwargs):
                    counts["outstanding"] -= 1
                    return result(*args, **kwargs)

                future.result = take
                return future

        monkeypatch.setattr(archive, "ThreadPoolExecutor", CountingPool)
        manifest = crawl_sites(client, sites, WINDOW, workers=workers)
        assert sum(map(len, manifest.entries.values())) == 240
        assert counts["outstanding"] == 0
        assert counts["peak"] == archive.FETCHES_QUEUED_PER_WORKER * workers

    def test_warm_cache_issues_zero_snapshot_requests(self, tmp_path):
        client, session, _ = make_client(tmp_path)
        seeded_session(session)
        crawl_sites(client, ["example.com"], WINDOW)
        assert session.snapshot_request_count() == 2
        crawl_sites(client, ["example.com"], WINDOW)
        assert session.snapshot_request_count() == 2  # still: cache answered

    def test_failed_fetch_recorded(self, tmp_path):
        client, session, _ = make_client(tmp_path)
        session.route_cdx(
            "example.com", [["20160105120000", "http://example.com/", "200", "text/html"]]
        )
        # no snapshot route: FakeSession 404s, which is a legal archive answer;
        # force transport failures instead
        session.failures_remaining = 99
        manifest = crawl_sites(client, ["example.com"], WINDOW)
        assert manifest.entries["example.com"] == []  # CDX itself failed

    @pytest.mark.parametrize("per_month", [0, 2])
    def test_repeated_cdx_timestamps_crawl_once(self, tmp_path, per_month):
        client, session, _ = make_client(tmp_path)
        rows = []
        for ts in ("20160105120000", "20160118090100", "20160203000000"):
            for scheme in ("http", "https"):
                rows.append([ts, f"{scheme}://example.com/", "200", "text/html"])
                session.route_snapshot(
                    f"/web/{ts}id_/{scheme}://example.com/", Response(200, b"<html>news</html>")
                )
        session.route_cdx("example.com", rows)
        manifest = crawl_sites(client, ["example.com"], WINDOW, per_month=per_month, workers=2)
        entries = sorted(manifest.entries["example.com"], key=lambda e: e.ref.timestamp)
        assert [(e.ref.timestamp, e.ref.original_url, e.fetch_status) for e in entries] == [
            ("20160105120000", "http://example.com/", FETCHED),
            ("20160118090100", "http://example.com/", FETCHED),
            ("20160203000000", "http://example.com/", FETCHED),
        ]
        assert session.snapshot_request_count() == 3
        assert client.cdx_rows_skipped == 3

    @staticmethod
    def ledger_row(timestamp, fetch_status=FETCHED):
        return {"timestamp": timestamp, "original_url": "http://a.com/", "status_code": 200,
                "mime_type": "text/html", "fetch_status": fetch_status, "retries": 0,
                "auto_state": None}

    def test_duplicate_entry_rejected(self, tmp_path):
        rows = [self.ledger_row("20160101000000"), self.ledger_row("20160201000000"),
                self.ledger_row("20160101000000", FAILED)]
        path = tmp_path / "manifest.json"
        path.write_text(json.dumps({"window": None, "sites": {"b.com": [], "a.com": rows}}))
        with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: duplicate manifest "
                                             "entry: a.com 20160101000000$"):
            CrawlManifest.load(path)

    def test_out_of_order_rows_load_sorted(self, tmp_path):
        stamps = ["20160301000000", "20160101000000", "20160201000000"]
        path = tmp_path / "manifest.json"
        path.write_text(json.dumps({"sites": {"a.com": [self.ledger_row(t) for t in stamps]}}))
        manifest = CrawlManifest.load(path)
        assert [e.ref.timestamp for e in manifest.entries["a.com"]] == sorted(stamps)
        manifest.save(path)
        saved = json.loads(path.read_text())["sites"]["a.com"]
        assert [row["timestamp"] for row in saved] == sorted(stamps)

    def test_manifest_roundtrip(self, tmp_path):
        client, session, _ = make_client(tmp_path)
        seeded_session(session)
        manifest = crawl_sites(client, ["example.com", "empty.org"], WINDOW)
        path = tmp_path / "manifest.json"
        manifest.save(path)
        back = CrawlManifest.load(path)
        assert back.to_dict() == manifest.to_dict()
        assert back.window == WINDOW

    def test_failed_save_keeps_previous_manifest(self, tmp_path, monkeypatch):
        path = tmp_path / "crawl_manifest.json"
        CrawlManifest(window=WINDOW, cdx_failures=["a.com"]).save(path)
        before = path.read_bytes()
        written = []

        def failing_replace(src, dst):
            written.append(Path(src).read_bytes())
            raise OSError("disk full")

        monkeypatch.setattr(os, "replace", failing_replace)
        with pytest.raises(OSError, match="disk full"):
            CrawlManifest(window=WINDOW, cdx_failures=["b.com"]).save(path)
        assert b'"b.com"' in written[0]
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["crawl_manifest.json"]


class TestLoadDocuments:
    def test_reads_fetched_entries(self, tmp_path):
        client, session, _ = make_client(tmp_path)
        seeded_session(session)
        manifest = crawl_sites(client, ["example.com"], WINDOW)
        docs = list(load_documents(client.cache, manifest))
        # the archived 404 is a dead capture, not a page
        assert [d.ref.timestamp for d in docs] == ["20160105120000"]
        assert docs[0].html == b"<html>news</html>"

    def test_site_filter(self, tmp_path):
        client, session, _ = make_client(tmp_path)
        seeded_session(session)
        manifest = crawl_sites(client, ["example.com", "empty.org"], WINDOW)
        docs = list(load_documents(client.cache, manifest, sites=["empty.org"]))
        assert docs == []

    def test_older_dead_capture_with_a_cached_body_is_no_page(self, tmp_path):
        """A ledger from before error answers were cached empty: the body of
        a 403 is in the cache, and only the ledger's verdict marks it dead."""
        cache = SnapshotCache(tmp_path / "cache")
        manifest = CrawlManifest(window=WINDOW)
        manifest.entries["a.com"] = [
            ManifestEntry(SnapshotRef("a.com", ts, "http://a.com/", 200), FETCHED,
                          auto_state=auto)
            for ts, auto in (("20160105120000", "dead"), ("20160203000000", None))
        ]
        cache.put("a.com", "20160105120000", b"<html>403 error page</html>")
        cache.put("a.com", "20160203000000", b"<html>news</html>")
        assert [(d.ref.timestamp, d.html) for d in load_documents(cache, manifest)] == [
            ("20160203000000", b"<html>news</html>")]


class FlakySession(FakeSession):
    """A FakeSession whose first answers to some paths are transient faults
    (a dropped connection or a 503), fewer than the client's attempts."""

    def __init__(self, clock, faults: dict[str, list]):
        super().__init__(clock=clock)
        self.faults = faults
        self._lock = threading.Lock()

    def get(self, url, params=None):
        path = urlsplit(url).path
        if path.endswith("/cdx/search/cdx"):
            path = (params or {})["url"]
        with self._lock:
            fault = self.faults[path].pop() if self.faults.get(path) else None
        if fault is None:
            return super().get(url, params)
        self.requests.append((self._clock(), urlsplit(url).path))
        if fault == "drop":
            raise ConnectionError("synthetic transport failure")
        return Response(503, b"busy")


@pytest.mark.parametrize("seed", range(12))
def test_warm_recrawl_repeats_every_verdict_and_pages_are_the_live_captures(tmp_path, seed):
    rng = random.Random(seed)
    clock = VirtualClock()
    faults: dict[str, list] = {}
    session = FlakySession(clock, faults)
    pages: dict[tuple[str, str], bytes] = {}
    captures = 0
    for i in range(rng.randint(2, 6)):
        site = f"site{i}.com"
        rows = []
        for month in rng.sample(range(1, 7), rng.randint(0, 6)):
            ts = f"2016{month:02d}{rng.randint(1, 28):02d}120000"
            index_status = rng.choice(["200", "-", "404", "403"])
            rows.append([ts, f"http://{site}/", index_status, "text/html"])
            body = f"<html><p>{site} {ts}</p></html>".encode()
            replay, answer = rng.choice([(200, body), (200, b""), (403, body), (451, body),
                                         (404, b"")])
            path = f"/web/{ts}id_/http://{site}/"
            session.route_snapshot(path, Response(replay, answer))
            faults[path] = rng.choices(["drop", 503], k=rng.choice([0, 0, 1, 2]))
            if index_status not in ("403", "404") and replay == 200 and answer:
                pages[site, ts] = answer
            captures += 1
        session.route_cdx(site, rows)
        faults[site] = rng.choices(["drop", 503], k=rng.choice([0, 1, 2]))
    client = WaybackClient(cdx_base="https://archive.test", web_base="https://archive.test",
                           session=session, cache=SnapshotCache(tmp_path / "cache"),
                           rate_limit=0, clock=clock, sleep=clock.sleep)
    sites = sorted(session.cdx)
    workers = rng.randint(1, 4)

    def ledger(manifest):
        rows = manifest.to_dict()
        for per_site in rows["sites"].values():
            for row in per_site:
                del row["retries"]
        return rows

    retries = {path: len(f) for path, f in faults.items()}
    cold = crawl_sites(client, sites, WINDOW, per_month=0, workers=workers)
    assert not cold.cdx_failures
    before = session.snapshot_request_count()
    warm = crawl_sites(client, sites, WINDOW, per_month=0, workers=workers)
    assert session.snapshot_request_count() == before  # the cache answered every capture
    assert ledger(warm) == ledger(cold)
    assert all(e.retries == 0 for per_site in warm.entries.values() for e in per_site)
    entries = [e for per_site in cold.entries.values() for e in per_site]
    assert len(entries) == captures and all(e.fetch_status == FETCHED for e in entries)
    assert [e.retries for e in entries] == [
        retries[f"/web/{e.ref.timestamp}id_/{e.ref.original_url}"] for e in entries]
    assert {(e.ref.site, e.ref.timestamp) for e in entries if e.auto_state != "dead"} == set(pages)
    docs = [(d.ref.site, d.ref.timestamp, d.html) for d in load_documents(client.cache, warm)]
    assert docs == [(site, ts, html) for (site, ts), html in sorted(pages.items())]


class TestBuildTimelines:
    def manifest_for(self, site="example.com", entries=(), window=WINDOW):
        manifest = CrawlManifest(window=window)
        manifest.entries[site] = [
            ManifestEntry(SnapshotRef(site, ts, f"http://{site}/"), FETCHED, auto_state=auto)
            for ts, auto in entries
        ]
        return manifest

    def test_single_annotation_rest_missing(self):
        window = (MonthStamp(2016, 1), MonthStamp(2016, 4))
        manifest = self.manifest_for(window=window)
        annotations = {"example.com": {MonthStamp(2016, 3): [A]}}
        (t,) = build_timelines(manifest, annotations, ["example.com"], window)
        assert t.states == "MMAM"

    def test_alive_annotation_beats_auto_dead(self):
        manifest = self.manifest_for(entries=[("20160315000000", "dead")])
        annotations = {"example.com": {MonthStamp(2016, 3): [A]}}
        (t,) = build_timelines(manifest, annotations, ["example.com"], WINDOW)
        assert t.window(MonthStamp(2016, 3), MonthStamp(2016, 3)) == "A"

    def test_auto_dead_alone_yields_dead_month(self):
        manifest = self.manifest_for(entries=[("20160315000000", "dead")])
        (t,) = build_timelines(manifest, {}, ["example.com"], WINDOW)
        assert t.window(MonthStamp(2016, 3), MonthStamp(2016, 3)) == "D"

    def test_site_without_captures_all_missing(self):
        manifest = self.manifest_for()
        (t,) = build_timelines(manifest, {}, ["example.com"], WINDOW)
        assert set(t.states) == {M}
        assert len(t) == 6

    def test_annotated_but_uncrawled_site_keeps_evidence(self):
        window = (MonthStamp(2016, 1), MonthStamp(2016, 3))
        manifest = self.manifest_for(site="crawled.com", window=window)
        annotations = {"only-annotated.com": {MonthStamp(2016, 2): [A]}}
        timelines = build_timelines(
            manifest, annotations, ["crawled.com", "only-annotated.com"], window
        )
        by_site = {t.site: t for t in timelines}
        assert by_site["only-annotated.com"].states == "MAM"
        assert by_site["crawled.com"].states == "MMM"

    def test_cohort_site_never_seen_is_all_missing(self):
        window = (MonthStamp(2016, 1), MonthStamp(2016, 3))
        (t,) = build_timelines(CrawlManifest(window=window), {}, ["ghost.com"], window)
        assert t.site == "ghost.com"
        assert t.states == "MMM"

    def test_without_manifest_annotations_alone(self):
        annotations = {"example.com": {MonthStamp(2016, 2): [Z, D]}}
        (t,) = build_timelines(None, annotations, ["example.com"], WINDOW)
        assert t.states == "MZMMMM"

    def test_only_requested_sites_built(self):
        manifest = self.manifest_for(entries=[("20160315000000", "dead")])
        annotations = {"other.net": {MonthStamp(2016, 1): [A]}}
        timelines = build_timelines(manifest, annotations, ["third.org"], WINDOW)
        assert [t.site for t in timelines] == ["third.org"]
        assert set(timelines[0].states) == {M}

    def test_unknown_capture_without_annotation_is_missing(self):
        manifest = self.manifest_for(entries=[("20160315000000", None)])
        (t,) = build_timelines(manifest, {}, ["example.com"], WINDOW)
        assert t.window(MonthStamp(2016, 3), MonthStamp(2016, 3)) == "M"


class _Handler(BaseHTTPRequestHandler):
    """Keep-alive handler answering from its server's ``respond(path)``."""

    protocol_version = "HTTP/1.1"

    def log_message(self, *args):
        pass

    def setup(self):
        super().setup()
        with self.server.lock:
            self.server.opened += 1

    def finish(self):
        super().finish()
        with self.server.lock:
            self.server.closed += 1

    def do_GET(self):
        with self.server.lock:
            self.server.seen.append((self.path, dict(self.headers)))
        status, headers, body = self.server.respond(self.path)
        self.send_response(status)
        for name, value in headers.items():
            self.send_header(name, value)
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)
        # closing without "Connection: close" is a server timing out an idle connection
        self.close_connection = self.server.drop_idle


TEST_CERT = Path(__file__).parent / "data" / "localhost-cert.pem"  # self-signed, for 127.0.0.1


@contextmanager
def local_server(respond, drop_idle=False, tls=False):
    server = ThreadingHTTPServer(("127.0.0.1", 0), _Handler)
    server.daemon_threads = True
    server.respond, server.drop_idle = respond, drop_idle
    server.lock = threading.Lock()
    server.opened = server.closed = 0
    server.seen = []
    server.url = f"http://127.0.0.1:{server.server_port}"
    if tls:
        context = ssl.SSLContext(ssl.PROTOCOL_TLS_SERVER)
        context.load_cert_chain(TEST_CERT, TEST_CERT.with_name("localhost-key.pem"))
        server.socket = context.wrap_socket(server.socket, server_side=True)
        server.url = f"https://127.0.0.1:{server.server_port}"
    thread = threading.Thread(target=server.serve_forever, args=(0.05,), daemon=True)
    thread.start()
    try:
        yield server
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=5)
        assert not thread.is_alive()


def wait_for(condition, seconds=5.0):
    deadline = time.monotonic() + seconds
    while not condition() and time.monotonic() < deadline:
        time.sleep(0.01)
    return condition()


def archive_routes(path):
    """CDX rows for any site, one per month of WINDOW, and a page per capture."""
    split = urlsplit(path)
    if split.path == "/cdx/search/cdx":
        site = dict(parse_qsl(split.query))["url"]
        rows = [["timestamp", "original", "statuscode", "mimetype"]] + [
            [f"2016{m:02d}05120000", f"http://{site}/", "200", "text/html"] for m in range(1, 7)
        ]
        return 200, {"Content-Type": "application/json"}, json.dumps(rows).encode()
    return 200, {}, f"<html>{split.path}</html>".encode()


def live_client(base, **kwargs):
    kwargs.setdefault("rate_limit", 0.0)
    kwargs.setdefault("backoff_base", 0.0)
    return WaybackClient(cdx_base=base, web_base=base, **kwargs)


class TestHttpSession:
    def test_sequential_gets_share_one_connection(self):
        with local_server(lambda path: (200, {}, path.encode())) as server:
            session = HttpSession(10.0)
            bodies = [session.get(f"{server.url}/p{i}").content for i in range(8)]
            assert bodies == [f"/p{i}".encode() for i in range(8)]
            assert server.opened == 1
            session.close()
            assert wait_for(lambda: server.closed == 1)

    def test_dropped_idle_connection_reconnects_without_retry(self, tmp_path):
        with local_server(archive_routes, drop_idle=True) as server:
            client = live_client(server.url, cache=SnapshotCache(tmp_path / "cache"),
                                 max_retries=1)
            manifest = crawl_sites(client, ["a.com", "b.com"], WINDOW, workers=1)
            entries = [e for site in manifest.sites() for e in manifest.entries[site]]
            assert len(entries) == 12
            assert {(e.fetch_status, e.retries) for e in entries} == {(FETCHED, 0)}
            assert client.request_count == 14 == len(server.seen) == server.opened

    def test_crawl_closes_its_connections(self, tmp_path):
        with local_server(archive_routes) as server:
            client = live_client(server.url, cache=SnapshotCache(tmp_path / "cache"))
            crawl_sites(client, ["a.com", "b.com", "c.com"], WINDOW, workers=3)
            assert 1 < server.opened <= 4  # the CDX thread plus at most one per worker
            assert wait_for(lambda: server.closed == server.opened)

    def test_relative_and_absolute_redirects_followed(self):
        def respond(path):
            hops = {
                "/start": (302, "/abs-path"),
                "/abs-path": (301, "rel/x?q=1"),
                "/rel/x?q=1": (307, f"{server.url}/full/url"),
                "/full/url": (308, "../last"),
            }
            if path in hops:
                status, location = hops[path]
                return status, {"Location": location}, b"moved"
            return 200, {}, f"at {path}".encode()

        with local_server(respond) as server:
            session = HttpSession(10.0)
            assert session.get(f"{server.url}/start").content == b"at /last"
            assert [p for p, _ in server.seen] == [
                "/start", "/abs-path", "/rel/x?q=1", "/full/url", "/last"]
            assert server.opened == 1
            session.close()

    @pytest.mark.parametrize("redirects, ok", [(MAX_REDIRECTS, True), (MAX_REDIRECTS + 1, False)])
    def test_redirect_limit(self, tmp_path, redirects, ok):
        def respond(path):
            if path.startswith("/web/"):
                return 302, {"Location": "/hop/1"}, b""
            hop = int(path.rsplit("/", 1)[1])
            if hop < redirects:
                return 302, {"Location": f"/hop/{hop + 1}"}, b""
            return 200, {}, b"<html>arrived</html>"

        ref = SnapshotRef("a.com", "20160105120000", "http://a.com/")
        with local_server(respond) as server:
            client = live_client(server.url, max_retries=2)
            if ok:
                assert client.fetch_snapshot(ref).html == b"<html>arrived</html>"
                assert len(server.seen) == MAX_REDIRECTS + 1
                assert client.request_count == 1
            else:
                with pytest.raises(ArchiveError, match="gave up") as info:
                    client.fetch_snapshot(ref)
                assert isinstance(info.value.__cause__, http.client.HTTPException)
                assert len(server.seen) == 2 * (MAX_REDIRECTS + 1)
                assert client.request_count == 2
            client.close()

    @pytest.mark.parametrize("coding, encode", [
        ("gzip", gzip.compress),
        ("deflate", zlib.compress),
        ("deflate", lambda body: zlib.compress(body)[2:-4]),  # raw deflate stream
    ])
    def test_compressed_bodies_decoded(self, coding, encode):
        page = b"<html>" + b"news " * 500 + b"</html>"
        with local_server(lambda path: (200, {"Content-Encoding": coding}, encode(page))) as server:
            session = HttpSession(10.0)
            assert session.get(f"{server.url}/page").content == page
            (_, headers), = server.seen
            assert headers["Accept-Encoding"] == "gzip, deflate"
            session.close()

    def test_undecodable_body_is_a_transport_error(self):
        with local_server(lambda path: (200, {"Content-Encoding": "gzip"}, b"not gzip")) as server:
            session = HttpSession(10.0)
            with pytest.raises(http.client.HTTPException, match="undecodable gzip"):
                session.get(f"{server.url}/page")
            session.close()

    def test_tls_certificate_verified_against_trusted_store(self, monkeypatch):
        with local_server(lambda path: (200, {}, b"secure"), tls=True) as server:
            with pytest.raises(ssl.SSLCertVerificationError):
                HttpSession(10.0).get(f"{server.url}/page")
            monkeypatch.setenv("SSL_CERT_FILE", str(TEST_CERT))  # trust the test certificate
            session = HttpSession(10.0)
            assert [session.get(f"{server.url}/p{i}").content for i in range(3)] == [b"secure"] * 3
            assert server.opened == 1  # the refused handshake never reaches a handler
            session.close()

    def test_fixture_archive_http10_server(self, tmp_path):
        corpus = build_corpus(tmp_path / "corpus")
        with serve(corpus) as (base, request_log):
            client = live_client(base, cache=SnapshotCache(tmp_path / "cache"), max_retries=1)
            window = (MonthStamp(2015, 1), MonthStamp(2015, 12))
            manifest = crawl_sites(client, ["twin-a.com", "twin-b.com"], window, workers=2)
        entries = [e for site in manifest.sites() for e in manifest.entries[site]]
        assert len(entries) == 24
        assert {(e.fetch_status, e.retries) for e in entries} == {(FETCHED, 0)}
        assert client.request_count == len(request_log) == 26
        assert all(d.html.startswith(b"<html>") for d in load_documents(client.cache, manifest))

    def test_http_proxy_gets_absolute_form_and_no_proxy_bypasses_it(self, tmp_path, monkeypatch):
        for name in ("http_proxy", "HTTP_PROXY", "all_proxy", "ALL_PROXY", "no_proxy", "NO_PROXY"):
            monkeypatch.delenv(name, raising=False)
        corpus = build_corpus(tmp_path / "corpus")
        with serve(corpus) as (base, request_log):
            monkeypatch.setenv("http_proxy", base)
            assert live_client(base).fetch_cdx_index("twin-a.com", WINDOW) == []
            assert request_log[-1].startswith(f"{base}/cdx/search/cdx?url=twin-a.com&")
            monkeypatch.setenv("no_proxy", "localhost,127.0.0.1")
            live_client(base).fetch_cdx_index("twin-a.com", WINDOW)
            assert request_log[-1].startswith("/cdx/search/cdx?url=twin-a.com&")


def random_original_url(rng):
    pieces = list("aZ09-._~!$&'()*+,;=:@/?# %[]|\\^`{}<>\"\t") + [
        "%41", "%2f", "%2E", "%7e", "%zz", "%e9", "%", "..", ".", "é", "中", "\U0001f600"]
    tail = "".join(rng.choice(pieces) for _ in range(rng.randint(0, 16)))
    return f"http://{rng.choice(['a.com', 'Mixed.Case.org'])}/{tail}"


def test_request_target_matches_requests_path_url():
    requests = pytest.importorskip("requests")
    rng = random.Random(20240611)
    for _ in range(3000):
        original = random_original_url(rng)
        url = f"https://archive.test/web/20160105120000id_/{original}"
        params = None
        if rng.random() < 0.3:
            params = {"url": original, "output": "json", "from": "201601"}
        want = requests.Request("GET", url, params=params).prepare().path_url
        assert prepare_url(url, params)[2] == want, (url, params)


def test_request_count_exact_under_thread_contention():
    client, _, _ = make_client()  # no cache: every fetch is a request
    ref = SnapshotRef("example.com", "20160105120000", "http://example.com/")
    workers, per_worker = 8, 1000

    def hammer():
        for _ in range(per_worker):
            client.fetch_snapshot(ref)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=hammer) for _ in range(workers)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert client.request_count == workers * per_worker
