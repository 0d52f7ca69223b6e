import pytest

from newsforensics.archive import (
    FAILED,
    FETCHED,
    ArchiveError,
    CrawlManifest,
    ManifestEntry,
    RateLimiter,
    SnapshotCache,
    SnapshotDocument,
    SnapshotRef,
    WaybackClient,
    auto_dead_state,
    build_timelines,
    crawl_sites,
    load_documents,
)
from newsforensics.timeline import MonthStamp, SiteState

from fakes import FakeResponse, FakeSession, VirtualClock

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


class TestFetchCdxIndex:
    def test_fixture_rows_roundtrip(self):
        client, session, _ = make_client()
        session.route_cdx("example.com", CDX_ROWS)
        refs = client.fetch_cdx_index("example.com", WINDOW, per_month=None)
        assert len(refs) == 6
        assert [r.timestamp for r in refs] == sorted(row[0] for row in CDX_ROWS)
        assert refs[0].status_code == 200
        assert refs[3].status_code == 404

    def test_empty_body(self):
        client, session, _ = make_client()
        session.route_cdx_raw("example.com", FakeResponse(200, b""))
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

    def test_status_dash_becomes_none(self):
        client, session, _ = make_client()
        session.route_cdx(
            "example.com", [["20160105120000", "http://example.com/", "-", "warc/revisit"]]
        )
        refs = client.fetch_cdx_index("example.com", WINDOW, per_month=None)
        assert refs[0].status_code is None


class TestFetchSnapshot:
    REF = SnapshotRef("example.com", "20160105120000", "http://example.com/", 200, "text/html")

    def test_body_bytes_identical(self, tmp_path):
        client, session, _ = make_client(tmp_path)
        body = b"<html><body>" + b"x" * 2048 + b"</body></html>"
        session.route_snapshot("/web/20160105120000id_/http://example.com/", FakeResponse(200, body))
        doc = client.fetch_snapshot(self.REF)
        assert doc.html == body
        assert client.cache.get("example.com", "20160105120000") == body

    def test_archived_404_yields_empty_body(self, tmp_path):
        client, session, _ = make_client(tmp_path)
        session.route_snapshot(
            "/web/20160105120000id_/http://example.com/",
            FakeResponse(404, b"replay error page"),
        )
        doc = client.fetch_snapshot(self.REF)
        assert doc.html == b""
        assert doc.ref.status_code == 404

    def test_cache_hit_issues_no_request(self, tmp_path):
        client, session, _ = make_client(tmp_path)
        body = b"<html>cached</html>"
        session.route_snapshot("/web/20160105120000id_/http://example.com/", FakeResponse(200, body))
        first = client.fetch_snapshot(self.REF)
        before = client.request_count
        second = client.fetch_snapshot(self.REF)
        assert second.html == first.html
        assert client.request_count == before

    def test_transport_failure_retried_then_succeeds(self, tmp_path):
        client, session, clock = make_client(tmp_path)
        session.failures_remaining = 2
        session.route_snapshot("/web/20160105120000id_/http://example.com/", FakeResponse(200, b"ok"))
        doc = client.fetch_snapshot(self.REF)
        assert doc.html == b"ok"
        assert client.request_count == 3
        assert client.last_retries == 2
        assert clock.now > 0  # backoff slept on the virtual clock
        client.fetch_snapshot(self.REF)  # cache hit resets the counter
        assert client.last_retries == 0

    def test_persistent_failure_raises(self, tmp_path):
        client, session, _ = make_client(tmp_path)
        session.failures_remaining = 99
        with pytest.raises(ArchiveError, match="gave up"):
            client.fetch_snapshot(self.REF)
        assert client.request_count == 3

    def test_server_errors_retried(self, tmp_path):
        client, session, _ = make_client(tmp_path)
        session.route_snapshot(
            "/web/20160105120000id_/http://example.com/", FakeResponse(503, b"")
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
            session.route_snapshot(path, FakeResponse(200, b"<html>hi</html>"))
        crawl_sites(client, ["example.com"], WINDOW, per_month=None, workers=3)
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
        "/web/20160105120000id_/http://example.com/", FakeResponse(200, b"<html>news</html>")
    )
    session.route_snapshot(
        "/web/20160203000000id_/http://example.com/", FakeResponse(404, b"")
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

    def test_cache_and_manifest_deterministic(self, tmp_path):
        outputs = []
        for run in ("one", "two"):
            client, session, _ = make_client(tmp_path / run)
            seeded_session(session)
            manifest = crawl_sites(client, ["example.com", "empty.org"], WINDOW, workers=3)
            manifest_path = tmp_path / run / "manifest.json"
            manifest.save(manifest_path)
            cache_dump = {
                str(p.relative_to(tmp_path / run)): p.read_bytes()
                for p in sorted((tmp_path / run).rglob("*.html"))
            }
            outputs.append((manifest_path.read_bytes(), cache_dump))
        assert outputs[0] == outputs[1]

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

    def test_duplicate_entry_rejected(self):
        manifest = CrawlManifest()
        ref = SnapshotRef("a.com", "20160101000000", "http://a.com/")
        manifest.add(ManifestEntry(ref, FETCHED))
        with pytest.raises(ValueError, match="duplicate"):
            manifest.add(ManifestEntry(ref, FAILED))

    def test_manifest_roundtrip(self, tmp_path):
        client, session, _ = make_client(tmp_path)
        seeded_session(session)
        manifest = crawl_sites(client, ["example.com", "empty.org"], WINDOW)
        path = tmp_path / "manifest.json"
        manifest.save(path)
        back = CrawlManifest.load(path)
        assert back.to_dict() == manifest.to_dict()
        assert back.window == WINDOW


class TestLoadDocuments:
    def test_reads_fetched_entries(self, tmp_path):
        client, session, _ = make_client(tmp_path)
        seeded_session(session)
        manifest = crawl_sites(client, ["example.com"], WINDOW)
        docs = list(load_documents(client.cache, manifest))
        assert [d.ref.timestamp for d in docs] == ["20160105120000", "20160203000000"]
        assert docs[0].html == b"<html>news</html>"
        assert docs[1].html == b""

    def test_site_filter(self, tmp_path):
        client, session, _ = make_client(tmp_path)
        seeded_session(session)
        manifest = crawl_sites(client, ["example.com", "empty.org"], WINDOW)
        docs = list(load_documents(client.cache, manifest, sites=["empty.org"]))
        assert docs == []


class TestBuildTimelines:
    def manifest_for(self, site="example.com", entries=(), window=WINDOW):
        manifest = CrawlManifest(window=window)
        manifest.entries.setdefault(site, [])
        for ts, auto in entries:
            manifest.add(
                ManifestEntry(
                    SnapshotRef(site, ts, f"http://{site}/"), FETCHED, auto_state=auto
                )
            )
        return manifest

    def test_single_annotation_rest_missing(self):
        window = (MonthStamp(2016, 1), MonthStamp(2016, 4))
        manifest = self.manifest_for(window=window)
        annotations = {"example.com": {MonthStamp(2016, 3): [A]}}
        (t,) = build_timelines(manifest, annotations, ["example.com"], window)
        assert t.states == (M, M, A, M)

    def test_alive_annotation_beats_auto_dead(self):
        manifest = self.manifest_for(entries=[("20160315000000", "dead")])
        annotations = {"example.com": {MonthStamp(2016, 3): [A]}}
        (t,) = build_timelines(manifest, annotations, ["example.com"], WINDOW)
        assert t.state_at(MonthStamp(2016, 3)) is A

    def test_auto_dead_alone_yields_dead_month(self):
        manifest = self.manifest_for(entries=[("20160315000000", "dead")])
        (t,) = build_timelines(manifest, {}, ["example.com"], WINDOW)
        assert t.state_at(MonthStamp(2016, 3)) is D

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
        assert by_site["only-annotated.com"].states == (M, A, M)
        assert by_site["crawled.com"].states == (M, M, M)

    def test_cohort_site_never_seen_is_all_missing(self):
        window = (MonthStamp(2016, 1), MonthStamp(2016, 3))
        (t,) = build_timelines(CrawlManifest(window=window), {}, ["ghost.com"], window)
        assert t.site == "ghost.com"
        assert t.states == (M, M, M)

    def test_without_manifest_annotations_alone(self):
        annotations = {"example.com": {MonthStamp(2016, 2): [Z, D]}}
        (t,) = build_timelines(None, annotations, ["example.com"], WINDOW)
        assert t.states == (M, Z, M, M, M, M)

    def test_only_requested_sites_built(self):
        manifest = self.manifest_for(entries=[("20160315000000", "dead")])
        annotations = {"other.net": {MonthStamp(2016, 1): [A]}}
        timelines = build_timelines(manifest, annotations, ["third.org"], WINDOW)
        assert [t.site for t in timelines] == ["third.org"]
        assert set(timelines[0].states) == {M}

    def test_unknown_capture_without_annotation_is_missing(self):
        manifest = self.manifest_for(entries=[("20160315000000", None)])
        (t,) = build_timelines(manifest, {}, ["example.com"], WINDOW)
        assert t.state_at(MonthStamp(2016, 3)) is M
