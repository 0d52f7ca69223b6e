import collections
import hashlib
import json
import random
from pathlib import Path

import pytest

import fixture_corpus as fx
from newsforensics import pipeline
from fakes import FakeSession
from newsforensics.archive import (FETCHED, CrawlManifest, ManifestEntry, Response, SnapshotCache,
                                   SnapshotRef, WaybackClient)
from newsforensics.files import recording, replacing
from newsforensics.pipeline import (
    PAGE_URLS,
    RunConfig,
    _display_path,
    _pages_with_urls,
    audit_trackers,
    texts_by_month,
    write_json,
)
from newsforensics.trackers import extract_third_parties, third_party_domains


class TestRunConfig:
    def test_defaults(self):
        config = RunConfig.from_sources(None, {}, {})
        assert config.seed == 0
        assert config.cosine_threshold == 0.5
        assert config.cache == config.out / "cache"

    def test_precedence_flags_over_env_over_file(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"model": "naive_bayes", "folds": 3}))
        env = {"NEWSFORENSICS_MODEL": "mlp", "NEWSFORENSICS_FOLDS": "4"}
        config = RunConfig.from_sources(str(cfg), env, {"model": "random_forest"})
        assert config.model == "random_forest"  # flag wins
        assert config.folds == 4  # env beats file

    def test_env_bool_coercion(self):
        config = RunConfig.from_sources(None, {"NEWSFORENSICS_SAMPLE_STD": "true"}, {})
        assert config.sample_std is True

    def test_exact_values_converted(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"folds": 4.0, "rate_limit": 2, "sample_std": True}))
        config = RunConfig.from_sources(str(cfg), {"NEWSFORENSICS_WORKERS": " 3 "}, {})
        assert (config.folds, config.rate_limit, config.workers) == (4, 2.0, 3)
        assert config.sample_std is True
        for text, expected in [("No", False), (" YES ", True), ("0", False), ("1", True)]:
            env = {"NEWSFORENSICS_SAMPLE_STD": text}
            assert RunConfig.from_sources(None, env, {}).sample_std is expected

    def test_threshold_validation(self):
        with pytest.raises(ValueError, match="cosine_threshold"):
            RunConfig(cosine_threshold=0.0)
        with pytest.raises(ValueError, match="folds"):
            RunConfig(folds=1)
        with pytest.raises(ValueError, match="per_month must be >= 0"):
            RunConfig(per_month=-1)
        with pytest.raises(ValueError, match="backoff_base must be >= 0"):
            RunConfig(backoff_base=-1)

    def test_seed_masked_to_64_bits(self):
        assert RunConfig(seed=-1).seed == 2**64 - 1

    def test_unknown_key_rejected(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"mistyped": True}))
        with pytest.raises(ValueError, match="mistyped"):
            RunConfig.from_sources(str(cfg), {}, {})


class TestDisplayPath:
    def test_inside_out_dir_relativized(self, tmp_path):
        out = tmp_path / "out"
        out.mkdir()
        assert _display_path(out / "x" / "y.json", out, "save_model") == "x/y.json"

    def test_outside_out_dir_keyed_by_its_setting(self, tmp_path):
        out = tmp_path / "out"
        out.mkdir()
        other = tmp_path / "elsewhere.csv"
        assert _display_path(other, out, "save_model") == "save_model"


def test_write_json_stable_bytes(tmp_path):
    path = tmp_path / "r.json"
    write_json(path, {"b": 1, "a": [1.5, 2]})
    first = path.read_bytes()
    write_json(path, {"a": [1.5, 2], "b": 1})
    assert path.read_bytes() == first
    assert first.endswith(b"\n")


class TestRecording:
    def test_text_moves_into_place_when_the_record_ends(self, tmp_path):
        (tmp_path / "a.json").write_text("old")
        with recording() as (_, outputs):
            write_json(tmp_path / "a.json", 1)
            write_json(tmp_path / "b.json", 2)
            write_json(tmp_path / "a.json", 3)  # the last write wins
            with replacing(tmp_path / "c.html", binary=True) as fh:
                fh.write(b"cached")
            assert (tmp_path / "a.json").read_text() == "old"
            assert not (tmp_path / "b.json").exists()
            assert (tmp_path / "c.html").read_bytes() == b"cached"  # binary: at once
        assert outputs == {str(tmp_path / "a.json"), str(tmp_path / "b.json")}
        assert sorted(p.name for p in tmp_path.iterdir()) == ["a.json", "b.json", "c.html"]
        assert json.loads((tmp_path / "a.json").read_text()) == 3
        write_json(tmp_path / "d.json", 4)  # outside a record: at once
        assert json.loads((tmp_path / "d.json").read_text()) == 4

    def test_an_error_removes_every_write_of_the_record(self, tmp_path):
        (tmp_path / "a.json").write_text("old")
        with pytest.raises(ValueError, match="stage failed"):
            with recording():
                write_json(tmp_path / "a.json", 1)
                write_json(tmp_path / "b.json", 2)
                raise ValueError("stage failed")
        assert [p.name for p in tmp_path.iterdir()] == ["a.json"]
        assert (tmp_path / "a.json").read_text() == "old"


def crawled_out(out: Path, pages: dict[tuple[str, str], bytes], fake: list[str],
                real: list[str], filter_list: Path) -> RunConfig:
    """An output directory as ``crawl`` leaves it: site lists, a ledger of
    fetched captures and their cached bodies, keyed by (site, timestamp)."""
    config = RunConfig(out_dir=str(out), filter_list=str(filter_list))
    write_json(out / "sites.json", {"fake": sorted(fake), "real": sorted(real)})
    manifest = CrawlManifest()
    cache = SnapshotCache(config.cache)
    for (site, timestamp), html in sorted(pages.items()):
        ref = SnapshotRef(site, timestamp, f"http://{site}/", 200, "text/html")
        manifest.entries.setdefault(site, []).append(ManifestEntry(ref, FETCHED))
        cache.put(site, timestamp, html)
    manifest.save(out / "crawl_manifest.json")
    return config


def fixture_pages(corpus, rng: random.Random) -> dict[tuple[str, str], bytes]:
    """The fixture corpus's non-empty captures, some with a random tracker
    mix, and a random second capture in some months."""
    trackers = sorted(set(fx.FAKE_TRACKERS + fx.REAL_TRACKERS)) + ["//cdn.example.net/x.js"]

    def random_page(site: str) -> bytes:
        return fx._page(site, fx._text(rng, 40), rng.sample(trackers, rng.randint(0, 4)))

    pages = {}
    for site, captures in corpus.captures.items():
        for month, html in captures.items():
            if html is None:
                continue
            stamp = f"{month.year}{month.month:02d}"
            pages[site, stamp + "15120000"] = random_page(site) if rng.random() < 0.5 else html
            if rng.random() < 0.2:
                pages[site, stamp + "25120000"] = random_page(site)
    return pages


@pytest.fixture(scope="module")
def corpus(tmp_path_factory):
    return fx.build_corpus(tmp_path_factory.mktemp("corpus"))


@pytest.mark.parametrize("status", [200, 403])
def test_an_error_answer_is_no_page(tmp_path, status):
    """Three fake sites, each with one capture that the index lists as 200
    and the archive answers with one shared page: under 403 it is a dead
    capture, whose text and trackers no stage reads."""
    words = " ".join(f"story{i} report{i} senator{i}" for i in range(12))
    body = (f"<html><body><p>{words}</p>"
            "<script src='https://cdn.trackco.net/t.js'></script></body></html>").encode()
    fake = ["a.com", "b.com", "c.com"]
    session = FakeSession()
    for site in fake:
        session.route_cdx(site, [["20160115120000", f"http://{site}/", "200", "text/html"]])
        session.route_snapshot(f"/web/20160115120000id_/http://{site}/", Response(status, body))
    filters = tmp_path / "filters.txt"
    filters.write_text("||trackco.net^\n")
    config = RunConfig(out_dir=str(tmp_path / "out"), filter_list=str(filters),
                       window_start="2016-01", window_end="2016-03",
                       quarter_start="2016-Q1", quarter_end="2016-Q1")
    write_json(config.out / "sites.json", {"fake": fake, "real": ["r.org"]})
    client = WaybackClient(cdx_base="https://archive.test", web_base="https://archive.test",
                           session=session, cache=SnapshotCache(config.cache), rate_limit=0)
    pipeline.crawl(config, client)
    ledger = (config.out / "crawl_manifest.json").read_bytes()
    pipeline.build_timeline_artifacts(config)
    live = status == 200
    assert len(pipeline.detect_sync(config)["content_matches"]) == (3 if live else 0)
    trackers = pipeline.audit_trackers(config)["distinct_trackers_fake"]
    assert trackers == (["trackco.net"] if live else [])
    pipeline.crawl(config, client)  # warm: the same verdicts from the cache alone
    assert (config.out / "crawl_manifest.json").read_bytes() == ledger
    assert session.snapshot_request_count() == 3


class TestPageUrlsReuse:
    """``sync`` records each parsed page's URLs; ``trackers`` takes them only
    for the same (site, timestamp) and body digest, and parses the rest."""

    @staticmethod
    def count_parses(monkeypatch) -> list[bytes]:
        """The bodies the pipeline parses from here on, in order."""
        parsed, parse = [], pipeline.parse_page
        monkeypatch.setattr(pipeline, "parse_page", lambda html: parsed.append(html) or parse(html))
        return parsed

    @pytest.mark.parametrize("seed", range(6))
    def test_reused_urls_give_each_pages_third_parties(self, corpus, tmp_path, seed,
                                                       monkeypatch):
        rng = random.Random(seed)
        pages = fixture_pages(corpus, rng)
        sites = sorted({site for site, _ in pages})
        config = crawled_out(tmp_path / "out", pages, fx.FAKE_SITES, fx.REAL_SITES,
                             corpus.filter_list)
        texts_by_month(config, set(rng.sample(sites, rng.randint(0, len(sites)))))

        # drop some rows, alter some digests, then re-crawl some bodies
        path = config.out / PAGE_URLS
        rows = [json.loads(line) for line in path.read_text().splitlines()]
        kept = [row for row in rows if rng.random() < 0.8]
        for row in kept:
            if rng.random() < 0.2:
                row["sha256"] = hashlib.sha256(row["sha256"].encode()).hexdigest()
        path.write_text("".join(json.dumps(row, sort_keys=True) + "\n" for row in kept))
        cache = SnapshotCache(config.cache)
        for site, timestamp in rng.sample(sorted(pages), len(pages) // 10):
            pages[site, timestamp] += b"<script src='https://recrawl.example.org/t.js'></script>"
            cache.put(site, timestamp, pages[site, timestamp])

        reusable = {
            (row["site"], row["timestamp"]) for row in kept
            if row["sha256"] == hashlib.sha256(pages[row["site"], row["timestamp"]]).hexdigest()
        }
        parsed = self.count_parses(monkeypatch)
        seen, hosts = [], {}
        for doc, urls in _pages_with_urls(config, set(sites)):
            page = (doc.ref.site, doc.ref.timestamp)
            seen.append(page)
            expected = extract_third_parties(doc.html, doc.ref.site)
            assert third_party_domains(urls, doc.ref.site, None, hosts) == expected, page
        assert seen == sorted(pages)
        assert sorted(parsed) == sorted(html for page, html in pages.items()
                                        if page not in reusable)

    def test_audit_looks_up_each_site_and_host_once(self, corpus, tmp_path, monkeypatch):
        pages = fixture_pages(corpus, random.Random(3))
        config = crawled_out(tmp_path / "out", pages, fx.FAKE_SITES, fx.REAL_SITES,
                             corpus.filter_list)
        report_path = config.out / "tracker_report.json"
        audit_trackers(config)
        expected = report_path.read_bytes()

        psl = RunConfig().psl()
        lookups = collections.Counter()

        class CountingPsl:
            def registrable_domain(self, host):
                lookups[host] += 1
                return psl.registrable_domain(host)

        monkeypatch.setattr(RunConfig, "psl", lambda self: CountingPsl())
        audit_trackers(config)
        assert report_path.read_bytes() == expected
        sites = {site for site, _ in pages}
        assert len(pages) > len(sites) and sites < set(lookups)
        assert all(n == 1 for n in lookups.values()), lookups

    def test_audit_parses_only_pages_without_a_matching_row(self, corpus, tmp_path,
                                                            monkeypatch):
        pages = fixture_pages(corpus, random.Random(7))
        config = crawled_out(tmp_path / "out", pages, fx.FAKE_SITES, fx.REAL_SITES,
                             corpus.filter_list)
        expected = audit_trackers(config)  # no page_urls.jsonl yet: every page parsed
        texts_by_month(config, set(fx.FAKE_SITES))
        rows = {
            (row["site"], row["timestamp"])
            for row in map(json.loads, (config.out / PAGE_URLS).read_text().splitlines())
        }
        assert rows and all(site in fx.FAKE_SITES for site, _ in rows)

        parsed = self.count_parses(monkeypatch)
        assert audit_trackers(config) == expected
        assert sorted(parsed) == sorted(html for page, html in pages.items() if page not in rows)

    def test_default_cohort_parses_real_pages_and_looks_up_each_host_once(
        self, corpus, tmp_path, monkeypatch
    ):
        """As after ``timeline`` with its default ``--cohort fake`` and
        ``sync``: one capture per site-month, rows for the fake sites only."""
        pages = {
            (site, f"{month.year}{month.month:02d}15120000"): html
            for site, captures in corpus.captures.items()
            for month, html in captures.items() if html is not None
        }
        config = crawled_out(tmp_path / "out", pages, fx.FAKE_SITES, fx.REAL_SITES,
                             corpus.filter_list)
        report_path = config.out / "tracker_report.json"
        audit_trackers(config)  # no page_urls.jsonl
        expected = report_path.read_bytes()
        texts_by_month(config, set(fx.FAKE_SITES))

        psl = RunConfig().psl()
        lookups = collections.Counter()

        class CountingPsl:
            def registrable_domain(self, host):
                lookups[host] += 1
                return psl.registrable_domain(host)

        monkeypatch.setattr(RunConfig, "psl", lambda self: CountingPsl())
        parsed = self.count_parses(monkeypatch)
        audit_trackers(config)
        assert report_path.read_bytes() == expected
        real = set(fx.REAL_SITES)
        assert sorted(parsed) == sorted(html for (site, _), html in pages.items() if site in real)
        # every host other than the sites once (test_audit_looks_up_each_site_and_host_once
        # counts the sites)
        sites = {site for site, _ in pages}
        url_hosts = {host: n for host, n in lookups.items() if host not in sites}
        assert url_hosts and all(n == 1 for n in url_hosts.values()), url_hosts
