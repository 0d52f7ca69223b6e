import hashlib
import json
import random
from pathlib import Path

import pytest

import fixture_corpus as fx
from newsforensics import trackers as trk
from newsforensics.archive import FETCHED, CrawlManifest, ManifestEntry, SnapshotCache, SnapshotRef
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
        assert _display_path(out / "x" / "y.json", out) == "x/y.json"

    def test_outside_out_dir_kept(self, tmp_path):
        out = tmp_path / "out"
        out.mkdir()
        other = tmp_path / "elsewhere.csv"
        assert _display_path(other, out) == str(other)


def test_write_json_stable_bytes(tmp_path):
    path = tmp_path / "r.json"
    write_json(path, {"b": 1, "a": [1.5, 2]})
    first = path.read_bytes()
    write_json(path, {"a": [1.5, 2], "b": 1})
    assert path.read_bytes() == first
    assert first.endswith(b"\n")


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


class TestPageUrlsReuse:
    """``sync`` records each parsed page's URLs; ``trackers`` takes them only
    for the same (site, timestamp) and body digest, and parses the rest."""

    @pytest.mark.parametrize("seed", range(6))
    def test_reused_urls_give_each_pages_third_parties(self, corpus, tmp_path, seed):
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
        seen, hosts = [], {}
        for doc, urls in _pages_with_urls(config, set(sites)):
            page = (doc.ref.site, doc.ref.timestamp)
            seen.append(page)
            assert (urls is not None) == (page in reusable), page
            expected = extract_third_parties(doc.html, doc.ref.site)
            if urls is not None:
                assert third_party_domains(urls, doc.ref.site, None, hosts) == expected, page
        assert seen == sorted(pages)

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

        parsed = []
        parse = trk.parse_page
        monkeypatch.setattr(trk, "parse_page", lambda html: parsed.append(html) or parse(html))
        assert audit_trackers(config) == expected
        assert sorted(parsed) == sorted(html for page, html in pages.items() if page not in rows)
