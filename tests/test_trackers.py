import os
import random
import re
import subprocess
import sys
from importlib import resources
from pathlib import Path

import pytest

import newsforensics
from newsforensics.domains import PublicSuffixList, registrable_domain
from newsforensics.timeline import MonthStamp
from newsforensics.trackers import (
    DOMAIN_ANCHOR,
    PLAIN_SUBSTRING,
    FilterRule,
    ThirdPartyHit,
    coverage_compare,
    extract_third_parties,
    match_trackers,
    parse_filter_list,
    prevalence_timeline,
    serialize_rule,
    third_party_domains,
    unwrap_archive_url,
)

from oracles import public_suffix_reference


class TestPublicSuffix:
    @pytest.mark.parametrize(
        "host,expected",
        [
            ("example.com", "example.com"),
            ("www.example.com", "example.com"),
            ("a.b.example.com", "example.com"),
            ("news.example.co.uk", "example.co.uk"),
            ("example.co.uk", "example.co.uk"),
            ("cdn.site.github.io", "site.github.io"),
            ("something.unknowntld", "something.unknowntld"),
            ("deep.sub.something.unknowntld", "something.unknowntld"),
            ("foo.bar.ck", "foo.bar.ck"),  # wildcard *.ck
            ("www.ck", "www.ck"),  # exception !www.ck
            ("sub.www.ck", "www.ck"),
        ],
    )
    def test_registrable(self, host, expected):
        assert registrable_domain(host) == expected

    @pytest.mark.parametrize("host", ["com", "co.uk", "github.io", "", "..", ".com"])
    def test_bare_suffixes_and_junk(self, host):
        assert registrable_domain(host) is None

    def test_custom_list_file(self, tmp_path):
        path = tmp_path / "psl.dat"
        path.write_text("// test\nfancy.tld\n")
        psl = PublicSuffixList.from_file(path)
        assert psl.registrable_domain("shop.site.fancy.tld") == "site.fancy.tld"
        assert psl.public_suffix("site.fancy.tld") == "fancy.tld"

    def test_rule_errors_count_lines_as_the_line_walk_does(self, tmp_path):
        # a form feed or U+2028 inside a line does not end it
        path = tmp_path / "psl.dat"
        path.write_text("com\n\x0c\u2028\n*.a.*\n", encoding="utf-8")
        with pytest.raises(ValueError, match=re.escape(f"{path}:3: wildcard not in the leftmost")):
            PublicSuffixList.from_file(path)


    @pytest.mark.parametrize(
        "lines, message",
        [
            (["com", "x.*.d"], "line 2: wildcard not in the leftmost label of 'x.*.d'"),
            (["// c", "", "*.*.d"], "line 3: wildcard not in the leftmost label"),
            (["!*.b.c"], "line 1: wildcard in exception rule '!*.b.c'"),
            (["*.c", "!www.*"], "line 2: wildcard in exception rule"),
        ],
    )
    def test_unsupported_wildcards_rejected(self, lines, message):
        with pytest.raises(ValueError, match=re.escape(message)):
            PublicSuffixList(lines)

    @pytest.mark.parametrize("hash_seed", ["1", "2"])
    def test_longest_exception_wins_under_any_hash_seed(self, hash_seed):
        """Two exception rules match z.a.b.c; the longer one decides."""
        script = (
            "from newsforensics.domains import PublicSuffixList; "
            "p = PublicSuffixList(['*.c', 'b.c', '!b.c', '!a.b.c', '*.b.c', '!q.b.c']); "
            "print(p.public_suffix('z.a.b.c'), p.registrable_domain('z.a.b.c'))"
        )
        env = {
            **os.environ,
            "PYTHONHASHSEED": hash_seed,
            "PYTHONPATH": str(Path(newsforensics.__file__).resolve().parents[1]),
        }
        result = subprocess.run(
            [sys.executable, "-c", script], capture_output=True, text=True, env=env,
            timeout=60,
        )
        assert result.returncode == 0, result.stderr
        assert result.stdout.split() == ["b.c", "a.b.c"]


def _random_rule_list(rng):
    """Rules over a five-label alphabet, so rules nest and overlap: literal
    rules, leftmost wildcards and exceptions of one to four labels."""
    lines = ["// generated"]
    for _ in range(rng.randint(1, 25)):
        rule = [rng.choice("abcde") for _ in range(rng.randint(1, 4))]
        kind = rng.random()
        if kind < 0.3 and len(rule) > 1:
            rule[0] = "*"
        elif kind < 0.55:
            rule[0] = "!" + rule[0]
        lines.append(".".join(rule))
    return lines


def test_public_suffix_matches_rule_scan_on_random_lists():
    rng = random.Random(17)
    checked = 0
    for _ in range(100):
        lines = _random_rule_list(rng)
        psl = PublicSuffixList(lines)
        for _ in range(100):
            host = ".".join(rng.choice("abcdex") for _ in range(rng.randint(1, 6)))
            assert psl.public_suffix(host) == public_suffix_reference(lines, host), (
                lines, host)
            checked += 1
    assert checked == 10_000


def test_public_suffix_matches_rule_scan_on_bundled_list():
    lines = (
        resources.files("newsforensics.data") / "public_suffix_list.dat"
    ).read_text("utf-8").splitlines()
    rules = [ln.split()[0] for ln in lines if ln.strip() and not ln.startswith("//")]
    psl = PublicSuffixList(lines)
    rng = random.Random(23)
    prefixes = ["www", "a", "ck", "co", "news", "x"]
    for _ in range(10_000):
        labels = [
            rng.choice(prefixes) if label == "*" else label
            for label in rng.choice(rules).lstrip("!").split(".")
        ]
        if rng.random() < 0.2:
            labels[-1] = rng.choice(["unknowntld", "zz"])
        labels = [rng.choice(prefixes) for _ in range(rng.randint(0, 3))] + labels
        host = ".".join(labels)
        assert psl.public_suffix(host) == public_suffix_reference(lines, host), host


class TestParseFilterList:
    def test_domain_anchor(self):
        fl = parse_filter_list("||google-analytics.com^\n")
        assert fl.rules == [FilterRule(DOMAIN_ANCHOR, "google-analytics.com", 1)]

    def test_comment_skipped(self):
        fl = parse_filter_list("! comment\n")
        assert fl.rules == [] and fl.skipped["comment"] == 1

    def test_element_hiding_skipped(self):
        fl = parse_filter_list("example.com##.ad\n")
        assert fl.rules == [] and fl.skipped["element-hiding"] == 1

    def test_option_rule_skipped(self):
        fl = parse_filter_list("||ads.example.com^$third-party\n")
        assert fl.rules == [] and fl.skipped["option"] == 1

    def test_exception_rule_skipped(self):
        fl = parse_filter_list("@@||good.example.com^\n")
        assert fl.skipped["exception"] == 1

    def test_plain_substring(self):
        fl = parse_filter_list("doubleclick.net\n")
        assert fl.rules == [FilterRule(PLAIN_SUBSTRING, "doubleclick.net", 1)]

    def test_path_patterns_unsupported(self):
        fl = parse_filter_list("/banner/*/img^\n||example.com/path^\n")
        assert fl.rules == [] and fl.skipped["unsupported"] == 2

    def test_mixed_list_counts(self):
        text = (
            "[Adblock Plus 2.0]\n"
            "! title\n"
            "||tracker.example^\n"
            "\n"
            "analytics.example\n"
            "##.banner\n"
        )
        fl = parse_filter_list(text)
        assert len(fl.rules) == 2
        assert fl.total_skipped == 4

    def test_supported_subset_roundtrips_bit_exact(self):
        lines = [
            "||google-analytics.com^",
            "||doubleclick.net^",
            "quantserve.com",
            "||scorecardresearch.com^",
            "facebook-pixel.example",
        ]
        text = "\n".join(lines) + "\n"
        fl = parse_filter_list(text)
        assert "\n".join(serialize_rule(r) for r in fl.rules) + "\n" == text

    def test_source_lines_recorded(self):
        fl = parse_filter_list("! c\n||a.example^\n\nb.example\n")
        assert [r.source_line for r in fl.rules] == [2, 4]

    def test_lines_end_only_at_line_feed_and_carriage_return(self):
        fl = parse_filter_list("a.example\n\u2028\n\x1c\x85\rb.example\r\n")
        assert [r.source_line for r in fl.rules] == [1, 4]
        assert fl.skipped == {"blank": 2}


class TestUnwrapArchiveUrl:
    @pytest.mark.parametrize(
        "wrapped,expected",
        [
            (
                "https://web.archive.org/web/20160101000000/https://t.example/x.js",
                "https://t.example/x.js",
            ),
            (
                "https://web.archive.org/web/20160101000000js_/https://t.example/x.js",
                "https://t.example/x.js",
            ),
            ("/web/20160101000000im_/https://img.example/a.png", "https://img.example/a.png"),
            ("/web/2016/https://t.example/x", "https://t.example/x"),
            ("https://t.example/x.js", "https://t.example/x.js"),
            ("/web/20160101000000/relative/path", "/web/20160101000000/relative/path"),
        ],
    )
    def test_cases(self, wrapped, expected):
        assert unwrap_archive_url(wrapped) == expected


class TestExtractThirdParties:
    def test_script_src(self):
        html = b'<script src="https://www.google-analytics.com/ga.js"></script>'
        assert extract_third_parties(html, "example.com") == {"google-analytics.com"}

    def test_relative_url_ignored(self):
        assert extract_third_parties(b'<img src="/local.png">', "example.com") == set()

    def test_first_party_subdomain_dropped(self):
        html = b'<script src="https://cdn.example.com/x.js"></script>'
        assert extract_third_parties(html, "example.com") == set()

    def test_protocol_relative_included(self):
        html = b'<img src="//pixel.quantserve.com/p.gif">'
        assert extract_third_parties(html, "example.com") == {"quantserve.com"}

    def test_href_and_data_src(self):
        html = (
            b'<link href="https://fonts.cdnprovider.net/a.css">'
            b'<img data-src="https://lazy.tracker.org/i.png">'
        )
        got = extract_third_parties(html, "example.com")
        assert got == {"cdnprovider.net", "tracker.org"}

    def test_css_url_references(self):
        html = (
            b'<div style="background:url(https://bg.example.net/x.png)"></div>'
            b"<style>body{background:url('//px.example.io/y.gif')}</style>"
        )
        got = extract_third_parties(html, "example.com")
        assert got == {"example.net", "example.io"}

    def test_archive_rewritten_urls_unwrapped(self):
        html = (
            b'<script src="https://web.archive.org/web/20160101000000js_/'
            b'https://www.googletagservices.com/tag.js"></script>'
        )
        got = extract_third_parties(html, "example.com")
        assert got == {"googletagservices.com"}
        assert "archive.org" not in got

    def test_non_http_schemes_ignored(self):
        html = b'<a href="mailto:x@y.com"><img src="data:image/png;base64,AAAA">'
        assert extract_third_parties(html, "example.com") == set()

    @pytest.mark.parametrize(
        "html,expected",
        [
            # hidden text, kept URL
            (b'<noscript><img src="https://t.example.com/p.gif"></noscript>',
             {"example.com"}),
            (b"<style>p{background:url(https://bg.example.net/x.png)}</style>",
             {"example.net"}),
            (b'<p style="background:url(\'https://bg.example.net/x.png\')">text</p>',
             {"example.net"}),
            # a self-closing style opens no style block: later text is not CSS
            (b"<style/>url(https://bg.example.net/x.png)", set()),
            # non-UTF-8 bytes decode with replacement and do not stop the scan
            (b'<p>caf\xe9</p><script src="https://t.tracker.org/\xff.js"></script>',
             {"tracker.org"}),
        ],
    )
    def test_text_and_url_state_meet(self, html, expected):
        assert extract_third_parties(html, "news.org") == expected

    def test_never_returns_first_party(self):
        html = (
            b'<a href="https://example.com/page"><img src="https://www.example.com/i.png">'
            b'<script src="https://t.example.org/x.js"></script>'
        )
        got = extract_third_parties(html, "example.com")
        assert "example.com" not in got
        assert got == {"example.org"}


class TestThirdPartyDomains:
    URLS = ["https://www.google-analytics.com/ga.js", "//px.google-analytics.com/p.gif",
            "https://cdn.example.com/x.js", "/local.png", "https://t.example.org/y.js"]

    def test_shared_hosts_resolve_each_host_once(self):
        looked_up = []

        class CountingPSL(PublicSuffixList):
            def registrable_domain(self, host):
                looked_up.append(host)
                return super().registrable_domain(host)

        psl = CountingPSL.bundled()
        hosts = {}
        first = third_party_domains(self.URLS, "example.com", psl, hosts)
        assert first == {"google-analytics.com", "example.org"}
        assert third_party_domains(self.URLS, "example.org", psl, hosts) == {
            "google-analytics.com", "example.com"}
        assert hosts == {"www.google-analytics.com": "google-analytics.com",
                         "px.google-analytics.com": "google-analytics.com",
                         "cdn.example.com": "example.com", "t.example.org": "example.org",
                         "example.com": "example.com", "example.org": "example.org"}
        # the two first parties and each URL host, once each
        assert sorted(looked_up) == sorted(hosts)
        third_party_domains(self.URLS, "example.com", psl, hosts)
        assert sorted(looked_up) == sorted(hosts)  # a site's later pages look up nothing

    def test_equals_extract_third_parties_of_the_page(self):
        html = "".join(f'<script src="{url}"></script>' for url in self.URLS)
        assert third_party_domains(self.URLS, "news.org") == extract_third_parties(
            html, "news.org")


class TestMatchTrackers:
    RULES = [
        FilterRule(DOMAIN_ANCHOR, "google-analytics.com", 1),
        FilterRule(DOMAIN_ANCHOR, "doubleclick.net", 2),
        FilterRule(PLAIN_SUBSTRING, "quantserve", 3),
    ]

    def test_exact_match(self):
        assert match_trackers({"google-analytics.com"}, self.RULES) == {
            "google-analytics.com"
        }

    def test_subdomain_match(self):
        assert match_trackers({"sub.doubleclick.net"}, self.RULES) == {
            "sub.doubleclick.net"
        }

    def test_no_match(self):
        assert match_trackers({"example.org"}, self.RULES) == set()

    def test_suffix_without_dot_boundary_not_matched(self):
        assert match_trackers({"notdoubleclick.net"}, self.RULES) == set()

    def test_substring_match(self):
        assert match_trackers({"pixel.quantserve.com"}, self.RULES) == {
            "pixel.quantserve.com"
        }

    def test_monotone_in_rules(self):
        domains = {"a.doubleclick.net", "x.example", "quantserve.com"}
        base = match_trackers(domains, self.RULES[:1])
        more = match_trackers(domains, self.RULES)
        assert base <= more


def hit(site, year, month, tracker):
    return ThirdPartyHit(site, MonthStamp(year, month), tracker)


class TestPrevalence:
    WINDOW = (MonthStamp(2016, 1), MonthStamp(2016, 3))

    def test_distinct_sites_per_month(self):
        hits = [
            hit("a.com", 2016, 1, "t.net"),
            hit("b.com", 2016, 1, "t.net"),
            hit("c.com", 2016, 1, "t.net"),
            hit("a.com", 2016, 1, "t.net"),  # duplicate
        ]
        series = prevalence_timeline(hits, {"a.com", "b.com", "c.com"}, self.WINDOW)
        assert len(series) == 1
        assert series[0].site_counts == (3, 0, 0)

    def test_tracker_outside_window_excluded(self):
        hits = [hit("a.com", 2017, 5, "late.net")]
        assert prevalence_timeline(hits, {"a.com"}, self.WINDOW) == []

    def test_tie_breaks_lexicographically(self):
        hits = [hit("a.com", 2016, 1, "zzz.net"), hit("a.com", 2016, 1, "aaa.net")]
        series = prevalence_timeline(hits, {"a.com"}, self.WINDOW, top_k=2)
        assert [s.tracker_domain for s in series] == ["aaa.net", "zzz.net"]

    def test_top_k_by_cumulative(self):
        hits = [
            hit("a.com", 2016, 1, "big.net"),
            hit("a.com", 2016, 2, "big.net"),
            hit("b.com", 2016, 3, "big.net"),
            hit("a.com", 2016, 1, "small.net"),
        ]
        series = prevalence_timeline(hits, {"a.com", "b.com"}, self.WINDOW, top_k=1)
        assert series[0].tracker_domain == "big.net"
        assert series[0].cumulative == 3

    def test_reversed_window_rejected(self):
        hits = [hit("a.com", 2016, 2, "t.net")]
        with pytest.raises(ValueError, match="empty month window"):
            prevalence_timeline(hits, {"a.com"}, (self.WINDOW[1], self.WINDOW[0]))

    def test_counts_bounded_by_cohort(self):
        hits = [hit(f"s{i}.com", 2016, 1, "t.net") for i in range(5)]
        series = prevalence_timeline(hits, {f"s{i}.com" for i in range(5)}, self.WINDOW)
        assert max(series[0].site_counts) <= 5


class TestCoverage:
    WINDOW = (MonthStamp(2016, 1), MonthStamp(2017, 12))

    def test_fractions(self):
        fake = [hit("f1.com", 2016, 5, "t.net")]
        real = [hit(f"r{i}.com", 2016, 5, "t.net") for i in range(3)]
        cov = coverage_compare(fake, real, self.WINDOW, 4, 4)
        assert cov["t.net"] == (0.25, 0.75)

    def test_absent_tracker_zero(self):
        cov = coverage_compare(
            [hit("f.com", 2016, 1, "only-fake.net")], [], self.WINDOW, 2, 2
        )
        assert cov["only-fake.net"] == (0.5, 0.0)

    def test_zero_cohort_rejected(self):
        with pytest.raises(ValueError):
            coverage_compare([], [], self.WINDOW, 0, 1)

    def test_duplicate_hits_do_not_inflate(self):
        fake = [hit("f.com", 2016, 1, "t.net"), hit("f.com", 2016, 2, "t.net")]
        cov = coverage_compare(fake, [], self.WINDOW, 2, 2)
        assert cov["t.net"] == (0.5, 0.0)
