import json
import random
import re
import subprocess
import sys
import time
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from newsforensics.htmlscan import scan as _scan
from newsforensics.textproc import Preprocessor, extract_text, parse_page, preprocess

from fixture_corpus import build_corpus
from oracles import parse_page_reference, tokens_reference

ROOT = Path(__file__).resolve().parent.parent


class TestExtractText:
    @pytest.mark.parametrize(
        "html,expected",
        [
            (b"<p>Hello <b>world</b></p>", "Hello world"),
            (b"<script>var x=1;</script>News", "News"),
            (b"", ""),
            (b"<style>.a{color:red}</style><div>Body</div>", "Body"),
            (b"<noscript>enable js</noscript>ok", "ok"),
            (b"<template><p>hidden</p></template>shown", "shown"),
            (b"a &amp; b &lt;tag&gt;", "a & b <tag>"),
            (b"line\n\n  breaks\t here", "line breaks here"),
            (b"<!-- comment -->text", "text"),
            (b'<noscript><img src="https://t.example.com/p.gif">pixel</noscript>ok', "ok"),
            (b"<style>p{background:url(https://x.example.net/b.png)}</style>Body", "Body"),
            (b'<div style="background:url(https://x.example.net/b.png)">Body</div>', "Body"),
            (b"<style/>visible after", "visible after"),
        ],
    )
    def test_cases(self, html, expected):
        assert extract_text(html) == expected

    def test_parse_page_returns_text_and_urls_in_one_pass(self):
        html = (
            b'<p style="background:url(//a.example.net/x.png)">caf\xe9</p>'
            b'<noscript><img src="https://t.example.com/p.gif"></noscript>'
            b"<style>p{background:url('https://b.example.org/y.png')}</style>"
            b'<a href="/local">read</a>'
        )
        text, urls = parse_page(html)
        assert text == "caf\ufffd read"
        assert urls == [
            "//a.example.net/x.png",
            "https://t.example.com/p.gif",
            "https://b.example.org/y.png",
            "/local",
        ]

    def test_nested_script_like_blocks(self):
        html = b"<script><style>x</style></script>visible"
        assert extract_text(html) == "visible"

    def test_lossy_decode_never_fails(self):
        assert extract_text(b"caf\xe9 <b>news</b>") == "caf\ufffd news"

    def test_accepts_str(self):
        assert extract_text("<p>already text</p>") == "already text"

    @pytest.mark.parametrize(
        "html,text,urls",
        [
            (
                '<A HREF="x">Link</A><ScRiPt SRC=y>var a;</sCrIpT>z'
                '<DIV Style="background:URL(w)">v</DIV>',
                "Link z v",
                ["x", "y", "w"],
            ),
            ("<input disabled src=x><a href>t</a><img data-src>", "t", ["x"]),
            ("<a href=x/>", "", ["x/"]),
            ("x<br/>y", "x y", []),
            ("a &amp b &ampx", "a & b &x", []),
            ('<a href="?a=1&amp=2&amp;b&ampc">q</a>', "q", ["?a=1&=2&b&c"]),
            ("a < b", "a < b", []),
            ("a<script>var x; <p>b</p>", "a", []),
            ("a<style>p{}</style", "a", []),
            ("<a title='x>y' href=z>", "", ["z"]),
            ("<style>p{background:url(&amp;)}</style><script>&amp;<b>x</b></script>", "", ["&amp;"]),
            ('<noscript><template><img src="n">hidden</template>still</noscript>shown', "shown", ["n"]),
            ("tail &", "tail &", []),
            ("<noscript>a</style>b</noscript>c", "b c", []),
            ("<noscript/>x<template/>y", "x y", []),
        ],
        ids=[
            "mixed-case-names", "valueless-attributes", "unquoted-slash", "self-closing-br",
            "entity-without-semicolon", "attribute-entities", "bare-less-than", "script-open-at-eof",
            "style-close-at-eof", "quoted-gt", "raw-text-bodies", "nested-hidden", "ampersand-at-eof",
            "stray-end-tag-shares-hidden-depth", "self-closing-hidden",
        ],
    )
    def test_reference_behaviour(self, html, text, urls):
        assert parse_page(html) == (text, urls)
        assert parse_page_reference(html) == (text, urls)

    def test_unknown_marked_section_is_a_bogus_comment(self):
        # html.parser raises on the unknown keyword; the walk used to stop there
        html = "a<![foo[ x ]]> hello <img src=q>"
        assert _scan(html) is None
        assert parse_page(html) == ("a hello", ["q"])


def _perfbench_pages(workload: str, out: Path) -> list[bytes]:
    subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "corpus.py"),
         "--workload", workload, "--seed", "1", "--out", str(out)],
        check=True, capture_output=True,
    )
    with open(out / "archive" / "captures.jsonl", encoding="utf-8") as f:
        return [json.loads(line)["body"].encode() for line in f]


# The traffic-classify corpus holds no pages.
@pytest.fixture(scope="module", params=["fixture", "crawl-census", "content-reanalyze"])
def corpus_pages(request, tmp_path_factory):
    out = tmp_path_factory.mktemp(request.param)
    if request.param == "fixture":
        captures = build_corpus(out).captures
        pages = [page for months in captures.values() for page in months.values()]
    else:
        pages = _perfbench_pages(request.param, out)
    pages = [page for page in pages if page]
    assert pages
    return pages


def test_corpus_pages_match_reference(corpus_pages):
    for page in corpus_pages:
        assert parse_page(page) == parse_page_reference(page)


def test_corpus_pages_take_the_fast_path(corpus_pages):
    """A scanner that always fell back would pass every differential test."""
    fallbacks = [page for page in corpus_pages if _scan(page.decode()) is None]
    assert fallbacks == []


_NAMES = ["a", "A", "p", "img", "div", "br", "Script", "script", "STYLE", "style",
          "noscript", "NoScript", "template", "title", "iframe"]
_ATTRS = ["src", "SRC", "href", "Href", "data-src", "DATA-SRC", "style", "class", "x"]
_VALUES = ["x", "https://a.example/b.js", "&amp;q", "&amp", "a&", "&#47;p", "url(y)",
           "background:url('z')", "a b", "x>y", "", "x/", "caf\xe9"]
_TEXTS = ["word", " ", "\n", "two words", "&amp;", "&amp", "&lt;tag&gt", "&#65;", "&#x42",
          "&notin;", "&notit;", ">", "'", '"', "x=y", "&"]
_BODIES = ["", "var a = '</div>';", "p{background:url(b.png)}", "<b>x</b>", "&amp;",
           "'</scr' + 'ipt>'", "url( 'c' )"]
# Markup outside the fast path's subset, one piece per rule in textproc.
_OUTSIDE_SUBSET = [
    "\x00", "<a\xa0href=x>", "<a href=x\x0b>", "<a\u2028src=y>", "<a href=x HREF=y>",
    "<a href Href=y>", "<img src=a style='url(b)' SRC=c>", "<![foo[ x ]]>", "<![CDATA[x]]>",
    "<?php x ?>", "<!x>", "< b", "<", "</>", "</3>", "<!-->", "<!--->", "<!--a-- >",
    "<!--a--!>b-->", "<!--", "<a href=x", "<script>x", "<style>url(d)", "<style>p{}</style x>",
    "<script></ script>y</script>", "<script></script\x0b>z</script>",
    "<script></script x>y</script>", "<script></scripts>y</script>",
    "<script><!--<script></script>w--></script>",
    "<script>\u017f</\u017fcript></script>", "<svg><style>url(s)</style></svg>",
    "<math><script></script>", "<title>a<b>c</b></title>", "<iframe>&amp;</iframe>", "<title>x",
    "<script/>x", "<style/>y", "<title/>z", "<plaintext>", "<!DOCTYPE html", "</a x>",
    "</a\xa0>", "<a b==c>", "<a b='c'd=e>", "<a/href=x>", "<br / >",
    '<a href="?a=1&amp=2">', "<img src='a\r\nb'>", '<p style="x:url(a\rb)">', "<a href=&ampc>", "<a href='&notit;'>", "a&#1;b", "<img src=&#x7f;>",
    "<noscript/>x", "<template/>y", "<svg></math><script></script>",
    "<svg><g><svg></svg></g><style>p{}</style>", "<svg><foreignObject><div></div></foreignObject></svg>",
    "<math><mi><b>x</b></mi></math>", "<svg><desc><p>x</desc></svg>",
]


@pytest.mark.parametrize("html", _OUTSIDE_SUBSET)
def test_markup_outside_the_subset_falls_back(html):
    assert _scan(html) is None
    assert parse_page(html) == parse_page_reference(html)


@pytest.mark.parametrize(
    "html",
    [
        "<svg><path d='M0'/></svg><script>if (a < b && c) {}</script>x",
        "<svg><title>Menu</title><use href=#m /></svg><style>p{}</style>",
        "<svg><desc>d</desc></svg><svg/><script></script>",
        "<svg><desc></title></svg><script></script>",
        "<math><mi>x</mi><svg></svg></math><script></script>",
        "<a href='?a=1&amp;b=2&amp' title='&ampc'>&#65;&notit; &ampx</a>",
        "<a src=&amp/ href='&lt-&hellip'>",
    ],
    ids=["svg-closed", "svg-title", "svg-desc", "stray-end-tag-in-svg", "math", "entities",
         "attribute-entities-read-alike"],
)
def test_closed_svg_and_agreed_entities_take_the_fast_path(html):
    assert _scan(html) is not None
    assert parse_page(html) == parse_page_reference(html)


@st.composite
def _start_tag(draw):
    name = draw(st.sampled_from(_NAMES))
    tag = "<" + name
    for attr in draw(st.lists(st.sampled_from(_ATTRS), max_size=3, unique_by=str.lower)):
        tag += draw(st.sampled_from([" ", "\n", "\t", "  "])) + attr
        value = draw(st.none() | st.sampled_from(_VALUES))
        if value is None:
            continue
        quotes = [q for q in ('"', "'") if q not in value]
        if value and value[0] not in "=\"'" and not re.search(r"[\s>]", value):
            quotes.append("")
        quote = draw(st.sampled_from(quotes))
        tag += draw(st.sampled_from(["=", " = "])) + quote + value + quote
    if name.lower() in ("script", "style"):
        return f"{tag}>{draw(st.sampled_from(_BODIES))}</{name}>"
    if name == "title":
        return f"{tag}>{draw(st.sampled_from(_TEXTS[:10]))}</title>"
    if name == "iframe":
        return f"{tag}></iframe>"
    if name.lower() in ("noscript", "template"):
        return tag + draw(st.sampled_from([">", " >"]))
    return tag + draw(st.sampled_from([">", " >", "/>"]))


_FOREIGN_PIECES = ["<svg>", "</svg>", "<SVG viewBox='0 0 1 1'>", "<math>", "</math>", "<desc>",
                   "</desc>", "<foreignObject>", "</foreignobject>", "<mi>", "</mi>", "<path/>",
                   "<title>t</title>", "&#1;", "&#x80;", "&ampc", "<a href='&amp=x&notit;'>"]
_WELL_FORMED_PIECE = st.one_of(
    st.sampled_from(_TEXTS),
    _start_tag(),
    st.builds("</{}{}>".format, st.sampled_from(_NAMES), st.sampled_from(["", " "])),
    st.sampled_from(["<!-- note -->", "<!---->", "<!--a<b>-->", "<!DOCTYPE html>"]),
)
_WELL_FORMED = st.lists(_WELL_FORMED_PIECE, max_size=20).map("".join)


@st.composite
def _any_markup(draw):
    odd = st.sampled_from(_OUTSIDE_SUBSET + _FOREIGN_PIECES + ["\x0b", "\xa0", "\u2028", "\r\n"])
    html = "".join(draw(st.lists(_WELL_FORMED_PIECE | odd, max_size=20)))
    if not draw(st.booleans()):
        return html
    data = html.encode()
    cut = draw(st.integers(0, len(data)))
    return data[:cut] + draw(st.sampled_from([b"\xff", b"\xc3(", b"\xe2\x82", b"\xed\xa0\x80"])) + data[cut:]


@settings(max_examples=300, deadline=None)
@given(_WELL_FORMED)
def test_well_formed_markup_takes_the_fast_path(html):
    assert _scan(html) is not None
    assert parse_page(html) == parse_page_reference(html)


@settings(max_examples=500, deadline=None)
@given(_any_markup())
def test_parse_page_matches_reference_on_any_markup(html):
    assert parse_page(html) == parse_page_reference(html)


@pytest.mark.parametrize(
    "html",
    [
        "<script>" * (1 << 17),
        "<a " + "x" * (1 << 20),
        "<a" + " b" * (1 << 19),
        "<script></script>" * (1 << 16),
    ],
    ids=["unclosed-script-openers", "tag-without-gt", "valueless-attributes-without-gt",
         "closed-scripts"],
)
def test_pathological_page_parses_in_linear_time(html):
    """About 1 MB that stresses the scan: it must not backtrack, nor search
    to EOF once per opener."""

    def timed(parse):
        best = None
        for _ in range(2):
            start = time.process_time()
            result = parse(html)
            spent = time.process_time() - start
            best = spent if best is None else min(best, spent)
        return best, result

    reference_s, expected = timed(parse_page_reference)
    spent_s, result = timed(parse_page)
    assert result == expected
    assert spent_s <= 4 * reference_s + 0.05


class TestPreprocess:
    def test_stopwords_and_normalization(self):
        assert preprocess("The cats are running") == ["cat", "run"]

    def test_empty(self):
        assert preprocess("") == []

    def test_all_stopwords(self):
        assert preprocess("and the of") == []

    def test_short_tokens_dropped(self):
        assert preprocess("a b xy q") == ["xy"]

    def test_lowercases_and_splits_on_nonalpha(self):
        assert preprocess("Breaking-News2020!") == ["break", "new"]

    @pytest.mark.parametrize(
        "word,stem",
        [
            ("cats", "cat"),
            ("classes", "class"),
            ("boxes", "box"),
            ("stories", "story"),
            ("running", "run"),
            ("stopped", "stop"),
            ("falling", "fall"),
            ("working", "work"),
            ("wanted", "want"),
            ("sing", "sing"),
            ("red", "red"),
            ("used", "used"),
            ("press", "press"),
        ],
    )
    def test_normalizer_frozen_behavior(self, word, stem):
        assert Preprocessor().normalize(word) == stem

    def test_custom_stopword_file(self, tmp_path):
        sw = tmp_path / "stop.txt"
        sw.write_text("# custom\nnews\n")
        pre = Preprocessor(stopwords_path=sw)
        assert pre.tokens("the news cats") == ["the", "cat"]

    def test_custom_rules_file(self, tmp_path):
        rules = tmp_path / "rules.txt"
        rules.write_text("^(.*)xx$ \\1\n")
        pre = Preprocessor(suffix_rules_path=rules)
        assert pre.normalize("foxx") == "fo"
        assert pre.normalize("running") == "running"

    def test_bad_rule_line_rejected(self, tmp_path):
        rules = tmp_path / "rules.txt"
        rules.write_text("# comment\n^(a)b$ \\1\n\nonlyonefield\n")
        with pytest.raises(ValueError, match=f"^{re.escape(str(rules))}:4: bad suffix rule: .* got 1 fields"):
            Preprocessor(suffix_rules_path=rules)

    @pytest.mark.parametrize(
        "rule",
        ["^(a$ x", "^(a)b$ \\2", "^(?P<s>a)b$ \\g<t>", "^ab$ \\q"],
        ids=["regex", "group-number", "group-name", "escape"],
    )
    def test_invalid_rule_names_file_and_line(self, tmp_path, rule):
        rules = tmp_path / "rules.txt"
        rules.write_text(f"^(.*)xx$ \\1\n{rule}\n")
        with pytest.raises(ValueError, match=f"^{re.escape(str(rules))}:2: bad suffix rule: "):
            Preprocessor(suffix_rules_path=rules)


_VOCAB = [
    "cats", "classes", "boxes", "stories", "running", "stopped", "falling", "wanted",
    "sing", "red", "used", "press", "the", "and", "of", "xy", "a", "news", "parties",
    "breaking", "fixed", "wishes", "buzzes", "abyss", "zz", "hopping", "agreed",
]
_RULE_POOL = [
    "^([a-z]{2,})ies$ \\1y",
    "^([a-z]+(?:x|z|ch|sh|ss))es$ \\1",
    "^([a-z]{2,}[^s])s$ \\1",
    "^([a-z]+?([bdgkmnprtv]))\\2ing$ \\1",
    "^([a-z]*[aeiouy][a-z]*)ed$ \\1",
    "^(.)(.*)$ \\2\\1",
    "^([a-z])([a-z])$ \\1",
]


def test_tokens_match_unmemoized_reference(tmp_path):
    """Random texts under random stopwords, suffix rules and minimum token
    lengths; one memo shared over each preprocessor's texts."""
    rng = random.Random(29)
    for trial in range(60):
        stopwords = tmp_path / f"stop{trial}.txt"
        stopwords.write_text("\n".join(rng.sample(_VOCAB, rng.randint(0, 8))) + "\n")
        rules = tmp_path / f"rules{trial}.txt"
        rules.write_text("\n".join(rng.sample(_RULE_POOL, rng.randint(0, 5))) + "\n")
        pre = Preprocessor(stopwords, rules, min_token_len=rng.randint(1, 5))
        memo = {}
        for _ in range(8):
            text = " ".join(
                rng.choice(_VOCAB).upper() if rng.random() < 0.1 else rng.choice(_VOCAB)
                for _ in range(rng.randint(0, 40))
            ) + rng.choice(["", "!", " 42 x-ray", "\tnews."])
            expected = tokens_reference(pre, text)
            assert pre.tokens(text, memo) == expected
            assert pre.tokens(text) == expected
