import pytest

from newsforensics.textproc import Preprocessor, extract_text, parse_page, preprocess


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
        rules.write_text("onlyonefield\n")
        with pytest.raises(ValueError, match="bad suffix rule"):
            Preprocessor(suffix_rules_path=rules)
