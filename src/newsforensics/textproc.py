"""Visible-text extraction from landing-page HTML and token preprocessing."""

from __future__ import annotations

import re
from functools import lru_cache
from html.parser import HTMLParser
from pathlib import Path

from .files import numbered_lines, read_bundled
from .htmlscan import _CSS_URL_RE, _NON_CONTENT_TAGS, _URL_ATTRS, scan


class _PageParser(HTMLParser):
    """Visible text chunks and embedded URL strings in one walk.

    Text inside script/style/noscript/template is hidden (one shared
    depth); CSS ``url(...)`` references are taken from style attributes
    and from inside ``<style>`` (its own depth).
    """

    def __init__(self):
        super().__init__(convert_charrefs=True)
        self._hidden = 0
        self._style = 0
        self.chunks: list[str] = []
        self.urls: list[str] = []

    def handle_starttag(self, tag, attrs):
        if tag in _NON_CONTENT_TAGS:
            self._hidden += 1
            if tag == "style":
                self._style += 1
        for name, value in attrs:
            if value is None:
                continue
            if name in _URL_ATTRS:
                self.urls.append(value)
            elif name == "style":
                self.urls.extend(_CSS_URL_RE.findall(value))

    def handle_endtag(self, tag):
        if tag in _NON_CONTENT_TAGS:
            if self._hidden:
                self._hidden -= 1
            if tag == "style" and self._style:
                self._style -= 1

    def handle_data(self, data):
        if not self._hidden and data:
            self.chunks.append(data)
        if self._style:
            self.urls.extend(_CSS_URL_RE.findall(data))

    def parse_marked_section(self, i, report=1):
        # _markupbase raises on a "<![" keyword it does not know; read
        # that section as a bogus comment up to the next ">", as the
        # WHATWG tokenizer does, instead of stopping the walk there
        try:
            return super().parse_marked_section(i, report)
        except AssertionError:
            return self.parse_bogus_comment(i, report)


def parse_page(html: bytes | str) -> tuple[str, list[str]]:
    """Visible text and embedded URL strings of an HTML document.

    Byte input is decoded as UTF-8 with replacement, so this never fails
    on malformed documents.  The result is that of one html.parser walk
    with character references converted:

    - The text has markup dropped and whitespace collapsed to single
      spaces; every tag and comment separates words.  Text inside
      script, style, noscript and template is hidden.
    - The URLs are the src, href and data-src attribute values and the
      CSS ``url(...)`` targets of style attributes and ``<style>``
      bodies, in document order.  Attribute values have character
      references decoded (``href="&amp;q"`` gives ``&q``); URLs inside
      noscript and template are kept.
    - Script and style bodies are raw text, so markup and character
      references in them stay as written, and a script or style left
      open at EOF drops the rest of the page.

    Pages made only of constructs that html.parser and the WHATWG
    tokenizer (scripting disabled) read alike are read by ``htmlscan.scan``,
    which matches their markup with one compiled regex; any other page
    is walked by html.parser itself, after the scan up to the first
    construct outside that subset.
    """
    if isinstance(html, bytes):
        html = html.decode("utf-8", errors="replace")
    scanned = scan(html)
    if scanned is None:
        parser = _PageParser()
        parser.feed(html)
        parser.close()
        scanned = parser.chunks, parser.urls
    chunks, urls = scanned
    return " ".join(" ".join(chunks).split()), urls


def extract_text(html: bytes | str) -> str:
    """Visible text of an HTML document (see ``parse_page``)."""
    return parse_page(html)[0]


_TOKEN_RE = re.compile(r"[a-z]+")
_COMMENT_RE = re.compile(r"^\s*#")


def _load_lines(path: str | Path | None, default_resource: str) -> list[tuple[int, str]]:
    """Numbered lines of a data file, blank and comment lines dropped."""
    lines = (enumerate(read_bundled(default_resource).splitlines(), 1) if path is None
             else numbered_lines(path))
    return [(lineno, line) for lineno, line in lines
            if line.strip() and not _COMMENT_RE.match(line)]


class Preprocessor:
    """Tokenizer with stopword removal and deterministic suffix normalization.

    Both word lists ship as plain-text data files and can be replaced by
    path; rules apply first-match-wins, once per token.
    """

    def __init__(self, stopwords_path=None, suffix_rules_path=None, min_token_len: int = 2):
        self.stopwords = frozenset(
            w.strip().lower() for _, w in _load_lines(stopwords_path, "stopwords.txt")
        )
        self.rules = self._parse_rules(
            _load_lines(suffix_rules_path, "suffix_rules.txt"),
            suffix_rules_path or "suffix_rules.txt",
        )
        self.min_token_len = min_token_len

    @staticmethod
    def _parse_rules(
        lines: list[tuple[int, str]], source: str | Path
    ) -> list[tuple[re.Pattern, str]]:
        rules = []
        for lineno, line in lines:
            parts = line.split()
            if len(parts) != 2:
                raise ValueError(
                    f"{source}:{lineno}: bad suffix rule: expected <regex> <replacement>, "
                    f"got {len(parts)} fields"
                )
            try:
                pattern = re.compile(parts[0])
                pattern.sub(parts[1], "")  # compiles the replacement template
            except (re.error, IndexError) as exc:
                raise ValueError(f"{source}:{lineno}: bad suffix rule: {exc}") from None
            rules.append((pattern, parts[1]))
        return rules

    def normalize(self, token: str) -> str:
        for pattern, replacement in self.rules:
            new, n = pattern.subn(replacement, token)
            if n:
                return new
        return token

    def tokens(self, text: str, memo: dict[str, str | None] | None = None) -> list[str]:
        """Normalized tokens of a text, stopwords and short tokens dropped.

        ``memo`` maps each raw token seen so far to its normalized form,
        or None if dropped; callers tokenizing many texts pass one dict
        to all of them.  It belongs to the caller, never to this
        (possibly process-wide) preprocessor.
        """
        if memo is None:
            memo = {}
        out = []
        for tok in _TOKEN_RE.findall(text.lower()):
            try:
                norm = memo[tok]
            except KeyError:
                norm = memo[tok] = (
                    None
                    if len(tok) < self.min_token_len or tok in self.stopwords
                    else self.normalize(tok)
                )
            if norm is not None:
                out.append(norm)
        return out


@lru_cache(maxsize=1)
def default_preprocessor() -> Preprocessor:
    return Preprocessor()


def preprocess(text: str) -> list[str]:
    """Tokenize with the bundled stopword list and suffix rules."""
    return default_preprocessor().tokens(text)
