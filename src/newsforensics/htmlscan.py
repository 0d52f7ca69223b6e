"""The fast path of ``textproc.parse_page``: one compiled regex scan of a
well-formed page, and the element and attribute names that it and
``textproc._PageParser`` both read."""

from __future__ import annotations

import re
from html import unescape
from html.entities import html5

_NON_CONTENT_TAGS = {"script", "style", "noscript", "template"}
_URL_ATTRS = {"src", "href", "data-src"}
_CSS_URL_RE = re.compile(r"url\(\s*['\"]?([^'\")\s]+)['\"]?\s*\)", re.IGNORECASE)

# The fast path's subset of HTML.  Every construct in it is read the same
# way by html.parser and by the WHATWG tokenizer (with scripting disabled,
# as a crawler reads pages, so noscript holds markup), so a page made only
# of them gives textproc._PageParser's result without running it, and any
# other construct sends the whole page to _PageParser.  Inside tags,
# whitespace is the five ASCII characters both readers agree on; a name or
# unquoted value stops at any character \s matches, so a Unicode or control
# space (where html.parser's name classes and \s disagree) fails the match.
_WS = r"[\t\n\r\f ]"
_NAME = r"[a-zA-Z][^\s/>\x00]*"
_ATTR_NAME = r"""[^\s/>="']+"""
_QUOTED = r""""[^"]*"|'[^']*'"""
_BARE = r"""[^\s>"'=][^\s>]*"""


def _once(group: str, pattern: str) -> str:
    """``pattern`` matched greedily and never given back.  A lookahead is
    atomic, so a match that fails later does not retry shorter runs: the
    scan stays linear on a tag left open for a megabyte (possessive
    quantifiers would do the same, but need Python 3.11)."""
    return rf"(?=(?P<{group}>{pattern}))(?P={group})"


_MARKUP_RE = re.compile(
    rf"""
    <{_once("tag", _NAME)}                              # start tag
    {_once("attrs", rf"(?:{_once('attr_ws', _WS + '+')}{_ATTR_NAME}"
                    rf"(?:{_once('attr_eq', _WS + '*=' + _WS + '*')}(?:{_QUOTED}|{_BARE}))?)*")}
    {_once("tag_ws", _WS + "*")}(?P<slash>/?)>
  | </{_once("endtag", _NAME)}{_WS}*>                  # end tag
  | <!--(?!-?>)(?P<comment>.*?)(?P<comment_close>--\s*>)  # WHATWG ends <!--> and <!---> at once
  | <![dD][oO][cC][tT][yY][pP][eE][^>]*>
    """,
    re.VERBOSE | re.DOTALL,
)
# One attribute of a start tag _MARKUP_RE accepted: name, "=", value.
_ATTR_RE = re.compile(
    rf"""{_WS}+({_ATTR_NAME})(?:{_WS}*(=){_WS}*(?:"([^"]*)"|'([^']*)'|({_BARE})))?"""
)
# A raw-text body ends at the first "</name" in any case, with or without
# space after "</", and is accepted only if that is a close of the form
# </name[ws]*>: then html.parser's close pattern and the WHATWG tokenizer
# both end it there.  Inside <script>, "<!--" opens escape states that
# html.parser does not know.
_RAW_CLOSE = {
    name: (
        re.compile(rf"</\s*{name}", re.IGNORECASE),
        re.compile(rf"</{name}{_WS}*>", re.IGNORECASE | re.ASCII),
    )
    for name in ("script", "style")
}
# Elements whose content the WHATWG tokenizer reads as text up to their end
# tag, even after "/>".  html.parser reads all but script and style as
# markup, so those are accepted only with no "<" in the body, and no "&"
# where WHATWG leaves character references as written.
_RCDATA = {"title", "textarea"}
_RAWTEXT = {"xmp", "iframe", "noembed", "noframes"}
_TEXT_ELEMENTS = {*_RAW_CLOSE, *_RCDATA, *_RAWTEXT, "plaintext"}
# Inside svg or math, WHATWG reads script and style as markup.  An end tag
# there closes the nearest open element of its name unless an HTML element
# sits in between, and HTML elements get inside only as children of these
# integration points (svg's title, the other one, holds no markup in the
# fast path).  So while no start tag comes inside an integration point,
# per-name counts of unclosed start tags never fall below the elements
# WHATWG holds open, and once svg and math are back at 0 it reads HTML.
_FOREIGN_ROOTS = ("svg", "math")
_INTEGRATION_POINTS = ("foreignobject", "desc", "annotation-xml", "mi", "mo", "mn", "ms", "mtext")
# html.unescape's own reference pattern: each match is one reference it decodes.
_CHARREF_RE = re.compile(r"&(#[0-9]+;?|#[xX][0-9a-fA-F]+;?|[^\t\n\f <&#;]{1,32};?)")
_NAME_GOES_ON = re.compile(r"[A-Za-z0-9=]")


def _unescape(value: str, attribute: bool) -> str | None:
    """``html.unescape(value)``, or None where the WHATWG tokenizer reads a
    reference in it otherwise: html.unescape drops the code points of some
    numeric references (``&#1;``) that WHATWG keeps, and it decodes the
    longest name without ";" that starts a reference, which WHATWG leaves
    as written in an attribute when "=" or an ASCII letter or digit
    follows (``&amp=``, ``&ampc``, ``&notit;``)."""
    if attribute or "&#" in value:
        for ref in _CHARREF_RE.findall(value):
            if ref[0] == "#":
                if not unescape("&" + ref):
                    return None
            elif attribute and ref not in html5:
                n = next((n for n in range(len(ref) - 1, 1, -1) if ref[:n] in html5), 0)
                if n and _NAME_GOES_ON.match(ref, n):
                    return None
    return unescape(value)


def scan(html: str) -> tuple[list[str], list[str]] | None:
    """Text chunks and URLs of a page made only of the fast path's subset,
    as textproc._PageParser gathers them, or None if any construct falls outside it."""
    if "\x00" in html:
        return None
    chunks: list[str] = []
    urls: list[str] = []
    hidden = 0  # _PageParser's shared depth of non-content elements
    text_only = None  # element whose end tag must be the next markup
    foreign = dict.fromkeys(_FOREIGN_ROOTS + _INTEGRATION_POINTS, 0)  # unclosed, by name
    in_foreign = False  # an svg or math start tag is unclosed
    match = _MARKUP_RE.match
    pos, end = 0, len(html)
    while pos < end:
        lt = html.find("<", pos)
        if lt != pos:  # text up to the next "<"
            if lt < 0:
                lt = end
            text = html[pos:lt]
            if "&" in text:
                if text_only in _RAWTEXT:
                    return None
                text = _unescape(text, False)
                if text is None:
                    return None
            if not hidden:
                chunks.append(text)
            if lt == end:
                break
        m = match(html, lt)
        if m is None:
            return None
        pos = m.end()
        kind = m.lastgroup
        if text_only:
            if kind != "endtag" or m.group("endtag").lower() != text_only:
                return None
            text_only = None
        elif kind == "slash":  # a start tag
            name = m.group("tag").lower()
            slash = m.group("slash")
            if m.group("attrs"):
                seen = set()
                for attr, eq, dq, sq, bare in _ATTR_RE.findall(m.group("attrs")):
                    attr = attr.lower()
                    if attr not in _URL_ATTRS and attr != "style":
                        continue
                    if attr in seen:  # WHATWG keeps only the first
                        return None
                    seen.add(attr)
                    if not eq:
                        continue
                    value = dq or sq or bare
                    if "\r" in value:
                        return None  # WHATWG reads CR and CR LF as LF
                    if "&" in value:
                        value = _unescape(value, True)
                        if value is None:
                            return None
                    if attr == "style":
                        urls.extend(_CSS_URL_RE.findall(value))
                    else:
                        urls.append(value)
            if in_foreign:
                if any(foreign[point] for point in _INTEGRATION_POINTS):
                    return None  # WHATWG reads it as HTML inside svg or math
                if name in _INTEGRATION_POINTS and not slash:
                    foreign[name] += 1
            if name in _TEXT_ELEMENTS:
                if slash or name == "plaintext" or (in_foreign and name in _RAW_CLOSE):
                    return None
                if name not in _RAW_CLOSE:
                    text_only = name
                    continue
                first_close, plain_close = _RAW_CLOSE[name]
                close = first_close.search(html, pos)
                if close is None:
                    return None  # open at EOF: html.parser drops the rest
                start = close.start()
                close = plain_close.match(html, start)
                if close is None:
                    return None
                body = html[pos:start]
                if name == "style":
                    urls.extend(_CSS_URL_RE.findall(body))
                elif "<!--" in body:
                    return None
                pos = close.end()
            elif name in _FOREIGN_ROOTS:
                if not slash:  # "<svg/>" closes at once in both readers
                    foreign[name] += 1
                    in_foreign = True
            elif name in ("noscript", "template"):
                if slash:
                    return None  # WHATWG leaves it open, html.parser closes it
                hidden += 1
        elif kind == "endtag":
            name = m.group("endtag").lower()
            if name in _NON_CONTENT_TAGS:
                if hidden:
                    hidden -= 1
            elif in_foreign and foreign.get(name):
                foreign[name] -= 1
                if not (foreign["svg"] or foreign["math"]):
                    in_foreign = False
                    foreign = dict.fromkeys(foreign, 0)
        elif kind == "comment_close" and (
            m.group("comment_close") != "-->" or "--!>" in m.group("comment")
        ):
            return None  # WHATWG ends the comment elsewhere
    if text_only:
        return None
    return chunks, urls
