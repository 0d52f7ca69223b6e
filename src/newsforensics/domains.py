"""Registrable-domain extraction against a pinned public-suffix snapshot.

Implements the publicsuffix.org matching algorithm (longest matching
rule wins, exception rules beat wildcards, unlisted TLDs fall back to
the implicit "*" rule) over a bundled snapshot file that callers can
replace with a newer list.  A lookup probes the host's tails against
sets of rule tuples, so it costs O(labels) set lookups whatever the
list's size; that is why a wildcard may only be a rule's leftmost label
and exception rules may hold none, as in the published list.
"""

from __future__ import annotations

from functools import lru_cache
from pathlib import Path
from typing import Iterable

from .files import read_bundled, read_text, split_lines


class PublicSuffixList:
    def __init__(self, rules: Iterable[str], source: str | Path | None = None):
        """Errors name ``source:line:`` when the rules come from a file, else ``line N:``."""
        self._rules: set[tuple[str, ...]] = set()
        self._exceptions: set[tuple[str, ...]] = set()
        for lineno, raw in enumerate(rules, 1):
            line = raw.strip()
            if not line or line.startswith("//"):
                continue
            line = line.split()[0].lower()
            where = f"{source}:{lineno}" if source else f"line {lineno}"
            if line.startswith("!"):
                rule = tuple(line[1:].split("."))
                if "*" in rule:
                    raise ValueError(f"{where}: wildcard in exception rule {line!r}")
                self._exceptions.add(rule)
            else:
                rule = tuple(line.split("."))
                if "*" in rule[1:]:
                    raise ValueError(f"{where}: wildcard not in the leftmost label of {line!r}")
                self._rules.add(rule)

    @classmethod
    def from_file(cls, path: str | Path) -> "PublicSuffixList":
        return cls(split_lines(read_text(path)), source=path)

    @classmethod
    def bundled(cls) -> "PublicSuffixList":
        return cls(split_lines(read_bundled("public_suffix_list.dat")))

    def public_suffix(self, host: str) -> str | None:
        """Longest public suffix of a hostname, or None for invalid input.

        Walks the host's tails longest first: the longest matching
        exception rule wins (its suffix drops the rule's first label),
        else the longest tail matching a rule literally or through a
        leftmost ``*``, else the implicit ``*`` (the last label).
        """
        host = host.strip().lower().rstrip(".")
        if not host or host.startswith(".") or ".." in host:
            return None
        labels = tuple(host.split("."))
        if any(not label for label in labels):
            return None
        n = len(labels)
        for k in range(n, 0, -1):
            if labels[n - k :] in self._exceptions:
                return ".".join(labels[n - k + 1 :])
        for k in range(n, 1, -1):
            tail = labels[n - k :]
            if tail in self._rules or ("*",) + tail[1:] in self._rules:
                return ".".join(tail)
        return labels[-1]

    def registrable_domain(self, host: str) -> str | None:
        """Public suffix plus one label; None if the host is a bare suffix."""
        suffix = self.public_suffix(host)
        if suffix is None:
            return None
        host = host.strip().lower().rstrip(".")
        n_suffix = suffix.count(".") + 1
        labels = host.split(".")
        if len(labels) <= n_suffix:
            return None
        return ".".join(labels[len(labels) - n_suffix - 1 :])


@lru_cache(maxsize=1)
def bundled_psl() -> PublicSuffixList:
    return PublicSuffixList.bundled()


def registrable_domain(host: str, psl: PublicSuffixList | None = None) -> str | None:
    return (psl or bundled_psl()).registrable_domain(host)
