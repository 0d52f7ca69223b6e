"""Detection of sites that synchronize their uptime or published content.

Uptime synchronization compares quarter-aggregated alive counts by
euclidean distance; content synchronization compares per-month TF-IDF
vectors of landing-page text by cosine similarity and groups matched
pairs into clusters.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain
from typing import Iterable, Iterator, Mapping, Sequence

import numpy as np

from .textproc import Preprocessor, default_preprocessor
from .tfidf import TfidfVector, build_tfidf, cosine
from .timeline import MonthStamp, MonthlyTimeline, Quarter


@dataclass(frozen=True)
class QuarterSeries:
    """Alive-month counts (0..3) per quarter for one site."""

    site: str
    start: Quarter
    values: tuple[int, ...]

    def __post_init__(self):
        if any(v not in (0, 1, 2, 3) for v in self.values):
            raise ValueError("quarter values must be in 0..3")


def quarterize(
    t: MonthlyTimeline, window: tuple[Quarter, Quarter]
) -> QuarterSeries:
    """Count alive months per quarter; months outside the timeline count 0."""
    start, end = window
    if end < start:
        raise ValueError(f"empty quarter window: {start}..{end}")
    codes = t.window(start.months()[0], end.months()[-1])
    values = tuple(codes.count("A", i, i + 3) for i in range(0, len(codes), 3))
    return QuarterSeries(t.site, start, values)


@dataclass(frozen=True)
class UptimePair:
    site_a: str
    site_b: str
    distance: float


def distance_rows(series: Sequence[QuarterSeries]) -> Iterator[np.ndarray]:
    """Euclidean distance from each series to every series, one row at a time.

    Values are 0..3, so the squared distances |a|^2 + |b|^2 - 2a.b are
    exact int64 sums and each cell is the square root of an exact integer.
    """
    if not series:
        return
    for s in series[1:]:
        if s.start != series[0].start or len(s.values) != len(series[0].values):
            raise ValueError(f"quarter windows differ: {series[0].site} vs {s.site}")
    x = np.array([s.values for s in series], dtype=np.int64)
    norms = (x * x).sum(axis=1)
    for i in range(len(x)):
        yield np.sqrt(norms[i] + norms - 2 * (x @ x[i]))


def pairwise_uptime(
    series: Iterable[QuarterSeries], max_distance: float = 0.0
) -> list[UptimePair]:
    """All unordered site pairs within max_distance, closest first."""
    ss = sorted(series, key=lambda s: s.site)
    if len(ss) < 2:
        raise ValueError("need at least two series")
    pairs = []
    for i, row in enumerate(distance_rows(ss)):
        for j in np.flatnonzero(row[i + 1 :] <= max_distance) + i + 1:
            pairs.append(UptimePair(ss[i].site, ss[j].site, float(row[j])))
    pairs.sort(key=lambda p: (p.distance, p.site_a, p.site_b))
    return pairs


@dataclass(frozen=True)
class ContentMatch:
    site_a: str
    site_b: str
    month: MonthStamp
    similarity: float


@dataclass(frozen=True)
class SyncCluster:
    """Sites found publishing near-identical content, with the months involved."""

    sites: frozenset[str]
    months: frozenset[MonthStamp]


# An approximate dot product sums the same products as ``cosine`` in
# another order, off by ~1e-15; this slack keeps every pair whose exact
# cosine reaches the threshold among the candidates.
_CANDIDATE_SLACK = 1e-9

# Documents and terms per dense block of the Gram product: a row block's
# dot products with every later document are summed over column blocks,
# so at most ROW x n dot products and n x COL weights are held at once.
_ROW_BLOCK = 128
_COL_BLOCK = 256


def _candidate_pairs(
    vectors: Sequence[TfidfVector], threshold: float
) -> list[tuple[int, int]]:
    """Index pairs (i < j) sharing a term whose dot product may reach the
    threshold, sorted by i then j.

    Only terms held by two or more documents can add to a dot product, so
    those columns alone are scattered, block by block, into a dense
    float64 slab of the documents from a row block's first one onward,
    and the row block's dot products are the sum of its slab products.
    """
    n = len(vectors)
    index = {t: c for c, t in enumerate(dict.fromkeys(chain.from_iterable(vectors)))}
    lengths = [len(v) for v in vectors]
    nnz = sum(lengths)
    terms = np.fromiter(map(index.__getitem__, chain.from_iterable(vectors)), np.int32, nnz)
    held = np.bincount(terms, minlength=len(index)) >= 2
    if not held.any():
        return []
    column = np.cumsum(held, dtype=np.int32) - 1
    shared = held[terms]
    cols = column[terms[shared]]
    rows = np.repeat(np.arange(n, dtype=np.int32), lengths)[shared]
    weights = np.fromiter(chain.from_iterable(map(dict.values, vectors)), np.float64, nnz)[shared]
    del terms, shared
    # entries grouped by column block, in row order within each block
    block = cols // _COL_BLOCK
    order = np.argsort(block, kind="stable")
    rows = rows[order]
    cols = cols[order] % _COL_BLOCK
    weights = weights[order]
    bounds = np.searchsorted(block[order], np.arange(block.max() + 2))
    del block, order

    cutoff = threshold - _CANDIDATE_SLACK
    buffer = np.zeros((n, _COL_BLOCK))  # the last block's missing columns stay 0
    pairs: list[tuple[int, int]] = []
    for r0 in range(0, n - 1, _ROW_BLOCK):
        r1 = min(r0 + _ROW_BLOCK, n)
        slab = buffer[: n - r0]
        gram = np.zeros((r1 - r0, n - r0))
        for lo, hi in zip(bounds, bounds[1:]):
            first, stop = lo + np.searchsorted(rows[lo:hi], (r0, r1))
            if first == stop:
                continue  # no weight of this row block in these columns
            at = rows[first:hi] - r0, cols[first:hi]
            slab[at] = weights[first:hi]
            gram += slab[: r1 - r0] @ slab.T
            slab[at] = 0.0
        # a pair sharing a term has a positive dot product
        keep = gram >= cutoff if cutoff > 0 else gram > 0
        i, j = np.nonzero(np.triu(keep, 1))
        pairs.extend(zip((i + r0).tolist(), (j + r0).tolist()))
    return pairs


def detect_content_sync(
    texts_by_month: Mapping[MonthStamp, Mapping[str, str]],
    threshold: float = 0.5,
    min_tokens: int = 10,
    preprocessor: Preprocessor | None = None,
) -> tuple[list[ContentMatch], list[SyncCluster]]:
    """Find site pairs serving near-duplicate content, month by month.

    Input is extracted landing-page text keyed by month then site.
    Months with fewer than two usable documents are skipped, and
    near-empty documents (< min_tokens tokens) are excluded to suppress
    trivially similar parked pages.  Clusters are the connected
    components over (month, site) nodes: each matched pair joins its two
    nodes, and a site matched in consecutive months joins its two nodes.
    """
    if not 0.0 < threshold <= 1.0:
        raise ValueError("threshold must be in (0, 1]")
    pre = preprocessor or default_preprocessor()

    matches: list[ContentMatch] = []
    parent: dict = {}  # union-find forest over (month, site) nodes

    def find(node):
        while parent.setdefault(node, node) != node:
            parent[node] = parent[parent[node]]
            node = parent[node]
        return node

    memo: dict[str, str | None] = {}
    for month in sorted(texts_by_month):
        corpus = {}
        for site in sorted(texts_by_month[month]):
            tokens = pre.tokens(texts_by_month[month][site], memo)
            if len(tokens) >= min_tokens:
                corpus[site] = tokens
        if len(corpus) < 2:
            continue
        vectors = build_tfidf(corpus)
        sites = sorted(vectors)
        for i, j in _candidate_pairs([vectors[s] for s in sites], threshold):
            a, b = sites[i], sites[j]
            sim = cosine(vectors[a], vectors[b])
            if sim >= threshold:
                matches.append(ContentMatch(a, b, month, sim))
                parent[find((month, b))] = find((month, a))

    nodes = sorted(parent)
    # compared by ordinal: month.plus(1) raises past the last month MonthStamp holds
    matched = {(month.ordinal, site) for month, site in nodes}
    for month, site in nodes:
        if (month.ordinal + 1, site) in matched:
            parent[find((month.plus(1), site))] = find((month, site))
    merged: dict = {}
    for month, site in nodes:
        sites_acc, months_acc = merged.setdefault(find((month, site)), (set(), set()))
        sites_acc.add(site)
        months_acc.add(month)
    clusters = [
        SyncCluster(frozenset(s), frozenset(m)) for s, m in merged.values()
    ]
    clusters.sort(key=lambda c: (min(c.months), sorted(c.sites)))
    return matches, clusters
