"""Brute-force reference implementations used to check the fast paths.

These deliberately mirror the rule text step by step (repeated passes,
all-pairs scans, dense vectors) rather than sharing any code with the
library, so they stay independent of the implementations they verify.
"""

from __future__ import annotations

import csv
import json
import math
import re
from operator import attrgetter
from types import SimpleNamespace

import numpy as np

from newsforensics.classify.encoder import (
    CATEGORICAL_FEATURES,
    NUMERIC_FEATURES,
    REQUIRED_FEATURES,
    VARIANCE_THRESHOLD,
)
from newsforensics.classify.metrics import ClassMetrics
from newsforensics.sync import _CANDIDATE_SLACK, ContentMatch, QuarterSeries, SyncCluster
from newsforensics.textproc import _PageParser
from newsforensics.tfidf import build_tfidf, cosine
from newsforensics.timeline import (
    CohortHistogram,
    LifetimeSummary,
    MonthStamp,
    MonthlyTimeline,
    SiteState,
    month_range,
    normalize_site,
)
from newsforensics.traffic import (
    EDU_GOV_RATIOS,
    METRIC_FIELDS,
    REQUIRED_COLUMNS,
    SHARE_FIELDS,
    RowError,
    TrafficProfile,
    _INT_FIELDS,
    describe,
    ecdf,
    parse_quantity,
)

A, Z, D, M = SiteState.ALIVE, SiteState.ZOMBIE, SiteState.DEAD, SiteState.MISSING


def p1_reference(t: MonthlyTimeline, max_gap_months: int = 36) -> MonthlyTimeline:
    """Phase 1 by literal repetition: increasing gap sizes, re-scan per pass.

    For each gap size m = 1.. max_gap_months, repeatedly find index pairs
    (i, j) carrying the same alive/zombie label with exactly m missing
    months and nothing else between them, and propagate the label.
    """
    states = [SiteState(c) for c in t.states]
    n = len(states)
    for m in range(1, max_gap_months + 1):
        changed = True
        while changed:
            changed = False
            for i in range(n):
                j = i + m + 1
                if j >= n:
                    break
                if states[i] not in (A, Z) or states[j] is not states[i]:
                    continue
                if all(states[k] is M for k in range(i + 1, j)):
                    for k in range(i + 1, j):
                        states[k] = states[i]
                    changed = True
    return MonthlyTimeline(t.site, t.start, states)


def p2_reference(
    t: MonthlyTimeline, max_span_months: int = 36, max_nonalive: int = 12
) -> MonthlyTimeline:
    """Phase 2 by literal repetition over all alive pairs until fixpoint.

    Any two alive months at most max_span_months apart with at most
    max_nonalive zombie/dead months between them get their intervening
    missing months relabelled alive.  No maximality restriction: the
    scan covers every alive pair and repeats until nothing changes.
    """
    states = [SiteState(c) for c in t.states]
    n = len(states)
    changed = True
    while changed:
        changed = False
        for i in range(n):
            if states[i] is not A:
                continue
            for j in range(i + 1, min(n, i + max_span_months + 1)):
                if states[j] is not A:
                    continue
                between = states[i + 1 : j]
                if sum(1 for s in between if s in (Z, D)) > max_nonalive:
                    continue
                for k in range(i + 1, j):
                    if states[k] is M:
                        states[k] = A
                        changed = True
    return MonthlyTimeline(t.site, t.start, states)


def _state_at(t: MonthlyTimeline, month: MonthStamp) -> SiteState:
    """State of one month; months outside the timeline are missing."""
    i = month - t.start
    return SiteState(t.states[i]) if 0 <= i < len(t.states) else M


def cohort_histogram_reference(timelines, window) -> CohortHistogram:
    """Per-month counts, one month and one site at a time."""
    ts = list(timelines)
    months = list(month_range(*window))
    alive, zombie, dead = [], [], []
    for m in months:
        a = sum(1 for t in ts if _state_at(t, m) is A)
        z = sum(1 for t in ts if _state_at(t, m) is Z)
        alive.append(a)
        zombie.append(z)
        dead.append(len(ts) - a - z)
    return CohortHistogram(tuple(months), tuple(alive), tuple(zombie), tuple(dead), len(ts))


def quarterize_reference(t: MonthlyTimeline, window) -> QuarterSeries:
    """Alive months per quarter, one month at a time."""
    start, end = window
    values = []
    q = start
    while q <= end:
        values.append(sum(1 for m in q.months() if _state_at(t, m) is A))
        q = q.plus(1)
    return QuarterSeries(t.site, start, tuple(values))


def lifetime_summary_reference(t: MonthlyTimeline) -> LifetimeSummary:
    """First-to-last alive span and state counts from a month-by-month walk."""
    alive = [m for m in month_range(t.start, t.end) if _state_at(t, m) is A]
    zombie = sum(1 for m in month_range(t.start, t.end) if _state_at(t, m) is Z)
    lifespan = alive[-1] - alive[0] + 1 if alive else 0
    return LifetimeSummary(t.site, lifespan, len(alive), zombie)


def pipeline_reference(t: MonthlyTimeline, max_gap_months=36, max_span_months=36,
                       max_nonalive=12) -> MonthlyTimeline:
    return p2_reference(p1_reference(t, max_gap_months), max_span_months, max_nonalive)


def dense_cosine(tokens_a: list[str], tokens_b: list[str],
                 corpus: dict[str, list[str]]) -> float:
    """Cosine of two documents via dense tf-idf vectors over the corpus vocabulary."""
    vocab = sorted({tok for doc in corpus.values() for tok in doc})
    n_docs = len(corpus)
    df = {
        term: sum(1 for doc in corpus.values() if term in doc) for term in vocab
    }

    def vec(tokens: list[str]) -> list[float]:
        row = []
        for term in vocab:
            tf = tokens.count(term)
            idf = math.log((1 + n_docs) / (1 + df[term])) + 1.0
            row.append(tf * idf)
        norm = math.sqrt(sum(x * x for x in row))
        return [x / norm for x in row] if norm else row

    va, vb = vec(tokens_a), vec(tokens_b)
    return sum(x * y for x, y in zip(va, vb))


def tree_walk_reference(tree, X) -> np.ndarray:
    """P(positive) per row by descending the serialized node list row by row."""
    nodes = tree.to_dict()["nodes"]
    out = np.empty(len(X))
    for i, row in enumerate(X):
        feature, threshold, left, right, prob = nodes[0]
        while feature >= 0:
            child = left if row[feature] <= threshold else right
            feature, threshold, left, right, prob = nodes[child]
        out[i] = prob
    return out


def _feature_split_reference(x, y, min_leaf):
    """Best threshold of one feature by weighted gini; None when unsplittable."""
    order = np.argsort(x, kind="mergesort")
    xs, ys = x[order], y[order]
    boundaries = np.nonzero(xs[1:] != xs[:-1])[0] + 1  # candidate left sizes
    n = len(xs)
    if min_leaf > 1:
        boundaries = boundaries[(boundaries >= min_leaf) & (n - boundaries >= min_leaf)]
    if boundaries.size == 0:
        return None
    cum_pos = np.cumsum(ys)
    n_left = boundaries
    n_right = n - n_left
    pos_left = cum_pos[boundaries - 1]
    pos_right = cum_pos[-1] - pos_left
    p_left = pos_left / n_left
    p_right = pos_right / n_right
    gini_left = 1.0 - p_left**2 - (1.0 - p_left) ** 2
    gini_right = 1.0 - p_right**2 - (1.0 - p_right) ** 2
    weighted = (n_left * gini_left + n_right * gini_right) / n
    k = int(np.argmin(weighted))  # first minimum within the feature
    split_at = int(boundaries[k])
    below, above = xs[split_at - 1], xs[split_at]
    threshold = (below + above) / 2.0
    return float(weighted[k]), threshold if below <= threshold < above else below


def best_split_reference(X, y, features, min_leaf):
    """(feature, threshold) of a node, one feature at a time; None when no
    feature splits.  A later feature wins only with a strictly lower gini."""
    best = None
    for f in sorted(features):
        split = _feature_split_reference(X[:, f], y, min_leaf)
        if split and (best is None or split[0] < best[0]):
            best = (split[0], int(f), split[1])
    return None if best is None else (best[1], float(best[2]))


def split_search_reference(cols, y, min_leaf):
    """(column, threshold) of a (features, rows) matrix; None if none splits.

    Every column is stable-sorted and scored at every left size k by
    weighted gini; a k is valid only where the sorted value changes and
    both sides keep min_leaf rows.  A midpoint that rounds onto the upper
    value (or overflows) falls back to the lower one.
    """
    n = cols.shape[1]
    order = np.argsort(cols, axis=1, kind="mergesort")
    xs = np.take_along_axis(cols, order, axis=1)
    cum_pos = np.cumsum(y[order], axis=1)
    n_left = np.arange(1, n)
    n_right = n - n_left
    valid = (xs[:, 1:] != xs[:, :-1]) & (n_left >= min_leaf) & (n_right >= min_leaf)
    if not valid.any():
        return None
    pos_left = cum_pos[:, :-1]
    p_left = pos_left / n_left
    p_right = (cum_pos[:, -1:] - pos_left) / n_right
    gini_left = 1.0 - p_left**2 - (1.0 - p_left) ** 2
    gini_right = 1.0 - p_right**2 - (1.0 - p_right) ** 2
    weighted = np.where(valid, (n_left * gini_left + n_right * gini_right) / n, np.inf)
    col, last = divmod(int(np.argmin(weighted)), n - 1)  # last sorted row on the left
    threshold = (xs[col, last] + xs[col, last + 1]) / 2.0
    if not xs[col, last] <= threshold < xs[col, last + 1]:
        threshold = xs[col, last]
    return col, float(threshold)


def grow_tree_reference(X, y, rng, max_features, min_samples_leaf, max_depth):
    """Serialized node list of one tree, grown node by node in LIFO order.

    Each node's P(positive) is its label mean and its children are the
    rows at or below / above the threshold of ``split_search_reference``.
    """
    n, d = X.shape
    m = min(max_features, d)
    nodes = []
    stack = [(np.arange(n), 0, -1, False)]
    while stack:
        idx, depth, parent, is_left = stack.pop()
        node_id = len(nodes)
        prob = float(y[idx].mean())
        node = [-1, 0.0, -1, -1, prob]
        nodes.append(node)
        if parent >= 0:
            nodes[parent][2 if is_left else 3] = node_id
        if (prob in (0.0, 1.0) or len(idx) < 2 * min_samples_leaf
                or (max_depth is not None and depth >= max_depth)):
            continue
        features = np.sort(rng.choice(d, size=m, replace=False)) if m < d else np.arange(d)
        split = split_search_reference(X[np.ix_(idx, features)].T, y[idx], min_samples_leaf)
        if split is None:
            continue
        node[0], node[1] = int(features[split[0]]), split[1]
        mask = X[idx, node[0]] <= node[1]
        stack.append((idx[~mask], depth + 1, node_id, False))
        stack.append((idx[mask], depth + 1, node_id, True))
    return nodes


def forest_reference(X, y, seed, n_trees, max_features, min_samples_leaf, max_depth) -> dict:
    """Serialized forest: one bootstrap and one grown tree per spawned seed."""
    n, d = X.shape
    m = max(1, math.ceil(math.sqrt(d))) if max_features == "sqrt" else max_features
    trees = []
    for seq in np.random.SeedSequence(seed).spawn(n_trees):
        rng = np.random.default_rng(seq)
        sample = rng.integers(0, n, size=n)
        nodes = grow_tree_reference(X[sample], y[sample], rng, m, min_samples_leaf, max_depth)
        trees.append({"nodes": nodes})
    return {"n_trees": n_trees, "max_features": max_features,
            "min_samples_leaf": min_samples_leaf, "max_depth": max_depth, "trees": trees}


def encode_reference(encoder, profile) -> np.ndarray:
    """One encoded row, column by column from the encoder's fitted statistics."""
    missing = [f for f in REQUIRED_FEATURES if getattr(profile, f) is None]
    if missing:
        raise ValueError(f"profile {profile.site} missing features: {missing}")
    row = np.zeros(len(encoder.columns))
    for i, column in enumerate(encoder.columns):
        if "=" in column:
            name, value = column.split("=", 1)
            row[i] = 1.0 if str(getattr(profile, name)) == value else 0.0
        else:
            mean, std = encoder.means[column], encoder.stds[column]
            row[i] = (float(getattr(profile, column)) - mean) / std
    return row


def _feature_table_reference(profiles: list[TrafficProfile]) -> np.ndarray:
    """Object array of raw feature values, one column per REQUIRED_FEATURES."""
    get = attrgetter(*REQUIRED_FEATURES)
    rows = [get(p) for p in profiles]
    return np.array(rows, dtype=object).reshape(len(rows), len(REQUIRED_FEATURES))


def encoder_reference(fit_rows: list[TrafficProfile],
                      rows: list[TrafficProfile]) -> tuple[dict, np.ndarray]:
    """The encoder fitted on the complete profiles among fit_rows, as
    FeatureEncoder.to_dict() gives it, and rows encoded one at a time by
    encode_reference; raises the library's ValueErrors."""
    fitted = [p for p in fit_rows if all(getattr(p, f) is not None for f in REQUIRED_FEATURES)]
    if not fitted:
        raise ValueError("no profiles with a complete feature set")
    table = _feature_table_reference(fitted)
    means, stds, dropped, columns = {}, {}, [], []
    for name in NUMERIC_FEATURES:
        values = table[:, REQUIRED_FEATURES.index(name)].astype(float)
        if values.var() < VARIANCE_THRESHOLD:
            dropped.append(name)
            continue
        means[name] = float(values.mean())
        stds[name] = float(values.std())
        columns.append(name)
    vocab = {}
    for name in CATEGORICAL_FEATURES:
        seen = sorted(set(table[:, REQUIRED_FEATURES.index(name)]))
        if len(seen) < 2:
            dropped.append(name)
            continue
        vocab[name] = seen
        columns.extend(f"{name}={v}" for v in seen)
    encoder = SimpleNamespace(columns=sorted(columns), means=means, stds=stds, vocab=vocab,
                              dropped=sorted(dropped))
    X = np.array([encode_reference(encoder, p) for p in rows])
    return vars(encoder), X.reshape(len(rows), len(encoder.columns))


def cohort_report_reference(profiles: list[TrafficProfile], sample_std: bool = False) -> dict:
    """cohort_report(...).to_dict(), scanning every profile once per metric
    and label."""
    labels = sorted({p.label for p in profiles})
    warnings = []
    if len(labels) < 2:
        warnings.append(f"only {labels or 'no'} label(s) present; table is partial")
    stats: dict[str, dict[str, dict]] = {}
    ecdfs: dict[str, dict[str, list]] = {}
    for metric in METRIC_FIELDS:
        for label in labels:
            values = [getattr(p, metric) for p in profiles
                      if p.label == label and getattr(p, metric) is not None]
            if values:
                stats.setdefault(metric, {})[label] = vars(describe(values, sample_std=sample_std))
                ecdfs.setdefault(metric, {})[label] = ecdf(values)
    ratio_ecdfs: dict[str, dict[str, list]] = {}
    for label in labels:
        for name, (part, whole) in EDU_GOV_RATIOS.items():
            ratios = []
            for p in profiles:
                if p.label == label:
                    n, d = getattr(p, part), getattr(p, whole)
                    ratios.append(n / d if d and n is not None else 0.0)
            ratio_ecdfs.setdefault(name, {})[label] = ecdf(ratios)
    return {"stats": stats, "ecdfs": ecdfs, "ratio_ecdfs": ratio_ecdfs, "warnings": warnings}


def auc_pairwise_reference(scores, labels) -> float:
    """Share of (positive, negative) pairs the positive outranks, ties half."""
    pos = [s for s, y in zip(scores, labels) if y == 1]
    neg = [s for s, y in zip(scores, labels) if y == 0]
    wins = sum(1 for p in pos for n in neg if p > n)
    ties = sum(1 for p in pos for n in neg if p == n)
    return (wins + ties / 2) / (len(pos) * len(neg))


def class_metrics_reference(tp: int, fp: int, fn: int, tn: int) -> dict:
    """Per-class metrics with each class's formulas written out on their own."""
    def div(num, den):
        return num / den if den else 0.0

    recall_fake = div(tp, tp + fn)
    precision_fake = div(tp, tp + fp)
    recall_real = div(tn, tn + fp)
    precision_real = div(tn, tn + fn)
    return {
        "fake": ClassMetrics(
            tp_rate=recall_fake,
            fp_rate=div(fp, fp + tn),
            precision=precision_fake,
            recall=recall_fake,
            f1=div(2 * precision_fake * recall_fake, precision_fake + recall_fake),
            support=tp + fn,
        ),
        "real": ClassMetrics(
            tp_rate=recall_real,
            fp_rate=div(fn, fn + tp),
            precision=precision_real,
            recall=recall_real,
            f1=div(2 * precision_real * recall_real, precision_real + recall_real),
            support=tn + fp,
        ),
    }


def stratified_folds_reference(labels, k: int, seed: int) -> list[np.ndarray]:
    """Round-robin dealing in two branches: each class on its own when every
    class has k members, else all rows in one shuffled order."""
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    folds: list[list[int]] = [[] for _ in range(k)]
    if min(int((labels == c).sum()) for c in (0, 1)) < k:
        for i, idx in enumerate(rng.permutation(len(labels))):
            folds[i % k].append(int(idx))
    else:
        for c in (0, 1):
            members = np.nonzero(labels == c)[0]
            for i, j in enumerate(rng.permutation(len(members))):
                folds[i % k].append(int(members[j]))
    return [np.array(sorted(f), dtype=int) for f in folds]


def euclidean_reference(a, b) -> float:
    """Distance of two quarter series by the per-quarter sum of squares."""
    if a.start != b.start or len(a.values) != len(b.values):
        raise ValueError(f"quarter windows differ: {a.site} vs {b.site}")
    return math.sqrt(sum((x - y) ** 2 for x, y in zip(a.values, b.values)))


def content_clusters_reference(matches) -> list:
    """Clusters in two phases: per-month components of the matched pairs,
    then a merge of components in consecutive months that share a site."""

    def find(parent, x):
        parent.setdefault(x, x)
        while parent[x] != x:
            x = parent[x]
        return x

    def union(parent, a, b):
        ra, rb = find(parent, a), find(parent, b)
        if ra != rb:
            parent[rb] = ra

    components: dict = {}
    for month in sorted({m.month for m in matches}):
        parent: dict = {}
        for m in matches:
            if m.month == month:
                union(parent, m.site_a, m.site_b)
        groups: dict = {}
        for site in sorted(parent):
            groups.setdefault(find(parent, site), set()).add(site)
        components[month] = [frozenset(g) for g in groups.values()]

    nodes = [(month, comp) for month in sorted(components) for comp in components[month]]
    parent = {}
    for month, comp in nodes:
        for other in components.get(month.plus(1), []):
            if comp & other:
                union(parent, (month, comp), (month.plus(1), other))
    merged: dict = {}
    for node in nodes:
        sites, months = merged.setdefault(find(parent, node), (set(), set()))
        sites.update(node[1])
        months.add(node[0])
    clusters = [SyncCluster(frozenset(s), frozenset(m)) for s, m in merged.values()]
    clusters.sort(key=lambda c: (min(c.months), sorted(c.sites)))
    return clusters


def candidate_pairs_reference(vectors, threshold) -> list:
    """Index pairs (i < j) whose dot product may reach the threshold,
    sorted by i then j.

    Dot products accumulate over an inverted index (term -> postings of
    later documents) built from the last document back, so only pairs
    sharing a term are ever visited.
    """
    cutoff = threshold - _CANDIDATE_SLACK
    postings: dict[str, list[tuple[int, float]]] = {}
    pairs = []
    for i in range(len(vectors) - 1, -1, -1):
        dots: dict[int, float] = {}
        for term, w in vectors[i].items():
            posting = postings.setdefault(term, [])
            for j, wj in posting:
                dots[j] = dots.get(j, 0.0) + w * wj
            posting.append((i, w))
        pairs.extend((i, j) for j in sorted(dots, reverse=True) if dots[j] >= cutoff)
    pairs.reverse()
    return pairs


def public_suffix_reference(rule_lines, host):
    """Public suffix by scanning every rule of a list, as the publicsuffix.org
    algorithm reads: the longest matching exception rule wins and yields the
    rule minus its first label; otherwise the longest matching rule, where a
    ``*`` label matches any label; otherwise the last label."""
    host = host.strip().lower().rstrip(".")
    if not host or host.startswith(".") or ".." in host:
        return None
    labels = host.split(".")
    if any(not label for label in labels):
        return None
    rules, exceptions = [], []
    for raw in rule_lines:
        line = raw.strip()
        if not line or line.startswith("//"):
            continue
        line = line.split()[0].lower()
        if line.startswith("!"):
            exceptions.append(line[1:].split("."))
        else:
            rules.append(line.split("."))

    def matches(rule):
        return len(rule) <= len(labels) and all(
            r in ("*", label) for r, label in zip(reversed(rule), reversed(labels))
        )

    matched_exceptions = [len(rule) for rule in exceptions if matches(rule)]
    if matched_exceptions:
        return ".".join(labels[len(labels) - max(matched_exceptions) + 1 :])
    best = max([len(rule) for rule in rules if matches(rule)] + [1])
    return ".".join(labels[len(labels) - best :])


def parse_page_reference(html):
    """``parse_page`` by the stdlib html.parser walk alone, on every page."""
    if isinstance(html, bytes):
        html = html.decode("utf-8", errors="replace")
    parser = _PageParser()
    parser.feed(html)
    parser.close()
    return " ".join(" ".join(parser.chunks).split()), parser.urls


def tokens_reference(pre, text):
    """Tokens of one text, each filtered and normalized from scratch."""
    out = []
    for token in re.findall(r"[a-z]+", text.lower()):
        if len(token) < pre.min_token_len or token in pre.stopwords:
            continue
        for pattern, replacement in pre.rules:
            new, n = pattern.subn(replacement, token)
            if n:
                token = new
                break
        out.append(token)
    return out


def content_matches_reference(texts_by_month, threshold, min_tokens, pre):
    """Content matches by scoring every site pair of every month.

    The TF-IDF vectors and their cosine come from the library, because the
    exact cosine decides a match; what this checks is which pairs are scored.
    """
    matches = []
    for month in sorted(texts_by_month):
        corpus = {}
        for site in sorted(texts_by_month[month]):
            tokens = tokens_reference(pre, texts_by_month[month][site])
            if len(tokens) >= min_tokens:
                corpus[site] = tokens
        if len(corpus) < 2:
            continue
        vectors = build_tfidf(corpus)
        sites = sorted(vectors)
        for i, a in enumerate(sites):
            for b in sites[i + 1 :]:
                sim = cosine(vectors[a], vectors[b])
                if sim >= threshold:
                    matches.append(ContentMatch(a, b, month, sim))
    return matches


def _blank(value) -> bool:
    return value is None or (isinstance(value, str) and not value.strip())


def _profile_row_reference(row: dict, allow_unlabeled: bool, line: int,
                           first_line: dict) -> TrafficProfile:
    """One row's profile, checking each rule in turn; ValueError names the
    first broken.  first_line maps each site an earlier row named to that
    row's line."""
    nested = [c for c in REQUIRED_COLUMNS if isinstance(row.get(c), (list, dict))]
    if nested:
        raise ValueError(f"{nested[0]} must be a single value, got {row[nested[0]]!r}")
    site = normalize_site(str(row["domain"]))
    if site in first_line:
        raise ValueError(f"duplicate domain {site}, first on line {first_line[site]}")
    first_line[site] = line
    label = str(row.get("label") or "").strip().lower()
    if label not in ("fake", "real"):
        if allow_unlabeled and not label:
            label = "unknown"
        else:
            raise ValueError(f"label must be fake or real, got {row.get('label')!r}")

    values: dict = {"site": site, "label": label}
    for name in ("country", "category"):
        values[name] = None if _blank(row.get(name)) else str(row[name]).strip()
    for name in METRIC_FIELDS:
        raw = row.get(name)
        if _blank(raw):
            values[name] = None
            continue
        parse = parse_quantity if name in _INT_FIELDS else float
        try:
            v = parse(str(raw))
        except ValueError as exc:
            raise ValueError(f"{name}: {exc}") from None
        if not math.isfinite(v) or v < 0:
            raise ValueError(f"{name} must be finite and non-negative, got {raw!r}")
        values[name] = v

    for name in ("global_rank", "country_rank", "category_rank"):
        if values[name] is not None and values[name] < 1:
            raise ValueError(f"{name} must be positive, got {values[name]}")
    for name in ("bounce_rate",) + SHARE_FIELDS:
        v = values[name]
        if v is not None and not 0.0 <= v <= 100.0:
            raise ValueError(f"{name} out of [0, 100]: {v}")
    shares = [values[name] for name in SHARE_FIELDS]
    if all(s is not None for s in shares):
        total = sum(shares)
        if not 99.0 <= total <= 101.0:
            raise ValueError(f"traffic source shares sum to {total:.2f}, not ~100")
    for part, whole in EDU_GOV_RATIOS.values():
        if (
            values[part] is not None
            and values[whole] is not None
            and values[part] > values[whole]
        ):
            raise ValueError(f"{part} ({values[part]}) exceeds {whole} ({values[whole]})")
    return TrafficProfile(**values)


def load_profiles_reference(path, allow_unlabeled: bool = False):
    """(profiles, RowErrors) of a traffic export, one row at a time; a row
    naming a domain an earlier row names is a RowError.

    CSV rows come from csv.DictReader; each row's line is the first
    non-blank physical line read since the previous row ended.
    """
    json_lines = str(path).endswith((".jsonl", ".ndjson", ".json"))
    required = [c for c in REQUIRED_COLUMNS if not (allow_unlabeled and c == "label")]
    rows, errors = [], []
    if not json_lines:
        with open(path, newline="", encoding="utf-8") as fh:
            read = []  # (line number, text) since the previous row

            def numbered():
                for i, text in enumerate(fh, start=1):
                    read.append((i, text))
                    yield text

            reader = csv.DictReader(numbered())
            header = set(reader.fieldnames or [])
            for col in required:
                if col not in header:
                    raise ValueError(f"{path}: missing required column: {col}")
            read.clear()
            for row in reader:
                rows.append((next(i for i, text in read if text.rstrip("\r\n")), row))
                read.clear()
    else:
        with open(path, encoding="utf-8") as fh:
            for i, line in enumerate(fh, start=1):
                line = line.strip()
                if not line:
                    continue
                try:
                    rec = json.loads(line)
                except ValueError as exc:
                    errors.append(RowError(i, "?", f"not valid JSON: {exc}"))
                    continue
                if not isinstance(rec, dict):
                    errors.append(RowError(i, "?", f"not a JSON object: {line[:40]}"))
                    continue
                for col in required:
                    if col not in rec:
                        raise ValueError(f"{path}:{i}: missing required column: {col}")
                rows.append((i, rec))
    profiles, first_line = [], {}
    for line, row in rows:
        try:
            profiles.append(_profile_row_reference(row, allow_unlabeled, line, first_line))
        except ValueError as exc:
            errors.append(RowError(line, str(row.get("domain", "?")), str(exc)))
    errors.sort(key=lambda e: e.line)
    return profiles, errors


def table_rows(table) -> list[TrafficProfile]:
    """The rows of a ProfileTable as profiles, for comparing with the row
    references."""
    return [TrafficProfile(*values) for values in
            zip(*(table[name] for name in TrafficProfile.__dataclass_fields__))]
