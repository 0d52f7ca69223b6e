import math
import random
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from newsforensics import sync
from newsforensics.sync import (
    QuarterSeries,
    SyncCluster,
    UptimePair,
    detect_content_sync,
    distance_rows,
    pairwise_uptime,
    quarterize,
)
from newsforensics.textproc import Preprocessor, default_preprocessor
from newsforensics.tfidf import build_tfidf, cosine
from newsforensics.timeline import MonthStamp, MonthlyTimeline, Quarter, SiteState

import fixture_corpus
from oracles import (
    candidate_pairs_reference,
    content_clusters_reference,
    content_matches_reference,
    euclidean_reference,
    quarterize_reference,
)
from test_timeline import random_row, random_window

A, Z, D, M = SiteState.ALIVE, SiteState.ZOMBIE, SiteState.DEAD, SiteState.MISSING

Q1_2015 = Quarter(2015, 1)


def tl(states, site="example.com", start=MonthStamp(2015, 1)):
    return MonthlyTimeline(site, start, tuple(states))


def qs(values, site="s.com", start=Q1_2015):
    return QuarterSeries(site, start, tuple(values))


class TestQuarterize:
    def test_counts_alive_months(self):
        t = tl([A, A, D])
        assert quarterize(t, (Q1_2015, Q1_2015)).values == (2,)

    def test_all_missing_quarter(self):
        t = tl([M, M, M])
        assert quarterize(t, (Q1_2015, Q1_2015)).values == (0,)

    def test_all_alive_quarter(self):
        t = tl([A, A, A])
        assert quarterize(t, (Q1_2015, Q1_2015)).values == (3,)

    def test_months_outside_timeline_count_zero(self):
        t = tl([A])  # only 2015-01 covered
        series = quarterize(t, (Q1_2015, Quarter(2015, 4)))
        assert series.values == (1, 0, 0, 0)

    def test_zombie_not_counted(self):
        t = tl([Z, Z, A])
        assert quarterize(t, (Q1_2015, Q1_2015)).values == (1,)

    def test_empty_window_rejected(self):
        with pytest.raises(ValueError):
            quarterize(tl([A]), (Quarter(2016, 1), Q1_2015))

    def test_matches_month_by_month_reference(self):
        rng = random.Random(6)
        for _ in range(1000):
            t = random_row(rng)
            first, last = random_window(rng, t)
            window = (first.quarter, last.quarter)
            assert quarterize(t, window) == quarterize_reference(t, window), (t, window)

    @given(st.lists(st.sampled_from([A, Z, D, M]), min_size=1, max_size=24))
    @settings(max_examples=150, deadline=None)
    def test_quarter_sum_equals_alive_months(self, states):
        t = tl(states)
        window = (t.start.quarter, t.end.quarter)
        series = quarterize(t, window)
        assert sum(series.values) == sum(1 for s in states if s is A)


class TestPairwiseUptime:
    def test_identical_series_distance_zero(self):
        pairs = pairwise_uptime([qs([1, 2], site="a.com"), qs([1, 2], site="b.com")])
        assert len(pairs) == 1
        assert pairs[0].distance == 0.0
        assert (pairs[0].site_a, pairs[0].site_b) == ("a.com", "b.com")

    def test_euclidean_value(self):
        a = qs([3] + [0] * 11, site="a.com")
        b = qs([1] + [0] * 11, site="b.com")
        assert [list(row) for row in distance_rows([a, b])] == [[0.0, 2.0], [2.0, 0.0]]

    def test_window_mismatch_rejected(self):
        with pytest.raises(ValueError, match="windows differ"):
            pairwise_uptime([qs([1]), qs([1, 2], site="t.com")])
        with pytest.raises(ValueError, match="windows differ: s.com vs t.com"):
            pairwise_uptime([qs([1]), qs([1], site="t.com", start=Quarter(2016, 1))])

    def test_single_series_rejected(self):
        with pytest.raises(ValueError):
            pairwise_uptime([qs([1])])

    def test_planted_identical_pairs_recovered_exactly(self):
        rng = random.Random(11)
        series = []
        used = set()
        # 44 random distinct series
        while len(series) < 44:
            values = tuple(rng.randint(0, 3) for _ in range(20))
            if values in used:
                continue
            used.add(values)
            series.append(qs(values, site=f"site{len(series):02d}.com"))
        # 3 planted duplicate pairs
        planted = set()
        for k in range(3):
            values = tuple(rng.randint(0, 3) for _ in range(20))
            while values in used:
                values = tuple(rng.randint(0, 3) for _ in range(20))
            used.add(values)
            a, b = f"twin{k}a.com", f"twin{k}b.com"
            series.append(qs(values, site=a))
            series.append(qs(values, site=b))
            planted.add((a, b))
        pairs = pairwise_uptime(series, max_distance=0.0)
        assert {(p.site_a, p.site_b) for p in pairs} == planted

    def test_sorted_by_distance_then_pair(self):
        series = [
            qs([0, 0], site="c.com"),
            qs([0, 1], site="b.com"),
            qs([0, 0], site="a.com"),
        ]
        pairs = pairwise_uptime(series, max_distance=5.0)
        assert [(p.site_a, p.site_b) for p in pairs] == [
            ("a.com", "c.com"),
            ("a.com", "b.com"),
            ("b.com", "c.com"),
        ]


series_values = st.lists(st.integers(min_value=0, max_value=3), min_size=1, max_size=12)


@given(series_values, series_values, series_values)
@settings(max_examples=150, deadline=None)
def test_euclidean_metric_axioms(xs, ys, zs):
    n = min(len(xs), len(ys), len(zs))
    a, b, c = (
        qs(xs[:n], site="a.com"),
        qs(ys[:n], site="b.com"),
        qs(zs[:n], site="c.com"),
    )
    d = [list(row) for row in distance_rows([a, b, c])]
    dab, dba = d[0][1], d[1][0]
    assert dab >= 0
    assert dab == dba
    assert [d[i][i] for i in range(3)] == [0.0] * 3
    assert (dab == 0) == (a.values == b.values)
    assert d[0][2] <= dab + d[1][2] + 1e-12


def random_series_set(rng):
    """Site-shuffled series over one window, some of them exact copies."""
    length = rng.randint(1, 12)
    series = []
    for i in range(rng.randint(2, 30)):
        if series and rng.random() < 0.3:
            values = rng.choice(series).values
        else:
            values = tuple(rng.randint(0, 3) for _ in range(length))
        series.append(qs(values, site=f"s{rng.randrange(10**6):06d}-{i}.com"))
    rng.shuffle(series)
    return series


def test_distance_rows_match_reference():
    rng = random.Random(41)
    for _ in range(100):
        series = random_series_set(rng)
        for a, row in zip(series, distance_rows(series)):
            assert row.tolist() == [euclidean_reference(a, b) for b in series]


@pytest.mark.parametrize("max_distance", [0, 1, 1.5, 3.7, 100])
def test_pairwise_uptime_matches_reference(max_distance):
    rng = random.Random(43)
    for _ in range(100):
        series = random_series_set(rng)
        ss = sorted(series, key=lambda s: s.site)
        expected = [
            UptimePair(a.site, b.site, euclidean_reference(a, b))
            for i, a in enumerate(ss)
            for b in ss[i + 1 :]
            if euclidean_reference(a, b) <= max_distance
        ]
        expected.sort(key=lambda p: (p.distance, p.site_a, p.site_b))
        assert pairwise_uptime(series, max_distance=max_distance) == expected


# alphabetic pseudo-words that survive tokenization unchanged
_SYLLABLES = ["ba", "de", "ki", "lo", "mu", "ne", "po", "ra", "su", "ta", "vi", "zo"]
WORDS = sorted(
    {a + b + c for a in _SYLLABLES for b in _SYLLABLES for c in _SYLLABLES}
)


def random_text(rng, n_words=120):
    return " ".join(rng.choice(WORDS) for _ in range(n_words))


class TestDetectContentSync:
    def test_identical_pages_match_and_cluster(self):
        rng = random.Random(5)
        page = random_text(rng)
        month = MonthStamp(2016, 1)
        matches, clusters = detect_content_sync(
            {month: {"a.com": page, "b.com": page, "c.com": random_text(rng)}}
        )
        assert len(matches) == 1
        m = matches[0]
        assert (m.site_a, m.site_b) == ("a.com", "b.com")
        assert m.similarity == pytest.approx(1.0, abs=1e-9)
        assert len(clusters) == 1
        assert clusters[0].sites == frozenset({"a.com", "b.com"})

    def test_independent_random_corpus_no_matches(self):
        rng = random.Random(99)
        month = MonthStamp(2016, 1)
        texts = {f"s{i}.com": random_text(rng, 100) for i in range(20)}
        matches, clusters = detect_content_sync({month: texts})
        assert matches == []
        assert clusters == []

    def test_planted_copies_across_seven_months(self):
        rng = random.Random(17)
        months = [MonthStamp(2015, 9).plus(i) for i in range(7)]
        trio = ["copy1.com", "copy2.com", "copy3.com"]
        texts_by_month = {}
        for month in months:
            page = random_text(rng)  # same page across the trio, fresh per month
            texts = {site: page for site in trio}
            for i in range(4):
                texts[f"noise{i}.com"] = random_text(rng)
            texts_by_month[month] = texts
        matches, clusters = detect_content_sync(texts_by_month)
        assert len(clusters) == 1
        assert clusters[0].sites == frozenset(trio)
        assert clusters[0].months == frozenset(months)

    def test_month_with_single_document_skipped(self):
        month = MonthStamp(2016, 1)
        matches, clusters = detect_content_sync(
            {month: {"only.com": random_text(random.Random(1))}}
        )
        assert matches == [] and clusters == []

    def test_near_empty_documents_excluded(self):
        month = MonthStamp(2016, 1)
        stub = "domain parked purchase today contact owner immediately please"
        matches, _ = detect_content_sync({month: {"a.com": stub, "b.com": stub}})
        assert matches == []

    def test_order_invariance(self):
        rng = random.Random(31)
        month = MonthStamp(2016, 2)
        page = random_text(rng)
        texts = {
            "b.com": page,
            "a.com": page,
            "z.com": random_text(rng),
            "m.com": random_text(rng),
        }
        shuffled = dict(reversed(list(texts.items())))
        m1, c1 = detect_content_sync({month: texts})
        m2, c2 = detect_content_sync({month: shuffled})
        assert m1 == m2 and c1 == c2

    def test_threshold_monotonicity(self):
        rng = random.Random(13)
        month = MonthStamp(2016, 3)
        base = random_text(rng, 60).split()
        texts = {}
        for i in range(6):
            words = base.copy()
            for _ in range(i * 8):
                words[rng.randrange(len(words))] = rng.choice(WORDS)
            texts[f"s{i}.com"] = " ".join(words)
        strict, _ = detect_content_sync({month: texts}, threshold=0.7)
        loose, _ = detect_content_sync({month: texts}, threshold=0.4)
        strict_pairs = {(m.site_a, m.site_b) for m in strict}
        loose_pairs = {(m.site_a, m.site_b) for m in loose}
        assert strict_pairs <= loose_pairs

    def test_bad_threshold_rejected(self):
        with pytest.raises(ValueError):
            detect_content_sync({}, threshold=0.0)

    def test_gap_month_splits_clusters(self):
        rng = random.Random(23)
        page1, page2 = random_text(rng), random_text(rng)
        m1, m3 = MonthStamp(2016, 1), MonthStamp(2016, 3)
        _, clusters = detect_content_sync(
            {
                m1: {"a.com": page1, "b.com": page1},
                m3: {"a.com": page2, "b.com": page2},
            }
        )
        assert len(clusters) == 2

    def test_match_in_last_representable_month(self):
        rng = random.Random(31)
        page = random_text(rng)
        last = MonthStamp(2100, 12)
        months = [last.plus(-1), last]
        matches, clusters = detect_content_sync(
            {month: {"a.com": page, "b.com": page} for month in months}
        )
        assert [m.month for m in matches] == months
        assert clusters == [SyncCluster(frozenset({"a.com", "b.com"}), frozenset(months))]

    def test_no_state_left_on_default_preprocessor(self):
        rng = random.Random(37)
        page = random_text(rng)
        detect_content_sync({MonthStamp(2016, 1): {"a.com": page, "b.com": page}})
        assert vars(default_preprocessor()) == vars(Preprocessor())


def _ring_month(repeat):
    """Four documents in which every term occurs twice, so all idf weights
    are equal and each document shares one term with two others: those
    pairs have cosine 0.5 in exact arithmetic."""
    w0, w1, w2, w3 = WORDS[:4]
    docs = {"r0.com": (w0, w1), "r1.com": (w0, w2), "r2.com": (w1, w3), "r3.com": (w2, w3)}
    return {site: " ".join(pair * repeat) for site, pair in docs.items()}


def test_content_matches_equal_all_pairs_reference(tmp_path):
    """Random multi-month corpora of copies, extended copies and unrelated
    pages: the candidate pairs confirmed by the exact cosine are every pair
    the all-pairs loop matches, also at thresholds on and one ulp around
    an exact cosine, at 1.0 over duplicates and at 0.5 over the ring."""
    rng = random.Random(53)
    no_rules = tmp_path / "rules.txt"  # WORDS normalize to themselves anyway
    no_rules.write_text("# none\n")
    pre = Preprocessor(suffix_rules_path=no_rules)
    vocab = WORDS[:40]

    def words(n):
        return " ".join(rng.choice(vocab) for _ in range(n))

    on_threshold = 0
    for _ in range(40):
        base = [words(30) for _ in range(3)]
        start = MonthStamp(2016, rng.randint(1, 12))
        texts_by_month = {start.plus(-1): _ring_month(rng.randint(1, 6))}
        for offset in range(rng.randint(1, 3)):
            month = {}
            for k in range(rng.randint(2, 12)):
                r = rng.random()
                if r < 0.3:
                    month[f"s{k}.com"] = rng.choice(base)
                elif r < 0.6:
                    month[f"s{k}.com"] = rng.choice(base) + " " + words(rng.randint(1, 30))
                else:
                    month[f"s{k}.com"] = words(rng.randint(5, 40))
            texts_by_month[start.plus(offset)] = month
        min_tokens = rng.choice([1, 10])
        scored = content_matches_reference(texts_by_month, 1e-12, min_tokens, pre)
        thresholds = {0.5, 1.0, rng.uniform(0.05, 0.95)}
        for m in rng.sample(scored, min(4, len(scored))):
            thresholds |= {m.similarity, math.nextafter(m.similarity, 0.0),
                           min(1.0, math.nextafter(m.similarity, 2.0))}
        for threshold in sorted(thresholds):
            expected = content_matches_reference(texts_by_month, threshold, min_tokens, pre)
            matches, _ = detect_content_sync(
                texts_by_month, threshold=threshold, min_tokens=min_tokens, preprocessor=pre
            )
            assert matches == expected, threshold
            on_threshold += sum(1 for m in expected if m.similarity == threshold)
    assert on_threshold >= 100


def test_content_clusters_match_two_phase_reference():
    """Random months of copied pages: single-union-find clusters equal the
    per-month components merged across consecutive months."""
    rng = random.Random(47)
    multi_month = 0
    for _ in range(60):
        pages = [random_text(rng, 30) for _ in range(3)]
        sites = [f"s{i}.com" for i in range(8)]
        start = MonthStamp(2016, rng.randint(1, 12))
        texts_by_month = {}
        for offset in sorted(rng.sample(range(6), rng.randint(2, 5))):
            chosen = rng.sample(sites, rng.randint(2, 8))
            texts_by_month[start.plus(offset)] = {
                site: rng.choice(pages) if rng.random() < 0.6 else random_text(rng, 30)
                for site in chosen
            }
        matches, clusters = detect_content_sync(texts_by_month)
        assert clusters == content_clusters_reference(matches)
        multi_month += sum(1 for c in clusters if len(c.months) > 1)
    assert multi_month >= 20


def _random_month_vectors(rng):
    """One month's TF-IDF vectors, sites in sorted order: copies, extended
    copies, unrelated pages and empty documents over a small vocabulary,
    or a ring of exact 0.5 cosines."""
    if rng.random() < 0.1:
        corpus = {site: text.split() for site, text in _ring_month(rng.randint(1, 4)).items()}
    else:
        vocab = WORDS[: rng.choice([5, 40, 150])]
        base = [[rng.choice(vocab) for _ in range(rng.randint(1, 30))] for _ in range(3)]
        corpus = {}
        for k in range(rng.randint(1, 25)):
            r = rng.random()
            if r < 0.3:
                tokens = list(rng.choice(base))
            elif r < 0.5:
                tokens = rng.choice(base) + [rng.choice(vocab) for _ in range(rng.randint(1, 20))]
            elif r < 0.6:
                tokens = []
            else:
                tokens = [rng.choice(vocab) for _ in range(rng.randint(1, 40))]
            corpus[f"s{k:02d}.com"] = tokens
    vectors = build_tfidf(corpus)
    return [vectors[site] for site in sorted(vectors)]


@pytest.mark.parametrize("row_block, col_block", [(1, 2), (2, 3), (3, 1), (128, 256)])
def test_candidate_pairs_cover_every_pair_reaching_threshold(monkeypatch, row_block, col_block):
    """Random months scored in many small blocks: every pair whose exact
    cosine reaches the threshold is a candidate, also at thresholds on and
    one ulp around an exact cosine, and every candidate shares a term."""
    monkeypatch.setattr(sync, "_ROW_BLOCK", row_block)
    monkeypatch.setattr(sync, "_COL_BLOCK", col_block)
    rng = random.Random(61 + row_block * 7 + col_block)
    on_threshold = 0
    for _ in range(40):
        vectors = _random_month_vectors(rng)
        sims = {
            (i, j): cosine(vectors[i], vectors[j])
            for i in range(len(vectors))
            for j in range(i + 1, len(vectors))
        }
        thresholds = {0.5, 1.0, rng.uniform(0.01, 0.99), 1e-12}
        positive = sorted(set(sims.values()) - {0.0})
        for sim in rng.sample(positive, min(4, len(positive))):
            thresholds |= {sim, math.nextafter(sim, 0.0), min(1.0, math.nextafter(sim, 2.0))}
        for threshold in sorted(thresholds):
            candidates = sync._candidate_pairs(vectors, threshold)
            assert candidates == sorted(set(candidates))
            assert {pair for pair, sim in sims.items() if sim >= threshold} <= set(candidates)
            assert all(i < j and vectors[i].keys() & vectors[j].keys() for i, j in candidates)
            on_threshold += sum(1 for sim in sims.values() if sim == threshold)
    assert on_threshold >= 50


@pytest.mark.parametrize(
    "corpus",
    [
        {},
        {"a.com": ["bakide"]},
        {"a.com": ["bakide", "bakilo"], "b.com": ["bamude"], "c.com": []},
        {"a.com": [], "b.com": []},
    ],
    ids=["empty", "single", "no-shared-term", "all-empty"],
)
def test_candidate_pairs_of_months_without_shared_terms(corpus, monkeypatch):
    monkeypatch.setattr(sync, "_ROW_BLOCK", 1)
    monkeypatch.setattr(sync, "_COL_BLOCK", 1)
    vectors = list(build_tfidf(corpus).values()) if corpus else []
    assert sync._candidate_pairs(vectors, 1e-12) == []
    assert candidate_pairs_reference(vectors, 1e-12) == []


@pytest.mark.parametrize("row_block, col_block", [(1, 2), (3, 1), (2, 3)])
def test_content_matches_equal_postings_reference(tmp_path, monkeypatch, row_block, col_block):
    """detect_content_sync reports the same matches whether its candidates
    come from the blocked Gram product or from the postings loop."""
    (tmp_path / "rules.txt").write_text("# none\n")
    pre = Preprocessor(suffix_rules_path=tmp_path / "rules.txt")
    rng = random.Random(67 + row_block + 5 * col_block)
    matched = 0
    for _ in range(20):
        texts_by_month = {}
        for offset in range(rng.randint(1, 3)):
            vocab = WORDS[: rng.choice([8, 40, 400])]
            pages = [" ".join(rng.choice(vocab) for _ in range(30)) for _ in range(3)]
            texts_by_month[MonthStamp(2016, 1).plus(offset)] = {
                f"s{k}.com": rng.choice(pages) if rng.random() < 0.4
                else " ".join(rng.choice(vocab) for _ in range(rng.randint(0, 40)))
                for k in range(rng.randint(0, 14))
            }
        threshold = rng.choice([0.3, 0.5, 0.8, 1.0])
        min_tokens = rng.choice([1, 10])
        with monkeypatch.context() as m:
            m.setattr(sync, "_candidate_pairs", candidate_pairs_reference)
            expected = detect_content_sync(
                texts_by_month, threshold=threshold, min_tokens=min_tokens, preprocessor=pre
            )
        monkeypatch.setattr(sync, "_ROW_BLOCK", row_block)
        monkeypatch.setattr(sync, "_COL_BLOCK", col_block)
        got = detect_content_sync(
            texts_by_month, threshold=threshold, min_tokens=min_tokens, preprocessor=pre
        )
        assert got == expected
        matched += len(expected[0])
    assert matched >= 20


def test_candidate_pairs_memory_bound():
    """2,400 documents of 130 fixture words: the candidate search holds
    blocks, never the 46 MB Gram matrix, and peaks at 28 MB or less."""
    rng = random.Random(71)
    corpus = {
        f"s{k:04d}.com": [rng.choice(fixture_corpus.WORDS) for _ in range(130)]
        for k in range(2400)
    }
    vectors = build_tfidf(corpus)
    vectors = [vectors[site] for site in sorted(vectors)]
    tracemalloc.start()
    try:
        sync._candidate_pairs(vectors, 0.5)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 28 * 2**20
