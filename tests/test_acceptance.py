"""Acceptance suite: one test per release criterion, in order.

Each test prints a PASS line once its assertions hold (visible with
``pytest -s`` or in the captured output).  Criterion 10 is conditional
on the published annotation dataset and skips when it is not available
offline.
"""

import json
import math
import os
import random
import time
from pathlib import Path

import pytest

from newsforensics.classify import auc_score, compute_metrics, cross_validate, rank_split_experiment
from newsforensics.classify.evaluate import SplitSpec
from newsforensics.sync import detect_content_sync, pairwise_uptime, QuarterSeries
from newsforensics.tfidf import build_tfidf, cosine
from newsforensics.timeline import (
    MonthStamp,
    MonthlyTimeline,
    SiteState,
    cohort_histogram,
    interpolate,
    interpolate_p1,
    interpolate_p2,
    lifetime_distribution,
    lifetime_summary,
    read_annotations,
    timelines_from_annotations,
)
from newsforensics.trackers import extract_third_parties, match_trackers, parse_filter_list, serialize_rule
from newsforensics.traffic import ProfileTable

from fixture_corpus import build_corpus, serve
from oracles import dense_cosine, pipeline_reference
from synth import permuted_labels, rank_banded_dataset, separable_dataset
from test_cli import run_full_pipeline, tree_bytes

A, Z, D, M = SiteState.ALIVE, SiteState.ZOMBIE, SiteState.DEAD, SiteState.MISSING


def ok(n: int, text: str):
    print(f"ACCEPTANCE {n:02d}: PASS - {text}")


def random_timeline(rng: random.Random, max_len: int = 12) -> MonthlyTimeline:
    states = tuple(rng.choice([A, Z, D, M]) for _ in range(rng.randint(1, max_len)))
    return MonthlyTimeline("site.example", MonthStamp(2015, 1), states)


def test_criterion_01_interpolation_oracle_equivalence():
    rng = random.Random(20160101)
    started = time.monotonic()
    mismatches = 0
    for _ in range(10_000):
        t = random_timeline(rng)
        if interpolate(t).states != pipeline_reference(t).states:
            mismatches += 1
    elapsed = time.monotonic() - started
    assert mismatches == 0
    assert elapsed < 60.0, f"oracle equivalence took {elapsed:.1f}s"
    ok(1, f"10,000 timelines match the brute-force reference in {elapsed:.1f}s")


def test_criterion_02_idempotence_and_caps():
    rng = random.Random(20160202)
    for _ in range(1_000):
        t = random_timeline(rng)
        p1 = interpolate_p1(t)
        assert interpolate_p1(p1).states == p1.states
        p2 = interpolate_p2(p1)
        assert interpolate_p2(p2).states == p2.states

    long_gap = MonthlyTimeline("g.example", MonthStamp(2000, 1), tuple([A] + [M] * 37 + [A]))
    assert interpolate_p1(long_gap).states == long_gap.states

    bridge = MonthlyTimeline(
        "b.example", MonthStamp(2000, 1), tuple([A, M] + [D] * 13 + [M, A])
    )
    p2 = interpolate_p2(interpolate_p1(bridge))
    assert p2.states.count(M) == 2, "13 non-alive months must block the bridge"
    ok(2, "P1/P2 idempotent on 1,000 timelines; 37-gap and 13-non-alive caps hold")


def test_criterion_03_uptime_sync_planted_pairs():
    from newsforensics.timeline import Quarter

    rng = random.Random(20160303)
    q0 = Quarter(2015, 1)
    series, used, planted = [], set(), set()
    while len(series) < 44:
        values = tuple(rng.randint(0, 3) for _ in range(20))
        if values not in used:
            used.add(values)
            series.append(QuarterSeries(f"s{len(series):02d}.example", q0, values))
    for k in range(3):
        values = tuple(rng.randint(0, 3) for _ in range(20))
        while values in used:
            values = tuple(rng.randint(0, 3) for _ in range(20))
        used.add(values)
        a, b = f"twin{k}a.example", f"twin{k}b.example"
        series += [QuarterSeries(a, q0, values), QuarterSeries(b, q0, values)]
        planted.add((a, b))
    pairs = pairwise_uptime(series, max_distance=0.0)
    got = {(p.site_a, p.site_b) for p in pairs}
    true_positives = len(got & planted)
    precision = true_positives / len(got)
    recall = true_positives / len(planted)
    assert (precision, recall) == (1.0, 1.0)
    ok(3, "3 planted identical quarter series recovered with precision=recall=1.0")


WORDS = sorted({a + b + c for a in "bdklmnprst" for b in "aeiou" for c in "bdklmnprst"})


def _random_doc(rng, n=120):
    return [rng.choice(WORDS) for _ in range(n)]


def test_criterion_04_tfidf_cosine_oracle():
    rng = random.Random(20160404)
    corpus = {f"d{i:02d}": _random_doc(rng, rng.randint(30, 80)) for i in range(20)}
    vectors = build_tfidf(corpus)
    ids = sorted(corpus)
    for i, a in enumerate(ids):
        for b in ids[i + 1 :]:
            want = dense_cosine(corpus[a], corpus[b], corpus)
            assert abs(cosine(vectors[a], vectors[b]) - want) <= 1e-9

    twin_corpus = {"a": corpus["d00"], "b": list(corpus["d00"]), "c": corpus["d01"]}
    twins = build_tfidf(twin_corpus)
    assert abs(cosine(twins["a"], twins["b"]) - 1.0) <= 1e-9

    disjoint = build_tfidf({"x": ["aaa", "bbb"], "y": ["ccc", "ddd"]})
    assert cosine(disjoint["x"], disjoint["y"]) == 0.0
    ok(4, "all 190 pairwise cosines match the dense oracle within 1e-9")


def test_criterion_05_content_sync_detection():
    rng = random.Random(20160505)
    months = [MonthStamp(2015, 9).plus(i) for i in range(7)]
    trio = ["c1.example", "c2.example", "c3.example"]
    texts = {}
    for month in months:
        page = " ".join(_random_doc(rng))
        per_month = {site: page for site in trio}
        for i in range(5):
            per_month[f"noise{i}.example"] = " ".join(_random_doc(rng))
        texts[month] = per_month
    matches, clusters = detect_content_sync(texts, threshold=0.5)
    assert len(clusters) == 1
    assert clusters[0].sites == frozenset(trio)
    assert clusters[0].months == frozenset(months)

    null_month = MonthStamp(2018, 1)
    null_texts = {f"r{i:02d}.example": " ".join(_random_doc(rng, 100)) for i in range(20)}
    null_matches, _ = detect_content_sync({null_month: null_texts}, threshold=0.5)
    assert null_matches == []
    ok(5, "7-month planted cluster found; random 100-word corpus yields zero matches")


TRACKER_DOMAINS = [
    "google-analytics.com", "doubleclick.net", "googlesyndication.com",
    "scorecardresearch.com", "quantserve.com", "facebook.net",
    "googleadservices.com", "hotjar.com",
]

FILTER_SNIPPET = "\n".join(f"||{d}^" for d in TRACKER_DOMAINS) + "\n"


def test_criterion_06_tracker_audit_ground_truth():
    rng = random.Random(20160606)
    parsed = parse_filter_list(FILTER_SNIPPET)
    assert "".join(serialize_rule(r) + "\n" for r in parsed.rules) == FILTER_SNIPPET

    found = set()
    for page in range(15):
        embeds = rng.sample(TRACKER_DOMAINS, rng.randint(2, 5))
        tags = "".join(
            f'<script src="https://cdn.{d}/js/tag.js"></script>' for d in embeds
        )
        html = (
            f"<html><head>{tags}"
            f'<link href="https://fonts.bystander.org/f.css">'
            f'<img src="/relative/logo.png">'
            f'<a href="https://firstparty{page}.example/about">'
            f"</head><body>news body</body></html>"
        ).encode()
        third = extract_third_parties(html, f"firstparty{page}.example")
        found |= match_trackers(third, parsed.rules)
    assert found == set(TRACKER_DOMAINS)
    ok(6, "15-page fixture yields the exact 8-domain ground truth; list round-trips")


def test_criterion_07_metric_arithmetic():
    import numpy as np

    fixtures = [
        # (tp, fp, fn, tn) -> (weighted precision, recall, f1), hand-computed
        ((45, 5, 5, 45), (0.9, 0.9, 0.9)),
        ((10, 0, 0, 10), (1.0, 1.0, 1.0)),
        # precision_w = (8*0.8 + 12*1.0)/20; recall_w = (8*1 + 12*(5/6))/20
        ((8, 2, 0, 10), (0.92, 0.9, 446 / 495)),
        # all fake missed: precision_w = 0.5*0 + 0.5*0.5, recall_w = 0.5, f1_w = 1/3
        ((0, 0, 10, 10), (0.25, 0.5, 1 / 3)),
        # fake: p 0.75 r 6/7 f1 0.8 sup 35; real: p 11/12 r 11/13 f1 0.88 sup 65
        ((30, 10, 5, 55), (0.75 * 0.35 + (11 / 12) * 0.65, (6 / 7) * 0.35 + (11 / 13) * 0.65, 0.852)),
    ]
    for (tp, fp, fn, tn), (w_precision, w_recall, w_f1) in fixtures:
        scores = np.array([0.9] * (tp + fp) + [0.1] * (fn + tn))
        labels = np.array([1] * tp + [0] * fp + [1] * fn + [0] * tn)
        report = compute_metrics(scores, labels)
        assert report.confusion == {"tp": tp, "fp": fp, "fn": fn, "tn": tn}
        assert math.isclose(report.precision, w_precision, abs_tol=1e-12)
        assert math.isclose(report.recall, w_recall, abs_tol=1e-12)
        assert math.isclose(report.f1, w_f1, abs_tol=1e-12)

    labels = np.array([1, 0, 1, 0])
    assert auc_score(np.full(4, 0.7), labels) == 0.5
    assert auc_score(np.array([0.9, 0.2, 0.8, 0.1]), labels) == 1.0

    rng = np.random.default_rng(20160707)
    for _ in range(25):
        scores = rng.uniform(size=40)
        labels = rng.integers(0, 2, size=40)
        if labels.min() == labels.max():
            continue
        base = auc_score(scores, labels)
        for transform in (lambda s: 2 * s + 1, np.exp, lambda s: s**5):
            assert math.isclose(auc_score(transform(scores), labels), base, abs_tol=1e-12)
    ok(7, "5 confusion fixtures exact; AUC edge cases and monotone invariance hold")


def test_criterion_08_classifier_sanity():
    rows = separable_dataset(n=500, seed=20160808)
    dataset = ProfileTable.of(rows)
    report = cross_validate("random_forest", dataset, k=10, seed=101)
    assert report.f1 >= 0.95, f"weighted F1 {report.f1:.3f}"

    null_report = cross_validate(
        "random_forest",
        ProfileTable.of(permuted_labels(rows, seed=55)),
        k=10,
        seed=101,
        n_trees=20,
        min_samples_leaf=5,
    )
    assert 0.4 <= null_report.auc <= 0.6, f"null AUC {null_report.auc:.3f}"

    again = cross_validate("random_forest", dataset, k=10, seed=101)
    a = json.dumps(report.to_dict(), sort_keys=True).encode()
    b = json.dumps(again.to_dict(), sort_keys=True).encode()
    assert a == b

    # Table-4 reference (RF: weighted F1 0.942, AUC 0.976) depends on the
    # authors' February 2021 crawl and is recorded here as non-reproducible.
    paper_reference = {"f1": 0.942, "auc": 0.976}
    assert set(paper_reference) <= set(report.to_dict())
    ok(8, f"CV weighted F1 {report.f1:.3f} >= 0.95; null AUC {null_report.auc:.3f}; reports byte-identical")


def test_criterion_09_rank_split_harness():
    rows = ProfileTable.of(rank_banded_dataset(n=400, seed=20160909, boundary=10_000))
    spec = SplitSpec.parse("rank>10000|rank<10000")
    train_sites = set(rows["site"][spec.train(rows)])
    test_sites = set(rows["site"][spec.test(rows)])
    assert train_sites and test_sites
    assert not train_sites & test_sites
    report = rank_split_experiment(rows, spec, "random_forest", seed=77)
    assert report.f1 >= 0.9, f"cross-band F1 {report.f1:.3f}"
    ok(9, f"train/test disjoint; cross-band weighted F1 {report.f1:.3f} >= 0.9")


ANNOTATION_DATASET = os.environ.get(
    "NEWSFORENSICS_ANNOTATION_DATASET",
    str(Path(__file__).parent / "data" / "published_annotations.csv"),
)


def test_criterion_10_conditional_replication():
    path = Path(ANNOTATION_DATASET)
    if not path.exists():
        pytest.skip(
            f"published annotation dataset not available offline ({path}); "
            "set NEWSFORENSICS_ANNOTATION_DATASET to run"
        )
    annotations = read_annotations(path)
    raw = timelines_from_annotations(annotations)
    repaired = [interpolate(t) for t in raw]
    dist = lifetime_distribution([lifetime_summary(t) for t in repaired])
    median_alive = dist["alive_months"].median
    median_zombie = dist["zombie_months"].median
    assert abs(median_alive - 24) <= 1, f"median alive {median_alive}"
    assert median_zombie <= 2, f"median zombie {median_zombie}"

    window = (min(t.start for t in repaired), max(t.end for t in repaired))
    hist = cohort_histogram(repaired, window)
    peak_month = hist.months[hist.alive.index(max(hist.alive))]
    assert 2016 <= peak_month.year <= 2017, f"alive peak at {peak_month}"
    ok(10, f"dataset medians alive={median_alive}mo zombie={median_zombie}mo; peak {peak_month}")


def test_criterion_11_end_to_end_determinism(tmp_path):
    started = time.monotonic()
    corpus = build_corpus(tmp_path / "corpus")
    trees = []
    with serve(corpus) as (base_url, _):
        for name in ("first", "second"):
            out = tmp_path / name
            run_full_pipeline(corpus, base_url, out, seed=2021)
            trees.append(tree_bytes(out))
    assert trees[0].keys() == trees[1].keys()
    diffs = [rel for rel in trees[0] if trees[0][rel] != trees[1][rel]]
    assert not diffs, f"artifacts differ: {diffs[:5]}"
    elapsed = time.monotonic() - started
    assert elapsed < 300.0, f"fixture pipeline took {elapsed:.0f}s"
    ok(11, f"two full runs byte-identical ({len(trees[0])} artifacts) in {elapsed:.1f}s")
