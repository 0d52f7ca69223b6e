"""Tests for the benchmark's own code.

    python -m pytest perfbench/test_perfbench.py -q
"""

from __future__ import annotations

import http.client
import json
import subprocess
import sys
import threading
from pathlib import Path

import pytest

import checks
import corpus
from archive_server import Archive, injects_503, make_server
from tracing import Span, Tracer, _covered

HERE = Path(__file__).resolve().parent


@pytest.mark.parametrize("workload", corpus.WORKLOADS)
def test_generator_is_deterministic_per_seed(workload, tmp_path):
    digests = []
    for name, seed in (("a", 7), ("b", 7), ("c", 8)):
        corpus.generate(workload, seed, tmp_path / name)
        digests.append(corpus.tree_sha256(tmp_path / name))
    assert digests[0] == digests[1]
    assert digests[0] != digests[2]


def test_planted_uptime_runs_have_distinct_series_except_twins():
    import random

    sites = [f"s{i}.com" for i in range(200)]
    runs, groups = corpus.plant_uptime(random.Random(3), sites, n_twin_groups=5)
    q0 = corpus.month_index(*corpus.QUARTER_WINDOW[0])
    q1 = corpus.month_index(*corpus.QUARTER_WINDOW[1])

    def series(run):
        first, last = run
        return tuple(sum(1 for m in range(q, q + 3) if first <= m <= last)
                     for q in range(q0, q1 + 1, 3))

    by_series = {}
    for site, run in runs.items():
        by_series.setdefault(series(run), []).append(site)
    shared = sorted(sorted(v) for v in by_series.values() if len(v) > 1)
    assert shared == groups


CAPTURES = [
    {"site": "a.com", "timestamp": "20160115120000", "original": "http://a.com/",
     "status": 200, "body": "<p>hello</p>"},
    {"site": "a.com", "timestamp": "20160215120000", "original": "http://a.com/",
     "status": 404, "body": ""},
]


@pytest.fixture
def archive_url():
    def start(share):
        archive = Archive(CAPTURES, seed=1, share=share)
        server = make_server(archive, max_active=2)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        servers.append((server, thread))
        return server.server_port

    servers = []
    yield start
    for server, thread in servers:
        server.shutdown()
        server.server_close()
        thread.join(timeout=5)
        assert not thread.is_alive()


def _get(conn: http.client.HTTPConnection, path: str) -> tuple[int, bytes]:
    conn.request("GET", path)
    response = conn.getresponse()
    return response.status, response.read()


def test_server_speaks_cdx_and_snapshot_protocol_over_one_connection(archive_url):
    conn = http.client.HTTPConnection("127.0.0.1", archive_url(share=0.0), timeout=10)
    status, body = _get(conn, "/cdx/search/cdx?url=a.com&output=json")
    assert status == 200
    assert json.loads(body) == [
        ["timestamp", "original", "statuscode", "mimetype"],
        ["20160115120000", "http://a.com/", "200", "text/html"],
        ["20160215120000", "http://a.com/", "404", "text/html"],
    ]
    assert _get(conn, "/web/20160115120000id_/http://a.com/") == (200, b"<p>hello</p>")
    assert _get(conn, "/web/20160215120000id_/http://a.com/") == (404, b"")
    stats = json.loads(_get(conn, "/_bench/stats")[1])
    assert stats["requests"] == 3 and stats["injected_503_snapshot"] == 0
    conn.close()


def test_server_fails_first_attempts_only_and_resets(archive_url):
    conn = http.client.HTTPConnection("127.0.0.1", archive_url(share=1.0), timeout=10)
    path = "/web/20160115120000id_/http://a.com/"
    assert _get(conn, path)[0] == 503
    assert _get(conn, path) == (200, b"<p>hello</p>")
    assert _get(conn, "/cdx/search/cdx?url=a.com")[0] == 503
    stats = json.loads(_get(conn, "/_bench/stats")[1])
    assert stats == {"requests": 3, "cdx": 0, "snapshots": 1,
                     "injected_503_cdx": 1, "injected_503_snapshot": 1}
    _get(conn, "/_bench/reset")
    assert _get(conn, path)[0] == 503
    conn.close()


def test_injected_share_is_seeded_and_close_to_configured():
    keys = [f"web:{i}" for i in range(20000)]
    hits = [injects_503(5, k) for k in keys]
    assert hits == [injects_503(5, k) for k in keys]
    assert abs(sum(hits) / len(keys) - 0.03) < 0.005


def test_server_process_exits_when_its_input_closes(tmp_path):
    captures = tmp_path / "captures.jsonl"
    captures.write_text("\n".join(json.dumps(c) for c in CAPTURES) + "\n")
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "archive_server.py"), "--captures", str(captures),
         "--seed", "1"],
        stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
    )
    try:
        port = int(proc.stdout.readline().split()[1])
        conn = http.client.HTTPConnection("127.0.0.1", port, timeout=10)
        assert _get(conn, "/cdx/search/cdx?url=a.com")[0] in (200, 503)
        conn.close()
        proc.stdin.close()
        assert proc.wait(timeout=10) == 0
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        proc.stdout.close()


def _sync_out(tmp_path, truth, drop_cluster=False):
    clusters = truth["content_clusters"][1:] if drop_cluster else truth["content_clusters"]
    report = {
        "uptime_pairs": [{"site_a": a, "site_b": b, "distance": 0.0}
                         for a, b in truth["uptime_twins"]],
        "content_clusters": clusters,
    }
    (tmp_path / "sync_report.json").write_text(json.dumps(report))
    return tmp_path


def test_checks_pass_on_truth_and_fail_on_a_missing_cluster(tmp_path):
    truth = {
        "uptime_twins": [["a.com", "b.com"]],
        "content_clusters": [
            {"sites": ["c.com", "d.com", "e.com"], "months": ["2016-01", "2016-02"]},
            {"sites": ["f.com", "g.com", "h.com"], "months": ["2016-04"]},
        ],
    }
    assert all(ok for _, ok, _ in checks.sync_checks(_sync_out(tmp_path, truth), truth))
    failed = [name for name, ok, _ in
              checks.sync_checks(_sync_out(tmp_path, truth, drop_cluster=True), truth)
              if not ok]
    assert failed == ["sync.content_clusters"]


def test_checks_fail_on_a_missing_tracker(tmp_path):
    truth = {
        "trackers_fake": ["facebook.net", "google-analytics.com"],
        "tracker_coverage": {"facebook.net": {"fake": 0.5, "real": 0.0},
                             "google-analytics.com": {"fake": 1.0, "real": 1.0}},
    }
    report = {"distinct_trackers_fake": truth["trackers_fake"],
              "coverage": truth["tracker_coverage"]}
    (tmp_path / "tracker_report.json").write_text(json.dumps(report))
    assert all(ok for _, ok, _ in checks.tracker_checks(tmp_path, truth))

    report = {"distinct_trackers_fake": ["google-analytics.com"],
              "coverage": {"google-analytics.com": {"fake": 1.0, "real": 1.0}}}
    (tmp_path / "tracker_report.json").write_text(json.dumps(report))
    failed = [name for name, ok, _ in checks.tracker_checks(tmp_path, truth) if not ok]
    assert failed == ["trackers.fake_set", "trackers.coverage"]


def test_tracer_restores_every_probe_and_attributes_time():
    from newsforensics import pipeline, sync
    from newsforensics.classify.encoder import FeatureEncoder
    from newsforensics.tfidf import cosine

    before = (pipeline.extract_text, sync.cosine, FeatureEncoder.__dict__["fit"])
    tracer = Tracer()
    with tracer.installed():
        assert sync.cosine is not cosine
        with tracer.stage("sync"):
            assert sync.cosine({"a": 1.0}, {"a": 1.0}) == 1.0
            pipeline.extract_text(b"<p>two words</p>")
    assert (pipeline.extract_text, sync.cosine, FeatureEncoder.__dict__["fit"]) == before
    metrics = tracer.run_metrics(0)
    assert metrics["tfidf.cosine_calls"] == 1
    assert metrics["textproc.extract_text_calls"] == 1
    assert metrics["stage.sync.unattributed_s"] >= 0.0


def test_covered_counts_overlapping_children_once():
    parent = Span("p", "x", 0.0, 10.0, -1, 0)
    children = [Span("c", "x", 1.0, 4.0, 0, 0), Span("c", "x", 2.0, 6.0, 0, 0),
                Span("c", "x", 8.0, 12.0, 0, 0)]
    assert _covered(parent, children) == pytest.approx(7.0)
