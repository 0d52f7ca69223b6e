"""Output checks: each pipeline pass's reports against the generator's truth.

Every check returns (name, ok, detail).  A failed check counts as a failed
operation in the benchmark result, next to failed stage invocations.
"""

from __future__ import annotations

import csv
import json
from pathlib import Path

Check = tuple[str, bool, str]


def _check(name: str, ok: bool, detail: str = "") -> Check:
    return (name, bool(ok), "" if ok else detail)


def _load(path: Path):
    return json.loads(path.read_text())


def _diff(got, want) -> str:
    got, want = set(map(str, got)), set(map(str, want))
    return f"missing {sorted(want - got)[:5]}, unexpected {sorted(got - want)[:5]}"


def crawl_counts(manifest: dict) -> dict:
    """Fetched, failed and dead entries and retries in a crawl manifest."""
    entries = [e for per_site in manifest["sites"].values() for e in per_site]
    return {
        "fetched": sum(1 for e in entries if e["fetch_status"] == "fetched"),
        "failed": sum(1 for e in entries if e["fetch_status"] == "failed"),
        "dead": sum(1 for e in entries if e["auto_state"] == "dead"),
        "retries": sum(e["retries"] for e in entries),
    }


def crawl_checks(out: Path, truth: dict, server: dict) -> list[Check]:
    """Manifest counts and archive traffic against the expected requests."""
    want = truth["expected"]
    manifest = _load(out / "crawl_manifest.json")
    got = crawl_counts(manifest)
    return [
        _check("crawl.sites", len(manifest["sites"]) == want["cdx_queries"]
               and not manifest["cdx_failures"],
               f"{len(manifest['sites'])} sites, CDX failures {manifest['cdx_failures'][:5]}"),
        _check("crawl.fetched", got["fetched"] == want["snapshots"] and got["failed"] == 0,
               f"fetched {got['fetched']} of {want['snapshots']}, failed {got['failed']}"),
        _check("crawl.dead_evidence", got["dead"] == want["dead_snapshots"],
               f"{got['dead']} dead captures, expected {want['dead_snapshots']}"),
        _check("crawl.retries", got["retries"] == want["injected_503_snapshot"],
               f"manifest retries {got['retries']}, injected {want['injected_503_snapshot']}"),
        _check("crawl.archive_requests", server["requests"] == want["archive_requests"]
               and server["injected_503_cdx"] == want["injected_503_cdx"],
               f"server saw {server}, expected {want}"),
    ]


def timeline_checks(out: Path, truth: dict) -> list[Check]:
    """Interpolated alive months equal each site's planted run."""
    alive = {}
    with open(out / "timelines_interpolated.jsonl", encoding="utf-8") as fh:
        for line in fh:
            rec = json.loads(line)
            year, month = map(int, rec["start"].split("-"))
            start = year * 12 + month - 1
            alive[rec["site"]] = {start + i for i, s in enumerate(rec["states"]) if s == "A"}
    runs = truth["alive_runs"]
    wrong = sorted(site for site, (first, last) in runs.items()
                   if alive.get(site) != set(range(first, last + 1)))
    return [
        _check("timeline.sites", set(alive) == set(runs), _diff(alive, runs)),
        _check("timeline.alive_runs", not wrong, f"{len(wrong)} sites differ: {wrong[:5]}"),
    ]


def sync_checks(out: Path, truth: dict) -> list[Check]:
    """Planted uptime twins and content clusters are recovered exactly."""
    report = _load(out / "sync_report.json")
    pairs = sorted([p["site_a"], p["site_b"]] for p in report["uptime_pairs"])
    clusters = sorted((c["sites"], c["months"]) for c in report["content_clusters"])
    want_clusters = sorted((c["sites"], c["months"]) for c in truth["content_clusters"])
    return [
        _check("sync.uptime_twins", pairs == truth["uptime_twins"],
               _diff(pairs, truth["uptime_twins"])),
        _check("sync.content_clusters", clusters == want_clusters,
               _diff(clusters, want_clusters)),
    ]


def distance_checks(path: Path, truth: dict) -> list[Check]:
    """The exported matrix covers every timeline site; twins sit at 0."""
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    sites = rows[0][1:]
    index = {site: i for i, site in enumerate(sites)}
    bad = [pair for pair in truth["uptime_twins"]
           if rows[1 + index.get(pair[0], 0)][1 + index.get(pair[1], 0)] != "0.000000"]
    return [
        _check("sync.distance_matrix", sorted(sites) == sorted(truth["alive_runs"])
               and len(rows) == len(sites) + 1 and not bad,
               f"{len(sites)} sites, {len(rows) - 1} rows, twins not at 0: {bad[:3]}"),
    ]


def tracker_checks(out: Path, truth: dict) -> list[Check]:
    """Fake-cohort tracker set and per-cohort coverage equal the truth."""
    report = _load(out / "tracker_report.json")
    return [
        _check("trackers.fake_set", report["distinct_trackers_fake"] == truth["trackers_fake"],
               _diff(report["distinct_trackers_fake"], truth["trackers_fake"])),
        _check("trackers.coverage", report["coverage"] == truth["tracker_coverage"],
               _diff(report["coverage"].items(), truth["tracker_coverage"].items())),
    ]


def report_checks(out: Path, sections: list[str]) -> list[Check]:
    summary = _load(out / "summary.json")
    return [_check("report.sections", summary["section_names"] == sorted(sections),
                   _diff(summary["section_names"], sections))]


def traffic_checks(out: Path, truth: dict) -> list[Check]:
    """Row accounting, classifier quality floor and prediction coverage."""
    want = truth["expected"]
    stats = _load(out / "traffic_report.json")
    clf = _load(out / "classifier_report.json")
    with open(out / "predictions.csv", newline="", encoding="utf-8") as fh:
        predictions = list(csv.DictReader(fh))
    model = _load(out / "model.json")
    return [
        _check("stats.rows", stats["rows_loaded"] == want["rows_loaded"]
               and len(stats["rows_rejected"]) == want["rows_rejected"],
               f"loaded {stats['rows_loaded']}, rejected {len(stats['rows_rejected'])}"),
        _check("classify.rows", clf["rows_loaded"] == want["rows_loaded"]
               and clf["rows_rejected"] == want["rows_rejected"],
               f"loaded {clf['rows_loaded']}, rejected {clf['rows_rejected']}"),
        _check("classify.f1_floor", clf["cross_validation"]["f1"] >= want["f1_floor"]
               and clf["rank_split"]["metrics"]["f1"] >= want["f1_floor"],
               f"CV F1 {clf['cross_validation']['f1']}, "
               f"rank-split F1 {clf.get('rank_split', {}).get('metrics', {}).get('f1')}"),
        _check("classify.predictions",
               [p["domain"] for p in predictions] == truth["predict_sites"]
               and all(p["predicted_label"] in ("fake", "real") for p in predictions),
               f"{len(predictions)} predictions for {len(truth['predict_sites'])} rows"),
        _check("classify.model", model.get("kind") == "random_forest"
               and len(model["model"]["trees"]) > 0, "model file incomplete"),
    ]
