"""Batch pipeline steps behind the CLI: each consumes prior artifacts
from the output directory and writes its own report plus a run manifest.

All artifacts are JSON (sorted keys) or headered CSV and depend only on
the inputs, configuration and seed, so reruns are byte-identical.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import logging
from dataclasses import dataclass, field, fields
from pathlib import Path

from . import archive as arch
from . import sync as syncmod
from . import trackers as trk
from . import traffic as traf
from .classify import (
    SplitSpec,
    cross_validate,
    predict_profiles,
    rank_split_experiment,
    train_classifier,
)
from .domains import PublicSuffixList, bundled_psl
from .textproc import Preprocessor, default_preprocessor, extract_text
from .timeline import (
    MonthStamp,
    Quarter,
    cohort_histogram,
    interpolate_p1,
    interpolate_p2,
    lifetime_distribution,
    lifetime_summary,
    normalize_site,
    read_annotations,
    read_timelines,
    write_timelines,
)

log = logging.getLogger(__name__)


class PrerequisiteError(Exception):
    """A pipeline step ran before the artifacts it needs exist."""


@dataclass
class RunConfig:
    """Flat configuration; file values < environment < command flags."""

    fake_list: str | None = None
    real_list: str | None = None
    annotations: str | None = None
    filter_list: str | None = None
    traffic_data: str | None = None
    out_dir: str = "out"
    cache_dir: str | None = None  # default: <out_dir>/cache
    window_start: str = "2000-01"
    window_end: str = "2020-12"
    quarter_start: str = "2015-Q1"
    quarter_end: str = "2019-Q4"
    cdx_base: str = arch.DEFAULT_ARCHIVE_BASE
    web_base: str = arch.DEFAULT_ARCHIVE_BASE
    rate_limit: float = 1.0
    backoff_base: float = 1.0
    workers: int = 4
    per_month: int = 1
    seed: int = 0
    cosine_threshold: float = 0.5
    uptime_max_distance: float = 0.0
    min_doc_tokens: int = 10
    top_k_trackers: int = 10
    sample_std: bool = False
    model: str = "random_forest"
    folds: int = 10
    cohort: str = "fake"
    public_suffix_list: str | None = None
    stopwords: str | None = None
    suffix_rules: str | None = None

    def __post_init__(self):
        if not 0.0 < self.cosine_threshold <= 1.0:
            raise ValueError("cosine_threshold must be in (0, 1]")
        if self.uptime_max_distance < 0:
            raise ValueError("uptime_max_distance must be >= 0")
        if self.rate_limit < 0:
            raise ValueError("rate_limit must be >= 0")
        if self.folds < 2:
            raise ValueError("folds must be >= 2")
        self.seed = int(self.seed) & (2**64 - 1)

    @property
    def out(self) -> Path:
        return Path(self.out_dir)

    @property
    def cache(self) -> Path:
        return Path(self.cache_dir) if self.cache_dir else self.out / "cache"

    @property
    def month_window(self) -> tuple[MonthStamp, MonthStamp]:
        return (MonthStamp.parse(self.window_start), MonthStamp.parse(self.window_end))

    @property
    def quarter_window(self) -> tuple[Quarter, Quarter]:
        return (Quarter.parse(self.quarter_start), Quarter.parse(self.quarter_end))

    def preprocessor(self) -> Preprocessor:
        if self.stopwords or self.suffix_rules:
            return Preprocessor(self.stopwords, self.suffix_rules)
        return default_preprocessor()

    def psl(self) -> PublicSuffixList:
        if self.public_suffix_list:
            return PublicSuffixList.from_file(self.public_suffix_list)
        return bundled_psl()

    def to_dict(self) -> dict:
        return {f.name: getattr(self, f.name) for f in fields(self)}

    @classmethod
    def from_sources(cls, config_file: str | None, env: dict, overrides: dict) -> "RunConfig":
        values: dict = {}
        if config_file:
            loaded = json.loads(Path(config_file).read_text())
            known = {f.name for f in fields(cls)}
            unknown = set(loaded) - known
            if unknown:
                raise ValueError(f"unknown config keys: {sorted(unknown)}")
            values.update(loaded)
        for f in fields(cls):
            env_key = f"NEWSFORENSICS_{f.name.upper()}"
            if env_key in env:
                values[f.name] = env[env_key]
        values.update({k: v for k, v in overrides.items() if v is not None})
        # coerce strings coming from env/JSON to the declared types
        for f in fields(cls):
            if f.name in values and values[f.name] is not None:
                if f.type in ("int", int):
                    values[f.name] = int(values[f.name])
                elif f.type in ("float", float):
                    values[f.name] = float(values[f.name])
                elif f.type in ("bool", bool) and isinstance(values[f.name], str):
                    values[f.name] = values[f.name].strip().lower() in ("1", "true", "yes")
        return cls(**values)


def write_json(path: Path, payload) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(payload, sort_keys=True, indent=2) + "\n")


def write_csv(path: Path, header: list[str], rows) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    path.write_text(buf.getvalue())


def _sha256(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 16), b""):
            digest.update(chunk)
    return digest.hexdigest()


def write_run_manifest(config: RunConfig, command: str, inputs: list[Path | str],
                       outputs: list[Path | str]) -> None:
    """Records what a command ran on: config hash, seed and input digests.

    Output locations are excluded from the hash so identical runs into
    different directories produce identical manifests.
    """
    hashed = {
        k: v for k, v in config.to_dict().items() if k not in ("out_dir", "cache_dir")
    }
    config_json = json.dumps(hashed, sort_keys=True)
    manifest = {
        "command": command,
        "config_sha256": hashlib.sha256(config_json.encode()).hexdigest(),
        "seed": config.seed,
        "inputs": {
            _display_path(p, config.out): _sha256(Path(p))
            for p in sorted(map(str, inputs))
            if Path(p).is_file()
        },
        "outputs": sorted(_display_path(p, config.out) for p in outputs),
    }
    write_json(config.out / "manifests" / f"{command}.json", manifest)


def _require(path: Path, producer: str) -> Path:
    if not path.exists():
        raise PrerequisiteError(f"{path} not found: run `{producer}` first")
    return path


def _display_path(path: Path | str, out: Path) -> str:
    """Relative to the output directory when inside it; keeps reports portable."""
    path = Path(path)
    try:
        return str(path.resolve().relative_to(out.resolve()))
    except ValueError:
        return str(path)


# ---------------------------------------------------------------------------
# steps

@dataclass
class SiteLists:
    fake: list[str]
    real: list[str]
    warnings: list[str] = field(default_factory=list)

    def for_cohort(self, cohort: str) -> list[str]:
        if cohort == "fake":
            return self.fake
        if cohort == "real":
            return self.real
        if cohort == "all":
            return sorted(set(self.fake) | set(self.real))
        raise ValueError(f"unknown cohort {cohort!r}")


def read_site_list(path: Path) -> tuple[list[str], list[str]]:
    """One domain per line; returns (normalized unique sites, warnings)."""
    sites, warnings, seen = [], [], set()
    for lineno, raw in enumerate(path.read_text().splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        site = normalize_site(line)
        if site in seen:
            warnings.append(f"{path}:{lineno}: duplicate entry {site} dropped")
            continue
        seen.add(site)
        sites.append(site)
    return sorted(sites), warnings


def ingest_lists(config: RunConfig) -> SiteLists:
    if not config.fake_list or not config.real_list:
        raise ValueError("both fake_list and real_list paths are required")
    fake, warn_fake = read_site_list(Path(config.fake_list))
    real, warn_real = read_site_list(Path(config.real_list))
    overlap = sorted(set(fake) & set(real))
    if overlap:
        raise ValueError(
            f"domains appear in both lists: {', '.join(overlap)}"
        )
    lists = SiteLists(fake, real, warn_fake + warn_real)
    write_json(config.out / "sites.json", {"fake": fake, "real": real})
    write_run_manifest(
        config, "ingest-lists", [config.fake_list, config.real_list],
        [config.out / "sites.json"],
    )
    return lists


def load_site_lists(config: RunConfig) -> SiteLists:
    path = _require(config.out / "sites.json", "ingest-lists")
    data = json.loads(path.read_text())
    return SiteLists(data["fake"], data["real"])


def crawl(config: RunConfig, client: arch.WaybackClient | None = None) -> arch.CrawlManifest:
    lists = load_site_lists(config)
    sites = lists.for_cohort("all")
    if client is None:
        client = arch.WaybackClient(
            cdx_base=config.cdx_base,
            web_base=config.web_base,
            cache=arch.SnapshotCache(config.cache),
            rate_limit=config.rate_limit,
            backoff_base=config.backoff_base,
            jitter_seed=config.seed,
        )
    manifest = arch.crawl_sites(
        client, sites, config.month_window,
        per_month=config.per_month, workers=config.workers,
    )
    if sites and set(manifest.cdx_failures) == set(sites):
        raise arch.ArchiveError(
            f"every CDX query failed ({len(sites)} sites): archive unreachable"
        )
    manifest_path = config.out / "crawl_manifest.json"
    manifest.save(manifest_path)
    write_run_manifest(config, "crawl", [config.out / "sites.json"], [manifest_path])
    return manifest


def _histogram_payload(hist) -> dict:
    return {
        "months": [str(m) for m in hist.months],
        "alive": list(hist.alive),
        "zombie": list(hist.zombie),
        "dead": list(hist.dead),
        "cohort_size": hist.cohort_size,
    }


def build_timeline_artifacts(config: RunConfig) -> dict:
    """Timelines (raw and interpolated), lifetime stats and state histograms."""
    annotations = read_annotations(config.annotations) if config.annotations else {}
    manifest_path = config.out / "crawl_manifest.json"
    manifest = None
    if manifest_path.exists():
        manifest = arch.CrawlManifest.load(manifest_path)
    elif not annotations:
        raise PrerequisiteError(
            f"{manifest_path} not found and no annotations given: run `crawl` first"
        )

    try:
        cohort_sites = load_site_lists(config).for_cohort(config.cohort)
    except PrerequisiteError:
        # no lists: every crawled site, or every annotated one without a crawl
        cohort_sites = manifest.sites() if manifest else sorted(annotations)

    raw = arch.build_timelines(manifest, annotations, cohort_sites, config.month_window)
    p1 = [interpolate_p1(t) for t in raw]
    p2 = [interpolate_p2(t) for t in p1]

    write_timelines(raw, config.out / "timelines.jsonl")
    write_timelines(p2, config.out / "timelines_interpolated.jsonl")

    summaries = [lifetime_summary(t) for t in p2]
    dist = lifetime_distribution(summaries) if summaries else {}
    report = {
        "cohort": config.cohort,
        "window": [config.window_start, config.window_end],
        "sites": len(raw),
        "lifetime": {
            metric: {"median_months": d.median, "values": list(d.values)}
            for metric, d in dist.items()
        },
        "histogram": {
            "raw": _histogram_payload(cohort_histogram(raw, config.month_window)),
            "p1": _histogram_payload(cohort_histogram(p1, config.month_window)),
            "p2": _histogram_payload(cohort_histogram(p2, config.month_window)),
        },
    }
    write_json(config.out / "lifetime_report.json", report)
    inputs = [p for p in (manifest_path, config.annotations) if p]
    write_run_manifest(
        config, "timeline", inputs,
        [
            config.out / "timelines.jsonl",
            config.out / "timelines_interpolated.jsonl",
            config.out / "lifetime_report.json",
        ],
    )
    return report


def texts_by_month(config: RunConfig, sites: set[str]) -> dict:
    """Extracted text per month per site from the snapshot cache (first capture wins)."""
    manifest = arch.CrawlManifest.load(
        _require(config.out / "crawl_manifest.json", "crawl")
    )
    cache = arch.SnapshotCache(config.cache)
    texts: dict[MonthStamp, dict[str, str]] = {}
    for doc in arch.load_documents(cache, manifest, sites=sites):
        if not doc.html:
            continue
        per_month = texts.setdefault(doc.ref.month, {})
        if doc.ref.site not in per_month:  # collapse to first capture per month
            per_month[doc.ref.site] = extract_text(doc.html)
    return texts


def detect_sync(config: RunConfig) -> dict:
    timelines_path = _require(
        config.out / "timelines_interpolated.jsonl", "timeline"
    )
    timelines = read_timelines(timelines_path)
    qwindow = config.quarter_window
    series = [syncmod.quarterize(t, qwindow) for t in timelines]
    pairs = (
        syncmod.pairwise_uptime(series, max_distance=config.uptime_max_distance)
        if len(series) >= 2
        else []
    )

    cohort_sites = {t.site for t in timelines}
    texts = texts_by_month(config, cohort_sites)
    matches, clusters = syncmod.detect_content_sync(
        texts,
        threshold=config.cosine_threshold,
        min_tokens=config.min_doc_tokens,
        preprocessor=config.preprocessor(),
    )

    report = {
        "quarter_window": [config.quarter_start, config.quarter_end],
        "uptime_pairs": [
            {"site_a": p.site_a, "site_b": p.site_b, "distance": p.distance}
            for p in pairs
        ],
        "content_matches": [
            {
                "site_a": m.site_a,
                "site_b": m.site_b,
                "month": str(m.month),
                "similarity": round(m.similarity, 9),
            }
            for m in matches
        ],
        "content_clusters": [
            {
                "sites": sorted(c.sites),
                "months": sorted(str(m) for m in c.months),
            }
            for c in clusters
        ],
    }
    write_json(config.out / "sync_report.json", report)
    write_run_manifest(
        config, "sync",
        [timelines_path, config.out / "crawl_manifest.json"],
        [config.out / "sync_report.json"],
    )
    return report


def export_distance_matrix(config: RunConfig, path: Path) -> None:
    timelines = read_timelines(
        _require(config.out / "timelines_interpolated.jsonl", "timeline")
    )
    series = [syncmod.quarterize(t, config.quarter_window) for t in timelines]
    series.sort(key=lambda s: s.site)
    header = ["site"] + [s.site for s in series]
    rows = []
    for a in series:
        rows.append([a.site] + [f"{syncmod.euclidean(a, b):.6f}" for b in series])
    write_csv(path, header, rows)


def audit_trackers(config: RunConfig) -> dict:
    if not config.filter_list:
        raise ValueError("a filter_list path is required for the tracker audit")
    filter_text = Path(config.filter_list).read_text()
    parsed = trk.parse_filter_list(filter_text)
    psl = config.psl()
    lists = load_site_lists(config)
    manifest = arch.CrawlManifest.load(
        _require(config.out / "crawl_manifest.json", "crawl")
    )
    cache = arch.SnapshotCache(config.cache)

    def collect_hits(sites: list[str]) -> list[trk.ThirdPartyHit]:
        hits = []
        for doc in arch.load_documents(cache, manifest, sites=set(sites)):
            if not doc.html:
                continue
            third_parties = trk.extract_third_parties(doc.html, doc.ref.site, psl=psl)
            for domain in sorted(trk.match_trackers(third_parties, parsed.rules)):
                hits.append(trk.ThirdPartyHit(doc.ref.site, doc.ref.month, domain))
        return hits

    fake_hits = collect_hits(lists.fake)
    real_hits = collect_hits(lists.real)
    window = config.month_window
    prevalence = trk.prevalence_timeline(
        fake_hits, lists.fake, window, top_k=config.top_k_trackers
    )
    coverage = trk.coverage_compare(
        fake_hits, real_hits, window, len(lists.fake), len(lists.real)
    )

    report = {
        "filter_list": {
            "rules": len(parsed.rules),
            "skipped": dict(sorted(parsed.skipped.items())),
        },
        "distinct_trackers_fake": sorted({h.tracker_domain for h in fake_hits}),
        "prevalence": [
            {
                "tracker": s.tracker_domain,
                "cumulative": s.cumulative,
                "months": [str(m) for m in s.months],
                "site_counts": list(s.site_counts),
            }
            for s in prevalence
        ],
        "coverage": {
            tracker: {"fake": fake_frac, "real": real_frac}
            for tracker, (fake_frac, real_frac) in coverage.items()
        },
    }
    write_json(config.out / "tracker_report.json", report)
    write_run_manifest(
        config, "trackers",
        [config.filter_list, config.out / "crawl_manifest.json"],
        [config.out / "tracker_report.json"],
    )
    return report


def traffic_stats(config: RunConfig) -> dict:
    if not config.traffic_data:
        raise ValueError("a traffic_data path is required for stats")
    profiles, errors = traf.load_profiles(config.traffic_data)
    report_obj = traf.cohort_report(profiles, sample_std=config.sample_std)
    report = report_obj.to_dict()
    report["rows_loaded"] = len(profiles)
    report["rows_rejected"] = [
        {"line": e.line, "site": e.site, "reason": e.reason} for e in errors
    ]
    write_json(config.out / "traffic_report.json", report)
    write_run_manifest(
        config, "stats", [config.traffic_data], [config.out / "traffic_report.json"]
    )
    return report


def classify(
    config: RunConfig,
    split: str | None = None,
    save_model: str | None = None,
    predict: str | None = None,
) -> dict:
    if not config.traffic_data:
        raise ValueError("a traffic_data path is required for classification")
    profiles, errors = traf.load_profiles(config.traffic_data)
    report = {
        "model": config.model,
        "folds": config.folds,
        "seed": config.seed,
        "rows_loaded": len(profiles),
        "rows_rejected": len(errors),
        "cross_validation": cross_validate(
            config.model, profiles, k=config.folds, seed=config.seed
        ).to_dict(),
    }
    if split:
        spec = SplitSpec.parse(split)
        report["rank_split"] = {
            "train": str(spec.train),
            "test": str(spec.test),
            "metrics": rank_split_experiment(
                profiles, spec, config.model, seed=config.seed
            ).to_dict(),
        }
    outputs = [config.out / "classifier_report.json"]
    classifier = None
    if save_model or predict:
        classifier = train_classifier(config.model, profiles, seed=config.seed)
    if save_model:
        model_path = Path(save_model)
        classifier.save(model_path)
        report["model_file"] = _display_path(model_path, config.out)
    if predict:
        to_score, _ = traf.load_profiles(predict, allow_unlabeled=True)
        rows = predict_profiles(classifier, to_score)
        predictions_path = config.out / "predictions.csv"
        write_csv(
            predictions_path,
            ["domain", "predicted_label", "score"],
            [(site, label, f"{score:.6f}") for site, label, score in rows],
        )
        outputs.append(predictions_path)
        report["predictions_file"] = _display_path(predictions_path, config.out)
    write_json(config.out / "classifier_report.json", report)
    inputs = [config.traffic_data] + ([predict] if predict else [])
    write_run_manifest(config, "classify", inputs, outputs)
    return report


# ---------------------------------------------------------------------------
# consolidated report

def _ecdf_rows(metric: str, per_label: dict) -> list:
    rows = []
    for label in sorted(per_label):
        for value, fraction in per_label[label]:
            rows.append([metric, label, value, fraction])
    return rows


def consolidated_report(config: RunConfig) -> dict:
    """summary.json plus per-figure plot CSVs from whatever reports exist."""
    out = config.out
    plots = out / "plots"
    sections: dict[str, dict] = {}

    sites_path = out / "sites.json"
    if sites_path.exists():
        data = json.loads(sites_path.read_text())
        sections["sites"] = {
            "fake": len(data["fake"]), "real": len(data["real"])
        }

    crawl_path = out / "crawl_manifest.json"
    if crawl_path.exists():
        manifest = arch.CrawlManifest.load(crawl_path)
        entries = [e for site in manifest.entries.values() for e in site]
        sections["crawl"] = {
            "sites": len(manifest.entries),
            "snapshots": len(entries),
            "fetched": sum(1 for e in entries if e.fetch_status == arch.FETCHED),
            "failed": sum(1 for e in entries if e.fetch_status == arch.FAILED),
        }

    lifetime_path = out / "lifetime_report.json"
    if lifetime_path.exists():
        lifetime = json.loads(lifetime_path.read_text())
        sections["timeline"] = {
            "sites": lifetime["sites"],
            "median_months": {
                metric: stats["median_months"]
                for metric, stats in lifetime["lifetime"].items()
            },
        }
        hist = lifetime["histogram"]["p2"]
        write_csv(
            plots / "state_histogram.csv",
            ["month", "alive", "zombie", "dead"],
            zip(hist["months"], hist["alive"], hist["zombie"], hist["dead"]),
        )
        rows = [
            [metric, int(months), fraction]
            for metric, stats in lifetime["lifetime"].items()
            for months, fraction in traf.ecdf(stats["values"])
        ]
        write_csv(plots / "lifetime_cdf.csv", ["metric", "months", "fraction"], rows)

    sync_path = out / "sync_report.json"
    if sync_path.exists():
        sync_report = json.loads(sync_path.read_text())
        sections["sync"] = {
            "uptime_pairs": len(sync_report["uptime_pairs"]),
            "content_matches": len(sync_report["content_matches"]),
            "content_clusters": len(sync_report["content_clusters"]),
        }

    tracker_path = out / "tracker_report.json"
    if tracker_path.exists():
        tracker_report = json.loads(tracker_path.read_text())
        sections["trackers"] = {
            "distinct_trackers_fake": len(tracker_report["distinct_trackers_fake"]),
            "top_prevalence": [
                s["tracker"] for s in tracker_report["prevalence"]
            ],
        }
        rows = []
        for s in tracker_report["prevalence"]:
            for month, count in zip(s["months"], s["site_counts"]):
                rows.append([s["tracker"], month, count])
        write_csv(plots / "tracker_prevalence.csv", ["tracker", "month", "sites"], rows)
        write_csv(
            plots / "tracker_coverage.csv",
            ["tracker", "fake_fraction", "real_fraction"],
            [
                [tracker, cov["fake"], cov["real"]]
                for tracker, cov in sorted(tracker_report["coverage"].items())
            ],
        )

    traffic_path = out / "traffic_report.json"
    if traffic_path.exists():
        traffic_report = json.loads(traffic_path.read_text())
        sections["traffic"] = {
            "rows": traffic_report["rows_loaded"],
            "rejected": len(traffic_report["rows_rejected"]),
        }
        ecdfs = traffic_report["ecdfs"]
        source_rows = []
        for metric in sorted(ecdfs):
            if metric.startswith("src_"):
                source_rows.extend(_ecdf_rows(metric, ecdfs[metric]))
        write_csv(
            plots / "traffic_sources_ecdf.csv",
            ["source", "label", "percent", "fraction"],
            source_rows,
        )
        for metric, filename in (
            ("visit_duration_s", "visit_duration_ecdf.csv"),
            ("bounce_rate", "bounce_rate_ecdf.csv"),
        ):
            if metric in ecdfs:
                write_csv(
                    plots / filename,
                    [metric, "label", "value", "fraction"],
                    _ecdf_rows(metric, ecdfs[metric]),
                )
        link_rows = []
        for metric in ("backlinks", "referring_domains"):
            if metric in ecdfs:
                link_rows.extend(_ecdf_rows(metric, ecdfs[metric]))
        write_csv(
            plots / "links_ecdf.csv", ["metric", "label", "value", "fraction"], link_rows
        )
        ratio_rows = []
        for metric in sorted(traffic_report["ratio_ecdfs"]):
            ratio_rows.extend(_ecdf_rows(metric, traffic_report["ratio_ecdfs"][metric]))
        write_csv(
            plots / "edu_gov_ratios_ecdf.csv",
            ["ratio", "label", "value", "fraction"],
            ratio_rows,
        )

    classifier_path = out / "classifier_report.json"
    if classifier_path.exists():
        classifier_report = json.loads(classifier_path.read_text())
        cv = classifier_report["cross_validation"]
        sections["classifier"] = {
            "model": classifier_report["model"],
            "f1": cv["f1"],
            "auc": cv["auc"],
        }

    if not sections:
        raise PrerequisiteError("no module reports found: run a pipeline step first")
    summary = {"sections": sections, "section_names": sorted(sections)}
    write_json(out / "summary.json", summary)
    write_run_manifest(
        config, "report",
        [sites_path, crawl_path, lifetime_path, sync_path, tracker_path,
         traffic_path, classifier_path],
        [out / "summary.json"],
    )
    return summary
