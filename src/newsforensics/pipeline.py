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
import os
from contextlib import contextmanager
from dataclasses import dataclass, field, fields
from pathlib import Path
from typing import IO, Iterator

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
# extract_text stays importable from here: perfbench/tracing.py wraps pipeline.extract_text
from .textproc import (  # noqa: F401
    Preprocessor,
    default_preprocessor,
    extract_text,
    parse_page,
)
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
        if self.backoff_base < 0:
            raise ValueError("backoff_base must be >= 0")
        if self.per_month < 0:
            raise ValueError("per_month must be >= 0")
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
        try:
            site = normalize_site(line)
        except ValueError as exc:
            raise ValueError(f"{path}:{lineno}: {exc}") from None
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
    try:
        data = json.loads(path.read_text())
    except json.JSONDecodeError as exc:
        raise ValueError(f"{path}: {exc}") from None
    if not (
        isinstance(data, dict)
        and {"fake", "real"} <= data.keys()
        and all(
            isinstance(data[cohort], list) and all(isinstance(s, str) for s in data[cohort])
            for cohort in ("fake", "real")
        )
    ):
        raise ValueError(f"{path}: expected an object with \"fake\" and \"real\" lists")
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


def _cached_pages(config: RunConfig, sites: set[str]):
    """Non-empty cached pages of the crawled sites among ``sites``, in (site, ts) order."""
    manifest = arch.CrawlManifest.load(
        _require(config.out / "crawl_manifest.json", "crawl")
    )
    docs = arch.load_documents(arch.SnapshotCache(config.cache), manifest, sites=sites)
    return (doc for doc in docs if doc.html)


PAGE_URLS = "page_urls.jsonl"
_PAGE_URL_FIELDS = {"sha256": str, "site": str, "timestamp": str, "urls": list}


@contextmanager
def _replacing(path: Path) -> Iterator[IO[str]]:
    """A text file written under a temporary name and moved onto ``path``
    once complete, so a reader never sees a partial file."""
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "w", encoding="utf-8") as fh:
            yield fh
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)


def texts_by_month(config: RunConfig, sites: set[str]) -> dict:
    """Extracted text per month per site from the snapshot cache (first capture wins).

    The same parse gives each page's embedded URLs, streamed to
    ``page_urls.jsonl`` (one row per parsed page, in (site, timestamp)
    order, keyed by the body's sha256) for ``audit_trackers`` to reuse.
    """
    texts: dict[MonthStamp, dict[str, str]] = {}
    with _replacing(config.out / PAGE_URLS) as rows:
        for doc in _cached_pages(config, sites):
            per_month = texts.setdefault(doc.ref.month, {})
            if doc.ref.site not in per_month:  # collapse to first capture per month
                per_month[doc.ref.site], urls = parse_page(doc.html)
                row = {"sha256": hashlib.sha256(doc.html).hexdigest(), "site": doc.ref.site,
                       "timestamp": doc.ref.timestamp, "urls": urls}
                rows.write(json.dumps(row, sort_keys=True) + "\n")
    return texts


def _read_page_urls(path: Path) -> Iterator[tuple[tuple[str, str], str, list[str]]]:
    """``((site, timestamp), sha256, urls)`` per row of a ``page_urls.jsonl``;
    nothing if the file does not exist.  Bad JSON, a wrong shape or type,
    or rows not in strictly increasing (site, timestamp) order raise
    ValueError naming the file and the line."""
    try:
        fh = open(path, "rb")
    except FileNotFoundError:
        return
    with fh:
        previous = None
        for lineno, line in enumerate(fh, start=1):
            try:
                row = json.loads(line)
                if not isinstance(row, dict) or row.keys() != _PAGE_URL_FIELDS.keys():
                    raise ValueError(f"expected an object with keys {sorted(_PAGE_URL_FIELDS)}")
                for key, kind in _PAGE_URL_FIELDS.items():
                    if not isinstance(row[key], kind):
                        raise ValueError(f"{key!r} is not a {kind.__name__}")
                if not all(isinstance(url, str) for url in row["urls"]):
                    raise ValueError("'urls' is not a list of strings")
                page = (row["site"], row["timestamp"])
                if previous is not None and page <= previous:
                    raise ValueError(f"row {page} does not follow row {previous}")
            except ValueError as exc:
                raise ValueError(f"{path}:{lineno}: {exc}") from None
            previous = page
            yield page, row["sha256"], row["urls"]


def _pages_with_urls(config: RunConfig, sites: set[str]):
    """``_cached_pages`` each with the URLs that ``sync`` recorded for its
    body in ``page_urls.jsonl``, or None where it recorded none.

    A merge of the two (site, timestamp)-ordered streams, so memory does
    not grow with the number of rows.  Every row is read and checked.
    """
    rows = _read_page_urls(config.out / PAGE_URLS)
    row = next(rows, None)
    for doc in _cached_pages(config, sites):
        page = (doc.ref.site, doc.ref.timestamp)
        while row is not None and row[0] < page:
            row = next(rows, None)
        recorded = (
            row is not None and row[0] == page
            and row[1] == hashlib.sha256(doc.html).hexdigest()
        )
        yield doc, row[2] if recorded else None
    for _ in rows:
        pass


def detect_sync(config: RunConfig, distances_csv: str | None = None) -> dict:
    timelines_path = _require(
        config.out / "timelines_interpolated.jsonl", "timeline"
    )
    timelines = read_timelines(timelines_path)
    qwindow = config.quarter_window
    series = sorted(
        (syncmod.quarterize(t, qwindow) for t in timelines), key=lambda s: s.site
    )
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
        [config.out / "sync_report.json", config.out / PAGE_URLS],
    )
    if distances_csv:
        export_distance_matrix(series, Path(distances_csv))
    return report


def export_distance_matrix(series: list[syncmod.QuarterSeries], path: Path) -> None:
    """The ``distance_rows`` of ``series`` as a square CSV, in series order."""
    rows = [
        [a.site] + [f"{d:.6f}" for d in row.tolist()]
        for a, row in zip(series, syncmod.distance_rows(series))
    ]
    write_csv(path, ["site"] + [s.site for s in series], rows)


def audit_trackers(config: RunConfig) -> dict:
    if not config.filter_list:
        raise ValueError("a filter_list path is required for the tracker audit")
    try:
        filter_text = Path(config.filter_list).read_text("utf-8")
    except UnicodeDecodeError as exc:
        raise ValueError(f"{config.filter_list}: {exc}") from None
    parsed = trk.parse_filter_list(filter_text)
    psl = config.psl()
    lists = load_site_lists(config)
    fake = set(lists.fake)
    fake_hits, real_hits = [], []
    hosts: dict[str, str | None] = {}  # host -> registrable domain, for recorded URLs
    for doc, urls in _pages_with_urls(config, fake | set(lists.real)):
        hits = fake_hits if doc.ref.site in fake else real_hits
        if urls is None:
            third_parties = trk.extract_third_parties(doc.html, doc.ref.site, psl=psl)
        else:
            third_parties = trk.third_party_domains(urls, doc.ref.site, psl, hosts)
        for domain in sorted(trk.match_trackers(third_parties, parsed.rules)):
            hits.append(trk.ThirdPartyHit(doc.ref.site, doc.ref.month, domain))
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
        to_score, rejected = traf.load_profiles(predict, allow_unlabeled=True)
        for e in rejected:
            log.warning("%s:%d: row for %s not scored: %s", predict, e.line, e.site, e.reason)
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


@contextmanager
def _stage_report(path: Path, **shape: type) -> Iterator[dict]:
    """A stage report read back as a JSON object holding each key of ``shape``
    with its type.  Bad JSON, a missing key or a wrong type, also one met
    while the caller reads the report's nested values, raise ValueError
    naming the file."""
    try:
        report = json.loads(path.read_text())
        if not isinstance(report, dict):
            raise TypeError(f"not an object: {type(report).__name__}")
        for key, kind in shape.items():
            if not isinstance(report[key], kind):
                raise TypeError(f"{key!r} is not a {kind.__name__}")
        yield report
    except KeyError as exc:
        raise ValueError(f"{path}: missing key {exc}") from None
    except (TypeError, ValueError, AttributeError, IndexError) as exc:
        raise ValueError(f"{path}: {exc}") from None


def consolidated_report(config: RunConfig) -> dict:
    """summary.json plus per-figure plot CSVs from whatever reports exist."""
    out = config.out
    plots = out / "plots"
    sections: dict[str, dict] = {}

    sites_path = out / "sites.json"
    if sites_path.exists():
        lists = load_site_lists(config)
        sections["sites"] = {"fake": len(lists.fake), "real": len(lists.real)}

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
        with _stage_report(lifetime_path, sites=int, lifetime=dict, histogram=dict) as lifetime:
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
        with _stage_report(sync_path, uptime_pairs=list, content_matches=list,
                           content_clusters=list) as sync_report:
            sections["sync"] = {
                "uptime_pairs": len(sync_report["uptime_pairs"]),
                "content_matches": len(sync_report["content_matches"]),
                "content_clusters": len(sync_report["content_clusters"]),
            }

    tracker_path = out / "tracker_report.json"
    if tracker_path.exists():
        with _stage_report(tracker_path, distinct_trackers_fake=list, prevalence=list,
                           coverage=dict) as tracker_report:
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
        with _stage_report(traffic_path, rows_loaded=int, rows_rejected=list, ecdfs=dict,
                           ratio_ecdfs=dict) as traffic_report:
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
        with _stage_report(classifier_path, model=str, cross_validation=dict) as classifier_report:
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
