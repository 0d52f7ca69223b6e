"""Batch pipeline steps behind the CLI: each consumes prior artifacts
from the output directory and writes its own report.  The CLI writes each
step's run manifest from the files the step read and wrote.

All artifacts are JSON (sorted keys) or headered CSV and depend only on
the inputs, configuration and seed, so reruns are byte-identical.
"""

from __future__ import annotations

import hashlib
import json
import logging
import math
from dataclasses import asdict, dataclass, field, fields
from pathlib import Path
from typing import Iterator

from . import archive as arch
from . import sync as syncmod
from . import trackers as trk
from . import traffic as traf
from .classify import (
    MODEL_KINDS,
    SplitSpec,
    cross_validate,
    predict_profiles,
    rank_split_experiment,
    train_classifier,
)
from .domains import PublicSuffixList, bundled_psl
from .files import (check, numbered_lines, read_json, read_json_lines, read_text, write_csv,
                    write_json, write_json_lines)
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


COHORTS = ("fake", "real", "all")


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
        if self.workers < 1:
            raise ValueError("workers must be >= 1")
        if self.per_month < 0:
            raise ValueError("per_month must be >= 0")
        if self.top_k_trackers < 1:
            raise ValueError("top_k_trackers must be >= 1")
        if self.folds < 2:
            raise ValueError("folds must be >= 2")
        if self.cohort not in COHORTS:
            raise ValueError(f"cohort must be one of {', '.join(COHORTS)}, got {self.cohort!r}")
        if self.model not in MODEL_KINDS:
            raise ValueError(f"model must be one of {', '.join(MODEL_KINDS)}, got {self.model!r}")
        for prefix, parse, kind in (("window", MonthStamp.parse, "month"),
                                    ("quarter", Quarter.parse, "quarter")):
            bounds = []
            for key in (f"{prefix}_start", f"{prefix}_end"):
                try:
                    bounds.append(parse(getattr(self, key)))
                except ValueError as exc:
                    raise ValueError(f"{key!r}: {exc}") from None
            if bounds[1] < bounds[0]:
                raise ValueError(f"empty {kind} window: {bounds[0]}..{bounds[1]} "
                                 f"({prefix}_start is after {prefix}_end)")
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

    @classmethod
    def from_sources(cls, config_file: str | None, env: dict, overrides: dict) -> "RunConfig":
        values: dict = {}
        if config_file:
            with read_json(config_file, {}) as loaded:
                unknown = set(loaded) - {f.name for f in fields(cls)}
                if unknown:
                    raise ValueError(f"unknown config keys: {sorted(unknown)}")
                values.update(loaded)
        for f in fields(cls):
            env_key = f"NEWSFORENSICS_{f.name.upper()}"
            if env_key in env:
                values[f.name] = env[env_key]
        values.update({k: v for k, v in overrides.items() if v is not None})
        for f in fields(cls):
            if f.name in values:
                try:
                    values[f.name] = _CONVERTERS[f.type](values[f.name])
                except (TypeError, ValueError, OverflowError) as exc:
                    raise ValueError(f"{f.name!r}: {exc}") from None
        return cls(**values)


_BOOL_TEXT = {"1": True, "true": True, "yes": True, "0": False, "false": False, "no": False}


def _to_bool(value) -> bool:
    if isinstance(value, str):
        value = _BOOL_TEXT.get(value.strip().lower(), value)
    if not isinstance(value, bool):
        raise ValueError(f"expected true or false, got {value!r}")
    return value


def _to_int(value) -> int:
    if isinstance(value, bool) or (isinstance(value, float) and not value.is_integer()):
        raise ValueError(f"expected an integer, got {value!r}")
    return int(value)


def _to_float(value) -> float:
    if isinstance(value, bool) or not math.isfinite(float(value)):
        raise ValueError(f"expected a finite number, got {value!r}")
    return float(value)


def _to_str(value) -> str:
    if not isinstance(value, str):
        raise TypeError(f"expected a string, got {value!r}")
    return value


# RunConfig field annotation, as text -> exact conversion of a config file,
# environment or flag value
_CONVERTERS = {"bool": _to_bool, "int": _to_int, "float": _to_float, "str": _to_str,
               "str | None": lambda value: value if value is None else _to_str(value)}


def _sha256(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 16), b""):
            digest.update(chunk)
    return digest.hexdigest()


def write_run_manifest(config: RunConfig, command: str, inputs: list[Path | str],
                       outputs: list[Path | str], flags: dict) -> None:
    """Records what a command ran on: config hash, seed and input digests.

    A file inside the output directory is keyed by its path there, any other
    by the setting or per-run flag (``flags``) that named it, such as
    ``fake_list`` or ``predict``.  The hash leaves out ``out_dir`` and every
    path field.  So the same inputs copied to another directory, run against
    the same archive URLs, give the same manifest; their contents are hashed
    under ``inputs``.
    """
    out = config.out.resolve()
    paths = [(f.name, getattr(config, f.name)) for f in fields(config) if f.type == "str | None"]
    named = {Path(value).resolve(): name for name, value in paths + list(flags.items())
             if isinstance(value, str)}

    def key(path: Path | str) -> str:
        full = Path(path).resolve()
        if full.is_relative_to(out):
            return str(full.relative_to(out))
        return named.get(full, str(path))

    hashed = {
        f.name: getattr(config, f.name) for f in fields(config)
        if f.name != "out_dir" and f.type != "str | None"
    }
    config_json = json.dumps(hashed, sort_keys=True)
    manifest = {
        "command": command,
        "config_sha256": hashlib.sha256(config_json.encode()).hexdigest(),
        "seed": config.seed,
        "inputs": {key(p): _sha256(Path(p)) for p in inputs},
        "outputs": sorted(set(map(key, outputs))),
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
    for lineno, raw in numbered_lines(path):
        line = raw.strip()
        if line.startswith("#"):
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
    return lists


_SITES_SHAPE = {"fake": [str], "real": [str]}


def load_site_lists(config: RunConfig) -> SiteLists:
    with read_json(_require(config.out / "sites.json", "ingest-lists"), _SITES_SHAPE) as data:
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
    manifest.save(config.out / "crawl_manifest.json")
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
    return report


def _cached_pages(config: RunConfig, sites: set[str]):
    """``load_documents`` of the crawled sites among ``sites``."""
    manifest = arch.CrawlManifest.load(
        _require(config.out / "crawl_manifest.json", "crawl")
    )
    return arch.load_documents(arch.SnapshotCache(config.cache), manifest, sites=sites)


PAGE_URLS = "page_urls.jsonl"
_PAGE_URL_FIELDS = {"sha256": str, "site": str, "timestamp": str, "urls": [str]}


def texts_by_month(config: RunConfig, sites: set[str]) -> dict:
    """Extracted text per month per site from the snapshot cache (first capture wins).

    The same parse gives each page's embedded URLs, streamed to
    ``page_urls.jsonl`` (one row per parsed page, in (site, timestamp)
    order, keyed by the body's sha256) for ``audit_trackers`` to reuse.
    """
    texts: dict[MonthStamp, dict[str, str]] = {}

    def rows():
        for doc in _cached_pages(config, sites):
            per_month = texts.setdefault(doc.ref.month, {})
            if doc.ref.site not in per_month:  # collapse to first capture per month
                per_month[doc.ref.site], urls = parse_page(doc.html)
                yield {"sha256": hashlib.sha256(doc.html).hexdigest(), "site": doc.ref.site,
                       "timestamp": doc.ref.timestamp, "urls": urls}

    write_json_lines(config.out / PAGE_URLS, rows())
    return texts


def _read_page_urls(path: Path) -> Iterator[tuple[tuple[str, str], str, list[str]]]:
    """``((site, timestamp), sha256, urls)`` per row of a ``page_urls.jsonl``;
    nothing if the file does not exist.  Bad JSON, a wrong shape or type,
    or rows not in strictly increasing (site, timestamp) order raise
    ValueError naming the file and the line."""
    if not path.exists():
        return
    previous = None

    def parse(row):
        nonlocal previous
        if not isinstance(row, dict) or row.keys() != _PAGE_URL_FIELDS.keys():
            raise ValueError(f"expected an object with keys {sorted(_PAGE_URL_FIELDS)}")
        check(row, _PAGE_URL_FIELDS)
        page = (row["site"], row["timestamp"])
        if previous is not None and page <= previous:
            raise ValueError(f"row {page} does not follow row {previous}")
        previous = page
        return page, row["sha256"], row["urls"]

    yield from read_json_lines(path, parse)


def _pages_with_urls(config: RunConfig, sites: set[str]):
    """``_cached_pages`` each with its embedded URLs: those ``sync`` recorded
    for the same body in ``page_urls.jsonl``, else those of its own parse.

    A merge of the two (site, timestamp)-ordered streams, so memory does
    not grow with the number of rows.  Every row is read and checked.
    """
    rows = _read_page_urls(config.out / PAGE_URLS)
    row = next(rows, None)
    for doc in _cached_pages(config, sites):
        page = (doc.ref.site, doc.ref.timestamp)
        while row is not None and row[0] < page:
            row = next(rows, None)
        if row is not None and row[0] == page and row[1] == hashlib.sha256(doc.html).hexdigest():
            yield doc, row[2]
        else:
            yield doc, parse_page(doc.html)[1]
    for _ in rows:
        pass


def detect_sync(config: RunConfig, distances_csv: str | None = None) -> dict:
    timelines = read_timelines(_require(config.out / "timelines_interpolated.jsonl", "timeline"))
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
    if distances_csv:
        export_distance_matrix(series, Path(distances_csv))
    return report


def export_distance_matrix(series: list[syncmod.QuarterSeries], path: Path) -> None:
    """The ``distance_rows`` of ``series`` as a square CSV, in series order."""
    rows = (
        [a.site] + [f"{d:.6f}" for d in row.tolist()]
        for a, row in zip(series, syncmod.distance_rows(series))
    )
    write_csv(path, ["site"] + [s.site for s in series], rows)


def audit_trackers(config: RunConfig) -> dict:
    if not config.filter_list:
        raise ValueError("a filter_list path is required for the tracker audit")
    parsed = trk.parse_filter_list(read_text(config.filter_list))
    psl = config.psl()
    lists = load_site_lists(config)
    fake = set(lists.fake)
    fake_hits, real_hits = [], []
    hosts: dict[str, str | None] = {}  # host -> registrable domain, for the stage
    for doc, urls in _pages_with_urls(config, fake | set(lists.real)):
        hits = fake_hits if doc.ref.site in fake else real_hits
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
    return report


def traffic_stats(config: RunConfig) -> dict:
    if not config.traffic_data:
        raise ValueError("a traffic_data path is required for stats")
    profiles, errors = traf.load_profiles(config.traffic_data)
    report_obj = traf.cohort_report(profiles, sample_std=config.sample_std)
    report = report_obj.to_dict()
    report["rows_loaded"] = len(profiles)
    report["rows_rejected"] = [asdict(e) for e in errors]
    write_json(config.out / "traffic_report.json", report)
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
        report["predictions_file"] = _display_path(predictions_path, config.out)
    write_json(config.out / "classifier_report.json", report)
    return report


# ---------------------------------------------------------------------------
# consolidated report

def _ecdf_rows(table: dict, metrics) -> list:
    """``[metric, label, value, fraction]`` rows of the ECDFs that ``table``
    holds under ``metrics``, labels in sorted order."""
    return [
        [metric, label, value, fraction]
        for metric in metrics if metric in table
        for label in sorted(table[metric])
        for value, fraction in table[metric][label]
    ]


def _timeline_section(report: dict):
    lifetime = report["lifetime"]
    return {
        "sites": report["sites"],
        "median_months": {metric: stats["median_months"] for metric, stats in lifetime.items()},
    }, [
        ("state_histogram.csv", ["month", "alive", "zombie", "dead"],
         zip(*(report["histogram"]["p2"][key] for key in ("months", "alive", "zombie", "dead")))),
        ("lifetime_cdf.csv", ["metric", "months", "fraction"],
         [[metric, int(months), fraction] for metric, stats in lifetime.items()
          for months, fraction in traf.ecdf(stats["values"])]),
    ]


def _trackers_section(report: dict):
    prevalence = report["prevalence"]
    return {
        "distinct_trackers_fake": len(report["distinct_trackers_fake"]),
        "top_prevalence": [s["tracker"] for s in prevalence],
    }, [
        ("tracker_prevalence.csv", ["tracker", "month", "sites"],
         [[s["tracker"], month, count] for s in prevalence
          for month, count in zip(s["months"], s["site_counts"])]),
        ("tracker_coverage.csv", ["tracker", "fake_fraction", "real_fraction"],
         [[tracker, cov["fake"], cov["real"]]
          for tracker, cov in sorted(report["coverage"].items())]),
    ]


def _traffic_section(report: dict):
    ecdfs = report["ecdfs"]
    return {"rows": report["rows_loaded"], "rejected": len(report["rows_rejected"])}, [
        ("traffic_sources_ecdf.csv", ["source", "label", "percent", "fraction"],
         _ecdf_rows(ecdfs, [m for m in sorted(ecdfs) if m.startswith("src_")])),
        *(
            (filename, [metric, "label", "value", "fraction"], _ecdf_rows(ecdfs, [metric]))
            for metric, filename in (("visit_duration_s", "visit_duration_ecdf.csv"),
                                     ("bounce_rate", "bounce_rate_ecdf.csv"))
            if metric in ecdfs
        ),
        ("links_ecdf.csv", ["metric", "label", "value", "fraction"],
         _ecdf_rows(ecdfs, ["backlinks", "referring_domains"])),
        ("edu_gov_ratios_ecdf.csv", ["ratio", "label", "value", "fraction"],
         _ecdf_rows(report["ratio_ecdfs"], sorted(report["ratio_ecdfs"]))),
    ]


def _crawl_section(data):
    manifest = arch.CrawlManifest.from_dict(data)
    entries = [e for site in manifest.entries.values() for e in site]
    return {
        "sites": len(manifest.entries),
        "snapshots": len(entries),
        "fetched": sum(1 for e in entries if e.fetch_status == arch.FETCHED),
        "failed": sum(1 for e in entries if e.fetch_status == arch.FAILED),
    }, []


# One row per earlier artifact that ``report`` reads back, in the order it
# reads them: file name, summary section, top-level shape (None: checked by
# the summarize function), and artifact -> (section, [(plot CSV, header, rows)]).
_STAGE_REPORTS = (
    ("sites.json", "sites", _SITES_SHAPE,
     lambda lists: ({cohort: len(lists[cohort]) for cohort in _SITES_SHAPE}, [])),
    ("crawl_manifest.json", "crawl", None, _crawl_section),
    ("lifetime_report.json", "timeline", {"sites": int, "lifetime": dict, "histogram": dict},
     _timeline_section),
    ("sync_report.json", "sync",
     {"uptime_pairs": list, "content_matches": list, "content_clusters": list},
     lambda report: ({key: len(report[key]) for key in
                      ("uptime_pairs", "content_matches", "content_clusters")}, [])),
    ("tracker_report.json", "trackers",
     {"distinct_trackers_fake": list, "prevalence": list, "coverage": dict}, _trackers_section),
    ("traffic_report.json", "traffic",
     {"rows_loaded": int, "rows_rejected": list, "ecdfs": dict, "ratio_ecdfs": dict},
     _traffic_section),
    ("classifier_report.json", "classifier", {"model": str, "cross_validation": dict},
     lambda report: ({"model": report["model"], "f1": report["cross_validation"]["f1"],
                      "auc": report["cross_validation"]["auc"]}, [])),
)


def consolidated_report(config: RunConfig) -> dict:
    """summary.json plus per-figure plot CSVs from whatever artifacts exist."""
    out = config.out
    sections: dict[str, dict] = {}
    for name, section, shape, summarize in _STAGE_REPORTS:
        if (out / name).exists():
            with read_json(out / name, shape) as report:
                sections[section], plots = summarize(report)
                for filename, header, rows in plots:
                    write_csv(out / "plots" / filename, header, rows)

    if not sections:
        raise PrerequisiteError("no module reports found: run a pipeline step first")
    summary = {"sections": sections, "section_names": sorted(sections)}
    write_json(out / "summary.json", summary)
    return summary
