"""Command-line pipeline: ingest-lists, crawl, timeline, sync, trackers,
stats, classify, report.

Configuration comes from an optional flat JSON file, NEWSFORENSICS_*
environment variables and command flags, in increasing precedence.
Exit codes: 0 success, 2 validation error, 3 missing prerequisite,
4 network failure after retries.
"""

from __future__ import annotations

import functools
import logging
import os
import sys

import click

from . import pipeline
from .archive import FETCHED, ArchiveError
from .classify import MODEL_KINDS
from .pipeline import PrerequisiteError, RunConfig

log = logging.getLogger(__name__)

EXIT_VALIDATION = 2
EXIT_PREREQUISITE = 3
EXIT_NETWORK = 4


def _build_config(ctx: click.Context, **overrides) -> RunConfig:
    base = dict(ctx.obj or {})
    config_file = base.pop("config", None)
    base.update(overrides)
    return RunConfig.from_sources(config_file, dict(os.environ), base)


def pipeline_command(func):
    """Map pipeline exceptions onto the documented exit codes."""

    @functools.wraps(func)
    def wrapper(*args, **kwargs):
        try:
            return func(*args, **kwargs)
        except PrerequisiteError as exc:
            click.echo(f"error: {exc}", err=True)
            sys.exit(EXIT_PREREQUISITE)
        except ArchiveError as exc:
            click.echo(f"error: {exc}", err=True)
            sys.exit(EXIT_NETWORK)
        except (ValueError, OSError) as exc:
            click.echo(f"error: {exc}", err=True)
            sys.exit(EXIT_VALIDATION)

    return wrapper


@click.group()
@click.option("--config", type=click.Path(exists=True, dir_okay=False), default=None,
              help="Flat JSON config file.")
@click.option("--seed", type=int, default=None, help="Master seed for all randomness.")
@click.option("--out", "out_dir", type=click.Path(file_okay=False), default=None,
              help="Output directory for artifacts.")
@click.option("-v", "--verbose", is_flag=True, help="Log at INFO level.")
@click.pass_context
def main(ctx, config, seed, out_dir, verbose):
    """Lifecycle forensics for news websites."""
    logging.basicConfig(
        level=logging.INFO if verbose else logging.WARNING,
        format="%(levelname)s %(name)s: %(message)s",
    )
    ctx.obj = {"config": config, "seed": seed, "out_dir": out_dir}


@main.command("ingest-lists")
@click.option("--fake", "fake_list", type=click.Path(exists=True, dir_okay=False),
              required=False, help="Text file of fake news domains, one per line.")
@click.option("--real", "real_list", type=click.Path(exists=True, dir_okay=False),
              required=False, help="Text file of real news domains, one per line.")
@click.pass_context
@pipeline_command
def ingest_lists(ctx, fake_list, real_list):
    """Normalize and validate the fake/real site lists."""
    config = _build_config(ctx, fake_list=fake_list, real_list=real_list)
    lists = pipeline.ingest_lists(config)
    for warning in lists.warnings:
        click.echo(f"warning: {warning}", err=True)
    click.echo(f"ingested {len(lists.fake)} fake and {len(lists.real)} real sites")


@main.command()
@click.option("--window", nargs=2, metavar="FROM TO", default=None,
              help="Crawl window as two YYYY-MM months.")
@click.option("--rate-limit", type=float, default=None, help="Requests per second.")
@click.option("--workers", type=int, default=None, help="Concurrent snapshot fetches.")
@click.option("--per-month", type=int, default=None,
              help="Captures to keep per site-month (0 keeps all).")
@click.option("--cdx-base", default=None, help="CDX endpoint base URL.")
@click.option("--web-base", default=None, help="Snapshot endpoint base URL.")
@click.pass_context
@pipeline_command
def crawl(ctx, window, rate_limit, workers, per_month, cdx_base, web_base):
    """Fetch the capture index and landing-page snapshots into the cache."""
    overrides = {
        "rate_limit": rate_limit,
        "workers": workers,
        "per_month": per_month,
        "cdx_base": cdx_base,
        "web_base": web_base,
    }
    if window:
        overrides["window_start"], overrides["window_end"] = window
    config = _build_config(ctx, **overrides)
    manifest = pipeline.crawl(config)
    fetched = sum(
        1 for entries in manifest.entries.values() for e in entries
        if e.fetch_status == FETCHED
    )
    click.echo(f"crawled {len(manifest.entries)} sites, {fetched} snapshots fetched")


@main.command()
@click.option("--annotations", type=click.Path(exists=True, dir_okay=False), default=None,
              help="CSV of month-state annotations (domain,year,month,state).")
@click.option("--cohort", type=click.Choice(["fake", "real", "all"]), default=None)
@click.option("--window", nargs=2, metavar="FROM TO", default=None)
@click.pass_context
@pipeline_command
def timeline(ctx, annotations, cohort, window):
    """Aggregate states per month, interpolate gaps, compute lifetimes."""
    overrides = {"annotations": annotations, "cohort": cohort}
    if window:
        overrides["window_start"], overrides["window_end"] = window
    config = _build_config(ctx, **overrides)
    report = pipeline.build_timeline_artifacts(config)
    medians = {
        metric: stats["median_months"]
        for metric, stats in report["lifetime"].items()
    }
    click.echo(f"built {report['sites']} timelines; medians (months): {medians}")


@main.command()
@click.option("--quarters", nargs=2, metavar="FROM TO", default=None,
              help="Quarter window as two YYYY-Qn values.")
@click.option("--cosine-threshold", type=float, default=None)
@click.option("--uptime-max-distance", type=float, default=None)
@click.option("--distances-csv", type=click.Path(dir_okay=False), default=None,
              help="Also export the full pairwise distance matrix to this CSV.")
@click.option("--stopwords", type=click.Path(exists=True, dir_okay=False), default=None)
@click.option("--suffix-rules", type=click.Path(exists=True, dir_okay=False), default=None)
@click.pass_context
@pipeline_command
def sync(ctx, quarters, cosine_threshold, uptime_max_distance, distances_csv,
         stopwords, suffix_rules):
    """Detect uptime- and content-synchronized site pairs and clusters."""
    overrides = {
        "cosine_threshold": cosine_threshold,
        "uptime_max_distance": uptime_max_distance,
        "stopwords": stopwords,
        "suffix_rules": suffix_rules,
    }
    if quarters:
        overrides["quarter_start"], overrides["quarter_end"] = quarters
    config = _build_config(ctx, **overrides)
    report = pipeline.detect_sync(config, distances_csv=distances_csv)
    click.echo(
        f"{len(report['uptime_pairs'])} uptime pairs, "
        f"{len(report['content_clusters'])} content clusters"
    )


@main.command()
@click.option("--filter-list", type=click.Path(exists=True, dir_okay=False), default=None,
              help="AdblockPlus-style filter list (supported subset).")
@click.option("--public-suffix-list", type=click.Path(exists=True, dir_okay=False),
              default=None, help="Replacement public-suffix snapshot.")
@click.option("--top-k", "top_k_trackers", type=int, default=None)
@click.pass_context
@pipeline_command
def trackers(ctx, filter_list, public_suffix_list, top_k_trackers):
    """Audit embedded third-party trackers across the snapshot cache."""
    config = _build_config(
        ctx,
        filter_list=filter_list,
        public_suffix_list=public_suffix_list,
        top_k_trackers=top_k_trackers,
    )
    report = pipeline.audit_trackers(config)
    click.echo(
        f"matched {len(report['distinct_trackers_fake'])} tracker domains "
        f"on the fake cohort"
    )


@main.command()
@click.option("--traffic", "traffic_data", type=click.Path(exists=True, dir_okay=False),
              default=None, help="Traffic profiles (CSV or JSON lines).")
@click.option("--sample-std", is_flag=True, default=None,
              help="Use the N-1 divisor for standard deviations.")
@click.pass_context
@pipeline_command
def stats(ctx, traffic_data, sample_std):
    """Descriptive engagement statistics for the fake and real cohorts."""
    config = _build_config(ctx, traffic_data=traffic_data, sample_std=sample_std)
    report = pipeline.traffic_stats(config)
    click.echo(
        f"summarized {report['rows_loaded']} profiles "
        f"({len(report['rows_rejected'])} rejected)"
    )


@main.command()
@click.option("--traffic", "traffic_data", type=click.Path(exists=True, dir_okay=False),
              default=None, help="Labeled traffic profiles (CSV or JSON lines).")
@click.option("--model", type=click.Choice(list(MODEL_KINDS)), default=None)
@click.option("--k", "folds", type=int, default=None, help="Cross-validation folds.")
@click.option("--split", default=None, metavar="TRAIN|TEST",
              help="Rank-split experiment, e.g. 'rank>10000|rank<=10000'.")
@click.option("--save-model", type=click.Path(dir_okay=False), default=None)
@click.option("--predict", type=click.Path(exists=True, dir_okay=False), default=None,
              help="Unlabeled profiles to score with the trained model.")
@click.pass_context
@pipeline_command
def classify(ctx, traffic_data, model, folds, split, save_model, predict):
    """Cross-validate fake/real classifiers on traffic features."""
    config = _build_config(ctx, traffic_data=traffic_data, model=model, folds=folds)
    report = pipeline.classify(config, split=split, save_model=save_model, predict=predict)
    cv = report["cross_validation"]
    click.echo(
        f"{report['model']}: weighted F1 {cv['f1']:.3f}, AUC {cv['auc']:.3f}"
        if cv["auc"] is not None
        else f"{report['model']}: weighted F1 {cv['f1']:.3f}"
    )


@main.command()
@click.pass_context
@pipeline_command
def report(ctx):
    """Merge module reports into summary.json plus plot-data CSVs."""
    config = _build_config(ctx)
    summary = pipeline.consolidated_report(config)
    click.echo(
        f"summary written with {len(summary['sections'])} sections: "
        + ", ".join(summary["section_names"])
    )


if __name__ == "__main__":
    main()
