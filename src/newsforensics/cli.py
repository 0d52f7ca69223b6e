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
from dataclasses import fields

import click

from . import pipeline
from .archive import FETCHED, ArchiveError
from .classify import MODEL_KINDS
from .files import recording
from .pipeline import PrerequisiteError, RunConfig

EXIT_VALIDATION = 2
EXIT_PREREQUISITE = 3
EXIT_NETWORK = 4

# a flag that sets two RunConfig fields at once -> those fields, in order
PAIRED_FIELDS = {
    "window": ("window_start", "window_end"),
    "quarters": ("quarter_start", "quarter_end"),
}
_SETTINGS = {f.name for f in fields(RunConfig)}.union(PAIRED_FIELDS)


def pipeline_command(name: str | None = None):
    """Register a pipeline stage on ``main``.

    Each flag whose destination is a RunConfig field, or a PAIRED_FIELDS
    key, becomes a setting; with the group's --config/--seed/--out they
    build the stage's RunConfig, which the stage receives with its other
    flags.  The text files the stage reads and writes make its run manifest.
    Pipeline exceptions map onto the documented exit codes.
    """

    def register(func):
        @functools.wraps(func)
        def run(**flags):
            ctx = click.get_current_context()
            settings = dict(ctx.obj or {})
            config_file = settings.pop("config", None)
            for key in _SETTINGS & flags.keys():
                value = flags.pop(key)
                if key in PAIRED_FIELDS:
                    settings.update(zip(PAIRED_FIELDS[key], value or (None, None)))
                else:
                    settings[key] = value
            try:
                config = RunConfig.from_sources(config_file, dict(os.environ), settings)
                with recording() as (inputs, outputs):
                    func(config, **flags)
                pipeline.write_run_manifest(config, ctx.command.name, inputs, outputs, flags)
            except (PrerequisiteError, ArchiveError, ValueError, OSError) as exc:
                click.echo(f"error: {exc}", err=True)
                sys.exit(EXIT_PREREQUISITE if isinstance(exc, PrerequisiteError)
                         else EXIT_NETWORK if isinstance(exc, ArchiveError)
                         else EXIT_VALIDATION)

        return main.command(name)(run)

    return register


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


@pipeline_command("ingest-lists")
@click.option("--fake", "fake_list", type=click.Path(exists=True, dir_okay=False),
              required=False, help="Text file of fake news domains, one per line.")
@click.option("--real", "real_list", type=click.Path(exists=True, dir_okay=False),
              required=False, help="Text file of real news domains, one per line.")
def ingest_lists(config):
    """Normalize and validate the fake/real site lists."""
    lists = pipeline.ingest_lists(config)
    for warning in lists.warnings:
        click.echo(f"warning: {warning}", err=True)
    click.echo(f"ingested {len(lists.fake)} fake and {len(lists.real)} real sites")


@pipeline_command()
@click.option("--window", nargs=2, metavar="FROM TO", default=None,
              help="Crawl window as two YYYY-MM months.")
@click.option("--rate-limit", type=float, default=None, help="Requests per second.")
@click.option("--workers", type=int, default=None, help="Concurrent snapshot fetches.")
@click.option("--per-month", type=int, default=None,
              help="Captures to keep per site-month (0 keeps all).")
@click.option("--cdx-base", default=None, help="CDX endpoint base URL.")
@click.option("--web-base", default=None, help="Snapshot endpoint base URL.")
def crawl(config):
    """Fetch the capture index and landing-page snapshots into the cache."""
    manifest = pipeline.crawl(config)
    fetched = sum(
        1 for entries in manifest.entries.values() for e in entries
        if e.fetch_status == FETCHED
    )
    click.echo(f"crawled {len(manifest.entries)} sites, {fetched} snapshots fetched")


@pipeline_command()
@click.option("--annotations", type=click.Path(exists=True, dir_okay=False), default=None,
              help="CSV of month-state annotations (domain,year,month,state).")
@click.option("--cohort", type=click.Choice(pipeline.COHORTS), default=None)
@click.option("--window", nargs=2, metavar="FROM TO", default=None)
def timeline(config):
    """Aggregate states per month, interpolate gaps, compute lifetimes."""
    report = pipeline.build_timeline_artifacts(config)
    medians = {
        metric: stats["median_months"]
        for metric, stats in report["lifetime"].items()
    }
    click.echo(f"built {report['sites']} timelines; medians (months): {medians}")


@pipeline_command()
@click.option("--quarters", nargs=2, metavar="FROM TO", default=None,
              help="Quarter window as two YYYY-Qn values.")
@click.option("--cosine-threshold", type=float, default=None)
@click.option("--uptime-max-distance", type=float, default=None)
@click.option("--distances-csv", type=click.Path(dir_okay=False), default=None,
              help="Also export the full pairwise distance matrix to this CSV.")
@click.option("--stopwords", type=click.Path(exists=True, dir_okay=False), default=None)
@click.option("--suffix-rules", type=click.Path(exists=True, dir_okay=False), default=None)
def sync(config, distances_csv):
    """Detect uptime- and content-synchronized site pairs and clusters."""
    report = pipeline.detect_sync(config, distances_csv=distances_csv)
    click.echo(
        f"{len(report['uptime_pairs'])} uptime pairs, "
        f"{len(report['content_clusters'])} content clusters"
    )


@pipeline_command()
@click.option("--filter-list", type=click.Path(exists=True, dir_okay=False), default=None,
              help="AdblockPlus-style filter list (supported subset).")
@click.option("--public-suffix-list", type=click.Path(exists=True, dir_okay=False),
              default=None, help="Replacement public-suffix snapshot.")
@click.option("--top-k", "top_k_trackers", type=int, default=None)
def trackers(config):
    """Audit embedded third-party trackers across the snapshot cache."""
    report = pipeline.audit_trackers(config)
    click.echo(
        f"matched {len(report['distinct_trackers_fake'])} tracker domains "
        f"on the fake cohort"
    )


@pipeline_command()
@click.option("--traffic", "traffic_data", type=click.Path(exists=True, dir_okay=False),
              default=None, help="Traffic profiles (CSV or JSON lines).")
@click.option("--sample-std/--no-sample-std", default=None,
              help="Divide standard deviations by N-1, or by N.")
def stats(config):
    """Descriptive engagement statistics for the fake and real cohorts."""
    report = pipeline.traffic_stats(config)
    click.echo(
        f"summarized {report['rows_loaded']} profiles "
        f"({len(report['rows_rejected'])} rejected)"
    )


@pipeline_command()
@click.option("--traffic", "traffic_data", type=click.Path(exists=True, dir_okay=False),
              default=None, help="Labeled traffic profiles (CSV or JSON lines).")
@click.option("--model", type=click.Choice(list(MODEL_KINDS)), default=None)
@click.option("--k", "folds", type=int, default=None, help="Cross-validation folds.")
@click.option("--split", default=None, metavar="TRAIN|TEST",
              help="Rank-split experiment, e.g. 'rank>10000|rank<=10000'.")
@click.option("--save-model", type=click.Path(dir_okay=False), default=None)
@click.option("--predict", type=click.Path(exists=True, dir_okay=False), default=None,
              help="Unlabeled profiles to score with the trained model.")
def classify(config, split, save_model, predict):
    """Cross-validate fake/real classifiers on traffic features."""
    report = pipeline.classify(config, split=split, save_model=save_model, predict=predict)
    cv = report["cross_validation"]
    click.echo(
        f"{report['model']}: weighted F1 {cv['f1']:.3f}, AUC {cv['auc']:.3f}"
        if cv["auc"] is not None
        else f"{report['model']}: weighted F1 {cv['f1']:.3f}"
    )


@pipeline_command()
def report(config):
    """Merge module reports into summary.json plus plot-data CSVs."""
    summary = pipeline.consolidated_report(config)
    click.echo(
        f"summary written with {len(summary['sections'])} sections: "
        + ", ".join(summary["section_names"])
    )


if __name__ == "__main__":
    main()
