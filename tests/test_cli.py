import json
from pathlib import Path

import pytest
from click.testing import CliRunner

from newsforensics.archive import CrawlManifest
from newsforensics.cli import main
from newsforensics.timeline import MonthStamp

from fixture_corpus import DEAD_SITE, FAKE_SITES, build_corpus, serve


@pytest.fixture(scope="module")
def corpus(tmp_path_factory):
    return build_corpus(tmp_path_factory.mktemp("corpus"))


def invoke(args, **kwargs):
    runner = CliRunner()
    return runner.invoke(main, args, catch_exceptions=False, **kwargs)


def run_full_pipeline(corpus, base_url, out_dir, seed=7):
    common = ["--seed", str(seed), "--out", str(out_dir)]
    steps = [
        common + ["ingest-lists", "--fake", str(corpus.fake_list),
                  "--real", str(corpus.real_list)],
        common + ["crawl", "--window", "2015-01", "2017-12", "--rate-limit", "0",
                  "--workers", "3", "--cdx-base", base_url, "--web-base", base_url],
        common + ["timeline", "--annotations", str(corpus.annotations),
                  "--window", "2015-01", "2017-12"],
        common + ["sync", "--quarters", "2015-Q1", "2017-Q4",
                  "--distances-csv", str(out_dir / "uptime_distances.csv")],
        common + ["trackers", "--filter-list", str(corpus.filter_list)],
        common + ["stats", "--traffic", str(corpus.traffic_csv)],
        common + ["classify", "--traffic", str(corpus.traffic_csv), "--k", "5",
                  "--save-model", str(out_dir / "model.json"),
                  "--predict", str(corpus.predict_csv)],
        common + ["report"],
    ]
    for args in steps:
        result = invoke(args)
        assert result.exit_code == 0, (args, result.output)


def tree_bytes(root: Path) -> dict[str, bytes]:
    return {
        str(p.relative_to(root)): p.read_bytes()
        for p in sorted(root.rglob("*"))
        if p.is_file()
    }


class TestIngestLists:
    def test_normalizes_and_writes(self, corpus, tmp_path):
        out = tmp_path / "out"
        result = invoke(
            ["--out", str(out), "ingest-lists", "--fake", str(corpus.fake_list),
             "--real", str(corpus.real_list)]
        )
        assert result.exit_code == 0
        sites = json.loads((out / "sites.json").read_text())
        assert "copy1.com" in sites["fake"]
        assert len(sites["real"]) == 4

    def test_overlap_names_offender(self, tmp_path):
        fake = tmp_path / "fake.txt"
        real = tmp_path / "real.txt"
        fake.write_text("shared.com\nonlyfake.com\n")
        real.write_text("SHARED.com\nonlyreal.com\n")
        result = invoke(
            ["--out", str(tmp_path / "o"), "ingest-lists", "--fake", str(fake),
             "--real", str(real)]
        )
        assert result.exit_code == 2
        assert "shared.com" in result.output

    def test_duplicates_warn_and_dedupe(self, tmp_path):
        fake = tmp_path / "fake.txt"
        real = tmp_path / "real.txt"
        fake.write_text("a-site.com\nwww.a-site.com/\n")
        real.write_text("b-site.com\n")
        result = invoke(
            ["--out", str(tmp_path / "o"), "ingest-lists", "--fake", str(fake),
             "--real", str(real)]
        )
        assert result.exit_code == 0
        assert "duplicate" in result.output
        sites = json.loads((tmp_path / "o" / "sites.json").read_text())
        assert sites["fake"] == ["a-site.com"]


class TestPrerequisites:
    def test_sync_before_timeline(self, tmp_path):
        result = invoke(["--out", str(tmp_path / "o"), "sync"])
        assert result.exit_code == 3
        assert "timeline" in result.output

    def test_crawl_before_ingest(self, tmp_path):
        result = invoke(["--out", str(tmp_path / "o"), "crawl"])
        assert result.exit_code == 3
        assert "ingest-lists" in result.output

    def test_report_without_artifacts(self, tmp_path):
        result = invoke(["--out", str(tmp_path / "o"), "report"])
        assert result.exit_code == 3

    def test_partial_run_reports_present_sections_only(self, corpus, tmp_path):
        out = tmp_path / "partial"
        assert invoke(
            ["--out", str(out), "stats", "--traffic", str(corpus.traffic_csv)]
        ).exit_code == 0
        assert invoke(["--out", str(out), "report"]).exit_code == 0
        summary = json.loads((out / "summary.json").read_text())
        assert summary["section_names"] == ["traffic"]

    def test_stats_without_traffic_path(self, tmp_path):
        result = invoke(["--out", str(tmp_path / "o"), "stats"])
        assert result.exit_code == 2


class TestTimelineWithoutCrawl:
    def timeline_sites(self, out):
        lines = (out / "timelines.jsonl").read_text().splitlines()
        return {json.loads(line)["site"]: json.loads(line)["states"] for line in lines}

    def test_annotations_alone_build_annotated_sites(self, corpus, tmp_path):
        out = tmp_path / "out"
        result = invoke(["--out", str(out), "timeline", "--annotations",
                         str(corpus.annotations), "--window", "2015-01", "2017-12"])
        assert result.exit_code == 0, result.output
        timelines = self.timeline_sites(out)
        assert set(timelines) == set(FAKE_SITES) - {DEAD_SITE}
        assert "A" in timelines["twin-a.com"]

    def test_cohort_sites_without_evidence_all_missing(self, corpus, tmp_path):
        out = tmp_path / "out"
        assert invoke(["--out", str(out), "ingest-lists", "--fake", str(corpus.fake_list),
                       "--real", str(corpus.real_list)]).exit_code == 0
        result = invoke(["--out", str(out), "timeline", "--annotations",
                         str(corpus.annotations), "--window", "2015-01", "2017-12"])
        assert result.exit_code == 0, result.output
        timelines = self.timeline_sites(out)
        assert set(timelines) == set(FAKE_SITES)
        assert timelines[DEAD_SITE] == "M" * 36

    def test_neither_crawl_nor_annotations_exits_3(self, tmp_path):
        result = invoke(["--out", str(tmp_path / "o"), "timeline"])
        assert result.exit_code == 3
        assert "crawl" in result.output


class TestTrackerWindow:
    def test_reversed_window_exits_2(self, corpus, tmp_path):
        out = tmp_path / "out"
        assert invoke(["--out", str(out), "ingest-lists", "--fake", str(corpus.fake_list),
                       "--real", str(corpus.real_list)]).exit_code == 0
        CrawlManifest(window=(MonthStamp(2015, 1), MonthStamp(2017, 12))).save(
            out / "crawl_manifest.json"
        )
        result = invoke(
            ["--out", str(out), "trackers", "--filter-list", str(corpus.filter_list)],
            env={"NEWSFORENSICS_WINDOW_START": "2017-12",
                 "NEWSFORENSICS_WINDOW_END": "2015-01"},
        )
        assert result.exit_code == 2
        assert "empty month window" in result.output
        assert not (out / "tracker_report.json").exists()


class TestNetworkFailure:
    def test_unreachable_archive_exits_4(self, corpus, tmp_path):
        out = tmp_path / "o"
        invoke(["--out", str(out), "ingest-lists", "--fake", str(corpus.fake_list),
                "--real", str(corpus.real_list)])
        env = {"NEWSFORENSICS_BACKOFF_BASE": "0"}
        result = invoke(
            ["--out", str(out), "crawl", "--rate-limit", "0",
             "--cdx-base", "http://127.0.0.1:9", "--web-base", "http://127.0.0.1:9"],
            env=env,
        )
        assert result.exit_code == 4


class TestConfigPrecedence:
    def test_flags_override_config_file(self, corpus, tmp_path):
        config_file = tmp_path / "config.json"
        config_file.write_text(json.dumps({"traffic_data": "/nonexistent.csv"}))
        out = tmp_path / "o"
        result = invoke(
            ["--config", str(config_file), "--out", str(out),
             "stats", "--traffic", str(corpus.traffic_csv)]
        )
        assert result.exit_code == 0

    def test_env_used_when_no_flag(self, corpus, tmp_path):
        out = tmp_path / "o"
        result = invoke(
            ["--out", str(out), "stats"],
            env={"NEWSFORENSICS_TRAFFIC_DATA": str(corpus.traffic_csv)},
        )
        assert result.exit_code == 0

    def test_unknown_config_key_rejected(self, tmp_path):
        config_file = tmp_path / "config.json"
        config_file.write_text(json.dumps({"tyop": 1}))
        result = invoke(["--config", str(config_file), "report"])
        assert result.exit_code == 2
        assert "tyop" in result.output


@pytest.fixture(scope="module")
def pipeline_out(corpus, tmp_path_factory):
    out = tmp_path_factory.mktemp("run") / "out"
    with serve(corpus) as (base_url, _):
        run_full_pipeline(corpus, base_url, out)
    return out


class TestFullPipeline:
    def test_all_reports_produced(self, pipeline_out):
        for name in [
            "sites.json", "crawl_manifest.json", "timelines.jsonl",
            "timelines_interpolated.jsonl", "lifetime_report.json",
            "sync_report.json", "tracker_report.json", "traffic_report.json",
            "classifier_report.json", "predictions.csv", "model.json", "summary.json",
            "uptime_distances.csv",
        ]:
            assert (pipeline_out / name).exists(), name

    def test_distance_matrix_square_and_symmetric(self, pipeline_out):
        rows = (pipeline_out / "uptime_distances.csv").read_text().splitlines()
        header = rows[0].split(",")
        body = [r.split(",") for r in rows[1:]]
        assert len(body) == len(header) - 1
        for i, row in enumerate(body):
            assert row[0] == header[i + 1]
            assert row[i + 1] == "0.000000"

    def test_summary_lists_seven_sections(self, pipeline_out):
        summary = json.loads((pipeline_out / "summary.json").read_text())
        assert len(summary["sections"]) == 7
        assert summary["section_names"] == [
            "classifier", "crawl", "sites", "sync", "timeline", "trackers", "traffic",
        ]

    def test_content_cluster_found(self, pipeline_out):
        sync_report = json.loads((pipeline_out / "sync_report.json").read_text())
        clusters = sync_report["content_clusters"]
        trio = next(
            c for c in clusters
            if set(c["sites"]) == {"copy1.com", "copy2.com", "copy3.com"}
        )
        assert len(trio["months"]) == 7

    def test_uptime_twins_found(self, pipeline_out):
        sync_report = json.loads((pipeline_out / "sync_report.json").read_text())
        pairs = {(p["site_a"], p["site_b"]) for p in sync_report["uptime_pairs"]}
        assert ("twin-a.com", "twin-b.com") in pairs

    def test_trackers_match_ground_truth(self, pipeline_out, corpus):
        report = json.loads((pipeline_out / "tracker_report.json").read_text())
        assert set(report["distinct_trackers_fake"]) == corpus.fake_tracker_truth
        coverage = report["coverage"]
        # doubleclick embeds only on real fixture pages
        assert coverage["doubleclick.net"]["fake"] == 0.0
        assert coverage["doubleclick.net"]["real"] == 1.0

    def test_dead_site_visible_in_timeline(self, pipeline_out):
        lines = (pipeline_out / "timelines.jsonl").read_text().splitlines()
        dead = next(json.loads(l) for l in lines if json.loads(l)["site"] == "deadsite.com")
        assert "D" in dead["states"]
        assert "A" not in dead["states"]

    def test_predictions_cover_input(self, pipeline_out):
        rows = (pipeline_out / "predictions.csv").read_text().splitlines()
        assert rows[0] == "domain,predicted_label,score"
        assert len(rows) == 1 + 6

    def test_partial_rerun_of_report_is_stable(self, pipeline_out, corpus):
        before = (pipeline_out / "summary.json").read_bytes()
        result = invoke(["--seed", "7", "--out", str(pipeline_out), "report"])
        assert result.exit_code == 0
        assert (pipeline_out / "summary.json").read_bytes() == before


class TestEndToEndDeterminism:
    def test_two_runs_byte_identical(self, corpus, tmp_path):
        inputs_before = tree_bytes(corpus.root)
        outs = []
        with serve(corpus) as (base_url, _):
            for name in ("run_a", "run_b"):
                out = tmp_path / name
                run_full_pipeline(corpus, base_url, out, seed=11)
                outs.append(tree_bytes(out))
        assert outs[0].keys() == outs[1].keys()
        for rel in outs[0]:
            assert outs[0][rel] == outs[1][rel], f"artifact differs: {rel}"
        assert tree_bytes(corpus.root) == inputs_before, "input files were mutated"

    def test_warm_cache_rerun_skips_snapshots(self, corpus, tmp_path):
        out = tmp_path / "warm"
        with serve(corpus) as (base_url, request_log):
            run_full_pipeline(corpus, base_url, out)
            snapshots_before = sum(1 for p in request_log if p.startswith("/web/"))
            result = invoke(
                ["--seed", "7", "--out", str(out), "crawl",
                 "--window", "2015-01", "2017-12", "--rate-limit", "0",
                 "--workers", "3", "--cdx-base", base_url, "--web-base", base_url]
            )
            assert result.exit_code == 0
            snapshots_after = sum(1 for p in request_log if p.startswith("/web/"))
        assert snapshots_after == snapshots_before
