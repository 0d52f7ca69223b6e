import inspect
import json
import math
import os
import shutil
import subprocess
import sys
from dataclasses import fields
from pathlib import Path

import pytest
from click.testing import CliRunner

import newsforensics
from newsforensics import pipeline
from newsforensics.archive import CrawlManifest
from newsforensics.classify import MODEL_KINDS
from newsforensics.cli import PAIRED_FIELDS, classify, main
from newsforensics.pipeline import RunConfig
from newsforensics.timeline import MonthStamp
from newsforensics.traffic import REQUIRED_COLUMNS

from fixture_corpus import DEAD_SITE, FAKE_SITES, REAL_SITES, build_corpus, serve

DATA = Path(__file__).parent / "data"


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


def test_cli_runs_without_requests_installed():
    src = str(Path(newsforensics.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p)}
    code = ("import sys; sys.modules['requests'] = None; "
            "from newsforensics import cli; cli.main(['crawl', '--help'])")
    result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                            env=env, timeout=60)
    assert result.returncode == 0, result.stderr
    assert "--rate-limit" in result.stdout


class TestPredictRejectedRows:
    def test_malformed_row_warns_on_stderr_and_rest_are_scored(self, corpus, tmp_path):
        header, *rows = corpus.predict_csv.read_text().splitlines()
        cells = rows[0].split(",")
        cells[header.split(",").index("bounce_rate")] = "140"
        predict = tmp_path / "predict.csv"
        predict.write_text("\n".join([header, ",".join(cells)] + rows[1:]) + "\n")
        out = tmp_path / "out"
        src = str(Path(newsforensics.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            p for p in (src, os.environ.get("PYTHONPATH")) if p)}
        result = subprocess.run(
            [sys.executable, "-m", "newsforensics.cli", "--out", str(out), "classify",
             "--traffic", str(corpus.traffic_csv), "--model", "naive_bayes", "--k", "2",
             "--predict", str(predict)],
            capture_output=True, text=True, env=env, timeout=120,
        )
        assert result.returncode == 0, result.stderr
        warning = f"{predict}:2: row for {cells[0]} not scored: bounce_rate out of [0, 100]: 140.0"
        assert [line for line in result.stderr.splitlines() if "not scored" in line] == [
            f"WARNING newsforensics.pipeline: {warning}"
        ]
        scored = (out / "predictions.csv").read_text().splitlines()[1:]
        assert [row.split(",")[0] for row in scored] == [row.split(",")[0] for row in rows[1:]]
        assert not any(
            b"not scored" in path.read_bytes() for path in out.rglob("*") if path.is_file()
        )


def test_failed_stage_leaves_the_previous_run_in_place(corpus, tmp_path):
    out = tmp_path / "out"
    common = ["--out", str(out), "classify", "--traffic", str(corpus.traffic_csv), "--k", "2",
              "--save-model", str(out / "model.json")]
    assert invoke(common + ["--model", "naive_bayes"]).exit_code == 0
    before = tree_bytes(out)
    bad = tmp_path / "predict.csv"
    header = corpus.predict_csv.read_bytes().splitlines()[0]
    bad.write_bytes(header + b"\ntr\xe9.com,40\n")  # every column, so it fails in decoding
    result = invoke(common + ["--model", "logistic_regression", "--predict", str(bad)])
    assert result.exit_code == 2, result.output
    assert f"error: {bad}:2: 'utf-8' codec can't decode byte 0xe9" in result.output
    assert tree_bytes(out) == before  # no new model.json, and no .tmp file


def test_model_choices_are_the_registered_kinds():
    [option] = [p for p in classify.params if p.name == "model"]
    assert list(option.type.choices) == list(MODEL_KINDS)


def help_pages() -> str:
    """The --help of newsforensics and of each command, at 80 columns, each
    under the command line that prints it."""
    pages = []
    for args in [[], *([name] for name in sorted(main.commands))]:
        args.append("--help")
        result = CliRunner().invoke(main, args, prog_name="newsforensics", terminal_width=80)
        assert result.exit_code == 0, result.output
        pages.append(f"$ newsforensics {' '.join(args)}\n{result.output}")
    return "".join(pages)


def test_help_text_is_pinned():
    # every flag, metavar, choice and help line, as recorded in cli_help.txt
    assert help_pages() == (DATA / "cli_help.txt").read_text(encoding="utf-8")


# command -> the pipeline function it hands its RunConfig to
STAGES = {
    "ingest-lists": "ingest_lists", "crawl": "crawl", "timeline": "build_timeline_artifacts",
    "sync": "detect_sync", "trackers": "audit_trackers", "stats": "traffic_stats",
    "classify": "classify", "report": "consolidated_report",
}

# (arguments, {field: (environment value, value the flag sets)}); "flag-file"
# is an existing file in the working directory
FLAG_ROUTES = [
    (["--seed", "5", "report"], {"seed": ("9", 5)}),
    (["--out", "flag-out", "report"], {"out_dir": ("env-out", "flag-out")}),
    (["ingest-lists", "--fake", "flag-file"], {"fake_list": ("env-file", "flag-file")}),
    (["ingest-lists", "--real", "flag-file"], {"real_list": ("env-file", "flag-file")}),
    (["crawl", "--window", "2016-02", "2018-03"],
     {"window_start": ("2001-01", "2016-02"), "window_end": ("2002-01", "2018-03")}),
    (["crawl", "--rate-limit", "0.25"], {"rate_limit": ("2", 0.25)}),
    (["crawl", "--workers", "3"], {"workers": ("7", 3)}),
    (["crawl", "--per-month", "0"], {"per_month": ("2", 0)}),
    (["crawl", "--cdx-base", "http://flag.invalid"],
     {"cdx_base": ("http://env.invalid", "http://flag.invalid")}),
    (["crawl", "--web-base", "http://flag.invalid"],
     {"web_base": ("http://env.invalid", "http://flag.invalid")}),
    (["timeline", "--annotations", "flag-file"], {"annotations": ("env-file", "flag-file")}),
    (["timeline", "--cohort", "real"], {"cohort": ("all", "real")}),
    (["timeline", "--window", "2016-02", "2018-03"],
     {"window_start": ("2001-01", "2016-02"), "window_end": ("2002-01", "2018-03")}),
    (["sync", "--quarters", "2016-Q2", "2018-Q3"],
     {"quarter_start": ("2001-Q1", "2016-Q2"), "quarter_end": ("2002-Q1", "2018-Q3")}),
    (["sync", "--cosine-threshold", "0.75"], {"cosine_threshold": ("0.9", 0.75)}),
    (["sync", "--uptime-max-distance", "1.5"], {"uptime_max_distance": ("0.5", 1.5)}),
    (["sync", "--stopwords", "flag-file"], {"stopwords": ("env-file", "flag-file")}),
    (["sync", "--suffix-rules", "flag-file"], {"suffix_rules": ("env-file", "flag-file")}),
    (["trackers", "--filter-list", "flag-file"], {"filter_list": ("env-file", "flag-file")}),
    (["trackers", "--public-suffix-list", "flag-file"],
     {"public_suffix_list": ("env-file", "flag-file")}),
    (["trackers", "--top-k", "3"], {"top_k_trackers": ("5", 3)}),
    (["stats", "--traffic", "flag-file"], {"traffic_data": ("env-file", "flag-file")}),
    (["stats", "--sample-std"], {"sample_std": ("false", True)}),
    (["classify", "--traffic", "flag-file"], {"traffic_data": ("env-file", "flag-file")}),
    (["classify", "--model", "mlp"], {"model": ("naive_bayes", "mlp")}),
    (["classify", "--k", "3"], {"folds": ("5", 3)}),
]


class Captured(Exception):
    def __init__(self, config: RunConfig):
        self.config = config


@pytest.mark.parametrize("args,routes", FLAG_ROUTES, ids=[" ".join(a) for a, _ in FLAG_ROUTES])
def test_flag_overrides_environment(args, routes, tmp_path, monkeypatch):
    def capture(config, **_):
        raise Captured(config)

    [command] = [arg for arg in args if arg in STAGES]
    monkeypatch.setattr(pipeline, STAGES[command], capture)
    monkeypatch.chdir(tmp_path)
    (tmp_path / "flag-file").touch()
    env = {f"NEWSFORENSICS_{field.upper()}": text for field, (text, _) in routes.items()}

    def settings(argv):
        with pytest.raises(Captured) as caught:
            invoke(argv, env=env)
        return {field: getattr(caught.value.config, field) for field in routes}

    assert settings(args) == {field: value for field, (_, value) in routes.items()}
    # without the flag, the environment's value stands
    from_env = RunConfig.from_sources(None, env, {})
    assert settings([command]) == {field: getattr(from_env, field) for field in routes}


def test_every_flag_names_its_destination():
    """Each option of a command is a RunConfig field, a PAIRED_FIELDS key or
    a parameter of the command's function, and each that is a setting has a
    row in FLAG_ROUTES."""
    settings = {f.name for f in fields(RunConfig)}
    routed = set()
    for name, command in main.commands.items():
        own = inspect.signature(command.callback).parameters
        for param in command.params:
            if param.name in settings or param.name in PAIRED_FIELDS:
                routed.add((name, param.opts[0]))
            else:
                assert param.name in own, (name, param.name)
    assert routed == {(args[0], args[1]) for args, _ in FLAG_ROUTES if args[0] in STAGES}


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


class TestSmallCohortDistances:
    @pytest.mark.parametrize(
        "fake_sites, expected",
        [(["a.com"], "site,a.com\na.com,0.000000\n"), ([], "site\n")],
        ids=["one-site", "no-site"],
    )
    def test_distances_csv(self, tmp_path, fake_sites, expected):
        out = tmp_path / "out"
        fake, real, annotations = (tmp_path / n for n in ("fake.txt", "real.txt", "ann.csv"))
        fake.write_text("".join(f"{site}\n" for site in fake_sites))
        real.write_text("real.com\n")
        annotations.write_text("domain,year,month,state\na.com,2015,2,alive\n")
        assert invoke(["--out", str(out), "ingest-lists", "--fake", str(fake),
                       "--real", str(real)]).exit_code == 0
        CrawlManifest(window=(MonthStamp(2015, 1), MonthStamp(2015, 12))).save(
            out / "crawl_manifest.json"
        )
        assert invoke(["--out", str(out), "timeline", "--annotations", str(annotations),
                       "--window", "2015-01", "2015-12"]).exit_code == 0
        csv_path = tmp_path / "distances.csv"
        result = invoke(["--out", str(out), "sync", "--quarters", "2015-Q1", "2015-Q4",
                         "--distances-csv", str(csv_path)])
        assert result.exit_code == 0, result.output
        assert csv_path.read_text() == expected


class TestMalformedInputs:
    def test_stats_rejects_bad_json_lines_per_row(self, corpus, tmp_path):
        header, *rows = corpus.traffic_csv.read_text().splitlines()
        columns = header.split(",")
        records = [json.dumps(dict(zip(columns, row.split(",")))) for row in rows]
        traffic = tmp_path / "traffic.jsonl"
        traffic.write_text("\n".join(records[:3] + ["{not json", "[1, 2]"] + records[3:]) + "\n")
        out = tmp_path / "out"
        result = invoke(["--out", str(out), "stats", "--traffic", str(traffic)])
        assert result.exit_code == 0, result.output
        report = json.loads((out / "traffic_report.json").read_text())
        assert report["rows_loaded"] == len(rows)
        assert [(e["line"], e["site"]) for e in report["rows_rejected"]] == [(4, "?"), (5, "?")]

    def test_stats_rejects_non_finite_and_negative_values_per_row(self, corpus, tmp_path):
        header, *rows = corpus.traffic_csv.read_text().splitlines()
        columns = header.split(",")
        bad = [("total_visits", "inf"), ("pages_per_visit", "nan"),
               ("visit_duration_s", "-2"), ("pages_per_visit", "Infinity")]
        for k, (column, value) in enumerate(bad):
            cells = rows[k].split(",")
            cells[columns.index(column)] = value
            rows[k] = ",".join(cells)
        traffic = tmp_path / "traffic.csv"
        traffic.write_text("\n".join([header] + rows) + "\n")
        out = tmp_path / "out"
        result = invoke(["--out", str(out), "stats", "--traffic", str(traffic)])
        assert result.exit_code == 0, result.output

        def no_constants(token):
            raise AssertionError(f"{token} in traffic_report.json")

        text = (out / "traffic_report.json").read_text()
        report = json.loads(text, parse_constant=no_constants)
        assert report["rows_loaded"] == len(rows) - len(bad)
        assert [e["line"] for e in report["rows_rejected"]] == [2, 3, 4, 5]

    def test_timeline_short_annotation_row_exits_2(self, tmp_path):
        annotations = tmp_path / "ann.csv"
        annotations.write_text("domain,year,month,state\na.com,2015,2,alive\nb.com,2015\n")
        result = invoke(["--out", str(tmp_path / "o"), "timeline", "--annotations",
                         str(annotations)])
        assert result.exit_code == 2
        assert f"error: {annotations}:3: row too short, no month, state" in result.output

    def test_ingest_names_file_and_line_of_invalid_domain(self, tmp_path):
        fake, real = tmp_path / "fake.txt", tmp_path / "real.txt"
        fake.write_text("good.com\nnot a domain\n")
        real.write_text("real.com\n")
        result = invoke(["--out", str(tmp_path / "o"), "ingest-lists", "--fake", str(fake),
                         "--real", str(real)])
        assert result.exit_code == 2
        assert f"error: {fake}:2: not a valid site domain" in result.output

    def test_trackers_rejects_inner_wildcard_in_suffix_list(self, corpus, tmp_path):
        out = tmp_path / "out"
        assert invoke(["--out", str(out), "ingest-lists", "--fake", str(corpus.fake_list),
                       "--real", str(corpus.real_list)]).exit_code == 0
        psl = tmp_path / "psl.dat"
        psl.write_text("// test\ncom\nx.*.d\n")
        result = invoke(["--out", str(out), "trackers", "--filter-list",
                         str(corpus.filter_list), "--public-suffix-list", str(psl)])
        assert result.exit_code == 2
        assert f"error: {psl}:3: wildcard not in the leftmost label of 'x.*.d'" in result.output
        assert not (out / "tracker_report.json").exists()

    def test_sync_names_file_and_line_of_bad_suffix_rule(self, tmp_path):
        out = tmp_path / "out"
        fake, real, annotations = (tmp_path / n for n in ("fake.txt", "real.txt", "ann.csv"))
        fake.write_text("a.com\nb.com\n")
        real.write_text("real.com\n")
        annotations.write_text("domain,year,month,state\na.com,2015,2,alive\n")
        assert invoke(["--out", str(out), "ingest-lists", "--fake", str(fake),
                       "--real", str(real)]).exit_code == 0
        CrawlManifest(window=(MonthStamp(2015, 1), MonthStamp(2015, 12))).save(
            out / "crawl_manifest.json"
        )
        assert invoke(["--out", str(out), "timeline", "--annotations", str(annotations),
                       "--window", "2015-01", "2015-12"]).exit_code == 0
        rules = tmp_path / "rules.txt"
        rules.write_text("# rules\n^(a$ \\1\n")
        result = invoke(["--out", str(out), "sync", "--quarters", "2015-Q1", "2015-Q4",
                         "--suffix-rules", str(rules)])
        assert result.exit_code == 2
        assert f"error: {rules}:2: bad suffix rule: " in result.output


class TestUndecodableInputs:
    """An input file that is not UTF-8 stops the command with exit code 2,
    naming the file and the line of the bad byte."""

    @pytest.mark.parametrize(
        "name, content, line, args",
        [
            ("filters.txt", b"||tr\xe9cker.com^\n", 1, ["trackers", "--filter-list", "{bad}"]),
            ("traffic.csv", ",".join(REQUIRED_COLUMNS).encode() + b"\ntr\xe9.com,fake\n", 2,
             ["stats", "--traffic", "{bad}"]),
            ("traffic.jsonl", b'{"domain": "tr\xe9.com"}\n', 1, ["stats", "--traffic", "{bad}"]),
            ("ann.csv", b"domain,year,month,state\ntr\xe9.com,2015,1,alive\n", 2,
             ["timeline", "--annotations", "{bad}"]),
            ("psl.dat", b"com\ntr\xe9\n", 2,
             ["trackers", "--filter-list", "{filters}", "--public-suffix-list", "{bad}"]),
            ("rules.txt", b"x\xe9 y\n", 1,
             ["sync", "--quarters", "2015-Q1", "2015-Q4", "--suffix-rules", "{bad}"]),
            ("fake.txt", b"a.com\ntr\xe9.com\n", 2,
             ["ingest-lists", "--fake", "{bad}", "--real", "{real}"]),
        ],
        ids=["filter-list", "traffic-csv", "traffic-jsonl", "annotations", "suffix-list",
             "suffix-rules", "site-list"],
    )
    def test_names_the_file(self, corpus, tmp_path, name, content, line, args):
        out = tmp_path / "out"
        write_sync_inputs(out, ['{"site": "a.com", "start": "2015-01", "states": "AAA"}'])
        bad = tmp_path / name
        bad.write_bytes(content)
        args = [a.format(bad=bad, filters=corpus.filter_list, real=corpus.real_list)
                for a in args]
        result = invoke(["--out", str(out)] + args)
        assert result.exit_code == 2, result.output
        assert f"error: {bad}:{line}: 'utf-8' codec can't decode byte 0xe9" in result.output


def traffic_json_lines(path: Path, csv_path: Path) -> Path:
    """The profiles of a traffic CSV as JSON lines, one object per row."""
    header, *rows = csv_path.read_text().splitlines()
    path.write_text("".join(json.dumps(dict(zip(header.split(","), row.split(",")))) + "\n"
                            for row in rows))
    return path


def stats_config(path: Path, traffic: Path) -> Path:
    path.write_text(json.dumps({"traffic_data": str(traffic), "sample_std": True}))
    return path


class TestByteOrderMark:
    """An input saved with a leading UTF-8 byte-order mark, as spreadsheet
    programs save "CSV UTF-8", gives what the same file without one gives."""

    INPUTS = {  # input -> (the file, given the corpus and a directory; args; artifacts)
        "site-list": (lambda corpus, d: corpus.fake_list,
                      ["ingest-lists", "--fake", "{path}", "--real", "{real}"], ["sites.json"]),
        "annotations": (lambda corpus, d: corpus.annotations,
                        ["timeline", "--annotations", "{path}", "--window", "2015-01", "2017-12"],
                        ["timelines.jsonl", "lifetime_report.json"]),
        "traffic-csv": (lambda corpus, d: corpus.traffic_csv,
                        ["stats", "--traffic", "{path}"], ["traffic_report.json"]),
        "traffic-jsonl": (lambda corpus, d: traffic_json_lines(d / "t.jsonl", corpus.traffic_csv),
                          ["stats", "--traffic", "{path}"], ["traffic_report.json"]),
        "config": (lambda corpus, d: stats_config(d / "c.json", corpus.traffic_csv),
                   ["--config", "{path}", "stats"], ["traffic_report.json"]),
    }

    @pytest.mark.parametrize("kind", list(INPUTS))
    def test_gives_the_result_of_the_file_without_it(self, corpus, tmp_path, kind):
        source, args, artifacts = self.INPUTS[kind]
        given = source(corpus, tmp_path)
        data = given.read_bytes()
        results = []
        for name, content in (("plain", data), ("bom", "\ufeff".encode() + data)):
            path = tmp_path / name / given.name
            path.parent.mkdir()
            path.write_bytes(content)
            out = tmp_path / name / "out"
            result = invoke(["--out", str(out)] + [
                a.format(path=path, real=corpus.real_list) for a in args])
            assert result.exit_code == 0, result.output
            results.append((result.output, [(out / a).read_bytes() for a in artifacts]))
        assert results[0] == results[1]


def write_sync_inputs(out: Path, rows: list[str]) -> Path:
    """A timelines_interpolated.jsonl of raw lines plus an empty crawl manifest."""
    out.mkdir(parents=True, exist_ok=True)
    CrawlManifest(window=(MonthStamp(2015, 1), MonthStamp(2015, 12))).save(
        out / "crawl_manifest.json"
    )
    path = out / "timelines_interpolated.jsonl"
    path.write_bytes("".join(row + "\n" for row in rows).encode("utf-8", "surrogateescape"))
    return path


class TestTimelineFileDiagnostics:
    @pytest.mark.parametrize(
        "row, reason",
        [
            ('{"site": "b.com", "start": "2015-01"', "Expecting ',' delimiter"),
            ('["b.com", "2015-01", "A"]', "expected a JSON object, got list"),
            ('{"start": "2015-01", "states": "A"}', "missing or non-string site"),
            ('{"site": "b.com", "states": "A"}', "missing or non-string start"),
            ('{"site": "b.com", "start": "2015-01"}', "missing or non-string states"),
            ('{"site": "b.com", "start": "2015-01", "states": ["A"]}',
             "missing or non-string states"),
            ('{"site": "b.com", "start": "2015-13", "states": "A"}',
             "month out of range: 13"),
            ('{"site": "b.com", "start": "2015/01", "states": "A"}',
             "expected YYYY-MM, got '2015/01'"),
            ('{"site": "b.com", "start": "2015-01", "states": "AXA"}',
             "unknown state codes ['X'] for b.com"),
            ('{"site": "b.com", "start": "2015-01", "states": ""}',
             "timeline of b.com must cover at least one month"),
            ('{"site": "a.com", "start": "2015-04", "states": "A"}', "duplicate site 'a.com'"),
            ('{"site": "b\udce9.com", "start": "2015-01", "states": "A"}',
             "'utf-8' codec can't decode byte 0xe9"),
        ],
        ids=["json", "not-object", "no-site", "no-start", "no-states", "list-states",
             "start-range", "start-format", "unknown-code", "empty-states", "duplicate",
             "not-utf8"],
    )
    def test_sync_names_file_and_line(self, tmp_path, row, reason):
        out = tmp_path / "out"
        path = write_sync_inputs(
            out, ['{"site": "a.com", "start": "2015-01", "states": "AAA"}', "", row]
        )
        result = invoke(["--out", str(out), "sync", "--quarters", "2015-Q1", "2015-Q4"])
        assert result.exit_code == 2, result.output
        assert f"error: {path}:3: {reason}" in result.output
        assert not (out / "sync_report.json").exists()


class TestMalformedReadBackArtifacts:
    ROW = {"timestamp": "20150101000000", "original_url": "http://a.com/",
           "status_code": 200, "fetch_status": "fetched"}

    def write_manifest(self, out: Path, rows) -> Path:
        out.mkdir(parents=True, exist_ok=True)
        path = out / "crawl_manifest.json"
        path.write_text(json.dumps({"window": ["2015-01", "2015-12"], "sites": {"a.com": rows}}))
        return path

    @pytest.mark.parametrize(
        "row, reason",
        [
            ({k: v for k, v in ROW.items() if k != "fetch_status"},
             "manifest row of a.com lacks fetch_status: {"),
            ("x", "manifest row of a.com is not an object: 'x'"),
            (ROW | {"timestamp": 20150101000000},
             "manifest row of a.com has a bad timestamp: {"),
            (ROW | {"status_code": "200"}, "manifest row of a.com has a bad status_code: {"),
            (ROW | {"fetch_status": "bogus"},
             "manifest row of a.com has a bad fetch_status: {"),
            (ROW | {"auto_state": "DEAD"}, "manifest row of a.com has a bad auto_state: {"),
            (ROW | {"retries": "many"}, "manifest row of a.com has a bad retries: {"),
            (ROW | {"retries": -1}, "manifest row of a.com has a bad retries: {"),
            (ROW | {"retries": True}, "manifest row of a.com has a bad retries: {"),
            (ROW | {"mime_type": 7}, "manifest row of a.com has a bad mime_type: {"),
        ],
        ids=["no-fetch-status", "string-row", "number-timestamp", "string-status-code",
             "unknown-fetch-status", "upper-case-auto-state", "string-retries",
             "negative-retries", "bool-retries", "number-mime-type"],
    )
    def test_timeline_names_manifest_and_row(self, tmp_path, row, reason):
        out = tmp_path / "out"
        path = self.write_manifest(out, [self.ROW | {"timestamp": "20150201000000"}, row])
        result = invoke(["--out", str(out), "timeline"])
        assert result.exit_code == 2, result.output
        assert f"error: {path}: {reason}" in result.output

    @pytest.mark.parametrize("command", ["timeline", "report"])
    def test_sites_json_without_real_list_exits_2(self, tmp_path, command):
        out = tmp_path / "out"
        self.write_manifest(out, [self.ROW])
        sites = out / "sites.json"
        sites.write_text(json.dumps({"fake": ["a.com"]}))
        result = invoke(["--out", str(out), command])
        assert result.exit_code == 2, result.output
        assert f"error: {sites}: missing key 'real'" in result.output

    @pytest.mark.parametrize(
        "sites_json, reason",
        [({"fake": 3, "real": []}, "'fake' is not a list"),
         ({"fake": ["a.com"], "real": "b.com"}, "'real' is not a list"),
         ({"fake": ["a.com"], "real": [1]}, "'real' is not a list of strings")],
        ids=["int", "string", "list-of-int"],
    )
    @pytest.mark.parametrize("command", ["timeline", "report"])
    def test_sites_json_with_a_cohort_that_is_not_a_list_of_sites_exits_2(
        self, tmp_path, command, sites_json, reason
    ):
        out = tmp_path / "out"
        self.write_manifest(out, [self.ROW])
        sites = out / "sites.json"
        sites.write_text(json.dumps(sites_json))
        result = invoke(["--out", str(out), command])
        assert result.exit_code == 2, result.output
        assert f"error: {sites}: {reason}" in result.output

    @pytest.mark.parametrize("command", ["timeline", "report"])
    def test_sites_json_that_is_not_json_exits_2(self, tmp_path, command):
        out = tmp_path / "out"
        self.write_manifest(out, [self.ROW])
        sites = out / "sites.json"
        sites.write_text("not json")
        result = invoke(["--out", str(out), command])
        assert result.exit_code == 2, result.output
        assert f"error: {sites}: Expecting value: line 1 column 1" in result.output

    @pytest.mark.parametrize(
        "manifest, reason",
        [
            ([], "crawl manifest is not an object: list"),
            ({"window": ["2015-01", "2015-12"], "sites": []},
             'manifest "sites" is not an object of lists: []'),
            ({"sites": {"a.com": {"timestamp": "20150101000000"}}},
             'manifest "sites" is not an object of lists: {'),
            ({"window": ["2015-01"], "sites": {}},
             "manifest \"window\" is not a pair of months: ['2015-01']"),
            ({"window": [2015, 2016], "sites": {}},
             'manifest "window" is not a pair of months: [2015, 2016]'),
            ({"cdx_failures": "a.com", "sites": {}},
             "manifest \"cdx_failures\" is not a list of sites: 'a.com'"),
            ({"cdx_failures": [1, None], "sites": {}},
             'manifest "cdx_failures" is not a list of sites: [1, None]'),
        ],
        ids=["list", "sites-list", "rows-object", "window-single", "window-ints",
             "cdx-failures-string", "cdx-failures-non-strings"],
    )
    @pytest.mark.parametrize("command", ["timeline", "report"])
    def test_misshapen_manifest_exits_2(self, tmp_path, command, manifest, reason):
        out = tmp_path / "out"
        path = self.write_manifest(out, [self.ROW])
        (out / "sites.json").write_text(json.dumps({"fake": ["a.com"], "real": []}))
        path.write_text(json.dumps(manifest))
        result = invoke(["--out", str(out), command])
        assert result.exit_code == 2, result.output
        assert f"error: {path}: {reason}" in result.output

    def test_report_names_sites_json_before_a_bad_manifest(self, tmp_path):
        out = tmp_path / "out"
        self.write_manifest(out, ["x"])
        sites = out / "sites.json"
        sites.write_text(json.dumps({"fake": ["a.com"]}))
        result = invoke(["--out", str(out), "report"])
        assert result.exit_code == 2, result.output
        assert result.output == f"error: {sites}: missing key 'real'\n"

    @pytest.mark.parametrize(
        "name, content, reason",
        [
            ("lifetime_report.json", "{}", "missing key 'sites'"),
            ("lifetime_report.json", '{"sites": 2, "lifetime": {"x": 1}, "histogram": {}}',
             "'int' object is not subscriptable"),
            ("sync_report.json", "{}", "missing key 'uptime_pairs'"),
            ("sync_report.json",
             '{"uptime_pairs": 3, "content_matches": [], "content_clusters": []}',
             "'uptime_pairs' is not a list"),
            ("tracker_report.json", "{}", "missing key 'distinct_trackers_fake'"),
            ("tracker_report.json", "[]", "not an object: list"),
            ("traffic_report.json", "{}", "missing key 'rows_loaded'"),
            ("traffic_report.json", "not json", "Expecting value: line 1 column 1"),
            ("classifier_report.json", "{}", "missing key 'model'"),
            ("classifier_report.json", '{"model": "rf", "cross_validation": {}}',
             "missing key 'f1'"),
            ("lifetime_report.json", '{"sites": 1, "lifetime": {}, "histogram": {"raw": {}}}',
             "missing key 'p2'"),
            ("tracker_report.json",
             '{"distinct_trackers_fake": [], "coverage": {},'
             ' "prevalence": [{"tracker": "t.com", "site_counts": [1]}]}',
             "missing key 'months'"),
            ("traffic_report.json",
             '{"rows_loaded": 1, "rows_rejected": [], "ratio_ecdfs": {},'
             ' "ecdfs": {"bounce_rate": [[0.5, 1.0]]}}',
             "list indices must be integers or slices, not list"),
        ],
        ids=["lifetime-empty", "lifetime-nested", "sync-empty", "sync-type", "tracker-empty",
             "tracker-list", "traffic-empty", "traffic-not-json", "classifier-empty",
             "classifier-nested", "lifetime-no-p2", "tracker-no-months", "traffic-ecdf-list"],
    )
    def test_bad_stage_report_exits_2(self, tmp_path, name, content, reason):
        out = tmp_path / "out"
        out.mkdir()
        path = out / name
        path.write_text(content)
        result = invoke(["--out", str(out), "report"])
        assert result.exit_code == 2, result.output
        assert f"error: {path}: {reason}" in result.output


class TestTimelinesStartingInDifferentMonths:
    """Rows need not share a start month: each is aligned to the quarter window."""

    def sync(self, out: Path, rows: dict[str, tuple[str, str]]):
        write_sync_inputs(out, [
            json.dumps({"site": site, "start": start, "states": states})
            for site, (start, states) in rows.items()
        ])
        csv_path = out / "distances.csv"
        result = invoke(["--out", str(out), "sync", "--quarters", "2015-Q1", "2015-Q4",
                         "--uptime-max-distance", "2.5", "--distances-csv", str(csv_path)])
        assert result.exit_code == 0, result.output
        report = json.loads((out / "sync_report.json").read_text())
        return report["uptime_pairs"], csv_path.read_text()

    def test_same_pairs_and_distances_as_shared_window(self, tmp_path):
        ragged = {
            # 2014-10..2015-06: starts before the window and ends inside it
            "a.com": ("2014-10", "AAAAAZAAA"),
            "b.com": ("2015-01", "AAZAMAMMMDAA"),
            # 2015-05..2016-03: starts inside the window and ends after it
            "c.com": ("2015-05", "AZAAAAAADAA"),
        }
        shared = {
            "a.com": ("2014-10", "AAAAAZAAA" + "M" * 9),
            "b.com": ("2014-10", "MMM" + "AAZAMAMMMDAA" + "MMM"),
            "c.com": ("2014-10", "M" * 7 + "AZAAAAAADAA"),
        }
        pairs, csv_text = self.sync(tmp_path / "ragged", ragged)
        assert (pairs, csv_text) == self.sync(tmp_path / "shared", shared)
        # quarters 2015-Q1..Q4: a (2, 3, 0, 0), b (2, 2, 0, 2), c (0, 1, 3, 3)
        assert pairs == [{"site_a": "a.com", "site_b": "b.com", "distance": math.sqrt(5)}]
        assert csv_text.splitlines()[0] == "site,a.com,b.com,c.com"


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

    def test_no_sample_std_overrides_environment(self, corpus, tmp_path):
        reports = {}
        for case, env, flags in (
            ("population", {}, []),
            ("sample", {"NEWSFORENSICS_SAMPLE_STD": "true"}, []),
            ("turned-off", {"NEWSFORENSICS_SAMPLE_STD": "true"}, ["--no-sample-std"]),
        ):
            out = tmp_path / case
            result = invoke(
                ["--out", str(out), "stats", "--traffic", str(corpus.traffic_csv)] + flags,
                env=env,
            )
            assert result.exit_code == 0, (case, result.output)
            reports[case] = (out / "traffic_report.json").read_bytes()
        assert reports["turned-off"] == reports["population"] != reports["sample"]

    def test_negative_per_month_exits_2(self, tmp_path):
        result = invoke(["--out", str(tmp_path / "o"), "crawl", "--per-month", "-1"])
        assert result.exit_code == 2
        assert "error: per_month must be >= 0" in result.output

    def test_zero_workers_exits_2(self, tmp_path):
        result = invoke(["--out", str(tmp_path / "o"), "crawl", "--workers", "0"])
        assert result.exit_code == 2, result.output
        assert "error: workers must be >= 1" in result.output
        assert not (tmp_path / "o").exists()

    def test_zero_top_k_trackers_exits_2_before_reading_the_cache(self, tmp_path, monkeypatch):
        monkeypatch.setattr(pipeline, "audit_trackers", lambda config: pytest.fail("ran"))
        result = invoke(["--out", str(tmp_path / "o"), "trackers"],
                        env={"NEWSFORENSICS_TOP_K_TRACKERS": "0"})
        assert result.exit_code == 2, result.output
        assert "error: top_k_trackers must be >= 1" in result.output

    CHOICES = [("cohort", "timeline", "build_timeline_artifacts", "fake, real, all"),
               ("model", "classify", "classify", ", ".join(MODEL_KINDS))]

    @pytest.mark.parametrize("key, command, stage, allowed", CHOICES, ids=["cohort", "model"])
    def test_unknown_choice_in_config_file_exits_2(self, tmp_path, monkeypatch, key, command,
                                                   stage, allowed):
        monkeypatch.setattr(pipeline, stage, lambda *args, **kwargs: pytest.fail("ran"))
        config_file = tmp_path / "config.json"
        config_file.write_text(json.dumps({key: "bogus"}))
        result = invoke(["--config", str(config_file), "--out", str(tmp_path / "o"), command])
        assert result.exit_code == 2, result.output
        assert result.output == f"error: {key} must be one of {allowed}, got 'bogus'\n"

    @pytest.mark.parametrize("key, command, stage, allowed", CHOICES, ids=["cohort", "model"])
    def test_unknown_choice_in_environment_exits_2(self, tmp_path, monkeypatch, key, command,
                                                   stage, allowed):
        monkeypatch.setattr(pipeline, stage, lambda *args, **kwargs: pytest.fail("ran"))
        result = invoke(["--out", str(tmp_path / "o"), command],
                        env={f"NEWSFORENSICS_{key.upper()}": "bogus"})
        assert result.exit_code == 2, result.output
        assert result.output == f"error: {key} must be one of {allowed}, got 'bogus'\n"
        assert not (tmp_path / "o").exists()

    WINDOWS = [
        ("window_start", "2015-13", "stats", "traffic_stats",
         "'window_start': month out of range: 13"),
        ("window_end", "2015", "trackers", "audit_trackers",
         "'window_end': expected YYYY-MM, got '2015'"),
        ("window_start", "2021-01", "timeline", "build_timeline_artifacts",
         "empty month window: 2021-01..2020-12 (window_start is after window_end)"),
        ("quarter_start", "2019-Q5", "report", "consolidated_report",
         "'quarter_start': expected YYYY-Qn, got '2019-Q5'"),
        ("quarter_end", "2014-Q4", "sync", "detect_sync",
         "empty quarter window: 2015-Q1..2014-Q4 (quarter_start is after quarter_end)"),
    ]

    WINDOW_IDS = ["bad-month", "no-month", "reversed-months", "bad-quarter", "reversed-quarters"]

    @pytest.mark.parametrize("key, value, command, stage, message", WINDOWS, ids=WINDOW_IDS)
    def test_bad_window_in_config_file_exits_2(self, tmp_path, monkeypatch, key, value,
                                               command, stage, message):
        monkeypatch.setattr(pipeline, stage, lambda *args, **kwargs: pytest.fail("ran"))
        config_file = tmp_path / "config.json"
        config_file.write_text(json.dumps({key: value}))
        result = invoke(["--config", str(config_file), "--out", str(tmp_path / "o"), command])
        assert result.exit_code == 2, result.output
        assert result.output == f"error: {message}\n"

    @pytest.mark.parametrize("key, value, command, stage, message", WINDOWS, ids=WINDOW_IDS)
    def test_bad_window_in_environment_exits_2(self, tmp_path, monkeypatch, key, value,
                                               command, stage, message):
        monkeypatch.setattr(pipeline, stage, lambda *args, **kwargs: pytest.fail("ran"))
        result = invoke(["--out", str(tmp_path / "o"), command],
                        env={f"NEWSFORENSICS_{key.upper()}": value})
        assert result.exit_code == 2, result.output
        assert result.output == f"error: {message}\n"
        assert not (tmp_path / "o").exists()

    def test_negative_backoff_base_exits_2(self, tmp_path):
        config_file = tmp_path / "config.json"
        config_file.write_text(json.dumps({"backoff_base": -1}))
        result = invoke(["--config", str(config_file), "--out", str(tmp_path / "o"), "crawl"])
        assert result.exit_code == 2
        assert "error: backoff_base must be >= 0" in result.output

    def test_unknown_config_key_rejected(self, tmp_path):
        config_file = tmp_path / "config.json"
        config_file.write_text(json.dumps({"tyop": 1}))
        result = invoke(["--config", str(config_file), "report"])
        assert result.exit_code == 2
        assert "tyop" in result.output

    @pytest.mark.parametrize(
        "content, reason",
        [("not json", "Expecting value: line 1 column 1"), ("5", "not an object: int")],
        ids=["not-json", "not-object"],
    )
    def test_misshapen_config_file_exits_2_naming_it(self, tmp_path, content, reason):
        config_file = tmp_path / "config.json"
        config_file.write_text(content)
        result = invoke(["--config", str(config_file), "--out", str(tmp_path / "o"), "report"])
        assert result.exit_code == 2, result.output
        assert f"error: {config_file}: {reason}" in result.output

    @pytest.mark.parametrize("source", ["file", "env"])
    def test_bad_value_exits_2_naming_the_key(self, tmp_path, source):
        config_file = tmp_path / "config.json"
        config_file.write_text(json.dumps({"workers": "x"} if source == "file" else {}))
        result = invoke(
            ["--config", str(config_file), "--out", str(tmp_path / "o"), "report"],
            env={"NEWSFORENSICS_WORKERS": "x"} if source == "env" else {},
        )
        assert result.exit_code == 2, result.output
        assert "error: 'workers': invalid literal for int() with base 10: 'x'" in result.output

    @pytest.mark.parametrize("key,value,reason", [
        ("cohort", ["fake"], "expected a string, got ['fake']"),
        ("window_start", 201501, "expected a string, got 201501"),
        ("out_dir", 5, "expected a string, got 5"),
        ("folds", None, "int() argument must be a string, a bytes-like object or a real "
                        "number, not 'NoneType'"),
    ])
    def test_value_of_another_type_exits_2_naming_the_key(self, tmp_path, key, value, reason):
        config_file = tmp_path / "config.json"
        config_file.write_text(json.dumps({key: value}))
        out = [] if key == "out_dir" else ["--out", str(tmp_path / "o")]
        result = invoke(["--config", str(config_file), *out, "report"])
        assert result.exit_code == 2, result.output
        assert f"error: {key!r}: {reason}" in result.output


    @pytest.mark.parametrize("source,key,value", [
        ("file", "sample_std", 5), ("file", "sample_std", [1]), ("env", "sample_std", "maybe"),
        ("file", "folds", 2.7), ("file", "workers", True), ("file", "seed", float("inf")),
        ("file", "rate_limit", float("nan")), ("env", "rate_limit", "nan"),
        ("file", "backoff_base", float("inf")), ("file", "rate_limit", False),
        ("file", "cosine_threshold", 10**400),  # an integer beyond any float
    ])
    def test_inexact_value_exits_2_naming_the_key(self, tmp_path, source, key, value):
        config_file = tmp_path / "config.json"
        config_file.write_text(json.dumps({key: value} if source == "file" else {}))
        result = invoke(
            ["--config", str(config_file), "--out", str(tmp_path / "o"), "report"],
            env={f"NEWSFORENSICS_{key.upper()}": value} if source == "env" else {},
        )
        assert result.exit_code == 2, result.output
        assert f"error: {key!r}: " in result.output


class TestProbeCounters:
    """The benchmark's probe counters read the return values of load_profiles
    and predict_profiles; they must count what the reports count."""

    def test_counters_match_the_reports(self, corpus, tmp_path, monkeypatch):
        monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "perfbench"))
        from tracing import Tracer

        traffic = tmp_path / "traffic.csv"
        lines = corpus.traffic_csv.read_text().splitlines()
        bad_label = lines[1].replace(",fake,", ",dubious,").replace(",real,", ",dubious,")
        traffic.write_text("\n".join(lines + [lines[1], "other" + bad_label]) + "\n")
        out = tmp_path / "o"
        tracer = Tracer()
        with tracer.installed():
            assert invoke(["--out", str(out), "stats", "--traffic", str(traffic)]).exit_code == 0
            tracer.run = 1
            result = invoke(["--out", str(out), "classify", "--traffic", str(traffic), "--k", "3",
                             "--predict", str(corpus.predict_csv)])
            assert result.exit_code == 0, result.output

        stats = json.loads((out / "traffic_report.json").read_text())
        metrics = tracer.run_metrics(0)
        assert len(stats["rows_rejected"]) == 2
        assert metrics["traffic.rows"] == stats["rows_loaded"] + len(stats["rows_rejected"])
        assert metrics["traffic.rows_rejected"] == len(stats["rows_rejected"])

        report = json.loads((out / "classifier_report.json").read_text())
        predicted = len((out / "predictions.csv").read_text().splitlines()) - 1
        metrics = tracer.run_metrics(1)
        assert predicted == 6 and metrics["classify.predict_rows"] == predicted
        # the training export, then the prediction input, whose rows all load
        assert metrics["traffic.rows"] == report["rows_loaded"] + report["rows_rejected"] + predicted
        assert metrics["traffic.rows_rejected"] == report["rows_rejected"] == 2


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

    def test_manifests_list_every_artifact_once(self, pipeline_out):
        manifests = {
            path.stem: json.loads(path.read_text())
            for path in (pipeline_out / "manifests").glob("*.json")
        }
        assert sorted(manifests) == sorted(STAGES)
        artifacts = [
            path.relative_to(pipeline_out).as_posix() for path in pipeline_out.rglob("*")
            if path.is_file()
            and path.relative_to(pipeline_out).parts[0] not in ("cache", "manifests")
        ]
        written = [name for manifest in manifests.values() for name in manifest["outputs"]]
        assert sorted(written) == sorted(artifacts)
        for stage in ("timeline", "trackers"):
            assert "sites.json" in manifests[stage]["inputs"], stage

    def test_partial_rerun_of_report_is_stable(self, pipeline_out, corpus):
        before = (pipeline_out / "summary.json").read_bytes()
        result = invoke(["--seed", "7", "--out", str(pipeline_out), "report"])
        assert result.exit_code == 0
        assert (pipeline_out / "summary.json").read_bytes() == before


@pytest.fixture(scope="module")
def synced_out(corpus, tmp_path_factory):
    """An output directory after ingest-lists, crawl, timeline and sync over
    both cohorts: page_urls.jsonl holds a row for every cached page."""
    out = tmp_path_factory.mktemp("synced") / "out"
    common = ["--seed", "7", "--out", str(out)]
    with serve(corpus) as (base_url, _):
        for args in (
            ["ingest-lists", "--fake", str(corpus.fake_list), "--real", str(corpus.real_list)],
            ["crawl", "--window", "2015-01", "2017-12", "--rate-limit", "0",
             "--cdx-base", base_url, "--web-base", base_url],
            ["timeline", "--annotations", str(corpus.annotations), "--window", "2015-01",
             "2017-12", "--cohort", "all"],
            ["sync", "--quarters", "2015-Q1", "2017-Q4"],
        ):
            result = invoke(common + args)
            assert result.exit_code == 0, (args, result.output)
    return out


def page_url_rows(out: Path) -> list[dict]:
    return [json.loads(line) for line in (out / "page_urls.jsonl").read_text().splitlines()]


class TestPageUrls:
    """trackers reuses the URLs that sync's parse recorded in page_urls.jsonl."""

    def copy(self, synced_out: Path, tmp_path: Path) -> Path:
        out = tmp_path / "out"
        shutil.copytree(synced_out, out)
        return out

    def test_sync_records_every_parsed_page_and_lists_the_file(self, synced_out):
        rows = page_url_rows(synced_out)
        assert {row["site"] for row in rows} == set(FAKE_SITES + REAL_SITES) - {DEAD_SITE}
        assert [(r["site"], r["timestamp"]) for r in rows] == sorted(
            (r["site"], r["timestamp"]) for r in rows
        )
        manifest = json.loads((synced_out / "manifests" / "sync.json").read_text())
        assert manifest["outputs"] == ["page_urls.jsonl", "sync_report.json"]

    def test_tracker_report_does_not_depend_on_page_urls(self, synced_out, corpus, tmp_path):
        out = self.copy(synced_out, tmp_path)
        common = ["--seed", "7", "--out", str(out)]
        path = out / "page_urls.jsonl"
        reports = {}

        def trackers(case):
            result = invoke(common + ["trackers", "--filter-list", str(corpus.filter_list)])
            assert result.exit_code == 0, (case, result.output)
            reports[case] = (out / "tracker_report.json").read_bytes()

        trackers("after sync")
        rows = page_url_rows(out)
        path.unlink()
        trackers("no page_urls.jsonl")
        path.write_text("".join(
            json.dumps(row | {"sha256": "0" * 64}, sort_keys=True) + "\n" for row in rows
        ))
        trackers("every digest altered")
        for args in (["timeline", "--annotations", str(corpus.annotations),
                      "--window", "2015-01", "2017-12"],
                     ["sync", "--quarters", "2015-Q1", "2017-Q4"]):
            assert invoke(common + args).exit_code == 0, args
        assert {row["site"] for row in page_url_rows(out)} == set(FAKE_SITES) - {DEAD_SITE}
        trackers("sync on the fake cohort")
        assert len(set(reports.values())) == 1, sorted(reports)

    @staticmethod
    def edit(rows: list[str], index: int, **changes) -> list[str]:
        row = json.loads(rows[index])
        for key, value in changes.items():
            if value is None:
                del row[key]
            else:
                row[key] = value
        rows[index] = json.dumps(row)
        return rows

    KEYS = "expected an object with keys ['sha256', 'site', 'timestamp', 'urls']"
    FIRST = "row ('copy1.com', '20150915120000')"  # the first page's (site, timestamp)

    @pytest.mark.parametrize(
        "corrupt, line, reason",
        [
            (lambda rows: rows[:1] + [rows[1][:-1]] + rows[2:], 2, "Expecting ',' delimiter"),
            (lambda rows: rows[:2] + ["[]"] + rows[3:], 3, KEYS),
            (lambda rows: TestPageUrls.edit(rows, 0, urls=None), 1, KEYS),
            (lambda rows: TestPageUrls.edit(rows, 0, text="x"), 1, KEYS),
            (lambda rows: TestPageUrls.edit(rows, 1, site=3), 2, "'site' is not a str"),
            (lambda rows: TestPageUrls.edit(rows, 1, urls="https://t.com/"), 2,
             "'urls' is not a list"),
            (lambda rows: TestPageUrls.edit(rows, 1, urls=[1]), 2,
             "'urls' is not a list of strings"),
            (lambda rows: [rows[1], rows[0]] + rows[2:], 2, FIRST + " does not follow row"),
            (lambda rows: rows[:1] + rows[:1] + rows[2:], 2, FIRST + " does not follow row"),
            (lambda rows: rows + ['{"sha256": "", "site": "zz.com", "timestamp": "1", '
                                  '"urls": {}}'], "last", "'urls' is not a list"),
            (lambda rows: rows[:1] + ['{"site": "tr\udce9.com"}'] + rows[2:], 2,
             "'utf-8' codec can't decode byte 0xe9"),
        ],
        ids=["json", "not-object", "missing-key", "extra-key", "site-type", "urls-type",
             "url-type", "out-of-order", "repeated", "after-last-page", "not-utf8"],
    )
    def test_malformed_rows_exit_2(self, synced_out, corpus, tmp_path, corrupt, line, reason):
        out = self.copy(synced_out, tmp_path)
        path = out / "page_urls.jsonl"
        rows = corrupt(path.read_text().splitlines())
        path.write_bytes("".join(row + "\n" for row in rows).encode("utf-8", "surrogateescape"))
        line = len(rows) if line == "last" else line
        result = invoke(["--out", str(out), "trackers", "--filter-list", str(corpus.filter_list)])
        assert result.exit_code == 2, result.output
        assert f"error: {path}:{line}: {reason}" in result.output
        assert not (out / "tracker_report.json").exists()


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

    def test_manifests_do_not_depend_on_the_directories(self, tmp_path):
        """Two runs over copies of the inputs, from two directories, against
        one archive server write the same manifest bytes: a file outside
        --out is keyed by the setting that named it, and the config hash
        leaves out every path."""
        copies = [build_corpus(tmp_path / name) for name in ("a", "b")]
        trees = []
        with serve(copies[0]) as (base_url, _):
            for copy in copies:
                run_full_pipeline(copy, base_url, copy.root / "out", seed=11)
                trees.append(tree_bytes(copy.root / "out" / "manifests"))
        assert len(trees[0]) == len(STAGES)
        assert trees[0] == trees[1]
        inputs = json.loads(trees[0]["classify.json"])["inputs"]
        assert sorted(inputs) == ["predict", "traffic_data"]

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
