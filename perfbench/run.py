"""Benchmark: newsforensics CLI stages on seeded synthetic corpora.

    python3 perfbench/run.py --workload crawl-census --seed 1 --seconds 30 --trace 0

Set-up generates the workload's corpus (corpus.py, in a subprocess),
starts the fixture archive (archive_server.py, in its own process) and,
for content-reanalyze, fills the snapshot cache with a warm-up crawl.
The first set-up stays up for the passes; further ones from scratch run
between passes, at least SETUP_REPS in all and one after every pass while
a set-up costs less than a quarter of a pass, so that setup_s, their
median, samples the whole run.  Every set-up must produce byte-identical
inputs.

The measured part repeats one pipeline pass, the workload's CLI stages
run in process through ``newsforensics.cli.main``, while another pass
still fits in --seconds (set-up time not counted).  After every pass the
reports are checked against the generator's ground truth (checks.py), and
every pass must leave a byte-identical artifact tree.  run_s is the
median over the passes.

--trace 0 prints the end-to-end metrics of untraced passes.  --trace 1
alternates untraced and traced passes (tracing.py wraps the modules' public
functions) and prints the per-layer metrics: stage times from the
untraced passes, layer counts and times from the traced ones, and the
tracing overhead as the difference of their run_s medians.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics; a full record, with machine,
Python and numpy versions and the corpus scale, goes to
.perfbench/results/.  Operations are stage invocations plus output
checks; a failed one counts in "failed".
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import logging
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
import traceback
import urllib.request
from pathlib import Path

import checks
from corpus import ROOT, WORKLOADS, tree_sha256  # puts the checkout's src/ and tests/ on sys.path

import numpy as np
from newsforensics import cli
from tracing import Tracer

HERE = Path(__file__).resolve().parent
WORK = ROOT / ".perfbench"
SETUP_REPS = 3
CRAWL_WORKERS = min(2, os.cpu_count() or 1)
STAGE_METRICS = {"crawl": "crawl_s", "timeline": "timeline_s", "sync": "sync_s",
                 "trackers": "trackers_s", "classify": "classify_s"}


class Env:
    """One set-up: corpus, truth, archive server and output directory."""

    def __init__(self, workload: str, seed: int, root: Path):
        self.workload, self.seed, self.root = workload, seed, root
        self.corpus = root / "corpus"
        self.server: subprocess.Popen | None = None
        self.base_url = ""

    def inputs(self, name: str) -> str:
        return str(self.corpus / "inputs" / name)

    def setup(self) -> list[str | None]:
        """Build everything a pass needs; the warm-up stages' errors."""
        proc = subprocess.run(
            [sys.executable, str(HERE / "corpus.py"), "--workload", self.workload,
             "--seed", str(self.seed), "--out", str(self.corpus)],
            capture_output=True, text=True, timeout=120, check=True,
        )
        self.input_sha256 = proc.stdout.strip()
        self.truth = json.loads((self.corpus / "truth.json").read_text())
        self.config = self.root / "config.json"
        self.config.write_text(json.dumps({"backoff_base": 0.001}))
        if self.workload != "traffic-classify":
            self._start_server()
        if self.workload != "content-reanalyze":
            return []
        out = self.root / "out"
        return [invoke(self.common(out) + ingest_args(self)),
                invoke(self.common(out) + crawl_args(self))]

    def _start_server(self) -> None:
        self.server = subprocess.Popen(
            [sys.executable, str(HERE / "archive_server.py"),
             "--captures", str(self.corpus / "archive" / "captures.jsonl"),
             "--seed", str(self.seed)],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
        )
        line = self.server.stdout.readline().split()
        if len(line) != 2 or line[0] != "port":
            raise RuntimeError("archive server did not start")
        self.base_url = f"http://127.0.0.1:{line[1]}"

    def control(self, action: str) -> dict:
        with urllib.request.urlopen(f"{self.base_url}/_bench/{action}", timeout=30) as resp:
            return json.loads(resp.read())

    def common(self, out: Path) -> list[str]:
        return ["--config", str(self.config), "--seed", str(self.seed), "--out", str(out)]

    def close(self) -> None:
        if self.server is not None:
            self.server.stdin.close()  # the server exits at end of input
            try:
                self.server.wait(timeout=10)
            except subprocess.TimeoutExpired:
                self.server.kill()
                self.server.wait()
            self.server.stdout.close()
            self.server = None


def ingest_args(env: Env) -> list[str]:
    return ["ingest-lists", "--fake", env.inputs("fake_sites.txt"),
            "--real", env.inputs("real_sites.txt")]


def crawl_args(env: Env) -> list[str]:
    return ["crawl", "--rate-limit", "0", "--workers", str(CRAWL_WORKERS),
            "--cdx-base", env.base_url, "--web-base", env.base_url]


def stages(env: Env, out: Path) -> list[tuple[str, list[str]]]:
    """The timed CLI stages of one pass, in order."""
    c = env.common(out)
    if env.workload == "crawl-census":
        return [
            ("ingest-lists", c + ingest_args(env)),
            ("crawl", c + crawl_args(env)),
            ("timeline", c + ["timeline", "--annotations", env.inputs("annotations.csv")]),
            ("sync", c + ["sync", "--distances-csv", str(out / "distances.csv")]),
        ]
    if env.workload == "content-reanalyze":
        return [
            ("timeline", c + ["timeline", "--annotations", env.inputs("annotations.csv"),
                              "--cohort", "all"]),
            ("sync", c + ["sync"]),
            ("trackers", c + ["trackers", "--filter-list", env.inputs("filters.txt")]),
            ("report", c + ["report"]),
        ]
    return [
        ("stats", c + ["stats", "--traffic", env.inputs("traffic.csv")]),
        ("classify", c + ["classify", "--traffic", env.inputs("traffic.csv"),
                          "--model", "random_forest", "--k", "10",
                          "--split", "rank>10000|rank<=10000",
                          "--save-model", str(out / "model.json"),
                          "--predict", env.inputs("predict.csv")]),
    ]


def output_checks(env: Env, out: Path, server: dict, warm: bool = False) -> list[checks.Check]:
    truth = env.truth
    if warm:
        groups = [lambda: checks.crawl_checks(out, truth, server)]
    elif env.workload == "crawl-census":
        groups = [
            lambda: checks.crawl_checks(out, truth, server),
            lambda: checks.timeline_checks(out, truth),
            lambda: checks.sync_checks(out, truth),
            lambda: checks.distance_checks(out / "distances.csv", truth),
        ]
    elif env.workload == "content-reanalyze":
        groups = [
            lambda: checks.timeline_checks(out, truth),
            lambda: checks.sync_checks(out, truth),
            lambda: checks.tracker_checks(out, truth),
            lambda: checks.report_checks(
                out, ["sites", "crawl", "timeline", "sync", "trackers"]),
        ]
    else:
        groups = [lambda: checks.traffic_checks(out, truth)]
    results = []
    for group in groups:
        try:
            results += group()
        except (OSError, ValueError, KeyError, IndexError, TypeError) as exc:
            results.append(("output.readable", False, f"{type(exc).__name__}: {exc}"))
    return results


def invoke(argv: list[str]) -> str | None:
    """Run one CLI command in process; the error text if it failed."""
    captured = io.StringIO()
    try:
        with contextlib.redirect_stdout(captured):
            cli.main.main(args=argv, prog_name="newsforensics", standalone_mode=False)
    except SystemExit as exc:
        if exc.code:
            return f"exit {exc.code}"
    except Exception:  # a crashing stage is a failed operation, not a benchmark crash
        return traceback.format_exc(limit=3)
    return None


def run_pass(env: Env, out: Path, tracer: Tracer | None) -> dict:
    """One pipeline pass: timed stages, then checks outside the timing."""
    if env.server is not None:
        env.control("reset")
    times, failures = {}, []
    with tracer.installed() if tracer else contextlib.nullcontext():
        for name, argv in stages(env, out):
            stage = tracer.stage(name) if tracer else contextlib.nullcontext()
            t0 = time.perf_counter()
            with stage:
                error = invoke(argv)
            times[name] = time.perf_counter() - t0
            if error:
                failures.append(f"stage {name}: {error}")
    server = env.control("stats") if env.server is not None else {}
    results = output_checks(env, out, server)
    failures += [f"check {name}: {detail}" for name, ok, detail in results if not ok]
    manifest = out / "crawl_manifest.json"
    crawled = {"retries": 0, "failed": 0}
    if "crawl" in times and manifest.exists():
        crawled = checks.crawl_counts(json.loads(manifest.read_text()))
    return {
        "times": times,
        "run_s": sum(times.values()),
        "attempted": len(times) + len(results),
        "failures": failures,
        "tree_sha256": tree_sha256(out),
        "archive_requests": server.get("requests", 0),
        "archive.retries": crawled["retries"],
        "archive.failed": crawled["failed"],
        "traced": tracer is not None,
    }


# Per-unit costs from the traced metrics, in the units of the ROADMAP
# baseline table: (seconds metric, count metric).
PER_UNIT_US = {
    "domains.registrable_us_per_host": ("domains.registrable_s", "domains.registrable_calls"),
    "trackers.extract_us_per_page": ("trackers.extract_s", "trackers.extract_calls"),
    "tfidf.cosine_us_per_pair": ("tfidf.cosine_s", "tfidf.cosine_calls"),
    "sync.uptime_us_per_pair": ("sync.uptime_s", "sync.uptime_pairs_compared"),
    "classify.predict_us_per_row": ("classify.predict_s", "classify.predict_rows"),
}


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor()


def pin_to_one_cpu() -> int | None:
    """Run the benchmark and every process it starts on one CPU; which one.

    The crawl's client and the fixture archive then hand each request over
    without waking an idle CPU.  On a shared virtual machine that wake-up
    waits for the host, and it made crawl times swing up to 2x with the
    host's load while single-threaded stages slowed far less."""
    if not hasattr(os, "sched_setaffinity"):
        return None
    cpu = min(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu


def environment(cpu: int | None) -> dict:
    return {
        "machine": platform.machine(),
        "platform": platform.platform(),
        "cpu": cpu_model(),
        "nproc": os.cpu_count(),
        "pinned_cpu": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
    }


class SetUps:
    """Set-ups from scratch, timed and checked; the first stays up for the
    passes, later ones are torn down at once."""

    def __init__(self, workload: str, seed: int, run_dir: Path):
        self.workload, self.seed, self.run_dir = workload, seed, run_dir
        self.times: list[float] = []
        self.input_sha256: set[str] = set()
        self.attempted, self.failures = 0, []
        self.kept: Env | None = None

    def run(self) -> float:
        """One more set-up; its time."""
        env = Env(self.workload, self.seed, self.run_dir / f"setup{len(self.times)}")
        try:
            t0 = time.perf_counter()
            warm = env.setup()
            self.times.append(time.perf_counter() - t0)
            self.input_sha256.add(env.input_sha256)
            if warm:  # the warm-up crawl is checked like a timed one
                results = output_checks(env, env.root / "out", env.control("stats"), warm=True)
                self.attempted += len(warm) + len(results)
                self.failures += [f"warm-up stage: {e}" for e in warm if e]
                self.failures += [f"warm-up check {n}: {d}" for n, ok, d in results if not ok]
        except BaseException:
            env.close()
            raise
        if self.kept is None:
            self.kept = env
        else:
            env.close()
            shutil.rmtree(env.root)
        return self.times[-1]

    def wanted(self, pass_s: float) -> bool:
        return len(self.times) < SETUP_REPS or statistics.mean(self.times) < pass_s / 4

    def close(self) -> None:
        if self.kept is not None:
            self.kept.close()

    def deterministic(self) -> bool:
        return len(self.input_sha256) == 1


def measure(env: Env, seconds: float, trace: bool,
            setups: SetUps) -> tuple[list[dict], Tracer | None]:
    """Passes while the next one, as long as the mean so far, still ends
    within --seconds (at least one of each kind), with set-ups between them.
    Crawl-census starts every pass from an empty output directory, so its
    cache is cold; the others reuse the set-up output."""
    tracer = Tracer() if trace else None
    passes: list[dict] = []
    start, setup_s, pass_times = time.perf_counter(), 0.0, []
    while True:
        t0 = time.perf_counter()
        traced = trace and len(passes) % 2 == 1
        if env.workload == "crawl-census":
            out = env.root / f"pass{len(passes)}"
        else:
            out = env.root / "out"
        if traced:
            tracer.run = len(passes)
        gc.collect()
        passes.append(run_pass(env, out, tracer if traced else None))
        if env.workload == "crawl-census":
            shutil.rmtree(out)
        pass_times.append(time.perf_counter() - t0)
        if setups.wanted(pass_times[-1]):
            setup_s += setups.run()
        elapsed = time.perf_counter() - start - setup_s
        if len(passes) >= (2 if trace else 1) and elapsed + statistics.mean(pass_times) > seconds:
            return passes, tracer


def per_layer_metrics(passes: list[dict], tracer: Tracer) -> dict:
    """Layer metrics of the traced passes; stage times, archive counts and
    the tracing overhead from the untraced ones."""
    plain = [p for p in passes if not p["traced"]]
    traced = [p for p in passes if p["traced"]]
    metrics = tracer.median_metrics([i for i, p in enumerate(passes) if p["traced"]])
    for stage, name in STAGE_METRICS.items():
        metrics[name] = statistics.median(p["times"].get(stage, 0.0) for p in plain)
    for name in ("archive_requests", "archive.retries", "archive.failed"):
        metrics[name] = statistics.median(p[name] for p in plain)
    metrics["trace.overhead_s"] = (statistics.median(p["run_s"] for p in traced)
                                   - statistics.median(p["run_s"] for p in plain))
    return metrics


def unit(metric: str) -> str:
    if metric == "peak_rss_mb":
        return "MB"
    if metric.endswith("_ratio"):
        return "ratio"
    return "s" if metric.endswith("_s") else "count"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="newsforensics pipeline benchmark")
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # a terminated benchmark still stops its server and removes its files
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    cpu = pin_to_one_cpu()

    run_dir = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    logging.basicConfig(filename=run_dir / "pipeline.log", level=logging.WARNING,
                        format="%(levelname)s %(name)s: %(message)s")
    setups = SetUps(args.workload, args.seed, run_dir)
    try:
        setups.run()
        passes, tracer = measure(setups.kept, args.seconds, bool(args.trace), setups)
        while len(setups.times) < SETUP_REPS:
            setups.run()
        setup_times = setups.times
        # the two determinism checks below count as operations too
        attempted = setups.attempted + 2 + sum(p["attempted"] for p in passes)
        failures = setups.failures + [f for p in passes for f in p["failures"]]
        if not setups.deterministic():
            failures.append("check corpus.deterministic: inputs differ between set-ups")
        if len({p["tree_sha256"] for p in passes}) != 1:
            failures.append("check artifacts.deterministic: artifact trees differ between passes")

        if tracer:
            metrics = per_layer_metrics(passes, tracer)
        else:
            metrics = {
                "run_s": statistics.median(p["run_s"] for p in passes),
                "setup_s": statistics.median(setup_times),
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            }
        result = {
            "correct": not failures,
            "attempted": attempted,
            "failed": len(failures),
            "metrics": {k: {"value": v, "unit": unit(k)} for k, v in sorted(metrics.items())},
        }
        record = {
            "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "environment": environment(cpu),
            "scale": setups.kept.truth["scale"], "setup_s": setup_times,
            "passes": passes, "failures": failures, "result": result,
        }
        if tracer:
            record["per_unit_us"] = {
                name: 1e6 * metrics[secs] / metrics[count]
                for name, (secs, count) in PER_UNIT_US.items() if metrics[count]
            }
        write_record(record, tracer)
        for failure in failures[:20]:
            print(f"FAILED {failure}", file=sys.stderr)
        print(f"# environment {json.dumps(record['environment'], sort_keys=True)}")
        print(f"# scale {json.dumps(record['scale'], sort_keys=True)}")
        print(json.dumps(result, sort_keys=True))
        return 0
    finally:
        setups.close()
        logging.shutdown()
        shutil.rmtree(run_dir, ignore_errors=True)


def write_record(record: dict, tracer: Tracer | None) -> None:
    """The full result, and the spans of a traced run, under .perfbench/results."""
    results = WORK / "results"
    results.mkdir(exist_ok=True)
    stem = f"{record['workload']}-seed{record['seed']}-trace{record['trace']}"
    (results / f"{stem}.json").write_text(json.dumps(record, indent=1, sort_keys=True))
    if tracer:
        with open(results / f"{stem}-spans.jsonl", "w", encoding="utf-8") as fh:
            for span in tracer.span_records():
                fh.write(json.dumps(span) + "\n")


if __name__ == "__main__":
    sys.exit(main())
