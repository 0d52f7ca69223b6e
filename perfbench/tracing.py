"""Spans and counts at the boundaries of newsforensics' modules.

The benchmark traces from outside: it replaces public functions and
methods, in the namespace their callers resolve them from, with timing
wrappers for the duration of a traced pass, and restores them afterwards.
No source file changes.

Boundary calls made once or a few times per stage record a span (name,
start, end, parent, run id).  Per-item calls (``cosine``,
``registrable_domain``, ``Preprocessor.tokens`` and the like, up to
hundreds of thousands per pass) are counted and summed under their parent
span instead of getting a span each.  Spans stay in memory until the
benchmark writes them out at the end.
"""

from __future__ import annotations

import importlib
import statistics
import threading
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass

LAYERS = ("archive", "timeline", "sync", "textproc", "tfidf", "domains",
          "trackers", "traffic", "classify", "pipeline")
STAGES = ("ingest-lists", "crawl", "timeline", "sync", "trackers", "report",
          "stats", "classify")


@dataclass(frozen=True)
class Probe:
    """One wrapped callable: where it lives, what it records, which layer
    (module) it belongs to, and how: "span", "item" or "generator" (an item
    timed per yielded value)."""

    owner: str  # "module" or "module:Class"
    attr: str
    name: str
    layer: str
    kind: str = "span"
    count: object = None  # (args, kwargs, result) -> {counter: value}


def _pairs(n: int) -> int:
    return n * (n - 1) // 2


PROBES = [
    Probe("newsforensics.archive", "crawl_sites", "archive.crawl", "archive"),
    Probe("newsforensics.archive:WaybackClient", "fetch_cdx_index", "archive.cdx", "archive"),
    Probe("newsforensics.archive:WaybackClient", "fetch_snapshot", "archive.snapshot", "archive"),
    Probe("newsforensics.archive:SnapshotCache", "put", "archive.cache_put", "archive", "item"),
    Probe("newsforensics.archive", "load_documents", "archive.load_documents", "archive",
          "generator"),
    Probe("newsforensics.archive", "build_timelines", "timeline.build", "archive"),
    Probe("newsforensics.pipeline", "read_annotations", "timeline.read_annotations", "timeline"),
    Probe("newsforensics.pipeline", "read_timelines", "timeline.read", "timeline"),
    Probe("newsforensics.pipeline", "interpolate_p1", "timeline.interpolate", "timeline", "item"),
    Probe("newsforensics.pipeline", "interpolate_p2", "timeline.interpolate", "timeline", "item"),
    Probe("newsforensics.pipeline", "cohort_histogram", "timeline.histogram", "timeline"),
    Probe("newsforensics.pipeline", "lifetime_summary", "timeline.lifetime", "timeline", "item"),
    Probe("newsforensics.pipeline", "lifetime_distribution", "timeline.lifetime", "timeline"),
    Probe("newsforensics.sync", "quarterize", "sync.quarterize", "sync", "item"),
    Probe("newsforensics.sync", "pairwise_uptime", "sync.uptime", "sync",
          count=lambda a, k, r: {"sync.uptime_pairs_compared": _pairs(len(list(a[0]))),
                                 "sync.uptime_pairs_matched": len(r)}),
    Probe("newsforensics.pipeline", "export_distance_matrix", "sync.distance_matrix", "pipeline"),
    Probe("newsforensics.sync", "detect_content_sync", "sync.content", "sync",
          count=lambda a, k, r: {"sync.content_pairs_matched": len(r[0])}),
    Probe("newsforensics.pipeline", "texts_by_month", "pipeline.texts_by_month", "pipeline"),
    Probe("newsforensics.pipeline", "extract_text", "textproc.extract_text", "textproc", "item"),
    Probe("newsforensics.textproc:Preprocessor", "tokens", "textproc.tokens", "textproc", "item"),
    Probe("newsforensics.sync", "build_tfidf", "tfidf.build", "tfidf"),
    Probe("newsforensics.sync", "cosine", "tfidf.cosine", "tfidf", "item"),
    Probe("newsforensics.domains:PublicSuffixList", "registrable_domain", "domains.registrable",
          "domains", "item"),
    Probe("newsforensics.trackers", "parse_filter_list", "trackers.parse_filter", "trackers"),
    Probe("newsforensics.trackers", "extract_third_parties", "trackers.extract", "trackers"),
    Probe("newsforensics.trackers", "match_trackers", "trackers.match", "trackers", "item"),
    Probe("newsforensics.trackers", "prevalence_timeline", "trackers.prevalence", "trackers"),
    Probe("newsforensics.trackers", "coverage_compare", "trackers.coverage", "trackers"),
    Probe("newsforensics.traffic", "load_profiles", "traffic.load_profiles", "traffic",
          count=lambda a, k, r: {"traffic.rows": len(r[0]) + len(r[1]),
                                 "traffic.rows_rejected": len(r[1])}),
    Probe("newsforensics.traffic", "cohort_report", "traffic.cohort_report", "traffic"),
    Probe("newsforensics.classify.encoder:FeatureEncoder", "fit", "classify.encode", "classify",
          "item"),
    Probe("newsforensics.classify.encoder:FeatureEncoder", "transform", "classify.encode",
          "classify", "item"),
    Probe("newsforensics.classify.encoder:FeatureEncoder", "transform_one", "classify.encode",
          "classify", "item"),
    Probe("newsforensics.pipeline", "cross_validate", "classify.cv", "classify"),
    Probe("newsforensics.pipeline", "rank_split_experiment", "classify.rank_split", "classify"),
    Probe("newsforensics.pipeline", "train_classifier", "classify.train", "classify"),
    Probe("newsforensics.classify.forest:RandomForestModel", "fit", "classify.forest_fit",
          "classify"),
    Probe("newsforensics.classify.forest:RandomForestModel", "score", "classify.score",
          "classify", "item"),
    Probe("newsforensics.pipeline", "predict_profiles", "classify.predict", "classify",
          count=lambda a, k, r: {"classify.predict_rows": len(r)}),
    Probe("newsforensics.pipeline", "write_run_manifest", "pipeline.manifest", "pipeline"),
    Probe("newsforensics.pipeline", "write_json", "pipeline.write", "pipeline"),
    Probe("newsforensics.pipeline", "write_csv", "pipeline.write", "pipeline"),
    Probe("newsforensics.pipeline", "write_timelines", "pipeline.write", "pipeline"),
]


@dataclass
class Span:
    name: str
    layer: str
    start: float
    end: float
    parent: int  # index into Tracer.spans, -1 for a stage
    run: int


class Tracer:
    """Collects spans, per-item sums and counters for numbered runs."""

    def __init__(self, probes=PROBES):
        self.probes = probes
        self.spans: list[Span] = []
        # (parent span index, name) -> [calls, seconds, layer]
        self.items: dict[tuple[int, str], list] = {}
        self.counters: dict[tuple[int, str], float] = defaultdict(float)
        self.run = 0
        self._lock = threading.Lock()
        self._local = threading.local()
        self._stage_stack: list[int] | None = None

    # -- recording -------------------------------------------------------

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _parent(self) -> int:
        stack = self._stack()
        if stack:
            return stack[-1]
        # a worker thread's calls belong to the span that started the pool
        outer = self._stage_stack
        return outer[-1] if outer else -1

    def _open(self, name: str, layer: str) -> int:
        parent = self._parent()
        with self._lock:
            index = len(self.spans)
            self.spans.append(Span(name, layer, time.perf_counter(), 0.0, parent, self.run))
        self._stack().append(index)
        return index

    def _close(self, index: int) -> None:
        self.spans[index].end = time.perf_counter()
        self._stack().pop()

    def _add_item(self, name: str, layer: str, seconds: float) -> None:
        parent = self._parent()
        with self._lock:
            rec = self.items.setdefault((parent, name), [0, 0.0, layer])
            rec[0] += 1
            rec[1] += seconds

    def _count(self, values: dict) -> None:
        with self._lock:
            for key, value in values.items():
                self.counters[(self.run, key)] += value

    @contextmanager
    def stage(self, name: str):
        """Span for one CLI stage; the probes' spans nest under it."""
        index = self._open(f"stage.{name}", "stage")
        self._stage_stack = self._stack()
        try:
            yield
        finally:
            self._close(index)
            self._stage_stack = None

    # -- wrappers ----------------------------------------------------------

    def _wrap(self, fn, probe: Probe):
        local = self._local

        if probe.kind == "generator":
            def wrapper(*args, **kwargs):
                it = fn(*args, **kwargs)
                while True:
                    t0 = time.perf_counter()
                    try:
                        value = next(it)
                    except StopIteration:
                        self._add_item(probe.name, probe.layer, time.perf_counter() - t0)
                        return
                    self._add_item(probe.name, probe.layer, time.perf_counter() - t0)
                    yield value
            return wrapper

        def wrapper(*args, **kwargs):
            # calls nested inside a per-item call are part of that item
            if getattr(local, "in_item", False):
                return fn(*args, **kwargs)
            if probe.kind == "item":
                local.in_item = True
                t0 = time.perf_counter()
                try:
                    result = fn(*args, **kwargs)
                finally:
                    local.in_item = False
                    self._add_item(probe.name, probe.layer, time.perf_counter() - t0)
            else:
                index = self._open(probe.name, probe.layer)
                try:
                    result = fn(*args, **kwargs)
                finally:
                    self._close(index)
            if probe.count is not None:
                self._count(probe.count(args, kwargs, result))
            return result

        return wrapper

    @contextmanager
    def installed(self):
        """Wrap every probe for the duration of the block, then restore."""
        saved = []
        try:
            for probe in self.probes:
                module, _, cls = probe.owner.partition(":")
                owner = importlib.import_module(module)
                if cls:
                    owner = getattr(owner, cls)
                    original = owner.__dict__[probe.attr]
                    if isinstance(original, classmethod):
                        patched = classmethod(self._wrap(original.__func__, probe))
                    else:
                        patched = self._wrap(original, probe)
                else:
                    original = getattr(owner, probe.attr)
                    patched = self._wrap(original, probe)
                saved.append((owner, probe.attr, original))
                setattr(owner, probe.attr, patched)
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    # -- analysis ----------------------------------------------------------

    def run_metrics(self, run: int) -> dict[str, float]:
        """Totals, self times and stage remainders for one traced run."""
        spans = {i: s for i, s in enumerate(self.spans) if s.run == run}
        children: dict[int, list[Span]] = defaultdict(list)
        for s in spans.values():
            if s.parent >= 0:
                children[s.parent].append(s)
        item_seconds: dict[int, float] = defaultdict(float)
        calls: dict[str, float] = defaultdict(float)
        seconds: dict[str, float] = defaultdict(float)
        self_s: dict[str, float] = defaultdict(float)
        for (parent, name), (n, secs, layer) in self.items.items():
            if parent in spans:
                item_seconds[parent] += secs
                calls[name] += n
                seconds[name] += secs
                self_s[layer] += secs

        remainder: dict[str, float] = {}
        for i, s in spans.items():
            own = s.end - s.start - _covered(s, children[i]) - item_seconds[i]
            if s.layer == "stage":
                remainder[s.name[len("stage."):]] = own
                continue
            calls[s.name] += 1
            seconds[s.name] += s.end - s.start
            self_s[s.layer] += own
            self_s[f"span:{s.name}"] += own

        counter = {k: v for (r, k), v in self.counters.items() if r == run}
        compared = calls["tfidf.cosine"]
        m = {
            "archive.cdx_calls": calls["archive.cdx"],
            "archive.cdx_s": seconds["archive.cdx"],
            "archive.snapshot_fetches": calls["archive.snapshot"],
            "archive.snapshot_s": seconds["archive.snapshot"],
            "archive.cache_put_s": seconds["archive.cache_put"],
            "timeline.read_annotations_s": seconds["timeline.read_annotations"],
            "timeline.build_s": seconds["timeline.build"],
            "timeline.interpolate_s": seconds["timeline.interpolate"],
            "timeline.histogram_s": seconds["timeline.histogram"],
            "timeline.lifetime_s": seconds["timeline.lifetime"],
            "sync.quarterize_s": seconds["sync.quarterize"],
            "sync.uptime_s": seconds["sync.uptime"],
            "sync.uptime_pairs_compared": counter.get("sync.uptime_pairs_compared", 0),
            "sync.uptime_pairs_matched": counter.get("sync.uptime_pairs_matched", 0),
            "sync.distance_matrix_s": seconds["sync.distance_matrix"],
            "archive.load_documents_s": seconds["archive.load_documents"],
            "pipeline.texts_by_month_s": seconds["pipeline.texts_by_month"],
            "textproc.extract_text_calls": calls["textproc.extract_text"],
            "textproc.extract_text_s": seconds["textproc.extract_text"],
            "textproc.tokens_calls": calls["textproc.tokens"],
            "textproc.tokens_s": seconds["textproc.tokens"],
            "tfidf.build_s": seconds["tfidf.build"],
            "tfidf.cosine_calls": compared,
            "tfidf.cosine_s": seconds["tfidf.cosine"],
            "sync.content_s": self_s["span:sync.content"],
            "sync.content_pairs_matched": counter.get("sync.content_pairs_matched", 0),
            "sync.content_match_ratio": (
                counter.get("sync.content_pairs_matched", 0) / compared if compared else 0.0),
            "domains.registrable_calls": calls["domains.registrable"],
            "domains.registrable_s": seconds["domains.registrable"],
            "trackers.parse_filter_s": seconds["trackers.parse_filter"],
            "trackers.extract_calls": calls["trackers.extract"],
            "trackers.extract_s": self_s["span:trackers.extract"],
            "trackers.match_s": seconds["trackers.match"],
            "trackers.prevalence_s": seconds["trackers.prevalence"],
            "trackers.coverage_s": seconds["trackers.coverage"],
            "traffic.load_profiles_s": seconds["traffic.load_profiles"],
            "traffic.rows": counter.get("traffic.rows", 0),
            "traffic.rows_rejected": counter.get("traffic.rows_rejected", 0),
            "traffic.cohort_report_s": seconds["traffic.cohort_report"],
            "classify.encode_s": seconds["classify.encode"],
            "classify.cv_s": seconds["classify.cv"],
            "classify.forest_fits": calls["classify.forest_fit"],
            "classify.forest_fit_s": seconds["classify.forest_fit"],
            "classify.score_s": seconds["classify.score"],
            "classify.predict_rows": counter.get("classify.predict_rows", 0),
            "classify.predict_s": seconds["classify.predict"],
            "pipeline.manifest_s": seconds["pipeline.manifest"],
            "pipeline.write_s": seconds["pipeline.write"],
        }
        for layer in LAYERS:
            m[f"{layer}.self_s"] = self_s[layer]
        for stage in STAGES:
            m[f"stage.{stage}.unattributed_s"] = remainder.get(stage, 0.0)
        return m

    def median_metrics(self, runs: list[int]) -> dict[str, float]:
        per_run = [self.run_metrics(r) for r in runs]
        return {k: statistics.median(m[k] for m in per_run) for k in per_run[0]}

    def span_records(self) -> list[dict]:
        return [
            {"name": s.name, "start": s.start, "end": s.end, "parent": s.parent, "run": s.run}
            for s in self.spans
        ]


def _covered(span: Span, children: list[Span]) -> float:
    """Length of span's interval covered by the union of its children's."""
    total, reach = 0.0, span.start
    for child in sorted(children, key=lambda c: c.start):
        lo, hi = max(child.start, reach), min(child.end, span.end)
        if hi > lo:
            total += hi - lo
            reach = hi
    return total



