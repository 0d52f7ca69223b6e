"""Seeded corpus generator for the three benchmark workloads.

Writes the inputs one workload runs on, the captures the fixture archive
serves, and the ground truth the output checks compare against:

    <out>/inputs/...            site lists, annotations, filters, traffic CSVs
    <out>/archive/captures.jsonl  one capture per line, served by archive_server
    <out>/truth.json            planted structure and expected counts

The same (workload, seed) gives byte-identical files.  Vocabulary, page
template, tracker lists, filter list and traffic profiles come from the
test fixtures, so the benchmark exercises the same shapes the test suite
does, only at scale.

    python3 perfbench/corpus.py --workload crawl-census --seed 1 --out DIR
"""

from __future__ import annotations

import argparse
import hashlib
import json
import random
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
for _p in (ROOT / "tests", ROOT / "src"):
    if str(_p) not in sys.path:
        sys.path.insert(0, str(_p))

import fixture_corpus as fx  # noqa: E402
from synth import separable_profile  # noqa: E402

from archive_server import injects_503  # noqa: E402

WORKLOADS = ("crawl-census", "content-reanalyze", "traffic-classify")

# Scale of each workload.  Chosen so one pipeline pass takes a few seconds
# on a 2-core machine and a full set of benchmark runs stays under an hour.
CENSUS_FAKE, CENSUS_REAL = 150, 50
CONTENT_FAKE, CONTENT_REAL = 120, 30
CONTENT_MONTHS = (2016, 1, 6)  # year, first month, month count
TRAIN_ROWS, PREDICT_ROWS = 800, 4000

CRAWL_WINDOW = ((2000, 1), (2020, 12))  # the pipeline's default window
QUARTER_WINDOW = ((2015, 1), (2019, 12))  # months of the default 2015-Q1..2019-Q4

# Registrable domain of every tracker URL a page may embed, written out by
# hand so the tracker check does not depend on the code it checks.
TRACKER_DOMAINS = {
    "https://www.google-analytics.com/analytics.js": "google-analytics.com",
    "https://pagead2.googlesyndication.com/pagead/show_ads.js": "googlesyndication.com",
    "https://pixel.quantserve.com/pixel/p-abc.gif": "quantserve.com",
    "https://connect.facebook.net/en_US/fbevents.js": "facebook.net",
    "https://securepubads.doubleclick.net/tag/js/gpt.js": "doubleclick.net",
    "https://sb.scorecardresearch.com/beacon.js": "scorecardresearch.com",
    "https://www.googleadservices.com/pagead/conversion.js": "googleadservices.com",
    "https://static.hotjar.com/c/hotjar-51.js": "hotjar.com",
}
EXTRA_TRACKER = "https://static.hotjar.com/c/hotjar-51.js"
CDN_URLS = [
    "https://cdnjs.cloudflare.com/ajax/libs/jquery/3.6.0/jquery.min.js",
    "https://ajax.googleapis.com/ajax/libs/webfont/1.6.26/webfont.js",
    "https://fonts.googleapis.com/css?family=Roboto",
    "https://unpkg.com/react@18/umd/react.production.min.js",
    "https://cdn.jsdelivr.net/npm/bootstrap@5/dist/js/bootstrap.min.js",
    "//maxcdn.bootstrapcdn.com/font-awesome/4.7.0/css/font-awesome.min.css",
]
TLDS = ["com", "com", "com", "net", "org", "co.uk", "com.au"]


def month_index(year: int, month: int) -> int:
    return year * 12 + month - 1


def index_month(i: int) -> tuple[int, int]:
    return i // 12, i % 12 + 1


def timestamp(i: int, day: int) -> str:
    y, m = index_month(i)
    return f"{y:04d}{m:02d}{day:02d}120000"


def site_names(rng: random.Random, prefix: str, n: int) -> list[str]:
    return [f"{prefix}{i:04d}.{rng.choice(TLDS)}" for i in range(n)]


def plant_uptime(rng: random.Random, sites: list[str], n_twin_groups: int):
    """Alive runs whose quarter series are distinct except for planted twins.

    Each site's run, clipped to the quarter window, spans at least two
    quarters, which makes its alive-month counts per quarter determine the
    clipped run uniquely.  Twin groups share a clipped run, so exactly
    their pairs sit at uptime distance 0.  Returns ({site: (first, last)}
    month indices, twin groups).
    """
    q0, q1 = month_index(*QUARTER_WINDOW[0]), month_index(*QUARTER_WINDOW[1])
    span = q1 - q0 + 1
    candidates = [(s, e) for s in range(span) for e in range(s, span) if s // 3 != e // 3]
    rng.shuffle(candidates)
    order = list(sites)
    rng.shuffle(order)
    groups, clipped = [], {}
    for g in range(n_twin_groups):
        size = 3 if g % 4 == 3 else 2
        members = sorted(order[:size])
        del order[:size]
        groups.append(members)
        interval = candidates.pop()
        for site in members:
            clipped[site] = interval
    for site in order:
        clipped[site] = candidates.pop()
    lo, hi = month_index(*CRAWL_WINDOW[0]), month_index(*CRAWL_WINDOW[1])
    runs = {}
    for site in sorted(clipped):
        s, e = clipped[site]
        first = q0 + s if s else max(lo, q0 - rng.randint(0, 96))
        last = q0 + e if e < span - 1 else min(hi, q1 + rng.randint(0, 10))
        runs[site] = (first, last)
    return runs, sorted(groups)


def annotation_rows(rng: random.Random, site: str, run: tuple[int, int],
                    zombie_months: int) -> list[str]:
    """Sparse alive anchors (gaps <= 12 months, so interpolation fills the
    run exactly) followed by a contiguous zombie tail."""
    first, last = run
    anchors, cur = [first], first
    while cur < last:
        cur = min(last, cur + rng.randint(1, 12))
        anchors.append(cur)
    rows = [(i, "alive") for i in anchors]
    rows += [(last + k, "zombie") for k in range(1, zombie_months + 1)]
    return [f"{site},{index_month(i)[0]},{index_month(i)[1]},{state}" for i, state in rows]


def uptime_pairs(groups: list[list[str]]) -> list[list[str]]:
    return sorted([a, b] for g in groups for i, a in enumerate(g) for b in g[i + 1:])


def _capture(site: str, ts: str, status: int, body: bytes) -> dict:
    return {"site": site, "timestamp": ts, "original": f"http://{site}/",
            "status": status, "body": body.decode()}


def _expected_requests(captures: list[dict], sites: list[str], seed: int) -> dict:
    """CDX queries, kept snapshots (first capture per site-month) and the
    503s the archive server injects on their first attempts."""
    kept, seen = [], set()
    for c in sorted(captures, key=lambda c: (c["site"], c["timestamp"])):
        key = (c["site"], c["timestamp"][:6])
        if key not in seen:
            seen.add(key)
            kept.append(c)
    cdx_503 = sum(injects_503(seed, f"cdx:{site}") for site in sites)
    web_503 = sum(injects_503(seed, f"web:{c['timestamp']}/{c['original']}") for c in kept)
    return {
        "cdx_queries": len(sites),
        "snapshots": len(kept),
        "dead_snapshots": sum(1 for c in kept if c["status"] == 404 or not c["body"]),
        "injected_503_cdx": cdx_503,
        "injected_503_snapshot": web_503,
        "archive_requests": len(sites) + len(kept) + cdx_503 + web_503,
    }


def _write_lines(path: Path, lines: list[str]) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text("\n".join(lines) + "\n")


def _write_archive(out: Path, captures: list[dict]) -> None:
    captures = sorted(captures, key=lambda c: (c["site"], c["timestamp"]))
    _write_lines(out / "archive" / "captures.jsonl",
                 [json.dumps(c, sort_keys=True) for c in captures])


def _write_sites(out: Path, fake: list[str], real: list[str]) -> None:
    _write_lines(out / "inputs" / "fake_sites.txt", ["# benchmark fake cohort"] + fake)
    _write_lines(out / "inputs" / "real_sites.txt", real)


def gen_crawl_census(out: Path, seed: int) -> dict:
    """Sites over 21 years with sparse captures, many of them dead."""
    rng = random.Random(f"crawl-census:{seed}")
    fake = site_names(rng, "f", CENSUS_FAKE)
    real = site_names(rng, "r", CENSUS_REAL)
    runs, groups = plant_uptime(rng, fake, n_twin_groups=12)
    lo, hi = month_index(*CRAWL_WINDOW[0]), month_index(*CRAWL_WINDOW[1])

    # Capture counts follow the site's position, not the seed, so every
    # seed crawls (nearly) the same number of snapshots.
    annotations, captures = ["domain,year,month,state"], []
    for n, site in enumerate(fake + real):
        if site in runs:
            first, last = runs[site]
            zombie = min(hi - last, rng.randint(1, 6)) if rng.random() < 0.2 else 0
            annotations += annotation_rows(rng, site, runs[site], zombie)
            tail = last + zombie + 1
        else:
            first = rng.randint(lo, hi - 24)
            last = min(hi, first + rng.randint(6, 120))
            tail = last + 1
        # 1-3 live captures inside the run; every fifth site has a month
        # captured twice
        live = sorted(rng.sample(range(first, last + 1), min(last - first + 1, 1 + n % 3)))
        for k, i in enumerate(live):
            page = fx._page(site, fx._text(rng, rng.randint(40, 90)), rng.sample(fx.FAKE_TRACKERS, 2))
            captures.append(_capture(site, timestamp(i, rng.randint(1, 14)), 200, page))
            if k == 0 and n % 5 == 0:
                captures.append(_capture(site, timestamp(i, 20), 200, page))
        # dead evidence after the run for three sites in five: archived
        # 404s and empty bodies
        if tail <= hi and n % 5 < 3:
            for i in sorted(rng.sample(range(tail, hi + 1), min(hi - tail + 1, 1 + n // 5 % 3))):
                status = 404 if rng.random() < 0.6 else 200
                captures.append(_capture(site, timestamp(i, rng.randint(1, 28)), status, b""))

    _write_sites(out, fake, real)
    _write_lines(out / "inputs" / "annotations.csv", annotations)
    _write_archive(out, captures)
    return {
        "workload": "crawl-census",
        "scale": {"sites": len(fake) + len(real), "fake_sites": len(fake),
                  "captures": len(captures), "months": hi - lo + 1},
        "expected": _expected_requests(captures, sorted(fake + real), seed),
        "alive_runs": runs,
        "uptime_twins": uptime_pairs(groups),
        "content_clusters": [],
    }


def _page_urls(rng: random.Random, site: str, trackers: list[str], month: int) -> list[str]:
    """5-30 embedded URLs, 13 on average: the site's trackers (some
    archive-rewritten), CDN assets and first-party resources.  The page
    template adds two more."""
    urls = []
    for url in trackers:
        if rng.random() < 0.3:
            y, m = index_month(month)
            url = f"/web/{y:04d}{m:02d}15000000js_/{url}"
        urls.append(url)
    total = 5 + int(25 * rng.random() ** 2)
    for k in range(max(0, total - 2 - len(urls))):
        kind = rng.random()
        if kind < 0.4:
            urls.append(rng.choice(CDN_URLS))
        elif kind < 0.6:
            urls.append(f"https://www.{site}/static/app{k}.js")
        elif kind < 0.75:
            urls.append(f"//static.{site}/img/{k}.png")
        elif kind < 0.9:
            urls.append(f"/assets/{k}.css")
        else:
            y, m = index_month(month)
            urls.append(f"https://web.archive.org/web/{y:04d}{m:02d}01000000im_/"
                        f"{rng.choice(CDN_URLS)}")
    rng.shuffle(urls)
    return urls


def gen_content_reanalyze(out: Path, seed: int) -> dict:
    """Full landing pages for every site-month, with planted copy clusters
    (disjoint fake-site trios serving one text for 2-4 consecutive months)."""
    rng = random.Random(f"content-reanalyze:{seed}")
    fake = site_names(rng, "f", CONTENT_FAKE)
    real = site_names(rng, "r", CONTENT_REAL)
    sites = sorted(fake + real)
    runs, groups = plant_uptime(rng, sites, n_twin_groups=6)
    year, first_month, n_months = CONTENT_MONTHS
    months = [month_index(year, first_month) + k for k in range(n_months)]

    trackers = {}
    for site in fake + real:
        pool = fx.FAKE_TRACKERS if site in fake else fx.REAL_TRACKERS
        chosen = rng.sample(pool, rng.randint(1, len(pool)))
        if rng.random() < 0.15:
            chosen.append(EXTRA_TRACKER)
        trackers[site] = sorted(chosen)

    copy_text, clusters = {}, []
    pool = list(fake)
    rng.shuffle(pool)
    for g in range(5):
        members = sorted(pool[3 * g:3 * g + 3])
        length = rng.randint(2, 4)
        start = rng.randint(0, n_months - length)
        cluster_months = months[start:start + length]
        for i in cluster_months:
            text = fx._text(random.Random(f"copy:{seed}:{g}:{i}"))
            for site in members:
                copy_text[(site, i)] = text
        clusters.append({"sites": members,
                         "months": [f"{index_month(i)[0]:04d}-{index_month(i)[1]:02d}"
                                    for i in cluster_months]})

    annotations, captures = ["domain,year,month,state"], []
    for site in sites:
        annotations += annotation_rows(rng, site, runs[site], 0)
        for i in months:
            text = copy_text.get((site, i)) or fx._text(rng)
            page = fx._page(site, text, _page_urls(rng, site, trackers[site], i))
            captures.append(_capture(site, timestamp(i, rng.randint(1, 28)), 200, page))

    def coverage(cohort):
        per = {}
        for site in cohort:
            for url in trackers[site]:
                per.setdefault(TRACKER_DOMAINS[url], set()).add(site)
        return per

    fake_cov, real_cov = coverage(fake), coverage(real)
    _write_sites(out, fake, real)
    _write_lines(out / "inputs" / "annotations.csv", annotations)
    _write_lines(out / "inputs" / "filters.txt", fx.FILTER_LIST.splitlines())
    _write_archive(out, captures)
    return {
        "workload": "content-reanalyze",
        "scale": {"sites": len(sites), "fake_sites": len(fake), "months": n_months,
                  "documents_per_month": len(sites), "captures": len(captures)},
        "expected": _expected_requests(captures, sites, seed),
        "alive_runs": runs,
        "uptime_twins": uptime_pairs(groups),
        "content_clusters": sorted(clusters, key=lambda c: (c["months"][0], c["sites"])),
        "trackers_fake": sorted(fake_cov),
        "tracker_coverage": {
            t: {"fake": len(fake_cov.get(t, ())) / len(fake),
                "real": len(real_cov.get(t, ())) / len(real)}
            for t in sorted(set(fake_cov) | set(real_cov))
        },
    }


# Rows the loader must reject, one per kind of invalid value.
MALFORMED_ROWS = {
    "bounce_rate": "150",
    "label": "maybe",
    "global_rank": "-3",
    "src_direct": "90",
    "edu_backlinks": "999999999",
    "domain": "not a domain",
}


def gen_traffic_classify(out: Path, seed: int) -> dict:
    """Labelled profiles (rank-banded and separable), malformed rows, and
    unlabelled profiles to score."""
    rng = random.Random(f"traffic-classify:{seed}")
    train = []
    for i in range(TRAIN_ROWS):
        label = "fake" if i % 2 == 0 else "real"
        if i % 4 < 2:
            band = (1, 9_999) if i % 8 < 4 else (10_001, 1_300_000)
            train.append(separable_profile(i, label, rng, rank_range=band))
        else:
            train.append(separable_profile(i, label, rng))
    inputs = out / "inputs"
    inputs.mkdir(parents=True, exist_ok=True)
    fx.write_traffic_csv(inputs / "traffic.csv", train)

    header, *rows = (inputs / "traffic.csv").read_text().splitlines()
    columns = header.split(",")
    for k, (column, bad) in enumerate(MALFORMED_ROWS.items()):
        cells = rows[k].split(",")
        cells[columns.index(column)] = bad
        if column != "domain":
            cells[0] = f"malformed{k}.example.com"
        rows.append(",".join(cells))
    _write_lines(inputs / "traffic.csv", [header] + rows)

    to_score = [separable_profile(TRAIN_ROWS + i, "fake" if i % 2 else "real", rng)
                for i in range(PREDICT_ROWS)]
    fx.write_traffic_csv(inputs / "predict.csv", to_score, blank_labels=True)
    return {
        "workload": "traffic-classify",
        "scale": {"train_rows": TRAIN_ROWS, "malformed_rows": len(MALFORMED_ROWS),
                  "predict_rows": PREDICT_ROWS},
        "expected": {"rows_loaded": TRAIN_ROWS, "rows_rejected": len(MALFORMED_ROWS),
                     "f1_floor": 0.95},
        "predict_sites": [p.site for p in to_score],
    }


GENERATORS = {
    "crawl-census": gen_crawl_census,
    "content-reanalyze": gen_content_reanalyze,
    "traffic-classify": gen_traffic_classify,
}


def generate(workload: str, seed: int, out: Path) -> dict:
    """Write one workload's corpus under out and return its ground truth."""
    truth = GENERATORS[workload](out, seed)
    truth["seed"] = seed
    (out / "truth.json").write_text(json.dumps(truth, sort_keys=True, indent=1) + "\n")
    return truth


def tree_sha256(root: Path) -> str:
    """Digest of every file's relative path and bytes under root."""
    digest = hashlib.sha256()
    for path in sorted(p for p in root.rglob("*") if p.is_file()):
        rel = path.relative_to(root).as_posix()
        digest.update(rel.encode() + b"\0" + path.read_bytes() + b"\0")
    return digest.hexdigest()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)
    generate(args.workload, args.seed, args.out)
    print(tree_sha256(args.out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
