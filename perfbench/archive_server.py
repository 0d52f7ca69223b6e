"""Fixture web archive for the benchmark, run as its own process.

Speaks the two endpoints of ``tests/fixture_corpus.serve``: the CDX index
(``/cdx/search/cdx?url=<site>&output=json``) and raw snapshots
(``/web/<timestamp>id_/<original url>``), over HTTP/1.1 keep-alive
connections, handling at most one request per CPU at once.  A
seeded, fixed share of first attempts gets a transient 503, so the
client's retry path runs and its cost is known in advance.

Two control endpoints, not counted as archive requests:
``/_bench/stats`` returns the counts since the last reset as JSON, and
``/_bench/reset`` zeroes them and forgets which keys were attempted, so
each pipeline pass sees the same injected failures.

    python3 perfbench/archive_server.py --captures FILE --seed N
prints ``port <n>`` once it accepts connections and serves until its
standard input closes, so it never outlives the benchmark that started it.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from urllib.parse import parse_qsl, urlsplit

FAIL_SHARE = 0.03


def injects_503(seed: int, key: str, share: float = FAIL_SHARE) -> bool:
    """Whether the first attempt at key gets a 503; same answer every time."""
    digest = hashlib.sha256(f"{seed}:{key}".encode()).digest()
    return int.from_bytes(digest[:8], "big") < share * 2**64


class Archive:
    """Captures by site plus per-pass request accounting."""

    def __init__(self, captures: list[dict], seed: int, share: float = FAIL_SHARE):
        self.seed = seed
        self.share = share
        self.by_site: dict[str, list[dict]] = {}
        self.bodies: dict[tuple[str, str], tuple[int, bytes]] = {}
        for c in sorted(captures, key=lambda c: (c["site"], c["timestamp"])):
            self.by_site.setdefault(c["site"], []).append(c)
            self.bodies[(c["site"], c["timestamp"])] = (c["status"], c["body"].encode())
        self.lock = threading.Lock()
        self.reset()

    def reset(self) -> None:
        with self.lock:
            self.attempted: set[str] = set()
            self.counts = {"requests": 0, "cdx": 0, "snapshots": 0,
                           "injected_503_cdx": 0, "injected_503_snapshot": 0}

    def stats(self) -> dict:
        with self.lock:
            return dict(self.counts)

    def _first_attempt_fails(self, key: str, kind: str) -> bool:
        with self.lock:
            self.counts["requests"] += 1
            first = key not in self.attempted
            self.attempted.add(key)
            if first and injects_503(self.seed, key, self.share):
                self.counts[f"injected_503_{kind}"] += 1
                return True
            self.counts["cdx" if kind == "cdx" else "snapshots"] += 1
            return False

    def cdx(self, site: str) -> tuple[int, bytes]:
        if self._first_attempt_fails(f"cdx:{site}", "cdx"):
            return 503, b"try again"
        rows = [["timestamp", "original", "statuscode", "mimetype"]]
        for c in self.by_site.get(site, []):
            rows.append([c["timestamp"], c["original"], str(c["status"]), "text/html"])
        return 200, json.dumps(rows).encode()

    def snapshot(self, ts: str, original: str) -> tuple[int, bytes]:
        if self._first_attempt_fails(f"web:{ts}/{original}", "snapshot"):
            return 503, b"try again"
        site = urlsplit(original).hostname or ""
        return self.bodies.get((site, ts), (404, b""))


def make_server(archive: Archive, max_active: int, port: int = 0) -> ThreadingHTTPServer:
    slots = threading.BoundedSemaphore(max_active)

    class Handler(BaseHTTPRequestHandler):
        protocol_version = "HTTP/1.1"  # keep-alive, as the real archive
        disable_nagle_algorithm = True  # headers and body leave in separate writes
        timeout = 60  # drop connections a finished client left open

        def log_message(self, *args):
            pass

        def _send(self, status: int, body: bytes, content_type: str = "text/html"):
            self.send_response(status)
            self.send_header("Content-Type", content_type)
            self.send_header("Content-Length", str(len(body)))
            self.end_headers()
            self.wfile.write(body)

        def do_GET(self):
            split = urlsplit(self.path)
            if split.path == "/_bench/stats":
                self._send(200, json.dumps(archive.stats()).encode(), "application/json")
            elif split.path == "/_bench/reset":
                archive.reset()
                self._send(200, b"{}", "application/json")
            elif split.path == "/cdx/search/cdx":
                with slots:
                    site = dict(parse_qsl(split.query)).get("url", "")
                    self._send(*archive.cdx(site), "application/json")
            elif split.path.startswith("/web/"):
                ts, _, original = split.path[len("/web/"):].partition("id_/")
                with slots:
                    self._send(*archive.snapshot(ts, original))
            else:
                self._send(404, b"no such endpoint")

    server = ThreadingHTTPServer(("127.0.0.1", port), Handler)
    server.daemon_threads = True
    return server


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Fixture web archive for the benchmark.")
    parser.add_argument("--captures", required=True, help="captures.jsonl from corpus.py")
    parser.add_argument("--seed", type=int, required=True)
    args = parser.parse_args(argv)
    with open(args.captures, encoding="utf-8") as fh:
        captures = [json.loads(line) for line in fh if line.strip()]
    server = make_server(Archive(captures, args.seed), os.cpu_count() or 1)
    print(f"port {server.server_port}", flush=True)
    serving = threading.Thread(target=server.serve_forever, daemon=True)
    serving.start()
    try:
        sys.stdin.read()  # returns at EOF: the parent closed the pipe or died
    finally:
        server.shutdown()
        server.server_close()
        serving.join(timeout=10)
    return 0


if __name__ == "__main__":
    sys.exit(main())
