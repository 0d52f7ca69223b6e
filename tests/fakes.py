"""In-memory transport and clock doubles for archive-client tests."""

from __future__ import annotations

import json
from urllib.parse import parse_qsl, urlsplit

from newsforensics.archive import Response


class FakeSession:
    """Duck-typed archive.HttpSession serving canned responses.

    Routes are keyed by exact URL path (CDX queries match on the
    ``url=`` parameter instead).  Every request is recorded with its
    arrival time from the injected clock.
    """

    def __init__(self, clock=None):
        self.cdx: dict[str, Response] = {}
        self.snapshots: dict[str, Response] = {}
        self.failures_remaining = 0
        self.requests: list[tuple[float, str]] = []
        self._clock = clock or (lambda: 0.0)

    def route_cdx(self, site: str, rows: list[list], header=True):
        payload = ([["timestamp", "original", "statuscode", "mimetype"]] if header else []) + rows
        self.cdx[site] = Response(200, json.dumps(payload).encode())

    def route_cdx_raw(self, site: str, response: Response):
        self.cdx[site] = response

    def route_snapshot(self, path: str, response: Response):
        self.snapshots[path] = response

    def get(self, url, params=None):
        split = urlsplit(url)
        self.requests.append((self._clock(), split.path))
        if self.failures_remaining > 0:
            self.failures_remaining -= 1
            raise ConnectionError("synthetic transport failure")
        if split.path.endswith("/cdx/search/cdx"):
            site = dict(parse_qsl(split.query) if split.query else (params or {}).items())["url"]
            return self.cdx.get(site, Response(200, b""))
        return self.snapshots.get(split.path, Response(404, b""))

    def close(self):
        pass

    def snapshot_request_count(self) -> int:
        return sum(1 for _, path in self.requests if "/web/" in path)


class VirtualClock:
    """Monotonic fake time; sleeping advances it instantly."""

    def __init__(self):
        self.now = 0.0

    def __call__(self) -> float:
        return self.now

    def sleep(self, seconds: float) -> None:
        assert seconds >= 0
        self.now += seconds
