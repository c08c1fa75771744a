"""Stub of a count-only literature search endpoint, run as its own process.

    python3 -B bench/stub.py --seed N

It prints ``PORT <n>`` once it listens on 127.0.0.1, then serves until it
is terminated.  Each search request is parsed into its phrases and
date window and answered from :class:`inputs.RemoteCountModel`; a request
that does not parse, or names a phrase the model does not know, is
answered with HTTP 400 and counted as unmatched.  A seeded share
(``REMOTE_FAILURE_SHARE``) of first requests for a query string is
answered 429 or 503 instead; retries of that string are always answered,
so the client never exhausts its attempts.  ``GET /stats`` returns as JSON
the number of requests, of distinct query strings, of injected failures
and of unmatched requests.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
import threading
from datetime import date
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path
from urllib.parse import parse_qs, urlparse

sys.path.insert(0, str(Path(__file__).resolve().parent))

from inputs import REMOTE_FAILURE_SHARE, RemoteCountModel, seeded_unit  # noqa: E402

_QUERY_RE = re.compile(
    r'((?:"[^"]+" AND )*)\(FIRST_PDATE:\[(\d{4}-\d{2}-\d{2}) TO (\d{4}-\d{2}-\d{2})\]\)'
)
_PHRASE_RE = re.compile(r'"([^"]+)" AND ')
EXPECTED_PARAMS = {"format": "json", "resultType": "lite", "pageSize": "0"}


def answer(model: RemoteCountModel, params: dict[str, str]) -> int | None:
    """Hit count for one request's parameters, or None if it does not match."""
    if any(params.get(k) != v for k, v in EXPECTED_PARAMS.items()):
        return None
    match = _QUERY_RE.fullmatch(params.get("query", ""))
    if match is None:
        return None
    phrases = _PHRASE_RE.findall(match.group(1))
    try:
        start, end = date.fromisoformat(match.group(2)), date.fromisoformat(match.group(3))
    except ValueError:
        return None
    if len(phrases) == 0:
        return model.article_count(start, end)
    if len(phrases) == 1:
        return model.count(phrases[0], start, end)
    if len(phrases) == 2:
        return model.count_both(phrases[0], phrases[1], start, end)
    return None


class _Handler(BaseHTTPRequestHandler):
    protocol_version = "HTTP/1.1"
    # Headers and body go out in separate writes; without this, Nagle's
    # algorithm and delayed ACKs stall every keep-alive response by ~40 ms.
    disable_nagle_algorithm = True

    def _send(self, status: int, body: bytes, content_type: str = "application/json") -> None:
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def do_GET(self) -> None:
        server = self.server
        parsed = urlparse(self.path)
        if parsed.path == "/stats":
            with server.lock:
                body = json.dumps({**server.stats, "distinct": len(server.seen)}).encode()
            self._send(200, body)
            return
        params = {k: v[0] for k, v in parse_qs(parsed.query).items()}
        query = params.get("query", "")
        with server.lock:
            server.stats["requests"] += 1
            first_sight = query not in server.seen
            server.seen.add(query)
        if first_sight and seeded_unit(server.model.seed, "fail", query) < REMOTE_FAILURE_SHARE:
            status = 429 if seeded_unit(server.model.seed, "status", query) < 0.5 else 503
            with server.lock:
                server.stats["injected"] += 1
            self._send(status, b"injected failure", "text/plain")
            return
        count = answer(server.model, params)
        if count is None:
            with server.lock:
                server.stats["unmatched"] += 1
            self._send(400, b"unmatched query", "text/plain")
            return
        body = json.dumps({"version": "6.9", "hitCount": count, "resultList": {"result": []}})
        self._send(200, body.encode())

    def log_message(self, fmt, *args) -> None:
        pass


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, required=True)
    args = parser.parse_args()
    httpd = ThreadingHTTPServer(("127.0.0.1", 0), _Handler)
    httpd.daemon_threads = True
    httpd.model = RemoteCountModel(args.seed)
    httpd.lock = threading.Lock()
    httpd.seen = set()
    httpd.stats = {"requests": 0, "injected": 0, "unmatched": 0}
    print(f"PORT {httpd.server_address[1]}", flush=True)
    try:
        httpd.serve_forever()
    finally:
        httpd.server_close()


if __name__ == "__main__":
    main()
