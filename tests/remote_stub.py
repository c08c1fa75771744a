"""In-process HTTP stub that mimics a count-only literature search endpoint.

Serves JSON bodies shaped like the real service's count responses and keeps
a thread-safe log of every request (its parameters and headers) and of every
accepted connection, so tests can assert on traffic volume and keep-alive.
Connections stay open between requests (HTTP/1.1), and every response
carries a Content-Length so a keep-alive client knows where it ends.
"""

from __future__ import annotations

import json
import socket
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from urllib.parse import parse_qs, urlparse


class _Handler(BaseHTTPRequestHandler):
    protocol_version = "HTTP/1.1"
    # Headers and body go out in separate writes; with Nagle's algorithm and
    # delayed ACKs each keep-alive response would stall for ~40 ms.
    disable_nagle_algorithm = True

    def setup(self):
        super().setup()
        with self.server.lock:
            self.server.connections.append(self.connection)

    def do_GET(self):
        server = self.server
        parsed = urlparse(self.path)
        params = {k: v[0] for k, v in parse_qs(parsed.query).items()}
        with server.lock:
            server.requests.append(params)
            server.headers.append(dict(self.headers))
            planned = server.failure_plan.pop(0) if server.failure_plan else None
        if planned is not None:
            body = b"injected failure"
            self.send_response(planned)
            if 300 <= planned < 400:
                self.send_header("Location", server.redirect_location)
            self.send_header("Content-Type", "text/plain")
            self.send_header("Content-Length", str(len(body)))
            self.end_headers()
            self.wfile.write(body)
            return
        if server.body is not None:
            body = server.body
        else:
            query = params.get("query", "")
            if server.answer is not None:
                count = server.answer(query)
            else:
                count = server.responses.get(query, server.default_count)
            payload = {
                "version": "6.9",
                "hitCount": count,
                "request": {"queryString": query, "resultType": "lite", "pageSize": 0},
                "resultList": {"result": []},
            }
            body = json.dumps(payload).encode("utf-8")
        self.send_response(200)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def log_message(self, fmt, *args):
        pass


class CountingStubServer:
    """Context manager running the stub on an ephemeral localhost port."""

    def __init__(self, responses=None, default_count=0):
        self._httpd = ThreadingHTTPServer(("127.0.0.1", 0), _Handler)
        # Do not wait at close for handlers of connections a client still holds.
        self._httpd.block_on_close = False
        self._httpd.connections = []
        self._httpd.headers = []
        self._httpd.redirect_location = "http://moved.invalid/search"
        self._httpd.responses = dict(responses or {})
        self._httpd.default_count = default_count
        self._httpd.answer = None
        self._httpd.requests = []
        self._httpd.failure_plan = []
        self._httpd.body = None
        self._httpd.lock = threading.Lock()
        # Poll for shutdown often, so leaving the context costs no half second.
        self._thread = threading.Thread(
            target=self._httpd.serve_forever, kwargs={"poll_interval": 0.01}, daemon=True
        )

    @property
    def url(self) -> str:
        host, port = self._httpd.server_address
        return f"http://{host}:{port}/search"

    @property
    def requests(self):
        with self._httpd.lock:
            return list(self._httpd.requests)

    @property
    def request_count(self) -> int:
        with self._httpd.lock:
            return len(self._httpd.requests)

    @property
    def request_headers(self):
        with self._httpd.lock:
            return list(self._httpd.headers)

    @property
    def connection_count(self) -> int:
        """Connections accepted so far."""
        with self._httpd.lock:
            return len(self._httpd.connections)

    def drop_connections(self) -> None:
        """Close the server side of every accepted connection, as an idle timeout would."""
        with self._httpd.lock:
            connections = list(self._httpd.connections)
        for conn in connections:
            try:
                conn.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass  # already closed

    def plan_failures(self, *statuses: int) -> None:
        """Answer the next requests with these statuses; a 3xx names a Location."""
        with self._httpd.lock:
            self._httpd.failure_plan.extend(statuses)

    def set_body(self, body: bytes | None) -> None:
        """Answer every 200 with these bytes, or with the counts again for None."""
        self._httpd.body = body

    def set_answer(self, answer) -> None:
        """Count each query as ``answer(query)`` from now on, not from the responses."""
        self._httpd.answer = answer

    def set_response(self, query: str, count: int) -> None:
        with self._httpd.lock:
            self._httpd.responses[query] = count

    def __enter__(self):
        self._thread.start()
        return self

    def __exit__(self, *exc_info):
        self._httpd.shutdown()
        self.drop_connections()
        self._httpd.server_close()
        self._thread.join(timeout=5)
        return False
