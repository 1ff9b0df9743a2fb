"""A dependency-free HTTP host for ASGI apps (the ``repro serve`` floor).

The serving tier's contract is "ASGI, hosted by whatever you have":
production deployments run the app under ``uvicorn``/``gunicorn``
(install the ``server`` extra; see ``examples/gunicorn.conf.py``), but
the library must serve real HTTP with **zero** third-party packages —
for ``repro serve`` out of the box, for the test suite, and for the
``bench_http`` gate. This module is that floor: a
:class:`~http.server.ThreadingHTTPServer` whose handler translates each
request into one ASGI ``http`` scope and drives the app coroutine to
completion on a per-request event loop.

One thread per connection pairs naturally with the engine's concurrency
model — reads are wait-free snapshot probes, so N concurrent connections
page N pinned snapshots without ever blocking on the writer. HTTP/1.1
keep-alive is supported (responses always carry ``Content-Length``), so
a session's reads ride one connection.

``asyncio.run`` per request would discard and rebuild an event loop each
time; the handler instead keeps one loop per *connection thread* (the
``threading.local`` below), which for keep-alive clients amortizes to
one loop per client.
"""

from __future__ import annotations

import asyncio
import json
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Optional, Tuple
from urllib.parse import urlsplit

_thread_loops = threading.local()


def _loop() -> asyncio.AbstractEventLoop:
    loop = getattr(_thread_loops, "loop", None)
    if loop is None or loop.is_closed():
        loop = asyncio.new_event_loop()
        _thread_loops.loop = loop
    return loop


class ASGIRequestHandler(BaseHTTPRequestHandler):
    """Translate one HTTP request into one ASGI ``http`` exchange."""

    protocol_version = "HTTP/1.1"
    #: Set by :func:`make_server`.
    asgi_app = None
    #: Quieten the default stderr access log (set True to restore it).
    log_requests = False

    def log_message(self, format, *args):  # noqa: A002 - stdlib signature
        if self.log_requests:  # pragma: no cover - debugging aid
            super().log_message(format, *args)

    def _handle(self) -> None:
        track = getattr(self.server, "track_request", None)
        if track is None:
            self._run_exchange()
            return
        if not track():
            # Draining: the server stopped admitting new work. Answer
            # quickly so clients re-resolve instead of hanging on a
            # half-closed socket.
            self._refuse(
                503, "server is draining; connection will not be served"
            )
            return
        try:
            self._run_exchange()
        finally:
            self.server.untrack_request()

    def _refuse(self, status: int, message: str) -> None:
        """Answer ``status`` with a JSON error and close the connection."""
        payload = json.dumps({"error": message}).encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(payload)))
        self.send_header("Connection", "close")
        self.end_headers()
        self.wfile.write(payload)
        self.close_connection = True

    def _run_exchange(self) -> None:
        # Content-Length is 1*DIGIT: a negative value would block the
        # read until the client hangs up, and garbage would raise.
        declared = (self.headers.get("Content-Length") or "0").strip()
        if not (declared.isascii() and declared.isdigit()):
            self._refuse(400, f"malformed Content-Length: {declared!r}")
            return
        length = int(declared)
        body = self.rfile.read(length) if length else b""
        split = urlsplit(self.path)
        scope = {
            "type": "http",
            "asgi": {"version": "3.0", "spec_version": "2.3"},
            "http_version": "1.1",
            "method": self.command,
            "scheme": "http",
            "path": split.path,
            "raw_path": self.path.encode("latin-1"),
            "query_string": split.query.encode("latin-1"),
            "root_path": "",
            "headers": [
                (name.lower().encode("latin-1"), value.encode("latin-1"))
                for name, value in self.headers.items()
            ],
            "client": self.client_address,
            "server": self.server.server_address[:2],
        }
        messages = [{"type": "http.request", "body": body, "more_body": False}]

        async def receive():
            if messages:
                return messages.pop(0)
            return {"type": "http.disconnect"}  # pragma: no cover

        response = {"status": 500, "headers": [], "body": bytearray()}

        async def send(message):
            if message["type"] == "http.response.start":
                response["status"] = message["status"]
                response["headers"] = message.get("headers", [])
            elif message["type"] == "http.response.body":
                response["body"] += message.get("body", b"")

        _loop().run_until_complete(self.asgi_app(scope, receive, send))

        payload = bytes(response["body"])
        self.send_response(response["status"])
        saw_length = False
        for name, value in response["headers"]:
            name = name.decode("latin-1")
            if name.lower() == "content-length":
                saw_length = True
            self.send_header(name, value.decode("latin-1"))
        if not saw_length:
            self.send_header("Content-Length", str(len(payload)))
        self.end_headers()
        self.wfile.write(payload)

    do_GET = do_POST = do_DELETE = do_PUT = do_PATCH = _handle


class ASGIServer(ThreadingHTTPServer):
    """One thread per connection; daemonic so tests/CLI exit cleanly.

    Supports **graceful drain**: :meth:`shutdown_gracefully` stops
    admitting new requests (late arrivals get a fast ``503`` with
    ``Connection: close``), waits for every in-flight request to send
    its response (bounded by a timeout), then shuts the listener down —
    so stopping ``repro serve`` never tears a response mid-body.
    """

    daemon_threads = True
    allow_reuse_address = True

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._inflight = 0
        self._draining = False
        self._drain_cv = threading.Condition()

    def track_request(self) -> bool:
        """Admit one request; ``False`` when the server is draining."""
        with self._drain_cv:
            if self._draining:
                return False
            self._inflight += 1
            return True

    def untrack_request(self) -> None:
        with self._drain_cv:
            self._inflight -= 1
            if self._inflight == 0:
                self._drain_cv.notify_all()

    @property
    def inflight(self) -> int:
        """Requests currently being served (observability/tests)."""
        with self._drain_cv:
            return self._inflight

    def drain(self, timeout: Optional[float] = None) -> bool:
        """Stop admitting requests; wait for in-flight ones to finish.

        Returns ``True`` when the server went idle within ``timeout``
        (``None`` waits indefinitely), ``False`` if requests were still
        running when the deadline passed — the caller decides whether to
        shut down anyway (the CLI does, after logging).
        """
        with self._drain_cv:
            self._draining = True
            return self._drain_cv.wait_for(
                lambda: self._inflight == 0, timeout=timeout
            )

    def shutdown_gracefully(self, timeout: Optional[float] = 10.0) -> bool:
        """:meth:`drain` then :meth:`shutdown`; returns the drain verdict."""
        drained = self.drain(timeout=timeout)
        self.shutdown()
        return drained


def make_server(app, host: str = "127.0.0.1", port: int = 8000) -> ASGIServer:
    """Bind an :class:`ASGIServer` hosting ``app`` (``port=0`` picks a
    free port; read it back from ``server.server_address``)."""
    handler = type("BoundASGIRequestHandler", (ASGIRequestHandler,), {
        "asgi_app": staticmethod(app),
    })
    return ASGIServer((host, port), handler)


def serve(
    app,
    host: str = "127.0.0.1",
    port: int = 8000,
    drain_timeout: Optional[float] = 10.0,
) -> None:
    """Host ``app`` forever on the stdlib bridge (blocking).

    ``KeyboardInterrupt`` (the ``repro serve`` stop signal) drains
    gracefully: no new requests are admitted and in-flight responses
    get up to ``drain_timeout`` seconds to finish before the listener
    closes.
    """
    with make_server(app, host, port) as server:
        try:
            server.serve_forever()
        except KeyboardInterrupt:
            # serve_forever already returned; only the in-flight
            # handler threads remain — wait them out.
            server.drain(timeout=drain_timeout)


def start_background(
    app, host: str = "127.0.0.1", port: int = 0
) -> Tuple[ASGIServer, threading.Thread, int]:
    """Host ``app`` on a daemon thread; returns ``(server, thread, port)``.

    The test-suite and benchmark entry point: bind (an ephemeral port by
    default), serve until ``server.shutdown()``.
    """
    server = make_server(app, host, port)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    return server, thread, server.server_address[1]
