"""The HTTP face of the query service: a minimal HTTP/1.1 keep-alive loop.

``QueryServer`` wraps a :class:`~repro.serve.service.QueryService` in a
``socketserver.ThreadingTCPServer``: one handler thread per connection,
JSON in and out.  The handler speaks the subset of HTTP/1.1 a query
daemon needs — ``GET``/``POST``, request line and headers split by hand,
only ``Content-Length``, ``Connection``, ``Expect: 100-continue`` and (to
refuse it) ``Transfer-Encoding`` interpreted, keep-alive by default,
HTTP/1.0 and ``Connection: close`` honoured — and every response leaves
in **one** ``sendall``: status line, ``Server``, ``Date`` (formatted once
a second), ``Content-Type``, ``Content-Length`` [, ``Retry-After``],
body.  ``curl``, ``http.client`` or any other HTTP client works with it.

Framing is what the loop is strict about.  A request that cannot be
consumed to its end (a ``Content-Length`` that is not a plain number or
is past ``_MAX_BODY_BYTES``, a body that stops early, an over-long line,
too many headers, a chunked body, a method other than GET/POST) is
answered once, with ``Connection: close``, and the connection closes
behind the answer: leftover bytes are never parsed as the next request.

Endpoints::

    GET  /healthz                  liveness: {"status": "ok" | "draining"},
                                   always 200 while the process can answer
    GET  /readyz                   readiness: actively re-verifies every
                                   store's on-disk bytes; 200 when at least
                                   one store is healthy and not draining,
                                   503 (+ Retry-After) otherwise
    GET  /stats                    server/result-cache/plan-cache/kernel stats
    GET  /query?q=//NP&count=1     query via the query string
    POST /query                    {"query": ..., "dialect": ..., "pivot": ...,
                                    "count": ..., "limit": ..., "offset": ...,
                                    "top_k": ..., "agg": ...,
                                    "store": ..., "timeout_ms": ...}
    POST /batch                    {"queries": ["//NP", {"query": ...,
                                    "top_k": ..., "agg": ...}, ...], plus
                                    batch-wide dialect/store/pivot/timeout_ms}
                                   -> NDJSON stream, one document per query
                                   as it completes (shared-scan execution),
                                   then a summary document

Every error is a JSON document ``{"error": "..."}`` with the status the
service chose (400 bad request, 404 unknown store/path, 429 over
capacity or breaker open, 503 draining/closed/quarantined, 504
deadline) — clients never see a traceback.  Transient errors (429/503)
carry ``"transient": true`` and, when the service knows how long the
condition lasts, a ``Retry-After`` header in seconds.  A result page
past ``_CHUNK_BYTES`` follows its first write in bounded slices.

The ``socket_reset`` fault point (:mod:`repro.faults`) bites here: a
fired checkpoint abandons a ``/query``/``/batch`` response before a
byte is written, so clients exercise their reconnect-and-retry path
against a real dropped connection.  ``/healthz`` is deliberately out of
its blast radius — liveness must stay honest under chaos.
"""

from __future__ import annotations

import json
import socket
import socketserver
import struct
import sys
import threading
import time
from http import HTTPStatus
from urllib.parse import parse_qsl

from ..faults import maybe_reset_socket
from ..lpath.errors import LPathError
from .service import Answer, QueryService, ServeError
from .wire import MAX_LINE, BadMessage, read_headers

#: Socket-write granularity for big pages.
_CHUNK_BYTES = 64 * 1024
#: Request bodies past this are refused (a query is text, not a corpus).
_MAX_BODY_BYTES = 1 << 20
#: After refusing a request unread, swallow what the peer is still
#: sending for at most this long (twice that, if the peer stalls).
_LINGER_SECONDS = 1.0

_ROUTES = ("/healthz", "/readyz", "/stats", "/query", "/batch", "/append")
_STATUS_LINES = {
    status.value: (
        f"HTTP/1.1 {status.value} {status.phrase}\r\n"
        "Server: repro-serve/1\r\n"
    ).encode("ascii")
    for status in HTTPStatus
}
_DAYS = ("Mon", "Tue", "Wed", "Thu", "Fri", "Sat", "Sun")
_MONTHS = ("Jan", "Feb", "Mar", "Apr", "May", "Jun",
           "Jul", "Aug", "Sep", "Oct", "Nov", "Dec")


class _Handler(socketserver.StreamRequestHandler):
    """One connection: read a request, answer it, repeat until either
    side asks to close or the framing can no longer be trusted."""

    # A streamed batch and a big page are several sends; with Nagle on,
    # their tails sit behind the peer's delayed ACK (~40ms).
    disable_nagle_algorithm = True

    # -- plumbing -----------------------------------------------------------

    @property
    def service(self) -> QueryService:
        return self.server.service  # type: ignore[attr-defined]

    def handle(self) -> None:
        self.close_connection = False
        try:
            while not self.close_connection:
                self._handle_one()
        except OSError:  # the peer went away; nobody left to answer
            pass

    def _head(self, status: int, content_type: bytes, framing: bytes) -> bytes:
        self.answered = True
        if self.server.verbose:  # type: ignore[attr-defined]
            sys.stderr.write(
                f"{self.client_address[0]} "
                f"{self.request_line.decode('latin-1').rstrip()!r} {status}\n"
            )
        return b"%b%bContent-Type: %b\r\n%b%b\r\n" % (
            _STATUS_LINES[status],
            self.server.date_header(),  # type: ignore[attr-defined]
            content_type,
            framing,
            b"Connection: close\r\n" if self.close_connection else b"",
        )

    def _respond(
        self, status: int, payload: "dict | Answer",
        retry_after: "float | None" = None,
    ) -> None:
        """Head and body leave in one ``sendall`` (one packet, one
        wake-up of the peer); only a page past ``_CHUNK_BYTES`` takes
        more, in bounded slices."""
        body = memoryview(
            payload.encode() if isinstance(payload, Answer)
            else json.dumps(payload).encode("utf-8")
        )
        framing = b"Content-Length: %d\r\n" % len(body)
        if retry_after is not None:
            # Whole seconds per RFC 9110; never 0, or clients busy-loop.
            framing += b"Retry-After: %d\r\n" % max(1, round(retry_after))
        head = self._head(status, b"application/json", framing)
        self.connection.sendall(head + body[:_CHUNK_BYTES])
        for start in range(_CHUNK_BYTES, len(body), _CHUNK_BYTES):
            self.connection.sendall(body[start:start + _CHUNK_BYTES])

    def _respond_stream(self, answers) -> None:
        """Stream NDJSON documents with chunked transfer encoding — one
        chunk, one ``sendall`` per document as each batch member
        completes, so clients see results incrementally."""
        self.connection.sendall(self._head(
            200, b"application/x-ndjson", b"Transfer-Encoding: chunked\r\n"
        ))
        for answer in answers:
            data = answer.encode()
            self.connection.sendall(b"%x\r\n%b\n\r\n" % (len(data) + 1, data))
        self.connection.sendall(b"0\r\n\r\n")

    def _abandon(self) -> None:
        """The fired ``socket_reset`` path: drop the connection without
        writing a byte, the way a crashed peer or a mid-flight network
        cut looks to the client."""
        self.close_connection = True
        try:
            # RST on close rather than FIN: the abrupt variant.
            self.connection.setsockopt(
                socket.SOL_SOCKET, socket.SO_LINGER, struct.pack("ii", 1, 0)
            )
        except OSError:  # pragma: no cover - best effort
            pass

    def _linger(self) -> None:
        """Half-close, then swallow what the peer is still sending.
        Closing a socket with unread bytes makes the kernel send RST,
        which can destroy the refusal just written before the peer reads
        it (and fails the peer's send with EPIPE)."""
        try:
            self.connection.shutdown(socket.SHUT_WR)
            self.connection.settimeout(_LINGER_SECONDS)
            deadline = time.monotonic() + _LINGER_SECONDS
            while self.connection.recv(_CHUNK_BYTES):
                if time.monotonic() > deadline:
                    break
        except OSError:
            pass

    # -- one request --------------------------------------------------------

    def _read_request(self, line: bytes) -> "tuple[str, str, dict]":
        """The rest of the request whose first line is ``line``:
        ``(method, route, params)``.  Raises :class:`BadMessage` when
        the request cannot be consumed to its end — the caller must then
        close, or the leftover bytes would be read as the next request."""
        if len(line) > MAX_LINE:
            raise BadMessage(414, "request line too long")
        words = line.decode("latin-1").split()
        if len(words) != 3 or not words[2].startswith("HTTP/1."):
            raise BadMessage(400, f"malformed request line {line[:80]!r}")
        method, target, version = words
        headers = read_headers(self.rfile)
        connection = headers.get("connection", "").lower()
        self.close_connection = "close" in connection or (
            version == "HTTP/1.0" and "keep-alive" not in connection
        )
        if "transfer-encoding" in headers:
            raise BadMessage(501, "chunked request bodies are not supported")
        declared = headers.get("content-length", "0")
        if not (declared.isascii() and declared.isdigit()):
            raise BadMessage(400, f"bad Content-Length {declared[:40]!r}")
        length = int(declared) if len(declared) <= 18 else _MAX_BODY_BYTES + 1
        if length > _MAX_BODY_BYTES:
            raise BadMessage(
                400, f"request body too large ({declared[:20]} bytes)"
            )
        if method not in ("GET", "POST"):
            raise BadMessage(501, f"unsupported method {method[:40]!r}")
        if headers.get("expect", "").lower() == "100-continue":
            # curl announces any body past 1 KiB this way and waits.
            self.connection.sendall(b"HTTP/1.1 100 Continue\r\n\r\n")
        raw = self.rfile.read(length)
        if len(raw) < length:
            raise BadMessage(400, "request body ended early")
        route, _, query = target.partition("?")
        if method == "GET":
            return method, route, dict(parse_qsl(query))
        try:
            body = json.loads((raw or b"{}").decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as error:
            raise ServeError(400, f"invalid JSON body: {error}")
        if not isinstance(body, dict):
            raise ServeError(400, "JSON body must be an object")
        return method, route, body

    def _handle_one(self) -> None:
        line = self.rfile.readline(MAX_LINE + 1)
        if not line:
            self.close_connection = True
            return
        started = time.perf_counter()
        route = None
        self.request_line = line
        self.answered = False
        try:
            method, route, params = self._read_request(line)
            if route in ("/query", "/batch") and maybe_reset_socket():
                self._abandon()
            elif route == "/healthz":
                self._respond(200, self.service.health())
            elif route == "/readyz":
                ready, payload = self.service.readiness()
                self._respond(
                    200 if ready else 503, payload,
                    retry_after=(
                        None if ready
                        else self.service.store_retry_after
                    ),
                )
            elif route == "/stats":
                self._respond(200, self.service.stats())
            elif route == "/query":
                self._respond(200, self.service.answer(params))
            elif route == "/batch":
                self._respond_stream(self.service.answer_batch(params))
            elif route == "/append":
                if method != "POST":
                    self._respond(
                        405, {"error": "/append takes POST with a JSON body"}
                    )
                else:
                    self._respond(200, self.service.execute_append(params))
            else:
                self._respond(404, {"error": f"unknown path {route!r}"})
        except BadMessage as error:
            self.close_connection = True
            self._respond(error.status, {"error": str(error)})
            self._linger()
        except ServeError as error:
            payload = {"error": str(error)}
            if error.transient:
                payload["transient"] = True
            self._respond(
                error.status, payload, retry_after=error.retry_after
            )
        except LPathError as error:
            self._respond(400, {"error": str(error)})
        except Exception as error:  # noqa: BLE001 — no tracebacks to clients
            if self.answered:
                # Mid-response (the client went away, a stream broke):
                # a second head would desynchronise what follows.
                self.close_connection = True
            else:
                self._respond(
                    500, {"error": f"{type(error).__name__}: {error}"}
                )
        finally:
            if route in _ROUTES:
                self.service.record_latency(
                    route, time.perf_counter() - started
                )


class _Server(socketserver.ThreadingTCPServer):
    allow_reuse_address = True
    daemon_threads = True

    def __init__(self, address, service: QueryService, verbose: bool) -> None:
        super().__init__(address, _Handler)
        self.service = service
        self.verbose = verbose
        self._date = (0, b"")

    def date_header(self) -> bytes:
        """The ``Date`` header line, formatted once a second rather than
        once a response (a race between threads costs a second format)."""
        second = int(time.time())
        if self._date[0] != second:
            now = time.gmtime(second)  # names by table: %a/%b follow the locale
            self._date = (second, time.strftime(
                f"Date: {_DAYS[now.tm_wday]}, %d {_MONTHS[now.tm_mon - 1]} "
                "%Y %H:%M:%S GMT\r\n", now,
            ).encode("ascii"))
        return self._date[1]


class QueryServer:
    """A query daemon bound to one address, serving one
    :class:`QueryService`.

    ``port=0`` binds an ephemeral port (tests and benchmarks); the bound
    address is ``url``.  :meth:`start` serves from a background thread
    (in-process tests, the load benchmark); :meth:`serve_forever` serves
    from the calling thread (the CLI).  :meth:`close` drains in-flight
    queries through the service before tearing the listener down, and is
    idempotent."""

    def __init__(
        self,
        service: QueryService,
        host: str = "127.0.0.1",
        port: int = 0,
        verbose: bool = False,
    ) -> None:
        self.service = service
        self._httpd = _Server((host, port), service, verbose)
        self._thread: "threading.Thread | None" = None
        self._serving = threading.Event()
        self._closed = False

    @property
    def host(self) -> str:
        return self._httpd.server_address[0]

    @property
    def port(self) -> int:
        return self._httpd.server_address[1]

    @property
    def url(self) -> str:
        return f"http://{self.host}:{self.port}"

    def serve_forever(self) -> None:
        """Serve from the calling thread until :meth:`close` (or, in the
        CLI, KeyboardInterrupt unwinds into a drained shutdown)."""
        self._serving.set()
        self._httpd.serve_forever(poll_interval=0.1)

    def start(self) -> "QueryServer":
        """Serve from a daemon background thread; returns self."""
        self._thread = threading.Thread(
            target=self.serve_forever, name="repro-serve-http", daemon=True
        )
        self._thread.start()
        return self

    def close(self, drain_timeout: float = 10.0) -> None:
        """Drain, then stop: new queries 503 immediately, running ones
        get ``drain_timeout`` seconds to finish, then the listener and
        every engine shut down.  Idempotent."""
        if self._closed:
            return
        self._closed = True
        self.service.close(drain_timeout=drain_timeout)
        if self._serving.is_set():
            # shutdown() handshakes with serve_forever; calling it when
            # the loop never ran would wait on an event nobody sets.
            self._httpd.shutdown()
        self._httpd.server_close()
        if self._thread is not None:
            self._thread.join(timeout=5.0)
            self._thread = None

    def __enter__(self) -> "QueryServer":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
