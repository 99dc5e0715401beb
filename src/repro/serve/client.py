"""A small stdlib client for the query daemon.

One :class:`ServeClient` holds one persistent HTTP/1.1 connection (the
daemon keeps connections alive), auto-paginates result sets, and turns
server error documents into :class:`ServeClientError` — an
:class:`~repro.lpath.errors.LPathError`, so the CLI reports daemon
failures through the same clean one-line path as local engine errors.

The connection is a plain socket, the mirror image of the daemon's
loop: a request is one ``sendall`` (request line, headers and JSON body
together); the response is read through a buffered reader — status
line, headers split by hand, a body framed by ``Content-Length``, by
chunked transfer encoding (``/batch``) or by the server closing.  An
announced close (``Connection: close``, HTTP/1.0) is not a failure.

The transport is fault-tolerant in two layers:

1. A request that dies on a **reused** keep-alive connection before any
   response arrives is retried once immediately on a fresh connection.
   A stale keep-alive (the daemon restarted, or an idle connection
   timed out under the client) says nothing about server health, so the
   free retry doesn't consume a backoff attempt — and because the
   request never started executing, the retry can't double-execute
   anything.
2. Transport failures on a *fresh* connection and transient server
   answers (**429** overload/breaker, **503** draining/quarantine) are
   retried up to ``max_retries`` times with capped exponential backoff
   and deterministic jitter, honoring the server's ``Retry-After`` hint
   (clamped to ``backoff_cap`` so a chaos run can't stall a test
   suite).  Permanent errors (400/404) never retry.  ``max_retries=0``
   turns layer 2 off — load tests that count 429s byte-for-byte want
   exactly one attempt.

Not thread-safe: give each load-generator thread its own client (the
serving benchmark does exactly that).
"""

from __future__ import annotations

import json
import random
import socket
import time
from typing import Optional
from urllib.parse import urlencode, urlsplit

from ..lpath.errors import LPathError
from .wire import BadMessage, read_headers, read_line

#: Statuses worth retrying: the condition is declared transient by the
#: server (overload sheds, drains and quarantines end).
TRANSIENT_STATUSES = (429, 503)


class ServeClientError(LPathError):
    """An error response from the daemon (or a transport failure).

    ``transient`` mirrors the server's classification (transport
    failures count as transient: the daemon may simply be restarting);
    ``retry_after`` is the server's ``Retry-After`` hint in seconds when
    one was sent."""

    def __init__(
        self,
        status: int,
        message: str,
        transient: Optional[bool] = None,
        retry_after: Optional[float] = None,
    ) -> None:
        super().__init__(message)
        self.status = status
        if transient is None:
            transient = status == 0 or status in TRANSIENT_STATUSES
        self.transient = transient
        self.retry_after = retry_after


class ServeClient:
    """Query a running daemon at ``url`` (e.g. ``http://127.0.0.1:8411``).

    ``max_retries`` bounds the backoff layer (see the module doc);
    ``backoff_base``/``backoff_cap`` shape the exponential delay; the
    jitter stream is seeded (``retry_seed``) so a chaos matrix replays
    the same sleep schedule every run."""

    def __init__(
        self,
        url: str,
        timeout: float = 30.0,
        max_retries: int = 3,
        backoff_base: float = 0.05,
        backoff_cap: float = 2.0,
        retry_seed: int = 0,
    ) -> None:
        parts = urlsplit(url if "//" in url else f"http://{url}")
        if parts.scheme != "http" or not parts.hostname:
            raise ServeClientError(
                0, f"unsupported server url {url!r} (need http://host:port)"
            )
        if max_retries < 0:
            raise ServeClientError(
                0, f"max_retries must be >= 0, got {max_retries!r}"
            )
        self._host = parts.hostname
        self._port = parts.port or 80
        self._timeout = timeout
        self._sock: Optional[socket.socket] = None
        self._reader = None  # the buffered read side of ``_sock``
        self.max_retries = max_retries
        self.backoff_base = backoff_base
        self.backoff_cap = backoff_cap
        self._jitter = random.Random(retry_seed)
        #: Transport-level retry observability (tests assert on these).
        self.reconnects = 0
        self.backoffs = 0

    # -- transport ----------------------------------------------------------

    def _backoff_delay(
        self, attempt: int, retry_after: Optional[str]
    ) -> float:
        """Capped exponential backoff with deterministic jitter in
        [0.5x, 1.5x), raised to the server's ``Retry-After`` when that
        is larger (but never past the cap)."""
        delay = min(self.backoff_cap, self.backoff_base * (2 ** attempt))
        delay *= 0.5 + self._jitter.random()
        if retry_after:
            try:
                delay = max(delay, float(retry_after))
            except ValueError:
                pass
        return min(delay, self.backoff_cap)

    def _connect(self) -> None:
        sock = socket.create_connection(
            (self._host, self._port), timeout=self._timeout
        )
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self._sock, self._reader = sock, sock.makefile("rb")

    def _read(self, size: int) -> bytes:
        data = self._reader.read(size) if size >= 0 else b""
        if len(data) != size:
            raise BadMessage(0, "connection closed mid-response")
        return data

    def _exchange(self, request: bytes) -> "tuple[int, dict, bytes]":
        """One request out in one ``sendall``, one response back:
        ``(status, headers, body)``.  The body is framed by chunked
        transfer encoding, by ``Content-Length`` or — failing both — by
        the server closing."""
        self._sock.sendall(request)
        try:
            version, status = read_line(self._reader).split(None, 2)[:2]
            status = int(status)
            headers = read_headers(self._reader)
            closing = (
                version == b"HTTP/1.0"
                or "close" in headers.get("connection", "").lower()
            )
            if "chunked" in headers.get("transfer-encoding", "").lower():
                chunks = []
                while size := int(read_line(self._reader).split(b";")[0], 16):
                    chunks.append(self._read(size + 2)[:size])  # + CRLF
                while read_line(self._reader).strip():  # trailers, blank line
                    pass
                body = b"".join(chunks)
            elif "content-length" in headers:
                body = self._read(int(headers["content-length"]))
            else:
                body, closing = self._reader.read(), True
        except ValueError as error:
            raise BadMessage(0, f"malformed response: {error}") from None
        if closing:
            self.close()
        return status, headers, body

    def _roundtrip(
        self,
        method: str,
        path: str,
        payload: Optional[bytes],
        accept: str = "application/json",
        retry_transient: bool = True,
    ) -> "tuple[int, Optional[str], bytes]":
        """One HTTP exchange under the full retry policy; returns
        ``(status, Retry-After value, raw_body)`` for any status the
        policy lets through."""
        request = (
            f"{method} {path} HTTP/1.1\r\nHost: {self._host}:{self._port}\r\n"
            f"Accept: {accept}\r\n"
        )
        if payload is not None:
            request += (
                "Content-Type: application/json\r\n"
                f"Content-Length: {len(payload)}\r\n"
            )
        message = request.encode("latin-1") + b"\r\n" + (payload or b"")
        attempt = 0
        while True:
            fresh = self._sock is None
            try:
                if fresh:
                    self._connect()
                status, headers, raw = self._exchange(message)
            except OSError as error:
                self.close()
                if not fresh:
                    # Stale keep-alive: retry immediately on a fresh
                    # connection, outside the backoff budget.
                    self.reconnects += 1
                    continue
                if not retry_transient or attempt >= self.max_retries:
                    raise ServeClientError(
                        0,
                        f"cannot reach daemon at "
                        f"http://{self._host}:{self._port}: {error}",
                    )
                self.backoffs += 1
                time.sleep(self._backoff_delay(attempt, None))
                attempt += 1
                continue
            retry_after = headers.get("retry-after")
            if (
                retry_transient
                and status in TRANSIENT_STATUSES
                and attempt < self.max_retries
            ):
                self.backoffs += 1
                time.sleep(self._backoff_delay(attempt, retry_after))
                attempt += 1
                continue
            return status, retry_after, raw

    @staticmethod
    def _error(
        status: int, retry_after: Optional[str], document
    ) -> "ServeClientError":
        message = document.get("error", "") if isinstance(document, dict) \
            else str(document)
        return ServeClientError(
            status,
            f"daemon error {status}: {message}",
            transient=(
                document.get("transient")
                if isinstance(document, dict) and "transient" in document
                else None
            ),
            retry_after=float(retry_after) if retry_after else None,
        )

    def _request(
        self,
        method: str,
        path: str,
        body: Optional[dict] = None,
        retry_transient: bool = True,
        answers: tuple = (200,),
    ):
        """One JSON exchange; a status outside ``answers`` raises."""
        payload = None if body is None else json.dumps(body).encode("utf-8")
        status, retry_after, raw = self._roundtrip(
            method, path, payload, retry_transient=retry_transient
        )
        try:
            document = json.loads(raw.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError):
            raise ServeClientError(
                status, f"daemon returned non-JSON ({status}): {raw[:200]!r}"
            )
        if status not in answers:
            raise self._error(status, retry_after, document)
        return document

    def _request_ndjson(
        self, method: str, path: str, body: Optional[dict] = None
    ) -> list[dict]:
        """Like :meth:`_request`, but for NDJSON streaming endpoints:
        the de-chunked body is split on newlines and each line parsed as
        its own document.  Error responses are plain JSON and surface
        exactly as they do for ``_request``."""
        payload = None if body is None else json.dumps(body).encode("utf-8")
        status, retry_after, raw = self._roundtrip(
            method, path, payload, accept="application/x-ndjson"
        )
        try:
            documents = [
                json.loads(line)
                for line in raw.decode("utf-8").splitlines()
                if line.strip()
            ]
        except (UnicodeDecodeError, json.JSONDecodeError):
            raise ServeClientError(
                status,
                f"daemon returned non-NDJSON ({status}): {raw[:200]!r}",
            )
        if status != 200:
            raise self._error(
                status, retry_after, documents[0] if documents else {}
            )
        return documents

    # -- the query surface --------------------------------------------------

    def query_page(self, query: str, offset: int = 0, **options) -> dict:
        """One page of results, exactly as the daemon shaped it."""
        body = {"query": query, "offset": offset}
        body.update(
            {key: value for key, value in options.items() if value is not None}
        )
        return self._request("POST", "/query", body)

    def query(
        self,
        query: str,
        dialect: str = "lpath",
        pivot: bool = False,
        limit: Optional[int] = None,
        store: Optional[str] = None,
        timeout_ms: Optional[int] = None,
        top_k: Optional[int] = None,
    ) -> list[tuple[int, int]]:
        """All matching ``(tid, id)`` pairs, following pagination until
        the daemon reports no next page.  ``top_k=k`` asks the server
        for an early-terminating top-k plan (``limit`` is just the page
        size)."""
        rows: list[tuple[int, int]] = []
        offset = 0
        while True:
            page = self.query_page(
                query, offset=offset, dialect=dialect, pivot=pivot,
                limit=limit, store=store, timeout_ms=timeout_ms,
                top_k=top_k,
            )
            rows.extend(tuple(pair) for pair in page["matches"])
            if page.get("next_offset") is None:
                return rows
            offset = page["next_offset"]

    def append(
        self,
        trees: str,
        store: Optional[str] = None,
    ) -> dict:
        """Durably append bracketed ``trees`` text to a served live
        corpus; returns the daemon's acknowledgement (tree/row counts,
        first tid, generation, fingerprint).

        Appends are **not idempotent**, so the transient-retry policy is
        off for this call: a 503 means the rows were not acknowledged
        and the caller may retry explicitly, but an automatic replay
        after an ambiguous transport failure could double-append."""
        body: dict = {"trees": trees}
        if store is not None:
            body["store"] = store
        return self._request(
            "POST", "/append", body, retry_transient=False
        )

    def aggregate(
        self,
        query: str,
        agg: str = "count",
        dialect: str = "lpath",
        pivot: bool = False,
        store: Optional[str] = None,
        timeout_ms: Optional[int] = None,
    ) -> dict:
        """The server-side aggregate (``{"count": n}`` or ``{group: n}``),
        evaluated without materializing or shipping any rows."""
        page = self.query_page(
            query, agg=agg, dialect=dialect, pivot=pivot, store=store,
            timeout_ms=timeout_ms,
        )
        return {group: count for group, count in page["aggregate"]}

    def query_batch(
        self,
        queries: list,
        dialect: str = "lpath",
        pivot: bool = False,
        store: Optional[str] = None,
        timeout_ms: Optional[int] = None,
    ) -> list[dict]:
        """Submit a whole batch to ``POST /batch`` and collect the
        streamed per-query documents, in order (the trailing summary
        document is validated and dropped).  Each entry is a query
        string or an object with ``query`` plus optional ``top_k`` /
        ``agg`` / ``pivot`` / ``count`` keys."""
        body = {"queries": queries, "dialect": dialect, "pivot": pivot}
        if store is not None:
            body["store"] = store
        if timeout_ms is not None:
            body["timeout_ms"] = timeout_ms
        documents = self._request_ndjson("POST", "/batch", body)
        if not documents or "done" not in documents[-1]:
            raise ServeClientError(
                0, "batch stream ended without a summary document"
            )
        summary = documents.pop()
        if len(documents) != len(queries) or not summary.get("done"):
            raise ServeClientError(
                0,
                f"batch returned {summary.get('completed')} of "
                f"{len(queries)} results: "
                f"{documents[-1].get('error') if documents else 'no output'}",
            )
        return documents

    def count(
        self,
        query: str,
        dialect: str = "lpath",
        pivot: bool = False,
        store: Optional[str] = None,
        timeout_ms: Optional[int] = None,
    ) -> int:
        """The result-set size (one round trip, no rows shipped)."""
        page = self.query_page(
            query, count=True, dialect=dialect, pivot=pivot, store=store,
            timeout_ms=timeout_ms,
        )
        return page["total"]

    def get_query(self, **params) -> dict:
        """The GET form of ``/query`` (used by tests to pin the query
        string surface; ``q=...&count=1&...``)."""
        return self._request("GET", "/query?" + urlencode(params))

    def stats(self) -> dict:
        return self._request("GET", "/stats")

    def health(self) -> dict:
        """Liveness (``/healthz``): answers while the daemon process is
        up, regardless of store health."""
        return self._request("GET", "/healthz")

    def ready(self) -> dict:
        """Readiness (``/readyz``): the probe document, whatever the
        status — a not-ready 503 is an *answer* here, not a failure, so
        it is returned (``{"ready": false, ...}``) instead of raising or
        retrying."""
        return self._request(
            "GET", "/readyz", retry_transient=False, answers=(200, 503)
        )

    def close(self) -> None:
        if self._sock is not None:
            self._reader.close()
            self._sock.close()
            self._sock = self._reader = None

    def __enter__(self) -> "ServeClient":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
