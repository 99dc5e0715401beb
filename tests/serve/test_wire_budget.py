"""The wire-path work budget of a cached count — no timing.

Beside ``tests/plan/test_output_budget.py``: that one counts what a
large answer costs between the last join and the caller, this one what
a result-cache hit costs between the two sockets.  A message is one
``sendall`` on each side (head and body together: one packet, one
wake-up of the peer) and arrives in at most two reads; neither loop
builds an ``email.message.Message`` to hold five headers; and importing
the serving layer loads none of the stdlib HTTP stacks it replaced.

A page costs one encoder call on the daemon's side: the cached packed
batch goes to the socket as JSON bytes, no ``[tid, id]`` list is ever
built and ``json.dumps`` only sees the O(1) head.

The second half pins the documents themselves: the bytes on the wire
are ``json.dumps`` of what the service answered, as before the loops
were rewritten — key order, separators, error shapes, the whole-second
``Retry-After`` — and as before pages stopped passing through it.
"""

from __future__ import annotations

import collections
import email.message
import http.client
import json
import re
import socket
import subprocess
import sys

import pytest

from repro import store
from repro.columnar import result
from repro.columnar.kernels import native_kernels
from repro.corpus import generate_corpus
from repro.serve import QueryServer, QueryService, ServeClientError
from repro.serve.service import ServeError

QUERY = "//NP"


@pytest.fixture()
def wire(monkeypatch, server):
    """``{(side, call): n}`` over every socket of this process, sides
    told apart by which end of the connection owns the daemon's port."""
    counts: collections.Counter = collections.Counter()

    def side(sock) -> str:
        return "daemon" if sock.getsockname()[1] == server.port else "client"

    # A write counts when it starts (the peer may act on it before the
    # call returns), a read when it returns (the daemon sits in its next
    # read long before the test resets the counters).
    def write(name):
        real = getattr(socket.socket, name)

        def call(sock, *args, **kwargs):
            counts[side(sock), "send"] += 1
            return real(sock, *args, **kwargs)

        monkeypatch.setattr(socket.socket, name, call)

    def read(name):
        real = getattr(socket.socket, name)

        def call(sock, *args, **kwargs):
            result = real(sock, *args, **kwargs)
            counts[side(sock), "recv"] += 1
            return result

        monkeypatch.setattr(socket.socket, name, call)

    write("sendall")
    write("send")
    read("recv")
    read("recv_into")
    built = email.message.Message.__init__

    def message(self, *args, **kwargs):
        counts["any", "email.message.Message"] += 1
        built(self, *args, **kwargs)

    monkeypatch.setattr(email.message.Message, "__init__", message)
    return counts


def test_a_cached_count_is_one_write_a_side(client, wire):
    client.count(QUERY)          # opens the connection, fills the cache
    assert client.count(QUERY) > 0
    wire.clear()
    document = client.query_page(QUERY, count=True)
    assert document["cached"] is True
    assert wire["client", "send"] == 1 and wire["daemon", "send"] == 1
    assert 1 <= wire["client", "recv"] <= 2
    assert 1 <= wire["daemon", "recv"] <= 2
    assert wire["any", "email.message.Message"] == 0


def test_a_small_page_and_an_error_are_one_write_too(client, wire):
    client.query_page(QUERY, limit=100)
    wire.clear()
    assert len(client.query_page(QUERY, limit=100)["matches"]) > 10
    with pytest.raises(ServeClientError, match="daemon error 400"):
        client.query_page("//NP[@")
    assert wire["client", "send"] == 2 and wire["daemon", "send"] == 2


@pytest.mark.parametrize(
    "backend", ["python"] + (["native"] if native_kernels() else []))
def test_a_page_is_one_encoder_call_and_no_row_objects(
    backend, tmp_path, monkeypatch
):
    monkeypatch.setenv("REPRO_KERNELS", backend)
    path = str(tmp_path / "pages.lpdb")
    store.save_corpus(
        list(generate_corpus("wsj", sentences=70, seed=3)), path,
        segments=2, format="lpdb0004",
    )
    calls: collections.Counter = collections.Counter()

    def counted(owner, name):
        real = getattr(owner, name)

        def call(*args):
            calls[name] += 1
            return real(*args)

        monkeypatch.setattr(owner, name, call)

    with QueryService(path) as service, QueryServer(service).start() as server:
        expected = service.execute({"query": "//_", "limit": 1000})
        assert len(expected["matches"]) == 1000

        def iterated(self):
            raise AssertionError("the daemon iterated a ResultBatch")

        def dumped(document, *args, **kwargs):
            assert not isinstance(document.get("matches"), list)
            return real_dumps(document, *args, **kwargs)

        monkeypatch.setattr(result.ResultBatch, "__iter__", iterated)
        counted(result, "python_encode_pairs")
        if native_kernels() is not None:
            counted(type(native_kernels()), "encode_pairs")
        real_dumps = json.dumps
        monkeypatch.setattr(json, "dumps", dumped)
        _, _, _, body = exchange(server, "GET", "/query?q=//_&limit=1000")
    monkeypatch.undo()
    assert calls == {
        "encode_pairs" if backend == "native" else "python_encode_pairs": 1}
    assert timeless(body) == timeless(
        json.dumps({**expected, "cached": True}).encode())


def test_importing_the_serving_layer_loads_no_stdlib_http_stack():
    loaded = subprocess.run(
        [sys.executable, "-c",
         "import sys, repro.serve; print(' '.join(sorted(sys.modules)))"],
        capture_output=True, text=True, check=True, timeout=60,
    ).stdout.split()
    assert "repro.serve.daemon" in loaded
    for module in ("http.server", "http.client", "email.parser",
                   "email.message", "email.utils"):
        assert module not in loaded


# -- golden documents --------------------------------------------------------


def exchange(server, method: str, path: str, document=None):
    """One raw request; ``(status line, header names, headers, body)``."""
    body = b"" if document is None else json.dumps(document).encode()
    with socket.create_connection((server.host, server.port), timeout=10) as sock:
        sock.sendall(
            b"%b %b HTTP/1.1\r\nHost: golden\r\nContent-Length: %d\r\n\r\n%b"
            % (method.encode(), path.encode(), len(body), body)
        )
        sock.shutdown(socket.SHUT_WR)
        received = b""
        while data := sock.recv(65536):
            received += data
    head, _, body = received.partition(b"\r\n\r\n")
    status, *lines = head.decode("latin-1").split("\r\n")
    headers = dict(line.split(": ", 1) for line in lines)
    assert int(headers["Content-Length"]) == len(body)
    return status, [line.split(":")[0] for line in lines], headers, body


def timeless(body: bytes) -> bytes:
    return re.sub(rb'"elapsed_ms": [0-9.e-]+', b'"elapsed_ms": 0', body)


def test_golden_result_documents(server, service):
    head = ["Server", "Date", "Content-Type", "Content-Length"]
    total = len(service.execute({"query": QUERY})["matches"])
    rows = service.execute({"query": QUERY, "limit": 2, "offset": 1})["matches"]
    by_depth = service.execute({"query": QUERY, "agg": "count_by_depth"})["aggregate"]

    status, names, headers, body = exchange(
        server, "POST", "/query", {"query": QUERY, "count": True})
    assert (status, names) == ("HTTP/1.1 200 OK", head)
    assert headers["Server"] == "repro-serve/1"
    assert headers["Content-Type"] == "application/json"
    assert re.fullmatch(
        r"(Mon|Tue|Wed|Thu|Fri|Sat|Sun), \d\d "
        r"(Jan|Feb|Mar|Apr|May|Jun|Jul|Aug|Sep|Oct|Nov|Dec) \d{4} "
        r"\d\d:\d\d:\d\d GMT", headers["Date"])
    assert timeless(body) == json.dumps({
        "total": total, "count": total, "cached": True, "elapsed_ms": 0,
    }).encode()

    _, _, _, body = exchange(
        server, "POST", "/query", {"query": QUERY, "limit": 2, "offset": 1})
    assert timeless(body) == json.dumps({
        "total": total, "offset": 1, "limit": 2, "matches": rows,
        "next_offset": 3, "cached": True, "elapsed_ms": 0,
    }).encode()

    _, _, _, body = exchange(
        server, "GET", "/query?q=//NP&agg=count_by_depth")
    assert timeless(body) == json.dumps({
        "agg": "count_by_depth", "aggregate": by_depth, "cached": True,
        "elapsed_ms": 0,
    }).encode()


def test_row_bearing_documents_equal_json_dumps_of_execute(server, service):
    """What the encoder splices in is what ``json.dumps`` would have
    written, read back through a stock ``http.client``."""
    total = service.execute({"query": QUERY})["total"]
    members = [
        {"query": QUERY},                               # a page
        {"query": QUERY, "offset": total + 5},          # an empty page
        {"query": QUERY, "limit": 1, "offset": 3},      # a one-row page
        {"query": QUERY, "top_k": 4},
        {"query": QUERY, "agg": "count_by_name"},       # cached JSON bytes
    ]
    for params in members:                  # every answer below is a hit
        service.execute(params)
    connection = http.client.HTTPConnection(
        server.host, server.port, timeout=10)

    def post(path, document):
        connection.request("POST", path, json.dumps(document))
        response = connection.getresponse()
        assert response.status == 200
        return timeless(response.read())

    try:
        lines = post("/batch", {"queries": members}).split(b"\n")
        for index, params in enumerate(members):
            expected = service.execute(params)
            assert ("matches" in expected) == ("agg" not in params)
            assert post("/query", params) == timeless(
                json.dumps(expected).encode())
            assert lines[index] == timeless(
                json.dumps({**expected, "index": index}).encode())
        assert json.loads(lines[len(members)])["done"] is True
        assert lines[len(members) + 1:] == [b""]
    finally:
        connection.close()


def test_golden_error_documents(server, service, monkeypatch):
    head = ["Server", "Date", "Content-Type", "Content-Length"]

    status, names, _, body = exchange(server, "POST", "/query", {})
    assert (status, names) == ("HTTP/1.1 400 Bad Request", head)
    assert body == b'{"error": "missing query text (use \'query\' or \'q\')"}'

    status, names, _, body = exchange(server, "POST", "/query", {"query": "//NP[@"})
    assert (status, names) == ("HTTP/1.1 400 Bad Request", head)
    assert body == (b'{"error": "expected a node test but found \'end of '
                    b'query\'\\n  //NP[@\\n        ^"}')

    status, names, _, body = exchange(server, "GET", "/nope")
    assert (status, names) == ("HTTP/1.1 404 Not Found", head)
    assert body == b'{"error": "unknown path \'/nope\'"}'

    status, _, _, body = exchange(server, "GET", "/append")
    assert status == "HTTP/1.1 405 Method Not Allowed"
    assert body == b'{"error": "/append takes POST with a JSON body"}'

    def shed(params):
        raise ServeError(429, "over capacity: 2 running, 0 queued", retry_after=0.4)

    monkeypatch.setattr(service, "answer", shed)
    status, names, headers, body = exchange(server, "POST", "/query", {"query": QUERY})
    assert (status, names) == \
        ("HTTP/1.1 429 Too Many Requests", head + ["Retry-After"])
    assert headers["Retry-After"] == "1"  # whole seconds, never 0
    assert body == (b'{"error": "over capacity: 2 running, 0 queued", '
                    b'"transient": true}')

    def draining(params):
        raise ServeError(503, "draining")

    monkeypatch.setattr(service, "answer", draining)
    status, names, _, body = exchange(server, "POST", "/query", {"query": QUERY})
    assert (status, names) == ("HTTP/1.1 503 Service Unavailable", head)
    assert body == b'{"error": "draining", "transient": true}'

    def broken(params):
        raise RuntimeError("boom")

    monkeypatch.setattr(service, "answer", broken)
    status, _, _, body = exchange(server, "POST", "/query", {"query": QUERY})
    assert status == "HTTP/1.1 500 Internal Server Error"
    assert body == b'{"error": "RuntimeError: boom"}'
