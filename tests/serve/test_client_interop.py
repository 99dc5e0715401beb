"""``ServeClient`` against a stock ``http.server`` stub.

The daemon tests drive the new server loop with stock ``http.client``;
this is the other direction, so the client's hand-rolled response
reader is not only ever tested against its twin.  The stub plays a
script, one scripted answer per request: keep-alive JSON, chunked
NDJSON with awkward chunk boundaries, ``Retry-After`` on a 503 that
turns 200, a body that stops mid-response, close-framed HTTP/1.0.
"""

from __future__ import annotations

import json
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import pytest

from repro.serve import ServeClient, ServeClientError


class _Stub(BaseHTTPRequestHandler):
    protocol_version = "HTTP/1.1"

    def log_message(self, *args) -> None:
        pass

    def setup(self) -> None:
        super().setup()
        self.server.connections += 1

    def _serve(self) -> None:
        length = int(self.headers.get("Content-Length") or 0)
        self.server.requests.append(
            (self.command, self.path, self.rfile.read(length))
        )
        self.server.script.pop(0)(self)

    do_GET = do_POST = _serve


def answer(status: int, document, headers=(), version="HTTP/1.1"):
    def play(handler: _Stub) -> None:
        body = json.dumps(document).encode()
        handler.protocol_version = version
        handler.send_response(status)
        handler.send_header("Content-Type", "application/json")
        if version == "HTTP/1.1":
            handler.send_header("Content-Length", str(len(body)))
        for name, value in headers:
            handler.send_header(name, value)
        handler.end_headers()
        handler.wfile.write(body)
        if version != "HTTP/1.1" or ("Connection", "close") in headers:
            handler.close_connection = True
    return play


def chunked(*chunks: bytes, trailer: bytes = b""):
    def play(handler: _Stub) -> None:
        handler.send_response(200)
        handler.send_header("Content-Type", "application/x-ndjson")
        handler.send_header("Transfer-Encoding", "chunked")
        handler.end_headers()
        for chunk in chunks:
            handler.wfile.write(b"%X;note=x\r\n%b\r\n" % (len(chunk), chunk))
            handler.wfile.flush()
        handler.wfile.write(b"0\r\n" + trailer + b"\r\n")
    return play


def torn(handler: _Stub) -> None:
    """Promise 100 bytes, send 10, hang up."""
    handler.send_response(200)
    handler.send_header("Content-Type", "application/json")
    handler.send_header("Content-Length", "100")
    handler.end_headers()
    handler.wfile.write(b'{"total": ')
    handler.close_connection = True


@pytest.fixture()
def stub():
    server = ThreadingHTTPServer(("127.0.0.1", 0), _Stub)
    server.daemon_threads = True
    server.script, server.requests, server.connections = [], [], 0
    thread = threading.Thread(
        target=server.serve_forever, kwargs={"poll_interval": 0.02}, daemon=True
    )
    thread.start()
    try:
        yield server
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=5.0)
        assert not thread.is_alive()


def connect(stub, **options) -> ServeClient:
    return ServeClient(
        f"http://127.0.0.1:{stub.server_address[1]}",
        backoff_base=0.01, backoff_cap=0.05, **options,
    )


def test_keep_alive_and_request_framing(stub):
    stub.script += [answer(200, {"status": "ok"}), answer(200, {"total": 7}),
                    answer(200, {"n": 1})]
    with connect(stub, max_retries=0) as client:
        assert client.health() == {"status": "ok"}
        assert client.count("//NP[@lex='é']") == 7
        assert client.get_query(q="//VP", count=1) == {"n": 1}
        assert client.reconnects == client.backoffs == 0
    assert stub.connections == 1
    (_, path, _), (verb, _, body), (_, query, _) = stub.requests
    assert path == "/healthz" and verb == "POST"
    assert json.loads(body) == {"query": "//NP[@lex='é']", "offset": 0,
                                "count": True, "dialect": "lpath", "pivot": False}
    assert query == "/query?q=%2F%2FVP&count=1"


def test_chunked_ndjson_is_reassembled(stub):
    lines = [json.dumps({"index": 0, "total": 3}) + "\n",
             json.dumps({"index": 1, "matches": [[1, 2]]}) + "\n",
             json.dumps({"done": True, "completed": 2}) + "\n"]
    whole = "".join(lines).encode()
    # Chunk boundaries fall mid-document; extensions and a trailer ride along.
    stub.script += [
        chunked(whole[:5], whole[5:6], whole[6:40], whole[40:],
                trailer=b"X-Checksum: none\r\n"),
        answer(200, {"status": "ok"}),
    ]
    with connect(stub, max_retries=0) as client:
        documents = client.query_batch(["//NP", "//VP"])
        assert documents == [json.loads(line) for line in lines[:2]]
        assert client.health() == {"status": "ok"}  # still in frame
    assert stub.connections == 1


def test_503_with_retry_after_then_200(stub):
    busy = answer(503, {"error": "draining", "transient": True},
                  headers=[("Retry-After", "7")])
    stub.script += [busy, answer(200, {"total": 4}), busy]
    with connect(stub, max_retries=2) as patient:
        assert patient.count("//NP") == 4
        assert patient.backoffs == 1 and patient.reconnects == 0
    with connect(stub, max_retries=0) as impatient:
        with pytest.raises(ServeClientError) as failure:
            impatient.count("//NP")
    assert failure.value.status == 503
    assert failure.value.transient is True
    assert failure.value.retry_after == 7.0
    assert "draining" in str(failure.value)


def test_a_body_that_stops_mid_response(stub):
    stub.script += [torn, torn, answer(200, {"total": 2})]
    with connect(stub, max_retries=0) as client:
        with pytest.raises(ServeClientError) as failure:
            client.count("//NP")
        assert failure.value.status == 0
        assert "mid-response" in str(failure.value)
    with connect(stub, max_retries=1) as client:
        assert client.count("//NP") == 2
        assert client.backoffs == 1


def test_close_framed_and_connection_close_answers(stub):
    stub.script += [
        answer(200, {"status": "ok"}, version="HTTP/1.0"),
        answer(200, {"status": "ok"}, headers=[("Connection", "close")]),
        answer(200, {"status": "ok"}),
    ]
    with connect(stub, max_retries=0) as client:
        for _ in range(3):
            assert client.health() == {"status": "ok"}
        # Announced closes are not failures: no retry was needed.
        assert client.reconnects == client.backoffs == 0
    assert stub.connections == 3
