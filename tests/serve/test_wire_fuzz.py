"""Malformed requests over raw sockets: the daemon's request framing.

Whatever bytes arrive, the daemon either answers them with well-formed
HTTP — every body a JSON document, every refusal ``{"error": ...}`` —
or closes; it never writes half a message and never reads the tail of
one request as the head of the next.  A request it cannot consume to its
end (bad / negative / duplicate ``Content-Length``, a body that stops
early, an over-long line, too many headers) is answered once, with
``Connection: close``, and the socket closes behind the answer.

The judge is stock ``http.client.HTTPResponse`` replaying the captured
bytes, not the repo's own client.  ``REPRO_FUZZ_EXAMPLES`` scales the
Hypothesis part (the nightly job runs it at 400).
"""

from __future__ import annotations

import http.client
import io
import json
import os
import socket

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from repro.serve import QueryServer, QueryService

FUZZ_EXAMPLES = int(os.environ.get("REPRO_FUZZ_EXAMPLES", "25"))

COUNT_BODY = json.dumps({"query": "//NP", "count": True}).encode()


def post(body: bytes, *extra: bytes, version: bytes = b"HTTP/1.1") -> bytes:
    head = [b"POST /query " + version, b"Host: fuzz",
            b"Content-Length: %d" % len(body), *extra]
    return b"\r\n".join(head) + b"\r\n\r\n" + body


HEALTH = b"GET /healthz HTTP/1.1\r\nHost: fuzz\r\n\r\n"
COUNT = post(COUNT_BODY)
#: Refused, but consumed whole: the connection stays usable.
IN_FRAME_ERRORS = [(post(b""), 400), (post(b"{not json"), 400),
                   (post(b"[1]"), 400), (b"GET /nope HTTP/1.1\r\n\r\n", 404)]


def framed(length: bytes, body: bytes = COUNT_BODY) -> bytes:
    return (b"POST /query HTTP/1.1\r\nContent-Length: " + length
            + b"\r\n\r\n" + body)


#: name -> (bytes that cannot be consumed as one request, status of the
#: single refusal).
OUT_OF_FRAME = {
    "length not a number": (framed(b"abc"), 400),
    "length negative": (framed(b"-5"), 400),
    "length signed": (framed(b"+%d" % len(COUNT_BODY)), 400),
    "length float": (framed(b"4.0"), 400),
    "length hex": (framed(b"0x2a"), 400),
    "length empty": (framed(b""), 400),
    "length unicode digits": (framed("٤٢".encode("utf-8")), 400),
    "length 5000 digits": (framed(b"9" * 5000), 400),
    "length duplicated": (
        b"POST /query HTTP/1.1\r\nContent-Length: %d\r\nContent-Length: %d"
        b"\r\n\r\n%b" % (len(COUNT_BODY), len(COUNT_BODY), COUNT_BODY), 400),
    "length conflicting": (
        b"POST /query HTTP/1.1\r\nContent-Length: 2\r\nContent-Length: %d"
        b"\r\n\r\n%b" % (len(COUNT_BODY), COUNT_BODY), 400),
    "body too large": (framed(b"%d" % (2 << 20), b"x" * 4096), 400),
    "body truncated": (framed(b"%d" % (len(COUNT_BODY) + 500)), 400),
    "chunked request": (
        b"POST /query HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n"
        b"5\r\nhello\r\n0\r\n\r\n", 501),
    "request line too long": (
        b"GET /query?q=" + b"a" * 70_000 + b" HTTP/1.1\r\n\r\n", 414),
    "header line too long": (
        b"GET /healthz HTTP/1.1\r\nX-Pad: " + b"a" * 70_000 + b"\r\n\r\n", 431),
    "too many headers": (
        b"GET /healthz HTTP/1.1\r\n" + b"X-N: 1\r\n" * 150 + b"\r\n", 431),
    "header without colon": (
        b"GET /healthz HTTP/1.1\r\nnot a header\r\n\r\n", 400),
    "folded header": (
        b"GET /healthz HTTP/1.1\r\nX-A: 1\r\n  folded\r\n\r\n", 400),
    "http/0.9": (b"GET /healthz\r\n\r\n", 400),
    "http/2 preface": (b"PRI * HTTP/2.0\r\n\r\nSM\r\n\r\n", 400),
    "binary garbage": (b"\x16\x03\x01\x02\x00\x01\x00\x01\xfc\x03\x03\r\n\r\n", 400),
    "blank line": (b"\r\n", 400),
    "unsupported method": (b"DELETE /query HTTP/1.1\r\n\r\n", 501),
    "head": (b"HEAD /healthz HTTP/1.1\r\n\r\n", 501),
}


@pytest.fixture(scope="module")
def daemon(store_path):
    with QueryService(store_path) as service:
        with QueryServer(service).start() as server:
            yield server


def talk(daemon, payload: bytes, half_close: bool = True) -> bytes:
    """Send ``payload``, then read until the daemon closes."""
    with socket.create_connection((daemon.host, daemon.port), timeout=10) as sock:
        sock.sendall(payload)
        if half_close:
            sock.shutdown(socket.SHUT_WR)
        received = []
        while data := sock.recv(65536):
            received.append(data)
        return b"".join(received)


class _Replay:
    """The captured bytes as the 'socket' of an ``HTTPResponse``."""

    class _Stream(io.BytesIO):
        def close(self) -> None:  # HTTPResponse closes its file per response
            pass

    def __init__(self, data: bytes) -> None:
        self.stream = self._Stream(data)

    def makefile(self, mode: str):
        return self.stream


def responses(data: bytes) -> list:
    """Every response in ``data`` as ``(status, closing, document)``,
    parsed by stock ``http.client``; fails on a torn or trailing
    fragment, a non-JSON body, or an error that is not an error
    document, or bytes after a response that announced the close."""
    replay, parsed = _Replay(data), []
    while replay.stream.tell() < len(data):
        assert not (parsed and parsed[-1][1]), "bytes after Connection: close"
        response = http.client.HTTPResponse(replay, method="POST")
        response.begin()  # skips an interim 100 Continue
        assert response.version == 11
        assert response.getheader("Content-Type") == "application/json"
        assert response.getheader("Content-Length") is not None
        document = json.loads(response.read())
        if response.status != 200:
            assert set(document) <= {"error", "transient"} and document["error"]
        parsed.append((response.status, response.will_close, document))
    return parsed


def healthy(daemon) -> bool:
    return responses(talk(daemon, HEALTH))[-1] == (200, False, {"status": "ok"})


class TestOutOfFrame:
    @pytest.mark.parametrize("name", sorted(OUT_OF_FRAME))
    def test_one_refusal_then_close(self, daemon, name):
        request, status = OUT_OF_FRAME[name]
        # Valid requests before it are answered; what follows it on the
        # connection — here a perfectly good request — never is.
        answers = responses(talk(daemon, HEALTH + request + HEALTH))
        assert [(s, closing) for s, closing, _ in answers] == \
            [(200, False), (status, True)]
        assert healthy(daemon)

    def test_a_head_that_stops_early_is_refused(self, daemon):
        answers = responses(talk(daemon, HEALTH + HEALTH[:-9]))
        assert [(s, closing) for s, closing, _ in answers] == \
            [(200, False), (400, True)]

    def test_the_close_does_not_wait_for_the_client(self, daemon):
        # No half-close from this side: the daemon ends the connection
        # itself (after its bounded linger), it does not sit on it.
        request, status = OUT_OF_FRAME["length negative"]
        answers = responses(talk(daemon, request, half_close=False))
        assert [(s, closing) for s, closing, _ in answers] == [(status, True)]

    def test_missing_length_reads_the_body_as_the_next_request(self, daemon):
        # Without Content-Length there is no body, by definition: the
        # request itself is in frame (an empty query: 400), and the
        # would-be body is a malformed request line — refused and closed.
        request = b"POST /query HTTP/1.1\r\n\r\n" + COUNT_BODY + b"\r\n\r\n"
        answers = responses(talk(daemon, request + HEALTH))
        assert [(s, closing) for s, closing, _ in answers] == \
            [(400, False), (400, True)]
        assert healthy(daemon)


class TestInFrame:
    def test_pipelined_requests_are_answered_in_order(self, daemon):
        stream = HEALTH + COUNT + b"".join(r for r, _ in IN_FRAME_ERRORS) + HEALTH
        answers = responses(talk(daemon, stream))
        assert [s for s, _, _ in answers] == \
            [200, 200, *(status for _, status in IN_FRAME_ERRORS), 200]
        assert not any(closing for _, closing, _ in answers)
        assert answers[1][2]["total"] > 0

    def test_get_with_a_body_consumes_it(self, daemon):
        request = (b"GET /healthz HTTP/1.1\r\nContent-Length: %d\r\n\r\n%b"
                   % (len(COUNT), COUNT))
        assert [s for s, _, _ in responses(talk(daemon, request + HEALTH))] == \
            [200, 200]

    def test_http_1_0_closes_unless_asked_to_keep_alive(self, daemon):
        old = b"GET /healthz HTTP/1.0\r\n\r\n"
        assert [(s, c) for s, c, _ in responses(talk(daemon, old + HEALTH))] == \
            [(200, True)]
        kept = b"GET /healthz HTTP/1.0\r\nConnection: keep-alive\r\n\r\n"
        assert [(s, c) for s, c, _ in responses(talk(daemon, kept + old))] == \
            [(200, False), (200, True)]
        assert [(s, c) for s, c, _ in responses(talk(
            daemon, post(COUNT_BODY, version=b"HTTP/1.0")))] == [(200, True)]

    def test_connection_close_is_honoured(self, daemon):
        last = post(COUNT_BODY, b"Connection: close")
        assert [(s, c) for s, c, _ in responses(talk(daemon, HEALTH + last + HEALTH))] \
            == [(200, False), (200, True)]


class TestExpectContinue:
    """What ``curl -d @file`` does for a body past 1 KiB: send the head
    with ``Expect: 100-continue`` and hold the body back until told."""

    def test_body_is_invited_not_waited_for(self, daemon):
        body = COUNT_BODY + b" " * 2048
        with socket.create_connection((daemon.host, daemon.port), timeout=5) as sock:
            sock.sendall(post(body, b"Expect: 100-continue")[:-len(body)])
            assert sock.recv(65536) == b"HTTP/1.1 100 Continue\r\n\r\n"
            sock.sendall(body + HEALTH)
            sock.shutdown(socket.SHUT_WR)
            received = b""
            while data := sock.recv(65536):
                received += data
        assert [(s, c) for s, c, _ in responses(received)] == \
            [(200, False), (200, False)]

    def test_an_oversized_body_is_refused_before_it_is_sent(self, daemon):
        head = (b"POST /query HTTP/1.1\r\nContent-Length: %d\r\n"
                b"Expect: 100-continue\r\n\r\n" % (2 << 20))
        answers = responses(talk(daemon, head))
        assert [(s, c) for s, c, _ in answers] == [(400, True)]
        assert "too large" in answers[0][2]["error"]


# -- the random part ---------------------------------------------------------

_token = st.text(
    st.characters(min_codepoint=33, max_codepoint=126, blacklist_characters=":"),
    min_size=1, max_size=12,
).map(lambda text: text.encode("ascii"))
_length_value = st.one_of(
    st.integers(-10, 3 << 20).map(lambda n: b"%d" % n),
    st.binary(max_size=6).filter(lambda b: b"\n" not in b and b"\r" not in b),
    st.sampled_from([b"", b" ", b"1 2", b"1,2", b"0", b"00", b"1e2", b"0b1"]),
)


@st.composite
def request_soup(draw) -> bytes:
    """A request-shaped message with randomly broken framing."""
    lines = [b" ".join([
        draw(st.sampled_from([b"GET", b"POST", b"PUT", b"get", b""])),
        draw(st.sampled_from([b"/query", b"/healthz", b"/batch", b"/stats",
                              b"/query?q=//NP&count=1", b"*", b""])),
        draw(st.sampled_from([b"HTTP/1.1", b"HTTP/1.0", b"HTTP/3", b"", b"x"])),
    ])]
    for _ in range(draw(st.integers(0, 4))):
        name = draw(st.one_of(_token, st.sampled_from(
            [b"Content-Length", b"content-length", b"Connection",
             b"Expect", b"Transfer-Encoding"])))
        value = draw(st.one_of(_length_value, st.sampled_from(
            [b"close", b"keep-alive", b"100-continue", b"chunked"])))
        lines.append(name + draw(st.sampled_from([b": ", b":", b" : ", b" "])) + value)
    body = draw(st.one_of(st.just(COUNT_BODY), st.binary(max_size=64)))
    newline = draw(st.sampled_from([b"\r\n", b"\r\n", b"\n"]))
    return newline.join(lines) + newline * 2 + body


class TestFuzz:
    @settings(max_examples=4 * FUZZ_EXAMPLES, deadline=None)
    @given(st.lists(st.one_of(
        st.sampled_from([HEALTH, COUNT]),
        st.sampled_from([request for request, _ in IN_FRAME_ERRORS]),
        st.sampled_from(sorted(request for request, _ in OUT_OF_FRAME.values())),
        request_soup(),
        st.binary(max_size=40),
    ), min_size=1, max_size=5))
    def test_any_byte_stream_gets_well_formed_answers(self, daemon, pieces):
        answers = responses(talk(daemon, b"".join(pieces)))
        # Nothing is answered after the close was announced (checked in
        # ``responses``), and never more answers than there could have
        # been requests: every line of the stream at most one.
        assert len(answers) <= b"".join(pieces).count(b"\n") + 1
        for piece, (status, _, document) in zip(pieces, answers):
            if piece == HEALTH:
                assert (status, document) == (200, {"status": "ok"})
            elif piece == COUNT:
                assert status == 200 and document["total"] > 0
            else:
                break  # from here on the framing is the daemon's call

    def test_the_daemon_outlives_the_fuzz(self, daemon):
        assert healthy(daemon)
