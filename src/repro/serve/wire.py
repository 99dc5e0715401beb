"""The HTTP/1.1 message framing both ends of ``serve/`` share: a
bounded header block read off a buffered socket reader.  Neither side's
loop lives here, and nothing here interprets a header."""

from __future__ import annotations

#: Longest request/status/header line accepted (``http.client``'s bound).
MAX_LINE = 65536
#: Most header lines accepted in one message.
MAX_HEADERS = 100


class BadMessage(ConnectionError):
    """The peer's bytes are not the HTTP/1.1 subset spoken here.

    ``status`` is what a server should answer with before closing; a
    client treats it as any other transport failure."""

    def __init__(self, status: int, message: str) -> None:
        super().__init__(message)
        self.status = status


def read_line(reader) -> bytes:
    """One line, terminator included; refused when the peer closed
    before the terminator or the line is longer than ``MAX_LINE``."""
    line = reader.readline(MAX_LINE + 1)
    if len(line) > MAX_LINE:
        raise BadMessage(431, "line too long")
    if not line.endswith(b"\n"):
        raise BadMessage(400, f"message ended early at {line[-80:]!r}")
    return line


def read_headers(reader) -> dict[str, str]:
    """The header block up to its blank line: lower-cased names to
    stripped values, a repeated name's values joined with ``", "`` (so a
    duplicate ``Content-Length`` no longer parses as a number)."""
    headers: dict[str, str] = {}
    for _ in range(MAX_HEADERS + 1):
        line = read_line(reader)
        if line in (b"\r\n", b"\n"):
            return headers
        name, colon, value = line.decode("latin-1").partition(":")
        if not colon or not name or name != name.strip():
            raise BadMessage(400, f"malformed header line {line[:80]!r}")
        key, value = name.lower(), value.strip()
        headers[key] = f"{headers[key]}, {value}" if key in headers else value
    raise BadMessage(431, f"more than {MAX_HEADERS} header lines")
