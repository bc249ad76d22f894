"""Minimal HTTP/1.1 framing over asyncio streams (stdlib only).

The serving layer speaks just enough HTTP for JSON request/response
traffic with keep-alive: request line + headers + ``Content-Length``
body in, status line + JSON body out.  No chunked transfer, no
multipart, no TLS -- the server sits behind whatever terminates those
in production, and the paper-repro goal is a dependency-free stack.
:func:`encode_response` is the one response encoder; a payload value
already encoded (a :class:`RawJSON`) is spliced into the body as-is.

Framing errors are :class:`~repro.errors.ServeError` values carrying
the stable envelope code and HTTP status, so the connection loop turns
any malformed input into the documented JSON error envelope::

    {"error": {"code": "payload-too-large", "message": "..."}}

Limits are explicit: header block and body sizes are bounded
(``REQUEST_HEADER_LIMIT``, server-configured ``max_body_bytes``), and
a request that advertises a larger body is refused *before* the body
is read, so an oversized payload cannot balloon server memory.
"""

from __future__ import annotations

import asyncio
import json
from collections.abc import Iterable
from dataclasses import dataclass, field

from repro.errors import ServeError

__all__ = [
    "HttpRequest",
    "REQUEST_HEADER_LIMIT",
    "RawJSON",
    "STATUS_PHRASES",
    "encode_response",
    "read_request",
]

#: Maximum bytes of request line + headers (a defensive bound; real
#: clients send a few hundred bytes).
REQUEST_HEADER_LIMIT = 16 * 1024

#: Reason phrases for the statuses the server emits.
STATUS_PHRASES = {
    200: "OK",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    411: "Length Required",
    413: "Payload Too Large",
    500: "Internal Server Error",
    503: "Service Unavailable",
}


@dataclass
class HttpRequest:
    """One parsed request: method, path, lowered headers, raw body."""

    method: str
    path: str
    headers: dict[str, str] = field(default_factory=dict)
    body: bytes = b""

    @property
    def keep_alive(self) -> bool:
        """HTTP/1.1 default keep-alive unless ``Connection: close``."""
        return self.headers.get("connection", "").lower() != "close"

    def json_body(self) -> dict[str, object]:
        """The body parsed as a JSON object, or a ``bad-request`` error."""
        if not self.body:
            raise ServeError(
                "request body must be a JSON object; it was empty",
                code="bad-request",
                status=400,
            )
        try:
            parsed = json.loads(self.body)
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise ServeError(
                f"request body is not valid JSON: {exc}",
                code="bad-request",
                status=400,
            ) from exc
        except RecursionError:
            raise ServeError(
                "request body nests JSON arrays/objects too deeply",
                code="bad-request",
                status=400,
            ) from None
        if not isinstance(parsed, dict):
            raise ServeError(
                "request body must be a JSON object, got "
                f"{type(parsed).__name__}",
                code="bad-request",
                status=400,
            )
        return parsed


async def _read_header_block(reader: asyncio.StreamReader) -> bytes | None:
    """Bytes up to the blank line, ``None`` on clean EOF before any byte."""
    block = bytearray()
    while True:
        try:
            line = await reader.readline()
        except (ConnectionError, asyncio.LimitOverrunError) as exc:
            raise ServeError(
                f"connection failed mid-headers: {exc}",
                code="bad-request",
                status=400,
            ) from exc
        if not line:
            if not block:
                return None
            raise ServeError(
                "connection closed mid-headers",
                code="bad-request",
                status=400,
            )
        block += line
        if len(block) > REQUEST_HEADER_LIMIT:
            raise ServeError(
                f"request headers exceed {REQUEST_HEADER_LIMIT} bytes",
                code="payload-too-large",
                status=413,
            )
        if line in (b"\r\n", b"\n"):
            return bytes(block)


async def read_request(
    reader: asyncio.StreamReader, max_body_bytes: int
) -> HttpRequest | None:
    """Parse one request off the stream; ``None`` on clean EOF.

    The body is only read after its advertised length passes the
    ``max_body_bytes`` bound, so oversized uploads are refused without
    buffering them.
    """
    block = await _read_header_block(reader)
    if block is None:
        return None
    lines = block.decode("latin-1").splitlines()
    request_line = lines[0].strip() if lines else ""
    parts = request_line.split()
    if len(parts) != 3 or not parts[2].upper().startswith("HTTP/1."):
        raise ServeError(
            f"malformed request line {request_line!r}",
            code="bad-request",
            status=400,
        )
    method, path = parts[0].upper(), parts[1]
    headers: dict[str, str] = {}
    for raw in lines[1:]:
        if not raw.strip():
            continue
        name, sep, value = raw.partition(":")
        if not sep:
            raise ServeError(
                f"malformed header line {raw!r}",
                code="bad-request",
                status=400,
            )
        headers[name.strip().lower()] = value.strip()

    body = b""
    length_header = headers.get("content-length")
    if length_header is not None:
        try:
            length = int(length_header)
        except ValueError as exc:
            raise ServeError(
                f"invalid Content-Length {length_header!r}",
                code="bad-request",
                status=400,
            ) from exc
        if length < 0:
            raise ServeError(
                f"invalid Content-Length {length}",
                code="bad-request",
                status=400,
            )
        if length > max_body_bytes:
            raise ServeError(
                f"request body of {length} bytes exceeds the "
                f"{max_body_bytes}-byte limit",
                code="payload-too-large",
                status=413,
            )
        try:
            body = await reader.readexactly(length)
        except (asyncio.IncompleteReadError, ConnectionError) as exc:
            raise ServeError(
                f"connection closed mid-body: {exc}",
                code="bad-request",
                status=400,
            ) from exc
    elif method in ("POST", "PUT"):
        raise ServeError(
            f"{method} requests must carry Content-Length",
            code="bad-request",
            status=411,
        )
    return HttpRequest(method=method, path=path, headers=headers, body=body)


class RawJSON(bytes):
    """Bytes holding one JSON value that is already encoded.

    :func:`encode_response` splices a top-level payload value of this
    type into the body as-is.  A value that never changes -- a
    registered model's prediction row -- is encoded once this way
    instead of once per response.
    """

    __slots__ = ()

    @classmethod
    def dumps(cls, value: object) -> "RawJSON":
        """``value`` encoded exactly as :func:`encode_response` would."""
        return cls(json.dumps(value, allow_nan=False).encode())

    @classmethod
    def array(cls, items: Iterable[bytes]) -> "RawJSON":
        """A JSON array of already-encoded items."""
        return cls(b"[" + b", ".join(items) + b"]")


def _json_body(payload: dict[str, object]) -> bytes:
    """``json.dumps(payload, allow_nan=False)``, splicing :class:`RawJSON`.

    Members are joined with ``json.dumps``'s own ``", "`` and ``": "``
    separators, so for string keys the body is byte-identical to
    encoding the decoded payload in one call.
    """
    members = [
        json.dumps(key).encode()
        + b": "
        + (value if isinstance(value, RawJSON) else RawJSON.dumps(value))
        for key, value in payload.items()
    ]
    return b"{" + b", ".join(members) + b"}"


def encode_response(
    status: int,
    payload: "dict[str, object] | str",
    keep_alive: bool,
    content_type: str | None = None,
) -> bytes:
    """Serialize one response, ready for ``writer.write``.

    A dict payload is JSON-encoded (``json.dumps`` uses
    shortest-roundtrip float repr, so numerical results survive the
    wire bit-exactly -- the concurrency suite pins served predictions
    ``==`` offline ones, not merely close).  A top-level value of type
    :class:`RawJSON` is already encoded and is spliced in unchanged;
    the body is still byte-identical to ``json.dumps`` of the decoded
    payload.  Non-finite floats raise ``ValueError`` instead of
    emitting ``NaN``/``Infinity``, which are not JSON (a
    :class:`RawJSON` value was checked when it was encoded).  A string
    payload is sent verbatim under ``content_type`` -- the Prometheus
    text exposition path of ``/metrics``.
    """
    if isinstance(payload, str):
        body = payload.encode("utf-8")
        media = content_type or "text/plain; charset=utf-8"
    else:
        body = _json_body(payload)
        media = content_type or "application/json"
    phrase = STATUS_PHRASES.get(status, "Unknown")
    connection = "keep-alive" if keep_alive else "close"
    head = (
        f"HTTP/1.1 {status} {phrase}\r\n"
        f"Content-Type: {media}\r\n"
        f"Content-Length: {len(body)}\r\n"
        f"Connection: {connection}\r\n"
        "\r\n"
    )
    return head.encode() + body
