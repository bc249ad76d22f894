"""A small keep-alive JSON client for the alignment server.

:class:`ServeClient` holds one open connection and issues sequential
requests over it, which is exactly what the concurrency suite and the
load harness need: N clients * 1 connection each, every client an
independent asyncio task, all multiplexed on one loop.  It is also the
transport behind ``geoalign-repro obs tail``, which fetches a running
server's ``/debug/exemplars``.

The parser is the mirror of :mod:`repro.serve.http`: status line +
headers + ``Content-Length`` body.  Anything that does not frame
raises :class:`~repro.errors.ServeError`; HTTP-level failures do *not*
raise -- :meth:`request` returns ``(status, payload)`` and callers
inspect the documented error envelope, so tests can assert on exact
codes without exception gymnastics.
"""

from __future__ import annotations

import asyncio
import json

from repro.errors import ServeError

__all__ = ["ServeClient"]

#: Bound on response header block size, mirroring the server's limit.
_RESPONSE_HEADER_LIMIT = 16 * 1024


class ServeClient:
    """One keep-alive connection to an :class:`AlignmentServer`."""

    def __init__(self, host: str, port: int) -> None:
        self.host = host
        self.port = port
        self._reader: asyncio.StreamReader | None = None
        self._writer: asyncio.StreamWriter | None = None
        self._closing = False

    async def __aenter__(self) -> "ServeClient":
        await self.connect()
        return self

    async def __aexit__(self, *exc_info: object) -> None:
        await self.close()

    async def connect(self) -> None:
        if self._writer is not None:
            return
        self._reader, self._writer = await asyncio.open_connection(
            self.host, self.port
        )

    async def close(self) -> None:
        if self._writer is not None:
            self._writer.close()
            try:
                await self._writer.wait_closed()
            except (ConnectionError, OSError):
                pass
        self._reader = None
        self._writer = None

    async def request(
        self,
        method: str,
        path: str,
        payload: dict[str, object] | None = None,
    ) -> tuple[int, dict[str, object]]:
        """Send one request; returns ``(status, parsed JSON body)``.

        Reconnects transparently if the server closed the kept-alive
        connection (e.g. after a ``Connection: close`` response).
        """
        if self._writer is None:
            await self.connect()
        assert self._reader is not None and self._writer is not None
        body = b"" if payload is None else json.dumps(payload).encode()
        head = (
            f"{method} {path} HTTP/1.1\r\n"
            f"Host: {self.host}:{self.port}\r\n"
        )
        if body or method in ("POST", "PUT"):
            head += f"Content-Length: {len(body)}\r\n"
        head += "\r\n"
        self._writer.write(head.encode() + body)
        await self._writer.drain()
        try:
            return await self._read_response()
        finally:
            # A response that came back Connection: close leaves the
            # transport dead; drop it so the next request reconnects.
            if self._closing:
                await self.close()

    async def _read_response(self) -> tuple[int, dict[str, object]]:
        assert self._reader is not None
        lines: list[bytes] = []
        total = 0
        while True:
            line = await self._reader.readline()
            if not line:
                raise ServeError(
                    "server closed the connection before responding",
                    code="bad-response",
                    status=0,
                )
            total += len(line)
            if total > _RESPONSE_HEADER_LIMIT:
                raise ServeError(
                    "response header block exceeds the client limit",
                    code="bad-response",
                    status=0,
                )
            if line in (b"\r\n", b"\n"):
                break
            lines.append(line)
        status_line = lines[0].decode("latin-1").strip() if lines else ""
        parts = status_line.split(None, 2)
        if len(parts) < 2 or not parts[0].startswith("HTTP/1."):
            raise ServeError(
                f"malformed status line {status_line!r}",
                code="bad-response",
                status=0,
            )
        try:
            status = int(parts[1])
        except ValueError as exc:
            raise ServeError(
                f"malformed status {parts[1]!r}",
                code="bad-response",
                status=0,
            ) from exc
        headers: dict[str, str] = {}
        for raw_line in lines[1:]:
            name, sep, value = raw_line.decode("latin-1").partition(":")
            if sep:
                headers[name.strip().lower()] = value.strip()
        self._closing = headers.get("connection", "").lower() == "close"
        length_header = headers.get("content-length")
        if length_header is None:
            raise ServeError(
                "response carries no Content-Length",
                code="bad-response",
                status=0,
            )
        try:
            length = int(length_header)
        except ValueError as exc:
            raise ServeError(
                f"invalid response Content-Length {length_header!r}",
                code="bad-response",
                status=0,
            ) from exc
        try:
            body = await self._reader.readexactly(length)
        except (asyncio.IncompleteReadError, ConnectionError) as exc:
            raise ServeError(
                f"connection closed mid-response: {exc}",
                code="bad-response",
                status=0,
            ) from exc
        try:
            parsed = json.loads(body) if body else {}
        except json.JSONDecodeError as exc:
            raise ServeError(
                f"response body is not JSON: {exc}",
                code="bad-response",
                status=0,
            ) from exc
        if not isinstance(parsed, dict):
            raise ServeError(
                "response body must be a JSON object",
                code="bad-response",
                status=0,
            )
        return status, parsed

    def __repr__(self) -> str:
        state = "open" if self._writer is not None else "closed"
        return f"ServeClient({self.host}:{self.port}, {state})"
