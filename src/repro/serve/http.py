"""Minimal HTTP/1.1 framing over asyncio streams.

The scheduling service speaks JSON-over-HTTP with zero dependencies, so
this module hand-rolls exactly the slice of HTTP/1.1 the server and the
load generator need: request parsing (request line, headers,
``Content-Length`` bodies), keep-alive connections, fixed-length JSON
responses, and ``Transfer-Encoding: chunked`` for the job event stream.
Response documents may carry :class:`RawJson` fragments, which
:func:`encode_json` splices in verbatim instead of re-encoding them.
It is *not* a general HTTP implementation — no continuation lines, no
trailers, no request chunking — and malformed input maps to a clean
:class:`HttpError` (→ 400) instead of best-effort recovery.

Shared by both sides: :class:`HttpClient` drives the same framing from
the client end (one persistent connection per load-generator client),
so the harness exercises the exact wire format real clients would.

The client is *resilient by default*: transport failures (connection
refused/reset, a response cut off mid-body — surfaced distinctly as
:class:`TruncatedResponse`) are retried with bounded, seeded-jitter
exponential backoff, and a per-endpoint :class:`CircuitBreaker` stops
hammering an endpoint that keeps failing (open after N consecutive
failures, one half-open probe per cooldown).  Retrying a ``POST
/v1/submit`` is safe because the server deduplicates by point digest —
an already-admitted submission coalesces instead of double-running.
HTTP-level backpressure (``429`` + ``Retry-After``) is *not* retried
here: it is returned to the caller, which owns the pacing policy.
"""

from __future__ import annotations

import asyncio
import hashlib
import json
import time
from dataclasses import dataclass, field
from typing import Any, Optional
from urllib.parse import parse_qs, urlsplit

__all__ = [
    "MAX_BODY_BYTES",
    "HttpError",
    "TruncatedResponse",
    "CircuitOpen",
    "CircuitBreaker",
    "HttpRequest",
    "HttpResponse",
    "RawJson",
    "encode_json",
    "read_request",
    "write_response",
    "json_response",
    "error_response",
    "encode_chunk",
    "read_chunked_body",
    "HttpClient",
]

#: Request bodies above this are refused (413) before buffering.
MAX_BODY_BYTES = 4 * 1024 * 1024

#: Header-section cap: a request line or header longer than this is an
#: attack or a bug, not a submission.
_MAX_LINE = 16 * 1024

_REASONS = {
    200: "OK",
    202: "Accepted",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    408: "Request Timeout",
    413: "Payload Too Large",
    429: "Too Many Requests",
    500: "Internal Server Error",
    503: "Service Unavailable",
}


class HttpError(Exception):
    """A request that cannot be parsed or must be refused early."""

    def __init__(self, status: int, message: str):
        super().__init__(message)
        self.status = status
        self.message = message


class TruncatedResponse(ConnectionError):
    """The peer closed the connection mid-body.

    Distinct from a clean EOF between responses: the headers promised
    more bytes (``Content-Length`` short, or a chunked stream that never
    reached its terminal chunk) than arrived.  Subclasses
    :class:`ConnectionError` so the client's retry machinery engages —
    a truncated response is a transport failure, never data.
    """


class CircuitOpen(ConnectionError):
    """The endpoint's circuit breaker is open; the request was not sent."""


@dataclass
class HttpRequest:
    """One parsed request: method, split target, headers, raw body."""

    method: str
    path: str
    query: dict[str, str]
    headers: dict[str, str]  # keys lower-cased
    body: bytes = b""

    @property
    def keep_alive(self) -> bool:
        return self.headers.get("connection", "").lower() != "close"

    def json(self) -> Any:
        """The body decoded as JSON (``{}`` when empty); 400 on garbage."""
        if not self.body:
            return {}
        try:
            return json.loads(self.body.decode("utf-8"))
        except (UnicodeDecodeError, ValueError) as exc:
            raise HttpError(400, f"request body is not valid JSON: {exc}")


@dataclass
class HttpResponse:
    """One response ready to serialize (body already encoded)."""

    status: int
    body: bytes = b""
    content_type: str = "application/json"
    headers: dict[str, str] = field(default_factory=dict)
    close: bool = False


async def _read_line(reader: asyncio.StreamReader) -> bytes:
    try:
        line = await reader.readuntil(b"\r\n")
    except asyncio.IncompleteReadError as exc:
        if not exc.partial:
            return b""  # clean EOF between requests
        raise HttpError(400, "truncated request") from None
    except asyncio.LimitOverrunError:
        raise HttpError(400, "header line too long") from None
    if len(line) > _MAX_LINE:
        raise HttpError(400, "header line too long")
    return line


async def read_request(
    reader: asyncio.StreamReader,
) -> Optional[HttpRequest]:
    """Parse one request off ``reader``; ``None`` on clean EOF.

    Raises :class:`HttpError` on malformed framing (the handler answers
    it and closes) — never returns a half-parsed request.
    """
    request_line = await _read_line(reader)
    if not request_line:
        return None
    parts = request_line.decode("latin-1").rstrip("\r\n").split(" ")
    if len(parts) != 3 or not parts[2].startswith("HTTP/1."):
        raise HttpError(400, "malformed request line")
    method, target, _version = parts
    split = urlsplit(target)
    query = {
        key: values[-1]
        for key, values in parse_qs(
            split.query, keep_blank_values=True
        ).items()
    }

    headers: dict[str, str] = {}
    while True:
        line = await _read_line(reader)
        if not line:
            raise HttpError(400, "truncated headers")
        if line == b"\r\n":
            break
        name, sep, value = line.decode("latin-1").partition(":")
        if not sep:
            raise HttpError(400, f"malformed header {name.strip()!r}")
        headers[name.strip().lower()] = value.strip()

    body = b""
    if "transfer-encoding" in headers:
        raise HttpError(400, "chunked request bodies are not supported")
    length_text = headers.get("content-length", "0")
    try:
        length = int(length_text)
    except ValueError:
        raise HttpError(400, f"bad Content-Length {length_text!r}")
    if length < 0:
        raise HttpError(400, f"bad Content-Length {length}")
    if length > MAX_BODY_BYTES:
        raise HttpError(413, f"body of {length} bytes exceeds the cap")
    if length:
        try:
            body = await reader.readexactly(length)
        except asyncio.IncompleteReadError:
            raise HttpError(400, "truncated body") from None
    return HttpRequest(
        method=method.upper(),
        path=split.path or "/",
        query=query,
        headers=headers,
        body=body,
    )


def _head(response: HttpResponse, chunked: bool = False) -> bytes:
    reason = _REASONS.get(response.status, "Unknown")
    lines = [f"HTTP/1.1 {response.status} {reason}"]
    lines.append(f"Content-Type: {response.content_type}")
    if chunked:
        lines.append("Transfer-Encoding: chunked")
    else:
        lines.append(f"Content-Length: {len(response.body)}")
    for name, value in response.headers.items():
        lines.append(f"{name}: {value}")
    lines.append(
        "Connection: close" if response.close else "Connection: keep-alive"
    )
    return ("\r\n".join(lines) + "\r\n\r\n").encode("latin-1")


async def write_response(
    writer: asyncio.StreamWriter, response: HttpResponse
) -> None:
    writer.write(_head(response) + response.body)
    await writer.drain()


class RawJson:
    """JSON text encoded once, spliced verbatim into any number of bodies.

    Encode the value with ``json.dumps(value, sort_keys=True)``: a body
    built by :func:`encode_json` is then byte-identical to encoding the
    value in place.
    """

    __slots__ = ("data",)

    def __init__(self, data: bytes):
        self.data = data


#: ``json.dumps(value, sort_keys=True)`` without building an encoder per call.
_ENCODER = json.JSONEncoder(sort_keys=True)


def _holds_raw(value: Any) -> bool:
    if isinstance(value, RawJson):
        return True
    return isinstance(value, dict) and any(map(_holds_raw, value.values()))


def encode_json(doc: Any) -> bytes:
    """``json.dumps(doc, sort_keys=True)`` as UTF-8, :class:`RawJson` spliced.

    Only dicts that hold a fragment are walked key by key, with the
    encoder's own key order and separators; everything else is encoded
    whole.
    """
    if isinstance(doc, RawJson):
        return doc.data
    if not _holds_raw(doc):
        return _ENCODER.encode(doc).encode("utf-8")
    items = b", ".join(
        _ENCODER.encode(key).encode("utf-8") + b": " + encode_json(doc[key])
        for key in sorted(doc)
    )
    return b"{" + items + b"}"


def json_response(
    status: int, doc: Any, headers: Optional[dict[str, str]] = None
) -> HttpResponse:
    body = encode_json(doc) + b"\n"
    return HttpResponse(status=status, body=body, headers=dict(headers or {}))


def error_response(
    status: int, message: str, headers: Optional[dict[str, str]] = None
) -> HttpResponse:
    return json_response(status, {"error": message}, headers=headers)


def encode_chunk(payload: bytes) -> bytes:
    """One ``Transfer-Encoding: chunked`` frame (empty = terminator)."""
    return f"{len(payload):x}\r\n".encode("latin-1") + payload + b"\r\n"


async def read_chunked_body(reader: asyncio.StreamReader) -> bytes:
    """A whole ``Transfer-Encoding: chunked`` body, terminator included.

    EOF anywhere before the terminal empty chunk is a
    :class:`TruncatedResponse` — a chunked stream that just stops is a
    dead peer, not a short body.  Malformed chunk framing (non-hex size,
    missing CRLF) is a :class:`ConnectionError`: the connection state is
    unrecoverable either way.
    """
    chunks: list[bytes] = []
    total = 0
    while True:
        try:
            size_line = await reader.readuntil(b"\r\n")
        except (asyncio.IncompleteReadError, asyncio.LimitOverrunError):
            raise TruncatedResponse(
                "chunked body ended before its terminal chunk"
            ) from None
        try:
            size = int(size_line.split(b";", 1)[0].strip(), 16)
        except ValueError:
            raise ConnectionError(
                f"malformed chunk size line {size_line!r}"
            ) from None
        if size < 0:
            raise ConnectionError(f"negative chunk size {size}")
        total += size
        if total > MAX_BODY_BYTES:
            raise ConnectionError(
                f"chunked body of {total}+ bytes exceeds the cap"
            )
        try:
            if size:
                chunks.append(await reader.readexactly(size))
            tail = await reader.readexactly(2)
        except asyncio.IncompleteReadError:
            raise TruncatedResponse(
                f"chunk of {size} bytes cut short"
            ) from None
        if tail != b"\r\n":
            raise ConnectionError(f"chunk not CRLF-terminated: {tail!r}")
        if size == 0:
            return b"".join(chunks)


# ----------------------------------------------------------------------
# Client side
# ----------------------------------------------------------------------
def _backoff_delay(
    key: str, attempt: int, base: float = 0.05, cap: float = 1.0
) -> float:
    """Jittered exponential backoff before retry ``attempt + 1``.

    The jitter is seeded from ``(key, attempt)`` — same construction as
    the supervisor's :func:`~repro.exec.supervise.backoff_delay` — so a
    given client's retry schedule replays exactly while distinct
    endpoints still decorrelate.
    """
    span = min(cap, base * (2.0**attempt))
    digest = hashlib.sha256(f"{key}:{attempt}".encode()).digest()
    fraction = int.from_bytes(digest[:8], "big") / 2**64
    return span * (0.5 + 0.5 * fraction)


def _endpoint_key(method: str, target: str) -> str:
    """The circuit-breaker key for a request: method + path *family*.

    Job and result fetches collapse onto one key per family (the job id
    / digest segment is ``*``-ed out) — breakers track endpoint health,
    and every job poll exercises the same server path.
    """
    path = target.split("?", 1)[0]
    parts = path.split("/")
    if len(parts) > 3 and parts[1] == "v1" and parts[2] in ("jobs", "results"):
        suffix = "/events" if parts[-1] == "events" and len(parts) > 4 else ""
        path = f"/v1/{parts[2]}/*{suffix}"
    return f"{method} {path}"


class CircuitBreaker:
    """Consecutive-failure circuit breaker for one endpoint family.

    Closed until ``threshold`` consecutive transport failures, then open
    for ``cooldown`` seconds, then half-open: exactly one probe request
    is let through per cooldown window — success closes the breaker,
    failure re-opens it for a fresh cooldown.
    """

    __slots__ = ("threshold", "cooldown", "failures", "_opened_at", "_probing")

    def __init__(self, threshold: int = 8, cooldown: float = 0.5):
        if threshold < 1:
            raise ValueError(f"threshold must be >= 1: {threshold}")
        self.threshold = threshold
        self.cooldown = cooldown
        self.failures = 0
        self._opened_at: Optional[float] = None
        self._probing = False

    @property
    def state(self) -> str:
        if self._opened_at is None:
            return "closed"
        elapsed = time.monotonic() - self._opened_at  # det: breaker cooldown clock, not simulated state
        return "half_open" if elapsed >= self.cooldown else "open"

    def allow(self) -> bool:
        """May a request go out now?  (Claims the half-open probe slot.)"""
        if self._opened_at is None:
            return True
        if self.state == "open" or self._probing:
            return False
        self._probing = True
        return True

    def record_success(self) -> None:
        self.failures = 0
        self._opened_at = None
        self._probing = False

    def record_failure(self) -> None:
        self.failures += 1
        self._probing = False
        if self.failures >= self.threshold:
            self._opened_at = time.monotonic()  # det: breaker cooldown clock, not simulated state


class HttpClient:
    """One persistent keep-alive connection to the scheduling server.

    Deliberately tiny: JSON in, JSON out, no redirects, no TLS, no
    pipelining (one request in flight per connection — the load
    generator gets concurrency from many clients, not deep pipelines).

    Transport failures retry up to ``retries`` times with seeded-jitter
    backoff behind a per-endpoint-family :class:`CircuitBreaker`;
    ``transport_retries`` counts them so the load harness can report
    exactly how bumpy the run was.  Server digest-idempotency makes the
    retried submits safe (see module docstring).
    """

    def __init__(
        self,
        host: str,
        port: int,
        retries: int = 3,
        breaker_threshold: int = 8,
        breaker_cooldown: float = 0.5,
    ):
        self.host = host
        self.port = port
        self.retries = retries
        self.transport_retries = 0
        self._breaker_threshold = breaker_threshold
        self._breaker_cooldown = breaker_cooldown
        self._breakers: dict[str, CircuitBreaker] = {}
        self._reader: Optional[asyncio.StreamReader] = None
        self._writer: Optional[asyncio.StreamWriter] = None

    def breaker(self, method: str, target: str) -> CircuitBreaker:
        """The breaker guarding ``method target``'s endpoint family."""
        key = _endpoint_key(method, target)
        breaker = self._breakers.get(key)
        if breaker is None:
            breaker = self._breakers[key] = CircuitBreaker(
                self._breaker_threshold, self._breaker_cooldown
            )
        return breaker

    async def _connect(self) -> None:
        self._reader, self._writer = await asyncio.open_connection(
            self.host, self.port
        )

    async def close(self) -> None:
        if self._writer is not None:
            self._writer.close()
            try:
                await self._writer.wait_closed()
            except OSError:
                pass
            self._reader = self._writer = None

    async def request(
        self,
        method: str,
        target: str,
        doc: Any = None,
        headers: Optional[dict[str, str]] = None,
    ) -> tuple[int, dict[str, str], Any]:
        """One logical request; returns ``(status, headers, parsed body)``.

        Transport failures — connect refused, connection reset,
        :class:`TruncatedResponse`, malformed framing — are retried up
        to ``self.retries`` times with jittered backoff, reconnecting
        each time.  A breaker held open by earlier failures raises
        :class:`CircuitOpen` without touching the wire.  HTTP status
        codes (429 included) are results, not failures: they return.
        """
        breaker = self.breaker(method, target)
        last: Optional[Exception] = None
        for attempt in range(self.retries + 1):
            if not breaker.allow():
                raise CircuitOpen(
                    f"circuit open for {_endpoint_key(method, target)} "
                    f"after {breaker.failures} consecutive failures"
                )
            try:
                if self._writer is None:
                    await self._connect()
                result = await self._round_trip(method, target, doc, headers)
            except (ConnectionError, asyncio.IncompleteReadError, OSError) as exc:
                await self.close()
                breaker.record_failure()
                last = exc
                if attempt < self.retries:
                    self.transport_retries += 1
                    await asyncio.sleep(
                        _backoff_delay(
                            f"{self.host}:{self.port}:{method} {target}",
                            attempt,
                        )
                    )
                continue
            breaker.record_success()
            return result
        assert last is not None
        raise last

    async def _round_trip(
        self,
        method: str,
        target: str,
        doc: Any,
        headers: Optional[dict[str, str]],
    ) -> tuple[int, dict[str, str], Any]:
        assert self._reader is not None and self._writer is not None
        body = b""
        if doc is not None:
            body = json.dumps(doc, sort_keys=True).encode("utf-8")
        lines = [
            f"{method} {target} HTTP/1.1",
            f"Host: {self.host}:{self.port}",
            f"Content-Length: {len(body)}",
            "Content-Type: application/json",
        ]
        for name, value in (headers or {}).items():
            lines.append(f"{name}: {value}")
        self._writer.write(
            ("\r\n".join(lines) + "\r\n\r\n").encode("latin-1") + body
        )
        await self._writer.drain()

        status_line = await self._reader.readuntil(b"\r\n")
        pieces = status_line.decode("latin-1").split(" ", 2)
        if len(pieces) < 2 or not pieces[0].startswith("HTTP/1."):
            raise ConnectionError(f"malformed status line {status_line!r}")
        status = int(pieces[1])
        response_headers: dict[str, str] = {}
        while True:
            line = await self._reader.readuntil(b"\r\n")
            if line == b"\r\n":
                break
            name, _sep, value = line.decode("latin-1").partition(":")
            response_headers[name.strip().lower()] = value.strip()
        encoding = response_headers.get("transfer-encoding", "").lower()
        if "chunked" in encoding:
            payload = await read_chunked_body(self._reader)
        else:
            length = int(response_headers.get("content-length", "0"))
            if length:
                try:
                    payload = await self._reader.readexactly(length)
                except asyncio.IncompleteReadError as exc:
                    # NOT a clean EOF: the headers promised `length`
                    # bytes.  Distinguishing this is what arms retries
                    # against mid-body connection drops.
                    raise TruncatedResponse(
                        f"response body cut short: got {len(exc.partial)} "
                        f"of {length} bytes"
                    ) from None
            else:
                payload = b""
        if response_headers.get("connection", "").lower() == "close":
            await self.close()
        parsed: Any = None
        if payload:
            try:
                parsed = json.loads(payload.decode("utf-8"))
            except (UnicodeDecodeError, ValueError):
                parsed = payload  # surface raw bytes; caller decides
        return status, response_headers, parsed
