"""Text-generation boundary: the request types and the transports.

Three interchangeable backends sit behind one ``generate`` call:

* HttpBackend      -- OpenAI-compatible chat-completions endpoint over HTTP.
* ScriptedBackend  -- pure table lookup; the deterministic test double.
* SyntheticOracleBackend -- seeded noisy oracle for desk-scale experiments.

A backend wider than one request (HttpBackend) also lets a caller start
requests with ``send`` and take each reply later with ``generate``.
HttpBackend keeps a shared set of keep-alive connections and drives them
through one selector from whichever caller thread is waiting for a reply;
it starts no thread of its own.

The response cache and the loop that answers a batch of draws from it or
from a backend live in ``tout.calls``.

Temperature is the only model knob the engine manipulates, so backends must
keep responses at distinct temperatures genuinely distinct (cache keys
quantize temperature to 1e-3 rather than hashing raw floats).
"""

from __future__ import annotations

import functools
import hashlib
import json
import logging
import math
import os
import sys
import threading
import time
import weakref
from collections import deque
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Optional, Sequence
from urllib.parse import unquote, urlsplit

from .model import (
    MAX_TEMPERATURE,
    BackendUnavailableError,
    InvalidArgumentError,
    Transcript,
)

if TYPE_CHECKING:
    import numpy as np

log = logging.getLogger(__name__)

DEFAULT_MAX_TOKENS = 512

# HttpBackend's width: the most connections, so requests, it keeps open at
# once. A search step sends k*m value draws at once (100 at the game24
# settings, k=5, m=20): 128, the next power of two, sends them in one round
# trip, where 32 took 4 (README, "Backends").
DEFAULT_MAX_IN_FLIGHT = 128

# The status line and headers of a response must fit in this many bytes.
_MAX_HEAD = 64 * 1024
# Each connection's receive buffer starts at this size and grows only to
# hold a longer reply: a reply is parsed once it is all in. A loopback
# game24 reply is under 0.5 KiB; at 128 connections, each KiB here is
# ~0.13 MB of peak memory (README, "Backends").
_RECV_SIZE = 2 * 1024
_HEX_DIGITS = b"0123456789abcdefABCDEF"

ENV_API_BASE = "TOUT_API_BASE"
ENV_API_KEY = "TOUT_API_KEY"
ENV_MODEL = "TOUT_MODEL"


_set_field = object.__setattr__  # sets a field of a frozen instance


# Slotted: a value draw builds one request and one response, and an instance
# dict for each would be one more allocation per draw.
@dataclass(frozen=True, slots=True, init=False)
class BackendRequest:
    prompt: str
    temperature: float
    n: int
    max_tokens: int
    stop: Optional[tuple[str, ...]]
    # The draw's number among its state's value draws; None, keyed as 0,
    # for a request that is not one. Keyed (cache_key) but not sent
    # (request_to_body): a backend that answers from a stream per prompt
    # serves draw ``index`` of it; None asks for the next draws.
    index: Optional[int]

    # Written out rather than generated: the generated __init__ checks its
    # arguments in a __post_init__ call after setting every field, which
    # costs about as much as one more field, and a value draw builds one.
    def __init__(
        self,
        prompt: str,
        temperature: float,
        n: int = 1,
        max_tokens: int = DEFAULT_MAX_TOKENS,
        stop: Optional[tuple[str, ...]] = None,
        index: Optional[int] = None,
    ):
        # one test passes a temperature in range; NaN and infinities fail it
        if not (0.0 <= temperature <= MAX_TEMPERATURE):
            if not math.isfinite(temperature):
                raise InvalidArgumentError("temperature must be finite")
            raise InvalidArgumentError(
                f"temperature must be within [0, {MAX_TEMPERATURE:g}]"
            )
        if n < 1:
            raise InvalidArgumentError("n must be >= 1")
        if max_tokens < 1:
            raise InvalidArgumentError("max_tokens must be >= 1")
        if index is not None and index < 0:
            raise InvalidArgumentError("index must be >= 0")
        _set_field(self, "prompt", prompt)
        _set_field(self, "temperature", temperature)
        _set_field(self, "n", n)
        _set_field(self, "max_tokens", max_tokens)
        _set_field(self, "stop", stop)
        _set_field(self, "index", index)


@dataclass(frozen=True, slots=True)
class BackendResponse:
    completions: tuple[str, ...]
    usage: Optional[dict[str, int]] = None


# A state's m value draws share one prompt, and generate() digests the
# prompt of every call it logs: the last few digests are kept.
@functools.lru_cache(maxsize=64)
def prompt_digest(prompt: str) -> str:
    return hashlib.sha256(prompt.encode("utf-8")).hexdigest()[:16]


def quantize_temperature(temperature: float) -> int:
    """Temperature quantized to 1e-3 steps, the granularity of all keying."""
    return round(temperature * 1000)


def request_to_body(request: BackendRequest, model: str) -> dict[str, Any]:
    """Serialize a request to the chat-completions HTTP body."""
    body: dict[str, Any] = {
        "model": model,
        "messages": [{"role": "user", "content": request.prompt}],
        "temperature": request.temperature,
        "n": request.n,
        "max_tokens": request.max_tokens,
    }
    if request.stop is not None:
        body["stop"] = list(request.stop)
    return body


def body_to_request(body: dict[str, Any]) -> BackendRequest:
    """Parse the chat-completions HTTP body back into a request."""
    stop = body.get("stop")
    return BackendRequest(
        prompt=body["messages"][0]["content"],
        temperature=body["temperature"],
        n=body["n"],
        max_tokens=body["max_tokens"],
        stop=tuple(stop) if stop is not None else None,
    )


class Backend:
    """Minimal backend interface: an id for cache keys plus raw generation.

    ``max_in_flight`` is how many requests may be outstanding at once. A
    backend wider than 1 can start requests before their replies are
    taken: ``send(requests)`` starts them, ``generate(request)`` takes the
    reply of a request that was sent, or sends it and waits, and
    ``cancel(requests)`` releases sent requests that will not be taken. So
    each backend call is still one ``generate`` call. The engine sends a
    batch's cache misses ahead only to a backend wider than 1 (see
    cached_generate_many); on the in-process backends, 1 wide, ``send``
    and ``cancel`` do nothing and each request is generated in its turn on
    the caller's thread. HttpBackend is DEFAULT_MAX_IN_FLIGHT (128) wide,
    so a search step's k*m value draws (100 at the game24 settings) go out
    in one round trip. A request's ``index`` is its draw's number, for a
    backend whose answers depend on it rather than on call order.
    """

    backend_id: str = "backend"
    max_in_flight: int = 1

    def generate(self, request: BackendRequest) -> BackendResponse:
        raise NotImplementedError

    def send(self, requests: Sequence[BackendRequest]) -> None:
        """Start requests whose replies generate() will take."""

    def cancel(self, requests: Sequence[BackendRequest]) -> None:
        """Release sent requests whose replies will not be taken."""

    def close(self) -> None:
        """Release what the backend holds open; the in-process ones hold
        nothing."""


def generate(
    backend: Backend, request: BackendRequest, transcript: Optional[Transcript] = None
) -> BackendResponse:
    """Issue one generation call, timing it into the live transcript.

    The event's ``latency_ms`` is how long the caller waited: for a request
    sent ahead with ``backend.send``, the wait for its reply, not its round
    trip. The latency-bearing event is deliberately excluded from persisted
    run records (see model.RECORD_EVENT_KINDS).
    """
    started = time.monotonic()
    response = backend.generate(request)
    latency_ms = (time.monotonic() - started) * 1000.0
    if len(response.completions) != request.n:
        raise BackendUnavailableError(
            f"backend {backend.backend_id} returned {len(response.completions)} "
            f"completions for n={request.n}"
        )
    if transcript is not None:
        transcript.emit(
            "generate",
            backend=backend.backend_id,
            prompt_digest=prompt_digest(request.prompt),
            temperature=request.temperature,
            n=request.n,
            latency_ms=latency_ms,
        )
    log.debug(
        "generate backend=%s temp=%.3f n=%d latency=%.1fms",
        backend.backend_id,
        request.temperature,
        request.n,
        latency_ms,
    )
    return response


def _retry_after_s(value: Optional[str]) -> float:
    """Seconds a Retry-After header asks for; 0 unless it is a number of
    seconds (the HTTP-date form falls back to the backoff)."""
    try:
        seconds = float(value)  # None when the header is absent
    except (TypeError, ValueError):
        return 0.0
    return seconds if math.isfinite(seconds) and seconds > 0 else 0.0


def _completions_of(payload: dict[str, Any]) -> Optional[list[str]]:
    """The texts of a chat-completions reply's choices, or None when the
    choices have the wrong shape. A choice without a message, or with a
    null content, is empty text."""
    choices = payload.get("choices", [])
    if not isinstance(choices, list):
        return None
    completions: list[str] = []
    for choice in choices:
        message = choice.get("message", {}) if isinstance(choice, dict) else None
        if not isinstance(message, dict):
            return None
        content = message.get("content")
        if content is None:
            content = ""
        elif not isinstance(content, str):
            return None
        completions.append(content)
    return completions


class HttpProtocolError(OSError):
    """A response that is not well-formed HTTP/1.1, or that was cut short;
    HttpBackend retries it as it retries a transport error."""


class _Incomplete(Exception):
    """The buffered bytes end before the response does: parse it again
    once more have arrived."""


# selectors.EVENT_READ and EVENT_WRITE, without importing selectors with tout
_READ, _WRITE = 1, 2

# The stages of a connection's exchange, in order; the last two read.
_IDLE = 0  # no request: kept alive for the next, or not opened yet
_OPEN = 1  # to be resolved and connected
_CONNECT = 2  # waiting for the connect to complete
_HANDSHAKE = 3  # in the TLS handshake
_SEND = 4  # sending the request, or CONNECT to a proxy
_TUNNEL = 5  # reading the proxy's reply to CONNECT
_RECV = 6  # reading the response


def _wait_for(exc: OSError, default: int) -> int:
    """The event a non-blocking socket call that raised exc waits for
    before it is tried again, or 0 when exc is a failure. A full or empty
    socket buffer waits for ``default`` (_READ for a receive, _WRITE for a
    send); TLS names the event it needs."""
    if isinstance(exc, BlockingIOError):
        return default
    ssl = sys.modules.get("ssl")  # loaded by any TLS connection
    if ssl is not None:
        if isinstance(exc, ssl.SSLWantReadError):
            return _READ
        if isinstance(exc, ssl.SSLWantWriteError):
            return _WRITE
    return 0


class _Connection:
    """One keep-alive HTTP/1.1 connection, its receive buffer and the
    request it carries.

    ``sock`` is None until HttpBackend opens it for a first request, and
    again after ``close()``. Received bytes not yet parsed are
    ``buf[start:end]``; ``received`` tells whether any byte of the current
    response has arrived, and ``eof`` whether the server has closed. The
    parse methods read only what is buffered: when the bytes end before
    the response does, they raise _Incomplete, and the caller parses again
    from the same ``start`` once more have arrived.
    """

    __slots__ = (
        "sock", "fd", "buf", "start", "end", "received", "eof", "stage",
        "events", "call", "reused", "out", "deadline", "addresses", "proxy",
        "tls",
    )

    def __init__(self):
        self.sock: Any = None
        self.fd = -1  # the socket's descriptor, as the selector knows it
        self.buf = bytearray(_RECV_SIZE)
        self.start = self.end = 0
        self.received = self.eof = False
        self.stage = _IDLE
        self.events = 0  # the events it is registered for; 0: none
        self.call: Optional[_Call] = None
        self.reused = False  # the request went out on a kept-alive socket
        self.out = b""  # the bytes of the request (or CONNECT) not yet sent
        self.deadline = math.inf  # time.monotonic() by which a byte must move
        self.addresses: list = []  # getaddrinfo results not yet tried
        self.proxy = ""  # the proxy's host name while its tunnel is not set up
        self.tls = False

    def close(self) -> None:
        if self.sock is not None:
            self.sock.close()
            self.sock = None
        self.start = self.end = 0
        self.eof = False
        self.stage = _IDLE
        self.events = 0

    def recv(self) -> int:
        """Move the bytes that have arrived into the buffer, setting
        ``eof`` at the end of the stream; returns the event to wait for
        before more can arrive."""
        while True:
            buf = self.buf
            if self.start == self.end:
                self.start = self.end = 0
            elif self.end == len(buf):
                if self.start:  # move the unparsed bytes to the front
                    size = self.end - self.start
                    buf[:size] = buf[self.start : self.end]
                    self.start, self.end = 0, size
                else:  # a reply longer than the buffer
                    buf *= 2
            free = len(buf) - self.end
            try:
                received = self.sock.recv_into(memoryview(buf)[self.end :])
            except OSError as exc:
                wait = _wait_for(exc, _READ)
                if not wait:
                    raise
                return wait
            if not received:
                self.eof = True
                return _READ
            self.end += received
            self.received = True
            # a short read emptied the socket; TLS may hold decrypted bytes
            if received < free and not self.tls:
                return _READ

    def _short(self, what: str) -> Exception:
        """The error for a parse that ran out of bytes: _Incomplete while
        the stream is open, else the response was cut short."""
        if not self.eof:
            return _Incomplete()
        if not self.received:
            return HttpProtocolError("connection closed before a response")
        return HttpProtocolError(f"connection closed in the {what}")

    def _take(self, n: int, body: bytearray) -> None:
        """Move the next n bytes of the stream to body."""
        if self.end - self.start < n:
            raise self._short("body")
        body += self.buf[self.start : self.start + n]
        self.start += n

    def _line(self) -> bytes:
        """The next line of the stream, without its line ending."""
        stop = self.buf.find(b"\n", self.start, self.end)
        if stop < 0:
            if self.end - self.start >= _MAX_HEAD:
                raise HttpProtocolError("line longer than 64 KiB")
            raise self._short("chunked body")
        line = bytes(self.buf[self.start : stop]).rstrip(b"\r")
        self.start = stop + 1
        return line

    def head(self) -> tuple[str, int, dict[str, str]]:
        """The next response head: its version, status and headers, keyed
        by lowercase name (a repeated header's values joined by ", ")."""
        buf = self.buf
        stop = buf.find(b"\r\n\r\n", self.start, self.end)
        newline = "\r\n"
        # a server may end its lines with LF alone
        bare = buf.find(b"\n\n", self.start, self.end if stop < 0 else stop)
        if bare >= 0:
            stop, newline = bare, "\n"
        if stop < 0:
            if self.end - self.start >= _MAX_HEAD:
                raise HttpProtocolError("response head longer than 64 KiB")
            raise self._short("head")
        if stop - self.start > _MAX_HEAD:
            raise HttpProtocolError("response head longer than 64 KiB")
        lines = buf[self.start : stop].decode("latin-1").split(newline)
        self.start = stop + 2 * len(newline)
        version, _, rest = lines[0].partition(" ")
        code = rest[:3]
        if not (
            version.startswith("HTTP/1.")
            and code.isascii()
            and code.isdigit()
            and rest[3:4] in ("", " ")
        ):
            raise HttpProtocolError(f"malformed status line {lines[0][:80]!r}")
        headers: dict[str, str] = {}
        for line in lines[1:]:
            name, colon, value = line.partition(":")
            if not colon:
                raise HttpProtocolError(f"malformed header line {line[:80]!r}")
            name, value = name.strip().lower(), value.strip()
            headers[name] = f"{headers[name]}, {value}" if name in headers else value
        return version, int(code), headers

    def response(self) -> tuple[int, dict[str, str], bytearray, bool]:
        """Read one response to a POST (RFC 9112 section 6.3): its status,
        headers, body, and whether the connection may carry another."""
        status = 100
        while 100 <= status < 200:  # interim responses carry no body
            version, status, headers = self.head()
        tokens = {t.strip().lower() for t in headers.get("connection", "").split(",")}
        keep = "close" not in tokens and (
            version != "HTTP/1.0" or "keep-alive" in tokens
        )
        body = bytearray()
        if status in (204, 304):
            pass
        elif "transfer-encoding" in headers:
            if headers["transfer-encoding"].rsplit(",", 1)[-1].strip().lower() == "chunked":
                self._chunked(body)
            else:
                keep = self._until_close(body)
        elif "content-length" in headers:
            lengths = {v.strip() for v in headers["content-length"].split(",")}
            length = lengths.pop() if len(lengths) == 1 else ",".join(lengths)
            if not (length.isascii() and length.isdigit()):
                raise HttpProtocolError(f"bad Content-Length {length!r}")
            self._take(int(length), body)
        else:
            keep = self._until_close(body)
        # bytes past the response, or a server that closed: do not reuse
        if self.start != self.end or self.eof:
            keep = False
        return status, headers, body, keep

    def _chunked(self, body: bytearray) -> None:
        while True:
            size = self._line().split(b";", 1)[0].strip()
            if not size or size.translate(None, _HEX_DIGITS):
                raise HttpProtocolError(f"bad chunk size {size[:80]!r}")
            if not int(size, 16):
                break
            self._take(int(size, 16), body)
            if self._line():
                raise HttpProtocolError("chunk data longer than its size")
        while self._line():  # trailer fields, ignored
            pass

    def _until_close(self, body: bytearray) -> bool:
        """Read a body that ends when the server closes; returns False, as
        the connection cannot be reused."""
        if not self.eof:
            raise _Incomplete()
        body += self.buf[self.start : self.end]
        self.start = self.end
        return False


def _proxy_for(url) -> Optional[str]:
    """The proxy the environment names for the URL's scheme and host, if any.

    urllib.request, which imports http.client, is loaded only when some
    ``*_proxy`` variable is set."""
    if not any(name.lower().endswith("_proxy") for name in os.environ):
        return None
    import urllib.request

    proxy = urllib.request.getproxies().get(url.scheme)
    if not proxy or urllib.request.proxy_bypass(url.hostname):
        return None
    return proxy


def _is_number(value: Any, kinds: type | tuple[type, ...]) -> bool:
    """isinstance(value, kinds) for a value that is not a bool."""
    return isinstance(value, kinds) and not isinstance(value, bool)


class _Call:
    """One POST to the endpoint, from its first send to its reply or its
    last failure."""

    __slots__ = (
        "request", "wire", "attempts", "due", "last_status", "last_error",
        "conn", "cancelled", "done", "result", "error",
    )

    def __init__(self, request: Optional[BackendRequest], wire: bytes = b""):
        self.request = request  # the request sent ahead, or None
        self.wire = wire  # the request's bytes, head and body; built on first send
        self.attempts = 0  # times sent
        self.due = 0.0  # time.monotonic() before which it is not sent again
        self.last_status: Optional[int] = None
        self.last_error = "no attempt made"
        self.conn: Optional[_Connection] = None  # the connection carrying it
        self.cancelled = self.done = False
        self.result: Any = None  # (completions, usage) once done
        self.error: Optional[BaseException] = None


class _Poller:
    """A selector over an HttpBackend's connections, made on first use,
    and a socket pair whose write end wakes a thread blocked in it."""

    __slots__ = ("selector", "_wake")

    def __init__(self):
        self.selector: Any = None
        self._wake: Any = None

    def open(self):
        if self.selector is None:
            import selectors
            import socket

            self.selector = selectors.DefaultSelector()
            self._wake = socket.socketpair()
            for end in self._wake:
                end.setblocking(False)
            self.selector.register(self._wake[0], _READ)  # its data is None
        return self.selector

    def wake(self) -> None:
        wake = self._wake
        try:
            wake[1].send(b"\0")
        except (OSError, TypeError):  # full: a wake-up is pending; or closed
            pass

    def drain(self) -> None:
        try:
            self._wake[0].recv(4096)
        except OSError:
            pass

    def close(self) -> None:
        if self.selector is not None:
            self.selector.close()
            for end in self._wake:
                end.close()
        self.selector = self._wake = None


def _release(connections: set, poller: _Poller) -> None:
    """Close an HttpBackend's connections and its selector: by close(), and
    when the backend is collected without it."""
    for conn in connections:
        conn.close()
    connections.clear()
    poller.close()


class HttpBackend(Backend):
    """Client for any OpenAI-compatible /v1/chat/completions endpoint.

    Batches n completions into a single request when the provider honors n.
    The first reply with fewer choices than asked for is logged, once per
    backend; every shortfall is re-requested one completion at a time and,
    failing that, padded with empty text (logged, and counted in
    ``padded``). Transient failures, including a 200 whose body is not a
    JSON object or whose ``choices`` is not a list of objects with string
    or null ``message.content``, retry with exponential backoff before
    raising BackendUnavailableError with the last HTTP status and the
    number of attempts made; a 429 whose Retry-After gives seconds waits
    at least that long, unless it asks for more than
    ``backoff_s * 2**max_retries``, which fails at once. Such a 429 pauses
    every send: no request goes out, first tries included, until the
    Retry-After has passed, so the others do not spend their retries on a
    rate limit.

    Requests are plain HTTP/1.1 over non-blocking sockets. The backend
    keeps a shared set of at most ``max_in_flight`` keep-alive
    connections to the endpoint, each carrying one request at a time,
    opened as requests need them (TLS-wrapped for an ``https`` base URL),
    and drives them through one ``selectors`` selector. It starts no
    thread: a caller waiting for a reply runs the selector loop, one
    thread at a time. That loop connects, tunnels, shakes hands, sends,
    reads and parses for every request in flight, stores the replies of
    other callers and wakes them, and schedules retries, so the failed
    requests of a batch back off together. ``send(requests)`` sends at
    once as many as free connections allow and queues the rest in order;
    ``generate(request)`` takes the reply of a sent request, or sends it
    and waits; ``cancel(requests)`` drops sent requests that will not be
    taken, closing the connections that still carry them. So
    ``max_in_flight`` bounds the requests on the wire across all
    ``--jobs`` threads, a direct ``generate()`` call included. The
    default, DEFAULT_MAX_IN_FLIGHT = 128, sends a 100-draw search step in
    one round trip rather than 4 at 32 (README, "Backends").
    ``timeout_s`` bounds how long a connection that carries a request
    waits for its next byte to move, its connect included.

    The request head is built once; a request adds its Content-Length and
    goes out in one send. A response is read into the connection's own
    buffer and framed by RFC 9112: a chunked body, else its
    Content-Length, else until the server closes. A malformed or truncated
    response is an HttpProtocolError, retried as a transport error is. A
    connection that fails, is close-delimited or is marked ``Connection:
    close`` (or is an HTTP/1.0 reply without keep-alive) is closed and
    dropped; a kept-alive one that the server closed while idle is
    reopened once at once, without a retry or a backoff. When the
    environment names a proxy for the base URL's scheme and the host is
    not bypassed (``no_proxy``), the connection is a CONNECT tunnel
    through that proxy. ``close()`` closes every connection and the
    selector, as does collecting the backend; the backend reopens what it
    needs if used again, and a request that was on the wire is sent again
    if it is taken.
    """

    def __init__(
        self,
        base_url: Optional[str] = None,
        api_key: Optional[str] = None,
        model: Optional[str] = None,
        max_retries: int = 3,
        backoff_s: float = 1.0,
        timeout_s: float = 60.0,
        max_in_flight: int = DEFAULT_MAX_IN_FLIGHT,
    ):
        self.base_url = (base_url or os.getenv(ENV_API_BASE, "")).rstrip("/")
        self.api_key = api_key if api_key is not None else os.getenv(ENV_API_KEY, "")
        self.model = model or os.getenv(ENV_MODEL, "")
        if not self.base_url:
            raise InvalidArgumentError(
                f"no API base URL: pass base_url or set {ENV_API_BASE}"
            )
        if not self.model:
            raise InvalidArgumentError(f"no model name: pass model or set {ENV_MODEL}")
        # bool is an int subclass, but True is no count and no duration
        if not _is_number(max_in_flight, int) or max_in_flight < 1:
            raise InvalidArgumentError("max_in_flight must be an int >= 1")
        if not _is_number(max_retries, int) or max_retries < 0:
            raise InvalidArgumentError("max_retries must be an int >= 0")
        if not _is_number(backoff_s, (int, float)) or not 0 <= backoff_s < math.inf:
            raise InvalidArgumentError("backoff_s must be finite and >= 0")
        if not _is_number(timeout_s, (int, float)) or not 0 < timeout_s < math.inf:
            raise InvalidArgumentError("timeout_s must be finite and > 0")
        self._url = urlsplit(self.base_url)
        try:
            self._url.port  # raises unless absent or a number in range
        except ValueError as exc:
            raise InvalidArgumentError(f"API base URL {self.base_url}: {exc}") from None
        if self._url.scheme not in ("http", "https") or not self._url.hostname:
            raise InvalidArgumentError(
                f"API base URL must be http:// or https:// with a host: {self.base_url}"
            )
        path = self._url.path + "/v1/chat/completions"
        if not all("!" <= c <= "~" for c in path):
            raise InvalidArgumentError(
                f"API base URL path must be printable ASCII: {self.base_url}"
            )
        if not self.api_key.isprintable():
            raise InvalidArgumentError("API key must be printable text")
        host = self._url.hostname
        port = self._url.port
        try:
            if not host.isascii():
                host = host.encode("idna").decode("ascii")
            key = self.api_key.encode("latin-1")
        except UnicodeError as exc:
            raise InvalidArgumentError(f"API base URL or key: {exc}") from None
        if ":" in host:  # an IPv6 address
            host = f"[{host}]"
        # the CONNECT target names the port always, the Host header when given
        self._target = f"{host}:{port or (443 if self._url.scheme == 'https' else 80)}"
        head = [
            f"POST {path} HTTP/1.1".encode("ascii"),
            f"Host: {host if port is None else f'{host}:{port}'}".encode("ascii"),
            b"Content-Type: application/json",
            # http.client sent this implicitly; without it a server may gzip
            b"Accept-Encoding: identity",
        ]
        if key:
            head.append(b"Authorization: Bearer " + key)
        head.append(b"Content-Length: ")
        self._head = b"\r\n".join(head)  # each request adds its length and body
        self._endpoint = self.base_url + "/v1/chat/completions"
        self.max_retries = max_retries
        self.backoff_s = backoff_s
        self.timeout_s = timeout_s
        self.max_in_flight = max_in_flight
        self.padded = 0  # empty completions padded in for a provider's shortfall
        self._warned_short = False  # a reply short of n has been logged
        # guards padded, _warned_short and the fields down to _cancelled
        self._lock = threading.Lock()
        self._woken = threading.Condition(self._lock)  # a call is done, or the loop free
        self._driving = False  # a thread runs the selector loop
        self._waiting = 0  # threads waiting on _woken
        self._queue: deque[_Call] = deque()  # calls waiting for a connection or a time
        self._sent: dict[int, list[_Call]] = {}  # id(request) -> its calls not yet taken
        self._cancelled: list[_Call] = []  # whose connections are still to be released
        # Only the thread running the loop touches the fields below.
        self._connections: set[_Connection] = set()  # every connection made
        self._idle: list[_Connection] = []  # open, kept alive, carrying nothing
        self._poller = _Poller()
        self._not_before = 0.0  # time.monotonic() before which nothing is sent
        self._next_check = math.inf  # no connection times out before this
        self._tls: Any = None  # the https context, made on first use
        weakref.finalize(self, _release, self._connections, self._poller)
        self.backend_id = f"http:{self.base_url}:{self.model}"

    def _wire(self, body: dict[str, Any]) -> bytes:
        data = json.dumps(body).encode("utf-8")
        return b"%s%d\r\n\r\n%s" % (self._head, len(data), data)

    def send(self, requests: Sequence[BackendRequest]) -> None:
        calls = [_Call(request) for request in requests]
        with self._lock:
            sent = self._sent
            for call in calls:
                sent.setdefault(id(call.request), []).append(call)
            self._queue.extend(calls)
        self._kick()

    def cancel(self, requests: Sequence[BackendRequest]) -> None:
        with self._lock:
            for request in requests:
                call = self._pop_sent(request)
                if call is not None and not call.done:
                    call.cancelled = True
                    self._cancelled.append(call)
            if not self._cancelled:
                return
        self._kick()

    def _pop_sent(self, request: BackendRequest) -> Optional[_Call]:
        """The oldest call sent for request and not yet taken, or None.
        Call under _lock."""
        calls = self._sent.get(id(request))
        if calls is None:
            return None
        call = calls.pop(0)
        if not calls:
            del self._sent[id(request)]
        return call

    def close(self) -> None:
        with self._lock:
            while self._driving:
                self._waiting += 1
                self._woken.wait()
                self._waiting -= 1
            self._driving = True
        try:
            for conn in self._connections:
                call = conn.call
                if call is not None:  # sent again if it is taken
                    conn.call = call.conn = None
                    call.attempts -= 1
                    with self._lock:
                        self._queue.appendleft(call)
            self._idle.clear()
            self._next_check = math.inf
            _release(self._connections, self._poller)
        finally:
            self._leave()

    def _kick(self) -> None:
        """Start what is queued and release what was cancelled: on this
        thread when no thread runs the loop, else by waking the one that
        does."""
        with self._lock:
            busy = self._driving
            self._driving = True
        if busy:
            self._poller.wake()
            return
        try:
            self._housekeep()
        finally:
            self._leave()

    def _leave(self) -> None:
        """Give up running the loop, and wake the threads waiting for it."""
        with self._lock:
            self._driving = False
            if self._waiting:
                self._woken.notify_all()

    def _take(self, call: _Call) -> tuple[list[str], Optional[dict[str, Any]]]:
        """Wait for call's reply, running the loop while no other thread
        does: its completions and usage, or its error raised."""
        with self._lock:
            while not call.done and self._driving:
                self._waiting += 1
                self._woken.wait()
                self._waiting -= 1
            drive = not call.done
            if drive:
                self._driving = True
        if drive:
            try:
                self._drive(call)
            finally:
                self._leave()
        if call.error is not None:
            raise call.error
        return call.result

    def _drive(self, call: _Call) -> None:
        """The selector loop, run until call is done."""
        selector = self._poller.open()
        timeout_s = self.timeout_s
        while True:
            wake_at = min(self._housekeep(), self._next_check)
            if call.done:
                return
            timeout = wake_at - time.monotonic()
            events = selector.select(None if timeout == math.inf else max(timeout, 0.0))
            now = time.monotonic()
            for key, _ in events:
                conn = key.data
                if conn is None:
                    self._poller.drain()
                elif conn.events:  # not dropped since the select
                    conn.deadline = now + timeout_s
                    self._service(conn)
            if now >= self._next_check:
                self._expire(now)

    def _housekeep(self) -> float:
        """Release the connections of cancelled calls, then start queued
        calls that are due while a connection is free; returns when the
        next queued call may start (inf: when a connection frees)."""
        with self._lock:
            cancelled, self._cancelled = self._cancelled, []
            if cancelled:
                self._queue = deque(c for c in self._queue if not c.cancelled)
        for call in cancelled:
            if call.conn is not None:
                self._drop(call.conn)
        while True:
            now = time.monotonic()
            free = len(self._idle) + self.max_in_flight - len(self._connections)
            ready: list[_Call] = []
            wake_at = math.inf
            with self._lock:
                queue = self._queue
                if not queue:
                    return math.inf
                if now < self._not_before:
                    return self._not_before
                later = []
                while queue and len(ready) < free:
                    call = queue.popleft()
                    if call.cancelled:
                        continue
                    if call.due > now:
                        later.append(call)
                        wake_at = min(wake_at, call.due)
                    else:
                        ready.append(call)
                queue.extendleft(reversed(later))
            if not ready:
                return wake_at
            for call in ready:
                self._start(call, now)

    def _start(self, call: _Call, now: float) -> None:
        """Send call on an idle connection, or on a new one."""
        if self._idle:
            conn = self._idle.pop()  # the most recently used
            conn.reused = True
            conn.stage = _SEND
        else:
            conn = _Connection()
            self._connections.add(conn)
            conn.reused = False
            conn.stage = _OPEN
        conn.call, call.conn = call, conn
        call.attempts += 1
        conn.received = False
        if not call.wire:  # built as it is first sent: the first goes out at once
            call.wire = self._wire(request_to_body(call.request, self.model))
        conn.out = call.wire
        conn.deadline = now + self.timeout_s
        self._next_check = min(self._next_check, conn.deadline)
        self._service(conn)

    def _service(self, conn: _Connection) -> None:
        """Advance conn, turning a failure into a retry or an error."""
        try:
            self._advance(conn)
        except OSError as exc:
            self._broken(conn, exc)
        except BaseException as exc:
            call = self._drop(conn)
            if call is not None:
                self._finish(call, error=exc)
            if not isinstance(exc, Exception):
                raise

    def _advance(self, conn: _Connection) -> None:
        """Carry conn's exchange on until it must wait for its socket."""
        while True:
            stage = conn.stage
            if stage >= _TUNNEL:  # a reply to read
                wait = conn.recv()
                mark = conn.start
                try:
                    if stage == _RECV:
                        reply = conn.response()
                    else:
                        status = conn.head()[1]
                except _Incomplete:
                    conn.start = mark
                    self._want(conn, wait)
                    return
                if stage == _RECV:
                    self._reply(conn, *reply)
                    return
                if not 200 <= status < 300:
                    raise OSError(f"proxy {conn.proxy} refused the tunnel: HTTP {status}")
                conn.proxy = ""
                conn.received = False  # no byte of the response yet
                conn.out = conn.call.wire
                self._secure(conn)
            elif stage == _SEND:
                try:
                    while conn.out:
                        conn.out = conn.out[conn.sock.send(conn.out) :]
                except OSError as exc:
                    wait = _wait_for(exc, _WRITE)
                    if not wait:
                        raise
                    self._want(conn, wait)
                    return
                if conn.proxy:  # the CONNECT went out: read the proxy's reply
                    conn.stage = _TUNNEL
                    continue
                conn.stage = _RECV
                self._want(conn, _READ)  # nothing to read before the server has it
                return
            elif stage == _CONNECT:
                import socket

                error = conn.sock.getsockopt(socket.SOL_SOCKET, socket.SO_ERROR)
                if error:
                    self._unwatch(conn)
                    conn.sock.close()
                    conn.sock = None
                    if not conn.addresses:
                        raise OSError(error, os.strerror(error))
                    self._connect(conn)  # the next address the name resolved to
                    return
                if conn.proxy:
                    conn.stage = _SEND  # the CONNECT, in conn.out
                else:
                    self._secure(conn)
            elif stage == _HANDSHAKE:
                try:
                    conn.sock.do_handshake()
                except OSError as exc:
                    wait = _wait_for(exc, _READ)
                    if not wait:
                        raise
                    self._want(conn, wait)
                    return
                conn.stage = _SEND
            elif stage == _OPEN:
                self._open(conn)
                return
            else:  # _IDLE: the server closed, or sent what nobody asked for
                self._drop(conn)
                return

    def _open(self, conn: _Connection) -> None:
        """Resolve the endpoint, or the proxy the environment names for it,
        and start connecting to its first address."""
        import socket  # loaded by the first request, not by importing tout

        url = self._url
        proxy = _proxy_for(url)
        conn.tls = url.scheme == "https"
        if proxy:
            via = urlsplit(proxy if "://" in proxy else "http://" + proxy)
            host, port = via.hostname, via.port or 80
            lines = [f"CONNECT {self._target} HTTP/1.1", f"Host: {self._target}"]
            if via.username:
                import base64

                credentials = f"{unquote(via.username)}:{unquote(via.password or '')}"
                token = base64.b64encode(credentials.encode("utf-8")).decode("ascii")
                lines.append(f"Proxy-Authorization: Basic {token}")
            conn.out = ("\r\n".join(lines) + "\r\n\r\n").encode("latin-1")
            conn.proxy = via.hostname or proxy  # names it in errors; never empty
        else:
            host, port = url.hostname, url.port or (443 if conn.tls else 80)
        conn.addresses = socket.getaddrinfo(host, port, 0, socket.SOCK_STREAM)
        self._connect(conn)

    def _connect(self, conn: _Connection) -> None:
        """Start a non-blocking connect to the next address, trying the
        ones after it while a connect fails at once, as
        socket.create_connection does."""
        import errno
        import socket

        while True:
            family, kind, proto, _, address = conn.addresses.pop(0)
            sock = socket.socket(family, kind, proto)
            try:
                sock.setblocking(False)
                sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
                error = sock.connect_ex(address)
            except BaseException:
                sock.close()
                raise
            if error in (0, errno.EINPROGRESS, errno.EAGAIN, errno.EWOULDBLOCK):
                conn.sock, conn.fd, conn.stage = sock, sock.fileno(), _CONNECT
                self._want(conn, _WRITE)
                return
            sock.close()
            if not conn.addresses:
                raise OSError(error, os.strerror(error))

    def _secure(self, conn: _Connection) -> None:
        """Wrap a connected socket in TLS for https, then send."""
        if not conn.tls:
            conn.stage = _SEND
            return
        conn.sock = self._tls_context().wrap_socket(
            conn.sock, server_hostname=self._url.hostname, do_handshake_on_connect=False
        )
        conn.stage = _HANDSHAKE

    def _tls_context(self):
        """The backend's TLS context, made on first use: the system's
        certificate store (or SSL_CERT_FILE), verifying the host name."""
        if self._tls is None:
            import ssl

            self._tls = ssl.create_default_context()
            self._tls.set_alpn_protocols(["http/1.1"])
        return self._tls

    def _want(self, conn: _Connection, events: int) -> None:
        if conn.events != events:
            selector = self._poller.open()
            if conn.events:
                selector.modify(conn.fd, events, conn)
            else:
                selector.register(conn.fd, events, conn)
            conn.events = events

    def _unwatch(self, conn: _Connection) -> None:
        if conn.events:
            self._poller.selector.unregister(conn.fd)
            conn.events = 0

    def _drop(self, conn: _Connection) -> Optional[_Call]:
        """Close conn and forget it; returns the call it carried."""
        self._unwatch(conn)
        conn.close()
        self._connections.discard(conn)
        call, conn.call = conn.call, None
        if call is None:
            if conn in self._idle:
                self._idle.remove(conn)
        else:
            call.conn = None
        return call

    def _expire(self, now: float) -> None:
        """Fail the requests whose connection has waited timeout_s for a
        byte to move."""
        self._next_check = math.inf
        for conn in list(self._connections):
            if conn.call is None:
                continue
            if conn.deadline <= now:
                self._broken(conn, TimeoutError("timed out"))
            else:
                self._next_check = min(self._next_check, conn.deadline)

    def _broken(self, conn: _Connection, exc: OSError) -> None:
        """Drop a failed connection; its call is sent again at once, retried
        or failed."""
        reused, received = conn.reused, conn.received
        call = self._drop(conn)
        if call is None or call.cancelled:
            return
        # a server may close a keep-alive connection while it idles: an
        # error on one, before any byte of a reply, is not a failure
        if reused and not received and not isinstance(exc, TimeoutError):
            call.attempts -= 1
            with self._lock:
                self._queue.appendleft(call)
            return
        call.last_error = repr(exc)
        self._retry(call)

    def _reply(
        self, conn: _Connection, status: int, headers: dict[str, str], raw: bytearray, keep: bool
    ) -> None:
        """A complete response on conn: the connection is kept or closed,
        and the call done, retried or failed."""
        call = conn.call
        if keep:
            conn.call = call.conn = None
            conn.stage = _IDLE  # still watched: a close while idle drops it
            if len(conn.buf) > _MAX_HEAD:  # grown by a long reply: give it back
                conn.buf = bytearray(_RECV_SIZE)
            self._idle.append(conn)
        else:
            self._drop(conn)
        if call.cancelled:
            return
        call.last_status = status
        text = raw.decode("utf-8", "replace")
        if status == 200:
            try:
                payload = json.loads(text)
            except ValueError:
                payload = None
            if not isinstance(payload, dict):
                call.last_error = f"HTTP 200 without a JSON object: {text[:200]}"
            elif (completions := _completions_of(payload)) is None:
                call.last_error = f"HTTP 200 with wrong-shape choices: {text[:200]}"
            else:
                usage = payload.get("usage")
                if not isinstance(usage, dict):
                    usage = None  # a cache entry with another usage reads as damaged
                self._finish(call, (completions, usage))
                return
            self._retry(call)
            return
        call.last_error = f"HTTP {status}: {text[:200]}"
        if status == 429:
            retry_after = _retry_after_s(headers.get("retry-after"))
            if retry_after > self.backoff_s * 2**self.max_retries:
                # a quota that far off: waiting on it would stall the run
                call.last_error += f" (Retry-After {retry_after:g}s)"
                self._fail(call)
                return
            # no request is sent, first tries included, until it has passed
            self._not_before = max(self._not_before, time.monotonic() + retry_after)
            self._retry(call, retry_after)
            return
        if 400 <= status < 500:
            self._fail(call)  # client errors won't heal on retry
            return
        self._retry(call)

    def _retry(self, call: _Call, retry_after: float = 0.0) -> None:
        """Queue call to be sent again after its backoff, or at least
        ``retry_after`` seconds from now, or fail it once its retries are
        spent."""
        if call.attempts > self.max_retries:
            self._fail(call)
            return
        delay = max(self.backoff_s * (2 ** (call.attempts - 1)), retry_after)
        log.warning(
            "retrying %s in %.1fs (attempt %d/%d): %s",
            self._endpoint,
            delay,
            call.attempts,
            self.max_retries,
            call.last_error,
        )
        call.due = time.monotonic() + delay
        with self._lock:
            self._queue.append(call)

    def _fail(self, call: _Call) -> None:
        plural = "" if call.attempts == 1 else "s"
        self._finish(
            call,
            error=BackendUnavailableError(
                f"endpoint unavailable after {call.attempts} attempt{plural}: "
                f"{call.last_error}",
                last_status=call.last_status,
            ),
        )

    def _finish(self, call: _Call, result: Any = None, error: Optional[BaseException] = None) -> None:
        with self._lock:
            call.result, call.error, call.done = result, error, True
            call.wire = b""
            if self._waiting:
                self._woken.notify_all()

    def _post(self, body: dict[str, Any]) -> tuple[list[str], Optional[dict[str, Any]]]:
        """Send a request body and wait: the completions and usage of the
        reply."""
        call = _Call(None, self._wire(body))
        with self._lock:
            self._queue.append(call)
        self._kick()
        return self._take(call)

    def generate(self, request: BackendRequest) -> BackendResponse:
        with self._lock:
            call = self._pop_sent(request)
        if call is None:
            completions, usage = self._post(request_to_body(request, self.model))
        else:
            completions, usage = self._take(call)
        completions = completions[: request.n]
        if len(completions) < request.n:
            with self._lock:
                warn, self._warned_short = not self._warned_short, True
            if warn:
                log.warning(
                    "%s returned %d of %d completions; this backend tops up "
                    "every shortfall one request at a time (logged once)",
                    self._endpoint,
                    len(completions),
                    request.n,
                )
        # Provider returned fewer than n choices: top up one at a time.
        while len(completions) < request.n:
            single = request_to_body(request, self.model)
            single["n"] = 1
            try:
                extra, _ = self._post(single)
            except BackendUnavailableError:
                extra = []
            if extra:
                completions.append(extra[0])
            else:
                missing = request.n - len(completions)
                log.warning("padding %d missing completions with empty text", missing)
                with self._lock:
                    self.padded += missing
                completions.extend([""] * missing)
        return BackendResponse(completions=tuple(completions), usage=usage)


class ScriptedBackend(Backend):
    """Pure lookup backend: identical inputs always give identical outputs.

    The script maps (prompt digest, quantized temperature, sample index)
    to completion text; unknown keys fall back to ``default``.
    """

    backend_id = "scripted"

    def __init__(self, script: dict[tuple[str, int, int], str], default: str = ""):
        self.script = dict(script)
        self.default = default

    @staticmethod
    def key(prompt: str, temperature: float, index: int) -> tuple[str, int, int]:
        return (prompt_digest(prompt), quantize_temperature(temperature), index)

    def generate(self, request: BackendRequest) -> BackendResponse:
        digest = prompt_digest(request.prompt)
        tq = quantize_temperature(request.temperature)
        completions = tuple(
            self.script.get((digest, tq, i), self.default) for i in range(request.n)
        )
        return BackendResponse(completions=completions)


def synthetic_tree_id(
    true_value: dict[str, float],
    noise_std: dict[str, float],
    children: dict[str, list[str]],
) -> str:
    """Digest of the tree a synthetic oracle answers from: its values,
    noise and children."""
    payload = json.dumps([true_value, noise_std, children], sort_keys=True)
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()[:16]


def _key_seed(seed: int, key: str) -> np.random.Generator:
    import numpy as np

    key_hash = int.from_bytes(
        hashlib.sha256(key.encode("utf-8")).digest()[:8], "big"
    )
    return np.random.default_rng(np.random.SeedSequence([seed & 0xFFFFFFFF, key_hash]))


# Normals drawn per refill of a key's buffer: one numpy call costs about as
# much for 32 normals as for one, and a value draw usually takes one.
_NORMAL_BLOCK = 32


class SyntheticOracleBackend(Backend):
    """Noisy value oracle standing in for an LLM evaluator.

    Prompts follow a tiny line protocol: ``VALUE <key>`` returns draws
    ``true_value[key] + noise_std[key] * g_j`` where g_j is the j-th
    standard normal of the key's seeded substream; ``PROPOSE <key>``
    returns the scripted child labels for that key, one per line. Keying
    each state to its own substream makes the full sample stream
    reproducible for a fixed seed regardless of evaluation interleaving.
    A request with an ``index`` i gets draws j = i, i+1, ..., whatever
    was served before, so a draw that a cache answers does not shift the
    ones after it; one without gets the draws after the furthest served.
    The engine's value draws carry their index, and a cold run asks for
    0..m-1 in order, as the call order would have served them.

    The backend id names the seed and the tree (synthetic_tree_id), so
    cache entries of one episode never answer another's draws. A caller
    that builds many oracles of one tree passes its ``tree_id`` rather
    than have each oracle digest the tree again.
    """

    def __init__(
        self,
        true_value: dict[str, float],
        noise_std: dict[str, float],
        seed: int,
        children: Optional[dict[str, list[str]]] = None,
        tree_id: Optional[str] = None,
    ):
        for key, sigma in noise_std.items():
            if sigma < 0:
                raise InvalidArgumentError(f"noise_std[{key!r}] must be >= 0")
        self.true_value = dict(true_value)
        self.noise_std = dict(noise_std)
        self.children = dict(children or {})
        self.seed = seed
        if tree_id is None:
            tree_id = synthetic_tree_id(self.true_value, self.noise_std, self.children)
        self.backend_id = f"synthetic:{seed}:{tree_id}"
        # numpy serves only this oracle: it loads when the first one is
        # built, before any episode's clock starts, not on a draw
        import numpy  # noqa: F401

        # key -> [its generator, its normals drawn so far, the index after
        # the furthest one served]
        self._streams: dict[str, list] = {}
        self._lock = threading.Lock()
        # VALUE prompt -> (its key, mean, sigma), parsed on its first draw;
        # two threads that parse one prompt at once store equal entries
        self._values: dict[str, tuple[str, float, float]] = {}

    def _draws(self, key: str, index: Optional[int], n: int) -> list[float]:
        """Standard normals index..index+n-1 of the key's stream, or the n
        after the furthest served when index is None. They are drawn in
        blocks of at least _NORMAL_BLOCK; numpy's Generator yields the same
        stream whatever the block sizes."""
        with self._lock:
            stream = self._streams.get(key)
            if stream is None:
                stream = self._streams[key] = [_key_seed(self.seed, key), [], 0]
            rng, drawn, served = stream
            if index is None:
                index = served
            end = index + n
            if len(drawn) < end:
                drawn += rng.standard_normal(max(end - len(drawn), _NORMAL_BLOCK)).tolist()
            if end > served:
                stream[2] = end
            if n == 1:
                return [drawn[index]]
            return drawn[index:end]

    def generate(self, request: BackendRequest) -> BackendResponse:
        prompt = request.prompt
        value = self._values.get(prompt)
        if value is None and prompt.startswith("VALUE "):
            key = prompt[len("VALUE ") :].strip()
            value = self._values[prompt] = (
                key,
                self.true_value.get(key, 0.0),
                self.noise_std.get(key, 0.0),
            )
        if value is not None:
            key, mu, sigma = value
            draws = self._draws(key, request.index, request.n)
            return BackendResponse(tuple([repr(mu + sigma * g) for g in draws]))
        if prompt.startswith("PROPOSE "):
            key = prompt[len("PROPOSE ") :].strip()
            listing = "\n".join(self.children.get(key, []))
            return BackendResponse(completions=tuple([listing] * request.n))
        return BackendResponse(completions=tuple([""] * request.n))
