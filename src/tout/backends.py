"""Text-generation boundary: the request types and the transports.

Three interchangeable backends sit behind one ``generate`` call:

* HttpBackend      -- OpenAI-compatible chat-completions endpoint over HTTP.
* ScriptedBackend  -- pure table lookup; the deterministic test double.
* SyntheticOracleBackend -- seeded noisy oracle for desk-scale experiments.

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
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Optional
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

# HttpBackend's pool width. A search step sends k*m value draws at once (100
# at the game24 settings, k=5, m=20): 128, the next power of two, sends them
# in one round trip, where 32 took 4 (README, "Backends").
DEFAULT_MAX_IN_FLIGHT = 128

# The status line and headers of a response must fit in this many bytes.
_MAX_HEAD = 64 * 1024
# Each connection's receive buffer starts at this size and grows, up to
# _MAX_HEAD, only to hold a longer head; a body is copied out as it arrives.
# A loopback game24 reply is under 0.5 KiB; at 128 connections, each KiB
# here is ~0.13 MB of peak memory (README, "Backends").
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

    ``max_in_flight`` is how many requests may be outstanding at once.
    Backends wider than 1 also provide ``executor()``, a pool of that width
    through which the engine sends every request it makes to them, from
    every thread; a backend of width 1 is called on the caller's thread.
    HttpBackend is DEFAULT_MAX_IN_FLIGHT (128) wide, so a search step's
    k*m value draws (100 at the game24 settings) go out in one round trip;
    the in-process backends are 1 wide. A request's ``index`` is its draw's
    number, for a backend whose answers depend on it rather than on call
    order.
    """

    backend_id: str = "backend"
    max_in_flight: int = 1

    def generate(self, request: BackendRequest) -> BackendResponse:
        raise NotImplementedError

    def close(self) -> None:
        """Release what the backend holds open; the in-process ones hold
        nothing."""


def generate(
    backend: Backend, request: BackendRequest, transcript: Optional[Transcript] = None
) -> BackendResponse:
    """Issue one generation call, timing it into the live transcript.

    The latency-bearing event is deliberately excluded from persisted run
    records (see model.RECORD_EVENT_KINDS).
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


class _Connection:
    """One keep-alive HTTP/1.1 connection and its receive buffer.

    ``sock`` is None until HttpBackend opens it for a first request, and
    again after ``close()``. Received bytes not yet parsed are
    ``buf[start:end]``; ``received`` tells whether any byte of the current
    response has arrived.
    """

    __slots__ = ("sock", "buf", "start", "end", "received")

    def __init__(self):
        self.sock: Any = None
        self.buf = bytearray(_RECV_SIZE)
        self.start = self.end = 0
        self.received = False

    def close(self) -> None:
        if self.sock is not None:
            self.sock.close()
            self.sock = None
        self.start = self.end = 0

    def _fill(self) -> int:
        """Receive more bytes after those buffered; 0 at end of stream."""
        buf = self.buf
        if self.start == self.end:
            self.start = self.end = 0
        elif self.end == len(buf):
            if self.start:  # move the unparsed bytes to the front
                size = self.end - self.start
                buf[:size] = buf[self.start : self.end]
                self.start, self.end = 0, size
            else:  # a head longer than the buffer; callers stop at _MAX_HEAD
                buf *= 2
        received = self.sock.recv_into(memoryview(buf)[self.end :])
        if received:
            self.end += received
            self.received = True
        return received

    def _cut_short(self, what: str) -> HttpProtocolError:
        if not self.received:
            return HttpProtocolError("connection closed before a response")
        return HttpProtocolError(f"connection closed in the {what}")

    def _take(self, n: int, body: bytearray) -> None:
        """Move the next n bytes of the stream to body."""
        while True:
            take = min(n, self.end - self.start)
            body += self.buf[self.start : self.start + take]
            self.start += take
            n -= take
            if not n:
                return
            if not self._fill():
                raise self._cut_short("body")

    def _line(self) -> bytes:
        """The next line of the stream, without its line ending."""
        while True:
            stop = self.buf.find(b"\n", self.start, self.end)
            if stop >= 0:
                line = bytes(self.buf[self.start : stop]).rstrip(b"\r")
                self.start = stop + 1
                return line
            if self.end - self.start >= _MAX_HEAD:
                raise HttpProtocolError("line longer than 64 KiB")
            if not self._fill():
                raise self._cut_short("chunked body")

    def head(self) -> tuple[str, int, dict[str, str]]:
        """The next response head: its version, status and headers, keyed
        by lowercase name (a repeated header's values joined by ", ")."""
        buf = self.buf
        while True:
            stop = buf.find(b"\r\n\r\n", self.start, self.end)
            newline = "\r\n"
            # a server may end its lines with LF alone
            bare = buf.find(b"\n\n", self.start, self.end if stop < 0 else stop)
            if bare >= 0:
                stop, newline = bare, "\n"
            if stop >= 0:
                break
            if self.end - self.start >= _MAX_HEAD:
                raise HttpProtocolError("response head longer than 64 KiB")
            if not self._fill():
                raise self._cut_short("head")
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
        if self.start != self.end:  # bytes past the response: do not reuse
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
        while True:
            body += self.buf[self.start : self.end]
            self.start = self.end
            if not self._fill():
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


class HttpBackend(Backend):
    """Client for any OpenAI-compatible /v1/chat/completions endpoint.

    Batches n completions into a single request when the provider honors n;
    shortfalls are re-requested sequentially and, failing that, padded with
    empty text (logged, and counted in ``padded``). Transient failures,
    including a 200 whose body is not a JSON object or whose ``choices``
    is not a list of objects with string or null ``message.content``,
    retry with exponential backoff before raising BackendUnavailableError
    with the last HTTP status and the number of attempts made; a 429 whose
    Retry-After gives seconds waits at least that long, unless it asks for
    more than ``backoff_s * 2**max_retries``, which fails at once. Such a
    429 pauses the whole pool: no thread sends a request, first tries
    included, until the Retry-After has passed, so the others do not spend
    their retries on a rate limit.

    Requests are plain HTTP/1.1 over a socket: each thread keeps one
    keep-alive connection to the endpoint, opened on its first request
    (TLS-wrapped for an ``https`` base URL). The request head is built once;
    a request adds its Content-Length and goes out in one send. A response
    is read into the connection's own buffer and framed by RFC 9112: a
    chunked body, else its Content-Length, else until the server closes.
    A malformed or truncated response is an HttpProtocolError, retried as
    a transport error is. A connection that fails, is close-delimited or
    is marked ``Connection: close`` (or is an HTTP/1.0 reply without
    keep-alive) is closed and dropped; a kept-alive one that the server
    closed while idle is reopened once at once, without a retry or a
    backoff. When the environment names a proxy for the base URL's scheme
    and the host is not bypassed (``no_proxy``), the connection is a
    CONNECT tunnel through that proxy.

    ``executor()`` is a pool of width ``max_in_flight``, shared by every
    caller. The engine sends every request it makes through it (see
    cached_generate_many), so the pool alone bounds the requests on the
    wire, across all ``--jobs`` threads; a direct ``generate()`` call
    outside the pool is not bounded. The default width,
    DEFAULT_MAX_IN_FLIGHT = 128, sends a 100-draw search step in one round
    trip rather than 4 at 32 (README, "Backends"). Threads start only as
    requests arrive. ``close()`` shuts the pool down and closes
    every connection, and the backend reopens what it needs if used again.
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
        self._tls: Any = None  # the https context, made on first use
        self.max_retries = max_retries
        self.backoff_s = backoff_s
        self.timeout_s = timeout_s
        self.max_in_flight = max_in_flight
        self.padded = 0  # empty completions padded in for a provider's shortfall
        self._pool: Optional[ThreadPoolExecutor] = None
        # guards _pool, _connections, _tls, padded, _not_before
        self._pool_lock = threading.Lock()
        self._not_before = 0.0  # time.monotonic() before which nothing is sent
        self._connections: set = set()
        self._local = threading.local()
        self.backend_id = f"http:{self.base_url}:{self.model}"

    def executor(self) -> ThreadPoolExecutor:
        """The shared request pool, created on first use."""
        with self._pool_lock:
            if self._pool is None:
                self._pool = ThreadPoolExecutor(
                    max_workers=self.max_in_flight, thread_name_prefix="tout-http"
                )
            return self._pool

    def close(self) -> None:
        with self._pool_lock:
            pool, self._pool = self._pool, None
        if pool is not None:
            pool.shutdown(wait=True)
        with self._pool_lock:
            connections, self._connections = self._connections, set()
        for conn in connections:
            conn.close()

    def _connection(self) -> _Connection:
        """This thread's connection, made anew after a failure or close();
        its socket is opened by the first request."""
        conn = getattr(self._local, "conn", None)
        with self._pool_lock:
            if conn not in self._connections:
                conn = self._local.conn = _Connection()
                self._connections.add(conn)
        return conn

    def _drop(self, conn: _Connection) -> None:
        conn.close()
        with self._pool_lock:
            self._connections.discard(conn)

    def _open(self, conn: _Connection) -> None:
        """Connect to the endpoint, or tunnel to it through the proxy the
        environment names for it, then wrap the socket in TLS for https."""
        import socket  # loaded by the first request, not by importing tout

        url = self._url
        proxy = _proxy_for(url)
        if proxy:
            via = urlsplit(proxy if "://" in proxy else "http://" + proxy)
            address = (via.hostname, via.port or 80)
        else:
            address = (url.hostname, url.port or (443 if url.scheme == "https" else 80))
        conn.sock = socket.create_connection(address, timeout=self.timeout_s)
        conn.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        if proxy:
            lines = [f"CONNECT {self._target} HTTP/1.1", f"Host: {self._target}"]
            if via.username:
                import base64

                credentials = f"{unquote(via.username)}:{unquote(via.password or '')}"
                token = base64.b64encode(credentials.encode("utf-8")).decode("ascii")
                lines.append(f"Proxy-Authorization: Basic {token}")
            conn.sock.sendall(("\r\n".join(lines) + "\r\n\r\n").encode("latin-1"))
            _, status, _ = conn.head()
            if not 200 <= status < 300:
                raise OSError(f"proxy {via.hostname} refused the tunnel: HTTP {status}")
        if url.scheme == "https":
            conn.sock = self._tls_context().wrap_socket(
                conn.sock, server_hostname=url.hostname
            )

    def _tls_context(self):
        """The backend's TLS context, made on first use: the system's
        certificate store (or SSL_CERT_FILE), verifying the host name."""
        import ssl

        with self._pool_lock:
            if self._tls is None:
                self._tls = ssl.create_default_context()
                self._tls.set_alpn_protocols(["http/1.1"])
            return self._tls

    def _exchange(self, data: bytes):
        """One POST on this thread's connection: (status, headers, body)."""
        request = b"%s%d\r\n\r\n%s" % (self._head, len(data), data)
        while True:
            conn = self._connection()
            reused = conn.sock is not None  # kept alive from an earlier request
            conn.received = False
            try:
                if not reused:
                    self._open(conn)
                conn.sock.sendall(request)
                status, headers, body, keep = conn.response()
            except BaseException as exc:
                self._drop(conn)
                # a server may close a keep-alive connection while it idles:
                # an error on one, before any byte of a reply, is not a failure
                if (
                    reused
                    and not conn.received
                    and isinstance(exc, OSError)
                    and not isinstance(exc, TimeoutError)
                ):
                    continue
                raise
            if not keep:
                self._drop(conn)
            return status, headers, body

    def _pause(self, seconds: float) -> float:
        """Hold every thread's next request until seconds from now; returns
        that time, which the caller's own backoff waits out."""
        until = time.monotonic() + seconds
        with self._pool_lock:
            self._not_before = max(self._not_before, until)
        return until

    def _await_pause(self, own: float) -> None:
        """Sleep until the pool's pause has passed, unless it is ``own``,
        the pause this thread set and has already slept through."""
        while True:
            with self._pool_lock:
                not_before = self._not_before
            wait = not_before - time.monotonic()
            if not_before == own or wait <= 0:
                return
            time.sleep(wait)

    def _post(
        self, body: dict[str, Any]
    ) -> tuple[list[str], Optional[dict[str, Any]]]:
        """POST a request body: the completions and usage of the reply."""
        url = self.base_url + "/v1/chat/completions"
        data = json.dumps(body).encode("utf-8")
        last_status: Optional[int] = None
        last_error = "no attempt made"
        retry_after = 0.0
        paused = 0.0  # the end of the last pool pause this thread set
        attempts = 0  # requests sent
        for attempt in range(self.max_retries + 1):
            if attempt:
                delay = max(self.backoff_s * (2 ** (attempt - 1)), retry_after)
                log.warning(
                    "retrying %s in %.1fs (attempt %d/%d): %s",
                    url,
                    delay,
                    attempt,
                    self.max_retries,
                    last_error,
                )
                time.sleep(delay)
            retry_after = 0.0
            self._await_pause(paused)
            attempts += 1
            try:
                status, resp_headers, raw = self._exchange(data)
            except OSError as exc:
                last_error = repr(exc)
                continue
            last_status = status
            text = raw.decode("utf-8", "replace")
            if status == 200:
                try:
                    payload = json.loads(text)
                except ValueError:
                    payload = None
                if not isinstance(payload, dict):
                    last_error = f"HTTP 200 without a JSON object: {text[:200]}"
                    continue
                completions = _completions_of(payload)
                if completions is None:
                    last_error = f"HTTP 200 with wrong-shape choices: {text[:200]}"
                    continue
                usage = payload.get("usage")
                if not isinstance(usage, dict):
                    usage = None  # a cache entry with another usage reads as damaged
                return completions, usage
            last_error = f"HTTP {status}: {text[:200]}"
            if status == 429:
                retry_after = _retry_after_s(resp_headers.get("retry-after"))
                if retry_after > self.backoff_s * 2**self.max_retries:
                    # a quota that far off: sleeping on it would stall the run
                    last_error += f" (Retry-After {retry_after:g}s)"
                    break
                if retry_after:
                    paused = self._pause(retry_after)
            elif 400 <= status < 500:
                break  # client errors won't heal on retry
        plural = "" if attempts == 1 else "s"
        raise BackendUnavailableError(
            f"endpoint unavailable after {attempts} attempt{plural}: {last_error}",
            last_status=last_status,
        )

    def generate(self, request: BackendRequest) -> BackendResponse:
        completions, usage = self._post(request_to_body(request, self.model))
        completions = completions[: request.n]
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
                with self._pool_lock:
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
