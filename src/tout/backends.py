"""Text-generation boundary.

Four interchangeable backends sit behind one ``generate`` call:

* HttpBackend      -- OpenAI-compatible chat-completions endpoint over HTTP.
* ScriptedBackend  -- pure table lookup; the deterministic test double.
* SyntheticOracleBackend -- seeded noisy oracle for desk-scale experiments.
* ResponseCache / cached_generate -- content-addressed response cache;
  cached_generate is the one-draw case of cached_generate_many, which on a
  backend wider than one request sends every request through the
  backend's one pool, so that pool bounds requests across all threads.

Temperature is the only model knob the engine manipulates, so backends must
keep responses at distinct temperatures genuinely distinct (cache keys
quantize temperature to 1e-3 rather than hashing raw floats).
"""

from __future__ import annotations

import hashlib
import json
import logging
import math
import os
import tempfile
import threading
import time
from concurrent.futures import Future, ThreadPoolExecutor
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING, Any, Iterator, Optional, Sequence
from urllib.parse import unquote, urlsplit

from .model import BackendUnavailableError, InvalidArgumentError, Transcript

if TYPE_CHECKING:
    import numpy as np

log = logging.getLogger(__name__)

DEFAULT_MAX_TOKENS = 512

ENV_API_BASE = "TOUT_API_BASE"
ENV_API_KEY = "TOUT_API_KEY"
ENV_MODEL = "TOUT_MODEL"


@dataclass(frozen=True)
class BackendRequest:
    prompt: str
    temperature: float
    n: int = 1
    max_tokens: int = DEFAULT_MAX_TOKENS
    stop: Optional[tuple[str, ...]] = None

    def __post_init__(self):
        if not math.isfinite(self.temperature):
            raise InvalidArgumentError("temperature must be finite")
        if not (0.0 <= self.temperature <= 2.0):
            raise InvalidArgumentError("temperature must be within [0, 2]")
        if self.n < 1:
            raise InvalidArgumentError("n must be >= 1")
        if self.max_tokens < 1:
            raise InvalidArgumentError("max_tokens must be >= 1")


@dataclass(frozen=True)
class BackendResponse:
    completions: tuple[str, ...]
    usage: Optional[dict[str, int]] = None


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
    """

    backend_id: str = "backend"
    max_in_flight: int = 1

    def generate(self, request: BackendRequest) -> BackendResponse:
        raise NotImplementedError


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


class HttpBackend(Backend):
    """Client for any OpenAI-compatible /v1/chat/completions endpoint.

    Batches n completions into a single request when the provider honors n;
    shortfalls are re-requested sequentially and, failing that, padded with
    empty text (logged, and counted in ``padded``). Transient failures,
    including a 200 whose body is not a JSON object, retry with exponential
    backoff before raising BackendUnavailableError with the last HTTP
    status; a 429 whose Retry-After gives seconds waits at least that long,
    unless it asks for more than ``backoff_s * 2**max_retries``, which fails
    at once.

    Requests go over the standard library's http.client: each thread keeps
    one keep-alive connection to the endpoint, opened on its first request
    (HTTPS for an ``https`` base URL). A connection that fails is closed and
    dropped; a kept-alive one that the server closed while idle is reopened
    once at once, without a retry or a backoff. When the environment names a
    proxy for the base URL's scheme and the host is not bypassed
    (``no_proxy``), the connection is a CONNECT tunnel through that proxy.

    ``executor()`` is a pool of width ``max_in_flight``, shared by every
    caller. The engine sends every request it makes through it (see
    cached_generate_many), so the pool alone bounds the requests on the
    wire, across all ``--jobs`` threads; a direct ``generate()`` call
    outside the pool is not bounded. ``close()`` shuts the pool down and
    closes every connection, and the backend reopens what it needs if used
    again.
    """

    def __init__(
        self,
        base_url: Optional[str] = None,
        api_key: Optional[str] = None,
        model: Optional[str] = None,
        max_retries: int = 3,
        backoff_s: float = 1.0,
        timeout_s: float = 60.0,
        max_in_flight: int = 8,
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
        if max_in_flight < 1:
            raise InvalidArgumentError("max_in_flight must be >= 1")
        self._url = urlsplit(self.base_url)
        try:
            self._url.port  # raises unless absent or a number in range
        except ValueError as exc:
            raise InvalidArgumentError(f"API base URL {self.base_url}: {exc}") from None
        if self._url.scheme not in ("http", "https") or not self._url.hostname:
            raise InvalidArgumentError(
                f"API base URL must be http:// or https:// with a host: {self.base_url}"
            )
        self._path = self._url.path + "/v1/chat/completions"
        self.max_retries = max_retries
        self.backoff_s = backoff_s
        self.timeout_s = timeout_s
        self.max_in_flight = max_in_flight
        self.padded = 0  # empty completions padded in for a provider's shortfall
        self._pool: Optional[ThreadPoolExecutor] = None
        self._pool_lock = threading.Lock()  # guards _pool, _connections, padded
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

    def _new_connection(self):
        """A connection to the endpoint, or a tunnel through the proxy the
        environment names for it; no socket is opened until the first request."""
        import base64
        import http.client
        import urllib.request

        url = self._url
        kind = (
            http.client.HTTPSConnection
            if url.scheme == "https"
            else http.client.HTTPConnection
        )
        proxy = urllib.request.getproxies().get(url.scheme)
        if not proxy or urllib.request.proxy_bypass(url.hostname):
            return kind(url.hostname, url.port, timeout=self.timeout_s)
        via = urlsplit(proxy if "://" in proxy else "http://" + proxy)
        conn = kind(via.hostname, via.port or 80, timeout=self.timeout_s)
        headers = {}
        if via.username:
            credentials = f"{unquote(via.username)}:{unquote(via.password or '')}"
            token = base64.b64encode(credentials.encode("utf-8")).decode("ascii")
            headers["Proxy-Authorization"] = f"Basic {token}"
        conn.set_tunnel(url.hostname, url.port, headers=headers)
        return conn

    def _connection(self):
        """This thread's connection, made anew after a failure or close()."""
        conn = getattr(self._local, "conn", None)
        with self._pool_lock:
            if conn not in self._connections:
                conn = self._local.conn = self._new_connection()
                self._connections.add(conn)
        return conn

    def _exchange(self, data: bytes, headers: dict[str, str]):
        """One POST on this thread's connection: (status, headers, body)."""
        while True:
            conn = self._connection()
            reused = conn.sock is not None  # kept alive from an earlier request
            try:
                conn.request("POST", self._path, body=data, headers=headers)
                resp = conn.getresponse()
                return resp.status, resp.headers, resp.read()
            except BaseException as exc:
                conn.close()
                with self._pool_lock:
                    self._connections.discard(conn)
                # http.client's RemoteDisconnected is a ConnectionResetError:
                # a server may close a keep-alive connection while it idles.
                stale = isinstance(exc, (BrokenPipeError, ConnectionResetError))
                if not (reused and stale):
                    raise

    def _post(self, body: dict[str, Any]) -> dict[str, Any]:
        import http.client

        url = self.base_url + "/v1/chat/completions"
        data = json.dumps(body).encode("utf-8")
        headers = {"Content-Type": "application/json"}
        if self.api_key:
            headers["Authorization"] = f"Bearer {self.api_key}"
        last_status: Optional[int] = None
        last_error = "no attempt made"
        retry_after = 0.0
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
            try:
                status, resp_headers, raw = self._exchange(data, headers)
            except (OSError, http.client.HTTPException) as exc:
                last_error = repr(exc)
                continue
            last_status = status
            text = raw.decode("utf-8", "replace")
            if status == 200:
                try:
                    payload = json.loads(text)
                except ValueError:
                    payload = None
                if isinstance(payload, dict):
                    return payload
                last_error = f"HTTP 200 without a JSON object: {text[:200]}"
                continue
            last_error = f"HTTP {status}: {text[:200]}"
            if status == 429:
                retry_after = _retry_after_s(resp_headers.get("Retry-After"))
                if retry_after > self.backoff_s * 2**self.max_retries:
                    # a quota that far off: sleeping on it would stall the run
                    last_error += f" (Retry-After {retry_after:g}s)"
                    break
            elif 400 <= status < 500:
                break  # client errors won't heal on retry
        raise BackendUnavailableError(
            f"endpoint unavailable after {self.max_retries} retries: {last_error}",
            last_status=last_status,
        )

    def _completions_of(self, payload: dict[str, Any]) -> list[str]:
        return [
            choice.get("message", {}).get("content") or ""
            for choice in payload.get("choices", [])
        ]

    def generate(self, request: BackendRequest) -> BackendResponse:
        payload = self._post(request_to_body(request, self.model))
        completions = self._completions_of(payload)[: request.n]
        usage = payload.get("usage")
        if not isinstance(usage, dict):
            usage = None  # a cache entry with another usage reads as damaged
        # Provider returned fewer than n choices: top up one at a time.
        while len(completions) < request.n:
            single = request_to_body(request, self.model)
            single["n"] = 1
            try:
                extra = self._completions_of(self._post(single))
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


def _key_seed(seed: int, key: str) -> np.random.Generator:
    import numpy as np

    key_hash = int.from_bytes(
        hashlib.sha256(key.encode("utf-8")).digest()[:8], "big"
    )
    return np.random.default_rng(np.random.SeedSequence([seed & 0xFFFFFFFF, key_hash]))


class SyntheticOracleBackend(Backend):
    """Noisy value oracle standing in for an LLM evaluator.

    Prompts follow a tiny line protocol: ``VALUE <key>`` returns the next
    draws of ``true_value[key] + noise_std[key] * g_j`` where g_j is the
    j-th standard normal of the key's seeded substream; ``PROPOSE <key>``
    returns the scripted child labels for that key, one per line. Keying
    each state to its own substream makes the full sample stream
    reproducible for a fixed seed regardless of evaluation interleaving.
    """

    backend_id = "synthetic"

    def __init__(
        self,
        true_value: dict[str, float],
        noise_std: dict[str, float],
        seed: int,
        children: Optional[dict[str, list[str]]] = None,
    ):
        for key, sigma in noise_std.items():
            if sigma < 0:
                raise InvalidArgumentError(f"noise_std[{key!r}] must be >= 0")
        self.true_value = dict(true_value)
        self.noise_std = dict(noise_std)
        self.children = dict(children or {})
        self.seed = seed
        # numpy serves only this oracle: it loads when the first one is
        # built, before any episode's clock starts, not on a draw
        import numpy  # noqa: F401

        self._rngs: dict[str, np.random.Generator] = {}
        self._lock = threading.Lock()

    def _next_draws(self, key: str, n: int) -> list[float]:
        with self._lock:
            rng = self._rngs.get(key)
            if rng is None:
                rng = self._rngs[key] = _key_seed(self.seed, key)
            return [float(g) for g in rng.standard_normal(n)]

    def generate(self, request: BackendRequest) -> BackendResponse:
        prompt = request.prompt
        if prompt.startswith("VALUE "):
            key = prompt[len("VALUE ") :].strip()
            mu = self.true_value.get(key, 0.0)
            sigma = self.noise_std.get(key, 0.0)
            draws = self._next_draws(key, request.n)
            completions = tuple(repr(mu + sigma * g) for g in draws)
            return BackendResponse(completions=completions)
        if prompt.startswith("PROPOSE "):
            key = prompt[len("PROPOSE ") :].strip()
            listing = "\n".join(self.children.get(key, []))
            return BackendResponse(completions=tuple([listing] * request.n))
        return BackendResponse(completions=tuple([""] * request.n))


# cache_key's encoder, built once: json.dumps builds a new one on every call
# given any option. Same defaults as json.dumps, so keys keep their bytes.
_KEY_ENCODER = json.JSONEncoder(separators=(",", ":"))

# Cache entries are read in chunks of this size; most fit in one. A larger
# buffer costs more to allocate than the read it serves.
_READ_CHUNK = 64 * 1024


class ResponseCache:
    """Content-addressed response cache: one JSON file per key digest.

    Keys include the backend id, prompt digest, quantized temperature, n,
    max_tokens, stop and a sample-batch index, so repeated draws at one
    temperature stay distinct while identical requests are served from
    disk. Entries are written atomically; I/O failures degrade to uncached
    operation and a damaged entry reads as a miss, both with a warning. An
    entry is damaged unless it is UTF-8 JSON whose ``completions`` is a list
    of strings and whose ``usage`` is an object or null. cached_generate
    and cached_generate_many also read a hit with other than ``request.n``
    completions as a logged miss, reissue the request and overwrite the
    entry.

    cache_key is the key of one draw. cached_generate_many builds a batch's
    keys with batch_keys, which computes each distinct prompt's digest and
    key prefix once per batch; the keys are the same bytes.
    """

    def __init__(self, cache_dir: str | Path, enabled: bool = True):
        self.cache_dir = Path(cache_dir)
        self.enabled = enabled
        # entry paths are joined as strings, cheaper than Path arithmetic
        self._prefix = os.path.join(os.fspath(self.cache_dir), "")
        if enabled:
            try:
                self.cache_dir.mkdir(parents=True, exist_ok=True)
            except OSError as exc:
                log.warning("cache disabled, cannot create %s: %s", cache_dir, exc)
                self.enabled = False

    @staticmethod
    def cache_key(
        backend_id: str, request: BackendRequest, batch_index: int = 0
    ) -> str:
        payload = _KEY_ENCODER.encode(
            [
                backend_id,
                prompt_digest(request.prompt),
                quantize_temperature(request.temperature),
                request.n,
                request.max_tokens,
                list(request.stop) if request.stop else None,
                batch_index,
            ]
        )
        return hashlib.sha256(payload.encode("utf-8")).hexdigest()

    @staticmethod
    def batch_keys(
        backend_id: str, draws: Sequence[tuple[BackendRequest, int]]
    ) -> list[str]:
        """cache_key of each (request, batch index) draw, in order.

        The digest and the JSON-encoded ``[backend_id,digest`` prefix of each
        distinct prompt are built once for the call; per draw only the tail
        is formatted and the whole hashed. A draw whose tail holds anything
        but plain ints (a bool n, say) is keyed by cache_key itself.
        """
        prefixes: dict[str, str] = {}
        keys: list[str] = []
        for request, batch_index in draws:
            t = quantize_temperature(request.temperature)
            n, max_tokens, stop = request.n, request.max_tokens, request.stop
            if not (type(t) is type(n) is type(max_tokens) is type(batch_index) is int):
                keys.append(ResponseCache.cache_key(backend_id, request, batch_index))
                continue
            prefix = prefixes.get(request.prompt)
            if prefix is None:
                head = [backend_id, prompt_digest(request.prompt)]
                prefix = prefixes[request.prompt] = _KEY_ENCODER.encode(head)[:-1]
            stop_json = _KEY_ENCODER.encode(list(stop)) if stop else "null"
            payload = f"{prefix},{t},{n},{max_tokens},{stop_json},{batch_index}]"
            keys.append(hashlib.sha256(payload.encode("utf-8")).hexdigest())
        return keys

    def _path(self, key: str) -> str:
        return f"{self._prefix}{key}.json"

    def get(self, key: str) -> Optional[BackendResponse]:
        if not self.enabled:
            return None
        try:
            fd = os.open(self._path(key), os.O_RDONLY)
            try:
                chunks = []
                while chunk := os.read(fd, _READ_CHUNK):
                    chunks.append(chunk)
            finally:
                os.close(fd)
        except FileNotFoundError:
            return None
        except OSError as exc:  # a directory at the path fails in os.read
            log.warning("cache read failed for %s: %s", key, exc)
            return None
        try:
            data = json.loads(b"".join(chunks).decode("utf-8"))
            completions, usage = data["completions"], data.get("usage")
            if not isinstance(completions, list) or not all(
                isinstance(text, str) for text in completions
            ):
                raise TypeError("completions is not a list of strings")
            if usage is not None and not isinstance(usage, dict):
                raise TypeError("usage is neither an object nor null")
            return BackendResponse(completions=tuple(completions), usage=usage)
        except (ValueError, KeyError, TypeError) as exc:  # ValueError: UTF-8, JSON
            log.warning("damaged cache entry %s treated as a miss: %s", key, exc)
            return None

    def put(self, key: str, response: BackendResponse) -> bool:
        """Write an entry through a temporary file, so readers never see half.

        Returns whether the entry was written.
        """
        if not self.enabled:
            return False
        data = {"completions": list(response.completions), "usage": response.usage}
        tmp: Optional[str] = None
        try:
            fd, tmp = tempfile.mkstemp(dir=self.cache_dir, prefix=key, suffix=".tmp")
            with os.fdopen(fd, "w", encoding="utf-8") as handle:
                handle.write(json.dumps(data))
            os.replace(tmp, self._path(key))
            return True
        except OSError as exc:
            log.warning("cache write failed for %s: %s", key, exc)
            if tmp is not None:
                try:
                    os.unlink(tmp)
                except OSError:
                    pass
            return False


def _lookup(
    cache: ResponseCache, key: str, request: BackendRequest
) -> Optional[BackendResponse]:
    """The entry under key, or None; a hit with other than ``request.n``
    completions cannot answer the request and is a logged miss."""
    hit = cache.get(key)
    if hit is not None and len(hit.completions) != request.n:
        log.warning(
            "cache entry %s holds %d completions for n=%d, treated as a miss",
            key,
            len(hit.completions),
            request.n,
        )
        return None
    return hit


def cached_generate(
    cache: Optional[ResponseCache],
    backend: Backend,
    request: BackendRequest,
    batch_index: int = 0,
    transcript: Optional[Transcript] = None,
) -> BackendResponse:
    """generate() behind a cache: cached_generate_many() of the one draw
    (request, batch_index); a missing or disabled cache passes through."""
    draws = [(request, batch_index)]
    return next(cached_generate_many(cache, backend, draws, transcript))


def cached_generate_many(
    cache: Optional[ResponseCache],
    backend: Backend,
    draws: Sequence[tuple[BackendRequest, int]],
    transcript: Optional[Transcript] = None,
) -> Iterator[BackendResponse]:
    """Responses to independent (request, batch index) draws, in order:
    each is read from the cache or generated, and a generated one is put.

    On a backend of ``max_in_flight`` 1, each draw in turn is looked up,
    generated on a miss and put: the reference order of scripted and
    synthetic runs. On a wider backend every request goes through
    ``backend.executor()``, the pool that bounds its requests in flight:
    the first ``next()`` makes one ``ResponseCache.get`` per draw, in
    order, and submits the misses all at once; hits are served inline. A
    miss whose cache key an earlier miss of the batch already carries is
    not issued with them: once the earlier response is put, it is served
    that response, as the sequential loop would have read it from the
    cache (no ``generate`` event, no ``put``); if that put failed, it goes
    through cached_generate in its turn, as in the sequential loop.
    Without an enabled cache every miss is issued. Response i is yielded
    as soon as it is done, after it is cached and its buffered transcript
    events are replayed, so the transcript, the cache and the backend
    calls end as the sequential loop leaves them while later draws are
    still in flight. A failed draw raises its error in its turn, after
    every draw before it has been yielded. When a draw fails or the
    consumer closes the stream, the draws that have not started are
    cancelled.
    """
    keys: list[str] = []
    if cache is not None and cache.enabled:
        keys = ResponseCache.batch_keys(backend.backend_id, draws)
    if backend.max_in_flight <= 1:
        for i, (request, _) in enumerate(draws):
            response = _lookup(cache, keys[i], request) if keys else None
            if response is None:
                response = generate(backend, request, transcript)
                if keys:
                    cache.put(keys[i], response)
            yield response
        return
    responses: list[Optional[BackendResponse]] = [None] * len(draws)
    if keys:
        responses = [
            _lookup(cache, key, request) for key, (request, _) in zip(keys, draws)
        ]
    issued: dict[str, int] = {}  # cache key -> the miss that issues it
    twins: dict[int, int] = {}  # later miss -> earlier miss with its key
    misses: list[int] = []
    for i, hit in enumerate(responses):
        if hit is not None:
            continue
        first = issued.setdefault(keys[i], i) if keys else i
        if first == i:
            misses.append(i)
        else:
            twins[i] = first
    buffers = {i: Transcript() for i in misses}
    futures: dict[int, Future] = {}
    if misses:
        pool = backend.executor()
        futures = {
            i: pool.submit(generate, backend, draws[i][0], buffers[i]) for i in misses
        }
    stored: set[str] = set()  # keys whose put in this batch was written
    try:
        for i in range(len(draws)):
            if i in twins and keys[i] in stored:
                responses[i] = responses[twins[i]]
            elif i in twins:
                request, batch_index = draws[i]
                responses[i] = cached_generate(
                    cache, backend, request, batch_index, transcript
                )
            elif i in futures:
                responses[i] = futures[i].result()
                if keys and cache.put(keys[i], responses[i]):
                    stored.add(keys[i])
                if transcript is not None:
                    transcript.events.extend(buffers[i].events)
            yield responses[i]
    finally:
        for future in futures.values():
            future.cancel()
