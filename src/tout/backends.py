"""Text-generation boundary.

Four interchangeable backends sit behind one ``generate`` call:

* HttpBackend      -- OpenAI-compatible chat-completions endpoint over HTTP.
* ScriptedBackend  -- pure table lookup; the deterministic test double.
* SyntheticOracleBackend -- seeded noisy oracle for desk-scale experiments.
* ResponseCache / cached_generate -- content-addressed response cache;
  cached_generate is the one-draw case of cached_generate_many, one loop
  for every backend width: it reads, generates and puts each draw in
  order, generating misses on the caller's thread at width 1 and through
  the backend's one pool otherwise, so that pool bounds requests across
  all threads.

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
import tempfile
import threading
import time
from concurrent.futures import Future, ThreadPoolExecutor
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING, Any, Iterator, Optional, Sequence
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
# at the game24 settings, k=5, m=20): 32 sends them in 4 round trips; 64
# made game24 episodes no faster on a loopback stub and cost more memory.
DEFAULT_MAX_IN_FLIGHT = 32

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
    # The draw's cache batch index. Neither sent nor keyed (request_to_body
    # and cache_key leave it out): a backend that answers from a stream per
    # prompt serves draw ``index`` of it; None asks for the next draws.
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
    HttpBackend is DEFAULT_MAX_IN_FLIGHT (32) wide, so a search step's
    k*m value draws go out in a few round trips; the in-process backends
    are 1 wide. A request's ``index`` is its draw's cache batch index, for
    a backend whose answers depend on it rather than on call order.
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
    outside the pool is not bounded. The default width,
    DEFAULT_MAX_IN_FLIGHT = 32, sends a 100-draw search step in 4 round
    trips rather than 13 at 8 (README, "Backends"). Threads start only as
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
        # guards _pool, _connections, padded, _not_before
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
        import http.client

        url = self.base_url + "/v1/chat/completions"
        data = json.dumps(body).encode("utf-8")
        headers = {"Content-Type": "application/json"}
        if self.api_key:
            headers["Authorization"] = f"Bearer {self.api_key}"
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
                retry_after = _retry_after_s(resp_headers.get("Retry-After"))
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


# cache_key's encoder, built once: json.dumps builds a new one on every call
# given any option. Same defaults as json.dumps, so keys keep their bytes.
_KEY_ENCODER = json.JSONEncoder(separators=(",", ":"))

# Cache entries are read in chunks of this size; most fit in one. A larger
# buffer costs more to allocate than the read it serves.
_READ_CHUNK = 64 * 1024

# ResponseCache.get's decoder, built once: json.loads re-checks its argument's
# type and encoding on every call before it reaches the same decoder.
_DECODER = json.JSONDecoder()


def _decode_entry(text: str) -> Any:
    """_DECODER.decode(text), read in one raw_decode when it can be.

    put writes an object with nothing around it, which raw_decode reads
    whole without decode's two whitespace scans. Any other text (padded,
    followed by more data, or not JSON) goes to decode, which accepts or
    rejects it as before.
    """
    try:
        data, end = _DECODER.raw_decode(text)
    except ValueError:
        end = -1
    return data if end == len(text) else _DECODER.decode(text)


class ResponseCache:
    """Content-addressed response cache: one JSON file per key digest.

    Keys include the backend id, prompt digest, quantized temperature, n,
    max_tokens, stop and a sample-batch index, so repeated draws at one
    temperature stay distinct while identical requests are served from
    disk. Entries are written atomically; I/O failures degrade to uncached
    operation (a directory that cannot be created disables the cache) and a
    damaged entry reads as a miss, both with a warning. An
    entry is damaged unless it is UTF-8 JSON whose ``completions`` is a list
    of strings and whose ``usage`` is an object or null. cached_generate
    and cached_generate_many also read a hit with other than ``request.n``
    completions as a logged miss, reissue the request and overwrite the
    entry.

    cache_key is the key of one draw. cached_generate_many builds a batch's
    keys with batch_keys, which computes each distinct prompt's digest and
    key prefix once per batch; the keys are the same bytes.
    """

    def __init__(self, cache_dir: str | Path):
        self.cache_dir = Path(cache_dir)
        self.enabled = True
        # entry paths are joined as strings, cheaper than Path arithmetic
        self._prefix = os.path.join(os.fspath(self.cache_dir), "")
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

        The JSON-encoded ``[backend_id,digest`` prefix of each distinct
        prompt is hashed once for the call; per draw the prefix's hash is
        copied and only the tail is formatted and hashed: the prefix and
        tail bytes concatenate to cache_key's payload. A draw whose
        tail holds anything but plain ints (a bool n, say) is keyed by
        cache_key itself.
        """
        prefixes: dict[str, Any] = {}  # prompt -> sha256 of its key prefix
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
                prefix = prefixes[request.prompt] = hashlib.sha256(
                    _KEY_ENCODER.encode(head)[:-1].encode()
                )
            stop_json = _KEY_ENCODER.encode(list(stop)) if stop else "null"
            digest = prefix.copy()
            digest.update(f",{t},{n},{max_tokens},{stop_json},{batch_index}]".encode())
            keys.append(digest.hexdigest())
        return keys

    def _path(self, key: str) -> str:
        return f"{self._prefix}{key}.json"

    def get(self, key: str) -> Optional[BackendResponse]:
        if not self.enabled:
            return None
        try:
            fd = os.open(self._path(key), os.O_RDONLY)
            try:
                # a short read of a regular file is its end, so an entry that
                # fits one chunk takes one read; only a full chunk reads on
                blob = os.read(fd, _READ_CHUNK)
                if len(blob) == _READ_CHUNK:
                    chunks = [blob]
                    while chunk := os.read(fd, _READ_CHUNK):
                        chunks.append(chunk)
                    blob = b"".join(chunks)
            finally:
                os.close(fd)
        except FileNotFoundError:
            return None
        except OSError as exc:  # a directory at the path fails in os.read
            log.warning("cache read failed for %s: %s", key, exc)
            return None
        try:
            data = _decode_entry(blob.decode("utf-8"))
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

    def put(self, key: str, response: BackendResponse) -> None:
        """Write an entry through a temporary file, so readers never see half;
        a failed write is logged and leaves the old entry, if any, as it was."""
        if not self.enabled:
            return
        data = {"completions": list(response.completions), "usage": response.usage}
        tmp: Optional[str] = None
        try:
            fd, tmp = tempfile.mkstemp(dir=self.cache_dir, prefix=key, suffix=".tmp")
            with os.fdopen(fd, "w", encoding="utf-8") as handle:
                handle.write(json.dumps(data))
            os.replace(tmp, self._path(key))
        except OSError as exc:
            log.warning("cache write failed for %s: %s", key, exc)
            if tmp is not None:
                try:
                    os.unlink(tmp)
                except OSError:
                    pass


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
    transcript: Optional[Transcript] = None,
) -> BackendResponse:
    """generate() behind a cache: cached_generate_many() of the one draw
    (request, 0); a missing or disabled cache passes through."""
    return next(cached_generate_many(cache, backend, [(request, 0)], transcript))


def _generate_buffered(
    backend: Backend, request: BackendRequest
) -> tuple[BackendResponse, list[dict[str, Any]]]:
    """generate() on a pool thread: the response and the events it emitted,
    for the consumer to replay in the draw's turn."""
    buffer = Transcript()
    return generate(backend, request, buffer), buffer.events


_TWIN = object()  # a draw whose cache key an earlier miss of its batch carries


def cached_generate_many(
    cache: Optional[ResponseCache],
    backend: Backend,
    draws: Sequence[tuple[BackendRequest, int]],
    transcript: Optional[Transcript] = None,
) -> Iterator[BackendResponse]:
    """Responses to independent (request, batch index) draws, in order:
    each is read from the cache or generated, and a generated one is put.

    The first ``next()`` makes one ``ResponseCache.get`` per draw, in order,
    except for a twin, a draw whose cache key an earlier miss of the batch
    carries: a twin is looked up in its turn, after that miss was put, so
    it is the hit it would be in a one-at-a-time loop, or, if the put was
    not written, a miss generated and put in its turn. On a backend of
    ``max_in_flight`` 1 each miss is generated in its turn on the caller's
    thread, so a stream that fails or is closed makes no further call. On a
    wider backend the first ``next()`` submits every other miss at once to
    ``backend.executor()``, the pool that bounds its requests in flight,
    and a twin that must be generated goes through it too. Response i is
    yielded after it is put and its transcript events are replayed, so the
    transcript, the cache and the backend calls end as at width 1, whatever
    the width, while later draws are still in flight. Without an enabled
    cache every draw is a miss. A failed draw raises its error in its turn,
    after every draw before it has been yielded; when a draw fails or the
    consumer closes the stream, the draws that have not started are
    cancelled.
    """
    keys: list[str] = []
    if cache is not None and cache.enabled:
        keys = ResponseCache.batch_keys(backend.backend_id, draws)
    # per draw: a hit, _TWIN, a Future of a pooled miss, or None for a
    # miss generated in its turn
    ahead: list[Any] = [None] * len(draws)
    missed: set[str] = set()
    for i, key in enumerate(keys):
        if key in missed:
            ahead[i] = _TWIN
            continue
        ahead[i] = _lookup(cache, key, draws[i][0])
        if ahead[i] is None:
            missed.add(key)
    pool = None
    if backend.max_in_flight > 1 and (missed or not keys) and draws:  # any miss
        pool = backend.executor()
        for i, found in enumerate(ahead):
            if found is None:
                ahead[i] = pool.submit(_generate_buffered, backend, draws[i][0])
    try:
        for i, (request, _) in enumerate(draws):
            response = ahead[i]
            if response is _TWIN:
                response = _lookup(cache, keys[i], request)
                if response is None and pool is not None:
                    response = pool.submit(_generate_buffered, backend, request)
            if response is None or isinstance(response, Future):
                if response is None:
                    response = generate(backend, request, transcript)
                else:
                    response, events = response.result()
                    if transcript is not None:
                        transcript.events.extend(events)
                if keys:
                    cache.put(keys[i], response)
            yield response
    finally:
        if pool is not None:
            for found in ahead:
                if isinstance(found, Future):
                    found.cancel()
