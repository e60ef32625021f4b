"""How an episode reaches its backend: the response cache and the draw loop.

ResponseCache is a content-addressed response cache: one append-only log
per directory with one line per entry, indexed by offset in memory.
cached_generate is the one-request case of cached_generate_many, one loop
for every backend width: it reads, generates and puts each request in
order, generating misses on the caller's thread at width 1 and through the
backend's one pool otherwise, so that pool bounds requests across all
threads.

Calls holds what one episode passes to every request it makes: its
backend, its cache and its transcript. The search code reaches the draw
loop only through it.
"""

from __future__ import annotations

import hashlib
import json
import logging
import os
import threading
import weakref
from concurrent.futures import Future
from pathlib import Path
from typing import Any, Iterator, Optional, Sequence

from .backends import (
    Backend,
    BackendRequest,
    BackendResponse,
    generate,
    prompt_digest,
    quantize_temperature,
)
from .model import Transcript

log = logging.getLogger(__name__)

# cache_key's encoder, built once: json.dumps builds a new one on every call
# given any option. Same defaults as json.dumps, so keys keep their bytes.
_KEY_ENCODER = json.JSONEncoder(separators=(",", ":"))

# ResponseCache's log, in its directory: one line per entry, "<key> <JSON>\n"
LOG_NAME = "responses.log"
_KEY_LEN = 64  # hex digits of a sha256 digest
# The log is scanned in reads of at most this size.
_SCAN_CHUNK = 1 << 20


def _is_old_entry(name: str) -> bool:
    """Whether a file name is an entry of the one-file-per-key layout."""
    stem, _, ext = name.partition(".")
    return ext == "json" and len(stem) == _KEY_LEN and all(
        c in "0123456789abcdef" for c in stem
    )


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
    """Content-addressed response cache: one append-only log per directory.

    Keys include the backend id, prompt digest, quantized temperature, n,
    max_tokens, stop and the draw index (None as 0), so repeated draws at one
    temperature stay distinct while identical requests are served from
    disk. Each entry is one line of the directory's ``responses.log``: the
    64-hex key, a space, the entry's JSON and a newline. A put appends its
    line in one write; the last line for a key wins, so overwriting an
    entry appends a new one. An index in memory maps each key to its
    line's offset and length (about 200 bytes per entry); no response is
    held, so each get reads its line from the file. The index is built on
    first use by scanning whole lines, extended by each put and, on a
    miss, by scanning what was appended since, so entries another process
    or instance appends are seen. A line without its newline (a torn
    write) is never indexed, and the next put starts on a new line.

    I/O failures degrade to uncached operation (a directory that cannot be
    created disables the cache), and a damaged entry reads as a miss, both
    with a warning. An entry is damaged unless its line starts with its
    key and holds UTF-8 JSON whose ``completions`` is a list of strings and
    whose ``usage`` is an object or null. cached_generate and
    cached_generate_many also read a hit with other than ``request.n``
    completions as a logged miss, reissue the request and overwrite the
    entry. The log is created by the first put; entries in the old
    one-file-per-key layout (``<key>.json``) are not read, with one
    warning. ``close()`` releases the log's descriptor, as does collecting
    the cache; a closed cache reopens the log when used again.

    cache_key is the key of one request. cached_generate_many builds a
    batch's keys with batch_keys, which computes each distinct prompt's
    digest and key prefix once per batch; the keys are the same bytes.
    """

    def __init__(self, cache_dir: str | Path):
        self.cache_dir = Path(cache_dir)
        self.enabled = True
        self._log = os.path.join(os.fspath(self.cache_dir), LOG_NAME)
        self._fd: Optional[int] = None  # the log, read and appended
        self._release: Optional[weakref.finalize] = None  # closes _fd
        self._index: dict[str, tuple[int, int]] = {}  # key -> (offset, length)
        self._scanned = 0  # the end of the last complete line indexed
        self._torn = False  # the log ends in a line without its newline
        self._lock = threading.Lock()  # guards all but the reads of a hit
        try:
            self.cache_dir.mkdir(parents=True, exist_ok=True)
        except OSError as exc:
            log.warning("cache disabled, cannot create %s: %s", cache_dir, exc)
            self.enabled = False
            return
        try:
            with os.scandir(self.cache_dir) as entries:
                old = any(_is_old_entry(entry.name) for entry in entries)
        except OSError:
            old = False
        if old:
            log.warning(
                "%s holds cache entries in the old one-file-per-key layout; "
                "they are not read",
                cache_dir,
            )

    def close(self) -> None:
        """Close the log; the cache reopens and rescans it if used again."""
        with self._lock:
            if self._release is not None:
                self._release()
            self._fd = self._release = None
            self._index = {}
            self._scanned = 0
            self._torn = False

    @staticmethod
    def cache_key(backend_id: str, request: BackendRequest) -> str:
        payload = _KEY_ENCODER.encode(
            [
                backend_id,
                prompt_digest(request.prompt),
                quantize_temperature(request.temperature),
                request.n,
                request.max_tokens,
                list(request.stop) if request.stop else None,
                request.index or 0,
            ]
        )
        return hashlib.sha256(payload.encode("utf-8")).hexdigest()

    @staticmethod
    def batch_keys(backend_id: str, requests: Sequence[BackendRequest]) -> list[str]:
        """cache_key of each request, in order.

        The JSON-encoded ``[backend_id,digest`` prefix of each distinct
        prompt is hashed once for the call; per request the prefix's hash is
        copied and only the tail is formatted and hashed: the prefix and
        tail bytes concatenate to cache_key's payload. A request whose
        tail holds anything but plain ints (a bool n, say) is keyed by
        cache_key itself.
        """
        prefixes: dict[str, Any] = {}  # prompt -> sha256 of its key prefix
        keys: list[str] = []
        for request in requests:
            t = quantize_temperature(request.temperature)
            n, max_tokens, stop = request.n, request.max_tokens, request.stop
            index = request.index or 0
            if not (type(t) is type(n) is type(max_tokens) is type(index) is int):
                keys.append(ResponseCache.cache_key(backend_id, request))
                continue
            prefix = prefixes.get(request.prompt)
            if prefix is None:
                head = [backend_id, prompt_digest(request.prompt)]
                prefix = prefixes[request.prompt] = hashlib.sha256(
                    _KEY_ENCODER.encode(head)[:-1].encode()
                )
            stop_json = _KEY_ENCODER.encode(list(stop)) if stop else "null"
            digest = prefix.copy()
            digest.update(f",{t},{n},{max_tokens},{stop_json},{index}]".encode())
            keys.append(digest.hexdigest())
        return keys

    def _open(self, create: bool) -> Optional[int]:
        """The log's descriptor, opened and indexed on first use; None when
        there is no log yet and ``create`` is false. Call under _lock."""
        if self._fd is None:
            flags = os.O_RDWR | os.O_APPEND | os.O_CLOEXEC
            try:
                fd = os.open(self._log, flags | (os.O_CREAT if create else 0), 0o666)
            except FileNotFoundError:
                if create:
                    raise
                return None
            except PermissionError:
                if create:
                    raise
                # a log this process may not write is still read; puts to
                # it fail in os.write, logged
                fd = os.open(self._log, os.O_RDONLY | os.O_CLOEXEC)
            self._fd = fd
            self._release = weakref.finalize(self, os.close, fd)
        self._scan()
        return self._fd

    def _scan(self) -> None:
        """Index the complete lines appended since the last scan, without
        decoding them: the last line for a key wins."""
        end = os.fstat(self._fd).st_size
        if end < self._scanned:  # the log was cut short in place: index it anew
            self._index, self._scanned = {}, 0
        pos = read = self._scanned  # the first line not indexed; bytes read
        rest = b""  # the part of that line read so far
        while read < end:
            chunk = os.pread(self._fd, min(_SCAN_CHUNK, end - read), read)
            if not chunk:
                break  # truncated since the fstat
            read += len(chunk)
            buf = rest + chunk
            start = 0
            while (stop := buf.find(b"\n", start)) >= 0:
                if stop - start > _KEY_LEN and buf[start + _KEY_LEN] == 0x20:
                    key = buf[start : start + _KEY_LEN].decode("latin-1")
                    self._index[key] = (pos + start, stop - start)
                start = stop + 1
            pos += start
            rest = buf[start:]
        self._scanned = pos
        self._torn = bool(rest)

    def get(self, key: str) -> Optional[BackendResponse]:
        if not self.enabled:
            return None
        where = self._index.get(key)
        try:
            if where is None:
                with self._lock:
                    if self._open(create=False) is None:
                        return None
                    where = self._index.get(key)
                if where is None:
                    return None
            offset, length = where
            line = os.pread(self._fd, length, offset)
        except OSError as exc:  # a directory at the log's path fails to open
            log.warning("cache read failed for %s: %s", key, exc)
            return None
        try:
            if not line.startswith(f"{key} ".encode()):
                raise ValueError("the line does not start with its key")
            data = _decode_entry(line[_KEY_LEN + 1 :].decode("utf-8"))
            completions, usage = data["completions"], data.get("usage")
            # JSON decodes to exact list, str and dict, so type() is isinstance
            if type(completions) is not list:
                raise TypeError("completions is not a list of strings")
            for text in completions:
                if type(text) is not str:
                    raise TypeError("completions is not a list of strings")
            if usage is not None and type(usage) is not dict:
                raise TypeError("usage is neither an object nor null")
            return BackendResponse(tuple(completions), usage)
        except (ValueError, KeyError, TypeError) as exc:  # ValueError: UTF-8, JSON
            log.warning("damaged cache entry %s treated as a miss: %s", key, exc)
            return None

    def put(self, key: str, response: BackendResponse) -> None:
        """Append an entry in one write; a write that fails or comes back
        short is logged and leaves the old entry, if any, as it was."""
        if not self.enabled:
            return
        entry = {"completions": list(response.completions), "usage": response.usage}
        line = f"{key} {json.dumps(entry)}\n".encode()
        with self._lock:
            try:
                fd = self._open(create=True)
                # end a torn line first, so that it costs only its own entry
                data = b"\n" + line if self._torn else line
                written = os.write(fd, data)
                if written != len(data):
                    raise OSError(f"short write, {written} of {len(data)} bytes")
                end = os.lseek(fd, 0, os.SEEK_CUR)  # where the append ended
                if end - len(data) == self._scanned:  # nothing else was appended
                    self._index[key] = (end - len(line), len(line) - 1)
                    self._scanned = end
                else:  # index the lines before this one first, in order
                    self._scan()
            except OSError as exc:
                log.warning("cache write failed for %s: %s", key, exc)


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
    """generate() behind a cache: cached_generate_many() of the one
    request; a missing or disabled cache passes through."""
    return next(cached_generate_many(cache, backend, [request], transcript))


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
    requests: Sequence[BackendRequest],
    transcript: Optional[Transcript] = None,
) -> Iterator[BackendResponse]:
    """Responses to independent requests (draws), in order: each is read
    from the cache or generated, and a generated one is put.

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
    cancelled. A batch whose every draw hit yields the responses of its
    lookups and does nothing else.
    """
    keys: list[str] = []
    if cache is not None and cache.enabled:
        keys = ResponseCache.batch_keys(backend.backend_id, requests)
    # per draw: a hit, _TWIN, a Future of a pooled miss, or None for a
    # miss generated in its turn
    ahead: list[Any] = [None] * len(requests)
    missed: set[str] = set()
    for i, key in enumerate(keys):
        if key in missed:
            ahead[i] = _TWIN
            continue
        ahead[i] = _lookup(cache, key, requests[i])
        if ahead[i] is None:
            missed.add(key)
    if keys and not missed:  # every draw hit: no twin, nothing to generate
        yield from ahead
        return
    pool = None
    if backend.max_in_flight > 1 and requests:  # any miss
        pool = backend.executor()
        for i, found in enumerate(ahead):
            if found is None:
                ahead[i] = pool.submit(_generate_buffered, backend, requests[i])
    try:
        for i, request in enumerate(requests):
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


class Calls:
    """One episode's requests: its backend, its response cache (None for
    none) and the transcript that their events and the search's go to.

    ``one`` answers one request (cached_generate); ``many`` answers a batch
    of independent draws in order (cached_generate_many).
    """

    __slots__ = ("backend", "cache", "transcript")

    def __init__(
        self,
        backend: Backend,
        cache: Optional[ResponseCache],
        transcript: Optional[Transcript] = None,
    ):
        self.backend = backend
        self.cache = cache
        self.transcript = Transcript() if transcript is None else transcript

    def one(self, request: BackendRequest) -> BackendResponse:
        return cached_generate(self.cache, self.backend, request, self.transcript)

    def many(self, requests: Sequence[BackendRequest]) -> Iterator[BackendResponse]:
        return cached_generate_many(self.cache, self.backend, requests, self.transcript)
