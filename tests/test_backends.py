"""Backend plumbing: HTTP client behavior, scripted replay, the noisy
oracle, and the response cache.

The HTTP tests run HttpBackend against a loopback server that replays a
canned sequence of responses, so retry, shortfall and connection behavior
is exercised without a network.
"""

from __future__ import annotations

import base64
import dataclasses
import gc
import hashlib
import inspect
import json
import logging
import math
import os
import re
import select
import selectors
import shutil
import socket
import socketserver
import subprocess
import sys
import sysconfig
import tempfile
import threading
import time
import warnings
from collections import Counter
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import tout
from helpers import CacheLog, EpisodeScript, PooledBackend, make_state
from tout.backends import (
    Backend,
    BackendRequest,
    BackendResponse,
    HttpBackend,
    ScriptedBackend,
    SyntheticOracleBackend,
    body_to_request,
    generate,
    prompt_digest,
    quantize_temperature,
    request_to_body,
)
from tout.calls import (
    LOG_NAME,
    ResponseCache,
    _decode_entry,
    cached_generate,
    cached_generate_many,
)
from tout.harness import Problem, run_benchmark, synthetic_setup
from tout.model import (
    BackendUnavailableError,
    InvalidArgumentError,
    SearchConfig,
    Transcript,
)
from tout.tasks import make_task
from tout.tasks.synthetic import build_trap_benchmark
from tout.uncertainty import value_draws


class TestRequestEncoding:
    def test_digest_is_short_hex(self):
        digest = prompt_digest("hello")
        assert len(digest) == 16
        assert all(c in "0123456789abcdef" for c in digest)
        assert digest == prompt_digest("hello")
        assert digest != prompt_digest("hello ")

    def test_quantization(self):
        assert quantize_temperature(0.2) == 200
        assert quantize_temperature(1.0) == 1000
        assert quantize_temperature(0.6000000000000001) == 600

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"temperature": -0.1},
            {"temperature": 2.5},
            {"temperature": float("nan")},
            {"temperature": 0.5, "n": 0},
            {"temperature": 0.5, "max_tokens": 0},
            {"temperature": 0.5, "index": -1},
        ],
    )
    def test_request_validation(self, kwargs):
        with pytest.raises(InvalidArgumentError):
            BackendRequest(prompt="p", **kwargs)

    @given(
        st.text(max_size=200),
        st.floats(min_value=0.0, max_value=2.0, allow_nan=False),
        st.integers(min_value=1, max_value=20),
        st.integers(min_value=1, max_value=2048),
        st.one_of(st.none(), st.lists(st.text(min_size=1, max_size=5), max_size=3)),
    )
    def test_body_round_trip(self, prompt, temperature, n, max_tokens, stop):
        request = BackendRequest(
            prompt=prompt,
            temperature=temperature,
            n=n,
            max_tokens=max_tokens,
            stop=tuple(stop) if stop is not None else None,
        )
        assert body_to_request(request_to_body(request, "some-model")) == request

    def test_request_and_response_are_frozen_slotted_values(self):
        request = BackendRequest(prompt="p", temperature=0.5, stop=("x",))
        response = BackendResponse(completions=("a",))
        for value, field in ((request, "temperature"), (response, "completions")):
            assert not hasattr(value, "__dict__")
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(value, field, getattr(value, field))
        assert request == BackendRequest("p", 0.5, stop=("x",))
        assert {request: 1, response: 2}[BackendRequest("p", 0.5, stop=("x",))] == 1
        assert {request: 1, response: 2}[BackendResponse(("a",))] == 2
        warmer = dataclasses.replace(request, temperature=0.7)
        assert warmer == BackendRequest("p", 0.7, stop=("x",))
        with pytest.raises(InvalidArgumentError):
            dataclasses.replace(request, temperature=2.5)

    def test_draw_index_is_keyed_but_not_sent(self):
        plain = BackendRequest(prompt="p", temperature=0.7)
        first = BackendRequest(prompt="p", temperature=0.7, index=0)
        indexed = BackendRequest(prompt="p", temperature=0.7, index=3)
        assert request_to_body(indexed, "m1") == request_to_body(plain, "m1")
        # None is keyed as draw 0, the slot that propose, final and baseline
        # requests have always been keyed in, so their cache entries hit
        assert ResponseCache.cache_key("b", plain) == ResponseCache.cache_key("b", first)
        assert ResponseCache.cache_key("b", plain) != ResponseCache.cache_key("b", indexed)
        assert ResponseCache.batch_keys("b", [plain, first, indexed]) == [
            ResponseCache.cache_key("b", request) for request in (plain, first, indexed)
        ]

    def test_body_shape(self):
        body = request_to_body(
            BackendRequest(prompt="p", temperature=0.7, n=3), "m1"
        )
        assert body["model"] == "m1"
        assert body["messages"] == [{"role": "user", "content": "p"}]
        assert body["n"] == 3
        assert "stop" not in body


class _LyingBackend:
    """Claims fewer completions than requested."""

    backend_id = "liar"

    def generate(self, request):
        return BackendResponse(completions=("only one",))


class TestGenerateWrapper:
    def test_emits_latency_event(self):
        backend = ScriptedBackend({}, default="ok")
        transcript = Transcript()
        response = generate(
            backend, BackendRequest(prompt="p", temperature=0.5), transcript
        )
        assert response.completions == ("ok",)
        (event,) = transcript.events
        assert event["event"] == "generate"
        assert event["latency_ms"] >= 0.0
        assert event["prompt_digest"] == prompt_digest("p")

    def test_event_digest_is_unchanged_by_a_memoised_hit(self):
        # a state's draws share one prompt, whose digest is computed once
        backend = ScriptedBackend({}, default="ok")
        transcript = Transcript()
        prompt = "VALUE digest-memo"
        hits = prompt_digest.cache_info().hits
        for temperature in (0.2, 0.6):
            request = BackendRequest(prompt=prompt, temperature=temperature)
            generate(backend, request, transcript)
        # an equal prompt built anew is the same key
        rebuilt = "".join(["VALUE ", "digest-memo"])
        generate(backend, BackendRequest(prompt=rebuilt, temperature=1.0), transcript)
        assert prompt_digest.cache_info().hits >= hits + 2
        expected = hashlib.sha256(prompt.encode("utf-8")).hexdigest()[:16]
        assert [e["prompt_digest"] for e in transcript.events] == [expected] * 3

    def test_debug_log_names_the_call(self, caplog):
        backend = ScriptedBackend({}, default="ok")
        with caplog.at_level(logging.DEBUG, logger="tout.backends"):
            generate(backend, BackendRequest(prompt="p", temperature=0.5))
        assert "generate backend=scripted temp=0.500 n=1 latency=" in caplog.text

    def test_completion_count_enforced(self):
        with pytest.raises(BackendUnavailableError):
            generate(_LyingBackend(), BackendRequest(prompt="p", temperature=0.5, n=2))


class TestScriptedBackend:
    def test_keyed_lookup(self):
        key = ScriptedBackend.key("prompt", 0.7, 0)
        backend = ScriptedBackend({key: "scripted"}, default="fallback")
        hit = backend.generate(BackendRequest(prompt="prompt", temperature=0.7))
        miss = backend.generate(BackendRequest(prompt="other", temperature=0.7))
        assert hit.completions == ("scripted",)
        assert miss.completions == ("fallback",)

    def test_temperature_distinguishes_entries(self):
        script = {
            ScriptedBackend.key("p", 0.2, 0): "cold",
            ScriptedBackend.key("p", 1.0, 0): "hot",
        }
        backend = ScriptedBackend(script)
        assert backend.generate(
            BackendRequest(prompt="p", temperature=0.2)
        ).completions == ("cold",)
        assert backend.generate(
            BackendRequest(prompt="p", temperature=1.0)
        ).completions == ("hot",)

    def test_n_indexes_within_request(self):
        script = {
            ScriptedBackend.key("p", 0.5, 0): "first",
            ScriptedBackend.key("p", 0.5, 1): "second",
        }
        backend = ScriptedBackend(script, default="pad")
        response = backend.generate(BackendRequest(prompt="p", temperature=0.5, n=3))
        assert response.completions == ("first", "second", "pad")


_PROXY_VARIABLES = (
    "http_proxy", "https_proxy", "all_proxy", "no_proxy",
    "HTTP_PROXY", "HTTPS_PROXY", "ALL_PROXY", "NO_PROXY",
)


def _choices(*texts):
    return 200, {}, json.dumps({"choices": [{"message": {"content": t}} for t in texts]})


def _status(code, headers=None, body="{}"):
    return code, headers or {}, body


# 200 bodies whose choices no completion can be read from
_WRONG_SHAPE_CHOICES = [
    {"choices": None},
    {"choices": [{"message": None}]},
    {"choices": ["x"]},
    {"choices": [{"message": {"content": ["x"]}}]},
]
_WRONG_SHAPE_IDS = ["null-choices", "null-message", "string-choice", "list-content"]


class _EndpointHandler(BaseHTTPRequestHandler):
    protocol_version = "HTTP/1.1"  # keep-alive
    disable_nagle_algorithm = True  # headers and body go out in two sends

    def setup(self):
        super().setup()
        self.server.endpoint.sockets.append(self.connection)

    def do_POST(self):
        endpoint = self.server.endpoint
        raw = self.rfile.read(int(self.headers["Content-Length"]))
        endpoint.calls.append(
            {
                "path": self.path,
                "body": json.loads(raw),
                "headers": dict(self.headers),
                "peer": self.client_address,
            }
        )
        if endpoint.responses:
            status, headers, body = endpoint.responses.pop(0)
        else:
            endpoint.unexpected += 1
            status, headers, body = 500, {}, "unexpected extra HTTP call"
        data = body.encode("utf-8")
        self.send_response(status)
        for name, value in headers.items():
            self.send_header(name, value)
        self.send_header("Content-Length", str(len(data)))
        self.end_headers()
        self.wfile.write(data)

    def log_message(self, *args):
        pass


class _Endpoint:
    """A loopback chat-completions server that answers with canned
    (status, headers, body) responses in order and logs each request's
    path, JSON body, headers and client address."""

    def __init__(self, tls=None):
        self.responses = []
        self.calls = []
        self.sockets = []  # server side of every connection accepted
        self.unexpected = 0
        self.backends = []
        self.server = ThreadingHTTPServer(("127.0.0.1", 0), _EndpointHandler)
        self.server.daemon_threads = True
        self.server.endpoint = self
        if tls is not None:  # an ssl.SSLContext serving https://localhost
            self.server.socket = tls.wrap_socket(self.server.socket, server_side=True)
        self.thread = threading.Thread(
            target=self.server.serve_forever, args=(0.05,), daemon=True
        )
        self.thread.start()
        host = "127.0.0.1" if tls is None else "localhost"
        scheme = "http" if tls is None else "https"
        self.url = f"{scheme}://{host}:{self.server.server_port}"

    def reply(self, *responses):
        self.responses.extend(responses)

    def client(self, **kwargs):
        """An HttpBackend on this endpoint, closed when the test ends."""
        defaults = dict(base_url=self.url, model="m1", backoff_s=0.0, max_retries=2)
        defaults.update(kwargs)
        backend = HttpBackend(**defaults)
        self.backends.append(backend)
        return backend

    def drop_connections(self):
        """Close every connection from the server's side, as a server
        timing out idle keep-alive connections does."""
        for sock in self.sockets:
            try:
                sock.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass  # already closed

    def close(self):
        for backend in self.backends:
            backend.close()
        self.server.shutdown()
        self.drop_connections()
        self.server.server_close()
        self.thread.join(timeout=5)
        assert not self.thread.is_alive()


@pytest.fixture
def endpoint(monkeypatch):
    for name in _PROXY_VARIABLES:
        monkeypatch.delenv(name, raising=False)
    server = _Endpoint()
    yield server
    server.close()
    assert server.unexpected == 0, "unexpected extra HTTP call"


class _ConnectProxy(socketserver.BaseRequestHandler):
    """Answers one CONNECT, logs its target and headers, then relays bytes."""

    def handle(self):
        head = b""
        while b"\r\n\r\n" not in head:
            chunk = self.request.recv(4096)
            if not chunk:
                return
            head += chunk
        request_line, *header_lines = head.split(b"\r\n\r\n")[0].decode().split("\r\n")
        method, target, _ = request_line.split(" ")
        headers = dict(line.split(": ", 1) for line in header_lines)
        self.server.tunnels.append((method, target, headers))
        host, port = target.rsplit(":", 1)
        with socket.create_connection((host, int(port)), timeout=5) as upstream:
            self.request.sendall(b"HTTP/1.1 200 Connection established\r\n\r\n")
            peers = {self.request: upstream, upstream: self.request}
            while True:
                readable, _, _ = select.select(list(peers), [], [], 5)
                if not readable:
                    return
                for sock in readable:
                    data = sock.recv(65536)
                    if not data:
                        return
                    peers[sock].sendall(data)


@pytest.fixture
def connect_proxy():
    server = socketserver.ThreadingTCPServer(("127.0.0.1", 0), _ConnectProxy)
    server.daemon_threads = True
    server.tunnels = []
    thread = threading.Thread(target=server.serve_forever, args=(0.05,), daemon=True)
    thread.start()
    yield server
    server.shutdown()
    server.server_close()
    thread.join(timeout=5)
    assert not thread.is_alive()


class _RawReplies(socketserver.StreamRequestHandler):
    """Reads each request whole, then sends the server's next canned reply:
    a list of byte strings written apart, 20 ms between them, where None
    closes the connection. No reply left also closes it."""

    def handle(self):
        server = self.server
        with server.lock:
            server.connections += 1
        self.request.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        try:
            while True:
                head = b""
                while not head.endswith(b"\r\n\r\n"):
                    line = self.rfile.readline()
                    if not line:
                        return
                    head += line
                length = next(
                    int(line.split(b":")[1])
                    for line in head.split(b"\r\n")
                    if line.lower().startswith(b"content-length:")
                )
                self.rfile.read(length)
                with server.lock:
                    server.requests.append(head.decode("latin-1"))
                    parts = server.replies.pop(0) if server.replies else [None]
                for part in parts:
                    if part is None:
                        return
                    self.request.sendall(part)
                    time.sleep(0.02)
        except OSError:
            return  # the client gave up on the reply


@pytest.fixture
def raw_server(monkeypatch):
    """A loopback server that answers with canned raw bytes (_RawReplies)."""
    for name in _PROXY_VARIABLES:
        monkeypatch.delenv(name, raising=False)
    server = socketserver.ThreadingTCPServer(("127.0.0.1", 0), _RawReplies)
    server.daemon_threads = True
    server.lock = threading.Lock()
    server.connections, server.requests, server.replies = 0, [], []
    server.url = f"http://127.0.0.1:{server.server_address[1]}"
    thread = threading.Thread(target=server.serve_forever, args=(0.05,), daemon=True)
    thread.start()
    backends = []

    def client(**kwargs):
        backend = HttpBackend(
            base_url=server.url, model="m1", backoff_s=0.0, max_retries=2, **kwargs
        )
        backends.append(backend)
        return backend

    server.client = client
    yield server
    for backend in backends:
        backend.close()
    server.shutdown()
    server.server_close()
    thread.join(timeout=5)
    assert not thread.is_alive()


def _reply_body(text):
    return _choices(text)[2].encode()


def _sized(text, head=b"HTTP/1.1 200 OK\r\n"):
    body = _reply_body(text)
    return head + b"Content-Length: %d\r\n\r\n" % len(body) + body


class TestHttpBackend:
    def test_success_single_call(self, endpoint):
        endpoint.reply(_choices("hi"))
        backend = endpoint.client(api_key="sk-x")
        response = backend.generate(BackendRequest(prompt="p", temperature=0.5))
        assert response.completions == ("hi",)
        assert len(endpoint.calls) == 1
        assert endpoint.calls[0]["path"] == "/v1/chat/completions"
        assert endpoint.calls[0]["headers"]["Authorization"] == "Bearer sk-x"

    def test_retries_server_error_then_succeeds(self, endpoint):
        endpoint.reply(_status(500, body='{"error": "boom"}'), _choices("recovered"))
        response = endpoint.client().generate(
            BackendRequest(prompt="p", temperature=0.5)
        )
        assert response.completions == ("recovered",)
        assert len(endpoint.calls) == 2

    def test_client_error_does_not_retry(self, endpoint):
        endpoint.reply(_status(400, body='{"error": "bad request"}'))
        with pytest.raises(BackendUnavailableError) as err:
            endpoint.client().generate(BackendRequest(prompt="p", temperature=0.5))
        assert len(endpoint.calls) == 1
        assert err.value.last_status == 400

    def test_rate_limit_is_retried(self, endpoint):
        endpoint.reply(*[_status(429)] * 3)
        with pytest.raises(BackendUnavailableError) as err:
            endpoint.client(max_retries=2).generate(
                BackendRequest(prompt="p", temperature=0.5)
            )
        assert len(endpoint.calls) == 3  # initial + 2 retries
        assert err.value.last_status == 429

    def test_retry_after_seconds_lengthen_the_backoff(self, endpoint, caplog):
        endpoint.reply(
            _status(429, {"Retry-After": "0.3"}),
            _status(429, {"Retry-After": "Wed, 21 Oct 2015 07:28:00 GMT"}),
            _status(429, {"Retry-After": "0"}),
            _status(500, {"Retry-After": "9"}),
            _choices("ok"),
        )
        started = time.monotonic()
        with caplog.at_level(logging.WARNING, logger="tout.backends"):
            response = endpoint.client(backoff_s=0.05, max_retries=4).generate(
                BackendRequest(prompt="p", temperature=0.5)
            )
        waited = time.monotonic() - started
        assert response.completions == ("ok",)
        delays = [float(d) for d in re.findall(r" in ([0-9.]+)s ", caplog.text)]
        # max(backoff, Retry-After) after a 429; other forms and codes: backoff
        assert delays == [0.3, 0.1, 0.2, 0.4]
        assert waited >= 0.95  # each backoff is waited out

    def test_retry_after_beyond_the_retry_budget_fails_at_once(
        self, endpoint, monkeypatch
    ):
        # the backoff ladder waits at most 0.5 * 2**4 = 8 s in all
        endpoint.reply(_status(429, {"Retry-After": "3600"}))
        delays = []
        monkeypatch.setattr("tout.backends.time.sleep", delays.append)
        with pytest.raises(BackendUnavailableError) as err:
            endpoint.client(backoff_s=0.5, max_retries=4).generate(
                BackendRequest(prompt="p", temperature=0.5)
            )
        assert err.value.last_status == 429
        assert "Retry-After 3600s" in str(err.value)
        assert len(endpoint.calls) == 1 and delays == []

    @pytest.mark.parametrize("replies, attempts", [
        ([_status(400, body='{"error": "bad request"}')], "1 attempt:"),
        ([_status(429, {"Retry-After": "3600"})], "1 attempt:"),
        ([_status(503)] * 3, "3 attempts:"),  # max_retries=2: every attempt
    ], ids=["client-error", "retry-after-over-budget", "server-errors"])
    def test_error_names_the_attempts_made(self, endpoint, replies, attempts):
        endpoint.reply(*replies)
        with pytest.raises(BackendUnavailableError) as err:
            endpoint.client(max_retries=2).generate(
                BackendRequest(prompt="p", temperature=0.5)
            )
        assert len(endpoint.calls) == len(replies)
        assert f"endpoint unavailable after {attempts}" in str(err.value)

    def test_shortfall_topped_up_one_at_a_time(self, endpoint):
        endpoint.reply(
            _choices("a"),  # provider ignored n=3
            _choices("b"),
            _choices("c"),
        )
        backend = endpoint.client()
        response = backend.generate(BackendRequest(prompt="p", temperature=0.5, n=3))
        assert response.completions == ("a", "b", "c")
        assert [c["body"]["n"] for c in endpoint.calls] == [3, 1, 1]
        assert backend.padded == 0
        # a top-up that fails pads the rest with empty text, and counts it
        endpoint.reply(_choices("d"), _status(400))
        response = backend.generate(BackendRequest(prompt="p", temperature=0.5, n=3))
        assert response.completions == ("d", "", "")
        assert [c["body"]["n"] for c in endpoint.calls[3:]] == [3, 1]
        assert backend.padded == 2

    def test_first_short_reply_is_logged_once(self, endpoint, caplog):
        endpoint.reply(*[_choices(text) for text in "abcdef"])
        backend = endpoint.client()
        request = BackendRequest(prompt="p", temperature=0.5, n=3)
        with caplog.at_level(logging.WARNING, logger="tout.backends"):
            assert backend.generate(request).completions == ("a", "b", "c")
            assert backend.generate(request).completions == ("d", "e", "f")
        (record,) = caplog.records  # the second short reply logs nothing
        assert "1 of 3 completions" in record.getMessage()
        assert "one request at a time" in record.getMessage()
        assert backend.padded == 0

    def test_non_json_200_is_retried(self, endpoint):
        endpoint.reply(_status(200, body="<html>gateway busy</html>"), _choices("recovered"))
        response = endpoint.client().generate(
            BackendRequest(prompt="p", temperature=0.5)
        )
        assert response.completions == ("recovered",)
        assert len(endpoint.calls) == 2

    def test_non_json_200_ends_in_backend_unavailable(self, endpoint):
        endpoint.reply(*[_status(200, body="<html>gateway busy</html>")] * 3)
        with pytest.raises(BackendUnavailableError) as err:
            endpoint.client(max_retries=2).generate(
                BackendRequest(prompt="p", temperature=0.5)
            )
        assert len(endpoint.calls) == 3
        assert err.value.last_status == 200

    @pytest.mark.parametrize("body", _WRONG_SHAPE_CHOICES, ids=_WRONG_SHAPE_IDS)
    def test_wrong_shape_choices_are_retried(self, endpoint, body):
        endpoint.reply(_status(200, body=json.dumps(body)), _choices("recovered"))
        response = endpoint.client().generate(
            BackendRequest(prompt="p", temperature=0.5)
        )
        assert response.completions == ("recovered",)
        assert len(endpoint.calls) == 2

    @pytest.mark.parametrize("body", _WRONG_SHAPE_CHOICES, ids=_WRONG_SHAPE_IDS)
    def test_wrong_shape_choices_end_in_backend_unavailable(
        self, endpoint, tmp_path, body
    ):
        endpoint.reply(*[_status(200, body=json.dumps(body))] * 3)
        cache = ResponseCache(tmp_path)
        with pytest.raises(BackendUnavailableError, match="wrong-shape choices") as err:
            cached_generate(
                cache,
                endpoint.client(max_retries=2),
                BackendRequest(prompt="p", temperature=0.5),
            )
        assert len(endpoint.calls) == 3
        assert err.value.last_status == 200
        assert list(tmp_path.iterdir()) == []  # nothing was cached

    def test_null_content_is_empty_text(self, endpoint):
        body = {"choices": [{"message": {"content": None}}, {}]}
        endpoint.reply(_status(200, body=json.dumps(body)))
        response = endpoint.client().generate(
            BackendRequest(prompt="p", temperature=0.5, n=2)
        )
        assert response.completions == ("", "")
        assert len(endpoint.calls) == 1

    def test_usage_that_is_not_an_object_is_dropped(self, endpoint, tmp_path):
        # the cache reads an entry whose usage is not an object as damaged,
        # so keeping it would reissue the request on every read
        body = {"choices": [{"message": {"content": "hi"}}], "usage": "n/a"}
        endpoint.reply((200, {}, json.dumps(body)))
        backend, cache = endpoint.client(), ResponseCache(tmp_path)
        request = BackendRequest(prompt="p", temperature=0.5)
        first = cached_generate(cache, backend, request)
        second = cached_generate(cache, backend, request)
        assert first == second == BackendResponse(completions=("hi",))
        assert len(endpoint.calls) == 1

    def test_open_connections_never_exceed_max_in_flight(self, endpoint):
        endpoint.reply(*[_choices("x")] * 10)
        backend = endpoint.client(max_in_flight=3)
        assert backend.max_in_flight == 3
        draws = [BackendRequest(prompt="p", temperature=0.5, index=i) for i in range(10)]
        assert len(list(cached_generate_many(None, backend, draws))) == 10
        # three at once, each kept alive for the draws queued behind it
        assert len(endpoint.sockets) == 3
        assert len(backend._connections) == 3
        with pytest.raises(InvalidArgumentError):
            endpoint.client(max_in_flight=0)

    def test_requires_base_url_and_model(self, monkeypatch):
        monkeypatch.delenv("TOUT_API_BASE", raising=False)
        monkeypatch.delenv("TOUT_MODEL", raising=False)
        with pytest.raises(InvalidArgumentError):
            HttpBackend()
        with pytest.raises(InvalidArgumentError):
            HttpBackend(base_url="http://fake.test")
        for bad in ("fake.test", "ftp://fake.test", "http://fake.test:port"):
            with pytest.raises(InvalidArgumentError):
                HttpBackend(base_url=bad, model="m1")

    @pytest.mark.parametrize("setting, value", [
        ("max_retries", -1), ("max_retries", 1.0), ("max_retries", None),
        ("max_retries", True),
        ("backoff_s", -0.5), ("backoff_s", float("nan")), ("backoff_s", float("inf")),
        ("backoff_s", True),
        ("timeout_s", 0), ("timeout_s", -1.0), ("timeout_s", float("nan")),
        ("timeout_s", float("inf")), ("timeout_s", "60"), ("timeout_s", True),
        ("max_in_flight", 0), ("max_in_flight", 2.5), ("max_in_flight", True),
        ("max_in_flight", "4"), ("max_in_flight", None),
    ])
    def test_rejects_retry_settings_it_cannot_use(self, setting, value):
        # max_retries=-1 once failed every request at once, sending none
        with pytest.raises(InvalidArgumentError, match=setting):
            HttpBackend(base_url="http://fake.test", model="m1", **{setting: value})
        HttpBackend(base_url="http://fake.test", model="m1",
                    max_retries=0, backoff_s=0, timeout_s=0.5)


class TestHttpTransport:
    def test_sequential_calls_share_a_connection(self, endpoint):
        endpoint.reply(*[_choices("x")] * 5)
        backend = endpoint.client()
        request = BackendRequest(prompt="p", temperature=0.5)
        for _ in range(3):
            backend.generate(request)
        # a connection is not a thread's: another thread's calls reuse it
        other = threading.Thread(target=lambda: [backend.generate(request) for _ in range(2)])
        other.start()
        other.join(timeout=10)
        assert len(endpoint.calls) == 5
        assert len(endpoint.sockets) == 1
        assert len({c["peer"] for c in endpoint.calls}) == 1

    def test_connection_closed_while_idle_is_reopened_at_once(
        self, endpoint, monkeypatch, caplog
    ):
        endpoint.reply(_choices("first"), _choices("second"))
        backend = endpoint.client(backoff_s=1.0)
        delays = []
        monkeypatch.setattr("tout.backends.time.sleep", delays.append)
        backend.generate(BackendRequest(prompt="p", temperature=0.5))
        endpoint.drop_connections()
        with caplog.at_level(logging.WARNING, logger="tout.backends"):
            response = backend.generate(BackendRequest(prompt="p", temperature=0.5))
        assert response.completions == ("second",)
        assert delays == []
        assert "retrying" not in caplog.text
        assert len(endpoint.calls) == 2
        assert len(endpoint.sockets) == 2

    def test_refused_connection_is_retried_then_fails(self, monkeypatch):
        for name in _PROXY_VARIABLES:
            monkeypatch.delenv(name, raising=False)
        with socket.socket() as probe:  # a loopback port nothing listens on
            probe.bind(("127.0.0.1", 0))
            port = probe.getsockname()[1]
        backend = HttpBackend(
            base_url=f"http://127.0.0.1:{port}", model="m1",
            max_retries=2, backoff_s=0.01,
        )
        attempts = []
        start = backend._start

        def counted(*args):
            attempts.append(args)
            return start(*args)

        monkeypatch.setattr(backend, "_start", counted)
        try:
            with pytest.raises(BackendUnavailableError) as err:
                backend.generate(BackendRequest(prompt="p", temperature=0.5))
            assert len(attempts) == 3
            assert err.value.last_status is None
            assert "ConnectionRefusedError" in str(err.value)
            assert not backend._connections
        finally:
            backend.close()

    def test_base_url_path_is_kept(self, endpoint):
        endpoint.reply(_choices("hi"))
        backend = endpoint.client(base_url=endpoint.url + "/prefix/")
        backend.generate(BackendRequest(prompt="p", temperature=0.5))
        assert endpoint.calls[0]["path"] == "/prefix/v1/chat/completions"

    def test_tls_wrap_follows_the_scheme(self, monkeypatch):
        import ssl

        for name in _PROXY_VARIABLES:
            monkeypatch.delenv(name, raising=False)
        wrapped = []

        def wrap(context, sock, server_hostname=None, **options):
            wrapped.append(server_hostname)
            raise OSError("wrapped")

        monkeypatch.setattr(ssl.SSLContext, "wrap_socket", wrap)
        # a listener that never answers: the connect completes in its backlog
        with socket.create_server(("127.0.0.1", 0)) as listener:
            port = listener.getsockname()[1]
            for scheme, names, error in [
                ("https", ["localhost"], "wrapped"),  # wrapped once connected
                ("http", [], "TimeoutError"),  # sent plain, then no reply
            ]:
                backend = HttpBackend(base_url=f"{scheme}://localhost:{port}",
                                      model="m1", max_retries=0, timeout_s=0.2)
                try:
                    with pytest.raises(BackendUnavailableError, match=error):
                        backend.generate(BackendRequest(prompt="p", temperature=0.5))
                    assert wrapped == names
                finally:
                    backend.close()
                wrapped.clear()

    def test_https_round_trip(self, monkeypatch):
        import ssl

        certs = Path(sysconfig.get_path("stdlib")) / "test" / "certdata"
        if not all((certs / name).is_file() for name in ("keycert3.pem", "pycacert.pem")):
            pytest.skip("CPython's test certificates are not installed")
        for name in _PROXY_VARIABLES:
            monkeypatch.delenv(name, raising=False)
        monkeypatch.setenv("SSL_CERT_FILE", str(certs / "pycacert.pem"))
        tls = ssl.create_default_context(ssl.Purpose.CLIENT_AUTH)
        tls.load_cert_chain(certs / "keycert3.pem")  # issued to localhost
        server = _Endpoint(tls)
        try:
            server.reply(_choices("sealed"), _choices("again"))
            backend = server.client()
            request = BackendRequest(prompt="p", temperature=0.5)
            assert backend.generate(request).completions == ("sealed",)
            assert backend.generate(request).completions == ("again",)
            (conn,) = backend._connections
            assert isinstance(conn.sock, ssl.SSLSocket)
            assert len(server.sockets) == 1  # kept alive over TLS
            assert server.calls[0]["headers"]["Host"] == server.url[len("https://"):]
        finally:
            server.close()
        assert server.unexpected == 0

    def test_request_head_on_the_wire(self, endpoint):
        endpoint.reply(_choices("hi"))
        endpoint.client().generate(BackendRequest(prompt="p", temperature=0.5))
        headers = endpoint.calls[0]["headers"]
        # without identity a server may gzip a reply the client cannot read
        assert headers["Accept-Encoding"] == "identity"
        assert headers["Host"] == endpoint.url[len("http://"):]
        assert headers["Content-Type"] == "application/json"
        assert "Authorization" not in headers  # no key set

    def test_chunked_body(self, raw_server):
        body = _reply_body("chunked")
        raw_server.replies.append([
            b"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n",
            b"%x;ext=1\r\n%s\r\n" % (5, body[:5]),
            b"%X\r\n%s\r\n0\r\n" % (len(body) - 5, body[5:]),
            b"Trailer-Field: x\r\n\r\n",
        ])
        raw_server.replies.append([_sized("next")])
        backend = raw_server.client()
        request = BackendRequest(prompt="p", temperature=0.5)
        assert backend.generate(request).completions == ("chunked",)
        assert backend.generate(request).completions == ("next",)
        assert raw_server.connections == 1  # kept alive after a chunked body

    def test_content_length_body_split_across_reads(self, raw_server):
        reply = _sized("split")
        raw_server.replies.append([reply[:10], reply[10:40], reply[40:-7], reply[-7:]])
        backend = raw_server.client()
        request = BackendRequest(prompt="p", temperature=0.5)
        assert backend.generate(request).completions == ("split",)

    def test_long_reply_is_read_whole_and_its_buffer_given_back(self, raw_server):
        text = "x" * (200 * 1024)
        reply = _sized(text)
        raw_server.replies.append([reply[:70000], reply[70000:]])
        raw_server.replies.append([_sized("next")])
        backend = raw_server.client()
        request = BackendRequest(prompt="p", temperature=0.5)
        assert backend.generate(request).completions == (text,)
        (conn,) = backend._connections
        assert len(conn.buf) == 2 * 1024  # not kept at the long reply's size
        assert backend.generate(request).completions == ("next",)
        assert raw_server.connections == 1

    def test_head_with_bare_line_feeds(self, raw_server):
        # the body holds a blank CRLF line, after the head's end
        body = b'{"choices": [\r\n\r\n{"message": {"content": "lf"}}]}'
        raw_server.replies.append([b"HTTP/1.1 200 OK\nContent-Length: %d\n\n%s" % (len(body), body)])
        backend = raw_server.client()
        request = BackendRequest(prompt="p", temperature=0.5)
        assert backend.generate(request).completions == ("lf",)

    def test_close_delimited_body(self, raw_server):
        raw_server.replies.append([b"HTTP/1.1 200 OK\r\n\r\n", _reply_body("all"), None])
        raw_server.replies.append([_sized("next")])
        backend = raw_server.client()
        request = BackendRequest(prompt="p", temperature=0.5)
        assert backend.generate(request).completions == ("all",)
        assert backend.generate(request).completions == ("next",)
        assert raw_server.connections == 2

    def test_interim_heads_are_skipped(self, raw_server):
        raw_server.replies.append([
            b"HTTP/1.1 100 Continue\r\n\r\n",
            b"HTTP/1.1 103 Early Hints\r\nLink: </style.css>\r\n\r\n" + _sized("final"),
        ])
        backend = raw_server.client()
        request = BackendRequest(prompt="p", temperature=0.5)
        assert backend.generate(request).completions == ("final",)
        assert len(raw_server.requests) == 1

    @pytest.mark.parametrize("head, reused", [
        (b"HTTP/1.1 200 OK\r\nConnection: close\r\n", False),
        (b"HTTP/1.0 200 OK\r\n", False),
        (b"HTTP/1.0 200 OK\r\nConnection: keep-alive\r\n", True),
        (b"HTTP/1.1 200 OK\r\nConnection: keep-alive\r\n", True),
    ], ids=["close", "http-1.0", "http-1.0-keep-alive", "keep-alive"])
    def test_connection_reuse_follows_the_reply(self, raw_server, head, reused):
        raw_server.replies.append([_sized("first", head)])
        raw_server.replies.append([_sized("second")])
        backend = raw_server.client()
        request = BackendRequest(prompt="p", temperature=0.5)
        assert backend.generate(request).completions == ("first",)
        assert backend.generate(request).completions == ("second",)
        assert raw_server.connections == (1 if reused else 2)

    @pytest.mark.parametrize("reply", [
        [b"HTTP/1.1 200 OK\r\nContent-Length: 100\r\n\r\n{\"choices\"", None],
        [b"HTTP/1.1 200 OK\r\nX-Pad: " + b"x" * (70 * 1024) + b"\r\n\r\n"],
        [b"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n5\r\n{\"ch", None],
        [b"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\nzz\r\n"],
        [b"HTTP/1.1 200 OK\r\nContent-Length: -1\r\n\r\n"],
        [b"SMTP ready\r\n\r\n"],
        [b"HTTP/1.1 200", None],
    ], ids=[
        "body-cut-short", "head-over-64KiB", "chunk-cut-short", "bad-chunk-size",
        "bad-content-length", "bad-status-line", "head-cut-short",
    ])
    def test_broken_reply_is_retried_then_fails(self, raw_server, reply):
        raw_server.replies.extend([reply] * 3)
        with pytest.raises(BackendUnavailableError) as err:
            raw_server.client().generate(BackendRequest(prompt="p", temperature=0.5))
        assert "HttpProtocolError" in str(err.value)
        assert err.value.last_status is None
        assert len(raw_server.requests) == 3  # max_retries=2: every attempt
        assert raw_server.connections == 3  # a broken connection is not reused

    def test_close_closes_every_connection_and_the_backend_still_works(
        self, endpoint
    ):
        endpoint.reply(*[_choices("x")] * 4)
        backend = endpoint.client(max_in_flight=2)
        request = BackendRequest(prompt="p", temperature=0.5)
        backend.generate(request)
        pair = [BackendRequest(prompt="p", temperature=0.5, index=i) for i in range(2)]
        assert len(list(cached_generate_many(None, backend, pair))) == 2
        opened = list(backend._connections)
        assert len(opened) == 2  # the kept-alive one and one more for the pair
        backend.close()
        assert all(conn.sock is None for conn in opened)
        assert not backend._connections
        assert backend.generate(request).completions == ("x",)
        assert len(endpoint.sockets) == 3

    def test_dropped_backend_leaves_no_socket_open(self, endpoint):
        endpoint.reply(_choices("x"))
        gc.collect()
        before = _open_descriptors()
        backend = _in_a_cycle(HttpBackend(base_url=endpoint.url, model="m1"))
        backend.generate(BackendRequest(prompt="p", temperature=0.5))
        assert _open_descriptors() > before
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            del backend  # without close(), left to the cycle collector
            gc.collect()
        assert [str(w.message) for w in caught] == []
        # the server closes its end once it reads the client's close
        deadline = time.monotonic() + 5
        while _open_descriptors() != before and time.monotonic() < deadline:
            time.sleep(0.01)
        assert _open_descriptors() == before

    def test_proxy_from_the_environment(self, endpoint, connect_proxy, monkeypatch):
        port = connect_proxy.server_address[1]
        monkeypatch.setenv("http_proxy", f"http://us%40r:pw@127.0.0.1:{port}")
        endpoint.reply(_choices("tunnelled"), _choices("direct"))
        request = BackendRequest(prompt="p", temperature=0.5)
        assert endpoint.client().generate(request).completions == ("tunnelled",)
        ((method, target, headers),) = connect_proxy.tunnels
        assert (method, target) == ("CONNECT", endpoint.url[len("http://"):])
        token = base64.b64encode(b"us@r:pw").decode("ascii")
        assert headers["Proxy-Authorization"] == f"Basic {token}"
        monkeypatch.setenv("no_proxy", "127.0.0.1")
        assert endpoint.client().generate(request).completions == ("direct",)
        assert len(connect_proxy.tunnels) == 1


def _in_a_cycle(backend):
    """backend, its generate wrapped by a function that holds the backend,
    as a wrapper that counts calls does: a cycle only the collector frees."""
    inner = backend.generate
    backend.generate = lambda request: inner(request)
    return backend


class _OneThreadEndpoint:
    """A loopback chat-completions server run by one thread of its own over
    a selector. It answers each request ``delay_s`` after it arrived, with
    the prompt as the completion, and records the most requests it held
    at once."""

    def __init__(self, delay_s):
        self.delay_s = delay_s
        self.held = []  # (when to answer, socket, reply), in arrival order
        self.peak = 0
        self.listener = socket.create_server(("127.0.0.1", 0), backlog=128)
        self.listener.setblocking(False)
        self.url = f"http://127.0.0.1:{self.listener.getsockname()[1]}"
        self.stopping = False
        self.thread = threading.Thread(target=self._serve, daemon=True)
        self.thread.start()

    def _serve(self):
        received = {}  # socket -> its bytes not yet parsed
        with selectors.DefaultSelector() as selector:
            selector.register(self.listener, selectors.EVENT_READ)
            while not self.stopping:
                wait = self.held[0][0] - time.monotonic() if self.held else 0.05
                for key, _ in selector.select(min(max(wait, 0.0), 0.05)):
                    if key.fileobj is self.listener:
                        sock, _ = self.listener.accept()
                        sock.setblocking(False)
                        received[sock] = b""
                        selector.register(sock, selectors.EVENT_READ)
                        continue
                    sock = key.fileobj
                    data = sock.recv(65536)
                    if not data:
                        selector.unregister(sock)
                        sock.close()
                        del received[sock]
                        continue
                    head, _, rest = (received[sock] + data).partition(b"\r\n\r\n")
                    length = int(re.search(rb"(?i)content-length: *(\d+)", head)[1])
                    body, received[sock] = rest[:length], rest[length:]
                    prompt = json.loads(body)["messages"][0]["content"]
                    self.held.append((time.monotonic() + self.delay_s, sock, _sized(prompt)))
                    self.peak = max(self.peak, len(self.held))
                while self.held and self.held[0][0] <= time.monotonic():
                    _, sock, reply = self.held.pop(0)
                    try:
                        sock.sendall(reply)
                    except OSError:
                        pass  # the client closed the connection
        for sock in received:
            sock.close()
        self.listener.close()

    def close(self):
        self.stopping = True
        self.thread.join(timeout=5)
        assert not self.thread.is_alive()


class _OracleHandler(BaseHTTPRequestHandler):
    """Holds each request about 20 ms, then answers it from the server's
    in-process oracle; counts the requests in its hands at once."""

    protocol_version = "HTTP/1.1"
    disable_nagle_algorithm = True

    def do_POST(self):
        server = self.server
        body = json.loads(self.rfile.read(int(self.headers["Content-Length"])))
        with server.lock:
            server.active += 1
            server.peak = max(server.peak, server.active)
        try:
            time.sleep(0.02)
            response = server.oracle.generate(body_to_request(body))
        finally:
            # before the reply, so a client's next request never overlaps it
            with server.lock:
                server.active -= 1
        choices = [{"message": {"content": text}} for text in response.completions]
        data = json.dumps({"choices": choices}).encode("utf-8")
        self.send_response(200)
        self.send_header("Content-Length", str(len(data)))
        self.end_headers()
        self.wfile.write(data)

    def log_message(self, *args):
        pass


class _AnswerHandler(BaseHTTPRequestHandler):
    """Answers each request with ``server.answer(body)``, a (status,
    headers, body text) triple that the test's function may block on."""

    protocol_version = "HTTP/1.1"
    disable_nagle_algorithm = True

    def do_POST(self):
        body = json.loads(self.rfile.read(int(self.headers["Content-Length"])))
        status, headers, text = self.server.answer(body)
        data = text.encode("utf-8")
        try:
            self.send_response(status)
            for name, value in headers.items():
                self.send_header(name, value)
            self.send_header("Content-Length", str(len(data)))
            self.end_headers()
            self.wfile.write(data)
        except OSError:
            self.close_connection = True  # the client gave up on the reply

    def log_message(self, *args):
        pass


class _WideServer(ThreadingHTTPServer):
    request_queue_size = 128  # a search step's connections all at once


@pytest.fixture
def answering_server(monkeypatch):
    """Starts loopback servers that answer through a given function and
    returns each one's base URL; all are stopped when the test ends."""
    for name in _PROXY_VARIABLES:
        monkeypatch.delenv(name, raising=False)
    running = []

    def start(answer):
        server = _WideServer(("127.0.0.1", 0), _AnswerHandler)
        server.daemon_threads = True
        server.answer = answer
        thread = threading.Thread(target=server.serve_forever, args=(0.05,), daemon=True)
        thread.start()
        running.append((server, thread))
        return f"http://127.0.0.1:{server.server_port}"

    yield start
    for server, thread in running:
        server.shutdown()
        server.server_close()
        thread.join(timeout=5)
        assert not thread.is_alive()


class TestRequestPool:
    def test_retry_after_pauses_the_whole_pool(self, answering_server):
        lock = threading.Condition()
        arrivals = []  # when each request reached the server
        limited = []  # when the 429 was answered
        ok = _choices("ok")

        def answer(body):
            with lock:
                arrivals.append(time.monotonic())
                lock.notify_all()
                first = len(arrivals) == 1
                if first:
                    # the pool's first four requests are all sent before it
                    lock.wait_for(lambda: len(arrivals) >= 4, timeout=5)
                    limited.append(time.monotonic())
            if first:
                return _status(429, {"Retry-After": "0.3"}, "slow down")
            time.sleep(0.1)  # the other three come back while the pause holds
            return ok

        url = answering_server(answer)
        # backoff_s=0.05: 0.3 s is within the retry budget, 0.05 * 2**3
        backend = HttpBackend(base_url=url, model="m1", backoff_s=0.05, max_in_flight=4)
        requests = [BackendRequest(prompt="p", temperature=0.5, index=i) for i in range(8)]
        try:
            responses = list(cached_generate_many(None, backend, requests))
        finally:
            backend.close()
        assert [r.completions for r in responses] == [("ok",)] * 8
        assert len(arrivals) == 9  # the 8 draws and the rate-limited one's retry
        (sent_429,) = limited
        after = [t for t in arrivals if t > sent_429]
        assert len(after) == 5
        # nothing was sent in the 0.3 s the 429 asked for, from any thread
        assert min(after) - sent_429 >= 0.3

    def test_default_width_sends_a_100_draw_step_at_once(
        self, answering_server, tmp_path
    ):
        gate = threading.Condition()
        seen = {"active": 0, "peak": 0}

        def answer(body):
            with gate:
                seen["active"] += 1
                seen["peak"] = max(seen["peak"], seen["active"])
                gate.notify_all()
                # requests are held until all 100 have been in at once; a
                # narrower pool never gets there, and then each goes on
                # after five seconds
                gate.wait_for(lambda: seen["peak"] >= 100, timeout=5.0)
                seen["active"] -= 1  # before the reply: no overlap with the next
            prompt = body["messages"][0]["content"]
            return _choices(f"{prompt} at {body['temperature']}")

        url = answering_server(answer)
        # a step's value draws at the game24 settings: k=5 states, m=20 each
        draws = [
            BackendRequest(f"state {s}", round(0.2 + 0.04 * i, 2), index=i)
            for s in range(5)
            for i in range(20)
        ]
        runs = {}
        for name, width in (("default", None), ("one", 1)):
            widths = {} if width is None else {"max_in_flight": width}
            backend = HttpBackend(base_url=url, model="m1", **widths)
            cache = ResponseCache(tmp_path / name)
            try:
                responses = list(cached_generate_many(cache, backend, draws))
            finally:
                backend.close()
            # puts are made in draw order at every width
            runs[name] = (responses, CacheLog(cache.cache_dir).raw())
            if width is None:
                assert seen["peak"] == 100
        assert runs["default"] == runs["one"]
        assert len(CacheLog(tmp_path / "one").entries()) == 100

    def test_a_100_draw_batch_starts_no_thread(self, monkeypatch):
        for name in _PROXY_VARIABLES:
            monkeypatch.delenv(name, raising=False)
        server = _OneThreadEndpoint(delay_s=0.2)
        backend = HttpBackend(base_url=server.url, model="m1")
        draws = [BackendRequest(f"state {s}", round(0.2 + 0.04 * i, 2), index=i)
                 for s in range(5) for i in range(20)]
        threads = threading.active_count()
        counts, responses = [], []
        try:
            for response in cached_generate_many(None, backend, draws):
                counts.append(threading.active_count())
                responses.append(response)
        finally:
            backend.close()
            server.close()
        assert [r.completions for r in responses] == [(d.prompt,) for d in draws]
        assert set(counts) == {threads}
        assert server.peak == 100  # every draw was on the wire at once

    def test_threads_sharing_a_backend_each_get_their_own_replies(self, monkeypatch):
        for name in _PROXY_VARIABLES:
            monkeypatch.delenv(name, raising=False)
        server = _OneThreadEndpoint(delay_s=0.005)
        backend = HttpBackend(base_url=server.url, model="m1", max_in_flight=4)
        jobs, got, errors = 6, {}, []

        def job(j):
            prompts = []
            try:
                for b in range(5):
                    draws = [BackendRequest(f"{j}.{b}.{i}", 0.5, index=i) for i in range(7)]
                    prompts += [r.completions[0] for r in cached_generate_many(None, backend, draws)]
                    single = BackendRequest(f"{j}.{b}", 0.5)
                    prompts.append(backend.generate(single).completions[0])
            except BaseException as exc:
                errors.append(exc)
            got[j] = prompts

        switch = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)  # more thread interleavings
        threads = [threading.Thread(target=job, args=(j,)) for j in range(jobs)]
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(switch)
            backend.close()
            server.close()
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []
        for j in range(jobs):  # no reply lost, repeated or handed to another
            expected = []
            for b in range(5):
                expected += [f"{j}.{b}.{i}" for i in range(7)] + [f"{j}.{b}"]
            assert got[j] == expected
        assert 1 < server.peak <= 4

    def test_closed_stream_leaves_no_connection_busy(self, answering_server):
        gate = threading.Condition()
        seen = {"second": 0, "peak": 0, "together": math.inf}

        def answer(body):
            prompt = body["messages"][0]["content"]
            with gate:
                if prompt == "second":
                    seen["second"] += 1
                    seen["peak"] = max(seen["peak"], seen["second"])
                    if seen["peak"] == 4:
                        seen["together"] = time.monotonic()
                    gate.notify_all()
                    gate.wait_for(lambda: seen["peak"] >= 4, timeout=1.0)
                    seen["second"] -= 1
                elif body["temperature"]:
                    # the first batch's draws after its first are held
                    # until the second batch is all in, or for 2 s
                    gate.wait_for(lambda: seen["peak"] >= 4, timeout=2.0)
            return _choices(prompt)

        url = answering_server(answer)
        backend = HttpBackend(base_url=url, model="m1", max_in_flight=4)
        first = [BackendRequest("first", round(0.1 * i, 1), index=i) for i in range(8)]
        second = [BackendRequest("second", round(0.1 * i, 1), index=i) for i in range(4)]
        try:
            stream = cached_generate_many(None, backend, first)
            assert next(stream).completions == ("first",)
            stream.close()
            started = time.monotonic()
            responses = list(cached_generate_many(None, backend, second))
        finally:
            backend.close()
        assert [r.completions for r in responses] == [("second",)] * 4
        # all four reached the server together, none waiting for a
        # connection that still carried a draw of the closed stream
        assert seen["together"] - started < 1.0

    def test_failed_draws_back_off_together(self, answering_server):
        tried = set()
        lock = threading.Lock()

        def answer(body):
            with lock:
                first = body["temperature"] not in tried
                tried.add(body["temperature"])
            return _status(500) if first else _choices("ok")

        url = answering_server(answer)
        backend = HttpBackend(base_url=url, model="m1", backoff_s=0.2)
        draws = [BackendRequest("p", round(0.05 * i, 2), index=i) for i in range(20)]
        started = time.monotonic()
        try:
            responses = list(cached_generate_many(None, backend, draws))
        finally:
            backend.close()
        elapsed = time.monotonic() - started
        assert [r.completions for r in responses] == [("ok",)] * 20
        assert len(tried) == 20
        # one 0.2 s backoff for all 20, where one after another takes 4 s
        assert 0.2 <= elapsed < 1.0

    def test_pool_bounds_requests_across_jobs(self, monkeypatch):
        for name in _PROXY_VARIABLES:
            monkeypatch.delenv(name, raising=False)
        bench = build_trap_benchmark(depth=2)
        server = ThreadingHTTPServer(("127.0.0.1", 0), _OracleHandler)
        server.daemon_threads = True
        server.lock, server.active, server.peak = threading.Lock(), 0, 0
        server.oracle = bench.backend(0)
        thread = threading.Thread(target=server.serve_forever, args=(0.05,), daemon=True)
        thread.start()
        backend = HttpBackend(
            base_url=f"http://127.0.0.1:{server.server_port}", model="m1",
            backoff_s=0.0, max_in_flight=2,
        )
        try:
            task, problems, _ = synthetic_setup(bench, episodes=6)
            report = run_benchmark(
                task, problems, "tout_bfs", lambda seed: backend,
                SearchConfig(k=2, b=1, T=2, m=4), jobs=3,
            )
        finally:
            backend.close()
            server.shutdown()
            server.server_close()
            thread.join(timeout=5)
        assert len(report.results) == 6
        for result in report.results:
            assert result.verdicts.get("backend_error") != 1.0
            assert result.verdicts.get("error") != 1.0
        # the propose and value requests of three episodes at once, never
        # more than the pool's width of them on the wire
        assert 1 <= server.peak <= 2


class TestSyntheticOracle:
    def _backend(self, seed=0, sigma=2.0):
        return SyntheticOracleBackend(
            true_value={"root": 10.0},
            noise_std={"root": sigma},
            seed=seed,
            children={"root": ["good", "trap"]},
        )

    def test_value_draws_parse_as_floats(self):
        response = self._backend().generate(
            BackendRequest(prompt="VALUE root", temperature=1.0, n=5)
        )
        values = [float(c) for c in response.completions]
        assert len(set(values)) == 5

    def test_same_seed_same_stream(self):
        req = BackendRequest(prompt="VALUE root", temperature=1.0, n=4)
        a = self._backend(seed=3).generate(req)
        b = self._backend(seed=3).generate(req)
        c = self._backend(seed=4).generate(req)
        assert a.completions == b.completions
        assert a.completions != c.completions

    def test_one_draw_requests_differ_across_seeds(self):
        req = BackendRequest(prompt="VALUE root", temperature=1.0)
        a, b = self._backend(seed=3), self._backend(seed=4)
        for _ in range(3):
            assert a.generate(req).completions != b.generate(req).completions

    def test_value_key_ignores_surrounding_whitespace(self):
        padded = BackendRequest(prompt="VALUE  root \n", temperature=1.0, n=2)
        plain = BackendRequest(prompt="VALUE root", temperature=1.0)
        oracle = self._backend(seed=2)
        mixed = oracle.generate(padded).completions + oracle.generate(plain).completions
        alone = self._backend(seed=2).generate(dataclasses.replace(plain, n=3))
        assert mixed == alone.completions
        assert len(set(mixed)) == 3

    def test_parsed_prompts_are_not_shared_across_oracles(self):
        req = BackendRequest(prompt="VALUE a", temperature=1.0)
        low = SyntheticOracleBackend({"a": 1.0}, {"a": 0.0}, seed=0)
        high = SyntheticOracleBackend({"a": 5.0}, {"a": 0.0}, seed=0)
        assert low.generate(req).completions == ("1.0",)
        assert high.generate(req).completions == ("5.0",)

    def test_backend_id_names_the_seed_and_the_tree(self):
        ids = {
            self._backend(seed=0).backend_id,
            self._backend(seed=1).backend_id,
            self._backend(seed=0, sigma=3.0).backend_id,
            SyntheticOracleBackend({"root": 10.0}, {"root": 2.0}, seed=0).backend_id,
        }
        assert len(ids) == 4
        assert self._backend(seed=0).backend_id in ids
        benchmark = build_trap_benchmark(depth=2)
        built = SyntheticOracleBackend(
            benchmark.true_value, benchmark.noise_std, 7, benchmark.children
        )
        assert benchmark.backend(7).backend_id == built.backend_id

    def test_per_key_substreams_ignore_interleaving(self):
        """Draws for one key are the same no matter what else was asked."""
        values = {"a": 1.0, "b": 2.0}
        sigmas = {"a": 1.0, "b": 1.0}
        plain = SyntheticOracleBackend(values, sigmas, seed=5)
        mixed = SyntheticOracleBackend(values, sigmas, seed=5)
        req_a = BackendRequest(prompt="VALUE a", temperature=1.0, n=3)
        req_b = BackendRequest(prompt="VALUE b", temperature=1.0, n=3)
        direct = plain.generate(req_a).completions
        mixed.generate(req_b)
        assert mixed.generate(req_a).completions == direct

    @staticmethod
    def _normals(oracle, key, sizes):
        """The key's standard normals, asked for as requests of these n."""
        normals = []
        for n in sizes:
            request = BackendRequest(prompt=f"VALUE {key}", temperature=1.0, n=n)
            normals += [float(c) for c in oracle.generate(request).completions]
        return normals

    @staticmethod
    def _one_generator(seed, key, count):
        """The key's first count normals from its own seeded generator."""
        key_hash = int.from_bytes(hashlib.sha256(key.encode("utf-8")).digest()[:8], "big")
        seq = np.random.SeedSequence([seed & 0xFFFFFFFF, key_hash])
        return np.random.default_rng(seq).standard_normal(count).tolist()

    @pytest.mark.parametrize(
        "sizes",
        [[1] * 70, [70], [31, 2], [32, 1, 31, 1], [7, 43, 20], [1, 100, 1]],
        ids=["one-at-a-time", "one-request", "31+2", "32+1+31+1", "7+43+20", "1+100+1"],
    )
    def test_block_drawn_stream_is_the_keys_generator(self, sizes):
        # mean 0 and sigma 1 serve each normal as drawn
        oracle = SyntheticOracleBackend({"a": 0.0}, {"a": 1.0}, seed=9)
        expected = self._one_generator(9, "a", sum(sizes))
        assert self._normals(oracle, "a", sizes) == expected

    def test_block_drawn_streams_ignore_interleaving(self):
        seed = 2**40 + 5  # beyond 32 bits: the key seed keeps the low 32
        oracle = SyntheticOracleBackend({"a": 0.0, "b": 0.0}, {"a": 1.0, "b": 1.0}, seed)
        drawn = {"a": [], "b": []}
        for n in (1, 31, 2, 40, 1, 1):
            drawn["a"] += self._normals(oracle, "a", [n])
            drawn["b"] += self._normals(oracle, "b", [n + 3, 1])
        for key, normals in drawn.items():
            assert normals == self._one_generator(seed, key, len(normals))

    @settings(max_examples=60, deadline=None)
    @given(st.integers(min_value=1, max_value=40), st.integers(0, 2**32), st.data())
    def test_draws_served_warm_leave_the_others_as_a_cold_run_has_them(
        self, m, seed, data
    ):
        bench = build_trap_benchmark(depth=1)
        state = make_state("trap tree", ("trap",))  # a noisy key
        draws = value_draws(bench.task(), state, SearchConfig(m=m))
        cold = list(cached_generate_many(None, bench.backend(seed), draws))
        # an earlier run served these draws, in this order, into the cache
        warm = data.draw(st.lists(st.integers(0, m - 1), unique=True), label="warm")
        with tempfile.TemporaryDirectory() as tmp:
            cache = ResponseCache(tmp)
            earlier = [draws[i] for i in warm]
            list(cached_generate_many(cache, bench.backend(seed), earlier))
            mixed = list(cached_generate_many(cache, bench.backend(seed), draws))
        assert mixed == cold
        assert len({r.completions for r in cold}) == m

    def test_sample_moments(self):
        """10,000 draws: mean and variance land near mu=10, sigma^2=4."""
        response = self._backend(seed=11, sigma=2.0).generate(
            BackendRequest(prompt="VALUE root", temperature=1.0, n=10_000)
        )
        draws = np.array([float(c) for c in response.completions])
        assert abs(draws.mean() - 10.0) < 0.1
        assert abs(draws.var() - 4.0) / 4.0 < 0.05

    def test_propose_lists_children(self):
        response = self._backend().generate(
            BackendRequest(prompt="PROPOSE root", temperature=1.0, n=2)
        )
        assert response.completions == ("good\ntrap", "good\ntrap")

    def test_unknown_key_is_silent_zero(self):
        response = self._backend().generate(
            BackendRequest(prompt="VALUE nowhere", temperature=1.0)
        )
        assert float(response.completions[0]) == 0.0

    def test_negative_sigma_rejected(self):
        with pytest.raises(InvalidArgumentError):
            SyntheticOracleBackend({"a": 1.0}, {"a": -0.5}, seed=0)


_FOOTPRINT_SCRIPT = """
import sys
import tout, tout.cli
from tout.backends import (
    BackendRequest, HttpBackend, ScriptedBackend, SyntheticOracleBackend,
)
from tout.calls import ResponseCache
HttpBackend(base_url="http://127.0.0.1:9", model="m").close()
ScriptedBackend({})
ResponseCache(sys.argv[1])
print("numpy" in sys.modules)
oracle = SyntheticOracleBackend({"a": 1.0}, {"a": 0.5}, seed=0)
print("numpy" in sys.modules)
oracle.generate(BackendRequest(prompt="VALUE a", temperature=1.0))
print("numpy" in sys.modules)
"""


_PLAIN_HTTP_SCRIPT = """
import sys
from tout.backends import BackendRequest, HttpBackend
backend = HttpBackend(base_url=sys.argv[1], model="m1")
print(backend.generate(BackendRequest(prompt="p", temperature=0.5)).completions)
backend.close()
print(sorted(m for m in ("http.client", "ssl", "urllib.request") if m in sys.modules))
"""


def _fresh_env():
    """The environment of a fresh interpreter that imports this tout,
    without a proxy variable."""
    package_root = Path(tout.__file__).resolve().parent.parent
    env = {k: v for k, v in os.environ.items() if k not in _PROXY_VARIABLES}
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(package_root), env.get("PYTHONPATH")])
    )
    return env


def _fresh_python(script, *args):
    """Run a script in a fresh interpreter that imports this tout, without
    a proxy variable in its environment; returns its standard output."""
    done = subprocess.run(
        [sys.executable, "-c", script, *args],
        env=_fresh_env(), capture_output=True, text=True, timeout=60,
    )
    assert done.returncode == 0, done.stderr
    return done.stdout


class TestImportFootprint:
    """numpy serves only the synthetic oracle and loads when one is built;
    a plain-http request loads neither http.client nor ssl.

    The test process has those loaded already, so a fresh interpreter runs
    the imports and reports what they loaded.
    """

    def test_numpy_loads_with_the_first_oracle(self, tmp_path):
        out = _fresh_python(_FOOTPRINT_SCRIPT, str(tmp_path / "cache"))
        # before any oracle; once one is built; after its first draw
        assert out.split() == ["False", "True", "True"]

    def test_plain_http_loads_neither_http_client_nor_ssl(self, endpoint):
        endpoint.reply(_choices("hi"))
        out = _fresh_python(_PLAIN_HTTP_SCRIPT, endpoint.url)
        assert out.splitlines() == ["('hi',)", "[]"]


class _CountingBackend(Backend):
    backend_id = "counting"

    def __init__(self):
        self.calls = 0

    def generate(self, request):
        self.calls += 1
        return BackendResponse(completions=("x",) * request.n)


class _WideCountingBackend(PooledBackend):
    """A counting backend that allows concurrent requests."""

    backend_id = "counting"

    def __init__(self):
        super().__init__(width=4)
        self.calls = 0

    def answer(self, request):
        with self._lock:
            self.calls += 1
        return BackendResponse(completions=("x",) * request.n)


class _WideScriptedBackend(PooledBackend):
    """A scripted backend that allows concurrent requests."""

    backend_id = ScriptedBackend.backend_id

    def __init__(self, script, default=""):
        super().__init__(width=4)
        self.answer = ScriptedBackend(script, default).generate


def _game24_episode(config):
    """A scripted game24 tout_bfs episode that solves 4 9 10 13, and the
    kind (propose, value or final) of each prompt it issues."""
    task = make_task("game24")
    episode = EpisodeScript(task=task, config=config)
    kinds = {}
    steps = [
        ("13 - 9 = 4 (left: 4 4 10)", "4 + 9 = 13 (left: 10 13 13)"),
        ("10 - 4 = 6 (left: 4 6)", "4 + 4 = 8 (left: 8 10)"),
        ("4 * 6 = 24 (left: 24)", "4 + 6 = 10 (left: 10)"),
    ]
    thoughts: tuple[str, ...] = ()
    for right, wrong in steps:
        state = make_state("4 9 10 13", thoughts)
        episode.propose(state, [right, wrong])
        kinds[task.propose_prompt(state, config.k)] = "propose"
        for thought, label in ((right, "sure"), (wrong, "impossible")):
            child = make_state("4 9 10 13", thoughts + (thought,))
            episode.value(child, [label] * config.m)
            kinds[task.value_prompt(child)] = "value"
        thoughts += (right,)
    final = make_state("4 9 10 13", thoughts)
    episode.final(final, "Answer: (13 - 9) * (10 - 4)")
    kinds[task.final_prompt(final)] = "final"
    return task, episode.script, kinds


# JSON values without floats, whose NaN would not equal itself
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.text(max_size=5),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=3), inner, max_size=3),
    max_leaves=8,
)


class TestResponseCache:
    def test_round_trip(self, tmp_path):
        cache = ResponseCache(tmp_path)
        response = BackendResponse(completions=("a", "b"), usage={"total_tokens": 7})
        key = ResponseCache.cache_key("b1", BackendRequest(prompt="p", temperature=0.5))
        cache.put(key, response)
        assert cache.get(key) == response

    def test_large_entry_round_trips(self, tmp_path):
        # larger than one read of the log's scan, with multi-byte characters
        # across reads: read by the cache that wrote it and by a fresh one,
        # which finds it by scanning
        cache = ResponseCache(tmp_path)
        text = "é24" * 70_000  # about 210 KB of UTF-8
        response = BackendResponse(completions=(text, "short"))
        key = ResponseCache.cache_key("b1", BackendRequest(prompt="p", temperature=0.5))
        cache.put(key, response)
        assert cache.get(key) == response
        assert ResponseCache(tmp_path).get(key) == response

    @pytest.mark.parametrize("size", [(1 << 16) - 1, 1 << 16, (1 << 16) + 1])
    def test_entry_at_the_read_chunk_size_round_trips(self, tmp_path, monkeypatch, size):
        # a log line one byte shorter than, as long as, and one byte longer
        # than one read of the scan, with another entry after it; the scan's
        # read size is made small so the lines stay small
        monkeypatch.setattr("tout.calls._SCAN_CHUNK", 1 << 16)
        cache = ResponseCache(tmp_path)
        key = ResponseCache.cache_key("b1", BackendRequest(prompt="p", temperature=0.5))
        # the line around a completion: key, space, JSON, newline
        overhead = 64 + 1 + len(json.dumps({"completions": [""], "usage": None})) + 1
        response = BackendResponse(completions=("a" * (size - overhead),))
        after = BackendResponse(completions=("after",))
        cache.put(key, response)
        assert (tmp_path / LOG_NAME).stat().st_size == size
        cache.put("0" * 64, after)
        assert cache.get(key) == response
        fresh = ResponseCache(tmp_path)
        assert fresh.get(key) == response
        assert fresh.get("0" * 64) == after

    def test_key_bytes_are_pinned(self):
        # cache entries written by earlier versions must keep hitting
        default = BackendRequest(prompt="p", temperature=0.5)
        stopped = BackendRequest(prompt="p", temperature=0.5, stop=("\n",), index=3)
        assert ResponseCache.cache_key("b1", default) == (
            "6bcf80721b8282390341417216e1754dd4f006e9fd7e84f74c201aab128b2d28"
        )
        assert ResponseCache.cache_key("b1", stopped) == (
            "4c5bfd2e0a8d2a28d4d3ab728fbc85749baac230ee40de01ffba819847d0c379"
        )
        # a non-ASCII backend id is hashed in its escaped (ensure_ascii) form
        assert ResponseCache.cache_key(
            "http:https://api.example/v1:mod\u00e8le-\u2603", default
        ) == "27cb2329de86f592b4ad603f09313894264356d55c18b310c6c56c472b572608"

    def test_key_separation(self):
        base = BackendRequest(prompt="p", temperature=0.5, n=2)
        keys = {
            ResponseCache.cache_key("b1", base),
            ResponseCache.cache_key("b2", base),
            ResponseCache.cache_key(
                "b1", BackendRequest(prompt="p", temperature=0.5, n=2, index=1)
            ),
            ResponseCache.cache_key(
                "b1", BackendRequest(prompt="p", temperature=0.6, n=2)
            ),
            ResponseCache.cache_key(
                "b1", BackendRequest(prompt="p", temperature=0.5, n=3)
            ),
            ResponseCache.cache_key(
                "b1", BackendRequest(prompt="p", temperature=0.5, n=2, stop=("\n",))
            ),
        }
        assert len(keys) == 6

    @given(
        backend_id=st.one_of(
            st.text(),
            st.sampled_from(['b"1', "b\\1", "http:mod\u00e8le-\u2603", '\\"\u2028']),
        ),
        prompts=st.lists(
            # short prompts over a few characters often share a length
            st.one_of(st.text(), st.text(alphabet='ab"\\\u00e9\U0001f600', max_size=3)),
            min_size=1,
            max_size=3,
        ),
        data=st.data(),
    )
    def test_batch_keys_match_cache_key(self, backend_id, prompts, data):
        stops = st.one_of(
            st.none(),
            st.just(()),
            st.lists(st.sampled_from(['"', "\\", "\n", "\u2603", "a\"b"]), min_size=1)
            .map(tuple),
        )
        draws = []
        for _ in range(data.draw(st.integers(0, 12), label="draws")):
            prompt = data.draw(st.sampled_from(prompts), label="prompt")
            if data.draw(st.booleans(), label="copied"):
                prompt = (prompt + "!")[:-1]  # equal, a distinct object if long
            request = BackendRequest(
                prompt=prompt,
                temperature=data.draw(st.floats(0.0, 2.0), label="temperature"),
                # True is an n: the encoder spells it true, not 1
                n=data.draw(st.one_of(st.integers(min_value=1), st.just(True))),
                max_tokens=data.draw(st.integers(min_value=1)),
                stop=data.draw(stops, label="stop"),
                # True is an index too, keyed as true
                index=data.draw(st.one_of(st.none(), st.integers(min_value=0),
                                          st.just(True)), label="index"),
            )
            draws.append(request)
        expected = [ResponseCache.cache_key(backend_id, request) for request in draws]
        assert ResponseCache.batch_keys(backend_id, draws) == expected
        # each draw hashes its tail onto a copy of its prompt's prefix hash,
        # so no draw's tail leaks into another's, in either order
        assert ResponseCache.batch_keys(backend_id, draws[::-1]) == expected[::-1]

    def test_cached_generate_serves_repeat_from_disk(self, tmp_path):
        cache = ResponseCache(tmp_path)
        backend = _CountingBackend()
        request = BackendRequest(prompt="p", temperature=0.5)
        first = cached_generate(cache, backend, request)
        second = cached_generate(cache, backend, request)
        assert first == second
        assert backend.calls == 1

    def test_draw_index_forces_fresh_draw(self, tmp_path):
        cache = ResponseCache(tmp_path)
        backend = _CountingBackend()
        draws = [BackendRequest(prompt="p", temperature=0.5, index=i) for i in (0, 1)]
        list(cached_generate_many(cache, backend, draws))
        assert backend.calls == 2

    def test_missing_cache_passes_through(self):
        backend = _CountingBackend()
        request = BackendRequest(prompt="p", temperature=0.5)
        cached_generate(None, backend, request)
        cached_generate(None, backend, request)
        assert backend.calls == 2

    def test_unwritable_directory_disables_cache(self, tmp_path):
        blocker = tmp_path / "blocker"
        blocker.write_text("a file, not a directory")
        cache = ResponseCache(blocker / "sub")
        assert not cache.enabled
        assert cache.get("whatever") is None

    def test_io_failure_degrades_to_uncached(self, tmp_path):
        cache = ResponseCache(tmp_path / "c")
        shutil.rmtree(tmp_path / "c")
        key = ResponseCache.cache_key("b1", BackendRequest(prompt="p", temperature=0.5))
        # neither put nor get may raise once the directory is gone
        cache.put(key, BackendResponse(completions=("a",)))
        assert cache.get(key) is None

    def test_damaged_entry_is_a_logged_miss(self, tmp_path, caplog):
        backend = _CountingBackend()
        request = BackendRequest(prompt="p", temperature=0.5)
        cached_generate(ResponseCache(tmp_path), backend, request)
        key = ResponseCache.cache_key(backend.backend_id, request)
        log = CacheLog(tmp_path)
        torn = log.entries()[key][65:72]  # an interrupted write
        not_utf8 = b'{"completions": ["\xff\xfe"]}'
        for calls, damaged in enumerate((torn, not_utf8), start=2):
            log.write(key, damaged)
            cache = ResponseCache(tmp_path)  # a fresh cache reads the last line
            caplog.clear()
            with caplog.at_level(logging.WARNING, logger="tout.calls"):
                response = cached_generate(cache, backend, request)
            assert response.completions == ("x",)
            assert backend.calls == calls
            assert "damaged cache entry" in caplog.text
            assert cache.get(key) == response  # the miss rewrote the entry

    def test_directory_at_an_entry_path_is_a_logged_miss(self, tmp_path, caplog):
        cache = ResponseCache(tmp_path)
        key = ResponseCache.cache_key("b1", BackendRequest(prompt="p", temperature=0.5))
        (tmp_path / LOG_NAME).mkdir()  # at the log's path
        with caplog.at_level(logging.WARNING, logger="tout.calls"):
            assert cache.get(key) is None
            assert "cache read failed" in caplog.text
            cache.put(key, BackendResponse(completions=("a",)))
            assert "cache write failed" in caplog.text
            assert cache.get(key) is None

    def test_missing_entry_is_a_silent_miss(self, tmp_path, caplog):
        cache = ResponseCache(tmp_path)
        with caplog.at_level(logging.WARNING, logger="tout.calls"):
            assert cache.get("0" * 64) is None
        assert caplog.text == ""

    @given(
        JSON_VALUES,
        st.sampled_from([None, 2]),
        st.sampled_from(["", " ", "\n", " \t\r\n"]),
        st.sampled_from(["", " ", "\n", "x", "{}", "]", " 1"]),
        st.integers(min_value=0, max_value=3),
    )
    def test_entry_text_decodes_as_json_loads_decodes_it(
        self, value, indent, before, after, cut
    ):
        text = before + json.dumps(value, indent=indent) + after
        text = text[: len(text) - cut]
        try:
            expected = json.loads(text)
        except ValueError:
            with pytest.raises(ValueError):
                _decode_entry(text)
        else:
            assert _decode_entry(text) == expected

    # a newline ends an entry's line, so padded and indented text is a miss
    @pytest.mark.parametrize("text, hit", [
        ('{"completions": ["a"]}', True),
        (' \n{"completions": ["a"]}\n', False),
        ('{\n  "completions": [\n    "a"\n  ]\n}', False),
        ('{"completions": ["a"]} x', False),
        ('{"completions": ["a"]}{"completions": ["b"]}', False),
        ("", False),
    ], ids=["as-put", "padded", "indented", "trailing-text", "two-objects", "empty"])
    def test_entry_reads_as_json_loads_reads_it(self, tmp_path, caplog, text, hit):
        cache = ResponseCache(tmp_path)
        key = "0" * 64
        CacheLog(tmp_path).write(key, text)
        with caplog.at_level(logging.WARNING, logger="tout.calls"):
            got = cache.get(key)
        assert got == (BackendResponse(completions=("a",)) if hit else None)
        assert ("damaged cache entry" in caplog.text) is not hit

    def test_warm_batch_reads_each_draw_once_and_calls_nothing(self, tmp_path):
        cache = ResponseCache(tmp_path)
        draws = [BackendRequest(prompt=f"p{i % 3}", temperature=0.5, index=i)
                 for i in range(6)]
        cold = _WideCountingBackend()
        try:
            filled = list(cached_generate_many(cache, cold, draws))
        finally:
            cold.close()
        assert cold.calls == 6
        warm = _WideCountingBackend()
        seen = []
        inner = cache.get
        cache.get = lambda key: seen.append(key) or inner(key)  # as the bench wraps it
        transcript = Transcript()
        try:
            served = list(cached_generate_many(cache, warm, draws, transcript))
        finally:
            warm.close()
        assert served == filled
        assert warm.calls == 0
        assert warm.sends == 0  # a batch of hits alone is served as read
        assert transcript.events == []
        assert seen == [ResponseCache.cache_key(warm.backend_id, request)
                        for request in draws]

    def test_half_warm_batch_issues_only_its_misses(self, tmp_path):
        # the wide path must leave what the reference sequential loop leaves
        draws = [BackendRequest(prompt=f"p{i % 2}", temperature=0.5, index=i)
                 for i in range(6)]

        def run(backend, cache_dir):
            cache = ResponseCache(cache_dir)
            for i in (0, 2, 4):  # every p0 draw is warm, every p1 draw cold
                key = ResponseCache.cache_key(backend.backend_id, draws[i])
                cache.put(key, BackendResponse(completions=("cached",)))
            seen = []
            inner = cache.get
            cache.get = lambda key: seen.append(key) or inner(key)
            transcript = Transcript()
            served = list(cached_generate_many(cache, backend, draws, transcript))
            events = [{k: v for k, v in event.items() if k != "latency_ms"}
                      for event in transcript.events]
            return served, events, seen

        sequential = _CountingBackend()
        wide = _WideCountingBackend()
        try:
            expected = run(sequential, tmp_path / "sequential")
            got = run(wide, tmp_path / "wide")
        finally:
            wide.close()
        assert got == expected
        assert sequential.calls == wide.calls == 3
        assert wide.sends == 1
        served, events, seen = got
        assert [r.completions for r in served] == [("cached",), ("x",)] * 3
        assert [event["event"] for event in events] == ["generate"] * 3
        assert {event["prompt_digest"] for event in events} == {prompt_digest("p1")}
        assert len(seen) == len(draws)

    @pytest.mark.parametrize("wide", [False, True], ids=["sequential", "pooled"])
    def test_warm_game24_episode_reads_one_entry_per_draw(self, tmp_path, wide):
        config = SearchConfig(k=2, b=1, T=3, m=3)
        task, script, kinds = _game24_episode(config)
        backend = _WideScriptedBackend(script) if wide else ScriptedBackend(script)
        issued = []
        inner_generate = backend.generate
        backend.generate = lambda request: (
            issued.append(kinds[request.prompt]) or inner_generate(request)
        )
        cache = ResponseCache(tmp_path)
        put, seen = [], []
        inner_put, inner_get = cache.put, cache.get
        cache.put = lambda key, response: put.append(key) or inner_put(key, response)
        cache.get = lambda key: seen.append(key) or inner_get(key)
        problems = [Problem(problem_id="game24/0", input="4 9 10 13", truth="4 9 10 13")]

        def records():
            report = run_benchmark(task, problems, "tout_bfs", lambda seed: backend,
                                   config, cache=cache)
            return [r.record.to_json() for r in report.results]

        try:
            cold = records()
            assert Counter(issued) == {"propose": 3, "value": 18, "final": 1}
            issued.clear()
            seen.clear()
            sends = getattr(backend, "sends", 0)
            assert records() == cold
        finally:
            if wide:
                backend.close()
        assert issued == []
        assert seen == put  # one read per draw, in the cold run's order
        assert len(seen) == 22
        assert getattr(backend, "sends", 0) == sends

    def test_failed_put_leaves_the_old_entry_whole(self, tmp_path, caplog):
        cache = ResponseCache(tmp_path)
        key = ResponseCache.cache_key("b1", BackendRequest(prompt="p", temperature=0.5))
        old = BackendResponse(completions=("old",))
        cache.put(key, old)
        write = os.write

        def failing(fd, data):
            raise OSError("disk full")

        def short(fd, data):  # the disk filled up mid-line
            return write(fd, data[:-5])

        for broken in (failing, short):
            caplog.clear()
            with mock.patch("tout.calls.os.write", broken), caplog.at_level(
                logging.WARNING, logger="tout.calls"
            ):
                cache.put(key, BackendResponse(completions=("new",)))
            assert "cache write failed" in caplog.text
            assert cache.get(key) == old
            assert ResponseCache(tmp_path).get(key) == old
        assert [p.name for p in tmp_path.iterdir()] == [LOG_NAME]
        # the torn line the short write left costs no later entry
        newer = BackendResponse(completions=("newer",))
        cache.put(key, newer)
        assert cache.get(key) == ResponseCache(tmp_path).get(key) == newer

    def test_disabled_cache_never_touches_disk(self, tmp_path):
        blocker = tmp_path / "blocker"
        blocker.write_text("a file, not a directory")
        cache = ResponseCache(blocker / "sub")  # disabled: it cannot be made
        key = ResponseCache.cache_key("b1", BackendRequest(prompt="p", temperature=0.5))
        cache.put(key, BackendResponse(completions=("a",)))
        assert cache.get(key) is None
        assert list(tmp_path.iterdir()) == [blocker]
        assert blocker.read_text() == "a file, not a directory"


def _open_descriptors():
    return len(os.listdir("/proc/self/fd"))


_LOG_KEYS = [f"{i:x}" * 64 for i in range(4)]


def _log_line(key, text):
    """The bytes a put of one completion appends, newline included."""
    entry = json.dumps({"completions": [text], "usage": None})
    return f"{key} {entry}\n".encode()


def _torn_entry(key, text, cut):
    """What the line of a put cut short by ``cut`` bytes reads as once a
    later put ends it: the entry when only its newline was lost, a damaged
    entry (None) when its key survived, and nothing otherwise."""
    kept = len(_log_line(key, text)) - cut
    if cut == 1:
        return key, text
    return (key, None) if kept >= 65 else (None, None)


# one step of a cache's life: a put or a get on cache 0 or 1, closing and
# reopening one, replacing one by a new cache on the directory, a writer
# that died mid-line, or a put whose write comes back short
_LOG_STEPS = st.lists(
    st.one_of(
        st.tuples(st.just("put"), st.integers(0, 1), st.sampled_from(_LOG_KEYS),
                  st.text(alphabet='ab"\\é\n', max_size=4)),
        st.tuples(st.just("get"), st.integers(0, 1), st.sampled_from(_LOG_KEYS)),
        st.tuples(st.just("reopen"), st.integers(0, 1)),
        st.tuples(st.just("new"), st.integers(0, 1)),
        st.tuples(st.just("torn"), st.sampled_from(_LOG_KEYS), st.text(max_size=3),
                  st.integers(1, 200)),
        st.tuples(st.just("short"), st.integers(0, 1), st.sampled_from(_LOG_KEYS),
                  st.text(max_size=3), st.integers(1, 200)),
    ),
    max_size=30,
)


def _writer_entry(writer, i):
    """The key and ~8 KiB completion of writer ``writer``'s i-th put."""
    key = hashlib.sha256(f"{writer}/{i}".encode()).hexdigest()
    return key, f"{writer}/{i} " + "abcdefgh" * 1024


# argv: the cache directory, the writer's number, its number of puts
_WRITER_SCRIPT = """
import hashlib, sys
from tout.backends import BackendResponse
from tout.calls import ResponseCache
""" + inspect.getsource(_writer_entry) + """
cache = ResponseCache(sys.argv[1])
writer, puts = int(sys.argv[2]), int(sys.argv[3])
print("ready", flush=True)
sys.stdin.readline()
for i in range(puts):
    key, text = _writer_entry(writer, i)
    cache.put(key, BackendResponse(completions=(text,)))
cache.close()
"""


class TestResponseLog:
    """The cache's one log per directory: appended by puts, indexed by
    offset, read from disk by every get."""

    @settings(max_examples=150, deadline=None)
    @given(_LOG_STEPS)
    def test_matches_a_dict_of_last_complete_puts(self, steps):
        # The model: the log's complete lines, in order, as (key, text) with
        # text None for a damaged line, and the line a writer left torn. A
        # cache has indexed the first ``seen`` lines: a put indexes every
        # line, and a get misses onto a scan unless its key was seen.
        lines, torn = [], None
        seen = [0, 0]
        write = os.write

        def end_torn():
            nonlocal torn
            if torn is not None:
                lines.append(_torn_entry(*torn))
                torn = None

        def expected(i, key):
            found = [text for k, text in lines[: seen[i]] if k == key]
            if not found:
                seen[i] = len(lines)
                found = [text for k, text in lines if k == key]
            return found[-1] if found else None

        with tempfile.TemporaryDirectory() as tmp:
            caches = [ResponseCache(tmp), ResponseCache(tmp)]
            try:
                for step in steps:
                    kind, rest = step[0], step[1:]
                    if kind == "put":
                        i, key, text = rest
                        caches[i].put(key, BackendResponse(completions=(text,)))
                        end_torn()
                        lines.append((key, text))
                        seen[i] = len(lines)
                    elif kind == "get":
                        i, key = rest
                        text = expected(i, key)
                        want = None if text is None else BackendResponse((text,))
                        assert caches[i].get(key) == want
                    elif kind in ("reopen", "new"):
                        (i,) = rest
                        caches[i].close()
                        if kind == "new":
                            caches[i] = ResponseCache(tmp)
                        seen[i] = 0
                    elif kind == "torn" and torn is None:
                        key, text, cut = rest
                        cut = min(cut, len(_log_line(key, text)) - 1)
                        with open(os.path.join(tmp, LOG_NAME), "ab") as log:
                            log.write(_log_line(key, text)[:-cut])
                        torn = (key, text, cut)
                    elif kind == "short":
                        i, key, text, cut = rest
                        line = _log_line(key, text)
                        cut = min(cut, len(line))
                        with mock.patch("tout.calls.os.write",
                                        lambda fd, data: write(fd, data[:-cut])):
                            caches[i].put(key, BackendResponse(completions=(text,)))
                        seen[i] = len(lines)  # scanned before the write
                        end_torn()
                        if cut < len(line):
                            torn = (key, text, cut)
            finally:
                for cache in caches:
                    cache.close()

    def test_second_cache_sees_the_first_ones_entries_after_a_miss(self, tmp_path):
        first, second = ResponseCache(tmp_path), ResponseCache(tmp_path)
        a, b = BackendResponse(completions=("a",)), BackendResponse(completions=("b",))
        assert second.get(_LOG_KEYS[0]) is None  # there is no log yet
        first.put(_LOG_KEYS[0], a)
        assert second.get(_LOG_KEYS[0]) == a
        first.put(_LOG_KEYS[1], b)
        assert second.get(_LOG_KEYS[1]) == b
        second.put(_LOG_KEYS[2], a)
        assert first.get(_LOG_KEYS[2]) == a

    def test_torn_tail_costs_only_its_own_entry(self, tmp_path, caplog):
        cache = ResponseCache(tmp_path)
        a, b = BackendResponse(completions=("a",)), BackendResponse(completions=("b",))
        cache.put(_LOG_KEYS[0], a)
        cache.put(_LOG_KEYS[1], a)
        # a writer died mid-line: the line for key 1 lost its end
        with open(tmp_path / LOG_NAME, "ab") as log:
            log.write(_log_line(_LOG_KEYS[1], "b")[:-4])
        assert ResponseCache(tmp_path).get(_LOG_KEYS[1]) == a  # never indexed
        cache.put(_LOG_KEYS[2], b)
        fresh = ResponseCache(tmp_path)
        assert fresh.get(_LOG_KEYS[0]) == a
        assert fresh.get(_LOG_KEYS[2]) == cache.get(_LOG_KEYS[2]) == b
        with caplog.at_level(logging.WARNING, logger="tout.calls"):
            assert fresh.get(_LOG_KEYS[1]) is None  # its last line is the torn one
            assert cache.get(_LOG_KEYS[1]) is None  # the put that ended it agrees
        assert caplog.text.count("damaged cache entry") == 2

    def test_log_rewritten_in_place_is_never_misread(self, tmp_path, caplog):
        cache = ResponseCache(tmp_path)
        cache.put(_LOG_KEYS[0], BackendResponse(completions=("a",)))
        cache.put(_LOG_KEYS[1], BackendResponse(completions=("b",)))
        # the log is rewritten in place: key 2's line where key 1's was
        (tmp_path / LOG_NAME).write_bytes(
            _log_line(_LOG_KEYS[0], "a") + _log_line(_LOG_KEYS[2], "b")
        )
        with caplog.at_level(logging.WARNING, logger="tout.calls"):
            assert cache.get(_LOG_KEYS[1]) is None
        assert "does not start with its key" in caplog.text
        # cut shorter than what was indexed, the log is indexed anew on a miss
        (tmp_path / LOG_NAME).write_bytes(_log_line(_LOG_KEYS[3], "c"))
        assert cache.get(_LOG_KEYS[3]) == BackendResponse(completions=("c",))
        assert cache.get(_LOG_KEYS[0]) is None

    def test_entry_appended_during_a_put_is_seen(self, tmp_path):
        cache = ResponseCache(tmp_path)
        cache.put(_LOG_KEYS[0], BackendResponse(completions=("a",)))
        write = os.write

        def after_another_writer(fd, data):
            # another process appends between the cache's scan and its write
            with open(tmp_path / LOG_NAME, "ab") as log:
                log.write(_log_line(_LOG_KEYS[1], "theirs"))
            return write(fd, data)

        with mock.patch("tout.calls.os.write", after_another_writer):
            cache.put(_LOG_KEYS[2], BackendResponse(completions=("b",)))
        assert cache.get(_LOG_KEYS[1]) == BackendResponse(completions=("theirs",))
        assert cache.get(_LOG_KEYS[2]) == BackendResponse(completions=("b",))

    def test_writers_in_three_processes_leave_every_entry_intact(self, tmp_path):
        # each entry is ~8 KiB, above PIPE_BUF: only a single O_APPEND write
        # per line keeps another process's lines out of it
        writers, puts = 3, 200
        procs = [
            subprocess.Popen(
                [sys.executable, "-c", _WRITER_SCRIPT, str(tmp_path), str(w), str(puts)],
                env=_fresh_env(), stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                stderr=subprocess.PIPE, text=True,
            )
            for w in range(writers)
        ]
        try:
            for proc in procs:  # every writer is ready before any writes
                assert proc.stdout.readline() == "ready\n"
            for proc in procs:
                proc.stdin.write("go\n")
                proc.stdin.flush()
            for proc in procs:
                _, err = proc.communicate(timeout=60)
                assert proc.returncode == 0, err
        finally:
            for proc in procs:
                proc.kill()
                proc.communicate()
        cache = ResponseCache(tmp_path)
        for w in range(writers):
            for i in range(puts):
                key, text = _writer_entry(w, i)
                assert cache.get(key) == BackendResponse(completions=(text,)), (w, i)
        cache.close()
        # a writer that finds another's append still in progress takes it
        # for a torn line and starts its own with a newline: an empty line
        lines = (tmp_path / LOG_NAME).read_bytes().split(b"\n")
        assert lines.pop() == b"" and len(list(filter(None, lines))) == writers * puts

    def test_dropped_or_closed_cache_leaves_no_descriptor_open(self, tmp_path):
        gc.collect()
        before = _open_descriptors()
        cache = ResponseCache(tmp_path)
        assert cache.get(_LOG_KEYS[0]) is None  # no log: nothing is opened
        assert _open_descriptors() == before
        cache.put(_LOG_KEYS[0], BackendResponse(completions=("a",)))
        assert _open_descriptors() == before + 1
        cache.close()
        assert _open_descriptors() == before
        assert cache.get(_LOG_KEYS[0]) == BackendResponse(completions=("a",))
        assert _open_descriptors() == before + 1  # reopened on use
        del cache
        assert _open_descriptors() == before

    def test_old_layout_is_named_once_and_not_read(self, tmp_path, caplog):
        (tmp_path / f"{_LOG_KEYS[0]}.json").write_text('{"completions": ["a"]}')
        with caplog.at_level(logging.WARNING, logger="tout.calls"):
            cache = ResponseCache(tmp_path)
            assert cache.get(_LOG_KEYS[0]) is None
        assert caplog.text.count("old one-file-per-key layout") == 1

    def test_log_it_may_not_write_is_still_read(self, tmp_path, caplog):
        ResponseCache(tmp_path).put(_LOG_KEYS[0], BackendResponse(completions=("a",)))
        real_open = os.open

        def read_only(path, flags, *mode):
            if flags & (os.O_RDWR | os.O_WRONLY):
                raise PermissionError(13, "Permission denied", path)
            return real_open(path, flags, *mode)

        with mock.patch("tout.calls.os.open", read_only), caplog.at_level(
            logging.WARNING, logger="tout.calls"
        ):
            cache = ResponseCache(tmp_path)
            assert cache.get(_LOG_KEYS[0]) == BackendResponse(completions=("a",))
            cache.put(_LOG_KEYS[1], BackendResponse(completions=("b",)))
            assert "cache write failed" in caplog.text
            assert cache.get(_LOG_KEYS[1]) is None
        cache.close()


class _KeyedBackend(PooledBackend):
    """Answers each request from its prompt, temperature and index alone, at
    any width, and logs every call with the thread that made it."""

    backend_id = "keyed"

    def __init__(self, width):
        super().__init__(width)
        self.calls = []

    def answer(self, request):
        call = (request.prompt, request.temperature, request.index)
        with self._lock:
            self.calls.append((call, threading.current_thread()))
        return BackendResponse((f"{call}",))


def _one_batch(draws, width, warm, writable):
    """Run one cached_generate_many batch at ``width`` over a fresh cache
    holding the entries of the ``warm`` draws: its responses, events without
    latency, backend calls, cache reads in order, the cache's log, and the
    threads that made the calls."""
    backend = _KeyedBackend(width)
    with tempfile.TemporaryDirectory() as tmp:
        cache = ResponseCache(tmp)
        for request in warm:
            key = ResponseCache.cache_key(backend.backend_id, request)
            cache.put(key, BackendResponse(completions=("warm",)))
        seen = []
        inner = cache.get
        cache.get = lambda key: seen.append(key) or inner(key)  # as the bench wraps it

        def unwritable(fd, data):
            raise OSError("read-only cache")

        transcript = Transcript()
        write = os.write if writable else unwritable
        try:
            with mock.patch("tout.calls.os.write", write):
                served = list(cached_generate_many(cache, backend, draws, transcript))
        finally:
            backend.close()
            cache.close()
        log = CacheLog(tmp).raw()  # puts are made in draw order at every width
    outcome = (
        served,
        [{k: v for k, v in e.items() if k != "latency_ms"} for e in transcript.events],
        Counter(call for call, _ in backend.calls),
        seen,
        log,
    )
    return outcome, [thread for _, thread in backend.calls]


_BATCH_DRAWS = st.lists(
    st.tuples(st.sampled_from(["p0", "p1", "p2"]), st.sampled_from([0.2, 0.5]),
              st.sampled_from([None, 0, 1, 2])),
    max_size=10,
)


class TestOneDrawLoop:
    """cached_generate_many leaves the same responses, events, backend calls,
    cache reads and cache log at width 1 and at width 4."""

    @settings(max_examples=60, deadline=None)
    @given(_BATCH_DRAWS, st.data(), st.booleans())
    def test_widths_agree(self, specs, data, writable):
        draws = [BackendRequest(prompt=p, temperature=t, index=i) for p, t, i in specs]
        warm = data.draw(st.lists(st.sampled_from(draws), unique=True)
                         if draws else st.just([]), label="warm")
        narrow, _ = _one_batch(draws, 1, warm, writable)
        wide, _ = _one_batch(draws, 4, warm, writable)
        assert wide == narrow
        _, events, calls, seen, _ = narrow
        assert len(seen) == len(draws)  # one read per draw
        assert sum(calls.values()) == len(events)

    def test_unwritable_twins_are_read_once_and_sent_through_the_pool(self):
        # draws 3-5 share the keys of misses 0-2, whose puts all fail
        draws = [BackendRequest(prompt=f"p{i % 3}", temperature=0.5) for i in range(6)]
        narrow, _ = _one_batch(draws, 1, [], writable=False)
        wide, threads = _one_batch(draws, 4, [], writable=False)
        assert wide == narrow
        served, events, calls, seen, log = wide
        assert len(seen) == 6 and sum(calls.values()) == 6
        assert [event["event"] for event in events] == ["generate"] * 6
        assert log == b""
        assert threading.main_thread() not in threads  # the pool bounds twins too


# Entries a sane writer never produces; each must read as a logged miss.
WRONG_SHAPES = [
    pytest.param({"completions": []}, "holds 0 completions", id="empty"),
    pytest.param({"completions": [None]}, "damaged cache entry", id="null"),
    pytest.param({"completions": [1]}, "damaged cache entry", id="number"),
    pytest.param({"completions": "ab"}, "damaged cache entry", id="string"),
    pytest.param({"completions": ["a"], "usage": 3}, "damaged cache entry",
                 id="usage"),
    pytest.param({"completions": ["a", "b"]}, "holds 2 completions", id="surplus"),
    pytest.param([], "damaged cache entry", id="top-list"),
    pytest.param(None, "damaged cache entry", id="top-null"),
    pytest.param("text", "damaged cache entry", id="top-string"),
    pytest.param(3, "damaged cache entry", id="top-number"),
    pytest.param({}, "damaged cache entry", id="top-empty-object"),
]


class TestWrongShapeEntries:
    """A cache entry that parses as JSON but cannot be the answer to its
    request is reissued and overwritten, never served."""

    @pytest.mark.parametrize("entry, message", WRONG_SHAPES)
    def test_cached_generate_reissues(self, tmp_path, caplog, entry, message):
        cache = ResponseCache(tmp_path)
        backend = _CountingBackend()
        request = BackendRequest(prompt="p", temperature=0.5)
        key = ResponseCache.cache_key(backend.backend_id, request)
        CacheLog(tmp_path).write(key, json.dumps(entry))
        with caplog.at_level(logging.WARNING, logger="tout.calls"):
            response = cached_generate(cache, backend, request)
        assert response.completions == ("x",)
        assert backend.calls == 1
        assert message in caplog.text
        assert cache.get(key) == response  # the miss rewrote the entry

    @pytest.mark.parametrize("entry, message", WRONG_SHAPES)
    def test_batch_reissues(self, tmp_path, caplog, entry, message):
        cache = ResponseCache(tmp_path)
        backend = _WideCountingBackend()
        draws = [BackendRequest(prompt="p", temperature=0.5, index=i) for i in range(3)]
        keys = [ResponseCache.cache_key(backend.backend_id, request) for request in draws]
        CacheLog(tmp_path).write(keys[1], json.dumps(entry))
        try:
            with caplog.at_level(logging.WARNING, logger="tout.calls"):
                responses = list(cached_generate_many(cache, backend, draws))
        finally:
            backend.close()
        assert [r.completions for r in responses] == [("x",)] * 3
        assert backend.calls == 3
        assert message in caplog.text
        assert cache.get(keys[1]) == responses[1]

    def test_run_over_a_poisoned_cache_matches_a_cold_run(self, tmp_path):
        bench = build_trap_benchmark(depth=2)
        task, problems, factory = synthetic_setup(bench, episodes=3)
        config = SearchConfig(k=2, b=1, T=2, m=4)

        def records(cache):
            report = run_benchmark(task, problems, "tout_bfs", factory, config,
                                   cache=cache, run_seed=3)
            return [r.record.to_json() for r in report.results]

        cold = records(ResponseCache(tmp_path / "cold"))
        records(ResponseCache(tmp_path / "poisoned"))
        log = CacheLog(tmp_path / "poisoned")
        keys = sorted(log.entries())
        assert keys
        for i, key in enumerate(keys):
            shape = WRONG_SHAPES[i % len(WRONG_SHAPES)].values[0]
            log.write(key, json.dumps(shape))
        # a fresh cache reads the poisoned lines, the last for each key
        assert records(ResponseCache(tmp_path / "poisoned")) == cold
