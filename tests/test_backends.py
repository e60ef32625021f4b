"""Backend plumbing: HTTP client behavior, scripted replay, the noisy
oracle, and the response cache.

The HTTP tests run HttpBackend against a loopback server that replays a
canned sequence of responses, so retry, shortfall and connection behavior
is exercised without a network.
"""

from __future__ import annotations

import base64
import dataclasses
import hashlib
import http.client
import json
import logging
import os
import select
import shutil
import socket
import socketserver
import subprocess
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, strategies as st

import tout
from tout.backends import (
    Backend,
    BackendRequest,
    BackendResponse,
    HttpBackend,
    ResponseCache,
    ScriptedBackend,
    SyntheticOracleBackend,
    body_to_request,
    cached_generate,
    cached_generate_many,
    generate,
    prompt_digest,
    quantize_temperature,
    request_to_body,
)
from tout.harness import run_benchmark, synthetic_setup
from tout.model import (
    BackendUnavailableError,
    InvalidArgumentError,
    SearchConfig,
    Transcript,
)
from tout.tasks.synthetic import build_trap_benchmark


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

    def __init__(self):
        self.responses = []
        self.calls = []
        self.sockets = []  # server side of every connection accepted
        self.unexpected = 0
        self.backends = []
        self.server = ThreadingHTTPServer(("127.0.0.1", 0), _EndpointHandler)
        self.server.daemon_threads = True
        self.server.endpoint = self
        self.thread = threading.Thread(
            target=self.server.serve_forever, args=(0.05,), daemon=True
        )
        self.thread.start()
        self.url = f"http://127.0.0.1:{self.server.server_port}"

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

    def test_retry_after_seconds_lengthen_the_backoff(self, endpoint, monkeypatch):
        endpoint.reply(
            _status(429, {"Retry-After": "3"}),
            _status(429, {"Retry-After": "Wed, 21 Oct 2015 07:28:00 GMT"}),
            _status(429, {"Retry-After": "0"}),
            _status(500, {"Retry-After": "9"}),
            _choices("ok"),
        )
        delays = []
        monkeypatch.setattr("tout.backends.time.sleep", delays.append)
        response = endpoint.client(backoff_s=0.5, max_retries=4).generate(
            BackendRequest(prompt="p", temperature=0.5)
        )
        assert response.completions == ("ok",)
        # max(backoff, Retry-After) after a 429; other forms and codes: backoff
        assert delays == [3.0, 1.0, 2.0, 4.0]

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

    def test_executor_is_shared_and_as_wide_as_max_in_flight(self, endpoint):
        backend = endpoint.client(max_in_flight=3)
        pool = backend.executor()
        assert pool is backend.executor()
        assert pool._max_workers == 3
        assert backend.max_in_flight == 3
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


class TestHttpTransport:
    def test_calls_on_one_thread_share_a_connection(self, endpoint):
        endpoint.reply(*[_choices("x")] * 5)
        backend = endpoint.client()
        for _ in range(5):
            backend.generate(BackendRequest(prompt="p", temperature=0.5))
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
        exchange = backend._exchange

        def counted(*args):
            attempts.append(args)
            return exchange(*args)

        monkeypatch.setattr(backend, "_exchange", counted)
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

    def test_connection_class_follows_the_scheme(self, monkeypatch):
        for name in _PROXY_VARIABLES:
            monkeypatch.delenv(name, raising=False)
        for scheme, kind in [
            ("https", http.client.HTTPSConnection),
            ("http", http.client.HTTPConnection),
        ]:
            backend = HttpBackend(base_url=f"{scheme}://api.example.test", model="m1")
            try:
                conn = backend._connection()  # made, not yet connected
                assert type(conn) is kind
                assert conn.sock is None
            finally:
                backend.close()

    def test_close_closes_every_connection_and_the_backend_still_works(
        self, endpoint
    ):
        endpoint.reply(*[_choices("x")] * 3)
        backend = endpoint.client(max_in_flight=2)
        request = BackendRequest(prompt="p", temperature=0.5)
        backend.generate(request)
        backend.executor().submit(backend.generate, request).result(timeout=5)
        opened = list(backend._connections)
        assert len(opened) == 2  # this thread's and a pool thread's
        backend.close()
        assert all(conn.sock is None for conn in opened)
        assert not backend._connections
        assert backend.generate(request).completions == ("x",)
        assert len(endpoint.sockets) == 3

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


class TestRequestPool:
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
    BackendRequest, HttpBackend, ResponseCache, ScriptedBackend,
    SyntheticOracleBackend,
)
HttpBackend(base_url="http://127.0.0.1:9", model="m").close()
ScriptedBackend({})
ResponseCache(sys.argv[1])
print("numpy" in sys.modules)
oracle = SyntheticOracleBackend({"a": 1.0}, {"a": 0.5}, seed=0)
print("numpy" in sys.modules)
oracle.generate(BackendRequest(prompt="VALUE a", temperature=1.0))
print("numpy" in sys.modules)
"""


class TestImportFootprint:
    """numpy serves only the synthetic oracle and loads when one is built.

    The test process has numpy loaded already, so a fresh interpreter runs
    the imports and reports what they loaded.
    """

    def test_numpy_loads_with_the_first_oracle(self, tmp_path):
        package_root = Path(tout.__file__).resolve().parent.parent
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [str(package_root), env.get("PYTHONPATH")])
        )
        done = subprocess.run(
            [sys.executable, "-c", _FOOTPRINT_SCRIPT, str(tmp_path / "cache")],
            env=env, capture_output=True, text=True, timeout=60,
        )
        assert done.returncode == 0, done.stderr
        # before any oracle; once one is built; after its first draw
        assert done.stdout.split() == ["False", "True", "True"]


class _CountingBackend(Backend):
    backend_id = "counting"

    def __init__(self):
        self.calls = 0

    def generate(self, request):
        self.calls += 1
        return BackendResponse(completions=("x",) * request.n)


class _WideCountingBackend(_CountingBackend):
    """A counting backend that allows concurrent requests."""

    max_in_flight = 4

    def __init__(self):
        super().__init__()
        self._lock = threading.Lock()
        self._pool = ThreadPoolExecutor(max_workers=self.max_in_flight)

    def executor(self):
        return self._pool

    def close(self):
        self._pool.shutdown(wait=True)

    def generate(self, request):
        with self._lock:
            return super().generate(request)


class TestResponseCache:
    def test_round_trip(self, tmp_path):
        cache = ResponseCache(tmp_path)
        response = BackendResponse(completions=("a", "b"), usage={"total_tokens": 7})
        key = ResponseCache.cache_key("b1", BackendRequest(prompt="p", temperature=0.5))
        cache.put(key, response)
        assert cache.get(key) == response

    def test_large_entry_round_trips(self, tmp_path):
        # larger than one read chunk, with multi-byte characters across chunks
        cache = ResponseCache(tmp_path)
        text = "é24" * 70_000  # about 210 KB of UTF-8
        response = BackendResponse(completions=(text, "short"))
        key = ResponseCache.cache_key("b1", BackendRequest(prompt="p", temperature=0.5))
        cache.put(key, response)
        assert cache.get(key) == response

    def test_key_bytes_are_pinned(self):
        # cache entries written by earlier versions must keep hitting
        default = BackendRequest(prompt="p", temperature=0.5)
        stopped = BackendRequest(prompt="p", temperature=0.5, stop=("\n",))
        assert ResponseCache.cache_key("b1", default) == (
            "6bcf80721b8282390341417216e1754dd4f006e9fd7e84f74c201aab128b2d28"
        )
        assert ResponseCache.cache_key("b1", stopped, batch_index=3) == (
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
            ResponseCache.cache_key("b1", base, batch_index=1),
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
            )
            draws.append((request, data.draw(st.integers(), label="batch index")))
        assert ResponseCache.batch_keys(backend_id, draws) == [
            ResponseCache.cache_key(backend_id, request, index)
            for request, index in draws
        ]

    def test_cached_generate_serves_repeat_from_disk(self, tmp_path):
        cache = ResponseCache(tmp_path)
        backend = _CountingBackend()
        request = BackendRequest(prompt="p", temperature=0.5)
        first = cached_generate(cache, backend, request)
        second = cached_generate(cache, backend, request)
        assert first == second
        assert backend.calls == 1

    def test_batch_index_forces_fresh_draw(self, tmp_path):
        cache = ResponseCache(tmp_path)
        backend = _CountingBackend()
        request = BackendRequest(prompt="p", temperature=0.5)
        cached_generate(cache, backend, request, batch_index=0)
        cached_generate(cache, backend, request, batch_index=1)
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
        cache = ResponseCache(tmp_path)
        backend = _CountingBackend()
        request = BackendRequest(prompt="p", temperature=0.5)
        cached_generate(cache, backend, request)
        (entry,) = tmp_path.iterdir()
        torn = entry.read_bytes()[:7]  # an interrupted write
        not_utf8 = b'{"completions": ["\xff\xfe"]}'
        key = ResponseCache.cache_key(backend.backend_id, request)
        for calls, damaged in enumerate((torn, not_utf8), start=2):
            entry.write_bytes(damaged)
            caplog.clear()
            with caplog.at_level(logging.WARNING, logger="tout.backends"):
                response = cached_generate(cache, backend, request)
            assert response.completions == ("x",)
            assert backend.calls == calls
            assert "damaged cache entry" in caplog.text
            assert cache.get(key) == response  # the miss rewrote the entry

    def test_directory_at_an_entry_path_is_a_logged_miss(self, tmp_path, caplog):
        cache = ResponseCache(tmp_path)
        key = ResponseCache.cache_key("b1", BackendRequest(prompt="p", temperature=0.5))
        (tmp_path / f"{key}.json").mkdir()
        with caplog.at_level(logging.WARNING, logger="tout.backends"):
            assert cache.get(key) is None
        assert "cache read failed" in caplog.text

    def test_missing_entry_is_a_silent_miss(self, tmp_path, caplog):
        cache = ResponseCache(tmp_path)
        with caplog.at_level(logging.WARNING, logger="tout.backends"):
            assert cache.get("0" * 64) is None
        assert caplog.text == ""

    def test_warm_batch_reads_each_draw_once_and_calls_nothing(self, tmp_path):
        cache = ResponseCache(tmp_path)
        draws = [(BackendRequest(prompt=f"p{i % 3}", temperature=0.5), i)
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
        try:
            served = list(cached_generate_many(cache, warm, draws))
        finally:
            warm.close()
        assert served == filled
        assert warm.calls == 0
        assert seen == [ResponseCache.cache_key(warm.backend_id, request, index)
                        for request, index in draws]

    def test_failed_put_leaves_the_old_entry_whole(self, tmp_path, monkeypatch):
        cache = ResponseCache(tmp_path)
        key = ResponseCache.cache_key("b1", BackendRequest(prompt="p", temperature=0.5))
        old = BackendResponse(completions=("old",))
        cache.put(key, old)

        def failing_replace(src, dst):
            raise OSError("disk full")

        monkeypatch.setattr("tout.backends.os.replace", failing_replace)
        cache.put(key, BackendResponse(completions=("new",)))
        assert cache.get(key) == old
        assert [p.name for p in tmp_path.iterdir()] == [f"{key}.json"]

    def test_disabled_cache_never_touches_disk(self, tmp_path):
        cache = ResponseCache(tmp_path, enabled=False)
        key = ResponseCache.cache_key("b1", BackendRequest(prompt="p", temperature=0.5))
        cache.put(key, BackendResponse(completions=("a",)))
        assert cache.get(key) is None
        assert list(tmp_path.iterdir()) == []


# Entries a sane writer never produces; each must read as a logged miss.
WRONG_SHAPES = [
    pytest.param({"completions": []}, "holds 0 completions", id="empty"),
    pytest.param({"completions": [None]}, "damaged cache entry", id="null"),
    pytest.param({"completions": [1]}, "damaged cache entry", id="number"),
    pytest.param({"completions": "ab"}, "damaged cache entry", id="string"),
    pytest.param({"completions": ["a"], "usage": 3}, "damaged cache entry",
                 id="usage"),
    pytest.param({"completions": ["a", "b"]}, "holds 2 completions", id="surplus"),
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
        (tmp_path / f"{key}.json").write_text(json.dumps(entry), encoding="utf-8")
        with caplog.at_level(logging.WARNING, logger="tout.backends"):
            response = cached_generate(cache, backend, request)
        assert response.completions == ("x",)
        assert backend.calls == 1
        assert message in caplog.text
        assert cache.get(key) == response  # the miss rewrote the entry

    @pytest.mark.parametrize("entry, message", WRONG_SHAPES)
    def test_batch_reissues(self, tmp_path, caplog, entry, message):
        cache = ResponseCache(tmp_path)
        backend = _WideCountingBackend()
        draws = [(BackendRequest(prompt="p", temperature=0.5), i) for i in range(3)]
        keys = [ResponseCache.cache_key(backend.backend_id, request, index)
                for request, index in draws]
        (tmp_path / f"{keys[1]}.json").write_text(json.dumps(entry), encoding="utf-8")
        try:
            with caplog.at_level(logging.WARNING, logger="tout.backends"):
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
        poisoned = ResponseCache(tmp_path / "poisoned")
        records(poisoned)
        entries = sorted(poisoned.cache_dir.iterdir())
        assert entries
        for i, entry in enumerate(entries):
            shape = WRONG_SHAPES[i % len(WRONG_SHAPES)].values[0]
            entry.write_text(json.dumps(shape), encoding="utf-8")
        assert records(poisoned) == cold
