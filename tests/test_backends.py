"""Backend plumbing: HTTP client behavior, scripted replay, the noisy
oracle, and the response cache.

The HTTP tests monkeypatch requests.post with a canned sequence of
responses, so retry and shortfall behavior is exercised without a network.
"""

from __future__ import annotations

import logging
import shutil
from dataclasses import dataclass, field

import numpy as np
import pytest
from hypothesis import given, strategies as st

from tout.backends import (
    BackendRequest,
    BackendResponse,
    HttpBackend,
    ResponseCache,
    ScriptedBackend,
    SyntheticOracleBackend,
    body_to_request,
    cached_generate,
    generate,
    prompt_digest,
    quantize_temperature,
    request_to_body,
)
from tout.model import BackendUnavailableError, InvalidArgumentError, Transcript


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


@dataclass
class _FakeResponse:
    status_code: int
    payload: dict
    headers: dict = field(default_factory=dict)

    @property
    def text(self):
        return str(self.payload)

    def json(self):
        return self.payload


class _NotJsonResponse(_FakeResponse):
    """A 200 whose body is not JSON, as from a proxy's error page."""

    def json(self):
        import requests

        raise requests.JSONDecodeError("Expecting value", str(self.payload), 0)


def _choices(*texts):
    return {"choices": [{"message": {"content": t}} for t in texts]}


class _PostLog:
    """Replaces requests.post; pops canned responses in order."""

    def __init__(self, responses):
        self.responses = list(responses)
        self.calls = []

    def __call__(self, url, json=None, headers=None, timeout=None):
        self.calls.append({"url": url, "body": json, "headers": headers})
        if not self.responses:
            raise AssertionError("unexpected extra HTTP call")
        return self.responses.pop(0)


def _http_backend(**kwargs):
    defaults = dict(
        base_url="http://fake.test", model="m1", backoff_s=0.0, max_retries=2
    )
    defaults.update(kwargs)
    return HttpBackend(**defaults)


class TestHttpBackend:
    def test_success_single_call(self, monkeypatch):
        post = _PostLog([_FakeResponse(200, _choices("hi"))])
        monkeypatch.setattr("requests.post", post)
        backend = _http_backend(api_key="sk-x")
        response = backend.generate(BackendRequest(prompt="p", temperature=0.5))
        assert response.completions == ("hi",)
        assert len(post.calls) == 1
        assert post.calls[0]["url"] == "http://fake.test/v1/chat/completions"
        assert post.calls[0]["headers"]["Authorization"] == "Bearer sk-x"

    def test_retries_server_error_then_succeeds(self, monkeypatch):
        post = _PostLog(
            [
                _FakeResponse(500, {"error": "boom"}),
                _FakeResponse(200, _choices("recovered")),
            ]
        )
        monkeypatch.setattr("requests.post", post)
        response = _http_backend().generate(
            BackendRequest(prompt="p", temperature=0.5)
        )
        assert response.completions == ("recovered",)
        assert len(post.calls) == 2

    def test_client_error_does_not_retry(self, monkeypatch):
        post = _PostLog([_FakeResponse(400, {"error": "bad request"})])
        monkeypatch.setattr("requests.post", post)
        with pytest.raises(BackendUnavailableError) as err:
            _http_backend().generate(BackendRequest(prompt="p", temperature=0.5))
        assert len(post.calls) == 1
        assert err.value.last_status == 400

    def test_rate_limit_is_retried(self, monkeypatch):
        post = _PostLog([_FakeResponse(429, {})] * 3)
        monkeypatch.setattr("requests.post", post)
        with pytest.raises(BackendUnavailableError) as err:
            _http_backend(max_retries=2).generate(
                BackendRequest(prompt="p", temperature=0.5)
            )
        assert len(post.calls) == 3  # initial + 2 retries
        assert err.value.last_status == 429

    def test_retry_after_seconds_lengthen_the_backoff(self, monkeypatch):
        limited = [
            _FakeResponse(429, {}, {"Retry-After": "3"}),
            _FakeResponse(429, {}, {"Retry-After": "Wed, 21 Oct 2015 07:28:00 GMT"}),
            _FakeResponse(429, {}, {"Retry-After": "0"}),
            _FakeResponse(500, {}, {"Retry-After": "9"}),
            _FakeResponse(200, _choices("ok")),
        ]
        monkeypatch.setattr("requests.post", _PostLog(limited))
        delays = []
        monkeypatch.setattr("tout.backends.time.sleep", delays.append)
        response = _http_backend(backoff_s=0.5, max_retries=4).generate(
            BackendRequest(prompt="p", temperature=0.5)
        )
        assert response.completions == ("ok",)
        # max(backoff, Retry-After) after a 429; other forms and codes: backoff
        assert delays == [3.0, 1.0, 2.0, 4.0]

    def test_retry_after_beyond_the_retry_budget_fails_at_once(self, monkeypatch):
        # the backoff ladder waits at most 0.5 * 2**4 = 8 s in all
        post = _PostLog([_FakeResponse(429, {}, {"Retry-After": "3600"})])
        monkeypatch.setattr("requests.post", post)
        delays = []
        monkeypatch.setattr("tout.backends.time.sleep", delays.append)
        with pytest.raises(BackendUnavailableError) as err:
            _http_backend(backoff_s=0.5, max_retries=4).generate(
                BackendRequest(prompt="p", temperature=0.5)
            )
        assert err.value.last_status == 429
        assert "Retry-After 3600s" in str(err.value)
        assert len(post.calls) == 1 and delays == []

    def test_shortfall_topped_up_one_at_a_time(self, monkeypatch):
        post = _PostLog(
            [
                _FakeResponse(200, _choices("a")),  # provider ignored n=3
                _FakeResponse(200, _choices("b")),
                _FakeResponse(200, _choices("c")),
            ]
        )
        monkeypatch.setattr("requests.post", post)
        response = _http_backend().generate(
            BackendRequest(prompt="p", temperature=0.5, n=3)
        )
        assert response.completions == ("a", "b", "c")
        assert [c["body"]["n"] for c in post.calls] == [3, 1, 1]

    def test_non_json_200_is_retried(self, monkeypatch):
        post = _PostLog(
            [
                _NotJsonResponse(200, "<html>gateway busy</html>"),
                _FakeResponse(200, _choices("recovered")),
            ]
        )
        monkeypatch.setattr("requests.post", post)
        response = _http_backend().generate(
            BackendRequest(prompt="p", temperature=0.5)
        )
        assert response.completions == ("recovered",)
        assert len(post.calls) == 2

    def test_non_json_200_ends_in_backend_unavailable(self, monkeypatch):
        post = _PostLog([_NotJsonResponse(200, "<html>gateway busy</html>")] * 3)
        monkeypatch.setattr("requests.post", post)
        with pytest.raises(BackendUnavailableError) as err:
            _http_backend(max_retries=2).generate(
                BackendRequest(prompt="p", temperature=0.5)
            )
        assert len(post.calls) == 3
        assert err.value.last_status == 200

    def test_executor_is_shared_and_as_wide_as_max_in_flight(self):
        backend = _http_backend(max_in_flight=3)
        try:
            assert backend.max_in_flight == 3
            pool = backend.executor()
            assert pool is backend.executor()
            assert pool._max_workers == 3
        finally:
            backend.close()
        with pytest.raises(InvalidArgumentError):
            _http_backend(max_in_flight=0)

    def test_requires_base_url_and_model(self, monkeypatch):
        monkeypatch.delenv("TOUT_API_BASE", raising=False)
        monkeypatch.delenv("TOUT_MODEL", raising=False)
        with pytest.raises(InvalidArgumentError):
            HttpBackend()
        with pytest.raises(InvalidArgumentError):
            HttpBackend(base_url="http://fake.test")


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


class _CountingBackend:
    backend_id = "counting"

    def __init__(self):
        self.calls = 0

    def generate(self, request):
        self.calls += 1
        return BackendResponse(completions=("x",) * request.n)


class TestResponseCache:
    def test_round_trip(self, tmp_path):
        cache = ResponseCache(tmp_path)
        response = BackendResponse(completions=("a", "b"), usage={"total_tokens": 7})
        key = ResponseCache.cache_key("b1", BackendRequest(prompt="p", temperature=0.5))
        cache.put(key, response)
        assert cache.get(key) == response

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
        entry.write_text(entry.read_text()[:7], encoding="utf-8")  # torn write
        with caplog.at_level(logging.WARNING, logger="tout.backends"):
            response = cached_generate(cache, backend, request)
        assert response.completions == ("x",)
        assert backend.calls == 2
        assert "damaged cache entry" in caplog.text
        key = ResponseCache.cache_key(backend.backend_id, request)
        assert cache.get(key) == response  # the miss rewrote the entry

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
