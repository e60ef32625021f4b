"""Unit and property tests for value aggregation and variance-based scoring.

The exact-value cases pin the arithmetic down to 1e-12; the hypothesis
properties check the invariances that make population variance usable as
an uncertainty signal (permutation symmetry, shift invariance, quadratic
scaling) and that the confidence score ranks states the way the search
relies on.
"""

from __future__ import annotations

import hashlib
import math
import random
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import replace

import pytest
from hypothesis import given, strategies as st

from tout import (
    InvalidArgumentError,
    SearchConfig,
    Transcript,
    aggregate_value,
    confidence_score,
    temperature_schedule,
    variance,
)
from tout.backends import Backend, BackendResponse
from tout.calls import Calls, ResponseCache
from tout.harness import run_benchmark, synthetic_setup
from tout.model import BackendUnavailableError, StateStore
from tout.search import tout_bfs
from tout.tasks import Problem, make_task
from tout.tasks.synthetic import GOOD, TRAP, SyntheticTreeTask, build_trap_benchmark
from tout.uncertainty import evaluate_states, value_draws

from helpers import CacheLog, EpisodeScript, make_state, population_variance

EXACT = 1e-12

finite_floats = st.floats(
    min_value=-1e6, max_value=1e6, allow_nan=False, allow_infinity=False
)
sample_lists = st.lists(finite_floats, min_size=1, max_size=30)


class TestExactValues:
    """Hand-checked numbers, asserted to 1e-12 absolute."""

    def test_variance_two_points(self):
        assert abs(variance([0.0, 2.0]) - 1.0) <= EXACT

    def test_variance_one_to_five(self):
        assert abs(variance([1.0, 2.0, 3.0, 4.0, 5.0]) - 2.0) <= EXACT

    def test_variance_constant_is_zero(self):
        assert variance([7.0, 7.0, 7.0, 7.0]) == 0.0

    def test_mean_variance_score_triple(self):
        samples = [1.0, 2.0, 3.0]
        v = aggregate_value(samples)
        u = variance(samples)
        assert abs(v - 2.0) <= EXACT
        assert abs(u - 2.0 / 3.0) <= EXACT
        assert abs(confidence_score(v, u, 1e-6) - 2.0 / (2.0 / 3.0 + 1e-6)) <= EXACT

    def test_score_zero_variance(self):
        assert abs(confidence_score(10.0, 0.0, 1e-6) - 1.0e7) <= EXACT

    def test_score_regular_case(self):
        # 6 / (2 + 1e-6) is 3.0 minus about 1.5e-6
        got = confidence_score(6.0, 2.0, 1e-6)
        assert abs(got - 3.0) / 3.0 <= 1e-5

    def test_schedule_five_points(self):
        sched = temperature_schedule(5, 0.0, 1.0)
        assert sched == [0.0, 0.25, 0.5, 0.75, 1.0]

    def test_schedule_single_sample_uses_t_min(self):
        assert temperature_schedule(1, 0.2, 1.0) == [0.2]


class TestValidation:
    def test_epsilon_must_be_positive(self):
        with pytest.raises(InvalidArgumentError):
            confidence_score(1.0, 1.0, 0.0)
        with pytest.raises(InvalidArgumentError):
            confidence_score(1.0, 1.0, -1e-9)

    def test_negative_uncertainty_rejected(self):
        with pytest.raises(InvalidArgumentError):
            confidence_score(1.0, -0.1, 1e-6)

    def test_empty_samples_rejected(self):
        with pytest.raises(InvalidArgumentError):
            variance([])
        with pytest.raises(InvalidArgumentError):
            aggregate_value([])

    def test_schedule_validation(self):
        with pytest.raises(InvalidArgumentError):
            temperature_schedule(0, 0.2, 1.0)
        with pytest.raises(InvalidArgumentError):
            temperature_schedule(3, 1.0, 0.2)


@given(sample_lists)
def test_variance_matches_reference(samples):
    assert math.isclose(
        variance(samples), population_variance(samples), rel_tol=1e-9, abs_tol=1e-9
    )


@given(sample_lists, st.randoms(use_true_random=False))
def test_variance_permutation_invariant(samples, rng):
    shuffled = list(samples)
    rng.shuffle(shuffled)
    assert math.isclose(
        variance(samples), variance(shuffled), rel_tol=1e-9, abs_tol=1e-9
    )


@given(
    sample_lists,
    st.floats(min_value=-100, max_value=100, allow_nan=False),
    st.floats(min_value=-10, max_value=10, allow_nan=False),
)
def test_variance_shift_and_scale(samples, shift, scale):
    """variance(a*x + c) == a^2 * variance(x), up to float error."""
    transformed = [scale * x + shift for x in samples]
    expected = scale * scale * variance(samples)
    scale_bound = max(1.0, abs(scale), abs(shift), max(abs(x) for x in samples))
    assert math.isclose(
        variance(transformed), expected, rel_tol=1e-6, abs_tol=1e-6 * scale_bound**2
    )


@given(sample_lists)
def test_variance_nonnegative(samples):
    assert variance(samples) >= 0.0


@given(
    st.floats(min_value=0.1, max_value=100, allow_nan=False),
    st.floats(min_value=0.0, max_value=50, allow_nan=False),
    st.floats(min_value=0.0, max_value=50, allow_nan=False),
)
def test_score_monotone_decreasing_in_uncertainty(value, u1, u2):
    lo, hi = sorted((u1, u2))
    assert confidence_score(value, hi, 1e-6) <= confidence_score(value, lo, 1e-6)


@given(
    st.floats(min_value=0.0, max_value=100, allow_nan=False),
    st.floats(min_value=0.0, max_value=100, allow_nan=False),
    st.floats(min_value=0.0, max_value=50, allow_nan=False),
)
def test_score_monotone_increasing_in_value(v1, v2, u):
    lo, hi = sorted((v1, v2))
    assert confidence_score(lo, u, 1e-6) <= confidence_score(hi, u, 1e-6)


@given(st.integers(min_value=1, max_value=50))
def test_schedule_shape(m):
    sched = temperature_schedule(m, 0.2, 1.0)
    assert len(sched) == m
    assert all(b >= a for a, b in zip(sched, sched[1:]))
    assert sched[0] == 0.2
    if m > 1:
        assert abs(sched[-1] - 1.0) <= EXACT


def test_schedule_stays_within_its_bounds_and_ends_at_t_max():
    # temperature_schedule(8, 0.2, 2.0) once ended at 2.0000000000000004
    for t_min in (0.0, 0.1, 0.2, 0.3, 0.7, 1.0):
        for t_max in (0.5, 1.0, 1.5, 1.9, 2.0):
            if t_min > t_max:
                continue
            for m in range(1, 65):
                sched = temperature_schedule(m, t_min, t_max)
                assert len(sched) == m and sched[0] == t_min
                assert all(t_min <= t <= t_max for t in sched), (m, t_min, t_max)
                if m > 1:
                    assert sched[-1] == t_max
                    # a schedule the plain formula kept within bounds, ending
                    # at t_max, keeps its bits
                    step = (t_max - t_min) / (m - 1)
                    plain = [t_min + i * step for i in range(m)]
                    if plain[-1] == t_max:
                        assert sched == plain


def test_an_episode_at_the_largest_temperature_records_no_error():
    task, problems, backend_for = synthetic_setup(build_trap_benchmark(), episodes=2)
    report = run_benchmark(task, problems, "tout_bfs", backend_for,
                           SearchConfig(m=8, t_max=2.0))
    assert [r.record.verdicts.get("error") for r in report.results] == [None, None]


def _scored(config, texts, task_name="game24", problem="4 5 6 10"):
    """Evaluate one state against a scripted backend returning texts."""
    task = make_task(task_name)
    state = make_state(problem, ("10-4=6 (left: 5 6 6)",))
    script = EpisodeScript(task=task, config=config)
    script.value(state, texts)
    transcript = Transcript()
    (scored,) = evaluate_states(task, [state], config, Calls(script.backend(), None, transcript))
    return scored, transcript


class TestEvaluateState:
    """The sampling loop wired to a scripted backend, word responses in."""

    def test_single_pass_mixed_words(self):
        config = SearchConfig(m=3, t_min=0.2, t_max=1.0, epsilon=1e-6)
        scored, transcript = _scored(config, ["sure", "likely", "impossible"])
        samples = [20.0, 1.0, 0.001]
        assert scored.samples == tuple(samples)
        assert abs(scored.value - aggregate_value(samples)) <= EXACT
        assert abs(scored.uncertainty - population_variance(samples)) <= EXACT
        assert abs(
            scored.score - scored.value / (scored.uncertainty + 1e-6)
        ) <= EXACT
        assert scored.temperatures == pytest.approx((0.2, 0.6, 1.0))
        kinds = [e["event"] for e in transcript.events]
        assert kinds.count("sample") == 3
        assert kinds.count("evaluate") == 1

    def test_evaluate_event_carries_samples_and_temperatures(self):
        config = SearchConfig(m=3, t_min=0.2, t_max=1.0)
        _, transcript = _scored(config, ["sure", "sure", "likely"])
        (ev,) = [e for e in transcript.events if e["event"] == "evaluate"]
        assert ev["samples"] == [20.0, 20.0, 1.0]
        assert ev["temperatures"] == pytest.approx([0.2, 0.6, 1.0])
        assert ev["path"] == ["10-4=6 (left: 5 6 6)"]

    def test_sample_events_keep_raw_completion(self):
        config = SearchConfig(m=2, t_min=0.2, t_max=1.0)
        _, transcript = _scored(config, ["sure", "impossible"])
        samples = [e for e in transcript.events if e["event"] == "sample"]
        assert [e["completion"] for e in samples] == ["sure", "impossible"]
        assert [e["value"] for e in samples] == [20.0, 0.001]

    def test_luq_off_single_draw_zero_uncertainty(self):
        config = SearchConfig(m=20, luq_enabled=False)
        scored, _ = _scored(config, ["sure"])
        assert scored.samples == (20.0,)
        assert scored.uncertainty == 0.0
        assert scored.temperatures == (config.t_max,)

    def test_ugs_off_score_is_bare_value(self):
        config = SearchConfig(m=3, t_min=0.2, t_max=1.0, ugs_enabled=False)
        scored, _ = _scored(config, ["sure", "likely", "likely"])
        assert scored.score == scored.value
        assert scored.uncertainty > 0.0


class _KeyedSlowBackend(Backend):
    """Answers the synthetic line protocol from the request alone.

    Each call sleeps a random few milliseconds, so concurrent draws complete
    out of order, and the highest number of calls in flight is recorded.
    A value request at ``fail_temperature`` raises BackendUnavailableError.
    Value requests are held until ``gather`` calls have been in flight at
    once, so an overlap the caller allows shows in the peak even on a
    loaded host; after a second without it, calls are no longer held.
    """

    backend_id = "keyed-slow"

    def __init__(self, width, children, fail_temperature=None, gather=0):
        self.max_in_flight = width
        self.children = children
        self.fail_temperature = fail_temperature
        self.gather = gather
        self.calls = 0
        self.peak = 0
        self._in_flight = 0
        self._lock = threading.Condition()
        self._pool = ThreadPoolExecutor(max_workers=width)

    def executor(self):
        return self._pool

    def close(self):
        self._pool.shutdown(wait=True)

    def generate(self, request):
        kind, key = request.prompt.split(" ", 1)
        with self._lock:
            self.calls += 1
            self._in_flight += 1
            self.peak = max(self.peak, self._in_flight)
            self._lock.notify_all()
            if kind != "PROPOSE" and not self._lock.wait_for(
                lambda: self.peak >= self.gather, timeout=1.0
            ):
                self.gather = 0  # never reached: stop holding calls
        try:
            time.sleep(random.uniform(0.0, 0.004))
            if kind == "PROPOSE":
                return BackendResponse(("\n".join(self.children.get(key, [])),))
            if request.temperature == self.fail_temperature:
                raise BackendUnavailableError("injected outage", last_status=503)
            digest = hashlib.sha256(f"{key}@{request.temperature}".encode()).digest()
            return BackendResponse((repr(digest[0] / 25.5),))
        finally:
            with self._lock:
                self._in_flight -= 1


def _without_latency(events):
    return [{k: v for k, v in e.items() if k != "latency_ms"} for e in events]


class TestConcurrentDraws:
    """A backend wider than one request gets a state's cache misses at once;
    records, the cache's log and call counts match the sequential run (puts
    are made in draw order at every width)."""

    def test_records_cache_and_calls_match_sequential(self, tmp_path):
        bench = build_trap_benchmark(depth=2)
        task, problems, _ = synthetic_setup(bench, episodes=3)
        config = SearchConfig(k=3, b=2, T=2, m=8)
        outcomes = []
        switch = sys.getswitchinterval()
        for width in (1, 4):
            backend = _KeyedSlowBackend(width, bench.children)
            cache = ResponseCache(tmp_path / f"width{width}")
            sys.setswitchinterval(1e-5)  # more thread interleavings
            try:
                # m=4 fills draws 0..3 of each state, so the m=8 run mixes
                # cache hits and misses within one state's draws
                for m in (4, 8):
                    report = run_benchmark(task, problems, "tout_bfs",
                                           lambda seed: backend,
                                           replace(config, m=m), cache=cache,
                                           run_seed=5)
            finally:
                sys.setswitchinterval(switch)
                backend.close()
            outcomes.append((
                [r.record.to_json() for r in report.results],
                backend.calls,
                CacheLog(cache.cache_dir).raw(),
            ))
            assert backend.peak <= width
            if width > 1:
                assert backend.peak > 1  # the draws did overlap
        assert outcomes[0] == outcomes[1]

    def test_failed_draw_leaves_the_sequential_events(self, tmp_path):
        bench = build_trap_benchmark(depth=2)
        task = bench.task()
        state = StateStore().root("root")
        config = SearchConfig(m=8, t_min=0.2, t_max=1.0)
        schedule = temperature_schedule(config.m, config.t_min, config.t_max)
        outcomes = []
        for width in (1, 4):
            backend = _KeyedSlowBackend(width, bench.children,
                                        fail_temperature=schedule[5])
            cache = ResponseCache(tmp_path / f"width{width}")
            transcript = Transcript()
            try:
                with pytest.raises(BackendUnavailableError):
                    evaluate_states(task, [state], config, Calls(backend, cache, transcript))
            finally:
                backend.close()
            outcomes.append((_without_latency(transcript.events),
                             CacheLog(cache.cache_dir).raw()))
        assert outcomes[0] == outcomes[1]
        events, log = outcomes[0]
        assert [e["index"] for e in events if e["event"] == "sample"] == [0, 1, 2, 3, 4]
        assert log.count(b"\n") == 5  # one line per entry

    @pytest.mark.parametrize("method, options", [
        ("tout_bfs", {}),
        ("tout_dfs", {}),
        ("tout_bfs", {"m": 4}),  # one state's draws fill the pool
        ("tout_bfs", {"luq_enabled": False}),
    ])
    def test_draws_of_sibling_states_overlap(self, tmp_path, method, options):
        bench = build_trap_benchmark(depth=2)
        task, problems, _ = synthetic_setup(bench, episodes=3)
        config = replace(SearchConfig(k=3, b=2, T=2, m=2), **options)
        per_state = len(value_draws(task, StateStore().root("root"), config))
        outcomes = []
        switch = sys.getswitchinterval()
        for width in (1, 4):
            # a higher peak than one state's draws means siblings overlapped
            gather = per_state + 1 if per_state < width else 0
            backend = _KeyedSlowBackend(width, bench.children, gather=gather)
            cache = ResponseCache(tmp_path / f"width{width}")
            sys.setswitchinterval(1e-5)
            try:
                report = run_benchmark(task, problems, method,
                                       lambda seed: backend, config, cache=cache,
                                       run_seed=5)
            finally:
                sys.setswitchinterval(switch)
                backend.close()
            outcomes.append((
                [r.record.to_json() for r in report.results],
                backend.calls,
                CacheLog(cache.cache_dir).raw(),
            ))
            assert backend.peak <= width
            if gather:
                assert backend.peak >= gather
        assert outcomes[0] == outcomes[1]

    @pytest.mark.parametrize("cache_kind", ["writable", "unwritable", None])
    def test_siblings_sharing_a_value_prompt(self, tmp_path, monkeypatch, cache_kind):
        def unwritable(fd, data):
            raise OSError("read-only cache")

        if cache_kind == "unwritable":
            monkeypatch.setattr("tout.calls.os.write", unwritable)
        cached = cache_kind is not None
        bench = build_trap_benchmark(depth=1)
        task = _SharedValuePromptTask(max_steps=1)
        problems = [Problem(problem_id="synthetic/0", input="root", truth=bench.truth)]
        config = SearchConfig(k=2, b=1, T=1, m=4)
        outcomes = []
        for width, eval_workers in ((1, 1), (4, 1), (4, 2)):
            backend = _KeyedSlowBackend(width, bench.children)
            cache = ResponseCache(tmp_path / f"{width}-{eval_workers}") if cached else None
            try:
                report = run_benchmark(task, problems, "tout_bfs", lambda seed: backend,
                                       replace(config, eval_workers=eval_workers),
                                       cache=cache)
            finally:
                backend.close()
            (result,) = report.results
            outcomes.append((
                result.record.to_json(),
                backend.calls,
                CacheLog(cache.cache_dir).raw() if cached else None,
            ))
        # one propose call, then m draws per value prompt the cache cannot answer
        assert outcomes[0][1] == 1 + (1 if cache_kind == "writable" else 2) * config.m
        assert outcomes[1] == outcomes[0]
        assert outcomes[2][1:] == outcomes[0][1:]  # eval_workers is in the record

    @pytest.mark.parametrize("failure", ["backend", "parse"])
    def test_failed_batch_cancels_the_draws_not_started(self, tmp_path, failure):
        bench = build_trap_benchmark(depth=1)
        bench.children["root"] = ["a", "b", "c"]
        config = SearchConfig(k=3, b=1, T=1, m=40)
        if failure == "backend":
            task, error = bench.task(), BackendUnavailableError
            fail_temperature = config.t_min
        else:
            task, error = _UnparsableValueTask(max_steps=1), ValueError
            fail_temperature = None
        outcomes = []
        for width in (1, 4):
            backend = _KeyedSlowBackend(width, bench.children, fail_temperature)
            cache = ResponseCache(tmp_path / f"width{width}")
            transcript = Transcript()
            try:
                # the traceback held in ``raised`` keeps the response stream
                # alive, so only an explicit close can cancel its draws
                with pytest.raises(error) as raised:
                    tout_bfs(task, "root", backend, config, transcript, cache)
            finally:
                backend.close()
            assert raised.traceback
            outcomes.append((_without_latency(transcript.events),
                             CacheLog(cache.cache_dir).raw()))
            # the first draw of the first state fails; the step has 3 * m draws
            assert backend.calls < 1 + config.m
        assert outcomes[0] == outcomes[1]
        draws = 1 if failure == "parse" else 0
        assert [e["event"] for e in outcomes[0][0]] == ["generate", "expand"] + ["generate"] * draws


class _FailingDrawBackend(Backend):
    """The trap tree's oracle, raising BackendUnavailableError on one draw.

    The draws of the prompts in ``held`` wait until ``release()`` is true,
    for at most 10 s. ``prompts`` lists the prompt of every call.
    """

    def __init__(self, bench, prompt, index, held=(), release=lambda: True):
        self.oracle = bench.backend(0)
        self.backend_id = self.oracle.backend_id
        self.fail = (prompt, index)
        self.held, self.release = held, release
        self.prompts = []

    def generate(self, request):
        self.prompts.append(request.prompt)
        if (request.prompt, request.index) == self.fail:
            raise BackendUnavailableError("injected outage", last_status=503)
        if request.prompt in self.held:
            deadline = time.monotonic() + 10.0
            while not self.release() and time.monotonic() < deadline:
                time.sleep(0.001)
        return self.oracle.generate(request)


class TestEvalWorkers:
    """States evaluated on a pool (eval_workers above 1 on a backend one
    request wide) leave the transcript of one worker, a failure included."""

    def test_failed_episode_keeps_the_events_of_one_worker(self):
        bench = build_trap_benchmark(depth=2)
        config = SearchConfig(k=5, b=1, T=2, m=20)
        events = []
        for eval_workers in (1, 2, 3):
            backend = _FailingDrawBackend(bench, f"VALUE root/{TRAP}", 4)
            transcript = Transcript()
            with pytest.raises(BackendUnavailableError):
                tout_bfs(bench.task(), "root", backend,
                         replace(config, eval_workers=eval_workers), transcript)
            events.append(transcript.record_events())
        kinds = [e["event"] for e in events[0]]
        assert kinds.count("sample") == 20 + 4 and kinds.count("evaluate") == 1
        assert events[1] == events[0]
        assert events[2] == events[0]

    def test_failed_state_cancels_the_states_not_started(self, monkeypatch):
        futures = []

        class RecordingPool(ThreadPoolExecutor):
            def submit(self, *args, **kwargs):
                futures.append(super().submit(*args, **kwargs))
                return futures[-1]

        monkeypatch.setattr("tout.uncertainty.ThreadPoolExecutor", RecordingPool)
        bench = build_trap_benchmark(depth=1)
        bench.children["root"] = ["a", "b", "c", "d"]
        # b and c hold both workers until d, queued behind them, is cancelled
        backend = _FailingDrawBackend(
            bench, "VALUE root/a", 0, held={"VALUE root/b", "VALUE root/c"},
            release=lambda: len(futures) == 4 and futures[3].cancelled(),
        )
        config = SearchConfig(k=4, b=1, T=1, m=2, eval_workers=2)
        with pytest.raises(BackendUnavailableError):
            tout_bfs(bench.task(), "root", backend, config)
        assert "VALUE root/d" not in backend.prompts


class _UnparsableValueTask(SyntheticTreeTask):
    def parse_value(self, text):
        raise ValueError(f"not a value: {text!r}")


class _SharedValuePromptTask(SyntheticTreeTask):
    """The trap tree with a trap child valued by its good sibling's prompt."""

    def value_prompt(self, state):
        return super().value_prompt(state).replace(TRAP, GOOD)
