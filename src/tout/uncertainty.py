"""Local uncertainty quantification for intermediate reasoning states.

A state is evaluated m times under a linearly spaced temperature schedule.
The mean of the sampled values is the state's value v, the population
variance is its local uncertainty u, and selection uses the confidence
score v / (u + epsilon). Switching LUQ off collapses the procedure to a
single sample at the top temperature with u = 0; switching guidance off
keeps u but scores by value alone.

evaluate_states is the one way the search scores states: it issues the
value draws of all its states as one batch through the episode's Calls
and hands each state's evaluate_state that batch's response stream.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from contextlib import closing
from typing import Iterator, Sequence

from .backends import DEFAULT_MAX_TOKENS, BackendRequest, BackendResponse
from .calls import Calls
from .model import (
    InvalidArgumentError,
    ScoredState,
    SearchConfig,
    State,
    TaskSpec,
    Transcript,
)


def temperature_schedule(m: int, t_min: float, t_max: float) -> list[float]:
    """m temperatures linearly spaced from t_min to t_max inclusive.

    A single sample is drawn at t_min: with no spread to estimate there is
    no reason to pay the noise of a hot generation. The last point is
    t_max itself: ``t_min + (m - 1) * step`` can round past it, which
    BackendRequest rejects when t_max is the largest temperature it
    accepts. The points before it stay below t_max by about a step.
    """
    if m < 1:
        raise InvalidArgumentError("m must be >= 1")
    if t_min < 0 or t_min > t_max:
        raise InvalidArgumentError("need 0 <= t_min <= t_max")
    if m == 1:
        return [t_min]
    step = (t_max - t_min) / (m - 1)
    schedule = [t_min + i * step for i in range(m)]
    schedule[-1] = t_max
    return schedule


def aggregate_value(samples: Sequence[float]) -> float:
    """Mean of the sampled values."""
    if not samples:
        raise InvalidArgumentError("need at least one sample")
    return math.fsum(samples) / len(samples)


def variance(samples: Sequence[float]) -> float:
    """Population variance (divide by n, not n-1)."""
    if not samples:
        raise InvalidArgumentError("need at least one sample")
    mean = math.fsum(samples) / len(samples)
    return math.fsum((x - mean) ** 2 for x in samples) / len(samples)


def confidence_score(value: float, uncertainty: float, epsilon: float) -> float:
    """value / (uncertainty + epsilon); epsilon keeps zero variance finite."""
    if epsilon <= 0:
        raise InvalidArgumentError("epsilon must be > 0")
    if uncertainty < 0:
        raise InvalidArgumentError("uncertainty must be >= 0")
    return value / (uncertainty + epsilon)


def _schedule(config: SearchConfig) -> list[float]:
    """Temperatures of a state's value draws: the m-step schedule with LUQ
    on, one draw at t_max with it off."""
    if not config.luq_enabled:
        return [config.t_max]
    return temperature_schedule(config.m, config.t_min, config.t_max)


def value_draws(
    task: TaskSpec, state: State, config: SearchConfig
) -> list[BackendRequest]:
    """Every request that evaluate_state draws for the state, in the order
    it consumes their responses.

    Each draw is its own request (temperatures differ across the schedule)
    and carries its number as its ``index``, which the cache keys, so
    repeated draws at one temperature are still distinct requests, and a
    seeded backend serves draw i the same whether or not the cache
    answered the draws before it.
    """
    prompt = task.value_prompt(state)
    # positional arguments: a keyword call of BackendRequest.__init__ costs
    # more, and this runs once per draw
    return [
        BackendRequest(prompt, t, 1, DEFAULT_MAX_TOKENS, None, i)
        for i, t in enumerate(_schedule(config))
    ]


def sample_values(
    task: TaskSpec,
    state: State,
    schedule: Sequence[float],
    responses: Iterator[BackendResponse],
    transcript: Transcript,
) -> list[float]:
    """Parse the next len(schedule) responses of a stream issued for the
    state's value draws (see value_draws), one per scheduled temperature."""
    values: list[float] = []
    for i, temp in enumerate(schedule):
        completion = next(responses).completions[0]
        value = task.parse_value(completion)
        values.append(value)
        transcript.emit(
            "sample",
            state_id=state.id,
            index=i,
            temperature=temp,
            completion=completion,
            value=value,
        )
    return values


def evaluate_state(
    task: TaskSpec,
    state: State,
    config: SearchConfig,
    calls: Calls,
    responses: Iterator[BackendResponse],
) -> ScoredState:
    """Produce the (value, uncertainty, score) triple that drives search.

    The m draws feed both the value (their mean) and the uncertainty
    (their variance). With LUQ off, one draw at t_max stands in for the
    value and the uncertainty is pinned to zero. With guidance off, the
    score is the bare value rather than the confidence ratio.
    ``responses`` is a stream issued for value_draws(task, state, config),
    possibly as part of a larger batch (see evaluate_states).
    """
    schedule = _schedule(config)
    samples = sample_values(task, state, schedule, responses, calls.transcript)
    if config.luq_enabled:
        value, uncertainty = aggregate_value(samples), variance(samples)
    else:
        value, uncertainty = samples[0], 0.0

    if config.ugs_enabled:
        score = confidence_score(value, uncertainty, config.epsilon)
    else:
        score = value

    # path makes evaluated states reconstructable from the record alone
    calls.transcript.emit(
        "evaluate",
        state_id=state.id,
        path=list(state.thoughts),
        value=value,
        uncertainty=uncertainty,
        score=score,
        samples=samples,
        temperatures=schedule,
    )
    return ScoredState(
        state=state,
        value=value,
        uncertainty=uncertainty,
        score=score,
        samples=tuple(samples),
        temperatures=tuple(schedule),
    )


def evaluate_states(
    task: TaskSpec, states: list[State], config: SearchConfig, calls: Calls
) -> list[ScoredState]:
    """Evaluate several states; the transcript is the same however it runs.

    The value draws of all the states form one Calls.many batch, which the
    first state's sample_values submits; each state then takes its own
    responses from the shared stream in order, as they complete. On a
    backend wider than one request the draws are in flight together; on a
    narrower one they are made one after another. Closing the stream
    cancels the draws not yet started when a state fails.

    A narrow backend with config.eval_workers above 1 instead evaluates
    each state on a pool, with Calls of its own whose transcript is
    replayed in state order. A state that fails is replayed too, then its
    error is raised, and the states that have not started are cancelled:
    the transcript ends as it would at one worker.
    """
    if calls.backend.max_in_flight <= 1 and config.eval_workers > 1 and len(states) > 1:
        own = [Calls(calls.backend, calls.cache) for _ in states]
        results: list[ScoredState] = []
        with ThreadPoolExecutor(max_workers=config.eval_workers) as pool:
            futures = [
                pool.submit(evaluate_states, task, [s], config, c)
                for s, c in zip(states, own)
            ]
            try:
                for future, c in zip(futures, own):
                    try:
                        results.extend(future.result())
                    finally:
                        calls.transcript.events.extend(c.transcript.events)
            finally:
                for future in futures:
                    future.cancel()
        return results
    draws = [d for s in states for d in value_draws(task, s, config)]
    with closing(calls.many(draws)) as responses:
        return [evaluate_state(task, s, config, calls, responses) for s in states]
