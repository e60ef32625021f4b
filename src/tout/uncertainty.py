"""Local uncertainty quantification for intermediate reasoning states.

A state is evaluated m times under a linearly spaced temperature schedule.
The mean of the sampled values is the state's value v, the population
variance is its local uncertainty u, and selection uses the confidence
score v / (u + epsilon). Switching LUQ off collapses the procedure to a
single sample at the top temperature with u = 0; switching guidance off
keeps u but scores by value alone.
"""

from __future__ import annotations

import math
from typing import Iterator, Optional, Sequence

from .backends import (
    DEFAULT_MAX_TOKENS,
    Backend,
    BackendRequest,
    BackendResponse,
    ResponseCache,
    cached_generate_many,
)
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
    transcript: Optional[Transcript] = None,
) -> list[float]:
    """Parse the next len(schedule) responses of a stream issued for the
    state's value draws (see value_draws), one per scheduled temperature."""
    values: list[float] = []
    for i, temp in enumerate(schedule):
        completion = next(responses).completions[0]
        value = task.parse_value(completion)
        values.append(value)
        if transcript is not None:
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
    backend: Backend,
    config: SearchConfig,
    transcript: Optional[Transcript] = None,
    cache: Optional[ResponseCache] = None,
    responses: Optional[Iterator[BackendResponse]] = None,
) -> ScoredState:
    """Produce the (value, uncertainty, score) triple that drives search.

    The m draws feed both the value (their mean) and the uncertainty
    (their variance). With LUQ off, one draw at t_max stands in for the
    value and the uncertainty is pinned to zero. With guidance off, the
    score is the bare value rather than the confidence ratio.
    ``responses``, when given, is a stream issued for
    value_draws(task, state, config), possibly as part of a larger batch;
    otherwise the state's draws go out as a cached_generate_many batch of
    their own, independent requests that a backend wider than one request
    has in flight together.
    """
    schedule = _schedule(config)
    stream = responses
    if stream is None:
        draws = value_draws(task, state, config)
        stream = cached_generate_many(cache, backend, draws, transcript)
    try:
        samples = sample_values(task, state, schedule, stream, transcript)
    finally:
        if responses is None:
            stream.close()
    if config.luq_enabled:
        value, uncertainty = aggregate_value(samples), variance(samples)
    else:
        value, uncertainty = samples[0], 0.0

    if config.ugs_enabled:
        score = confidence_score(value, uncertainty, config.epsilon)
    else:
        score = value

    if transcript is not None:
        # path makes evaluated states reconstructable from the record alone
        transcript.emit(
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
