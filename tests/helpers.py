"""Shared test fixtures: scripted episodes and reference implementations."""

from __future__ import annotations

import gc
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

from tout.backends import Backend, BackendRequest, BackendResponse, ScriptedBackend
from tout.calls import LOG_NAME
from tout.model import SearchConfig, State, TaskSpec
from tout.uncertainty import temperature_schedule


def make_state(problem_input: str, thoughts: tuple[str, ...] = ()) -> State:
    """Standalone state for prompt construction; ids are irrelevant here."""
    return State(input=problem_input, thoughts=tuple(thoughts), id=0)


def schedule_for(config: SearchConfig) -> list[float]:
    """The temperatures evaluate_state will actually use."""
    if config.luq_enabled:
        return temperature_schedule(config.m, config.t_min, config.t_max)
    return [config.t_max]


@dataclass
class EpisodeScript:
    """Builds a ScriptedBackend table from a task's own prompt builders.

    Value sampling issues one request per scheduled temperature, so a
    value entry maps the i-th response text to the i-th temperature. The
    schedule must have distinct quantized temperatures for the entries to
    stay distinct; configs used in tests are chosen accordingly.
    """

    task: TaskSpec
    config: SearchConfig
    script: dict[tuple[str, int, int], str] = field(default_factory=dict)
    default: str = ""

    def propose(self, state: State, lines: list[str] | str) -> None:
        text = lines if isinstance(lines, str) else "\n".join(lines)
        prompt = self.task.propose_prompt(state, self.config.k)
        self.script[ScriptedBackend.key(prompt, self.config.t_max, 0)] = text

    def value(self, state: State, texts: list[str]) -> None:
        temps = schedule_for(self.config)
        assert len(texts) == len(temps), "one text per scheduled temperature"
        quantized = {round(t * 1000) for t in temps}
        assert len(quantized) == len(temps), "schedule temperatures collide"
        prompt = self.task.value_prompt(state)
        for temp, text in zip(temps, texts):
            self.script[ScriptedBackend.key(prompt, temp, 0)] = text

    def final(self, state: State, text: str) -> None:
        prompt = self.task.final_prompt(state)
        assert prompt is not None, "task renders deterministically, no final prompt"
        self.script[ScriptedBackend.key(prompt, 0.0, 0)] = text

    def io(self, problem_input: str, text: str) -> None:
        prompt = self.task.io_prompt(problem_input)
        self.script[ScriptedBackend.key(prompt, self.config.t_max, 0)] = text

    def cot(self, problem_input: str, texts: list[str] | str) -> None:
        """One entry per sampled chain; a single string means one chain."""
        if isinstance(texts, str):
            texts = [texts]
        prompt = self.task.cot_prompt(problem_input)
        for index, text in enumerate(texts):
            self.script[ScriptedBackend.key(prompt, self.config.t_max, index)] = text

    def backend(self) -> ScriptedBackend:
        return ScriptedBackend(dict(self.script), default=self.default)


class PooledBackend(Backend):
    """A backend ``width`` requests wide that answers on a pool of its own,
    as HttpBackend answers on its connections: ``send`` starts each
    request's ``answer`` on the pool, ``generate`` takes it, or starts it
    and waits, and ``cancel`` drops what was sent and not taken. At width
    1 there is no pool, and ``generate`` answers on the caller's thread.
    ``sends`` counts the send() calls.
    """

    def __init__(self, width: int = 4):
        self.max_in_flight = width
        self.sends = 0
        self._pool = ThreadPoolExecutor(max_workers=width) if width > 1 else None
        self._started: dict[int, list] = {}  # id(request) -> its futures
        self._lock = threading.Lock()

    def answer(self, request: BackendRequest) -> BackendResponse:
        raise NotImplementedError

    def send(self, requests):
        if self._pool is None:
            return
        self.sends += 1
        with self._lock:
            for request in requests:
                future = self._pool.submit(self.answer, request)
                self._started.setdefault(id(request), []).append((request, future))

    def _taken(self, request):
        with self._lock:
            started = self._started.get(id(request))
            if not started:
                return None
            if len(started) == 1:
                del self._started[id(request)]
            return started.pop(0)[1]

    def cancel(self, requests):
        for request in requests:
            future = self._taken(request)
            if future is not None:
                future.cancel()

    def generate(self, request):
        future = self._taken(request)
        if future is None:
            if self._pool is None:
                return self.answer(request)
            future = self._pool.submit(self.answer, request)
        return future.result()

    def close(self):
        if self._pool is not None:
            self._pool.shutdown(wait=True)


def population_variance(samples: list[float]) -> float:
    """Reference variance, written independently of the implementation."""
    n = len(samples)
    mean = sum(samples) / n
    return sum((x - mean) ** 2 for x in samples) / n


def value_words(task_name: str, values: list[float]) -> list[str]:
    """Map numeric targets back to the words the value parser accepts."""
    if task_name == "crosswords":
        table = {20.0: "sure", 1.0: "maybe", 0.001: "impossible"}
    else:
        table = {20.0: "sure", 1.0: "likely", 0.001: "impossible"}
    return [table[v] for v in values]


def cyclic_garbage(fn: Callable[[], object]) -> int:
    """How many objects fn() leaves that only the cycle collector frees:
    fn runs with the collector off, and the count is what gc.collect()
    then finds."""
    gc.collect()
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        fn()
        return gc.collect()
    finally:
        if was_enabled:
            gc.enable()


class CacheLog:
    """A ResponseCache directory's log, read and written from outside the
    cache: one line per entry, the key, a space, the entry text and a
    newline."""

    def __init__(self, cache_dir: str | Path):
        self.path = Path(cache_dir) / LOG_NAME

    def raw(self) -> bytes:
        """The log's bytes; empty when there is no log."""
        return self.path.read_bytes() if self.path.exists() else b""

    def entries(self) -> dict[str, bytes]:
        """Each key's last complete line, without its newline."""
        lines = self.raw().split(b"\n")[:-1]  # the last is torn or empty
        return {
            line[:64].decode("latin-1"): line for line in lines if line[64:65] == b" "
        }

    def write(self, key: str, text: str | bytes) -> None:
        """Append a line holding ``text`` as the entry of ``key``: it is the
        entry a fresh cache, or one that misses on the key, reads."""
        if isinstance(text, str):
            text = text.encode("utf-8")
        with open(self.path, "ab") as log:
            log.write(key.encode() + b" " + text + b"\n")
