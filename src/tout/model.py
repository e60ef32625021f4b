"""Core data model: search states, scores, task contract, run configuration.

Everything downstream (backends, uncertainty estimation, the search loops,
task plugins, the benchmark harness) shares the types defined here. States
are immutable once constructed and safe to share across worker threads; the
single search loop owns all writes to the state store.
"""

from __future__ import annotations

import json
import math
import re
from dataclasses import asdict, dataclass
from types import MappingProxyType
from typing import Any, Iterable, Mapping, Optional, Sequence


class InvalidArgumentError(ValueError):
    """A caller violated an operation precondition."""


class MissingStateError(KeyError):
    """A state id could not be resolved in the store."""

    def __init__(self, state_id: int):
        super().__init__(state_id)
        self.state_id = state_id

    def __str__(self) -> str:
        return f"state id {self.state_id} is not in the store"


class BackendUnavailableError(RuntimeError):
    """The text-generation backend failed after exhausting retries."""

    def __init__(self, message: str, last_status: Optional[int] = None):
        super().__init__(message)
        self.last_status = last_status


class SearchExhaustedError(RuntimeError):
    """The search ran out of viable states before producing an output.

    Carries the best (or deepest) partial state reached so callers can
    still inspect how far the search got.
    """

    def __init__(self, message: str, best_state: Any = None):
        super().__init__(message)
        self.best_state = best_state


@dataclass(frozen=True)
class State:
    """A node in the search tree: the problem input plus the accepted thoughts.

    Invariants: ``depth == len(thoughts)``; the root has no thoughts, depth 0
    and no parent; a child's thoughts equal its parent's plus one appended
    thought. Identity is a run-local counter, not a content hash: identical
    thought texts under different parents are distinct states.
    """

    input: str
    thoughts: tuple[str, ...]
    depth: int
    id: int
    parent_id: Optional[int] = None

    def __post_init__(self):
        if self.depth != len(self.thoughts):
            raise InvalidArgumentError(
                f"depth {self.depth} != number of thoughts {len(self.thoughts)}"
            )
        if self.depth == 0 and self.parent_id is not None:
            raise InvalidArgumentError("a root state cannot have a parent")


@dataclass(frozen=True)
class ScoredState:
    """A state annotated with its evaluated value, uncertainty and score.

    ``uncertainty`` is the population variance of ``samples``; ``score`` is
    the selection criterion (value / (uncertainty + epsilon) when
    uncertainty-aware selection is on, plain value otherwise).
    """

    state: State
    value: float
    uncertainty: float
    score: float
    samples: tuple[float, ...]
    temperatures: tuple[float, ...]

    def __post_init__(self):
        if len(self.samples) != len(self.temperatures):
            raise InvalidArgumentError("samples and temperatures must align")
        if len(self.samples) < 1:
            raise InvalidArgumentError("at least one sample is required")
        if self.uncertainty < 0:
            raise InvalidArgumentError("uncertainty must be non-negative")


class StateStore:
    """Run-local store of states, keyed by a monotonically increasing id.

    The store is the only allocator of state ids. Reads are safe from any
    thread; writes happen only from the search-loop owner.
    """

    def __init__(self):
        self._states: dict[int, State] = {}
        self._next_id = 0

    def _allocate(self, **kwargs) -> State:
        state = State(id=self._next_id, **kwargs)
        self._states[state.id] = state
        self._next_id += 1
        return state

    def root(self, problem_input: str) -> State:
        return self._allocate(input=problem_input, thoughts=(), depth=0)

    def get(self, state_id: int) -> State:
        try:
            return self._states[state_id]
        except KeyError:
            raise MissingStateError(state_id) from None

    def __len__(self) -> int:
        return len(self._states)

    def __iter__(self) -> Iterable[State]:
        return iter(self._states.values())


def extend_state(store: StateStore, parent: State, thought: str) -> State:
    """Append one thought to ``parent``, returning a fresh child state."""
    if not thought:
        raise InvalidArgumentError("thought must be non-empty text")
    return store._allocate(
        input=parent.input,
        thoughts=parent.thoughts + (thought,),
        depth=parent.depth + 1,
        parent_id=parent.id,
    )


# Highest sampling temperature a backend request may carry, as the
# chat-completions API bounds it; the lowest is 0.
MAX_TEMPERATURE = 2.0


@dataclass
class SearchConfig:
    """Shared knobs for the search loops and the value estimator.

    k: candidates per expansion; b: breadth limit (BFS); T: global steps;
    m: Monte Carlo sampling steps; t_min/t_max: temperature schedule bounds;
    v_th/u_th: DFS value and uncertainty thresholds; epsilon: score
    regularizer. With luq_enabled off, m is forced to 1 and the schedule
    collapses to the single value t_max; with ugs_enabled off, selection
    falls back to the plain value.
    """

    k: int = 5
    b: int = 1
    T: int = 3
    m: int = 20
    t_min: float = 0.2
    t_max: float = 1.0
    v_th: float = 0.5
    u_th: float = 1.0
    epsilon: float = 1e-6
    luq_enabled: bool = True
    ugs_enabled: bool = True
    seed: int = 0
    max_outputs: int = 3
    eval_workers: int = 1

    def validate(self) -> None:
        if self.k < 1 or self.b < 1 or self.T < 1 or self.m < 1:
            raise InvalidArgumentError("k, b, T and m must be positive")
        for name in ("t_min", "t_max", "v_th", "u_th", "epsilon"):
            if math.isnan(getattr(self, name)):
                raise InvalidArgumentError(f"{name} must be a number, not NaN")
        if not (0 <= self.t_min <= self.t_max <= MAX_TEMPERATURE):
            raise InvalidArgumentError(
                f"require 0 <= t_min <= t_max <= {MAX_TEMPERATURE:g}"
            )
        # an infinite u_th or a -inf v_th turns its DFS gate off
        if self.u_th <= 0:
            raise InvalidArgumentError("u_th must be positive")
        if not (0 < self.epsilon < math.inf):
            raise InvalidArgumentError("epsilon must be positive and finite")
        if self.max_outputs < 1:
            raise InvalidArgumentError("max_outputs must be positive")
        if self.eval_workers < 1:
            raise InvalidArgumentError("eval_workers must be positive")

    def snapshot(self) -> dict[str, Any]:
        return asdict(self)


# Event kinds persisted in a RunRecord. Backend-level "generate" events stay
# in the live transcript only: they carry wall-clock latency, which would
# break replay determinism if persisted.
RECORD_EVENT_KINDS = frozenset(
    {
        "expand",
        "sample",
        "evaluate",
        "select",
        "prune",
        "backtrack",
        "record_output",
        "final",
        "note",
    }
)


class Transcript:
    """Ordered event log for one episode.

    Events are plain dicts with an ``event`` kind key. ``record_events()``
    filters the log down to the kinds that belong in a persisted RunRecord.
    """

    def __init__(self):
        self.events: list[dict[str, Any]] = []

    def emit(self, kind: str, **data: Any) -> None:
        # data is a dict of its own, built for this call: it is the event
        data["event"] = kind
        self.events.append(data)

    def record_events(self) -> list[dict[str, Any]]:
        return [e for e in self.events if e["event"] in RECORD_EVENT_KINDS]

    def __len__(self) -> int:
        return len(self.events)


def best_path_from_events(events: Sequence[dict]) -> Optional[list[str]]:
    """Thought path of the highest-scoring evaluated state, earliest on ties."""
    best_path: Optional[list[str]] = None
    best_score: Optional[float] = None
    for event in events:
        if event.get("event") != "evaluate":
            continue
        score = event.get("score")
        if score is None or "path" not in event:
            continue
        if best_score is None or score > best_score:
            best_score = score
            best_path = list(event["path"])
    return best_path


@dataclass
class RunRecord:
    """One benchmark episode: config, transcript, final output, verdicts."""

    config: dict[str, Any]
    task: str
    problem_id: str
    events: list[dict[str, Any]]
    final_output: str
    verdicts: dict[str, float]

    def to_json(self) -> str:
        payload = {
            "config": self.config,
            "task": self.task,
            "problem_id": self.problem_id,
            "events": self.events,
            "final_output": self.final_output,
            "verdicts": self.verdicts,
        }
        return json.dumps(payload, sort_keys=True, separators=(",", ":"))

    @classmethod
    def from_json(cls, line: str) -> "RunRecord":
        """Parse one record line; a field of the wrong shape is a TypeError
        that names it, so resume skips the line rather than crash on it."""
        data = json.loads(line)
        for key in ("config", "verdicts"):
            if not isinstance(data[key], dict):
                raise TypeError(f"{key} is not a JSON object")
        for key in ("task", "problem_id", "final_output"):
            if not isinstance(data[key], str):
                raise TypeError(f"{key} is not a string")
        if not isinstance(data["config"].get("digest", ""), str):
            raise TypeError("config.digest is not a string")
        events = data["events"]
        if not isinstance(events, list) or not all(
            isinstance(event, dict) for event in events
        ):
            raise TypeError("events is not a list of JSON objects")
        for name, value in data["verdicts"].items():
            if type(value) not in (int, float):  # a bool is not a score
                raise TypeError(f"verdict {name!r} is not a number")
        return cls(
            config=data["config"],
            task=data["task"],
            problem_id=data["problem_id"],
            events=data["events"],
            final_output=data["final_output"],
            verdicts=data["verdicts"],
        )


def _last_label_pattern(labels: Iterable[str]) -> re.Pattern[str]:
    """A pattern whose first match in a reversed, lowercased text is the
    text's last label, spelled backwards. A label is a whole run of a-z
    letters, so a key with any other character never matches."""
    words = [label[::-1] for label in labels if re.fullmatch("[a-z]+", label)]
    return re.compile(f"(?<![a-z])(?:{'|'.join(words) or '(?!)'})(?![a-z])")


class TaskSpec:
    """Pluggable task contract.

    A task supplies step decomposition (prompt builders + proposal parsing),
    value prompting and decoding, terminal detection and the exact success
    checker. ``parse_value`` must be total: any malformed completion decodes
    to ``min_value`` instead of raising, so one bad sample cannot abort a
    multi-sample estimate.
    """

    name: str = "task"
    max_steps: int = 1
    min_value: float = 0.001
    # the evaluator's value labels (ToT's sure/likely/impossible) and their values
    value_map: Mapping[str, float] = MappingProxyType({})
    _last_label = _last_label_pattern(value_map)

    def __init_subclass__(cls, **kwargs: Any):
        super().__init_subclass__(**kwargs)
        cls._last_label = _last_label_pattern(cls.value_map)

    def propose_prompt(self, state: State, k: int) -> str:
        raise NotImplementedError

    def parse_proposals(self, state: State, text: str, k: int) -> list[str]:
        raise NotImplementedError

    def value_prompt(self, state: State) -> str:
        raise NotImplementedError

    def parse_value(self, text: str) -> float:
        """The value of the last value_map label in the text, in any case,
        or min_value when it has none.

        The reversed text is searched, so the scan stops at the last label
        rather than splitting the whole text into words. The labels are
        read from the class's value_map when the class is created.
        """
        match = self._last_label.search(text.lower()[::-1])
        return self.value_map[match[0][::-1]] if match else self.min_value

    def is_terminal(self, state: State) -> bool:
        return state.depth >= self.max_steps

    def check_success(self, output: str, truth: Any) -> dict[str, float]:
        raise NotImplementedError

    def extra_verdicts(self, events: Sequence[dict], truth: Any) -> dict[str, float]:
        """Verdicts read from an episode's recorded events, beyond the
        final output's; merged into the record after check_success's."""
        return {}

    # Final-output production. When final_prompt returns None the task can
    # render the output deterministically from the state alone (crossword
    # boards, synthetic paths); otherwise the engine issues one greedy
    # generation and feeds it through parse_final.
    def final_prompt(self, state: State) -> Optional[str]:
        return None

    def parse_final(self, text: str) -> str:
        return text.strip()

    def render_output(self, state: State) -> str:
        return "\n".join(state.thoughts)

    # Non-tree baselines.
    def io_prompt(self, problem_input: str) -> str:
        raise NotImplementedError

    def cot_prompt(self, problem_input: str) -> str:
        raise NotImplementedError

    def extract_final_answer(self, text: str) -> Optional[str]:
        stripped = text.strip()
        return stripped or None

    def canonicalize_answer(self, answer: str) -> str:
        return " ".join(answer.split())
