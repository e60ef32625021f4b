"""Tree search over reasoning states, plus single-shot prompting baselines.

Two strategies share one expansion/evaluation core:

* tout_bfs -- beam search: every step scores all frontier children and
  keeps the b best by confidence score.
* tout_dfs -- depth-first with thresholds: children passing both the
  value floor and the uncertainty ceiling are explored best-first;
  exhausted subtrees unwind (backtrack) to the parent.

Running either with luq_enabled=False and ugs_enabled=False is exactly
the plain value-guided baseline (tot_bfs/tot_dfs): same code path, same
transcript shape.

An episode builds one Calls (tout.calls) from its backend, cache and
transcript; every request it makes, and every event, goes through it.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field, replace
from typing import Optional

from .backends import Backend, BackendRequest
from .calls import Calls, ResponseCache
from .model import (
    InvalidArgumentError,
    ScoredState,
    SearchConfig,
    SearchExhaustedError,
    State,
    StateStore,
    TaskSpec,
    Transcript,
    extend_state,
)
from .uncertainty import evaluate_states

METHODS = ("io", "cot", "cot_sc", "tot_bfs", "tot_dfs", "tout_bfs", "tout_dfs")


@dataclass
class SearchResult:
    """What a finished episode hands back to the caller.

    ``best_state`` is the highest-scoring state among those eligible when
    the search stopped (final frontier for BFS, recorded outputs for DFS);
    it is None for the promptless baselines and for the degenerate case
    where nothing was ever evaluated. ``visited`` counts evaluated states.
    ``recorded_outputs`` keeps DFS candidates as (output, score) pairs in
    the order they were recorded; BFS and the baselines leave one entry.
    """

    final_output: str
    best_state: Optional[ScoredState]
    recorded_outputs: list[tuple[str, float]]
    store: Optional[StateStore]
    transcript: Transcript
    scored: dict[int, ScoredState] = field(default_factory=dict)

    @property
    def visited(self) -> int:
        return len(self.scored)


def propose_thoughts(
    task: TaskSpec, state: State, config: SearchConfig, calls: Calls
) -> list[str]:
    """One generator call yielding up to k candidate next thoughts."""
    prompt = task.propose_prompt(state, config.k)
    request = BackendRequest(prompt=prompt, temperature=config.t_max, n=1)
    response = calls.one(request)
    thoughts = task.parse_proposals(state, response.completions[0], config.k)
    # drop exact duplicates, first occurrence wins
    thoughts = list(dict.fromkeys(thoughts))[: config.k]
    calls.transcript.emit("expand", state_id=state.id, thoughts=list(thoughts))
    return thoughts


def finalize_output(
    task: TaskSpec, state: State, config: SearchConfig, calls: Calls
) -> str:
    """Produce the answer text for a finished state.

    Tasks whose answer is a deterministic function of the accepted
    thoughts render directly; the rest get one greedy generation.
    """
    prompt = task.final_prompt(state)
    if prompt is None:
        return task.render_output(state)
    request = BackendRequest(prompt=prompt, temperature=0.0, n=1)
    return task.parse_final(calls.one(request).completions[0])


def _rank(candidates: list[ScoredState]) -> list[ScoredState]:
    # ties: higher score, then lower uncertainty, then earlier creation
    return sorted(candidates, key=lambda ss: (-ss.score, ss.uncertainty, ss.state.id))


def tout_bfs(
    task: TaskSpec,
    problem_input: str,
    backend: Backend,
    config: SearchConfig,
    transcript: Optional[Transcript] = None,
    cache: Optional[ResponseCache] = None,
) -> SearchResult:
    """Beam search guided by the confidence score.

    Each of T steps expands every non-terminal frontier state, scores all
    children, and keeps the top b candidates. Terminal frontier states are
    carried forward with their existing scores and compete for beam slots.
    The answer comes from the best-scoring state in the final frontier.
    """
    config.validate()
    calls = Calls(backend, cache, transcript)
    transcript = calls.transcript
    store = StateStore()
    root = store.root(problem_input)
    frontier: list[State] = [root]
    scored: dict[int, ScoredState] = {}

    for step in range(1, config.T + 1):
        live = [s for s in frontier if not task.is_terminal(s)]
        carried = [s for s in frontier if task.is_terminal(s)]
        if not live:
            transcript.emit("note", step=step, text="frontier fully terminal")
            break
        children: list[State] = []
        for parent in live:
            for thought in propose_thoughts(task, parent, config, calls):
                children.append(extend_state(store, parent, thought))
        fresh = evaluate_states(task, children, config, calls)
        for ss in fresh:
            scored[ss.state.id] = ss
        candidates = [scored[s.id] for s in carried if s.id in scored] + fresh
        if not candidates:
            raise SearchExhaustedError(
                f"no candidates at step {step}: every frontier state "
                "proposed nothing",
                best_state=_best_frontier_state(
                    [ss.state for ss in scored.values()] or [root], scored
                )[1],
            )
        ranked = _rank(candidates)
        keep = ranked[: config.b]
        for ss in ranked[config.b :]:
            transcript.emit(
                "prune", state_id=ss.state.id, score=ss.score, reason="beam"
            )
        transcript.emit(
            "select", step=step, state_ids=[ss.state.id for ss in keep]
        )
        frontier = [ss.state for ss in keep]

    best_scored, best = _best_frontier_state(frontier, scored)
    output = finalize_output(task, best, config, calls)
    transcript.emit("final", state_id=best.id, output=output)
    score = best_scored.score if best_scored is not None else 0.0
    return SearchResult(
        final_output=output,
        best_state=best_scored,
        recorded_outputs=[(output, score)],
        store=store,
        transcript=transcript,
        scored=scored,
    )


def _best_frontier_state(
    frontier: list[State], scored: dict[int, ScoredState]
) -> tuple[Optional[ScoredState], State]:
    """Arg-max-score frontier member; unscored states (bare root) lose."""
    best: Optional[State] = None
    best_key: Optional[tuple] = None
    for s in frontier:
        ss = scored.get(s.id)
        key = (1, ss.score, -s.id) if ss is not None else (0, 0.0, -s.id)
        if best_key is None or key > best_key:
            best, best_key = s, key
    return scored.get(best.id), best


def tout_dfs(
    task: TaskSpec,
    problem_input: str,
    backend: Backend,
    config: SearchConfig,
    transcript: Optional[Transcript] = None,
    cache: Optional[ResponseCache] = None,
) -> SearchResult:
    """Depth-first search with value and uncertainty gates.

    Children are visited best-first; a child is explored only when its
    value exceeds v_th and its uncertainty stays below u_th, both strict.
    Reaching depth T or a terminal state records an output with that
    state's score (up to config.max_outputs); the answer is the recorded
    output with the highest score, earliest recording on ties. A run that
    records nothing raises SearchExhaustedError carrying the deepest
    state the recursion reached.
    """
    config.validate()
    calls = Calls(backend, cache, transcript)
    transcript = calls.transcript
    store = StateStore()
    root = store.root(problem_input)
    scored: dict[int, ScoredState] = {}
    recorded: list[tuple[State, str, float]] = []
    reached: list[State] = []

    def visit(state: State) -> bool:
        reached.append(state)
        if state.depth >= config.T or task.is_terminal(state):
            out = finalize_output(task, state, config, calls)
            ss = scored.get(state.id)
            score = ss.score if ss is not None else 0.0
            recorded.append((state, out, score))
            transcript.emit(
                "record_output", state_id=state.id, output=out, score=score
            )
            return len(recorded) >= config.max_outputs
        thoughts = propose_thoughts(task, state, config, calls)
        children = [extend_state(store, state, t) for t in thoughts]
        fresh = evaluate_states(task, children, config, calls)
        for ss in fresh:
            scored[ss.state.id] = ss
        for ss in _rank(fresh):
            if ss.value > config.v_th and ss.uncertainty < config.u_th:
                transcript.emit("select", state_id=ss.state.id, score=ss.score)
                if visit(ss.state):
                    return True
            else:
                transcript.emit(
                    "prune",
                    state_id=ss.state.id,
                    value=ss.value,
                    uncertainty=ss.uncertainty,
                    reason="threshold",
                )
        transcript.emit("backtrack", state_id=state.id)
        return False

    try:
        visit(root)
    finally:
        # visit refers to itself through its closure cell: dropping the name
        # breaks that cycle, so the episode is freed without the collector
        del visit
    if not recorded:
        # max() keeps the first maximum, i.e. the earliest-reached deepest
        deepest = max(reached, key=lambda s: s.depth)
        raise SearchExhaustedError(
            "every branch was pruned before any output was recorded",
            best_state=deepest,
        )
    win_state, final, win_score = max(recorded, key=lambda r: r[2])
    transcript.emit("final", state_id=win_state.id, output=final)
    return SearchResult(
        final_output=final,
        best_state=scored.get(win_state.id),
        recorded_outputs=[(out, score) for _, out, score in recorded],
        store=store,
        transcript=transcript,
        scored=scored,
    )


def _run_baseline(
    task: TaskSpec, prompt: str, config: SearchConfig, calls: Calls, vote: bool
) -> SearchResult:
    """The answer to a baseline prompt sampled at t_max. Each completion is
    cut to its final answer line, or to its stripped text when it has none.
    Without a vote one completion is the answer, a direct one (io) or a
    chain of thought (cot). With one (cot_sc, self-consistency), m chains
    are voted by canonicalized final answer: ties go to the answer whose
    first occurrence is earliest, and the output is that completion's raw
    answer text."""
    n = config.m if vote else 1
    response = calls.one(BackendRequest(prompt=prompt, temperature=config.t_max, n=n))
    answers: list[str] = []
    for text in response.completions:
        answer = task.extract_final_answer(text)
        answers.append(answer if answer is not None else text.strip())
    winner = 0
    if vote:
        canonical = [task.canonicalize_answer(a) for a in answers]
        counts = Counter(canonical)
        top = max(counts.values())
        winner = next(i for i, c in enumerate(canonical) if counts[c] == top)
        calls.transcript.emit("note", votes=canonical, winner=winner)
    output = answers[winner]
    calls.transcript.emit("final", output=output)
    return SearchResult(
        final_output=output,
        best_state=None,
        recorded_outputs=[(output, 0.0)],
        store=None,
        transcript=calls.transcript,
    )


def check_method(method: str) -> None:
    if method not in METHODS:
        raise InvalidArgumentError(
            f"unknown method {method!r}, expected one of {', '.join(METHODS)}"
        )


def run_method(
    method: str,
    task: TaskSpec,
    problem_input: str,
    backend: Backend,
    config: SearchConfig,
    transcript: Optional[Transcript] = None,
    cache: Optional[ResponseCache] = None,
) -> SearchResult:
    """Dispatch one episode by method name (see METHODS)."""
    check_method(method)
    if method in ("io", "cot", "cot_sc"):
        prompt = (task.io_prompt if method == "io" else task.cot_prompt)(problem_input)
        calls = Calls(backend, cache, transcript)
        return _run_baseline(task, prompt, config, calls, vote=method == "cot_sc")
    if method.startswith("tot_"):
        config = replace(config, luq_enabled=False, ugs_enabled=False)
    if method.endswith("_bfs"):
        return tout_bfs(task, problem_input, backend, config, transcript, cache)
    return tout_dfs(task, problem_input, backend, config, transcript, cache)
