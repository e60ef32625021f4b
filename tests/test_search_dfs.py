"""Depth-first search checked against an independent reference walker.

Twenty scripted trees (eight corner cases, twelve seeded random shapes)
are walked by a from-scratch reference implementation of the same rules:
visit children best-first, descend only when value > v_th and
uncertainty < u_th, record outputs at the depth limit, answer with the
highest-scoring recorded output. Every transcript event stream must
match the reference exactly.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field as dc_field

import pytest

from tout import SearchConfig, SearchExhaustedError, Transcript, tout_dfs
from tout.search import run_method
from tout.tasks import make_task
from tout.tasks.synthetic import SyntheticTreeTask, build_trap_benchmark

from helpers import EpisodeScript, cyclic_garbage, make_state


@dataclass
class TreeSpec:
    """A scripted tree: per-path (value, uncertainty) and child order."""

    T: int
    nodes: dict[tuple, tuple[float, float]]
    children: dict[tuple, list[str]]
    v_th: float = 0.5
    u_th: float = 1.0
    max_outputs: int = 3
    task_depth: int | None = None  # task terminality; defaults to T

    def config(self) -> SearchConfig:
        return SearchConfig(
            k=4, b=1, T=self.T, m=2, t_min=0.2, t_max=1.0,
            v_th=self.v_th, u_th=self.u_th, max_outputs=self.max_outputs,
        )

    def task(self) -> SyntheticTreeTask:
        depth = self.T if self.task_depth is None else self.task_depth
        return SyntheticTreeTask(max_steps=depth)


def sample_pair(value: float, uncertainty: float) -> tuple[float, float]:
    d = math.sqrt(uncertainty)
    return value - d, value + d


def build_script(spec: TreeSpec) -> EpisodeScript:
    config = spec.config()
    script = EpisodeScript(task=spec.task(), config=config)
    for path, labels in spec.children.items():
        script.propose(make_state("root", path), list(labels))
    for path, (v, u) in spec.nodes.items():
        a, b = sample_pair(v, u)
        script.value(make_state("root", path), [repr(a), repr(b)])
    return script


@dataclass
class ReferenceTrace:
    selects: list[tuple] = dc_field(default_factory=list)
    prunes: list[tuple] = dc_field(default_factory=list)
    backtracks: list[tuple] = dc_field(default_factory=list)
    records: list[tuple[tuple, float]] = dc_field(default_factory=list)
    reached: list[tuple] = dc_field(default_factory=list)
    evaluated: int = 0


def reference_trace(spec: TreeSpec) -> ReferenceTrace:
    """Walk the tree spec with independently written selection rules."""
    config = spec.config()
    task_depth = spec.T if spec.task_depth is None else spec.task_depth
    eps = config.epsilon
    trace = ReferenceTrace()

    def stats(path):
        a, b = sample_pair(*spec.nodes[path])
        mean = (a + b) / 2
        var = ((a - mean) ** 2 + (b - mean) ** 2) / 2
        return mean, var, mean / (var + eps)

    def walk(path) -> bool:
        trace.reached.append(path)
        if len(path) >= config.T or len(path) >= task_depth:
            score = stats(path)[2] if path else 0.0
            trace.records.append((path, score))
            return len(trace.records) >= config.max_outputs
        ordered = []
        for i, label in enumerate(spec.children.get(path, [])):
            child = path + (label,)
            mean, var, score = stats(child)
            ordered.append((child, mean, var, score, i))
        trace.evaluated += len(ordered)
        ordered.sort(key=lambda e: (-e[3], e[2], e[4]))
        for child, mean, var, _, _ in ordered:
            if mean > config.v_th and var < config.u_th:
                trace.selects.append(child)
                if walk(child):
                    return True
            else:
                trace.prunes.append(child)
        trace.backtracks.append(path)
        return False

    walk(())
    return trace


def render(path: tuple) -> str:
    return "/".join(("root",) + path)


def reference_outcome(trace: ReferenceTrace):
    """(final_path, final_score) or the deepest path when nothing recorded."""
    if trace.records:
        best = max(trace.records, key=lambda r: r[1])  # first max wins
        return ("answer", best)
    deepest = max(trace.reached, key=len)
    return ("exhausted", deepest)


def chain_tree() -> TreeSpec:
    return TreeSpec(
        T=3,
        nodes={("a",): (6.0, 0.25), ("a", "b"): (6.0, 0.25),
               ("a", "b", "c"): (6.0, 0.25)},
        children={(): ["a"], ("a",): ["b"], ("a", "b"): ["c"]},
    )


def all_pruned_tree() -> TreeSpec:
    return TreeSpec(
        T=2,
        nodes={("a",): (0.4, 0.25), ("b",): (0.3, 0.09)},
        children={(): ["a", "b"]},
    )


def dead_end_tree() -> TreeSpec:
    # "a" scores higher but leads nowhere; the search must unwind into "b"
    return TreeSpec(
        T=2,
        nodes={("a",): (8.0, 0.25), ("b",): (4.0, 0.25),
               ("b", "c"): (5.0, 0.25)},
        children={(): ["a", "b"], ("a",): [], ("b",): ["c"]},
    )


def boundary_tree() -> TreeSpec:
    # both thresholds are strict: v == v_th and u == u_th are pruned
    return TreeSpec(
        T=1,
        v_th=5.0,
        u_th=1.0,
        nodes={("at_v",): (5.0, 0.25), ("at_u",): (6.0, 1.0),
               ("pass",): (6.0, 0.25)},
        children={(): ["at_v", "at_u", "pass"]},
    )


def single_output_tree() -> TreeSpec:
    return TreeSpec(
        T=1,
        max_outputs=1,
        nodes={("a",): (6.0, 0.25), ("b",): (9.0, 0.25), ("c",): (7.0, 0.25)},
        children={(): ["a", "b", "c"]},
    )


def tied_outputs_tree() -> TreeSpec:
    # identical sample pairs give bit-identical scores; earliest recording
    # must win the final answer
    return TreeSpec(
        T=1,
        nodes={("a",): (6.0, 0.25), ("b",): (6.0, 0.25)},
        children={(): ["a", "b"]},
    )


def unreachable_threshold_tree() -> TreeSpec:
    return TreeSpec(
        T=2,
        v_th=1e18,
        nodes={("a",): (9.0, 0.01), ("b",): (9.5, 0.01)},
        children={(): ["a", "b"]},
    )


def terminal_root_tree() -> TreeSpec:
    return TreeSpec(T=2, task_depth=0, nodes={}, children={})


def random_tree(seed: int) -> TreeSpec:
    rng = random.Random(seed)
    T = rng.randint(1, 3)
    nodes: dict[tuple, tuple[float, float]] = {}
    children: dict[tuple, list[str]] = {}

    def grow(path):
        depth = len(path)
        if depth >= T:
            return
        count = rng.randint(1, 3) if depth == 0 else rng.randint(0, 3)
        labels = [f"d{depth}n{i}" for i in range(count)]
        children[path] = labels
        for label in labels:
            child = path + (label,)
            nodes[child] = (rng.uniform(0.0, 10.0), rng.uniform(0.0, 4.0))
            grow(child)

    grow(())
    return TreeSpec(
        T=T,
        nodes=nodes,
        children=children,
        v_th=rng.choice([0.5, 2.0, 5.0]),
        u_th=rng.choice([0.5, 1.0, 4.0]),
        max_outputs=rng.randint(1, 3),
    )


CORNER_TREES = [
    chain_tree,
    all_pruned_tree,
    dead_end_tree,
    boundary_tree,
    single_output_tree,
    tied_outputs_tree,
    unreachable_threshold_tree,
    terminal_root_tree,
]

ALL_TREES = [(fn.__name__, fn()) for fn in CORNER_TREES] + [
    (f"random_{seed}", random_tree(seed)) for seed in range(12)
]
assert len(ALL_TREES) == 20


def run_tree(spec: TreeSpec):
    transcript = Transcript()
    script = build_script(spec)
    try:
        result = tout_dfs(
            spec.task(), "root", script.backend(), spec.config(), transcript
        )
        return result, transcript, None
    except SearchExhaustedError as err:
        return None, transcript, err


def paths_of(kind, transcript, result):
    out = []
    for event in transcript.events:
        if event["event"] == kind:
            out.append(tuple(result.store.get(event["state_id"]).thoughts))
    return out


@pytest.mark.parametrize("name,spec", ALL_TREES, ids=[n for n, _ in ALL_TREES])
def test_trace_conformance(name, spec):
    reference = reference_trace(spec)
    kind, payload = reference_outcome(reference)
    result, transcript, err = run_tree(spec)

    if kind == "exhausted":
        assert err is not None, "reference exhausted but search answered"
        assert tuple(err.best_state.thoughts) == payload
        assert not [e for e in transcript.events if e["event"] == "record_output"]
        return

    assert err is None, f"search exhausted but reference answered: {err}"
    final_path, final_score = payload
    assert result.final_output == render(final_path)
    assert result.recorded_outputs == [
        (render(p), s) for p, s in reference.records
    ]
    assert result.visited == reference.evaluated
    assert paths_of("select", transcript, result) == reference.selects
    assert paths_of("prune", transcript, result) == reference.prunes
    assert paths_of("backtrack", transcript, result) == reference.backtracks
    recorded_events = [
        (tuple(result.store.get(e["state_id"]).thoughts), e["score"])
        for e in transcript.events
        if e["event"] == "record_output"
    ]
    assert recorded_events == reference.records
    if final_path:
        assert result.best_state is not None
        assert result.best_state.score == final_score
    else:
        assert result.best_state is None  # the root is never evaluated


class TestSpecificBehaviors:
    def test_dead_end_unwinds_and_recovers(self):
        spec = dead_end_tree()
        result, transcript, err = run_tree(spec)
        assert err is None
        assert result.final_output == "root/b/c"
        backtracks = paths_of("backtrack", transcript, result)
        assert ("a",) in backtracks

    def test_boundaries_are_strict(self):
        spec = boundary_tree()
        result, transcript, err = run_tree(spec)
        assert err is None
        pruned = set(paths_of("prune", transcript, result))
        assert pruned == {("at_v",), ("at_u",)}
        assert result.final_output == "root/pass"

    def test_max_outputs_stops_recording(self):
        spec = single_output_tree()
        result, _, err = run_tree(spec)
        assert err is None
        assert len(result.recorded_outputs) == 1
        # best-first means the strongest child is explored first anyway
        assert result.final_output == "root/b"

    def test_tied_scores_take_earliest_recording(self):
        spec = tied_outputs_tree()
        result, _, err = run_tree(spec)
        assert err is None
        assert result.final_output == "root/a"
        assert len(result.recorded_outputs) == 2
        assert result.recorded_outputs[0][1] == result.recorded_outputs[1][1]

    def test_exhaustion_reports_deepest_state(self):
        spec = TreeSpec(
            T=3,
            nodes={("a",): (6.0, 0.25), ("a", "b"): (7.0, 0.25),
                   ("a", "b", "x"): (0.0, 0.0)},
            children={(): ["a"], ("a",): ["b"], ("a", "b"): []},
            max_outputs=3,
        )
        # a/b is reachable but childless at depth 2 < T, so nothing records
        _, transcript, err = run_tree(spec)
        assert err is not None
        assert tuple(err.best_state.thoughts) == ("a", "b")

    def test_terminal_root_records_zero_score(self):
        spec = terminal_root_tree()
        result, _, err = run_tree(spec)
        assert err is None
        assert result.final_output == "root"
        assert result.recorded_outputs == [("root", 0.0)]
        assert result.visited == 0
        assert result.best_state is None

    def test_higher_scoring_later_output_wins(self):
        # best-first only orders siblings: the strong subtree entrance "x"
        # leads to a weak leaf, recorded first, and the winner arrives later
        spec = TreeSpec(
            T=2,
            nodes={("x",): (7.0, 0.25), ("y",): (6.0, 0.25),
                   ("x", "c"): (1.0, 0.25), ("y", "c"): (9.0, 0.25)},
            children={(): ["x", "y"], ("x",): ["c"], ("y",): ["c"]},
        )
        result, _, err = run_tree(spec)
        assert err is None
        assert [out for out, _ in result.recorded_outputs] == ["root/x/c", "root/y/c"]
        scores = [s for _, s in result.recorded_outputs]
        assert scores[1] > scores[0]
        assert result.final_output == "root/y/c"


def trap_episode():
    """One depth-3 trap episode of the given method, on a fresh oracle."""
    benchmark = build_trap_benchmark(depth=3)
    config = SearchConfig(k=5, b=1, T=3, m=4)
    return lambda method: run_method(
        method, benchmark.task(), "root", benchmark.backend(0), config
    )


def game24_episode():
    """One scripted game24 episode: at each level the right step is valued
    sure and the wrong one impossible, so both searches solve it."""
    task = make_task("game24")
    config = SearchConfig(k=2, b=1, T=3, m=3)
    script = EpisodeScript(task=task, config=config)
    puzzle = "4 9 10 13"
    levels = [
        ("13 - 9 = 4 (left: 4 4 10)", "4 + 9 = 13 (left: 10 13 13)"),
        ("10 - 4 = 6 (left: 4 6)", "4 + 4 = 8 (left: 8 10)"),
        ("4 * 6 = 24 (left: 24)", "4 + 6 = 10 (left: 10)"),
    ]
    thoughts: tuple[str, ...] = ()
    for right, wrong in levels:
        script.propose(make_state(puzzle, thoughts), [right, wrong])
        script.value(make_state(puzzle, thoughts + (right,)), ["sure"] * 3)
        script.value(make_state(puzzle, thoughts + (wrong,)), ["impossible"] * 3)
        thoughts += (right,)
    script.final(make_state(puzzle, thoughts), "Answer: 4 * (10 - (13 - 9)) = 24")
    backend = script.backend()
    return lambda method: run_method(method, task, puzzle, backend, config)


@pytest.mark.parametrize("method", ["tout_bfs", "tout_dfs"])
@pytest.mark.parametrize("episode", [trap_episode, game24_episode])
def test_an_episode_leaves_no_cyclic_garbage(episode, method):
    """An episode's states, scores and oracle are freed as soon as it
    ends, not kept alive by a reference cycle until the collector runs."""
    run = episode()
    assert run(method).final_output  # warm: lazy set-up is not the episode's
    assert cyclic_garbage(lambda: run(method)) == 0
