"""Outside-in tracing of the tout engine: spans around its public functions.

Nothing under ``src/`` knows about this module. ``Patches`` swaps a
function for a wrapper everywhere the ``tout`` package holds a reference to
it: ``tout.search`` and ``tout.uncertainty`` bind ``cached_generate`` and
``evaluate_state`` by name at import, so patching the defining module alone
would record nothing. Methods are wrapped on the one instance the
benchmark owns (task, backend, cache) or, for ``RunRecord.to_json``, on the
class. Every patch is undone by ``Patches.restore``.

A span is (id, parent id, episode id, name, start ns, end ns, info). The
span stack is thread-local; ``ThreadPoolExecutor.submit`` is wrapped while
tracing so a task started on a worker thread gets the submitting thread's
open span as its parent. Spans stay in memory until ``write``.
"""

from __future__ import annotations

import functools
import itertools
import statistics
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path
from typing import Any, Callable, Optional

# Span name -> layer. The layers are the engine's modules.
LAYERS = {
    "run_benchmark": "harness",
    "RunRecord.to_json": "harness",
    "run_method": "search",
    "tout_bfs": "search",
    "tout_dfs": "search",
    "propose_thoughts": "search",
    "finalize_output": "search",
    "evaluate_state": "uncertainty",
    "sample_values": "uncertainty",
    "cached_generate": "backends",
    "generate": "backends",
    "Backend.generate": "backends",
    "ResponseCache.get": "backends",
    "ResponseCache.put": "backends",
}
TASK_METHODS = (
    "propose_prompt",
    "parse_proposals",
    "value_prompt",
    "parse_value",
    "is_terminal",
    "check_success",
    "final_prompt",
    "parse_final",
    "render_output",
)
for _method in TASK_METHODS:
    LAYERS[f"task.{_method}"] = "tasks"
LAYER_NAMES = ("tasks", "uncertainty", "search", "backends", "harness")

# An enclosing span decides the kind of a backend call.
CALL_KINDS = {
    "propose_thoughts": "propose",
    "sample_values": "value",
    "finalize_output": "final",
}

RAISED = -1


class Patches:
    """Reversible attribute replacements."""

    def __init__(self) -> None:
        self._undo: list[tuple[Any, str, Any, bool]] = []

    def set(self, owner: Any, attr: str, value: Any) -> None:
        had_own = attr in vars(owner)
        self._undo.append((owner, attr, vars(owner).get(attr), had_own))
        setattr(owner, attr, value)

    def everywhere(self, original: Callable, replacement: Callable) -> int:
        """Replace every reference the tout package holds to ``original``."""
        count = 0
        for name, module in list(sys.modules.items()):
            if name != "tout" and not name.startswith("tout."):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    self.set(module, attr, replacement)
                    count += 1
        if count == 0:
            raise RuntimeError(f"no reference to {original.__qualname__} found in tout")
        return count

    def restore(self) -> None:
        while self._undo:
            owner, attr, value, had_own = self._undo.pop()
            if had_own:
                setattr(owner, attr, value)
            else:
                delattr(owner, attr)


class Tracer:
    """Records spans; ``wrap`` makes a traced version of a callable."""

    def __init__(self) -> None:
        self.spans: list[tuple[int, int, int, str, int, int, int]] = []
        self._ids = itertools.count(1)
        self._local = threading.local()

    def _stack(self) -> list[tuple[int, int]]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = [(0, 0)]
        return stack

    def wrap(
        self,
        name: str,
        fn: Callable,
        info: Optional[Callable[[Any], int]] = None,
        episode: bool = False,
    ) -> Callable:
        """``fn`` recorded as span ``name``; ``info`` maps its result to an int.

        An ``episode`` span starts a new episode id that its descendants carry.
        """
        ids = self._ids
        spans = self.spans
        stack_of = self._stack
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = stack_of()
            parent, episode_id = stack[-1]
            span_id = next(ids)
            if episode:
                episode_id = span_id
            stack.append((span_id, episode_id))
            detail = 0
            start = clock()
            try:
                result = fn(*args, **kwargs)
                if info is not None:
                    detail = info(result)
                return result
            except BaseException:
                detail = RAISED
                raise
            finally:
                end = clock()
                stack.pop()
                spans.append((span_id, parent, episode_id, name, start, end, detail))

        return traced

    def propagate_into_pools(self, patches: Patches) -> None:
        """Give tasks submitted to a thread pool the submitter's open span."""
        original = ThreadPoolExecutor.submit
        stack_of = self._stack

        def submit(pool, fn, /, *args, **kwargs):
            context = stack_of()[-1]

            def run(*a, **k):
                stack = stack_of()
                stack.append(context)
                try:
                    return fn(*a, **k)
                finally:
                    stack.pop()

            return original(pool, run, *args, **kwargs)

        patches.set(ThreadPoolExecutor, "submit", submit)

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as handle:
            handle.write("id\tparent\tepisode\tname\tstart_ns\tend_ns\tinfo\n")
            for span in sorted(self.spans):
                handle.write("\t".join(map(str, span)) + "\n")


LAYER_UNITS = {
    "tasks.calls_per_episode": "calls",
    "tasks.self_ms_per_episode": "ms",
    "uncertainty.states_per_episode": "count",
    "uncertainty.samples_per_state": "count",
    "uncertainty.self_ms_per_episode": "ms",
    "search.expansions_per_episode": "count",
    "search.self_ms_per_episode": "ms",
    "backends.calls_per_episode": "calls",
    "backends.calls.propose": "calls",
    "backends.calls.value": "calls",
    "backends.calls.final": "calls",
    "backends.wait_ms_per_episode": "ms",
    "backends.call_ms_p50": "ms",
    "backends.call_ms_tail": "ms",
    "backends.in_flight_mean": "ratio",
    "backends.cache_hit_ratio": "ratio",
    "backends.cache_get_ms_per_episode": "ms",
    "backends.cache_put_ms_per_episode": "ms",
    "backends.errors_per_episode": "count",
    "backends.self_ms_per_episode": "ms",
    "harness.self_ms_per_episode": "ms",
    "harness.to_json_ms_per_episode": "ms",
    "harness.record_bytes_per_episode": "bytes",
    "harness.failed_ratio": "ratio",
    "trace.overhead_ratio": "ratio",
    "trace.attributed_ratio": "ratio",
}


def covered(intervals: list[tuple[int, int]], lo: int, hi: int) -> int:
    """Length of [lo, hi) covered by the union of the intervals."""
    total = 0
    reach = lo
    for start, end in sorted(intervals):
        start, end = max(start, reach), min(end, hi)
        if end > start:
            total += end - start
            reach = end
    return total


def p90(values: list[float]) -> tuple[float, int]:
    """The 90th percentile (nearest rank) and the number of samples beyond it.

    A fixed percentile, not the highest one with ten samples beyond it: in a
    run of fixed length a faster engine completes more episodes, which
    would push that percentile further out and read as a slower tail.
    """
    ordered = sorted(values)
    index = -(-9 * len(ordered) // 10) - 1
    return ordered[index], len(ordered) - 1 - index


def layer_metrics(
    spans: list[tuple], traced_wall_s: float
) -> tuple[dict[str, float], dict[str, str]]:
    """Per-layer metrics from one traced run, plus notes on tail percentiles."""
    by_id = {s[0]: s for s in spans}
    children: dict[int, list[tuple[int, int]]] = {}
    for span_id, parent, _, _, start, end, _ in spans:
        children.setdefault(parent, []).append((start, end))

    self_ns = dict.fromkeys(LAYER_NAMES, 0)
    counts: dict[str, int] = {}
    for span_id, parent, _, name, start, end, _ in spans:
        counts[name] = counts.get(name, 0) + 1
        own = end - start - covered(children.get(span_id, []), start, end)
        self_ns[LAYERS[name]] += own
    episodes = counts.get("run_method", 0)
    if episodes == 0:
        raise RuntimeError("the traced run recorded no run_method span")

    def total_ms(name: str) -> float:
        return sum(s[5] - s[4] for s in spans if s[3] == name) / 1e6

    def kind_of(span: tuple) -> str:
        parent = span[1]
        while parent:
            up = by_id.get(parent)
            if up is None:
                break
            if up[3] in CALL_KINDS:
                return CALL_KINDS[up[3]]
            parent = up[1]
        return "other"

    calls = [s for s in spans if s[3] == "Backend.generate"]
    call_ms = [(s[5] - s[4]) / 1e6 for s in calls]
    kinds = {"propose": 0, "value": 0, "final": 0, "other": 0}
    for span in calls:
        kinds[kind_of(span)] += 1
    gets = [s for s in spans if s[3] == "ResponseCache.get"]
    hits = sum(1 for s in gets if s[6] == 1)
    samples = sum(s[6] for s in spans if s[3] == "sample_values" and s[6] != RAISED)
    states = counts.get("evaluate_state", 0)
    episode_ms = total_ms("run_method")
    wait_ms = sum(call_ms)
    per = 1.0 / episodes
    tail, beyond = p90(call_ms) if call_ms else (0.0, 0)
    metrics = {
        "tasks.calls_per_episode": sum(v for k, v in counts.items() if LAYERS[k] == "tasks") * per,
        "uncertainty.states_per_episode": states * per,
        "uncertainty.samples_per_state": samples / states if states else 0.0,
        "search.expansions_per_episode": counts.get("propose_thoughts", 0) * per,
        "backends.calls_per_episode": len(calls) * per,
        "backends.calls.propose": kinds["propose"] * per,
        "backends.calls.value": kinds["value"] * per,
        "backends.calls.final": kinds["final"] * per,
        "backends.wait_ms_per_episode": wait_ms * per,
        "backends.call_ms_p50": statistics.median(call_ms) if call_ms else 0.0,
        "backends.call_ms_tail": tail,
        "backends.in_flight_mean": wait_ms / episode_ms,
        "backends.cache_hit_ratio": hits / len(gets) if gets else 0.0,
        "backends.cache_get_ms_per_episode": total_ms("ResponseCache.get") * per,
        "backends.cache_put_ms_per_episode": total_ms("ResponseCache.put") * per,
        "backends.errors_per_episode": sum(1 for s in calls if s[6] == RAISED) * per,
        "harness.to_json_ms_per_episode": total_ms("RunRecord.to_json") * per,
        "harness.record_bytes_per_episode": sum(
            s[6] for s in spans if s[3] == "RunRecord.to_json"
        ) * per,
    }
    for layer in LAYER_NAMES:
        metrics[f"{layer}.self_ms_per_episode"] = self_ns[layer] / 1e6 * per
    metrics["trace.attributed_ratio"] = sum(self_ns.values()) / 1e9 / traced_wall_s
    notes = {"backends.call_ms_tail": f"p90 of {len(call_ms)} calls, {beyond} beyond"}
    return metrics, notes
