"""Tests of the benchmark itself: its output contract, gate and tracer.

Run from the repository root: ``python3 -m pytest bench/tests -q``.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import workload as wl  # noqa: E402
from responder import Game24Responder  # noqa: E402
from tracer import Patches, Tracer  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def run_bench(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", "3",
         "--seconds", "1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_every_metric_is_printed_with_its_unit(workload, trace):
    done = run_bench(ROOT, workload, trace)
    assert done.returncode == 0, done.stderr
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    expected = SPEC["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in expected}
    for metric in expected:
        printed = result["metrics"][metric["name"]]
        assert printed["unit"] == metric["unit"]
        assert isinstance(printed["value"], (int, float))
        assert any(line.startswith(f"{metric['name']} = ") and f" {metric['unit']}" in line
                   for line in lines[:-1])


def test_without_the_engine_it_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    done = run_bench(tmp_path, "trap_cpu", 0)
    assert done.returncode != 0
    assert done.stdout.strip() == ""


class FlipOne(Game24Responder):
    """Answers one value prompt with the opposite label."""

    def __init__(self, seed):
        super().__init__(seed)
        self.flipped = None

    def complete(self, prompt, temperature, index=0):
        text = super().complete(prompt, temperature, index)
        if self.flipped is None and text.endswith("\nsure"):
            self.flipped = (prompt, temperature)
            return text[: -len("sure")] + "impossible"
        return text


def first_chunk_gate(tmp_path, responder=None) -> wl.Totals:
    game = wl.Game24Http(5, tmp_path, http=False, responder=responder)
    game.setup()
    totals = wl.Totals()
    with wl.timed_episodes(game):
        chunk = next(game.chunks())
        game.check(chunk, game.run_chunk(chunk, totals), wl.load_reference(), totals)
    return totals


def test_gate_passes_the_reference_responder(tmp_path):
    assert first_chunk_gate(tmp_path).mismatches == []


def test_gate_fails_when_one_answer_is_flipped(tmp_path):
    responder = FlipOne(5)
    totals = first_chunk_gate(tmp_path, responder)
    assert responder.flipped is not None
    assert len(totals.mismatches) == 1 and "game24/5[0]" in totals.mismatches[0]


@pytest.mark.parametrize("share, some_fail", [(0.0, False), (0.01, True)])
def test_failed_ratio_counts_episodes_hit_by_http_500(tmp_path, share, some_fail):
    game = wl.Game24Http(2, tmp_path, delay_ms=0.0, fail_share=share, backoff_s=0.001)
    game.setup()
    try:
        with wl.timed_episodes(game):
            spans = tmp_path / "spans.tsv"
            metrics, _, phases = wl.per_layer(game, wl.load_reference(), 0.5, spans)
    finally:
        game.close()
    attempted = sum(p.attempted for p in phases)
    failed = sum(p.failed for p in phases)
    assert attempted >= 2
    assert metrics["harness.failed_ratio"] == failed / attempted
    if some_fail:
        assert 0 < failed
        assert metrics["backends.errors_per_episode"] > 0
        assert any(p.mismatches for p in phases)
    else:
        assert failed == 0 and metrics["backends.errors_per_episode"] == 0


def traced_trap_chunk(tmp_path, config) -> tuple[Tracer, wl.Totals]:
    trap = wl.TrapCpu(1, tmp_path)
    trap.config = config
    tracer, patches, totals = Tracer(), Patches(), wl.Totals()
    with wl.timed_episodes(trap):
        try:
            wl.trace_engine(trap, tracer, patches)
            chunk = next(trap.chunks())
            call = tracer.wrap("run_benchmark", wl.run_benchmark)
            trap.check(chunk, trap.run_chunk(chunk, totals, call), wl.load_reference(), totals)
        finally:
            patches.restore()
    return tracer, totals


@pytest.mark.parametrize("eval_workers", [1, 3])
def test_spans_keep_their_parent_and_episode_across_worker_threads(tmp_path, eval_workers):
    tracer, totals = traced_trap_chunk(tmp_path, replace(wl.CONFIG, eval_workers=eval_workers))
    assert totals.mismatches == []
    spans = {s[0]: s for s in tracer.spans}
    samples = [s for s in spans.values() if s[3] == "sample_values"]
    assert len(samples) == 6 * wl.TRAP_CHUNK  # BFS: 3 steps x 2 children per episode
    for span in samples:
        parent = spans[span[1]]
        assert parent[3] == "evaluate_state" and parent[2] == span[2] != 0
        assert spans[parent[1]][3] == "tout_bfs"


def test_layer_self_times_sum_to_the_traced_wall(tmp_path):
    tracer, totals = traced_trap_chunk(tmp_path, wl.CONFIG)
    metrics, _ = wl.layer_metrics(tracer.spans, totals.wall_s)
    assert 0.95 < metrics["trace.attributed_ratio"] <= 1.0
    assert metrics["backends.calls_per_episode"] == 123
    assert metrics["uncertainty.samples_per_state"] == 20


def test_responder_final_answer_solves_the_puzzle():
    from tout.tasks import Game24Task, solution_verdicts

    task = Game24Task()
    prompt = task.final_prompt(wl_state("4 9 10 13", ["13 - 9 = 4 (left: 4 4 10)",
                                                      "10 - 4 = 6 (left: 4 6)",
                                                      "4 * 6 = 24 (left: 24)"]))
    answer = task.parse_final(Game24Responder(0).complete(prompt, 0.0))
    assert solution_verdicts(answer, "4 9 10 13")["success"] == 1.0


def wl_state(puzzle, thoughts):
    from tout import StateStore, extend_state

    store = StateStore()
    state = store.root(puzzle)
    for thought in thoughts:
        state = extend_state(store, state, thought)
    return state
