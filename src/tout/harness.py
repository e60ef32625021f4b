"""Benchmark harness: episodes, aggregation, ablations and sweeps.

Every episode produces a RunRecord line in a JSONL file keyed by problem
id plus a digest of the effective configuration; rerunning the same
benchmark skips episodes whose records already exist, so interrupted runs
resume where they stopped. Failed episodes (a backend outage or an episode
error) rerun instead, and the record appended last for a key wins.
Aggregated metrics are means of the per-episode verdict values, reported
as rows with a fixed column order for the CSV and markdown emitters.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import logging
import math
import threading
import time
from collections import Counter
from concurrent.futures import ThreadPoolExecutor, as_completed
from contextlib import nullcontext
from dataclasses import dataclass, replace
from pathlib import Path
from statistics import NormalDist
from typing import Callable, Optional, Sequence

from .backends import Backend, ResponseCache
from .model import (
    BackendUnavailableError,
    InvalidArgumentError,
    RunRecord,
    SearchConfig,
    SearchExhaustedError,
    TaskSpec,
    Transcript,
)
from .search import check_method, run_method
from .tasks import Problem
from .tasks.synthetic import TrapBenchmark

log = logging.getLogger(__name__)

RESULT_COLUMNS = ("method", "m", "b", "metric", "value", "episodes", "seconds")


class RunAbortedError(RuntimeError):
    """Too many episodes failed; the partial records remain on disk."""


@dataclass(frozen=True)
class ResultRow:
    method: str
    m: int
    b: int
    metric: str
    value: float
    episodes: int
    seconds: float
    digest: str = ""


@dataclass
class EpisodeResult:
    problem_id: str
    verdicts: dict[str, float]
    seconds: float
    record: RunRecord
    resumed: bool = False


@dataclass
class BenchmarkReport:
    task: str
    method: str
    config: SearchConfig
    metrics: dict[str, float]
    episodes: int
    seconds: float
    results: list[EpisodeResult]
    digest: str = ""

    def rows(self) -> list[ResultRow]:
        """One row per metric, values scaled to percentages in [0, 100]."""
        return [
            ResultRow(
                method=self.method,
                m=self.config.m,
                b=self.config.b,
                metric=metric,
                value=self.metrics[metric] * 100.0,
                episodes=self.episodes,
                seconds=self.seconds,
                digest=self.digest,
            )
            for metric in sorted(self.metrics)
        ]


def episode_seed(run_seed: int, index: int) -> int:
    return run_seed ^ index


def config_digest(task_name: str, method: str, config: SearchConfig) -> str:
    # eval_workers changes how a run executes, not what it records: it stays
    # in the persisted snapshot but not in the digest, so a rerun that
    # differs only in it resumes.
    snapshot = config.snapshot()
    del snapshot["eval_workers"]
    payload = json.dumps(
        {"task": task_name, "method": method, "config": snapshot},
        sort_keys=True,
        separators=(",", ":"),
    )
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()[:16]


def default_run_id(task_name: str, method: str, config: SearchConfig) -> str:
    """Stable, filename-safe identity for one benchmark invocation."""
    return f"{task_name}-{method}-{config_digest(task_name, method, config)}"


def load_existing_records(path: str | Path) -> dict[tuple[str, str], RunRecord]:
    """Index of completed episodes: (problem_id, config digest) -> record.

    When a key has several lines, as a failed episode that was rerun does,
    the last one wins. Unreadable lines are skipped with a warning. A final
    line without its newline was torn by an interrupted append: it is cut
    from the file, so the next append starts on a line of its own and that
    episode reruns.
    """
    existing: dict[tuple[str, str], RunRecord] = {}
    path = Path(path)
    if not path.exists():
        return existing
    with open(path, "rb") as handle:
        data = handle.read()
    complete = data.rfind(b"\n") + 1
    if complete < len(data):
        log.warning(
            "%s: cutting a torn final line of %d bytes", path, len(data) - complete
        )
        with open(path, "r+b") as handle:
            handle.truncate(complete)
    for number, line in enumerate(data[:complete].splitlines(), 1):
        if not line.strip():
            continue
        try:
            record = RunRecord.from_json(line.decode("utf-8"))
        except (ValueError, KeyError, TypeError) as exc:  # ValueError: JSON, UTF-8
            log.warning("%s:%d: skipping an unreadable record: %s", path, number, exc)
            continue
        digest = record.config.get("digest", "")
        existing[(record.problem_id, digest)] = record
    return existing


def _episode_failed(verdicts: dict[str, float]) -> bool:
    """A backend outage or an episode error: the run counts it toward the
    abort, and a resumed run reruns it. An exhausted search is an outcome."""
    return 1.0 in (verdicts.get("backend_error"), verdicts.get("error"))


def _run_episode(
    task: TaskSpec,
    problem: Problem,
    method: str,
    backend: Backend,
    config: SearchConfig,
    cache: Optional[ResponseCache],
    digest: str,
) -> EpisodeResult:
    transcript = Transcript()
    started = time.perf_counter()
    outcome = None  # the verdict naming how the episode failed to finish
    output = ""
    try:
        result = run_method(
            method, task, problem.input, backend, config, transcript, cache
        )
        output = result.final_output
    except SearchExhaustedError as exc:
        outcome = "exhausted"
        if exc.best_state is not None:
            output = task.render_output(exc.best_state)
        transcript.emit("note", text="search exhausted", fallback_output=output)
    except BackendUnavailableError as exc:
        outcome = "backend_error"
        transcript.emit("note", text=f"backend unavailable: {exc}")
    except Exception as exc:
        # a fault in one episode fails that episode, not the run
        log.exception("episode %s failed", problem.problem_id)
        outcome = "error"
        transcript.emit("note", text=f"episode failed: {type(exc).__name__}: {exc}")
    seconds = time.perf_counter() - started

    verdicts = dict(task.check_success(output, problem.truth))
    if outcome is not None:
        verdicts[outcome] = 1.0
    events = transcript.record_events()
    verdicts.update(task.extra_verdicts(events, problem.truth))

    record = RunRecord(
        config={"method": method, "digest": digest, "search": config.snapshot()},
        task=task.name,
        problem_id=problem.problem_id,
        events=events,
        final_output=output,
        verdicts=verdicts,
    )
    return EpisodeResult(
        problem_id=problem.problem_id,
        verdicts=verdicts,
        seconds=seconds,
        record=record,
    )


def run_benchmark(
    task: TaskSpec,
    problems: Sequence[Problem],
    method: str,
    backend_factory: Callable[[int], Backend],
    config: SearchConfig,
    *,
    cache: Optional[ResponseCache] = None,
    record_path: Optional[str | Path] = None,
    run_seed: int = 0,
    jobs: int = 1,
    label: Optional[str] = None,
) -> BenchmarkReport:
    """Run one method over a problem list and aggregate verdicts.

    backend_factory receives each episode's seed (run_seed XOR episode
    index), so stochastic backends are reproducible per episode while a
    shared HTTP backend can simply ignore it. record_path is opened once,
    before the first episode, and each record is flushed to it as its
    episode ends. Episodes whose records are already present in record_path
    are not rerun, except failed ones, which run again and append their new
    record. A backend failure (verdict ``backend_error``) or any other
    exception (verdict ``error``, with a note naming it) fails its episode,
    whose record is kept, and the run continues, unless more than half of
    all episodes fail, which aborts the whole run as soon as that is known:
    under ``jobs`` the episodes not yet started are cancelled.
    KeyboardInterrupt is not caught.
    """
    config.validate()
    check_method(method)  # a usage error, not an episode's fault
    if not problems:
        raise InvalidArgumentError("no episodes selected: the problem list is empty")
    # records are keyed by problem id: a repeated id would resume from,
    # and be scored by, another problem's record
    counts = Counter(problem.problem_id for problem in problems)
    repeated = sorted(pid for pid, count in counts.items() if count > 1)
    if repeated:
        raise InvalidArgumentError(f"problem ids repeat: {', '.join(repeated)}")
    if jobs < 1:
        raise InvalidArgumentError("jobs must be >= 1")
    base = replace(config, seed=run_seed)
    digest = config_digest(task.name, method, base)
    existing = load_existing_records(record_path) if record_path else {}
    write_lock = threading.Lock()

    def run_one(index: int, problem: Problem) -> EpisodeResult:
        record = existing.get((problem.problem_id, digest))
        if record is not None and not _episode_failed(record.verdicts):
            return EpisodeResult(
                problem_id=problem.problem_id,
                verdicts=dict(record.verdicts),
                seconds=0.0,
                record=record,
                resumed=True,
            )
        seed = episode_seed(run_seed, index)
        episode_config = replace(config, seed=seed)
        result = _run_episode(
            task, problem, method, backend_factory(seed), episode_config, cache, digest
        )
        if records is not None:
            with write_lock:
                records.write(result.record.to_json() + "\n")
                records.flush()
        return result

    total = len(problems)

    def check_abort(failures: int) -> None:
        if failures * 2 > total:
            raise RunAbortedError(
                f"aborted: {failures} of {total} episodes failed on backend "
                "or episode errors; completed episode records were kept"
            )

    failed = 0
    # every episode started has ended before the handle closes
    handle = open(record_path, "a", encoding="utf-8") if record_path else nullcontext()
    with handle as records:
        if jobs == 1:
            results = []
            for i, p in enumerate(problems):
                result = run_one(i, p)
                results.append(result)
                failed += _episode_failed(result.verdicts)
                check_abort(failed)
        else:
            results = [None] * total
            with ThreadPoolExecutor(max_workers=jobs) as pool:
                futures = {
                    pool.submit(run_one, i, p): i for i, p in enumerate(problems)
                }
                try:
                    for future in as_completed(futures):
                        result = results[futures[future]] = future.result()
                        failed += _episode_failed(result.verdicts)
                        check_abort(failed)
                except BaseException:
                    # episodes not yet started would only spend backend calls
                    pool.shutdown(cancel_futures=True)
                    raise

    keys: set[str] = set()
    for result in results:
        keys.update(result.verdicts)
    metrics = {
        key: math.fsum(r.verdicts.get(key, 0.0) for r in results) / len(results)
        for key in keys
    }
    return BenchmarkReport(
        task=task.name,
        method=label or method,
        config=base,
        metrics=metrics,
        episodes=len(results),
        seconds=math.fsum(r.seconds for r in results),
        results=results,
        digest=digest,
    )


# grid order: (luq, ugs) = (off, off), (on, off), (off, on), (on, on)
ABLATION_GRID = (
    (False, False),
    (True, False),
    (False, True),
    (True, True),
)


def ablation_label(method: str, luq: bool, ugs: bool) -> str:
    luq_tag = "on" if luq else "off"
    ugs_tag = "on" if ugs else "off"
    return f"{method}[luq={luq_tag},ugs={ugs_tag}]"


def run_ablation(
    task: TaskSpec,
    problems: Sequence[Problem],
    method: str,
    backend_factory: Callable[[int], Backend],
    config: SearchConfig,
    **kwargs,
) -> list[BenchmarkReport]:
    """The 2x2 grid over the uncertainty switches, one report per cell."""
    reports = []
    for luq, ugs in ABLATION_GRID:
        cell = replace(config, luq_enabled=luq, ugs_enabled=ugs)
        reports.append(
            run_benchmark(
                task,
                problems,
                method,
                backend_factory,
                cell,
                label=ablation_label(method, luq, ugs),
                **kwargs,
            )
        )
    return reports


def run_m_sweep(
    task: TaskSpec,
    problems: Sequence[Problem],
    method: str,
    backend_factory: Callable[[int], Backend],
    config: SearchConfig,
    m_values: Sequence[int],
    **kwargs,
) -> list[BenchmarkReport]:
    """One report per sample count m, all else held fixed."""
    if not m_values:
        raise InvalidArgumentError("m_values must not be empty")
    reports = []
    for m in m_values:
        reports.append(
            run_benchmark(
                task,
                problems,
                method,
                backend_factory,
                replace(config, m=m),
                **kwargs,
            )
        )
    return reports


def synthetic_setup(
    benchmark: TrapBenchmark, episodes: int
) -> tuple[TaskSpec, list[Problem], Callable[[int], Backend]]:
    """Task, problems and per-episode backend factory for a trap benchmark.

    Each episode replays the same tree with a freshly seeded value oracle,
    so the success rate estimates the method's probability of staying on
    the true path.
    """
    task = benchmark.task()
    problems = [
        Problem(problem_id=f"synthetic/{i}", input="root", truth=benchmark.truth)
        for i in range(episodes)
    ]
    return task, problems, benchmark.backend


def report_rows(reports: Sequence[BenchmarkReport]) -> list[ResultRow]:
    rows: list[ResultRow] = []
    for report in reports:
        rows.extend(report.rows())
    return rows


def emit_results(rows: Sequence[ResultRow], fmt: str = "csv") -> str:
    """Rows rendered as CSV or a markdown table, fixed column order."""
    if fmt not in ("csv", "markdown"):
        raise InvalidArgumentError(f"unknown format {fmt!r}, expected csv or markdown")
    table = [RESULT_COLUMNS] + [
        (row.method, str(row.m), str(row.b), row.metric, str(row.value),
         str(row.episodes), f"{row.seconds:.3f}")
        for row in rows
    ]
    if fmt == "csv":
        buffer = io.StringIO()
        csv.writer(buffer, lineterminator="\n").writerows(table)
        return buffer.getvalue()
    lines = ["| " + " | ".join(cells) + " |" for cells in table]
    lines.insert(1, "| " + " | ".join("---" for _ in RESULT_COLUMNS) + " |")
    return "\n".join(lines) + "\n"


def two_proportion_z(
    successes_a: int, n_a: int, successes_b: int, n_b: int
) -> tuple[float, float]:
    """z statistic and two-sided p-value for H0: the two rates are equal."""
    if min(n_a, n_b) <= 0:
        raise ValueError("both sample sizes must be positive")
    pooled = (successes_a + successes_b) / (n_a + n_b)
    if pooled <= 0.0 or pooled >= 1.0:
        return 0.0, 1.0
    se = math.sqrt(pooled * (1.0 - pooled) * (1.0 / n_a + 1.0 / n_b))
    z = (successes_a / n_a - successes_b / n_b) / se
    p = 2.0 * (1.0 - NormalDist().cdf(abs(z)))
    return z, p
