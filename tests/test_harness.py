"""Benchmark harness: digests, resumability, aggregation, emitters.

Runs here use the trap benchmark at shallow depth so a full report takes
milliseconds; the heavier statistical separation lives in the acceptance
suite.
"""

from __future__ import annotations

import csv
import io
import json
import logging
import time

from dataclasses import replace

import pytest

from tout.backends import (
    Backend,
    BackendRequest,
    BackendResponse,
    ResponseCache,
    SyntheticOracleBackend,
)
from tout.harness import (
    ABLATION_GRID,
    RESULT_COLUMNS,
    ResultRow,
    RunAbortedError,
    ablation_label,
    config_digest,
    default_run_id,
    emit_results,
    episode_seed,
    load_existing_records,
    run_ablation,
    run_benchmark,
    run_m_sweep,
    report_rows,
    synthetic_setup,
    two_proportion_z,
)
from tout.cli import main
from tout.model import (
    InvalidArgumentError,
    RunRecord,
    SearchConfig,
    best_path_from_events,
)
from tout.tasks import Problem, make_task
from tout.tasks.synthetic import SyntheticTreeTask, build_trap_benchmark


def quick_setup(episodes=4, depth=1):
    return synthetic_setup(build_trap_benchmark(depth=depth), episodes)


QUICK = SearchConfig(k=2, b=1, T=1, m=3)


class TestIdentity:
    def test_episode_seed_is_xor(self):
        assert episode_seed(0, 5) == 5
        assert episode_seed(7, 7) == 0
        assert episode_seed(12, 10) == 12 ^ 10

    def test_digest_stable_across_processes(self):
        a = config_digest("game24", "tout_bfs", SearchConfig(m=5))
        b = config_digest("game24", "tout_bfs", SearchConfig(m=5))
        assert a == b
        assert len(a) == 16

    def test_digest_distinguishes_everything(self):
        base = SearchConfig(m=5)
        digests = {
            config_digest("game24", "tout_bfs", base),
            config_digest("crosswords", "tout_bfs", base),
            config_digest("game24", "tout_dfs", base),
            config_digest("game24", "tout_bfs", replace(base, m=6)),
            config_digest("game24", "tout_bfs", replace(base, seed=1)),
            config_digest("game24", "tout_bfs", replace(base, luq_enabled=False)),
        }
        assert len(digests) == 6

    def test_default_run_id_shape(self):
        run_id = default_run_id("synthetic", "tout_bfs", QUICK)
        task, method, digest = run_id.split("-")
        assert (task, method) == ("synthetic", "tout_bfs")
        assert digest == config_digest("synthetic", "tout_bfs", QUICK)


class TestRunBenchmark:
    def test_aggregates_recompute_exactly(self):
        task, problems, factory = quick_setup(episodes=6)
        report = run_benchmark(task, problems, "tout_bfs", factory, QUICK,
                               run_seed=3)
        assert report.episodes == 6
        successes = sum(
            r.verdicts.get("success", 0.0) == 1.0 for r in report.results
        )
        assert report.metrics["success"] * 100.0 == (successes / 6) * 100.0
        (row,) = [r for r in report.rows() if r.metric == "success"]
        assert row.value == (successes / 6) * 100.0
        assert 0.0 <= row.value <= 100.0
        assert row.digest == report.digest

    def test_determinism_bit_identical_records(self, tmp_path):
        task, problems, factory = quick_setup(episodes=4)
        for name in ("a.jsonl", "b.jsonl"):
            run_benchmark(task, problems, "tout_bfs", factory, QUICK,
                          record_path=tmp_path / name, run_seed=9)
        assert (tmp_path / "a.jsonl").read_bytes() == (
            tmp_path / "b.jsonl"
        ).read_bytes()

    def test_resume_skips_completed_episodes(self, tmp_path):
        task, problems, factory = quick_setup(episodes=4)
        path = tmp_path / "records.jsonl"
        first = run_benchmark(task, problems, "tout_bfs", factory, QUICK,
                              record_path=path, run_seed=1)
        before = path.read_text()
        second = run_benchmark(task, problems, "tout_bfs", factory, QUICK,
                               record_path=path, run_seed=1)
        assert path.read_text() == before  # nothing re-appended
        assert all(r.resumed for r in second.results)
        assert not any(r.resumed for r in first.results)
        assert second.metrics == first.metrics

    def test_resume_ignores_other_configs(self, tmp_path):
        task, problems, factory = quick_setup(episodes=2)
        path = tmp_path / "records.jsonl"
        run_benchmark(task, problems, "tout_bfs", factory, QUICK,
                      record_path=path, run_seed=1)
        other = run_benchmark(task, problems, "tout_bfs", factory,
                              replace(QUICK, m=4), record_path=path, run_seed=1)
        assert not any(r.resumed for r in other.results)
        # both runs now coexist in the file
        assert len(load_existing_records(path)) == 4

    def test_parallel_jobs_match_sequential(self, tmp_path):
        task, problems, factory = quick_setup(episodes=6)
        seq = run_benchmark(task, problems, "tout_bfs", factory, QUICK,
                            run_seed=2, jobs=1)
        par = run_benchmark(task, problems, "tout_bfs", factory, QUICK,
                            run_seed=2, jobs=4)
        assert seq.metrics == par.metrics
        assert [r.record.to_json() for r in seq.results] == [
            r.record.to_json() for r in par.results
        ]

    def test_eval_workers_do_not_change_records(self):
        task, problems, factory = quick_setup(episodes=3)
        one = run_benchmark(task, problems, "tout_bfs", factory,
                            replace(QUICK, k=3, eval_workers=1), run_seed=4)
        four = run_benchmark(task, problems, "tout_bfs", factory,
                             replace(QUICK, k=3, eval_workers=4), run_seed=4)
        # eval_workers is left out of the digest but kept in the persisted
        # search snapshot, so the digests agree and the records' configs do not
        assert one.digest == four.digest
        assert [r.record.events for r in one.results] == [
            r.record.events for r in four.results
        ]

    def test_rerun_differing_only_in_eval_workers_resumes(self, tmp_path):
        task, problems, factory = quick_setup(episodes=3)
        path = tmp_path / "records.jsonl"
        run_benchmark(task, problems, "tout_bfs", factory,
                      replace(QUICK, eval_workers=1), record_path=path, run_seed=4)
        before = path.read_bytes()
        again = run_benchmark(task, problems, "tout_bfs", factory,
                              replace(QUICK, eval_workers=4), record_path=path,
                              run_seed=4)
        assert all(r.resumed for r in again.results)
        assert path.read_bytes() == before

    def test_resume_cuts_a_torn_final_line(self, tmp_path, caplog):
        task, problems, factory = quick_setup(episodes=4)
        path = tmp_path / "records.jsonl"
        run_benchmark(task, problems, "tout_bfs", factory, QUICK,
                      record_path=path, run_seed=1)
        whole = path.read_bytes()
        path.write_bytes(whole[:-25])  # an append cut short
        with caplog.at_level(logging.WARNING, logger="tout.harness"):
            again = run_benchmark(task, problems, "tout_bfs", factory, QUICK,
                                  record_path=path, run_seed=1)
        assert "torn final line" in caplog.text
        assert [r.resumed for r in again.results] == [True, True, True, False]
        # the rerun episode is appended on a line of its own
        assert path.read_bytes() == whole

    def test_resume_skips_an_unreadable_line(self, tmp_path, caplog):
        task, problems, factory = quick_setup(episodes=2)
        path = tmp_path / "records.jsonl"
        run_benchmark(task, problems, "tout_bfs", factory, QUICK,
                      record_path=path, run_seed=1)
        first, second = path.read_text().splitlines(keepends=True)
        path.write_text(first + "{not json\n" + second)
        with caplog.at_level(logging.WARNING, logger="tout.harness"):
            records = load_existing_records(path)
        assert len(records) == 2
        assert "records.jsonl:2: skipping an unreadable record" in caplog.text

    @pytest.mark.parametrize("field", ["config", "verdicts"])
    def test_resume_skips_a_line_whose_field_is_not_an_object(
        self, tmp_path, caplog, field
    ):
        task, problems, factory = quick_setup(episodes=2)
        path = tmp_path / "records.jsonl"
        run_benchmark(task, problems, "tout_bfs", factory, QUICK,
                      record_path=path, run_seed=1)
        first, second = path.read_text().splitlines(keepends=True)
        bad = json.loads(first)
        bad[field] = [bad[field]]
        path.write_text(first + json.dumps(bad) + "\n" + second)
        with caplog.at_level(logging.WARNING, logger="tout.harness"):
            records = load_existing_records(path)
        assert len(records) == 2
        assert f"records.jsonl:2: skipping an unreadable record: {field}" in caplog.text

    @pytest.mark.parametrize(
        "field, wrong, message",
        [
            ("task", 7, "task is not a string"),
            ("problem_id", ["synthetic/1"], "problem_id is not a string"),
            ("final_output", None, "final_output is not a string"),
            ("config.digest", ["d"], "config.digest is not a string"),
            ("events", {"event": "final"}, "events is not a list of JSON objects"),
            ("events", ["final"], "events is not a list of JSON objects"),
            ("verdicts.success", "yes", "verdict 'success' is not a number"),
            ("verdicts.success", True, "verdict 'success' is not a number"),
        ],
    )
    def test_resume_skips_a_line_with_a_wrong_shape_field(
        self, tmp_path, caplog, field, wrong, message
    ):
        task, problems, factory = quick_setup(episodes=2)
        path = tmp_path / "records.jsonl"
        run_benchmark(task, problems, "tout_bfs", factory, QUICK,
                      record_path=path, run_seed=1)
        bad = json.loads(path.read_text().splitlines()[1])
        *outer, name = field.split(".")
        target = bad
        for key in outer:
            target = target[key]
        target[name] = wrong
        # the last line of a key wins, so a bad line that loaded would
        # stand in for the second episode
        with open(path, "a", encoding="utf-8") as handle:
            handle.write(json.dumps(bad) + "\n")
        before = path.read_bytes()
        with caplog.at_level(logging.WARNING, logger="tout.harness"):
            again = run_benchmark(task, problems, "tout_bfs", factory, QUICK,
                                  record_path=path, run_seed=1)
        assert f"records.jsonl:3: skipping an unreadable record: {message}" in caplog.text
        assert all(r.resumed for r in again.results)
        assert path.read_bytes() == before

    def test_repeated_problem_ids_error_before_running(self, tmp_path):
        # both problems would resume from, and be scored by, one record
        task, problems, factory = quick_setup(episodes=2)
        path = tmp_path / "records.jsonl"
        twins = [problems[0], replace(problems[1], problem_id=problems[0].problem_id)]
        with pytest.raises(InvalidArgumentError, match="problem ids repeat: synthetic/0"):
            run_benchmark(task, twins, "tout_bfs", factory, QUICK, record_path=path)
        assert not path.exists()

    def test_empty_problem_list_errors_before_running(self):
        task, _, factory = quick_setup()
        with pytest.raises(InvalidArgumentError):
            run_benchmark(task, [], "tout_bfs", factory, QUICK)

    def test_exhausted_episode_scores_zero_but_continues(self):
        # a childless tree makes the first expansion propose nothing
        oracle = SyntheticOracleBackend(
            true_value={"root": 10.0}, noise_std={"root": 0.5}, seed=0, children={}
        )
        task = build_trap_benchmark(depth=1).task()
        problems = [
            Problem(problem_id=f"synthetic/{i}", input="root", truth="root/good")
            for i in range(2)
        ]
        report = run_benchmark(task, problems, "tout_bfs", lambda s: oracle, QUICK)
        assert report.metrics["exhausted"] == 1.0
        assert report.metrics["success"] == 0.0


class _FailingBackend(Backend):
    backend_id = "failing"

    def __init__(self, delay_s: float = 0.0):
        self.delay_s = delay_s

    def generate(self, request: BackendRequest):
        from tout.model import BackendUnavailableError

        time.sleep(self.delay_s)
        raise BackendUnavailableError("synthetic outage", last_status=503)


class TestAbort:
    def _problems(self, n):
        return [
            Problem(problem_id=f"synthetic/{i}", input="root", truth="root/good")
            for i in range(n)
        ]

    def test_majority_failures_abort(self, tmp_path):
        task = build_trap_benchmark(depth=1).task()
        path = tmp_path / "records.jsonl"
        with pytest.raises(RunAbortedError):
            run_benchmark(task, self._problems(4), "tout_bfs",
                          lambda s: _FailingBackend(), QUICK, record_path=path)
        # completed (failed) episode records stay on disk
        lines = [l for l in path.read_text().splitlines() if l.strip()]
        assert len(lines) >= 1
        record = RunRecord.from_json(lines[0])
        assert record.verdicts["backend_error"] == 1.0

    def test_minority_failures_continue(self):
        benchmark = build_trap_benchmark(depth=1)

        def factory(seed):
            if seed == 0:
                return _FailingBackend()
            return benchmark.backend(seed)

        task, problems, _ = quick_setup(episodes=5)
        report = run_benchmark(task, problems, "tout_bfs", factory, QUICK)
        assert report.episodes == 5
        assert report.metrics["backend_error"] == pytest.approx(1 / 5)

    def test_parallel_abort_cancels_episodes_not_started(self):
        task = build_trap_benchmark(depth=1).task()
        started = []

        def factory(seed):
            started.append(seed)
            return _FailingBackend(delay_s=0.02)

        with pytest.raises(RunAbortedError):
            run_benchmark(task, self._problems(10), "tout_bfs", factory, QUICK, jobs=2)
        # the sixth failure crosses the threshold with at most two more running
        assert len(started) < 10

    def test_parallel_abort_after_settling(self):
        task = build_trap_benchmark(depth=1).task()
        with pytest.raises(RunAbortedError):
            run_benchmark(task, self._problems(4), "tout_bfs",
                          lambda s: _FailingBackend(), QUICK, jobs=2)


class _StrictValueTask(SyntheticTreeTask):
    """The trap tree with a value parser that raises on what it cannot read."""

    def parse_value(self, text):
        if text == "garbled":
            raise RuntimeError("value text unreadable")
        return super().parse_value(text)


class _GarbledValues(Backend):
    """The oracle's answers, with every value answer replaced by garble."""

    def __init__(self, inner):
        self.inner = inner
        self.backend_id = inner.backend_id

    def generate(self, request):
        response = self.inner.generate(request)
        if request.prompt.startswith("VALUE "):
            return BackendResponse(completions=("garbled",) * request.n)
        return response


class TestEpisodeErrors:
    """An unexpected exception in one episode fails that episode alone."""

    def _run(self, bad_seeds, jobs, record_path=None, task=None):
        bench = build_trap_benchmark(depth=2)
        _, problems, _ = synthetic_setup(bench, episodes=3)

        def factory(seed):
            backend = bench.backend(seed)
            return _GarbledValues(backend) if seed in bad_seeds else backend

        return run_benchmark(task or _StrictValueTask(max_steps=2), problems,
                             "tout_bfs", factory, QUICK, record_path=record_path,
                             jobs=jobs)

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_erroring_episode_is_recorded_and_the_run_goes_on(self, tmp_path, jobs):
        clean = self._run(set(), jobs)
        path = tmp_path / "records.jsonl"
        report = self._run({1}, jobs, record_path=path)
        assert report.episodes == 3
        assert report.metrics["error"] == pytest.approx(1 / 3)
        for i in (0, 2):
            assert report.results[i].record.to_json() == clean.results[i].record.to_json()
        failed = report.results[1]
        assert failed.verdicts["error"] == 1.0
        assert failed.verdicts["success"] == 0.0
        notes = [e["text"] for e in failed.record.events if e["event"] == "note"]
        assert notes == ["episode failed: RuntimeError: value text unreadable"]
        persisted = load_existing_records(path)
        assert sorted(key for key, _ in persisted) == [f"synthetic/{i}" for i in range(3)]
        assert failed.record in persisted.values()

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_erroring_majority_aborts(self, tmp_path, jobs):
        path = tmp_path / "records.jsonl"
        with pytest.raises(RunAbortedError):
            self._run({0, 1}, jobs, record_path=path)
        errors = [r.verdicts.get("error") for r in load_existing_records(path).values()]
        assert errors.count(1.0) == 2

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_keyboard_interrupt_propagates(self, jobs):
        class InterruptedTask(SyntheticTreeTask):
            def parse_value(self, text):
                raise KeyboardInterrupt

        with pytest.raises(KeyboardInterrupt):
            self._run(set(), jobs, task=InterruptedTask(max_steps=2))


class _NegativeValueBug(SyntheticTreeTask):
    """The trap tree with a value parser that wrongly assumes values are
    non-negative. At run seed 10 only episode 1 draws a negative value."""

    def parse_value(self, text):
        value = super().parse_value(text)
        if value < 0:
            raise ValueError(f"negative value {text}")
        return value


class _CountedBackend(Backend):
    """Passes requests to the wrapped backend, logging each in ``calls``."""

    def __init__(self, inner, calls):
        self.inner = inner
        self.calls = calls
        self.backend_id = inner.backend_id

    def generate(self, request):
        self.calls.append(request.prompt)
        return self.inner.generate(request)


class TestResumeRerunsFailures:
    """A resumed run reruns the episodes that failed (``backend_error`` or
    ``error``); their new records are appended and win on later resumes."""

    def _problems(self):
        bench = build_trap_benchmark(depth=2)
        _, problems, _ = synthetic_setup(bench, episodes=3)
        return bench, problems

    def _run(self, task, problems, factory, path, jobs, run_seed):
        return run_benchmark(task, problems, "tout_bfs", factory, QUICK,
                             record_path=path, run_seed=run_seed, jobs=jobs)

    def _check_rerun_heals(self, bench, problems, path, jobs, run_seed):
        """Reruns healthy over ``path``, whose episode 1 failed, then again."""
        task = bench.task()
        clean = run_benchmark(task, problems, "tout_bfs", bench.backend, QUICK,
                              run_seed=run_seed)
        failed_lines = path.read_text().splitlines(keepends=True)
        assert len(failed_lines) == 3
        calls = []

        def counted(seed):
            return _CountedBackend(bench.backend(seed), calls)

        second = self._run(task, problems, counted, path, jobs, run_seed)
        assert [r.resumed for r in second.results] == [True, False, True]
        assert calls  # episode 1 called the backend again
        assert [r.record.to_json() for r in second.results] == [
            r.record.to_json() for r in clean.results
        ]
        assert second.metrics == clean.metrics  # no failure verdicts left
        # the failed record stays on disk; the rerun's record is appended
        lines = path.read_text().splitlines(keepends=True)
        assert lines[:3] == failed_lines
        assert lines[3:] == [clean.results[1].record.to_json() + "\n"]
        # the last line of a key wins when the file is read back
        persisted = load_existing_records(path)
        assert len(persisted) == 3
        assert persisted[("synthetic/1", second.digest)] == clean.results[1].record

        before = path.read_bytes()
        calls.clear()
        third = self._run(task, problems, counted, path, jobs, run_seed)
        assert all(r.resumed for r in third.results)
        assert calls == []
        assert third.metrics == clean.metrics
        assert path.read_bytes() == before

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_backend_error_episode_reruns(self, tmp_path, jobs):
        bench, problems = self._problems()
        path = tmp_path / "records.jsonl"

        def outage(seed):
            return _FailingBackend() if seed == 1 else bench.backend(seed)

        first = self._run(bench.task(), problems, outage, path, jobs, run_seed=0)
        assert [r.verdicts.get("backend_error") for r in first.results] == [
            None, 1.0, None
        ]
        self._check_rerun_heals(bench, problems, path, jobs, run_seed=0)

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_error_episode_reruns_after_the_task_is_fixed(self, tmp_path, jobs):
        bench, problems = self._problems()
        path = tmp_path / "records.jsonl"
        first = self._run(_NegativeValueBug(max_steps=2), problems,
                          bench.backend, path, jobs, run_seed=10)
        assert [r.verdicts.get("error") for r in first.results] == [None, 1.0, None]
        self._check_rerun_heals(bench, problems, path, jobs, run_seed=10)

    def test_exhausted_episode_resumes(self, tmp_path):
        # a childless tree makes the first expansion propose nothing
        task = build_trap_benchmark(depth=1).task()
        _, problems, _ = quick_setup(episodes=2)
        path = tmp_path / "records.jsonl"
        calls = []

        def childless(seed):
            oracle = SyntheticOracleBackend({"root": 10.0}, {"root": 0.5}, seed=seed)
            return _CountedBackend(oracle, calls)

        first = run_benchmark(task, problems, "tout_bfs", childless, QUICK,
                              record_path=path)
        assert first.metrics["exhausted"] == 1.0
        before = path.read_bytes()
        calls.clear()
        again = run_benchmark(task, problems, "tout_bfs", childless, QUICK,
                              record_path=path)
        assert all(r.resumed for r in again.results)
        assert calls == []
        assert path.read_bytes() == before


class TestSyntheticCache:
    def test_cached_run_matches_uncached_and_replays_without_calls(self, tmp_path):
        # each episode's oracle has its own seed, so its own cache entries
        task, problems, oracle = quick_setup(episodes=8, depth=3)
        config = SearchConfig(k=2, b=1, T=3, m=2)
        calls: list[str] = []

        def records(cache):
            report = run_benchmark(
                task, problems, "tout_bfs",
                lambda seed: _CountedBackend(oracle(seed), calls), config, cache=cache,
            )
            return [result.record.to_json() for result in report.results]

        uncached = records(None)
        assert records(ResponseCache(tmp_path)) == uncached
        calls.clear()
        assert records(ResponseCache(tmp_path)) == uncached
        assert calls == []


class TestAblationAndSweep:
    def test_grid_order_and_labels(self):
        assert ABLATION_GRID == ((False, False), (True, False), (False, True),
                                 (True, True))
        assert ablation_label("tout_bfs", True, False) == "tout_bfs[luq=on,ugs=off]"

    def test_ablation_reports(self):
        task, problems, factory = quick_setup(episodes=3)
        reports = run_ablation(task, problems, "tout_bfs", factory, QUICK)
        assert [r.method for r in reports] == [
            "tout_bfs[luq=off,ugs=off]",
            "tout_bfs[luq=on,ugs=off]",
            "tout_bfs[luq=off,ugs=on]",
            "tout_bfs[luq=on,ugs=on]",
        ]
        assert len({r.digest for r in reports}) == 4
        for report, (luq, ugs) in zip(reports, ABLATION_GRID):
            assert report.config.luq_enabled == luq
            assert report.config.ugs_enabled == ugs

    def test_m_sweep(self):
        task, problems, factory = quick_setup(episodes=2)
        reports = run_m_sweep(task, problems, "tout_bfs", factory, QUICK,
                              m_values=[1, 3, 5])
        assert [r.config.m for r in reports] == [1, 3, 5]
        assert len({r.digest for r in reports}) == 3

    def test_empty_sweep_rejected(self):
        task, problems, factory = quick_setup(episodes=2)
        with pytest.raises(InvalidArgumentError):
            run_m_sweep(task, problems, "tout_bfs", factory, QUICK, m_values=[])


def sample_rows():
    return [
        ResultRow(method="tout_bfs", m=20, b=1, metric="success", value=85.0,
                  episodes=20, seconds=1.2345, digest="d1"),
        ResultRow(method="io", m=1, b=1, metric="success", value=10.0,
                  episodes=20, seconds=0.5, digest="d2"),
    ]


class TestEmitters:
    def test_csv_shape(self):
        text = emit_results(sample_rows(), fmt="csv")
        rows = list(csv.reader(io.StringIO(text)))
        assert rows[0] == list(RESULT_COLUMNS)
        assert rows[1][0] == "tout_bfs"
        assert rows[1][4] == "85.0"
        assert rows[1][6] == "1.234"
        assert len(rows) == 3

    def test_csv_quotes_commas(self):
        row = ResultRow(method="tout_bfs[luq=on,ugs=off]", m=5, b=1,
                        metric="success", value=50.0, episodes=2, seconds=0.1)
        text = emit_results([row], fmt="csv")
        parsed = list(csv.reader(io.StringIO(text)))
        assert parsed[1][0] == "tout_bfs[luq=on,ugs=off]"

    def test_markdown_shape(self):
        text = emit_results(sample_rows(), fmt="markdown")
        lines = text.splitlines()
        assert lines[0].startswith("| method | m | b |")
        assert set(lines[1].replace("|", "").split()) == {"---"}
        assert lines[2].startswith("| tout_bfs | 20 | 1 | success | 85.0")

    def test_unknown_format_rejected(self):
        with pytest.raises(InvalidArgumentError):
            emit_results(sample_rows(), fmt="yaml")

    def test_emitters_deterministic(self):
        assert emit_results(sample_rows()) == emit_results(sample_rows())

    def test_report_rows_concatenates(self):
        task, problems, factory = quick_setup(episodes=2)
        reports = run_m_sweep(task, problems, "tout_bfs", factory, QUICK,
                              m_values=[1, 2])
        rows = report_rows(reports)
        assert len(rows) == sum(len(r.rows()) for r in reports)


class TestStatistics:
    def test_z_hand_value(self):
        z, p = two_proportion_z(80, 100, 20, 100)
        assert z == pytest.approx(8.485281374238571, abs=1e-12)
        assert p < 1e-15

    def test_z_symmetry(self):
        z_ab, _ = two_proportion_z(80, 100, 20, 100)
        z_ba, _ = two_proportion_z(20, 100, 80, 100)
        assert z_ab == pytest.approx(-z_ba)

    def test_degenerate_pools(self):
        assert two_proportion_z(0, 50, 0, 50) == (0.0, 1.0)
        assert two_proportion_z(50, 50, 50, 50) == (0.0, 1.0)

    def test_zero_sample_size_rejected(self):
        with pytest.raises(ValueError):
            two_proportion_z(1, 0, 1, 10)


class TestBestPath:
    def test_argmax_with_earliest_tie(self):
        events = [
            {"event": "evaluate", "path": ["a"], "score": 2.0},
            {"event": "evaluate", "path": ["b"], "score": 5.0},
            {"event": "evaluate", "path": ["c"], "score": 5.0},
            {"event": "select", "state_ids": [1]},
        ]
        assert best_path_from_events(events) == ["b"]

    def test_no_evaluations(self):
        assert best_path_from_events([{"event": "final"}]) is None


class TestCrosswordBestMetrics:
    def test_best_state_metrics_reported(self):
        """A run that dead-ends after a good board still reports it."""
        task = make_task("crosswords")
        words = ("HEART", "EMBER", "ABUSE", "RESIN", "TREND")
        answers = words + words
        puzzle_json = json.dumps(
            {"clues": [f"clue {i}" for i in range(10)], "answers": list(answers)}
        )
        problems = [Problem(problem_id="crosswords/0", input=puzzle_json,
                            truth=answers)]

        # script one expansion whose best child fills h1 correctly
        from tout.backends import ScriptedBackend
        from tout.model import State

        config = SearchConfig(k=2, b=1, T=1, m=2, t_min=0.2, t_max=1.0)
        root = State(input=puzzle_json, thoughts=(), depth=0, id=0)
        child_good = State(input=puzzle_json, thoughts=("h1. HEART",), depth=1, id=1)
        child_bad = State(input=puzzle_json, thoughts=("h1. WRONG",), depth=1, id=2)
        script = {}
        script[ScriptedBackend.key(task.propose_prompt(root, 2), 1.0, 0)] = (
            "h1. HEART\nh1. WRONG"
        )
        for state, words_ in ((child_good, ("sure", "sure")),
                              (child_bad, ("impossible", "impossible"))):
            prompt = task.value_prompt(state)
            for temp, word in zip((0.2, 1.0), words_):
                script[ScriptedBackend.key(prompt, temp, 0)] = word
        backend = ScriptedBackend(script, default="impossible")

        report = run_benchmark(task, problems, "tout_bfs", lambda s: backend,
                               config)
        metrics = report.metrics
        assert metrics["letters_best"] == pytest.approx(5 / 25)
        assert metrics["words_best"] == pytest.approx(1 / 10)
        assert metrics["game_best"] == 0.0


class TestRunConfig:
    """A run's options are checked where they arrive: task, backend,
    start and episodes in the command line's set-up, method, jobs and the
    search settings where the run uses them. Each case is an INI [run]
    section on top of a valid scripted game24 run."""

    def run_main(self, tmp_path, run_options, search_options=None):
        dataset = tmp_path / "puzzles.csv"
        dataset.write_text("rank,puzzle\n1,4 9 10 13\n", encoding="utf-8")
        script = tmp_path / "script.json"
        script.write_text(json.dumps({"__default__": ""}), encoding="utf-8")
        run = {"dataset": dataset, "backend": "scripted", "script": script,
               "episodes": 1, **run_options}
        lines = ["[run]"] + [f"{key} = {value}" for key, value in run.items()]
        lines.append("[search]")
        lines += [f"{key} = {value}" for key, value in (search_options or {}).items()]
        path = tmp_path / "run.ini"
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        return main(["run", "--config", str(path)])

    def test_valid_config(self, tmp_path, capsys):
        assert self.run_main(tmp_path, {"task": "game24", "method": "io"}) == 0

    @pytest.mark.parametrize(
        "kwargs, error",
        [
            ({"task": "sudoku", "method": "tout_bfs"}, "unknown task 'sudoku'"),
            ({"task": "game24", "method": "magic"}, "unknown method 'magic'"),
            ({"task": "game24", "method": "io", "backend": "carrier-pigeon"},
             "unknown backend 'carrier-pigeon'"),
            ({"task": "game24", "method": "io", "backend": "synthetic"},
             "only answers the synthetic task"),
            ({"task": "synthetic", "method": "io", "backend": "http"},
             "the synthetic task needs backend=synthetic"),
            ({"task": "game24", "method": "io", "start": -1}, "start must be >= 0"),
            ({"task": "game24", "method": "io", "episodes": 0},
             "episodes must be positive"),
            ({"task": "game24", "method": "io", "jobs": 0}, "jobs must be >= 1"),
            ({"task": "game24", "method": "io", "episodes": -1},
             "episodes must be positive"),
            ({"task": "synthetic", "backend": "synthetic", "episodes": 0},
             "episodes must be positive"),
        ],
        ids=[f"kwargs{i}" for i in range(10)],
    )
    def test_invalid_configs(self, tmp_path, capsys, kwargs, error):
        assert self.run_main(tmp_path, kwargs) == 2
        assert error in capsys.readouterr().err

    def test_search_config_validated_too(self, tmp_path, capsys):
        options = {"task": "game24", "method": "io"}
        assert self.run_main(tmp_path, options, {"k": 0}) == 2
        assert "k, b, T and m must be positive" in capsys.readouterr().err
