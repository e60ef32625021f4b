"""Command line front end.

Subcommands: run (one method over a dataset), ablate (the 2x2 uncertainty
switch grid), sweep-m (vary the sample count), check (exact answer
verification). Options can come from an INI config file via --config;
explicit command line flags win over the file, which wins over built-in
defaults. Exit codes: 0 success, 1 run or check failure, 2 usage error.
"""

from __future__ import annotations

import argparse
import configparser
import dataclasses
import functools
import json
import sys
from pathlib import Path
from typing import Any, Callable, Optional

from .backends import Backend, HttpBackend, ScriptedBackend
from .calls import ResponseCache
from .harness import (
    RunAbortedError,
    default_run_id,
    emit_results,
    report_rows,
    run_ablation,
    run_benchmark,
    run_m_sweep,
    synthetic_setup,
)
from .model import BackendUnavailableError, InvalidArgumentError, SearchConfig
from .search import METHODS
from .tasks import (
    TASK_NAMES,
    brute_force_solvable,
    build_trap_benchmark,
    check_solution,
    load_crosswords_json,
    load_game24_csv,
    load_problems,
    make_task,
)
from .tasks.game24 import parse_puzzle

TASK_DEFAULT_METHOD = {
    "game24": "tout_bfs",
    "crosswords": "tout_dfs",
    "synthetic": "tout_bfs",
}


def _add_search_flags(parser: argparse.ArgumentParser) -> None:
    group = parser.add_argument_group("search")
    group.add_argument("--k", type=int, default=None, help="thoughts per expansion")
    group.add_argument("--b", type=int, default=None, help="beam width")
    group.add_argument(
        "--steps", dest="T", type=int, default=None, help="search depth in steps"
    )
    group.add_argument("--m", type=int, default=None, help="value samples per state")
    group.add_argument("--t-min", type=float, default=None)
    group.add_argument("--t-max", type=float, default=None)
    group.add_argument("--v-th", type=float, default=None, help="value floor (dfs)")
    group.add_argument(
        "--u-th", type=float, default=None, help="uncertainty ceiling (dfs)"
    )
    group.add_argument("--epsilon", type=float, default=None)
    group.add_argument("--max-outputs", type=int, default=None)
    group.add_argument("--eval-workers", type=int, default=None)
    group.add_argument(
        "--no-luq",
        dest="luq_enabled",
        action="store_const",
        const=False,
        default=None,
        help="single sample per state, uncertainty pinned to zero",
    )
    group.add_argument(
        "--no-ugs",
        dest="ugs_enabled",
        action="store_const",
        const=False,
        default=None,
        help="select by value instead of value/(uncertainty+epsilon)",
    )


def _add_run_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", default=None, help="INI config file")
    parser.add_argument("--task", choices=TASK_NAMES, default=None)
    parser.add_argument("--dataset", default=None, help="dataset file path")
    parser.add_argument("--method", choices=METHODS, default=None)
    parser.add_argument(
        "--backend", choices=("http", "scripted", "synthetic"), default=None
    )
    parser.add_argument("--episodes", type=int, default=None)
    parser.add_argument(
        "--start", type=int, default=None, help="dataset offset of the first problem"
    )
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--jobs", type=int, default=None)
    parser.add_argument("--records", default=None, help="episode record JSONL path")
    parser.add_argument(
        "--out-dir",
        default=None,
        help="write transcripts/<run-id>.jsonl plus results/<run-id>.csv and .md here",
    )
    parser.add_argument("--run-id", default=None, help="override the derived run id")
    parser.add_argument("--cache-dir", default=None)
    parser.add_argument("--format", choices=("csv", "markdown"), default=None)
    parser.add_argument("--out", default=None, help="write the table here, not stdout")
    parser.add_argument("--depth", type=int, default=None, help="synthetic tree depth")
    parser.add_argument("--api-base", default=None)
    parser.add_argument("--api-key", default=None)
    parser.add_argument("--model", default=None)
    parser.add_argument("--script", default=None, help="scripted backend JSON file")
    _add_search_flags(parser)


@functools.cache
def _ini_flags() -> dict[str, dict[str, argparse.Action]]:
    """The flag behind each key of each INI section: [search] takes the
    search flags by dest (steps for T), [run] the other run flags."""
    search = argparse.ArgumentParser(add_help=False)
    run = argparse.ArgumentParser(add_help=False)
    _add_search_flags(search)
    _add_run_flags(run)
    not_run = {flag.dest for flag in search._actions} | {"config"}
    return {
        "search": {
            "steps" if flag.dest == "T" else flag.dest: flag
            for flag in search._actions
        },
        "run": {
            flag.dest: flag
            for flag in run._actions
            if flag.dest not in not_run
        },
    }


def _read(ini: configparser.ConfigParser, section: str, key: str) -> Any:
    """An INI value parsed and checked as its flag parses the command line:
    by its type and choices; --no-luq/--no-ugs keys are booleans."""
    flag = _ini_flags()[section][key]
    if flag.nargs == 0:
        return ini.getboolean(section, key)
    value = ini.get(section, key)
    if flag.type is not None:
        value = flag.type(value)
    if flag.choices is not None and value not in flag.choices:
        raise ValueError(
            f"unknown {key} {value!r}, expected one of {', '.join(flag.choices)}"
        )
    return value


def load_ini(path: Optional[str]) -> Optional[configparser.ConfigParser]:
    """The INI file at path; a file that does not parse as INI, a section
    other than [run] and [search], a key its section does not take, or a
    value its flag rejects (see _read) is an error. Values are read
    verbatim: ``%`` is not an interpolation character."""
    if path is None:
        return None
    ini = configparser.ConfigParser(interpolation=None)
    try:
        with open(path, encoding="utf-8") as handle:
            ini.read_file(handle)
    except FileNotFoundError:
        raise InvalidArgumentError(f"config file not found: {path}") from None
    except OSError as exc:  # a directory, or no permission to read
        raise InvalidArgumentError(
            f"cannot read config file {path}: {exc.strerror}"
        ) from None
    except (configparser.Error, ValueError) as exc:  # ValueError: UTF-8
        raise InvalidArgumentError(f"{path}: not an INI file: {exc}") from None
    sections = _ini_flags()
    for section in ini.sections():
        if section not in sections:
            raise InvalidArgumentError(
                f"{path}: unknown section [{section}], expected run or search"
            )
    for section, keys in sections.items():
        if ini.has_section(section):
            for key in ini.options(section):
                if key not in keys:
                    raise InvalidArgumentError(
                        f"{path}: unknown key {key!r} in [{section}], "
                        f"expected one of {', '.join(sorted(keys))}"
                    )
                try:
                    _read(ini, section, key)
                except (configparser.Error, ValueError) as exc:
                    raise InvalidArgumentError(
                        f"{path}: bad value for {key!r} in [{section}]: {exc}"
                    ) from None
    return ini


def _opt(
    args: argparse.Namespace,
    ini: Optional[configparser.ConfigParser],
    key: str,
    default: Any,
) -> Any:
    value = getattr(args, key, None)
    if value is not None:
        return value
    if ini is not None and ini.has_option("run", key):
        return _read(ini, "run", key)
    return default


def build_search_values(
    args: argparse.Namespace, ini: Optional[configparser.ConfigParser]
) -> dict[str, Any]:
    """Explicit search settings from flags and the [search] INI section."""
    values: dict[str, Any] = {}
    for key, flag in _ini_flags()["search"].items():
        value = getattr(args, flag.dest, None)
        if value is None and ini is not None and ini.has_option("search", key):
            value = _read(ini, "search", key)
        if value is not None:
            values[flag.dest] = value
    return values


def load_script(path: str | Path) -> tuple[dict[tuple[str, int, int], str], str]:
    """Scripted backend table from a JSON object of
    "digest:temp_millis:index" -> text entries; "__default__" -> text
    answers the keys it lacks."""
    with open(path, encoding="utf-8") as handle:
        try:
            data = json.load(handle)
        except ValueError as exc:  # JSON, UTF-8
            raise InvalidArgumentError(f"{path}: not JSON: {exc}") from None
    if not isinstance(data, dict):
        raise InvalidArgumentError(f"{path}: expected a JSON object of script entries")
    if not all(isinstance(text, str) for text in data.values()):
        raise InvalidArgumentError(f"{path}: every script entry must be text")
    default = data.pop("__default__", "")
    script: dict[tuple[str, int, int], str] = {}
    for key, text in data.items():
        try:
            digest, tq, index = key.rsplit(":", 2)
            script[(digest, int(tq), int(index))] = text
        except ValueError:
            raise InvalidArgumentError(f"{path}: bad script key {key!r}") from None
    return script, default


def _constant(backend: Backend) -> Callable[[int], Backend]:
    def factory(seed: int) -> Backend:
        return backend

    return factory


def _build_backend(
    kind: str, args: argparse.Namespace, ini: Optional[configparser.ConfigParser]
) -> Backend:
    if kind == "http":
        return HttpBackend(
            base_url=_opt(args, ini, "api_base", None),
            api_key=_opt(args, ini, "api_key", None),
            model=_opt(args, ini, "model", None),
        )
    script_path = _opt(args, ini, "script", None)  # kind is "scripted"
    if script_path is None:
        raise InvalidArgumentError("--script is required for the scripted backend")
    script, default = load_script(script_path)
    return ScriptedBackend(script, default=default)


def _deliver(table: str, out: Optional[str]) -> None:
    if out is None:
        print(table, end="" if table.endswith("\n") else "\n")
    else:
        Path(out).write_text(table, encoding="utf-8")


RUN_ID_SUFFIX = {"run": "", "ablate": "-ablate", "sweep-m": "-sweepm"}


def cmd_run(args: argparse.Namespace) -> int:
    """run, ablate or sweep-m, as args.command names, resolved from flags +
    INI; the table goes to stdout or --out, and both formats under
    --out-dir."""
    ini = load_ini(args.config)
    task_name = _opt(args, ini, "task", None)
    if task_name is None:
        raise InvalidArgumentError("--task is required (or set task in the config)")
    method = _opt(args, ini, "method", TASK_DEFAULT_METHOD[task_name])
    seed = _opt(args, ini, "seed", 0)
    episodes = _opt(args, ini, "episodes", None)
    start = _opt(args, ini, "start", 0)
    jobs = _opt(args, ini, "jobs", 1)
    fmt = _opt(args, ini, "format", "csv")
    records = _opt(args, ini, "records", None)
    cache_dir = _opt(args, ini, "cache_dir", None)
    out = _opt(args, ini, "out", None)
    out_dir = _opt(args, ini, "out_dir", None)
    dataset = _opt(args, ini, "dataset", None)
    synthetic = task_name == "synthetic"
    backend_kind = _opt(args, ini, "backend", "synthetic" if synthetic else "http")
    if start < 0:
        raise InvalidArgumentError("start must be >= 0")
    if episodes is not None and episodes <= 0:
        raise InvalidArgumentError("episodes must be positive when given")
    if backend_kind == "synthetic" and not synthetic:
        raise InvalidArgumentError(
            "the synthetic backend only answers the synthetic task"
        )
    if synthetic and backend_kind != "synthetic":
        raise InvalidArgumentError("the synthetic task needs backend=synthetic")
    if synthetic and start > 0:
        # its episodes are always synthetic/0.., so an offset would rerun
        # (or, with the same records file, resume) an earlier run's episodes
        raise InvalidArgumentError(
            "the synthetic task has no dataset to offset: --start must be 0"
        )

    values = build_search_values(args, ini)
    backend: Optional[Backend] = None  # built here, so closed when the run ends
    if synthetic:
        benchmark = build_trap_benchmark(depth=_opt(args, ini, "depth", 3))
        task, problems, factory = synthetic_setup(benchmark, episodes or 100)
    else:
        if dataset is None:
            raise InvalidArgumentError(f"--dataset is required for task {task_name}")
        problems = load_problems(task_name, dataset)
        stop = start + episodes if episodes is not None else None
        problems = problems[start:stop]
        if not problems:
            raise InvalidArgumentError("no problems selected, check --start/--episodes")
        task = make_task(task_name)
        backend = _build_backend(backend_kind, args, ini)
        factory = _constant(backend)
    values.setdefault("T", task.max_steps)
    values["seed"] = seed
    config = dataclasses.replace(SearchConfig(), **values)

    run_id = _opt(args, ini, "run_id", "") or (
        default_run_id(task_name, method, config) + RUN_ID_SUFFIX[args.command]
    )
    # the outputs are written after the last episode: check them before the first
    if out is not None and Path(out).is_dir():
        raise InvalidArgumentError(f"--out {out} is a directory")
    if out is not None and not Path(out).parent.is_dir():
        raise InvalidArgumentError(f"--out {out}: no directory {Path(out).parent}")
    out_path = Path(out_dir) if out_dir else None
    if out_path is not None:
        try:
            (out_path / "results").mkdir(parents=True, exist_ok=True)
            if records is None:
                transcripts = out_path / "transcripts"
                transcripts.mkdir(parents=True, exist_ok=True)
                records = str(transcripts / f"{run_id}.jsonl")
        except OSError as exc:
            raise InvalidArgumentError(
                f"--out-dir {out_dir}: cannot create {exc.filename}: {exc.strerror}"
            ) from None

    cache = ResponseCache(cache_dir) if cache_dir else None
    run_args = (task, problems, method, factory, config)
    run_kwargs = dict(cache=cache, record_path=records, run_seed=seed, jobs=jobs)
    try:
        if args.command == "run":
            rows = run_benchmark(*run_args, **run_kwargs).rows()
        elif args.command == "ablate":
            rows = report_rows(run_ablation(*run_args, **run_kwargs))
        else:
            try:
                m_values = [int(tok) for tok in args.m_values.split(",") if tok.strip()]
            except ValueError:
                raise InvalidArgumentError(f"bad --m-values {args.m_values!r}")
            if not m_values:
                raise InvalidArgumentError("--m-values is empty")
            rows = report_rows(run_m_sweep(*run_args, m_values, **run_kwargs))
    finally:
        if backend is not None:
            backend.close()  # its connections
        if cache is not None:
            cache.close()  # the log's descriptor

    _deliver(emit_results(rows, fmt=fmt), out)
    if out_path is not None:
        results_dir = out_path / "results"
        (results_dir / f"{run_id}.csv").write_text(
            emit_results(rows, fmt="csv"), encoding="utf-8"
        )
        (results_dir / f"{run_id}.md").write_text(
            emit_results(rows, fmt="markdown"), encoding="utf-8"
        )
    return 0


def _check_dataset(path: str) -> int:
    """Oracle audit of a whole puzzle CSV: solve each, verify each witness.

    Exits clean only when every puzzle is solvable and every witness passes
    the exact checker; that makes the command a dataset sanity gate.
    """
    failures = 0
    puzzles = load_game24_csv(path)
    for puzzle in puzzles:
        witness = brute_force_solvable(list(puzzle.numbers))
        if witness is None:
            print(f"{puzzle.index},{puzzle.text},unsolvable")
            failures += 1
        elif not check_solution(witness, puzzle):
            print(f"{puzzle.index},{puzzle.text},witness_rejected,{witness}")
            failures += 1
        else:
            print(f"{puzzle.index},{puzzle.text},ok,{witness}")
    print(f"checked {len(puzzles)} puzzles, {failures} failures")
    return 0 if failures == 0 else 1


def cmd_check(args: argparse.Namespace) -> int:
    if args.task == "game24" and args.dataset is not None:
        return _check_dataset(args.dataset)
    if args.input is None:
        raise InvalidArgumentError("provide --input (or --dataset for game24)")
    if args.answer is None and args.answer_file is None and not args.solve:
        raise InvalidArgumentError("provide --answer, --answer-file or --solve")
    answer = args.answer
    if answer is None and args.answer_file is not None:
        answer = Path(args.answer_file).read_text(encoding="utf-8")

    if args.task == "game24":
        numbers = parse_puzzle(args.input)  # a malformed puzzle is a usage error
        if args.solve and answer is None:
            witness = brute_force_solvable(numbers)
            if witness is None:
                print("unsolvable")
                return 1
            print(witness)
            return 0
        truth = args.input
    else:
        puzzles = load_crosswords_json(args.input)
        if not (0 <= args.index < len(puzzles)):
            raise InvalidArgumentError(
                f"--index {args.index} out of range for {len(puzzles)} puzzles"
            )
        if answer is None:
            raise InvalidArgumentError("--solve does not apply to crosswords")
        truth = list(puzzles[args.index].answers)

    verdicts = make_task(args.task).check_success(answer, truth)
    print(json.dumps(verdicts, sort_keys=True))
    return 0 if verdicts.get("success") == 1.0 else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tout",
        description="Uncertainty-aware tree search over language-model reasoning",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run one method over a dataset")
    _add_run_flags(p_run)
    p_run.set_defaults(func=cmd_run)

    p_ablate = sub.add_parser("ablate", help="2x2 grid over the uncertainty switches")
    _add_run_flags(p_ablate)
    p_ablate.set_defaults(func=cmd_run)

    p_sweep = sub.add_parser("sweep-m", help="vary the sample count m")
    _add_run_flags(p_sweep)
    p_sweep.add_argument(
        "--m-values", default="1,2,5,10,20", help="comma-separated m values"
    )
    p_sweep.set_defaults(func=cmd_run)

    p_check = sub.add_parser("check", help="verify an answer with the exact checker")
    p_check.add_argument("--task", choices=("game24", "crosswords"), required=True)
    p_check.add_argument(
        "--input", default=None, help="game24 puzzle text or crosswords JSON path"
    )
    p_check.add_argument(
        "--dataset", default=None, help="game24: oracle-audit every puzzle in this CSV"
    )
    p_check.add_argument("--answer", default=None)
    p_check.add_argument("--answer-file", default=None)
    p_check.add_argument("--index", type=int, default=0, help="puzzle index in the file")
    p_check.add_argument(
        "--solve", action="store_true", help="game24: search for a witness instead"
    )
    p_check.set_defaults(func=cmd_check)
    return parser


def main(argv: Optional[list[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except InvalidArgumentError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (FileNotFoundError, IsADirectoryError) as exc:  # an input path names no file
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (BackendUnavailableError, RunAbortedError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
