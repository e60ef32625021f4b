"""Task registry: step decomposition, prompting and exact checking per task."""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Any

from ..model import InvalidArgumentError, TaskSpec
from .crosswords import (
    CrosswordsTask,
    clues_text,
    load_crosswords_json,
    parse_crossword_puzzle,
)
from .game24 import (
    Game24Task,
    brute_force_solvable,
    check_solution,
    load_game24_csv,
    solution_verdicts,
)
from .synthetic import SyntheticTreeTask, build_trap_benchmark

TASK_NAMES = ("game24", "crosswords", "synthetic")


@dataclass(frozen=True)
class Problem:
    """One benchmark instance: stable id, model-facing input, checker truth."""

    problem_id: str
    input: str
    truth: Any = None


def make_task(name: str) -> TaskSpec:
    if name == "game24":
        return Game24Task()
    if name == "crosswords":
        return CrosswordsTask()
    if name == "synthetic":
        return SyntheticTreeTask()
    raise InvalidArgumentError(
        f"unknown task {name!r}, expected one of {', '.join(TASK_NAMES)}"
    )


def load_problems(task_name: str, path: str | Path) -> list[Problem]:
    """Problems for a task from its dataset file.

    game24 reads a rank,puzzle CSV; truth is the puzzle itself since the
    checker only needs the four numbers. crosswords reads puzzle JSON;
    the input is the labeled clue list and truth is the answer key.
    """
    if task_name == "game24":
        return [
            Problem(
                problem_id=f"game24/{p.index}", input=p.text, truth=p.text
            )
            for p in load_game24_csv(path)
        ]
    if task_name == "crosswords":
        return [
            Problem(
                problem_id=f"crosswords/{puzzle.id}",
                input=clues_text(puzzle),
                truth=list(puzzle.answers),
            )
            for puzzle in load_crosswords_json(path)
        ]
    raise InvalidArgumentError(f"no dataset loader for task {task_name!r}")


__all__ = [
    "CrosswordsTask",
    "Game24Task",
    "Problem",
    "TASK_NAMES",
    "brute_force_solvable",
    "build_trap_benchmark",
    "check_solution",
    "clues_text",
    "load_crosswords_json",
    "load_game24_csv",
    "load_problems",
    "make_task",
    "parse_crossword_puzzle",
    "solution_verdicts",
]
