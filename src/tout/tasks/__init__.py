"""Task registry: step decomposition, prompting and exact checking per task."""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Any

from ..model import InvalidArgumentError, TaskSpec
from .crosswords import (
    Board,
    CrosswordPuzzle,
    CrosswordsTask,
    WordThought,
    apply_thought,
    clues_text,
    load_crosswords_json,
    parse_crossword_puzzle,
    parse_puzzle_file,
    score_board,
)
from .game24 import (
    Expression,
    Game24Task,
    Puzzle24,
    brute_force_solvable,
    canonical_equation,
    check_solution,
    eval_expression,
    evaluate_expression,
    format_expression,
    load_game24_csv,
    parse_expression,
    solution_verdicts,
)
from .synthetic import (
    SyntheticTreeTask,
    TrapBenchmark,
    build_trap_benchmark,
)

TASK_NAMES = ("game24", "crosswords", "synthetic")


@dataclass(frozen=True)
class Problem:
    """One benchmark instance: stable id, model-facing input, checker truth."""

    problem_id: str
    input: str
    truth: Any = None


def make_task(name: str, **kwargs: Any) -> TaskSpec:
    if name == "game24":
        return Game24Task(**kwargs)
    if name == "crosswords":
        return CrosswordsTask(**kwargs)
    if name == "synthetic":
        return SyntheticTreeTask(**kwargs)
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
        puzzles = load_crosswords_json(path)
        return [
            Problem(
                problem_id=f"crosswords/{puzzle.id or i}",
                input=clues_text(puzzle),
                truth=list(puzzle.answers),
            )
            for i, puzzle in enumerate(puzzles)
        ]
    raise InvalidArgumentError(f"no dataset loader for task {task_name!r}")


__all__ = [
    "Board",
    "CrosswordPuzzle",
    "CrosswordsTask",
    "Expression",
    "Game24Task",
    "Problem",
    "Puzzle24",
    "SyntheticTreeTask",
    "TrapBenchmark",
    "TASK_NAMES",
    "WordThought",
    "apply_thought",
    "brute_force_solvable",
    "build_trap_benchmark",
    "canonical_equation",
    "check_solution",
    "clues_text",
    "eval_expression",
    "evaluate_expression",
    "format_expression",
    "load_crosswords_json",
    "load_game24_csv",
    "load_problems",
    "make_task",
    "parse_crossword_puzzle",
    "parse_expression",
    "parse_puzzle_file",
    "score_board",
    "solution_verdicts",
]
