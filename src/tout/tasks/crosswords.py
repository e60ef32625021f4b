"""5x5 mini crosswords filled one slot at a time.

A puzzle has ten clues for ten slots (rows h1..h5, columns v1..v5) whose
answers are five-letter words agreeing on every crossing cell. Thoughts
are slot fills like ``h2. EMBER``; a fill that contradicts letters already
on the board is rejected during proposal parsing. The final output is the
board itself, five lines of five characters with '.' for empty cells, and
scoring reports letter, word and full-game accuracy.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass
from pathlib import Path
from types import MappingProxyType
from typing import Any, Optional, Sequence

from ..model import InvalidArgumentError, State, TaskSpec, best_path_from_events

SIZE = 5
SLOTS = tuple(f"h{i}" for i in range(1, 6)) + tuple(f"v{i}" for i in range(1, 6))

EMPTY = "."


def slot_cells(slot: str) -> list[tuple[int, int]]:
    """(row, col) cells covered by a slot, in word order."""
    if slot not in SLOTS:
        raise InvalidArgumentError(f"unknown slot {slot!r}")
    index = int(slot[1]) - 1
    if slot[0] == "h":
        return [(index, col) for col in range(SIZE)]
    return [(row, index) for row in range(SIZE)]


@dataclass(frozen=True)
class CrosswordPuzzle:
    clues: tuple[str, ...]
    answers: tuple[str, ...]
    id: str = ""

    def answer_board(self) -> "Board":
        board = Board.empty()
        for slot, word in zip(SLOTS, self.answers):
            placed = board.place(slot, word)
            assert placed is not None  # parse_crossword_puzzle verified crossings
            board = placed
        return board


def parse_crossword_puzzle(obj: dict[str, Any], puzzle_id: str = "") -> CrosswordPuzzle:
    """Validate a {"clues": [...], "answers": [...]} object.

    Answers must be ten five-letter words whose crossings agree:
    row word i and column word j share the cell (i, j).
    """
    clues = obj.get("clues")
    answers = obj.get("answers")
    if not isinstance(clues, list) or len(clues) != 10:
        raise InvalidArgumentError("puzzle needs exactly 10 clues")
    if not isinstance(answers, list) or len(answers) != 10:
        raise InvalidArgumentError("puzzle needs exactly 10 answers")
    words = [str(w).upper() for w in answers]
    for word in words:
        if not re.fullmatch(r"[A-Z]{5}", word):
            raise InvalidArgumentError(f"answer {word!r} is not a five-letter word")
    for i in range(SIZE):
        for j in range(SIZE):
            if words[i][j] != words[SIZE + j][i]:
                raise InvalidArgumentError(
                    f"answers disagree at row {i + 1}, column {j + 1}: "
                    f"{words[i]!r} vs {words[SIZE + j]!r}"
                )
    return CrosswordPuzzle(
        clues=tuple(str(c) for c in clues),
        answers=tuple(words),
        id=str(obj.get("id", "")) or puzzle_id,
    )


@dataclass(frozen=True)
class Board:
    """Immutable 5x5 letter grid; '.' marks an empty cell."""

    cells: tuple[str, ...]

    def __post_init__(self):
        if len(self.cells) != SIZE * SIZE:
            raise InvalidArgumentError("board needs 25 cells")
        for cell in self.cells:
            if not re.fullmatch(r"[A-Z.]", cell):
                raise InvalidArgumentError(f"bad cell {cell!r}")

    @classmethod
    def empty(cls) -> "Board":
        return cls(cells=(EMPTY,) * (SIZE * SIZE))

    @classmethod
    def from_text(cls, text: str) -> "Board":
        lines = [line.strip() for line in text.strip().splitlines() if line.strip()]
        if len(lines) != SIZE or any(len(line) != SIZE for line in lines):
            raise InvalidArgumentError("board text must be 5 lines of 5 characters")
        return cls(cells=tuple(ch.upper() for line in lines for ch in line))

    def at(self, row: int, col: int) -> str:
        return self.cells[row * SIZE + col]

    def place(self, slot: str, word: str) -> Optional["Board"]:
        """New board with the word written, or None on a letter conflict."""
        word = word.upper()
        if not re.fullmatch(r"[A-Z]{5}", word):
            return None
        cells = list(self.cells)
        for (row, col), letter in zip(slot_cells(slot), word):
            existing = cells[row * SIZE + col]
            if existing != EMPTY and existing != letter:
                return None
            cells[row * SIZE + col] = letter
        return Board(cells=tuple(cells))

    def word_at(self, slot: str) -> str:
        return "".join(self.at(row, col) for row, col in slot_cells(slot))

    def filled_slots(self) -> list[str]:
        return [s for s in SLOTS if EMPTY not in self.word_at(s)]

    def is_full(self) -> bool:
        return EMPTY not in self.cells

    def render(self) -> str:
        rows = []
        for row in range(SIZE):
            rows.append("".join(self.at(row, col) for col in range(SIZE)))
        return "\n".join(rows)


@dataclass(frozen=True)
class WordThought:
    """One slot fill, e.g. slot='h1', word='SHOWN'."""

    slot: str
    word: str

    def __post_init__(self):
        if self.slot not in SLOTS:
            raise InvalidArgumentError(f"unknown slot {self.slot!r}")
        if not re.fullmatch(r"[A-Z]{5}", self.word):
            raise InvalidArgumentError(
                f"word must be 5 uppercase letters, got {self.word!r}"
            )

    def __str__(self) -> str:
        return f"{self.slot}. {self.word}"


_THOUGHT = re.compile(r"^\s*([hv][1-5])\s*\.\s*([A-Za-z]{5})\b")


def parse_thought(line: str) -> Optional[WordThought]:
    match = _THOUGHT.match(line)
    if match is None:
        return None
    return WordThought(slot=match.group(1).lower(), word=match.group(2).upper())


def board_from_thoughts(thoughts: tuple[str, ...]) -> Board:
    board = Board.empty()
    for text in thoughts:
        thought = parse_thought(text)
        if thought is None:
            raise InvalidArgumentError(f"stored thought is invalid: {text!r}")
        placed = board.place(thought.slot, thought.word)
        if placed is None:
            raise InvalidArgumentError(f"stored thought conflicts: {text!r}")
        board = placed
    return board


def _solution_board(solution: "CrosswordPuzzle | tuple[str, ...] | list[str]") -> Board:
    if isinstance(solution, CrosswordPuzzle):
        return solution.answer_board()
    answers = tuple(str(w).upper() for w in solution)
    return CrosswordPuzzle(clues=("",) * 10, answers=answers).answer_board()


def score_board(
    board: Board, solution: "CrosswordPuzzle | tuple[str, ...] | list[str]"
) -> tuple[int, int, int]:
    """(letters 0..25, words 0..10, game 0|1) against the solution grid.

    Empty cells count as wrong letters; game is won only on a fully
    correct board.
    """
    key = _solution_board(solution)
    letters = sum(1 for mine, true in zip(board.cells, key.cells) if mine == true)
    words = sum(1 for slot in SLOTS if board.word_at(slot) == key.word_at(slot))
    game = 1 if letters == SIZE * SIZE else 0
    return letters, words, game


class CrosswordsTask(TaskSpec):
    """Fill ten slots; the rendered board is the answer."""

    name = "crosswords"
    max_steps = 10
    min_value = 0.001
    value_map = MappingProxyType({"sure": 20.0, "maybe": 1.0, "impossible": 0.001})

    def board(self, state: State) -> Board:
        return board_from_thoughts(state.thoughts)

    def propose_prompt(self, state: State, k: int) -> str:
        board = self.board(state)
        open_slots = [s for s in SLOTS if s not in board.filled_slots()]
        return (
            "Solve the 5x5 crossword. Slots h1-h5 are rows, v1-v5 are columns.\n"
            "Clues:\n"
            f"{state.input.strip()}\n"
            "Current board:\n"
            f"{board.render()}\n"
            f"Open slots: {' '.join(open_slots)}\n"
            f"Suggest up to {k} candidate fills, one per line, in the form\n"
            "slot. WORD (for example h1. HEART)\n"
        )

    def parse_proposals(self, state: State, text: str, k: int) -> list[str]:
        board = self.board(state)
        filled = set(board.filled_slots())
        proposals: list[str] = []
        for raw in text.splitlines():
            thought = parse_thought(raw)
            if thought is None:
                continue
            if thought.slot in filled:
                continue
            if board.place(thought.slot, thought.word) is None:
                continue  # contradicts letters already on the board
            proposals.append(str(thought))
        return proposals[:k]

    def value_prompt(self, state: State) -> str:
        board = self.board(state)
        return (
            "Evaluate whether this partial 5x5 crossword can still be "
            "completed so that every row and column is a real word fitting "
            "its clue.\n"
            "Clues:\n"
            f"{state.input.strip()}\n"
            "Current board:\n"
            f"{board.render()}\n"
            "Answer with exactly one word on the last line: "
            "sure, maybe, or impossible.\n"
        )

    def is_terminal(self, state: State) -> bool:
        if state.depth >= self.max_steps:
            return True
        return self.board(state).is_full()

    def check_success(self, output: str, truth: Any) -> dict[str, float]:
        try:
            board = Board.from_text(output)
        except InvalidArgumentError:
            return {"letters": 0.0, "words": 0.0, "game": 0.0, "success": 0.0}
        letters, words, game = score_board(board, truth)
        return {
            "letters": letters / (SIZE * SIZE),
            "words": words / len(SLOTS),
            "game": float(game),
            "success": float(game),
        }

    def extra_verdicts(self, events: Sequence[dict], truth: Any) -> dict[str, float]:
        """Scores of the best board the search evaluated, even when it moved
        on or dead-ended after it."""
        path = best_path_from_events(events)
        if truth is None or path is None:
            return {}
        letters, words, game = score_board(board_from_thoughts(tuple(path)), truth)
        return {
            "letters_best": letters / (SIZE * SIZE),
            "words_best": words / len(SLOTS),
            "game_best": float(game),
        }

    def render_output(self, state: State) -> str:
        return self.board(state).render()

    def io_prompt(self, problem_input: str) -> str:
        return (
            "Solve the 5x5 crossword. Slots h1-h5 are rows, v1-v5 are columns.\n"
            "Clues:\n"
            f"{problem_input.strip()}\n"
            "Respond with the finished board only: 5 lines of 5 letters.\n"
        )

    def cot_prompt(self, problem_input: str) -> str:
        return (
            "Solve the 5x5 crossword. Slots h1-h5 are rows, v1-v5 are columns.\n"
            "Clues:\n"
            f"{problem_input.strip()}\n"
            "Reason slot by slot, then finish with the board: "
            "5 lines of 5 letters.\n"
        )

    def extract_final_answer(self, text: str) -> Optional[str]:
        rows = [
            line.strip().upper()
            for line in text.splitlines()
            if re.fullmatch(r"[A-Za-z.]{5}", line.strip())
        ]
        if len(rows) < SIZE:
            return None
        return "\n".join(rows[-SIZE:])

    def canonicalize_answer(self, answer: str) -> str:
        return "\n".join(answer.upper().split())


def parse_puzzle_file(text: str) -> list[CrosswordPuzzle]:
    """Puzzles from JSON text: one object or an array of them.

    Validation failures name the offending puzzle by its array index.
    """
    try:
        data = json.loads(text)
    except ValueError as exc:
        raise InvalidArgumentError(f"not JSON: {exc}") from None
    objects = data if isinstance(data, list) else [data]
    puzzles: list[CrosswordPuzzle] = []
    for index, obj in enumerate(objects):
        if not isinstance(obj, dict):
            raise InvalidArgumentError(f"puzzle {index}: expected a JSON object")
        try:
            puzzles.append(parse_crossword_puzzle(obj, puzzle_id=str(index)))
        except InvalidArgumentError as exc:
            raise InvalidArgumentError(f"puzzle {index}: {exc}") from exc
    return puzzles


def load_crosswords_json(path: str | Path) -> list[CrosswordPuzzle]:
    """Puzzles from a JSON file (see parse_puzzle_file); errors name it."""
    with open(path, encoding="utf-8") as handle:
        try:
            return parse_puzzle_file(handle.read())
        except ValueError as exc:  # UTF-8, InvalidArgumentError
            raise InvalidArgumentError(f"{path}: {exc}") from None


def clues_text(puzzle: CrosswordPuzzle) -> str:
    """The ten clues as prompt text, one labeled line per slot."""
    return "\n".join(f"{slot}. {clue}" for slot, clue in zip(SLOTS, puzzle.clues))
