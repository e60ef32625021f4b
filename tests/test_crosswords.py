"""Mini crossword board mechanics, scoring, and puzzle file validation."""

from __future__ import annotations

import json
import random

import pytest
from hypothesis import given, strategies as st

from tout.model import InvalidArgumentError
from tout.tasks import make_task
from tout.tasks.crosswords import (
    SIZE,
    SLOTS,
    Board,
    WordThought,
    board_from_thoughts,
    load_crosswords_json,
    parse_puzzle_file,
    parse_thought,
    score_board,
    slot_cells,
)

from helpers import make_state

# fixture: a symmetric word square, so rows double as columns
WORDS = ("HEART", "EMBER", "ABUSE", "RESIN", "TREND")
ANSWERS = WORDS + WORDS
CLUES = tuple(f"clue {i}" for i in range(10))


def fixture_puzzle_json(**overrides):
    obj = {"clues": list(CLUES), "answers": list(ANSWERS)}
    obj.update(overrides)
    return obj


def solved_board() -> Board:
    return Board.from_text("\n".join(WORDS))


class TestSlotGeometry:
    def test_every_cell_covered_exactly_twice(self):
        coverage = {}
        for slot in SLOTS:
            for cell in slot_cells(slot):
                coverage[cell] = coverage.get(cell, 0) + 1
        assert len(coverage) == SIZE * SIZE
        assert set(coverage.values()) == {2}

    def test_rows_then_columns(self):
        assert slot_cells("h1") == [(0, c) for c in range(5)]
        assert slot_cells("v3") == [(r, 2) for r in range(5)]


class TestBoard:
    def test_place_into_empty(self):
        board = Board.empty().place("h1", "HEART")
        assert board is not None
        assert board.word_at("h1") == "HEART"
        assert board.at(0, 4) == "T"

    def test_place_rejects_conflict(self):
        board = Board.empty().place("h1", "HEART")
        # v1 must start with H to cross h1's first letter
        assert board.place("v1", "TREND") is None
        assert board.place("v1", "HAPPY") is not None

    def test_place_overwrites_nothing_on_reject(self):
        board = Board.empty().place("h1", "HEART")
        rejected = board.place("v1", "TREND")
        assert rejected is None
        assert board.word_at("h1") == "HEART"  # original board untouched

    def test_crossing_letters_accumulate(self):
        board = Board.empty()
        for slot, word in zip(SLOTS, ANSWERS):
            board = board.place(slot, word)
            assert board is not None
        assert board.is_full()
        assert board.render() == "\n".join(WORDS)

    def test_from_text_round_trip(self):
        board = solved_board()
        assert Board.from_text(board.render()) == board

    def test_from_text_rejects_bad_shape(self):
        with pytest.raises(InvalidArgumentError):
            Board.from_text("ABCDE\nFGHIJ")
        with pytest.raises(InvalidArgumentError):
            Board.from_text("\n".join(["ABCDEF"] * 5))

    def test_filled_slots(self):
        board = Board.empty().place("h2", "EMBER")
        assert board.filled_slots() == ["h2"]


class TestThoughts:
    def test_parse_thought_forms(self):
        assert parse_thought("h1. HEART") == WordThought("h1", "HEART")
        assert parse_thought("  v5.trend rest of line") == WordThought("v5", "TREND")
        assert parse_thought("h6. HEART") is None
        assert parse_thought("fill the first row") is None

    def test_thought_validation(self):
        with pytest.raises(InvalidArgumentError):
            WordThought("x1", "HEART")
        with pytest.raises(InvalidArgumentError):
            WordThought("h1", "HEARTS")
        with pytest.raises(InvalidArgumentError):
            WordThought("h1", "heart")

    def test_str_is_reparseable(self):
        thought = WordThought("v2", "EMBER")
        assert parse_thought(str(thought)) == thought

    def test_apply_thought(self):
        board = Board.empty()
        placed = board.place("h1", "HEART")
        assert placed is not None
        assert placed.place("v1", "TREND") is None

    def test_board_from_thoughts(self):
        board = board_from_thoughts(("h1. HEART", "v1. HAPPY"))
        assert board.word_at("h1") == "HEART"
        assert board.word_at("v1") == "HAPPY"

    def test_board_from_thoughts_rejects_conflict(self):
        with pytest.raises(InvalidArgumentError):
            board_from_thoughts(("h1. HEART", "v1. TREND"))
        with pytest.raises(InvalidArgumentError):
            board_from_thoughts(("gibberish",))


class TestScoring:
    def test_solved_board(self):
        assert score_board(solved_board(), ANSWERS) == (25, 10, 1)

    def test_empty_board(self):
        assert score_board(Board.empty(), ANSWERS) == (0, 0, 0)

    def test_one_wrong_cell(self):
        cells = list(solved_board().cells)
        # corner cell (4,4) sits on h5 and v5: one letter breaks two words
        cells[24] = "X" if cells[24] != "X" else "Y"
        assert score_board(Board(cells=tuple(cells)), ANSWERS) == (24, 8, 0)

    def test_score_accepts_puzzle_object(self):
        (puzzle,) = parse_puzzle_file(json.dumps(fixture_puzzle_json()))
        assert score_board(solved_board(), puzzle) == (25, 10, 1)

    @given(st.integers(min_value=0, max_value=2**25 - 1))
    def test_game_iff_all_letters_iff_all_words(self, mask):
        """Corrupt a random subset of cells; the three counts must cohere."""
        key = solved_board()
        cells = [
            ("X" if key.cells[i] != "X" else "Y") if (mask >> i) & 1 else key.cells[i]
            for i in range(25)
        ]
        letters, words, game = score_board(Board(cells=tuple(cells)), ANSWERS)
        assert 0 <= letters <= 25 and 0 <= words <= 10 and game in (0, 1)
        assert (game == 1) == (letters == 25) == (words == 10) == (mask == 0)

    def test_letters_monotone_under_correct_fills(self):
        """Placing correct words never lowers any count."""
        rng = random.Random(5)
        for _ in range(50):
            order = list(range(10))
            rng.shuffle(order)
            board = Board.empty()
            prev = (0, 0, 0)
            for slot_index in order:
                board = board.place(SLOTS[slot_index], ANSWERS[slot_index])
                assert board is not None
                counts = score_board(board, ANSWERS)
                assert counts >= prev
                prev = counts
            assert prev == (25, 10, 1)

    def test_final_board_order_independent(self):
        orders = [list(range(10)), list(reversed(range(10)))]
        boards = []
        for order in orders:
            board = Board.empty()
            for i in order:
                board = board.place(SLOTS[i], ANSWERS[i])
            boards.append(board)
        assert boards[0] == boards[1]


class TestPuzzleFile:
    def test_single_object_or_array(self):
        single = parse_puzzle_file(json.dumps(fixture_puzzle_json()))
        array = parse_puzzle_file(json.dumps([fixture_puzzle_json()] * 2))
        assert len(single) == 1 and len(array) == 2
        assert single[0].clues == CLUES

    def test_id_defaults_to_index(self):
        first, second = parse_puzzle_file(json.dumps([fixture_puzzle_json()] * 2))
        assert (first.id, second.id) == ("0", "1")
        (named,) = parse_puzzle_file(json.dumps(fixture_puzzle_json(id="sq-7")))
        assert named.id == "sq-7"

    def test_short_answer_names_puzzle_index(self):
        bad = fixture_puzzle_json(answers=["HEAR"] + list(ANSWERS[1:]))
        with pytest.raises(InvalidArgumentError) as err:
            parse_puzzle_file(json.dumps([fixture_puzzle_json(), bad]))
        assert "puzzle 1" in str(err.value)
        assert "HEAR" in str(err.value)

    def test_crossing_mismatch_names_cell(self):
        # swap two row words without touching the columns: crossings break
        answers = list(ANSWERS)
        answers[0], answers[1] = answers[1], answers[0]
        with pytest.raises(InvalidArgumentError) as err:
            parse_puzzle_file(json.dumps(fixture_puzzle_json(answers=answers)))
        assert "puzzle 0" in str(err.value)
        assert "row 1" in str(err.value)

    def test_wrong_count_rejected(self):
        with pytest.raises(InvalidArgumentError):
            parse_puzzle_file(json.dumps(fixture_puzzle_json(clues=["only one"])))

    def test_bundled_dataset_loads_and_solves(self):
        puzzles = load_crosswords_json("datasets/crosswords.json")
        assert len(puzzles) == 3
        for puzzle in puzzles:
            assert score_board(puzzle.answer_board(), puzzle) == (25, 10, 1)


class TestTaskAdapter:
    def _task_and_input(self):
        task = make_task("crosswords")
        problem_input = json.dumps(fixture_puzzle_json())
        return task, problem_input

    def test_proposals_reject_conflicts_and_refills(self):
        task, problem_input = self._task_and_input()
        state = make_state(problem_input, ("h1. HEART",))
        text = "\n".join(
            [
                "h1. RESIN",  # slot already filled
                "v1. TREND",  # conflicts with the H at (0, 0)
                "v1. HAPPY",
                "some prose line",
            ]
        )
        assert task.parse_proposals(state, text, k=5) == ["v1. HAPPY"]

    def test_check_success_fractions(self):
        task, _ = self._task_and_input()
        output = "\n".join(WORDS)
        verdict = task.check_success(output, ANSWERS)
        assert verdict == {"letters": 1.0, "words": 1.0, "game": 1.0, "success": 1.0}
        partial = task.check_success("A" * 5 + "\n" + "\n".join(WORDS[1:]), ANSWERS)
        assert partial["game"] == 0.0
        assert 0.0 < partial["letters"] < 1.0

    def test_check_success_tolerates_garbage(self):
        task, _ = self._task_and_input()
        verdict = task.check_success("not a board", ANSWERS)
        assert verdict["success"] == 0.0

    def test_terminal_when_full_or_deep(self):
        task, problem_input = self._task_and_input()
        thoughts = tuple(f"{slot}. {word}" for slot, word in zip(SLOTS[:5], WORDS))
        # five rows fill all 25 cells
        assert task.is_terminal(make_state(problem_input, thoughts))
        assert not task.is_terminal(make_state(problem_input, thoughts[:2]))

    def test_extract_final_answer_takes_last_grid(self):
        task, _ = self._task_and_input()
        text = "noise\n" + "\n".join(WORDS) + "\nmore noise\n" + "\n".join(
            ["AAAAA"] * 5
        )
        assert task.extract_final_answer(text) == "\n".join(["AAAAA"] * 5)
        assert task.extract_final_answer("too\nshort") is None

    def test_value_words(self):
        task, _ = self._task_and_input()
        assert task.parse_value("sure") == 20.0
        assert task.parse_value("maybe") == 1.0
        assert task.parse_value("impossible") == 0.001
        assert task.parse_value("Looks bad.\nimpossible") == 0.001
