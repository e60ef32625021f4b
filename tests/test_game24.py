"""Game of 24: expression parsing, exact arithmetic, and the solver oracle.

Everything here runs on fractions.Fraction, so equality checks are exact;
no test in this module uses a floating tolerance. The brute-force oracle
is cross-checked against expression evaluation on random four-number
tuples, including mutated witnesses as negative controls.
"""

from __future__ import annotations

import itertools
import random
import re
import sys
from concurrent.futures import ThreadPoolExecutor
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from tout import InvalidArgumentError, SearchConfig, Transcript
from tout.harness import run_benchmark
from tout.tasks import Problem, make_task
from tout.tasks import game24
from tout.tasks.game24 import (
    BinOp,
    ExpressionError,
    Literal,
    Puzzle24,
    apply_step,
    brute_force_solvable,
    canonical_equation,
    check_solution,
    eval_expression,
    evaluate_expression,
    expression_literals,
    format_expression,
    format_number,
    load_game24_csv,
    normalize_expression,
    parse_expression,
    parse_puzzle,
    parse_step,
    solution_verdicts,
    state_numbers,
)

from helpers import EpisodeScript, make_state


def expressions(max_depth=3):
    """Random expression trees over small positive literals."""
    literal = st.integers(min_value=1, max_value=13).map(Literal)
    return st.recursive(
        literal,
        lambda children: st.tuples(
            st.sampled_from("+-*/"), children, children
        ).map(lambda t: BinOp(op=t[0], left=t[1], right=t[2])),
        max_leaves=2**max_depth,
    )


class TestParsing:
    def test_plain_product(self):
        value, literals = evaluate_expression("(13-9)*(10-4)")
        assert value == Fraction(24)
        assert literals == [13, 9, 10, 4]

    def test_x_is_multiplication(self):
        assert eval_expression(parse_expression("4x6")) == Fraction(24)
        assert eval_expression(parse_expression("4X6")) == Fraction(24)

    def test_division_is_exact(self):
        assert eval_expression(parse_expression("8/3")) == Fraction(8, 3)

    def test_nested_parens(self):
        assert eval_expression(parse_expression("((1+2))*((8))")) == Fraction(24)

    def test_literal_order_is_left_to_right(self):
        expr = parse_expression("1+(2*3)-4")
        assert expression_literals(expr) == [1, 2, 3, 4]

    @pytest.mark.parametrize(
        "text,position",
        [
            ("((4)", 4),
            ("(4 5", 3),
            ("", 0),
            ("4+*3", 2),
            ("4+", 2),
            (")4", 0),
            ("(1+2))", 5),
        ],
    )
    def test_error_positions(self, text, position):
        with pytest.raises(ExpressionError) as err:
            parse_expression(text)
        assert err.value.position == position

    def test_division_by_zero_reports_operator_position(self):
        with pytest.raises(ExpressionError) as err:
            eval_expression(parse_expression("4/(3-3)"))
        assert err.value.position == 1

    def test_letters_rejected(self):
        with pytest.raises(ExpressionError):
            parse_expression("four+20")


@given(expressions())
def test_format_parse_round_trip(expr):
    """Printing and re-parsing reproduces the same tree shape."""
    text = format_expression(expr)
    again = parse_expression(text)
    assert again == expr
    assert format_expression(again) == text


@given(expressions())
def test_round_trip_preserves_value(expr):
    try:
        value = eval_expression(expr)
    except ExpressionError:
        return  # division by zero inside a random tree
    assert eval_expression(parse_expression(format_expression(expr))) == value


@given(
    st.fractions(
        min_value=Fraction(-100), max_value=Fraction(100)
    ).filter(lambda f: f != 0),
    st.fractions(min_value=Fraction(-100), max_value=Fraction(100)),
)
def test_divide_then_multiply_is_identity(b, a):
    """(a/b)*b == a exactly; the arithmetic never rounds."""
    assert (a / b) * b == a


class TestCanonicalForm:
    def test_equation_text(self):
        expr = parse_expression("(13-9)*(10-4)")
        assert canonical_equation(expr) == "(13-9)*(10-4)=24"

    def test_inner_parens_always_emitted(self):
        expr = parse_expression("1+2+3")
        assert format_expression(expr) == "(1+2)+3"


class TestSolutionVerdicts:
    def test_valid_solution(self):
        verdicts = solution_verdicts("(13-9)*(10-4)", "4 9 10 13")
        assert verdicts == {
            "parsed": 1.0,
            "numbers_match": 1.0,
            "equals_24": 1.0,
            "success": 1.0,
        }

    def test_answer_suffix_tolerated(self):
        assert solution_verdicts("(13-9)*(10-4) = 24", "4 9 10 13")["success"] == 1.0

    def test_numbers_must_match_multiset(self):
        # reuses 12 twice while the puzzle only has one
        verdicts = solution_verdicts("12+12=24", "12 12 1 1")
        assert verdicts["parsed"] == 1.0
        assert verdicts["numbers_match"] == 0.0
        assert verdicts["success"] == 0.0

    def test_wrong_value(self):
        verdicts = solution_verdicts("4+9+10-13", "4 9 10 13")
        assert verdicts["numbers_match"] == 1.0
        assert verdicts["equals_24"] == 0.0
        assert verdicts["success"] == 0.0

    def test_unparseable(self):
        verdicts = solution_verdicts("no idea", "4 9 10 13")
        assert verdicts["parsed"] == 0.0
        assert verdicts["success"] == 0.0

    def test_check_solution_boolean_and_note(self):
        transcript = Transcript()
        assert check_solution("(13-9)*(10-4)", "4 9 10 13", transcript) is True
        assert check_solution("4+9", "4 9 10 13", transcript) is False
        notes = [e for e in transcript.events if e["event"] == "note"]
        assert len(notes) == 1
        assert "numbers_match" in notes[0]["text"]

    def test_check_solution_accepts_puzzle_object(self):
        puzzle = Puzzle24(numbers=(4, 9, 10, 13), index=1)
        assert check_solution("(13-9)*(10-4)", puzzle) is True


class TestOracle:
    def test_known_solvable(self):
        witness = brute_force_solvable([3, 3, 8, 8])
        assert witness is not None
        value, literals = evaluate_expression(witness)
        assert value == Fraction(24)
        assert sorted(literals) == [3, 3, 8, 8]

    def test_known_unsolvable(self):
        assert brute_force_solvable([1, 1, 1, 1]) is None

    def test_oracle_agreement_random_tuples(self):
        """Every witness verifies; mutating a witness never silently passes.

        Solvability itself is cross-checked more heavily in the acceptance
        suite; here 200 tuples keep the unit run fast.
        """
        rng = random.Random(24)
        for _ in range(200):
            numbers = sorted(rng.randint(1, 13) for _ in range(4))
            witness = brute_force_solvable(list(numbers))
            if witness is None:
                continue
            value, literals = evaluate_expression(witness)
            assert value == Fraction(24)
            assert sorted(literals) == numbers
            # a witness for different numbers must be rejected
            mutated = list(numbers)
            mutated[0] = mutated[0] + 1
            verdict = solution_verdicts(witness, " ".join(map(str, mutated)))
            assert verdict["numbers_match"] == 0.0 or sorted(mutated) == numbers

    def test_exhaustive_small_space_matches_permutation_search(self):
        """Independent check: enumerate all parenthesizations directly."""

        def solvable_by_enumeration(numbers):
            shapes = [
                "(({0}{4}{1}){5}{2}){6}{3}",
                "({0}{4}({1}{5}{2})){6}{3}",
                "({0}{4}{1}){5}({2}{6}{3})",
                "{0}{4}(({1}{5}{2}){6}{3})",
                "{0}{4}({1}{5}({2}{6}{3}))",
            ]
            for perm in set(itertools.permutations(numbers)):
                for ops in itertools.product("+-*/", repeat=3):
                    for shape in shapes:
                        text = shape.format(*perm, *ops)
                        try:
                            value, _ = evaluate_expression(text)
                        except ExpressionError:
                            continue
                        if value == Fraction(24):
                            return True
            return False

        rng = random.Random(7)
        for _ in range(25):
            numbers = [rng.randint(1, 10) for _ in range(4)]
            assert (brute_force_solvable(numbers) is not None) == (
                solvable_by_enumeration(numbers)
            ), numbers


class TestSteps:
    def test_parse_step_shapes(self):
        parsed = parse_step("10-4=6 (left: 5 6 6)")
        assert parsed is not None
        a, op, b, c, left = parsed
        assert (a, op, b, c) == (Fraction(10), "-", Fraction(4), Fraction(6))
        assert left == [Fraction(5), Fraction(6), Fraction(6)]

    def test_parse_step_fractions(self):
        parsed = parse_step("5/2=5/2 (left: 3 5/2 12)")
        assert parsed is not None
        assert parsed[3] == Fraction(5, 2)

    def test_parse_step_rejects_prose(self):
        assert parse_step("I think we should add") is None

    def test_apply_step_consumes_operands(self):
        after = apply_step([Fraction(n) for n in (4, 5, 6, 10)], "4+5=9 (left: 6 9 10)")
        assert after == [Fraction(6), Fraction(9), Fraction(10)]

    def test_apply_step_rejects_wrong_arithmetic(self):
        assert (
            apply_step([Fraction(n) for n in (4, 5, 6, 10)], "4+5=10 (left: 6 10 10)")
            is None
        )

    def test_apply_step_rejects_missing_operand(self):
        assert (
            apply_step([Fraction(n) for n in (4, 5, 6, 10)], "3+5=8 (left: 4 6 10)")
            is None
        )

    def test_apply_step_rejects_wrong_leftover(self):
        assert (
            apply_step([Fraction(n) for n in (4, 5, 6, 10)], "4+5=9 (left: 9 10)")
            is None
        )

    def test_apply_step_rejects_duplicate_use(self):
        # only one 4 available
        assert (
            apply_step([Fraction(n) for n in (4, 5, 6, 10)], "4*4=16 (left: 5 6 10 16)")
            is None
        )

    def test_apply_step_rejects_division_by_zero(self):
        numbers = [Fraction(n) for n in (4, 0, 6, 10)]
        assert apply_step(numbers, "4/0=0 (left: 0 6 10)") is None


# The Fraction-based step code that parse_step/apply_step replaced, kept as
# the reference they must agree with.
_REFERENCE_STEP = re.compile(
    r"^\s*(-?\d+(?:/\d+)?)\s*([-+*/])\s*(-?\d+(?:/\d+)?)\s*=\s*"
    r"(-?\d+(?:/\d+)?)\s*\(left:\s*([^)]*)\)\s*$"
)
_REFERENCE_OPS = {
    "+": lambda a, b: a + b,
    "-": lambda a, b: a - b,
    "*": lambda a, b: a * b,
    "/": lambda a, b: a / b,
}


def reference_parse_step(line):
    match = _REFERENCE_STEP.match(line)
    if match is None:
        return None
    try:
        a = Fraction(match.group(1))
        op = match.group(2)
        b = Fraction(match.group(3))
        c = Fraction(match.group(4))
        left = [Fraction(tok) for tok in match.group(5).split()]
    except (ValueError, ZeroDivisionError):
        return None
    return a, op, b, c, left


def reference_apply_step(numbers, line):
    parsed = reference_parse_step(line)
    if parsed is None:
        return None
    a, op, b, c, left = parsed
    pool = list(numbers)
    for operand in (a, b):
        if operand not in pool:
            return None
        pool.remove(operand)
    if op == "/" and b == 0:
        return None
    if _REFERENCE_OPS[op](a, b) != c:
        return None
    pool.append(c)
    if sorted(pool) != sorted(left):
        return None
    return left


# format_numberings Fraction reads but the step pattern does not, or reads oddly
ODD_TOKENS = ["1.5", "+3", "3/0", "0/5", "-0", "\u0663", "1e3", "1_0", "007",
              "2/4", "3/-4", "x", "\u00b2", "-2/6"]
POOL = [Fraction(n) for n in (0, 1, 2, 3, 4, 6, 24)] + [Fraction(1, 2), Fraction(-3, 4)]


@st.composite
def step_lines(draw):
    """(numbers, line): a step over numbers that is valid unless a part of it
    is swapped for an odd token, a missing operand or a wrong leftover."""
    numbers = draw(st.lists(st.sampled_from(POOL), min_size=2, max_size=4))
    i, j = draw(st.permutations(range(len(numbers))))[:2]
    a, b = numbers[i], numbers[j]
    op = draw(st.sampled_from("+-*/"))
    c = _REFERENCE_OPS[op](a, b) if op != "/" or b != 0 else Fraction(0)
    left = [n for k, n in enumerate(numbers) if k not in (i, j)] + [c]
    parts = [format_number(a), format_number(b), format_number(c)] + [format_number(n) for n in draw(st.permutations(left))]
    others = st.one_of(st.sampled_from(ODD_TOKENS), st.sampled_from(POOL).map(format_number))
    for k in draw(st.lists(st.integers(0, len(parts) - 1), max_size=2)):
        parts[k] = draw(others)
    count = draw(st.sampled_from(["right", "more", "fewer"]))  # leftover count
    if count == "more":
        parts.append(draw(others))
    elif count == "fewer":
        parts.pop()
    space = draw(st.sampled_from(["", " ", "  "]))
    head = f"{parts[0]}{space}{op}{space}{parts[1]}{space}={space}{parts[2]}"
    return numbers, f"{head} (left: {' '.join(parts[3:])})"


class TestStepsAgreeWithFractionParser:
    @pytest.mark.parametrize("numbers, line", [
        ((4, 5, 6, 10), "4+5=9 (left: 6 9 10)"),
        ((4, 5, 6, 10), "4+5=9 (left: 6 9.0 1e1)"),
        ((4, 5, 6, 10), "4+5=9 (left: +6 9 10)"),
        ((4, 5, 6, 10), "4+5=9 (left: 6 18/2 \u0661\u0660)"),
        ((3, 2, 6, 6), "3/2=3/2 (left: 1.5 6 6)"),
        ((4, 4, 5, 6), "4*4=16 (left: 5 6 16)"),  # duplicate operands
        ((4, 5, 6, 10), "4*4=16 (left: 5 6 10 16)"),  # one 4 only
        ((4, 5, 6, 10), "4+5=9 (left: 6 9)"),  # wrong leftover
        ((4, 5, 6, 10), "4+5=9 (left: 6 9 11)"),
        ((4, 0, 6, 10), "4/0=0 (left: 0 6 10)"),
        ((4, 0, 6, 10), "0/4=0/5 (left: -0 6 10)"),
        ((4, 5, 6, 10), "4+5=9 (left: 6 9 3/0)"),
        ((4, 5, 6, 10), "\u0664+5=9 (left: 6 9 10)"),
    ])
    def test_listed_lines(self, numbers, line):
        numbers = [Fraction(n) for n in numbers]
        assert parse_step(line) == reference_parse_step(line)
        assert apply_step(numbers, line) == reference_apply_step(numbers, line)

    @given(step_lines())
    def test_generated_steps(self, case):
        numbers, line = case
        assert parse_step(line) == reference_parse_step(line)
        assert apply_step(numbers, line) == reference_apply_step(numbers, line)

    @given(st.text(alphabet="0123456789/+-*=. ()left:\u0663e_x"))
    def test_any_text(self, line):
        assert parse_step(line) == reference_parse_step(line)


SHARED_TASK = make_task("game24")


def count_apply_step(monkeypatch) -> list[str]:
    """The lines apply_step is called with from now on, in order."""
    calls: list[str] = []
    real = game24.apply_step

    def counting(numbers, line):
        calls.append(line)
        return real(numbers, line)

    monkeypatch.setattr(game24, "apply_step", counting)
    return calls


@st.composite
def valid_paths(draw):
    """(puzzle numbers, thoughts): up to 3 valid steps, as a model writes them."""
    numbers = draw(st.lists(st.integers(1, 13), min_size=4, max_size=4))
    pool = [Fraction(n) for n in numbers]
    thoughts: list[str] = []
    for _ in range(draw(st.integers(0, 3))):
        i, j = draw(st.permutations(range(len(pool))))[:2]
        a, b = pool[i], pool[j]
        op = draw(st.sampled_from("+-*" if b == 0 else "+-*/"))
        c = _REFERENCE_OPS[op](a, b)
        pool = [n for k, n in enumerate(pool) if k not in (i, j)] + [c]
        left = " ".join(format_number(n) for n in draw(st.permutations(pool)))
        thoughts.append(
            f"{format_number(a)} {op} {format_number(b)} = {format_number(c)} (left: {left})"
        )
    return numbers, tuple(thoughts)


class TestCurrentNumbers:
    def test_replays_every_thought(self):
        task = make_task("game24")
        state = make_state("4 5 6 10", ("4+5=9 (left: 6 9 10)", "10-6=4 (left: 4 9)"))
        assert task.current_numbers(state) == [Fraction(4), Fraction(9)]

    @pytest.mark.parametrize("thoughts", [
        ("4+5=10 (left: 6 10 10)",),  # wrong arithmetic
        ("3+5=8 (left: 4 6 8 10)",),  # 3 is not a puzzle number
        ("4+5=9 (left: 6 9 10)", "4+6=10 (left: 9 10 10)"),  # 4 is used up
    ])
    def test_invalid_stored_thought_raises(self, thoughts):
        task = make_task("game24")
        with pytest.raises(InvalidArgumentError, match="stored thought is invalid"):
            task.current_numbers(make_state("4 5 6 10", thoughts))

    def test_valid_prefix_memoised_invalid_child_raises_every_call(self, monkeypatch):
        task = make_task("game24")
        prefix = ("4+5=9 (left: 6 9 10)", "10-6=4 (left: 4 9)")
        assert task.current_numbers(make_state("4 5 6 10", prefix)) == [4, 9]
        calls = count_apply_step(monkeypatch)
        assert task.current_numbers(make_state("4 5 6 10", prefix)) == [4, 9]
        assert calls == []  # the path is not replayed
        child = make_state("4 5 6 10", prefix + ("4*9=24 (left: 25)",))
        for attempt in range(1, 4):
            with pytest.raises(InvalidArgumentError, match="stored thought is invalid"):
                task.current_numbers(child)
            assert len(calls) == attempt  # only the child's own step, each call
        with pytest.raises(InvalidArgumentError, match="stored thought is invalid"):
            task.parse_proposals(child, "24 - 0 = 24 (left: 24)", k=5)

    def test_returned_list_is_the_callers(self):
        task = make_task("game24")
        state = make_state("4 5 6 10", ("4+5=9 (left: 6 9 10)",))
        numbers = task.current_numbers(state)
        numbers.append(Fraction(99))
        numbers[0] = Fraction(0)
        assert task.current_numbers(state) == [6, 9, 10]

    @given(valid_paths())
    def test_memo_agrees_with_a_straight_replay(self, case):
        numbers, thoughts = case
        puzzle = " ".join(str(n) for n in numbers)
        replay = [Fraction(n) for n in numbers]
        for depth in range(len(thoughts) + 1):
            if depth:
                replay = reference_apply_step(replay, thoughts[depth - 1])
            state = make_state(puzzle, thoughts[:depth])
            assert SHARED_TASK.current_numbers(state) == replay

    def test_threads_sharing_the_memo_read_every_path_right(self):
        # --jobs episodes share the memo: threads fill, hit and clear the
        # same entries at once
        paths = [("4 5 6 10", ("4+5=9 (left: 6 9 10)", "10-6=4 (left: 4 9)")),
                 ("3 3 8 8", ("8/3=8/3 (left: 3 8 8/3)", "3-8/3=1/3 (left: 8 1/3)")),
                 ("1 2 3 4", ("1+2=3 (left: 3 3 4)",))]
        expected = {}
        for puzzle, thoughts in paths:
            numbers = [Fraction(n) for n in puzzle.split()]
            for thought in thoughts:
                numbers = reference_apply_step(numbers, thought)
            expected[puzzle] = numbers

        def read(i):
            puzzle, thoughts = paths[i % len(paths)]
            if i % 50 == 0:
                state_numbers.cache_clear()
            return puzzle, SHARED_TASK.current_numbers(make_state(puzzle, thoughts))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=16) as pool:
                results = list(pool.map(read, range(3000), timeout=60))
        finally:
            sys.setswitchinterval(interval)
        assert len(results) == 3000
        assert all(numbers == expected[puzzle] for puzzle, numbers in results)

    def test_apply_step_calls_per_fresh_tout_bfs_episode(self, monkeypatch):
        # k=2, b=1, T=3: each of the 3 expansions checks its 2 proposals,
        # and each check derives a child's numbers, which the child's own
        # prompts then reuse. A replay of every path on every prompt made 24.
        config = SearchConfig(k=2, b=1, T=3, m=3)
        task = make_task("game24")
        episode = EpisodeScript(task=task, config=config)
        steps = [
            ("13 - 9 = 4 (left: 4 4 10)", "4 + 9 = 13 (left: 10 13 13)"),
            ("10 - 4 = 6 (left: 4 6)", "4 + 4 = 8 (left: 8 10)"),
            ("4 * 6 = 24 (left: 24)", "4 + 6 = 10 (left: 10)"),
        ]
        thoughts: tuple[str, ...] = ()
        for right, wrong in steps:
            episode.propose(make_state("4 9 10 13", thoughts), [right, wrong])
            episode.value(make_state("4 9 10 13", thoughts + (right,)), ["sure"] * 3)
            episode.value(make_state("4 9 10 13", thoughts + (wrong,)), ["impossible"] * 3)
            thoughts += (right,)
        episode.final(make_state("4 9 10 13", thoughts), "Answer: (13 - 9) * (10 - 4)")
        backend = episode.backend()
        problems = [Problem(problem_id="game24/0", input="4 9 10 13", truth="4 9 10 13")]
        state_numbers.cache_clear()
        calls = count_apply_step(monkeypatch)
        report = run_benchmark(task, problems, "tout_bfs", lambda seed: backend, config)
        assert report.results[0].record.verdicts["success"] == 1.0
        assert len(calls) == 6
        calls.clear()  # a replay of the same episode derives nothing again
        run_benchmark(task, problems, "tout_bfs", lambda seed: backend, config)
        assert calls == []


class TestTaskAdapter:
    def test_proposals_filtered_by_validity(self):
        task = make_task("game24")
        state = make_state("4 5 6 10")
        text = "\n".join(
            [
                "4+5=9 (left: 6 9 10)",
                "4+5=10 (left: 6 10 10)",  # wrong sum, dropped
                "10-6=4 (left: 4 4 5)",
                "not a step at all",
            ]
        )
        proposals = task.parse_proposals(state, text, k=5)
        assert proposals == ["4+5=9 (left: 6 9 10)", "10-6=4 (left: 4 4 5)"]

    def test_proposals_capped_at_k(self):
        task = make_task("game24")
        state = make_state("4 5 6 10")
        lines = [
            "4+5=9 (left: 6 9 10)",
            "4+6=10 (left: 5 10 10)",
            "4+10=14 (left: 5 6 14)",
        ]
        assert len(task.parse_proposals(state, "\n".join(lines), k=2)) == 2

    def test_value_words(self):
        task = make_task("game24")
        assert task.parse_value("sure") == 20.0
        assert task.parse_value("likely") == 1.0
        assert task.parse_value("impossible") == 0.001
        assert task.parse_value("hmm, impossible I think.\nsure") == 20.0
        assert task.parse_value("nothing recognizable") == 0.001

    def test_parse_final_canonicalizes(self):
        task = make_task("game24")
        assert task.parse_final("Answer: (13-9)*(10-4)") == "(13-9)*(10-4)=24"
        # unparseable output passes through untouched
        assert task.parse_final("Answer: gibberish") == "gibberish"
        # without an Answer: line the whole text is the answer, and an
        # "= 24" is cut from either side
        assert task.parse_final("(13-9)*(10-4) = 24") == "(13-9)*(10-4)=24"
        assert normalize_expression("24 = 4 * 6") == "4 * 6"

    def test_check_success_uses_verdicts(self):
        task = make_task("game24")
        result = task.check_success("(13-9)*(10-4)=24", "4 9 10 13")
        assert result["success"] == 1.0

    def test_terminal_at_three_steps(self):
        task = make_task("game24")
        assert not task.is_terminal(make_state("4 5 6 10", ("4+5=9 (left: 6 9 10)",)))
        state = make_state(
            "4 5 6 10",
            (
                "4+5=9 (left: 6 9 10)",
                "10-6=4 (left: 4 9)",
                "4+9=13 (left: 13)",
            ),
        )
        assert task.is_terminal(state)


class TestPuzzleTypes:
    def test_parse_puzzle(self):
        assert parse_puzzle("4 5 6 10") == [4, 5, 6, 10]
        with pytest.raises(Exception):
            parse_puzzle("1, 1, 4, 6")  # whitespace-separated only
        with pytest.raises(Exception):
            parse_puzzle("4 5 6")

    def test_puzzle_requires_four_numbers(self):
        with pytest.raises(Exception):
            Puzzle24(numbers=(1, 2, 3))

    def test_puzzle_text(self):
        assert Puzzle24(numbers=(4, 5, 6, 10), index=3).text == "4 5 6 10"

    def test_load_csv(self, tmp_path):
        path = tmp_path / "puzzles.csv"
        path.write_text("rank,puzzle\n1,1 1 4 6\n2,1 1 11 11\n")
        puzzles = load_game24_csv(path)
        assert [p.index for p in puzzles] == [1, 2]
        assert puzzles[0].numbers == (1, 1, 4, 6)

    def test_bundled_dataset_all_solvable(self):
        puzzles = load_game24_csv("datasets/game24.csv")
        assert len(puzzles) == 20
        for puzzle in puzzles:
            assert brute_force_solvable(list(puzzle.numbers)) is not None
