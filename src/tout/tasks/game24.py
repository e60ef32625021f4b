"""Game of 24: combine four numbers with + - * / to reach exactly 24.

All arithmetic is exact rational arithmetic. Thoughts are single combining
steps of the form ``a op b = c (left: ...)``; three steps reduce the four
inputs to one number, and a final greedy generation composes the closed
expression that the checker verifies.

``brute_force_solvable`` is an independent solver that works on raw
(numerator, denominator) integer pairs rather than Fraction, so the checker
and the solver cannot share an arithmetic bug.
"""

from __future__ import annotations

import csv
import re
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from pathlib import Path
from types import MappingProxyType
from typing import Any, Iterator, Optional, Sequence

from ..model import InvalidArgumentError, State, TaskSpec, Transcript

TARGET = Fraction(24)

OPS = {
    "+": lambda a, b: a + b,
    "-": lambda a, b: a - b,
    "*": lambda a, b: a * b,
    "/": lambda a, b: a / b,
}


class ExpressionError(InvalidArgumentError):
    """Parse or evaluation failure, carrying the offending position."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} at position {position}")
        self.position = position


@dataclass(frozen=True)
class Literal:
    """An integer leaf. Position is source offset, excluded from equality."""

    value: int
    position: int = field(default=0, compare=False)


@dataclass(frozen=True)
class BinOp:
    op: str
    left: "Expression"
    right: "Expression"
    position: int = field(default=0, compare=False)


Expression = Literal | BinOp


# x and X are common model shorthand for multiplication
_TOKEN = re.compile(r"\s*(?:(\d+)|([-+*/()xX]))")


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    tokens: list[tuple[str, str, int]] = []
    pos = 0
    while pos < len(text):
        match = _TOKEN.match(text, pos)
        if match is None:
            stripped = text[pos:].lstrip()
            if not stripped:
                break
            raise ExpressionError(
                f"unexpected character {stripped[0]!r}",
                len(text) - len(stripped),
            )
        number, symbol = match.group(1), match.group(2)
        if symbol in ("x", "X"):
            symbol = "*"
        start = match.end() - len(number or symbol)
        tokens.append(("num", number, start) if number else ("sym", symbol, start))
        pos = match.end()
    return tokens


class _Parser:
    """Recursive descent over + - * / with the usual precedence."""

    def __init__(self, text: str):
        self.text = text
        self.tokens = _tokenize(text)
        self.index = 0

    def _peek(self) -> Optional[tuple[str, str, int]]:
        if self.index < len(self.tokens):
            return self.tokens[self.index]
        return None

    def _take(self) -> tuple[str, str, int]:
        token = self._peek()
        if token is None:
            raise ExpressionError("unexpected end of expression", len(self.text))
        self.index += 1
        return token

    def parse(self) -> Expression:
        if not self.tokens:
            raise ExpressionError("empty expression", 0)
        tree = self._expr()
        trailing = self._peek()
        if trailing is not None:
            raise ExpressionError(f"unexpected {trailing[1]!r}", trailing[2])
        return tree

    def _expr(self) -> Expression:
        tree = self._term()
        while True:
            token = self._peek()
            if token is None or token[1] not in "+-":
                return tree
            _, op, pos = self._take()
            tree = BinOp(op, tree, self._term(), position=pos)

    def _term(self) -> Expression:
        tree = self._factor()
        while True:
            token = self._peek()
            if token is None or token[1] not in "*/":
                return tree
            _, op, pos = self._take()
            tree = BinOp(op, tree, self._factor(), position=pos)

    def _factor(self) -> Expression:
        kind, value, pos = self._take()
        if kind == "num":
            return Literal(int(value), position=pos)
        if value == "(":
            inner = self._expr()
            closing = self._peek()
            if closing is None:
                raise ExpressionError("expected ')'", len(self.text))
            if closing[1] != ")":
                raise ExpressionError("expected ')'", closing[2])
            self._take()
            return inner
        raise ExpressionError(f"unexpected {value!r}", pos)


def parse_expression(text: str) -> Expression:
    return _Parser(text).parse()


def eval_expression(expr: Expression) -> Fraction:
    """Exact rational value; division by zero is an ExpressionError."""
    if isinstance(expr, Literal):
        return Fraction(expr.value)
    left = eval_expression(expr.left)
    right = eval_expression(expr.right)
    if expr.op == "/" and right == 0:
        raise ExpressionError("division by zero", expr.position)
    return OPS[expr.op](left, right)


def expression_literals(expr: Expression) -> list[int]:
    """Leaf values, left to right."""
    if isinstance(expr, Literal):
        return [expr.value]
    return expression_literals(expr.left) + expression_literals(expr.right)


def format_expression(expr: Expression) -> str:
    """Print with every subexpression parenthesized, outermost bare.

    Inner parentheses pin the tree shape, so re-parsing the printed text
    reconstructs an identical tree regardless of operator precedence.
    """
    if isinstance(expr, Literal):
        return str(expr.value)
    return f"{_parenthesized(expr.left)}{expr.op}{_parenthesized(expr.right)}"


# A module function, not a closure: a recursive closure refers to itself
# through its cell, a cycle only the collector frees, made on every call.
def _parenthesized(node: Expression) -> str:
    if isinstance(node, Literal):
        return str(node.value)
    return f"({_parenthesized(node.left)}{node.op}{_parenthesized(node.right)})"


def canonical_equation(expr: Expression) -> str:
    return f"{format_expression(expr)}=24"


def evaluate_expression(text: str) -> tuple[Fraction, list[int]]:
    """Exact value of the expression plus its number literals in order."""
    tree = parse_expression(text)
    return eval_expression(tree), expression_literals(tree)


def normalize_expression(text: str) -> str:
    """Strip answer-line dressing like 'Answer:' and an '= 24' tail."""
    expr = text.strip()
    expr = re.sub(r"^answer\s*:\s*", "", expr, flags=re.IGNORECASE)
    match = re.match(r"^(.*\S)\s*=\s*24\s*$", expr)
    if match:
        expr = match.group(1)
    match = re.match(r"^\s*24\s*=\s*(.*)$", expr)
    if match:
        expr = match.group(1).strip()
    return expr


def parse_puzzle(text: str) -> list[int]:
    tokens = text.split()
    if len(tokens) != 4:
        raise InvalidArgumentError(f"puzzle needs 4 numbers, got {len(tokens)}")
    try:
        numbers = [int(tok) for tok in tokens]
    except ValueError as exc:
        raise InvalidArgumentError(f"puzzle numbers must be integers: {exc}")
    if any(n <= 0 for n in numbers):
        raise InvalidArgumentError("puzzle numbers must be positive")
    return numbers


@dataclass(frozen=True)
class Puzzle24:
    """Four positive card values plus the dataset rank they came from."""

    numbers: tuple[int, ...]
    index: int = 0

    def __post_init__(self):
        if len(self.numbers) != 4:
            raise InvalidArgumentError(
                f"puzzle needs 4 numbers, got {len(self.numbers)}"
            )

    @property
    def text(self) -> str:
        return " ".join(str(n) for n in self.numbers)


def _puzzle_numbers(puzzle: "Puzzle24 | str | Sequence[int]") -> list[int]:
    if isinstance(puzzle, Puzzle24):
        return list(puzzle.numbers)
    if isinstance(puzzle, str):
        return parse_puzzle(puzzle)
    return [int(n) for n in puzzle]


def solution_verdicts(
    candidate: str, puzzle: "Puzzle24 | str | Sequence[int]"
) -> dict[str, float]:
    """Exact verdicts for one proposed answer.

    success requires: the candidate parses, uses each puzzle number
    exactly once (as a multiset), and evaluates to exactly 24.
    """
    verdicts = {"parsed": 0.0, "numbers_match": 0.0, "equals_24": 0.0, "success": 0.0}
    try:
        target_numbers = _puzzle_numbers(puzzle)
    except InvalidArgumentError:
        return verdicts
    try:
        value, used = evaluate_expression(normalize_expression(candidate))
    except ExpressionError:
        return verdicts
    verdicts["parsed"] = 1.0
    if sorted(used) == sorted(target_numbers):
        verdicts["numbers_match"] = 1.0
    if value == TARGET:
        verdicts["equals_24"] = 1.0
    if verdicts["numbers_match"] and verdicts["equals_24"]:
        verdicts["success"] = 1.0
    return verdicts


def check_solution(
    candidate: str,
    puzzle: "Puzzle24 | str | Sequence[int]",
    transcript: Optional[Transcript] = None,
) -> bool:
    """True iff the candidate exactly solves the puzzle; never raises.

    Failures leave a note naming the first failed requirement when a
    transcript is supplied.
    """
    verdicts = solution_verdicts(candidate, puzzle)
    ok = verdicts["success"] == 1.0
    if not ok and transcript is not None:
        reason = next(
            (name for name, value in verdicts.items() if value == 0.0), "success"
        )
        transcript.emit(
            "note", text=f"solution rejected: {reason}", candidate=candidate
        )
    return ok


def _pair_ops(
    a: tuple[tuple[int, int], str], b: tuple[tuple[int, int], str]
) -> Iterator[tuple[tuple[int, int], str]]:
    # raw integer-pair arithmetic on (numerator, denominator), on purpose
    # not Fraction: this route must stay independent of the checker
    (an, ad), ae = a
    (bn, bd), be = b
    yield (an * bd + bn * ad, ad * bd), f"({ae} + {be})"
    yield (an * bd - bn * ad, ad * bd), f"({ae} - {be})"
    yield (bn * ad - an * bd, ad * bd), f"({be} - {ae})"
    yield (an * bn, ad * bd), f"({ae} * {be})"
    if bn != 0:
        yield (an * bd, ad * bn), f"({ae} / {be})"
    if an != 0:
        yield (bn * ad, bd * an), f"({be} / {ae})"


def _search_pairs(items: list[tuple[tuple[int, int], str]]) -> Optional[str]:
    if len(items) == 1:
        (num, den), expr = items[0]
        if num == 24 * den:
            return expr
        return None
    for i in range(len(items)):
        for j in range(i + 1, len(items)):
            rest = [items[x] for x in range(len(items)) if x != i and x != j]
            for combined in _pair_ops(items[i], items[j]):
                found = _search_pairs(rest + [combined])
                if found is not None:
                    return found
    return None


def brute_force_solvable(numbers: list[int]) -> Optional[str]:
    """Witness expression reaching 24, or None when the puzzle has none."""
    items = [((n, 1), str(n)) for n in numbers]
    witness = _search_pairs(items)
    if witness is None:
        return None
    if witness.startswith("(") and witness.endswith(")"):
        witness = witness[1:-1]
    return witness


def format_number(value: Fraction) -> str:
    if value.denominator == 1:
        return str(value.numerator)
    return f"{value.numerator}/{value.denominator}"


# a number of a step line: an integer or a/b, numerator and denominator
# captured apart so no string goes through Fraction's parser
_NUMBER = re.compile(r"(-?\d+)(?:/(\d+))?")
_STEP = re.compile(
    rf"^\s*{_NUMBER.pattern}\s*([-+*/])\s*{_NUMBER.pattern}\s*=\s*"
    rf"{_NUMBER.pattern}\s*\(left:\s*([^)]*)\)\s*$"
)


def _fraction(numerator: str, denominator: Optional[str]) -> Fraction:
    if denominator is None:
        return Fraction(int(numerator))
    return Fraction(int(numerator), int(denominator))


def _left_number(token: str) -> Fraction:
    """A ``left:`` token as Fraction(token) reads it; any other spelling
    (1.5, +3, 1e3) still goes through that parser, so it accepts the same."""
    match = _NUMBER.fullmatch(token)
    if match is None:
        return Fraction(token)
    return _fraction(*match.groups())


def parse_step(line: str) -> Optional[tuple[Fraction, str, Fraction, Fraction, list[Fraction]]]:
    match = _STEP.match(line)
    if match is None:
        return None
    a_num, a_den, op, b_num, b_den, c_num, c_den, left_text = match.groups()
    try:
        a = _fraction(a_num, a_den)
        b = _fraction(b_num, b_den)
        c = _fraction(c_num, c_den)
        left = [_left_number(tok) for tok in left_text.split()]
    except (ValueError, ZeroDivisionError):
        return None
    return a, op, b, c, left


def _pairs(numbers: list[Fraction]) -> list[tuple[int, int]]:
    """Sorted (numerator, denominator) pairs: the multiset as plain tuples,
    compared without Fraction's Python-level ordering."""
    return sorted([(n.numerator, n.denominator) for n in numbers])


def apply_step(
    numbers: Sequence[Fraction], line: str
) -> Optional[list[Fraction]]:
    """Remaining numbers after one step, or None if the step is invalid.

    Invalid means: malformed line, operands not available in the current
    multiset, declared result not exactly a op b, or declared leftover
    list not matching the implied multiset.
    """
    parsed = parse_step(line)
    if parsed is None:
        return None
    a, op, b, c, left = parsed
    pool = list(numbers)
    try:
        pool.remove(a)
        pool.remove(b)
    except ValueError:  # an operand not in the multiset
        return None
    if op == "/" and b == 0:
        return None
    if OPS[op](a, b) != c:
        return None
    pool.append(c)
    if _pairs(pool) != _pairs(left):
        return None
    return left


# One entry per distinct (input, thoughts) path, about 0.45 KB with its key,
# so a full memo holds ~7 MB: enough for an ablation or m sweep over a few
# hundred puzzles to replay every state, bounded for a longer run.
@lru_cache(maxsize=1 << 14)
def state_numbers(
    problem_input: str, thoughts: tuple[str, ...]
) -> tuple[Fraction, ...]:
    """Numbers left after the thoughts, derived from the parent path's.

    Memoised for the process, so each path is replayed once: a child costs
    one apply_step on its parent's numbers. An invalid thought raises
    InvalidArgumentError on every call; errors are not cached.
    """
    if not thoughts:
        return tuple([Fraction(n) for n in parse_puzzle(problem_input)])
    thought = thoughts[-1]
    after = apply_step(state_numbers(problem_input, thoughts[:-1]), thought)
    if after is None:
        raise InvalidArgumentError(f"stored thought is invalid: {thought!r}")
    return tuple(after)


class Game24Task(TaskSpec):
    """Three combining steps, then one greedy expression composition."""

    name = "game24"
    max_steps = 3
    min_value = 0.001
    value_map = MappingProxyType({"sure": 20.0, "likely": 1.0, "impossible": 0.001})

    def current_numbers(self, state: State) -> list[Fraction]:
        return list(state_numbers(state.input, state.thoughts))

    def propose_prompt(self, state: State, k: int) -> str:
        numbers = " ".join(format_number(n) for n in self.current_numbers(state))
        return (
            "Use numbers and basic arithmetic operations (+ - * /) to obtain 24.\n"
            f"Current numbers: {numbers}\n"
            f"List up to {k} possible next steps, one per line, each in the form\n"
            "a op b = c (left: numbers remaining after the step)\n"
            "Possible next steps:\n"
        )

    def parse_proposals(self, state: State, text: str, k: int) -> list[str]:
        """The valid steps among the lines, at most k. Checking a step derives
        its child's numbers, so the child's own prompts replay nothing."""
        state_numbers(state.input, state.thoughts)  # an invalid state raises
        proposals: list[str] = []
        for raw in text.splitlines():
            line = raw.strip()
            if not line:
                continue
            try:
                state_numbers(state.input, state.thoughts + (line,))
            except InvalidArgumentError:
                continue
            proposals.append(line)
        return proposals[:k]

    def value_prompt(self, state: State) -> str:
        numbers = " ".join(format_number(n) for n in self.current_numbers(state))
        return (
            "Evaluate whether the given numbers can reach 24 with + - * /.\n"
            f"Numbers: {numbers}\n"
            "Answer with exactly one word on the last line: "
            "sure, likely, or impossible.\n"
        )

    def check_success(self, output: str, truth: Any) -> dict[str, float]:
        return solution_verdicts(output, str(truth))

    def final_prompt(self, state: State) -> Optional[str]:
        steps = "\n".join(state.thoughts) if state.thoughts else "(none)"
        return (
            "Use numbers and basic arithmetic operations (+ - * /) to obtain 24.\n"
            f"Input: {state.input}\n"
            "Steps taken:\n"
            f"{steps}\n"
            "Write the single expression that uses each input number exactly "
            "once and equals 24.\n"
            "Answer: "
        )

    def parse_final(self, text: str) -> str:
        answer = self.extract_final_answer(text)
        if answer is None:
            answer = normalize_expression(text)
        try:
            return canonical_equation(parse_expression(answer))
        except ExpressionError:
            return answer

    def io_prompt(self, problem_input: str) -> str:
        return (
            "Use numbers and basic arithmetic operations (+ - * /) to obtain 24. "
            "Each input number must be used exactly once.\n"
            f"Input: {problem_input}\n"
            "Respond with one line: Answer: <expression>\n"
        )

    def cot_prompt(self, problem_input: str) -> str:
        return (
            "Use numbers and basic arithmetic operations (+ - * /) to obtain 24. "
            "Each input number must be used exactly once.\n"
            f"Input: {problem_input}\n"
            "Show one combining step per line, then finish with a line: "
            "Answer: <expression>\n"
        )

    def extract_final_answer(self, text: str) -> Optional[str]:
        answer = None
        for line in text.splitlines():
            if re.match(r"\s*answer\s*:", line, flags=re.IGNORECASE):
                answer = normalize_expression(line)
        return answer

    def canonicalize_answer(self, answer: str) -> str:
        return re.sub(r"\s+", "", normalize_expression(answer))


def load_game24_csv(path: str | Path) -> list[Puzzle24]:
    """Puzzles from a CSV with header rank,puzzle (space-separated numbers)."""
    problems: list[Puzzle24] = []
    with open(path, newline="", encoding="utf-8") as handle:
        reader = csv.DictReader(handle)
        if reader.fieldnames is None or not {"rank", "puzzle"} <= set(reader.fieldnames):
            raise InvalidArgumentError(
                f"{path}: expected CSV header with rank,puzzle columns"
            )
        for row in reader:
            try:  # a short row reads its missing fields as None
                numbers = tuple(parse_puzzle(row["puzzle"] or ""))
                problems.append(Puzzle24(numbers=numbers, index=int(row["rank"] or "")))
            except ValueError as exc:
                raise InvalidArgumentError(
                    f"{path}, line {reader.line_num}: {exc}"
                ) from None
    return problems
