"""Seeded stand-in for a language model on Game of 24 prompts.

Every answer is a pure function of (seed, prompt, temperature, choice
index), so a workload replays bit for bit. The responder knows the game:
propose prompts get up to k valid steps for the current numbers, in a
seeded order, each leaving a different multiset and one of them keeping 24
reachable whenever some step does; value prompts get ``sure`` when 24 is
reachable through whole numbers, ``likely`` when only through fractions
and ``impossible`` otherwise, under seeded wording; final prompts get the
expression composed from the steps taken. The labels carry no noise: the
engine's score v / (u + epsilon) would rank any noise-free state above
every noisy one, so label noise would make success a coin toss and the
benchmark's success rate a measure of the seed. It deliberately shares no
code with ``tout`` so that it cannot inherit an engine bug.
"""

from __future__ import annotations

import hashlib
import re
from fractions import Fraction
from functools import lru_cache
from itertools import combinations

TARGET = Fraction(24)

OPENERS = (
    "Judging the numbers",
    "Trying combinations of",
    "Looking for 24 from",
    "Checking what can be made of",
)

_NUMBER = r"\d+(?:/\d+)?"
_CURRENT = re.compile(r"^(?:Current numbers|Numbers):\s*(.*)$", re.MULTILINE)
_UP_TO = re.compile(r"List up to (\d+) possible next steps")
_INPUT = re.compile(r"^Input:\s*(.*)$", re.MULTILINE)
_STEP = re.compile(
    rf"^\s*({_NUMBER})\s*([-+*/])\s*({_NUMBER})\s*=\s*({_NUMBER})\s*\(left:[^)]*\)\s*$"
)


def unit_draw(*parts: object) -> float:
    """Uniform draw in [0, 1) fixed by its parts."""
    digest = hashlib.sha256(repr(parts).encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big") / 2.0**64


def fmt(value: Fraction) -> str:
    if value.denominator == 1:
        return str(value.numerator)
    return f"{value.numerator}/{value.denominator}"


def combine(a: Fraction, b: Fraction) -> list[tuple[Fraction, str, Fraction, Fraction]]:
    """Steps (x, op, y, x op y) on a pair that keep every number non-negative."""
    steps = [(a, "+", b, a + b), (a, "*", b, a * b)]
    hi, lo = (a, b) if a >= b else (b, a)
    steps.append((hi, "-", lo, hi - lo))
    if b != 0:
        steps.append((a, "/", b, a / b))
    if a != 0 and a != b:
        steps.append((b, "/", a, b / a))
    return steps


@lru_cache(maxsize=None)
def solvable(numbers: tuple[Fraction, ...], whole: bool = False) -> bool:
    """Whether the (sorted) multiset can still be combined into exactly 24.

    With ``whole``, every intermediate result must be a whole number.
    """
    if len(numbers) == 1:
        return numbers[0] == TARGET
    for i, j in combinations(range(len(numbers)), 2):
        rest = [numbers[x] for x in range(len(numbers)) if x not in (i, j)]
        for _, _, _, c in combine(numbers[i], numbers[j]):
            if whole and c.denominator != 1:
                continue
            if solvable(tuple(sorted(rest + [c])), whole):
                return True
    return False


def next_steps(numbers: list[Fraction]) -> list[tuple[str, tuple[Fraction, ...]]]:
    """One step line per distinct multiset the current numbers can leave."""
    seen: dict[tuple[Fraction, ...], str] = {}
    for i, j in combinations(range(len(numbers)), 2):
        rest = [numbers[x] for x in range(len(numbers)) if x not in (i, j)]
        for x, op, y, c in combine(numbers[i], numbers[j]):
            left = tuple(sorted(rest + [c]))
            line = f"{fmt(x)} {op} {fmt(y)} = {fmt(c)} (left: {' '.join(map(fmt, left))})"
            seen.setdefault(left, line)
    return [(line, left) for left, line in seen.items()]


def parse_numbers(text: str) -> list[Fraction]:
    return [Fraction(tok) for tok in text.split()]


class Game24Responder:
    """Answers the three Game of 24 prompt kinds the engine sends."""

    def __init__(self, seed: int):
        self.seed = seed

    def complete(self, prompt: str, temperature: float, index: int = 0) -> str:
        tq = round(temperature * 1000)
        if "Possible next steps:" in prompt:
            return self._propose(prompt, tq, index)
        if "sure, likely, or impossible" in prompt:
            return self._value(prompt, tq, index)
        if "Steps taken:" in prompt:
            return self._final(prompt)
        return ""

    def _propose(self, prompt: str, tq: int, index: int) -> str:
        numbers = parse_numbers(_CURRENT.search(prompt).group(1))
        k = int(_UP_TO.search(prompt).group(1))
        steps = next_steps(numbers)
        steps.sort(key=lambda s: unit_draw(self.seed, "order", prompt, tq, index, s[0]))
        chosen = steps[:k]
        good = [s for s in steps if solvable(s[1])]
        if good and not any(solvable(s[1]) for s in chosen):
            chosen[-1] = good[0]
        return "\n".join(line for line, _ in chosen)

    def _value(self, prompt: str, tq: int, index: int) -> str:
        numbers = tuple(sorted(parse_numbers(_CURRENT.search(prompt).group(1))))
        if solvable(numbers, whole=True):
            label = "sure"
        elif solvable(numbers):
            label = "likely"
        else:
            label = "impossible"
        opener = OPENERS[int(unit_draw(self.seed, "value", prompt, tq, index) * len(OPENERS))]
        return f"{opener} {' '.join(map(fmt, numbers))}:\n{label}"

    def _final(self, prompt: str) -> str:
        inputs = [int(tok) for tok in _INPUT.search(prompt).group(1).split()]
        pool: list[tuple[Fraction, str]] = [(Fraction(n), str(n)) for n in inputs]
        for line in prompt.split("Steps taken:\n", 1)[1].splitlines():
            match = _STEP.match(line)
            if match is None:
                continue
            a, op, b = Fraction(match.group(1)), match.group(2), Fraction(match.group(3))
            exprs = []
            for operand in (a, b):
                at = next(i for i, (v, _) in enumerate(pool) if v == operand)
                exprs.append(pool.pop(at)[1])
            pool.append((Fraction(match.group(4)), f"({exprs[0]} {op} {exprs[1]})"))
        expression = " + ".join(e for _, e in pool)
        return f"Answer: {expression}"
