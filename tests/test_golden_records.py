"""Golden episode records: what each method records must not drift.

Each case runs a small scripted or synthetic benchmark and compares a
sha256 of every record's events, final output and verdicts with a pinned
value. The record's ``config`` block is left out, so a change to the
configuration surface (and with it the run digest) does not show here,
while any change to what an episode does or concludes does.
"""

from __future__ import annotations

import hashlib
import json

import pytest

from helpers import EpisodeScript, make_state
from tout.harness import run_benchmark, synthetic_setup
from tout.model import SearchConfig
from tout.tasks import Problem, clues_text, make_task, parse_crossword_puzzle
from tout.tasks.synthetic import build_trap_benchmark

GAME24_CONFIG = SearchConfig(k=2, b=1, T=3, m=3)
CROSSWORD_CONFIG = SearchConfig(k=2, b=1, T=10, m=2, max_outputs=1)
SYNTHETIC_CONFIG = SearchConfig(k=5, b=1, T=3, m=4)
WORDS = ("HEART", "EMBER", "ABUSE", "RESIN", "TREND")

# (input, [(right step, wrong step)] per level, final answer, io, cot chains)
GAME24 = [
    (
        "4 9 10 13",
        [
            ("13 - 9 = 4 (left: 4 4 10)", "4 + 9 = 13 (left: 10 13 13)"),
            ("10 - 4 = 6 (left: 4 6)", "4 + 4 = 8 (left: 8 10)"),
            ("4 * 6 = 24 (left: 24)", "4 + 6 = 10 (left: 10)"),
        ],
        "Answer: 4 * (10 - (13 - 9)) = 24",
        "Answer: (13 - 9) * (10 - 4) = 24",
        [
            "13 - 9 = 4\n10 - 4 = 6\nAnswer: (13 - 9) * (10 - 4) = 24",
            "Answer: 4 + 9 + 10 + 13 = 24",
            "Answer: (10 - 4) * (13 - 9) = 24",
        ],
    ),
    (
        "3 3 8 8",
        [
            ("8 / 3 = 8/3 (left: 8/3 3 8)", "3 + 3 = 6 (left: 6 8 8)"),
            ("3 - 8/3 = 1/3 (left: 1/3 8)", "3 + 8 = 11 (left: 8/3 11)"),
            ("8 / 1/3 = 24 (left: 24)", "8 * 1/3 = 8/3 (left: 8/3)"),
        ],
        "Answer: 8 / (3 - 8 / 3) = 24",
        "no idea",
        ["Answer: 3 * 8 = 24", "Answer: 8 * 3 = 24", "Answer: 8 / (3 - 8 / 3) = 24"],
    ),
]
# Puzzle 1's first right step is valued with a wide spread, so its
# confidence score loses to the wrong step's and the search strays.
GOOD_VALUES = ["sure"] * 3
SPREAD_VALUES = ["sure", "likely", "sure"]
BAD_VALUES = ["impossible", "likely", "impossible"]


def record_digest(record) -> str:
    payload = json.dumps(
        {
            "events": record.events,
            "final_output": record.final_output,
            "verdicts": record.verdicts,
        },
        sort_keys=True,
        separators=(",", ":"),
    )
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def game24_run():
    task = make_task("game24")
    episode = EpisodeScript(task=task, config=GAME24_CONFIG)
    problems = []
    for i, (puzzle, levels, answer, io_text, chains) in enumerate(GAME24):
        problems.append(Problem(problem_id=f"game24/{i}", input=puzzle, truth=puzzle))
        thoughts: tuple[str, ...] = ()
        for level, (right, wrong) in enumerate(levels):
            good = SPREAD_VALUES if (i, level) == (1, 0) else GOOD_VALUES
            episode.propose(make_state(puzzle, thoughts), [right, wrong])
            episode.value(make_state(puzzle, thoughts + (right,)), good)
            episode.value(make_state(puzzle, thoughts + (wrong,)), BAD_VALUES)
            thoughts += (right,)
        episode.final(make_state(puzzle, thoughts), answer)
        episode.io(puzzle, io_text)
        episode.cot(puzzle, chains)
    backend = episode.backend()
    return task, problems, lambda seed: backend, GAME24_CONFIG


def crosswords_run():
    """Puzzle 0 dead-ends after two fills (exhausted, best board reported);
    puzzle 1 is solved row by row."""
    task = make_task("crosswords")
    episode = EpisodeScript(task=task, config=CROSSWORD_CONFIG)
    problems = []
    for n in range(2):
        puzzle = parse_crossword_puzzle(
            {"clues": [f"p{n} clue {i}" for i in range(10)], "answers": list(WORDS) * 2}
        )
        text = clues_text(puzzle)
        problems.append(
            Problem(problem_id=f"crosswords/{n}", input=text, truth=list(puzzle.answers))
        )
        if n == 0:
            episode.propose(make_state(text), ["h1. HEART", "h1. WRONG"])
            episode.value(make_state(text, ("h1. HEART",)), ["maybe", "maybe"])
            episode.value(make_state(text, ("h1. WRONG",)), ["impossible"] * 2)
            episode.propose(make_state(text, ("h1. HEART",)), ["h2. EMBER", "h2. ABUSE"])
            episode.value(make_state(text, ("h1. HEART", "h2. EMBER")), ["sure", "sure"])
            episode.value(make_state(text, ("h1. HEART", "h2. ABUSE")), ["maybe", "impossible"])
            continue
        thoughts: tuple[str, ...] = ()
        for i, word in enumerate(WORDS):
            thought = f"h{i + 1}. {word}"
            episode.propose(make_state(text, thoughts), [thought])
            thoughts += (thought,)
            # the full board scores highest, so it is also the best state
            episode.value(make_state(text, thoughts), ["sure" if i == 4 else "maybe"] * 2)
    backend = episode.backend()
    return task, problems, lambda seed: backend, CROSSWORD_CONFIG


def synthetic_run():
    task, problems, factory = synthetic_setup(build_trap_benchmark(depth=3), 4)
    return task, problems, factory, SYNTHETIC_CONFIG


GOLDEN = {
    "crosswords/tout_dfs": {
        "crosswords/0": "a6273f067fbf53e7fb889885eb8472890db439877ebe9b825480e76fa131a3d4",
        "crosswords/1": "abff59d4c7d9bb8d72e523f9ff119ac43c8ea1a0be6a8817ec9212fd7805a259",
    },
    "game24/cot": {
        "game24/0": "cf48bc8262fcf5d6e35123c82b0a503e451042a97fa6ad224196d11b5c482b69",
        "game24/1": "259ea2a3d20decd481784f5b288992563cfdc7a0261ecbdcaa504f602b18666d",
    },
    "game24/cot_sc": {
        "game24/0": "8a1cb0e6caf29786b6c3ed26e3e1b602c438d58f48db97f42644f25509713a7c",
        "game24/1": "9630deeb2a9dc9bca01b6317ea788b998a98e25341516c6883c862f83918e72f",
    },
    "game24/io": {
        "game24/0": "cf48bc8262fcf5d6e35123c82b0a503e451042a97fa6ad224196d11b5c482b69",
        "game24/1": "5c273ed299820e480113df68f5b18626c1d3771c29d26127fb86790bb27372e0",
    },
    "game24/tout_bfs": {
        "game24/0": "ec214f69b29e3638468346723ea7511b7df90ab6ab31155598050525e6040598",
        "game24/1": "be176bf69230010cd22a848bb7fce98432a3c5c0692dc5472be47974a5c26d62",
    },
    "synthetic/tot_bfs": {
        "synthetic/0": "06dd6ac26397c6cad2ec58aaaa63edc28e57a9c5bc454cdcf875842076cc9005",
        "synthetic/1": "dd91dd2c51b9754422811a66ad24b0bd7ccb8c9c6cf74442b8463a3f27dcfb13",
        "synthetic/2": "8c040545342e45076033603b720c2099f75246b4da9bfc3735172811c45210ef",
        "synthetic/3": "4afe8e4b2969adbaa914938effaa1ad2829ec81cb6a8862f47bd34e3df20d3bf",
    },
    "synthetic/tout_bfs": {
        "synthetic/0": "ee67e2ee17fb22688a9161ffbb661f9b54c06a502e2478ab20f3b0db86e9b989",
        "synthetic/1": "3e7c7b0befee77aebd3fe207b09d14ea1c6efb0ae17dc448f2d2f7815577b3ef",
        "synthetic/2": "346367c42a6e73e49e6aebf5570af85ed23fe2e22e08dac64de21ec076d735d2",
        "synthetic/3": "9d2077a0ffccede8dc503d32cf1333a51f0c189fadee3a471b27c304e38e8ece",
    },
    "synthetic/tout_dfs": {
        "synthetic/0": "7329ab3c7316e6abc33b6bbb773b0124c6aaea221d688fd7bc9b63a9496fdeab",
        "synthetic/1": "0449df045264d5a42d83ee015102ffd48d893d12752b14d3b6a86a47700bcb43",
        "synthetic/2": "9064552ca541eb2e1321edfe223855ae0d1253ae109bda92838bb3f4dc761570",
        "synthetic/3": "ed9f9efaa4f30aa8520c7f6181b6c30c44351dfc106660d4bec36d693eedbd34",
    },
}

CASES = {
    ("game24", "io"): game24_run,
    ("game24", "cot"): game24_run,
    ("game24", "cot_sc"): game24_run,
    ("game24", "tout_bfs"): game24_run,
    ("crosswords", "tout_dfs"): crosswords_run,
    ("synthetic", "tout_bfs"): synthetic_run,
    ("synthetic", "tout_dfs"): synthetic_run,
    ("synthetic", "tot_bfs"): synthetic_run,
}


def run_case(task_name, method):
    task, problems, factory, config = CASES[(task_name, method)]()
    report = run_benchmark(task, problems, method, factory, config, run_seed=3)
    return {r.problem_id: r.record for r in report.results}


@pytest.mark.parametrize("task_name, method", sorted(CASES))
def test_records_match_the_golden_digests(task_name, method):
    records = run_case(task_name, method)
    digests = {pid: record_digest(record) for pid, record in records.items()}
    assert digests == GOLDEN[f"{task_name}/{method}"]


def test_crossword_records_carry_best_state_verdicts():
    records = run_case("crosswords", "tout_dfs")
    dead_end = records["crosswords/0"].verdicts
    assert dead_end["exhausted"] == 1.0
    # the best evaluated board is h1 HEART + h2 EMBER: 10 letters, 2 words
    assert dead_end["letters_best"] == 10 / 25
    assert dead_end["words_best"] == 2 / 10
    solved = records["crosswords/1"].verdicts
    assert solved["success"] == 1.0 and solved["game_best"] == 1.0
