"""Synthetic search tree with calibrated deceptive branches.

Every internal node offers two children: one on the true path, whose
evaluated value is tightly concentrated, and a trap, whose value is noisy
enough that a single draw looks better than the true branch a fixed
fraction of the time. Once any trap is entered the true leaf is
unreachable. The construction isolates the effect of multi-sample
uncertainty estimation from everything task-specific: with one sample per
node, search follows the per-step deception probability; with many
samples and variance guidance the trap's spread gives it away.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from statistics import NormalDist
from typing import Any

from ..backends import SyntheticOracleBackend, synthetic_tree_id
from ..model import InvalidArgumentError, State, TaskSpec

GOOD = "good"
TRAP = "trap"

TRUE_VALUE = 10.0
TRUE_SIGMA = 0.5
TRAP_SIGMA = 6.0
# One trap draw exceeds the true branch's nominal value with probability
# 0.4: mu = 10 - 6 * z_{0.6}.
TRAP_VALUE = TRUE_VALUE - TRAP_SIGMA * NormalDist().inv_cdf(0.6)

# The deepest tree build_trap_benchmark makes. It builds all 2^(depth+1) - 1
# nodes up front, so each level doubles the cost: depth 16 took ~1 s and
# ~134 MB of peak memory, built and digested, on a 2-vCPU virtual machine.
MAX_DEPTH = 16


def state_key(state: State) -> str:
    return "/".join(("root",) + state.thoughts)


@dataclass
class SyntheticTreeTask(TaskSpec):
    """Navigate a scripted tree by oracle values; output is the path taken."""

    name = "synthetic"
    min_value = 0.0
    max_steps: int = 3

    def propose_prompt(self, state: State, k: int) -> str:
        return f"PROPOSE {state_key(state)}"

    def parse_proposals(self, state: State, text: str, k: int) -> list[str]:
        labels = [line.strip() for line in text.splitlines() if line.strip()]
        return labels[:k]

    def value_prompt(self, state: State) -> str:
        return f"VALUE {state_key(state)}"

    def parse_value(self, text: str) -> float:
        try:
            return float(text.strip())
        except ValueError:
            return self.min_value

    def check_success(self, output: str, truth: Any) -> dict[str, float]:
        return {"success": 1.0 if output == str(truth) else 0.0}

    def render_output(self, state: State) -> str:
        return state_key(state)

    def io_prompt(self, problem_input: str) -> str:
        return f"PROPOSE {problem_input}"

    def cot_prompt(self, problem_input: str) -> str:
        return f"PROPOSE {problem_input}"


@dataclass(frozen=True)
class TrapBenchmark:
    """Everything needed to run one episode of the trap tree."""

    depth: int
    true_value: dict[str, float]
    noise_std: dict[str, float]
    children: dict[str, list[str]]
    truth: str

    def task(self) -> SyntheticTreeTask:
        return SyntheticTreeTask(max_steps=self.depth)

    @cached_property
    def tree_id(self) -> str:
        """synthetic_tree_id of the tree, digested once for all episodes."""
        return synthetic_tree_id(self.true_value, self.noise_std, self.children)

    def backend(self, seed: int) -> SyntheticOracleBackend:
        return SyntheticOracleBackend(
            true_value=self.true_value,
            noise_std=self.noise_std,
            seed=seed,
            children=self.children,
            tree_id=self.tree_id,
        )


def build_trap_benchmark(
    depth: int = 3,
    true_value: float = TRUE_VALUE,
    true_sigma: float = TRUE_SIGMA,
    trap_value: float = TRAP_VALUE,
    trap_sigma: float = TRAP_SIGMA,
) -> TrapBenchmark:
    """Binary tree of the given depth with one trap sibling per level.

    Node values: any path containing a trap segment draws from the wide
    trap distribution; pure-good paths draw from the tight true one.
    """
    if not 1 <= depth <= MAX_DEPTH:
        raise InvalidArgumentError(f"depth must be within [1, {MAX_DEPTH}]")
    values: dict[str, float] = {}
    noise: dict[str, float] = {}
    children: dict[str, list[str]] = {}

    def grow(key: str, level: int, poisoned: bool) -> None:
        values[key] = trap_value if poisoned else true_value
        noise[key] = trap_sigma if poisoned else true_sigma
        if level == depth:
            children[key] = []
            return
        children[key] = [GOOD, TRAP]
        grow(f"{key}/{GOOD}", level + 1, poisoned)
        grow(f"{key}/{TRAP}", level + 1, True)

    grow("root", 0, False)
    truth = "/".join(["root"] + [GOOD] * depth)
    return TrapBenchmark(
        depth=depth,
        true_value=values,
        noise_std=noise,
        children=children,
        truth=truth,
    )


def deception_rate(
    true_value: float = TRUE_VALUE,
    true_sigma: float = TRUE_SIGMA,
    trap_value: float = TRAP_VALUE,
    trap_sigma: float = TRAP_SIGMA,
    m: int = 1,
) -> float:
    """P(mean of m trap draws beats mean of m true draws) at one step."""
    gap = true_value - trap_value
    spread = ((true_sigma**2 + trap_sigma**2) / m) ** 0.5
    return 1.0 - NormalDist().cdf(gap / spread)


def expected_success_single_sample(depth: int = 3) -> float:
    """Success probability of value-only search with one sample per node."""
    return (1.0 - deception_rate(m=1)) ** depth
