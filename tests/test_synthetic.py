"""The calibrated trap tree: structure, analytic rates, reproducibility.

The trap mean is chosen so a single noisy draw of a trap branch beats the
true branch's nominal value with probability 0.4. That number drives the
analytic single-sample success rate the separation benchmark is checked
against, so it is pinned here to full precision.
"""

from __future__ import annotations

from statistics import NormalDist

import numpy as np
import pytest

from tout import SearchConfig, tout_bfs
from tout.backends import BackendRequest
from tout.model import InvalidArgumentError
from tout.tasks.synthetic import (
    GOOD,
    MAX_DEPTH,
    TRAP,
    TRAP_SIGMA,
    TRAP_VALUE,
    TRUE_SIGMA,
    TRUE_VALUE,
    SyntheticTreeTask,
    build_trap_benchmark,
    deception_rate,
    expected_success_single_sample,
    state_key,
)

from helpers import make_state


class TestCalibration:
    def test_trap_value_constant(self):
        assert TRAP_VALUE == pytest.approx(8.479917381185201, abs=1e-12)
        assert TRAP_VALUE == TRUE_VALUE - TRAP_SIGMA * NormalDist().inv_cdf(0.6)

    def test_single_draw_deception_near_two_fifths(self):
        """One trap draw beats TRUE_VALUE with probability 0.4 by design.

        deception_rate compares two noisy draws, so it is close to but not
        exactly 0.4: the true branch wobbles by sigma = 0.5 as well.
        """
        one_sided = 1.0 - NormalDist(mu=TRAP_VALUE, sigma=TRAP_SIGMA).cdf(TRUE_VALUE)
        assert one_sided == pytest.approx(0.4, abs=1e-12)
        assert deception_rate(m=1) == pytest.approx(0.4003, abs=1e-3)

    def test_deception_shrinks_with_samples(self):
        # averaging alone decays slowly; the real separation comes from the
        # trap's variance feeding the denominator of the confidence score
        rates = [deception_rate(m=m) for m in (1, 5, 20, 100)]
        assert all(b < a for a, b in zip(rates, rates[1:]))
        assert deception_rate(m=20) == pytest.approx(0.1294, abs=1e-3)

    def test_expected_success_single_sample(self):
        per_step = 1.0 - deception_rate(m=1)
        assert expected_success_single_sample(3) == pytest.approx(
            per_step**3, abs=1e-12
        )
        assert expected_success_single_sample(3) == pytest.approx(0.2156, abs=1e-3)

    def test_empirical_deception_matches_analytic(self):
        """100k simulated single-draw comparisons land on the closed form."""
        rng = np.random.default_rng(99)
        n = 100_000
        true_draws = TRUE_VALUE + TRUE_SIGMA * rng.standard_normal(n)
        trap_draws = TRAP_VALUE + TRAP_SIGMA * rng.standard_normal(n)
        empirical = float(np.mean(trap_draws > true_draws))
        assert empirical == pytest.approx(deception_rate(m=1), abs=0.005)


class TestTreeStructure:
    def test_depth_three_shape(self):
        benchmark = build_trap_benchmark(depth=3)
        assert benchmark.truth == "root/good/good/good"
        # 1 + 2 + 4 + 8 nodes in a binary tree of depth 3
        assert len(benchmark.true_value) == 15
        leaves = [k for k, c in benchmark.children.items() if not c]
        assert len(leaves) == 8
        for key, kids in benchmark.children.items():
            assert kids in ([], [GOOD, TRAP])

    def test_poison_is_sticky(self):
        """Any path through a trap segment keeps the trap distribution."""
        benchmark = build_trap_benchmark(depth=3)
        for key, value in benchmark.true_value.items():
            poisoned = TRAP in key.split("/")
            expected = TRAP_VALUE if poisoned else TRUE_VALUE
            assert value == expected, key
            sigma = TRAP_SIGMA if poisoned else TRUE_SIGMA
            assert benchmark.noise_std[key] == sigma

    def test_depth_validation(self):
        with pytest.raises(Exception):
            build_trap_benchmark(depth=0)

    def test_depth_above_the_bound_is_rejected_before_building(self):
        # the tree has 2^(depth+1) - 1 nodes: past the bound, it is refused
        # before the first one is made
        with pytest.raises(InvalidArgumentError, match=f"within \\[1, {MAX_DEPTH}\\]"):
            build_trap_benchmark(depth=MAX_DEPTH + 1)

    def test_backend_reproducible_by_seed(self):
        benchmark = build_trap_benchmark(depth=2)
        req = BackendRequest(prompt="VALUE root/good", temperature=1.0, n=6)
        a = benchmark.backend(seed=5).generate(req).completions
        b = benchmark.backend(seed=5).generate(req).completions
        assert a == b
        assert benchmark.backend(seed=6).generate(req).completions != a


class TestTaskProtocol:
    def test_prompts_follow_line_protocol(self):
        task = SyntheticTreeTask(max_steps=3)
        root = make_state("root")
        deep = make_state("root", ("good", "trap"))
        assert task.propose_prompt(root, 5) == "PROPOSE root"
        assert task.value_prompt(deep) == "VALUE root/good/trap"
        assert state_key(deep) == "root/good/trap"

    def test_parse_value_falls_back_to_floor(self):
        task = SyntheticTreeTask()
        assert task.parse_value("9.25") == 9.25
        assert task.parse_value("not a number") == task.min_value

    def test_proposals_split_lines(self):
        task = SyntheticTreeTask()
        root = make_state("root")
        assert task.parse_proposals(root, "good\ntrap\n", 5) == ["good", "trap"]
        assert task.parse_proposals(root, "good\ntrap", 1) == ["good"]

    def test_success_is_exact_path_match(self):
        task = SyntheticTreeTask()
        truth = "root/good/good"
        assert task.check_success("root/good/good", truth) == {"success": 1.0}
        assert task.check_success("root/good/trap", truth) == {"success": 0.0}

    def test_render_output_is_the_path(self):
        task = SyntheticTreeTask()
        assert task.render_output(make_state("root", ("good",))) == "root/good"


class TestEndToEnd:
    def test_many_samples_avoid_the_trap(self):
        """m=20 with variance guidance stays on the true path."""
        benchmark = build_trap_benchmark(depth=3)
        config = SearchConfig(k=2, b=1, T=3, m=20)
        wins = 0
        for seed in range(10):
            result = tout_bfs(
                benchmark.task(), "root", benchmark.backend(seed), config
            )
            wins += result.final_output == benchmark.truth
        assert wins == 10

    def test_single_sample_often_trapped(self):
        """m=1 success over 40 seeds stays near the analytic 21.6%."""
        benchmark = build_trap_benchmark(depth=3)
        config = SearchConfig(k=2, b=1, T=3, m=1, luq_enabled=False,
                              ugs_enabled=False)
        wins = 0
        for seed in range(40):
            result = tout_bfs(
                benchmark.task(), "root", benchmark.backend(seed), config
            )
            wins += result.final_output == benchmark.truth
        # binomial(40, 0.216): middle 99.9% lies within [1, 19]
        assert 1 <= wins <= 19
