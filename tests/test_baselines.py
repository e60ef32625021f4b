"""IO / chain-of-thought / self-consistency baselines and method dispatch.

The load-bearing check is bit-identity: tot_bfs and tot_dfs must produce
exactly the transcript that tout produces with both uncertainty switches
off, because they are the same code path by construction.
"""

from __future__ import annotations

from dataclasses import replace

import pytest

from tout import InvalidArgumentError, SearchConfig, Transcript, run_method
from tout.search import run_cot_sc
from tout.tasks import make_task
from tout.tasks.synthetic import SyntheticTreeTask

from helpers import EpisodeScript, make_state


class TestIO:
    def test_answer_line_extracted(self):
        task = make_task("game24")
        config = SearchConfig()
        script = EpisodeScript(task=task, config=config)
        script.io("4 9 10 13", "Answer: (13-9)*(10-4)")
        result = run_method("io", task, "4 9 10 13", script.backend(), config)
        assert result.final_output == "(13-9)*(10-4)"
        assert result.best_state is None
        assert result.visited == 0
        assert result.recorded_outputs == [("(13-9)*(10-4)", 0.0)]

    def test_no_answer_line_passes_text_through(self):
        task = make_task("game24")
        config = SearchConfig()
        script = EpisodeScript(task=task, config=config)
        script.io("4 9 10 13", "  I cannot solve this  ")
        result = run_method("io", task, "4 9 10 13", script.backend(), config)
        assert result.final_output == "I cannot solve this"

    def test_final_event_emitted(self):
        task = make_task("game24")
        config = SearchConfig()
        script = EpisodeScript(task=task, config=config)
        script.io("4 9 10 13", "Answer: 4*9-10-13")
        transcript = Transcript()
        run_method("io", task, "4 9 10 13", script.backend(), config, transcript)
        assert [e["event"] for e in transcript.record_events()] == ["final"]


class TestCoT:
    def test_last_answer_line_wins(self):
        task = make_task("game24")
        config = SearchConfig()
        script = EpisodeScript(task=task, config=config)
        script.cot(
            "4 9 10 13",
            "13-9=4\n10-4=6\nAnswer: wrong draft\nAnswer: (13-9)*(10-4)",
        )
        result = run_method("cot", task, "4 9 10 13", script.backend(), config)
        assert result.final_output == "(13-9)*(10-4)"

    def test_equals_24_tail_stripped(self):
        task = make_task("game24")
        config = SearchConfig()
        script = EpisodeScript(task=task, config=config)
        script.cot("4 9 10 13", "Answer: (13-9)*(10-4) = 24")
        result = run_method("cot", task, "4 9 10 13", script.backend(), config)
        assert result.final_output == "(13-9)*(10-4)"


class TestCoTSC:
    def _run(self, chains, m=None):
        task = make_task("game24")
        config = SearchConfig(m=len(chains) if m is None else m)
        script = EpisodeScript(task=task, config=config)
        script.cot("4 9 10 13", chains)
        return run_cot_sc(task, "4 9 10 13", script.backend(), config)

    def test_majority_wins(self):
        result = self._run(
            ["Answer: (13-9)*(10-4)", "Answer: 4+9+10+13", "Answer: (13-9)*(10-4)"]
        )
        assert result.final_output == "(13-9)*(10-4)"

    def test_tie_goes_to_earliest(self):
        result = self._run(["Answer: 4+9+10+13", "Answer: (13-9)*(10-4)"])
        assert result.final_output == "4+9+10+13"

    def test_votes_pool_across_whitespace(self):
        # canonicalization strips spacing, so these are one candidate
        result = self._run(
            ["Answer: ( 13 - 9 ) * ( 10 - 4 )", "Answer: (13-9)*(10-4)",
             "Answer: 4+9+10+13"]
        )
        assert result.final_output.replace(" ", "") == "(13-9)*(10-4)"

    def test_single_chain_matches_cot(self):
        task = make_task("game24")
        config = SearchConfig(m=1)
        script = EpisodeScript(task=task, config=config)
        script.cot("4 9 10 13", ["Answer: (13-9)*(10-4)"])
        sc = run_cot_sc(task, "4 9 10 13", script.backend(), config)
        cot = run_method("cot", task, "4 9 10 13", script.backend(), config)
        assert sc.final_output == cot.final_output

    def test_vote_note_recorded(self):
        result = self._run(["Answer: 4+9+10+13", "Answer: 4+9+10+13"])
        (note,) = [e for e in result.transcript.events if e["event"] == "note"]
        assert note["winner"] == 0
        assert len(note["votes"]) == 2


def _scripted_tree(config):
    """One-step tree with two scored children, scripted for any switches."""
    task = SyntheticTreeTask(max_steps=1)
    script = EpisodeScript(task=task, config=config)
    root = make_state("root")
    script.propose(root, ["a", "b"])
    for label, texts in {"a": ["4.0", "6.0"], "b": ["3.0", "3.5"]}.items():
        state = make_state("root", (label,))
        schedule_len = len(texts) if config.luq_enabled else 1
        script.value(state, texts[:schedule_len])
    return task, script


class TestToTEquivalence:
    @pytest.mark.parametrize("flavor", ["bfs", "dfs"])
    def test_tot_is_bit_identical_to_switched_off_tout(self, flavor):
        config = SearchConfig(k=2, b=1, T=1, m=2, t_min=0.2, t_max=1.0)
        off = replace(config, luq_enabled=False, ugs_enabled=False)

        task, script = _scripted_tree(off)
        tot_transcript = Transcript()
        tot = run_method(
            f"tot_{flavor}", task, "root", script.backend(), config, tot_transcript
        )

        task2, script2 = _scripted_tree(off)
        tout_transcript = Transcript()
        tout = run_method(
            f"tout_{flavor}", task2, "root", script2.backend(), off, tout_transcript
        )

        assert tot.final_output == tout.final_output
        assert tot_transcript.record_events() == tout_transcript.record_events()

    def test_tot_ignores_m(self):
        """With LUQ off the sample count is pinned to one draw at t_max."""
        config = SearchConfig(k=2, b=1, T=1, m=20, t_min=0.2, t_max=1.0)
        off = replace(config, luq_enabled=False, ugs_enabled=False)
        task, script = _scripted_tree(off)
        result = run_method("tot_bfs", task, "root", script.backend(), config)
        samples = [e for e in result.transcript.events if e["event"] == "sample"]
        assert len(samples) == 2  # one per child, not m per child
        for ss in result.scored.values():
            assert ss.uncertainty == 0.0
            assert ss.score == ss.value


class TestDispatch:
    def test_unknown_method_rejected(self):
        task = make_task("game24")
        with pytest.raises(InvalidArgumentError):
            run_method("magic", task, "4 9 10 13", None, SearchConfig())

    def test_io_dispatch(self):
        task = make_task("game24")
        config = SearchConfig()
        script = EpisodeScript(task=task, config=config)
        script.io("4 9 10 13", "Answer: 24")
        result = run_method("io", task, "4 9 10 13", script.backend(), config)
        assert result.final_output == "24"
