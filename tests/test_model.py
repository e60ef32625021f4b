"""Core data model: states, the store, config validation, run records."""

from __future__ import annotations

import json
import math
from dataclasses import fields
from types import MappingProxyType

import pytest
from hypothesis import given, strategies as st

from tout.model import (
    RECORD_EVENT_KINDS,
    InvalidArgumentError,
    MissingStateError,
    RunRecord,
    ScoredState,
    SearchConfig,
    SearchExhaustedError,
    State,
    StateStore,
    TaskSpec,
    Transcript,
    extend_state,
)
from tout.tasks import make_task


class TestStateStore:
    def test_root_has_no_thoughts(self):
        store = StateStore()
        root = store.root("4 5 6 10")
        assert root.thoughts == ()
        assert root.depth == 0
        assert root.parent_id is None
        assert store.get(root.id) is root

    def test_extend_appends_one_thought(self):
        store = StateStore()
        root = store.root("x")
        child = extend_state(store, root, "step one")
        assert child.thoughts == ("step one",)
        assert child.depth == 1
        assert child.parent_id == root.id
        assert child.input == "x"

    def test_ids_are_distinct_and_resolvable(self):
        store = StateStore()
        root = store.root("x")
        children = [extend_state(store, root, f"t{i}") for i in range(5)]
        ids = {root.id} | {c.id for c in children}
        assert len(ids) == 6
        for c in children:
            assert store.get(c.id) == c

    def test_missing_id_raises(self):
        store = StateStore()
        store.root("x")
        with pytest.raises(MissingStateError):
            store.get(999)

    def test_len_and_iter(self):
        store = StateStore()
        root = store.root("x")
        extend_state(store, root, "a")
        assert len(store) == 2
        assert {s.id for s in store} == {0, 1}

    def test_depth_is_the_thought_count_and_a_root_has_no_parent(self):
        assert State(input="x", thoughts=("a", "b"), id=0, parent_id=1).depth == 2
        with pytest.raises(InvalidArgumentError):
            State(input="x", thoughts=(), id=1, parent_id=0)


class TestSearchConfig:
    def test_defaults_validate(self):
        SearchConfig().validate()

    @pytest.mark.parametrize(
        "field,value",
        [
            ("k", 0),
            ("b", 0),
            ("T", 0),
            ("m", 0),
            ("t_min", -0.1),
            ("epsilon", 0.0),
            ("u_th", 0.0),
            ("max_outputs", 0),
            ("eval_workers", 0),
            ("t_max", 2.5),  # beyond what a backend request accepts
            ("epsilon", math.inf),  # would score every state 0
        ]
        + [(f.name, math.nan) for f in fields(SearchConfig) if f.type == "float"],
    )
    def test_bad_values_rejected(self, field, value):
        config = SearchConfig(**{field: value})
        with pytest.raises(InvalidArgumentError):
            config.validate()

    def test_infinite_temperatures_rejected(self):
        with pytest.raises(InvalidArgumentError):
            SearchConfig(t_min=math.inf, t_max=math.inf).validate()

    @pytest.mark.parametrize("field,value", [("u_th", math.inf), ("v_th", -math.inf)])
    def test_a_gate_may_be_turned_off(self, field, value):
        SearchConfig(**{field: value}).validate()

    def test_t_max_below_t_min_rejected(self):
        with pytest.raises(InvalidArgumentError):
            SearchConfig(t_min=0.9, t_max=0.2).validate()

    def test_snapshot_is_json_and_stable(self):
        config = SearchConfig(k=3, b=2, m=7, seed=42)
        snap = config.snapshot()
        assert json.dumps(snap, sort_keys=True) == json.dumps(
            SearchConfig(k=3, b=2, m=7, seed=42).snapshot(), sort_keys=True
        )
        assert snap["k"] == 3 and snap["m"] == 7


class TestScoredState:
    def test_fields(self):
        store = StateStore()
        s = ScoredState(
            state=store.root("x"),
            value=2.0,
            uncertainty=0.5,
            score=4.0,
            samples=(1.0, 3.0),
            temperatures=(0.2, 1.0),
        )
        assert s.value == 2.0 and s.samples == (1.0, 3.0)

    def test_negative_uncertainty_rejected(self):
        store = StateStore()
        with pytest.raises(InvalidArgumentError):
            ScoredState(
                state=store.root("x"),
                value=1.0,
                uncertainty=-0.1,
                score=1.0,
                samples=(1.0,),
                temperatures=(0.2,),
            )

    def test_samples_and_temperatures_must_align(self):
        store = StateStore()
        with pytest.raises(InvalidArgumentError):
            ScoredState(
                state=store.root("x"),
                value=1.0,
                uncertainty=0.0,
                score=1.0,
                samples=(1.0, 2.0),
                temperatures=(0.2,),
            )


class TestTranscript:
    def test_emit_and_filter(self):
        t = Transcript()
        t.emit("expand", state_id=0)
        t.emit("generate", seconds=0.5)
        t.emit("evaluate", state_id=0, value=1.0)
        assert len(t) == 3
        kinds = [e["event"] for e in t.record_events()]
        assert "generate" not in kinds
        assert kinds == ["expand", "evaluate"]

    def test_emit_stores_the_kind_in_a_dict_of_each_call(self):
        t = Transcript()
        data = {"state_id": 0}
        t.emit("expand", **data)
        t.emit("expand", **data)
        first, second = t.events
        assert first == second == {"event": "expand", "state_id": 0}
        assert first is not second
        assert data == {"state_id": 0}

    def test_generate_excluded_from_record_kinds(self):
        assert "generate" not in RECORD_EVENT_KINDS
        for kind in ("expand", "sample", "evaluate", "select", "prune", "final"):
            assert kind in RECORD_EVENT_KINDS

    def test_empty_transcript_is_falsy_but_not_none(self):
        # callers must test `is None`, not truthiness
        t = Transcript()
        assert not t
        assert t is not None


class TestRunRecord:
    def test_json_round_trip(self):
        record = RunRecord(
            config={"method": "tout_bfs", "digest": "abc123", "search": {"m": 5}},
            task="game24",
            problem_id="game24/1",
            events=[{"event": "final", "output": "x"}],
            final_output="x",
            verdicts={"success": 1.0},
        )
        again = RunRecord.from_json(record.to_json())
        assert again == record

    def test_json_is_one_sorted_line(self):
        record = RunRecord(
            config={},
            task="t",
            problem_id="p",
            events=[],
            final_output="",
            verdicts={},
        )
        line = record.to_json()
        assert "\n" not in line
        keys = list(json.loads(line))
        assert keys == sorted(keys)


# one instance per task, shared across examples, as a run shares its task
SHARED_TASKS = {name: make_task(name) for name in ("game24", "crosswords")}

LABEL_TEXTS = st.lists(
    st.one_of(
        st.sampled_from(["sure", "likely", "maybe", "impossible", "SURE", "Maybe",
                         "imPossible", "unsure", "likely."]),
        st.text(max_size=6),
    ),
    max_size=5,
).flatmap(lambda words: st.sampled_from([" ", "\n", ""]).map(lambda sep: sep.join(words)))


def reference_label_value(task, text):
    """The last value_map label in the text, scanned one character at a time."""
    value, word = task.min_value, ""
    for char in text.lower() + " ":
        if "a" <= char <= "z":
            word += char
            continue
        if word in task.value_map:
            value = task.value_map[word]
        word = ""
    return value


class TestParseValue:
    """One decoder reads both tasks' value labels: the last label wins, in
    any case; text with none of the task's labels reads min_value."""

    @pytest.mark.parametrize("task_name, text, value", [
        ("game24", "sure", 20.0),
        ("game24", "likely", 1.0),
        ("game24", "impossible", 0.001),
        ("game24", "SURE", 20.0),
        ("game24", "Likely.", 1.0),
        ("game24", "sure at first, then ImPossible", 0.001),
        ("game24", "maybe", 0.001),  # a crosswords label
        ("game24", "no label here", 0.001),
        ("game24", "", 0.001),
        ("crosswords", "sure", 20.0),
        ("crosswords", "maybe", 1.0),
        ("crosswords", "impossible", 0.001),
        ("crosswords", "Maybe\nSure!", 20.0),
        ("crosswords", "likely", 0.001),  # a game24 label
        ("crosswords", "no label here", 0.001),
    ])
    def test_labels(self, task_name, text, value):
        assert make_task(task_name).parse_value(text) == value

    def test_value_map_is_read_only(self):
        with pytest.raises(TypeError):
            make_task("game24").value_map["sure"] = 1.0

    def test_a_task_class_reads_its_own_labels(self):
        class Graded(TaskSpec):
            min_value = -1.0
            value_map = MappingProxyType(
                {"good": 2.0, "goodish": 1.0, "Bad": 0.0, "so so": 0.5}
            )

        task = Graded()
        assert task.parse_value("good, then goodish") == 1.0
        assert task.parse_value("goodish, then GOOD.") == 2.0
        assert task.parse_value("goodness") == -1.0  # labels are whole words
        # a key that is not one run of a-z letters never matches
        assert task.parse_value("Bad") == -1.0
        assert task.parse_value("so so") == -1.0
        assert TaskSpec().parse_value("good") == TaskSpec.min_value

    @given(st.lists(st.tuples(st.sampled_from(["game24", "crosswords"]), LABEL_TEXTS),
                    max_size=20))
    def test_interleaved_tasks_match_a_reference_decoder(self, texts):
        for task_name, text in texts:
            task = SHARED_TASKS[task_name]
            assert task.parse_value(text) == reference_label_value(task, text)


def test_search_exhausted_error_carries_state():
    store = StateStore()
    root = store.root("x")
    err = SearchExhaustedError("nothing left", best_state=root)
    assert err.best_state is root
    assert "nothing left" in str(err)
