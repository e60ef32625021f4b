"""Command line behavior: option precedence, file layout, exit codes.

Every test drives `main` with an argv list; nothing shells out. Runs use
the synthetic task (no dataset file, millisecond episodes) except where a
game24 dataset is the point of the test.
"""

from __future__ import annotations

import argparse
import configparser
import csv
import io
import json
import threading
import time
from dataclasses import fields, replace
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import pytest

from helpers import EpisodeScript
from tout.backends import Backend
from tout.cli import build_parser, build_search_values, load_ini, load_script, main
from tout.harness import default_run_id
from tout.model import BackendUnavailableError, InvalidArgumentError, SearchConfig
from tout.tasks import check_solution, make_task

WORDS = ("HEART", "EMBER", "ABUSE", "RESIN", "TREND")


def synthetic_argv(*extra: str) -> list[str]:
    """A fast deterministic run: depth-1 trap tree, two episodes."""
    argv = [
        "run", "--task", "synthetic", "--depth", "1",
        "--episodes", "2", "--m", "2", "--k", "2",
    ]
    argv.extend(extra)
    return argv


def stdout_rows(capsys) -> list[dict[str, str]]:
    out = capsys.readouterr().out
    return list(csv.DictReader(io.StringIO(out)))


def write_game24_csv(tmp_path, rows: list[tuple[int, str]]):
    lines = ["rank,puzzle"] + [f"{rank},{text}" for rank, text in rows]
    path = tmp_path / "puzzles.csv"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


def write_crossword_json(tmp_path):
    puzzle = {"clues": [f"clue {i}" for i in range(10)], "answers": list(WORDS) * 2}
    path = tmp_path / "mini.json"
    path.write_text(json.dumps([puzzle]), encoding="utf-8")
    return path


class TestConfigFile:
    def test_no_path_means_no_config(self):
        assert load_ini(None) is None

    def test_missing_file_rejected(self, tmp_path):
        with pytest.raises(InvalidArgumentError, match="config file not found"):
            load_ini(str(tmp_path / "absent.ini"))

    def test_sections_read_back(self, tmp_path):
        path = tmp_path / "run.ini"
        path.write_text("[run]\ntask = synthetic\n[search]\nm = 4\n")
        ini = load_ini(str(path))
        assert ini.get("run", "task") == "synthetic"
        assert ini.getint("search", "m") == 4

    def test_cli_flag_beats_ini_beats_default(self, tmp_path):
        ini = configparser.ConfigParser()
        ini.read_string("[search]\nm = 4\nk = 3\nsteps = 2\n")
        args = argparse.Namespace(m=2)
        values = build_search_values(args, ini)
        assert values["m"] == 2
        assert values["k"] == 3
        assert values["T"] == 2
        assert "b" not in values

    def test_ini_types_parsed_per_field(self):
        ini = configparser.ConfigParser()
        ini.read_string(
            "[search]\nluq_enabled = false\nugs_enabled = true\nepsilon = 0.5\nb = 2\n"
        )
        values = build_search_values(argparse.Namespace(), ini)
        assert values["luq_enabled"] is False
        assert values["ugs_enabled"] is True
        assert values["epsilon"] == 0.5
        assert values["b"] == 2

    def test_nothing_set_means_empty(self):
        assert build_search_values(argparse.Namespace(), None) == {}

    @pytest.mark.parametrize("section, key", [
        ("search", "luq"),  # misspelled luq_enabled
        ("search", "two_pass"),  # an option that no longer exists
        ("search", "t"),  # the depth is steps, as on the command line
        ("search", "seed"),  # a run option
        ("run", "m"),  # a search option
        ("run", "epsiodes"),
    ])
    def test_unknown_key_is_rejected(self, tmp_path, capsys, section, key):
        path = tmp_path / "run.ini"
        path.write_text(f"[{section}]\n{key} = 1\n")
        assert main(synthetic_argv("--config", str(path))) == 2
        assert f"unknown key {key!r} in [{section}]" in capsys.readouterr().err

    def test_unknown_section_is_rejected(self, tmp_path, capsys):
        path = tmp_path / "run.ini"
        path.write_text("[serach]\nm = 4\n")  # misspelled [search]
        assert main(synthetic_argv("--config", str(path))) == 2
        err = capsys.readouterr().err
        assert "unknown section [serach]" in err and "run or search" in err

    def test_percent_values_are_read_verbatim(self, tmp_path, capsys):
        # an API key or a path may hold %; no interpolation happens
        path = tmp_path / "run.ini"
        path.write_text("[run]\napi_key = a%b\nmodel = %(x)s\ncache_dir = c%%d\n")
        ini = load_ini(str(path))
        assert ini.get("run", "api_key") == "a%b"
        assert ini.get("run", "model") == "%(x)s"
        assert ini.get("run", "cache_dir") == "c%%d"
        path.write_text("[run]\napi_key = a%b\n")
        assert main(synthetic_argv("--config", str(path))) == 0, capsys.readouterr().err

    def test_run_and_search_flags_are_keys(self, tmp_path):
        path = tmp_path / "run.ini"
        path.write_text(
            "[run]\ntask = synthetic\nseed = 1\ncache_dir = c\nm_values = 1\n"
            "[search]\nsteps = 2\nt_min = 0.1\nluq_enabled = true\neval_workers = 2\n"
        )
        with pytest.raises(InvalidArgumentError, match="'m_values' in \\[run\\]"):
            load_ini(str(path))  # sweep-m's own flag is not a [run] key
        path.write_text(path.read_text().replace("m_values = 1\n", ""))
        assert load_ini(str(path)) is not None


# every SearchConfig field but seed (a run option): its flag, its [search]
# line and the value both set
SEARCH_SETTINGS = {
    "k": (["--k", "7"], "k = 7", 7),
    "b": (["--b", "2"], "b = 2", 2),
    "T": (["--steps", "4"], "steps = 4", 4),
    "m": (["--m", "9"], "m = 9", 9),
    "t_min": (["--t-min", "0.3"], "t_min = 0.3", 0.3),
    "t_max": (["--t-max", "1.5"], "t_max = 1.5", 1.5),
    "v_th": (["--v-th", "0.7"], "v_th = 0.7", 0.7),
    "u_th": (["--u-th", "2.5"], "u_th = 2.5", 2.5),
    "epsilon": (["--epsilon", "0.01"], "epsilon = 0.01", 0.01),
    "luq_enabled": (["--no-luq"], "luq_enabled = false", False),
    "ugs_enabled": (["--no-ugs"], "ugs_enabled = false", False),
    "max_outputs": (["--max-outputs", "5"], "max_outputs = 5", 5),
    "eval_workers": (["--eval-workers", "3"], "eval_workers = 3", 3),
}


class TestSearchSettings:
    def test_table_covers_every_search_field(self):
        names = {field.name for field in fields(SearchConfig)}
        assert set(SEARCH_SETTINGS) == names - {"seed"}

    @pytest.mark.parametrize("field", sorted(SEARCH_SETTINGS))
    def test_set_by_flag_and_by_ini(self, tmp_path, field):
        argv, line, value = SEARCH_SETTINGS[field]
        args = build_parser().parse_args(["run", *argv])
        assert build_search_values(args, None) == {field: value}
        path = tmp_path / "run.ini"
        path.write_text(f"[search]\n{line}\n")
        ini = load_ini(str(path))
        assert build_search_values(argparse.Namespace(), ini) == {field: value}

    @pytest.mark.parametrize(
        "flags",
        [
            ["--t-max", "2.5"],
            ["--t-min", "inf", "--t-max", "inf"],
            ["--epsilon", "inf"],
            ["--t-min", "nan"],
            ["--t-max", "nan"],
            ["--v-th", "nan"],
            ["--u-th", "nan"],
            ["--epsilon", "nan"],
        ],
        ids=" ".join,
    )
    def test_bad_value_exits_two_before_any_episode(self, tmp_path, capsys, flags):
        records = tmp_path / "records.jsonl"
        assert main(synthetic_argv("--records", str(records), *flags)) == 2
        out, err = capsys.readouterr()
        assert err.startswith("error: ")
        assert out == ""
        assert not records.exists()

    @pytest.mark.parametrize("flag", ["--u-th=inf", "--v-th=-inf"])
    def test_a_gate_turned_off_runs(self, capsys, flag):
        assert main(synthetic_argv("--method", "tout_dfs", flag)) == 0


class TestScriptFile:
    def test_round_trip_with_default(self, tmp_path):
        path = tmp_path / "script.json"
        path.write_text(json.dumps({"abcd" * 4: "unused"}))
        path.write_text(
            json.dumps({"deadbeefdeadbeef:1000:0": "hello", "__default__": "fb"})
        )
        script, default = load_script(path)
        assert script == {("deadbeefdeadbeef", 1000, 0): "hello"}
        assert default == "fb"

    def test_colons_bind_rightward(self, tmp_path):
        # only the last two fields are numeric; anything before stays in the digest
        path = tmp_path / "script.json"
        path.write_text(json.dumps({"a:b:200:3": "x"}))
        script, _ = load_script(path)
        assert script == {("a:b", 200, 3): "x"}

    def test_bad_key_rejected(self, tmp_path):
        path = tmp_path / "script.json"
        path.write_text(json.dumps({"nocolons": "x"}))
        with pytest.raises(InvalidArgumentError, match="bad script key"):
            load_script(path)


class TestRunCommand:
    def test_exit_zero_and_csv_on_stdout(self, capsys):
        assert main(synthetic_argv()) == 0
        rows = stdout_rows(capsys)
        success = [r for r in rows if r["metric"] == "success"]
        assert len(success) == 1
        assert success[0]["method"] == "tout_bfs"
        assert success[0]["episodes"] == "2"
        assert 0.0 <= float(success[0]["value"]) <= 100.0

    def test_markdown_format(self, capsys):
        assert main(synthetic_argv("--format", "markdown")) == 0
        out = capsys.readouterr().out
        assert out.startswith("| method | m | b | metric | value | episodes | seconds |")
        assert "| tout_bfs |" in out

    def test_out_file_instead_of_stdout(self, tmp_path, capsys):
        out = tmp_path / "table.csv"
        assert main(synthetic_argv("--out", str(out))) == 0
        assert capsys.readouterr().out == ""
        assert out.read_text().startswith("method,m,b,metric,value,episodes,seconds")

    def test_out_dir_layout_and_derived_run_id(self, tmp_path, capsys):
        outdir = tmp_path / "artifacts"
        assert main(synthetic_argv("--seed", "7", "--out-dir", str(outdir))) == 0
        config = replace(SearchConfig(), T=1, m=2, k=2, seed=7)
        run_id = default_run_id("synthetic", "tout_bfs", config)
        transcript = outdir / "transcripts" / f"{run_id}.jsonl"
        assert transcript.exists()
        assert len(transcript.read_text().splitlines()) == 2
        assert (outdir / "results" / f"{run_id}.csv").exists()
        assert (outdir / "results" / f"{run_id}.md").exists()

    def test_seed_changes_run_id(self, tmp_path, capsys):
        a, b = tmp_path / "a", tmp_path / "b"
        assert main(synthetic_argv("--seed", "1", "--out-dir", str(a))) == 0
        assert main(synthetic_argv("--seed", "2", "--out-dir", str(b))) == 0
        names_a = {p.name for p in (a / "transcripts").iterdir()}
        names_b = {p.name for p in (b / "transcripts").iterdir()}
        assert names_a.isdisjoint(names_b)

    def test_run_id_override(self, tmp_path, capsys):
        outdir = tmp_path / "artifacts"
        argv = synthetic_argv("--out-dir", str(outdir), "--run-id", "myrun")
        assert main(argv) == 0
        assert (outdir / "transcripts" / "myrun.jsonl").exists()
        assert (outdir / "results" / "myrun.csv").exists()
        assert (outdir / "results" / "myrun.md").exists()

    def test_explicit_records_path_wins_over_out_dir(self, tmp_path, capsys):
        outdir = tmp_path / "artifacts"
        records = tmp_path / "episodes.jsonl"
        argv = synthetic_argv("--out-dir", str(outdir), "--records", str(records))
        assert main(argv) == 0
        assert len(records.read_text().splitlines()) == 2
        assert not (outdir / "transcripts").exists()
        assert (outdir / "results").exists()

    def test_ini_supplies_run_options(self, tmp_path, capsys):
        path = tmp_path / "run.ini"
        path.write_text(
            "[run]\ntask = synthetic\nepisodes = 2\nseed = 3\ndepth = 1\n"
            f"out_dir = {tmp_path / 'artifacts'}\n"
            "[search]\nm = 4\nk = 2\n"
        )
        # --m on the command line must override the file's m = 4
        assert main(["run", "--config", str(path), "--m", "2"]) == 0
        config = replace(SearchConfig(), T=1, m=2, k=2, seed=3)
        run_id = default_run_id("synthetic", "tout_bfs", config)
        transcript = tmp_path / "artifacts" / "transcripts" / f"{run_id}.jsonl"
        assert len(transcript.read_text().splitlines()) == 2

    def test_unknown_format_from_ini(self, tmp_path, capsys):
        path = tmp_path / "run.ini"
        path.write_text("[run]\nformat = xml\n")
        assert main(synthetic_argv("--config", str(path))) == 2
        assert "error:" in capsys.readouterr().err

    def test_unknown_format_from_ini_stops_before_any_episode(self, tmp_path, capsys):
        records = tmp_path / "records.jsonl"
        path = tmp_path / "run.ini"
        path.write_text(f"[run]\nformat = xml\nrecords = {records}\n")
        assert main(synthetic_argv("--config", str(path))) == 2
        out, err = capsys.readouterr()
        assert "unknown format 'xml', expected one of csv, markdown" in err
        assert out == ""
        assert not records.exists()

    def test_repeated_problem_ids_rejected_before_any_episode(self, tmp_path, capsys):
        dataset = write_game24_csv(tmp_path, [(1, "4 9 10 13"), (1, "1 1 1 1")])
        script = tmp_path / "script.json"
        script.write_text(json.dumps({"__default__": ""}))
        records = tmp_path / "records.jsonl"
        argv = ["run", "--task", "game24", "--dataset", str(dataset),
                "--backend", "scripted", "--script", str(script), "--method", "io",
                "--records", str(records)]
        assert main(argv) == 2
        assert "problem ids repeat: game24/1" in capsys.readouterr().err
        assert not records.exists()


class TestGridCommands:
    def test_ablate_emits_four_labeled_reports(self, tmp_path, capsys):
        outdir = tmp_path / "artifacts"
        argv = ["ablate"] + synthetic_argv("--out-dir", str(outdir))[1:]
        assert main(argv) == 0
        rows = stdout_rows(capsys)
        methods = [r["method"] for r in rows if r["metric"] == "success"]
        assert len(methods) == 4
        assert all(m.startswith("tout_bfs[luq=") for m in methods)
        assert len(set(methods)) == 4
        stems = [p.stem for p in (outdir / "results").glob("*.csv")]
        assert stems and all(stem.endswith("-ablate") for stem in stems)

    def test_sweep_m_one_report_per_value(self, tmp_path, capsys):
        outdir = tmp_path / "artifacts"
        argv = ["sweep-m"] + synthetic_argv()[1:]
        argv += ["--m-values", "1,2", "--out-dir", str(outdir)]
        assert main(argv) == 0
        rows = [r for r in stdout_rows(capsys) if r["metric"] == "success"]
        assert [r["m"] for r in rows] == ["1", "2"]
        stems = [p.stem for p in (outdir / "results").glob("*.csv")]
        assert stems and all(stem.endswith("-sweepm") for stem in stems)

    @pytest.mark.parametrize("values", ["x", "1,two", " , "])
    def test_bad_m_values(self, values, capsys):
        argv = ["sweep-m"] + synthetic_argv()[1:] + ["--m-values", values]
        assert main(argv) == 2
        assert "error:" in capsys.readouterr().err

    def test_cached_sweep_records_what_an_uncached_sweep_records(self, tmp_path):
        # m=5 finds draw 0 of every state in the cache the m=1 run filled:
        # the oracle must still serve draws 1-4 as a cold run does
        tables = {}
        warm_flags = ["--cache-dir", str(tmp_path / "cache")]
        for name, cache in (("cold", []), ("warm", warm_flags)):
            records = tmp_path / f"{name}.jsonl"
            out = tmp_path / f"{name}.csv"
            argv = ["sweep-m", "--task", "synthetic", "--depth", "3",
                    "--episodes", "20", "--m-values", "1,5",
                    "--records", str(records), "--out", str(out)]
            assert main(argv + cache) == 0
            with out.open(newline="") as handle:
                tables[name] = [
                    {k: v for k, v in row.items() if k != "seconds"}
                    for row in csv.DictReader(handle)
                ]
        warm = (tmp_path / "warm.jsonl").read_bytes()
        assert warm == (tmp_path / "cold.jsonl").read_bytes()
        assert tables["warm"] == tables["cold"]
        for line in warm.splitlines():
            for event in json.loads(line)["events"]:
                if event["event"] == "evaluate":
                    assert len(set(event["samples"])) == len(event["samples"])


class _CountingHandler(BaseHTTPRequestHandler):
    """Answers every request with the server's text; counts the connections
    it accepts and those the client has closed."""

    protocol_version = "HTTP/1.1"  # keep-alive

    def setup(self):
        super().setup()
        with self.server.lock:
            self.server.opened += 1

    def finish(self):
        super().finish()
        with self.server.lock:
            self.server.closed += 1

    def do_POST(self):
        self.rfile.read(int(self.headers["Content-Length"]))
        choices = [{"message": {"content": self.server.text}}]
        data = json.dumps({"choices": choices}).encode("utf-8")
        self.send_response(200)
        self.send_header("Content-Length", str(len(data)))
        self.end_headers()
        self.wfile.write(data)

    def log_message(self, *args):
        pass


class TestHttpRun:
    def test_run_closes_every_connection_it_opened(self, tmp_path, monkeypatch):
        for name in ("http_proxy", "HTTP_PROXY"):
            monkeypatch.delenv(name, raising=False)
        server = ThreadingHTTPServer(("127.0.0.1", 0), _CountingHandler)
        server.daemon_threads = True
        server.lock, server.opened, server.closed = threading.Lock(), 0, 0
        server.text = "4 + 9 = 13 (left: 10 13 13)"
        thread = threading.Thread(target=server.serve_forever, args=(0.05,), daemon=True)
        thread.start()
        dataset = write_game24_csv(tmp_path, [(1, "4 9 10 13"), (2, "1 1 4 6")])
        argv = ["run", "--task", "game24", "--dataset", str(dataset),
                "--backend", "http", "--api-base", f"http://127.0.0.1:{server.server_port}",
                "--model", "m1", "--k", "2", "--m", "4", "--steps", "2",
                "--out", str(tmp_path / "table.csv")]
        try:
            assert main(argv) == 0
            deadline = time.monotonic() + 5
            while server.closed < server.opened and time.monotonic() < deadline:
                time.sleep(0.01)
            assert server.opened > 1  # the pool's threads each had a connection
            assert server.closed == server.opened
        finally:
            server.shutdown()
            server.server_close()
            thread.join(timeout=5)


class TestRunErrors:
    def test_no_subcommand_is_a_usage_error(self):
        with pytest.raises(SystemExit):
            main([])

    def test_task_required(self, capsys):
        assert main(["run", "--episodes", "1"]) == 2
        assert "--task is required" in capsys.readouterr().err

    def test_dataset_required_for_game24(self, capsys):
        assert main(["run", "--task", "game24", "--backend", "scripted"]) == 2
        assert "--dataset is required" in capsys.readouterr().err

    def test_missing_dataset_file(self, tmp_path, capsys):
        argv = ["run", "--task", "game24", "--dataset", str(tmp_path / "no.csv")]
        assert main(argv) == 2
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("flags", [
        ["run", "--task", "game24", "--backend", "scripted", "--script", "s.json",
         "--dataset", "DIR"],
        ["run", "--task", "crosswords", "--backend", "scripted", "--script", "s.json",
         "--dataset", "DIR"],
        ["run", "--task", "game24", "--backend", "scripted", "--dataset", "p.csv",
         "--script", "DIR"],
        ["check", "--task", "game24", "--dataset", "DIR"],
        ["check", "--task", "crosswords", "--input", "DIR", "--answer", "x"],
        ["check", "--task", "game24", "--input", "4 9 10 13", "--answer-file", "DIR"],
    ], ids=["run-game24-dataset", "run-crosswords-dataset", "run-script",
            "check-dataset", "check-crosswords-input", "check-answer-file"])
    def test_directory_for_a_file_is_a_usage_error(self, tmp_path, capsys, flags):
        write_game24_csv(tmp_path, [(1, "4 9 10 13")])  # p.csv
        (tmp_path / "s.json").write_text("{}", encoding="utf-8")
        folder = tmp_path / "folder"
        folder.mkdir()
        argv = [{"DIR": str(folder), "p.csv": str(tmp_path / "puzzles.csv"),
                 "s.json": str(tmp_path / "s.json")}.get(flag, flag) for flag in flags]
        assert main(argv) == 2
        out, err = capsys.readouterr()
        assert err.startswith("error: ")
        assert str(folder) in err
        assert out == ""

    def test_directory_for_the_config_is_a_usage_error(self, tmp_path, capsys):
        assert main(synthetic_argv("--config", str(tmp_path))) == 2
        err = capsys.readouterr().err
        assert f"cannot read config file {tmp_path}" in err
        assert "not found" not in err

    def test_start_past_end_of_dataset(self, tmp_path, capsys):
        dataset = write_game24_csv(tmp_path, [(1, "4 9 10 13")])
        argv = [
            "run", "--task", "game24", "--dataset", str(dataset),
            "--backend", "scripted", "--script", "unused", "--start", "5",
        ]
        assert main(argv) == 2
        assert "no problems selected" in capsys.readouterr().err

    def test_synthetic_start_rejected(self, tmp_path, capsys):
        # synthetic episodes are numbered from 0 whatever the offset, so a
        # second run with --start would resume the first one's episodes
        records = tmp_path / "episodes.jsonl"
        assert main(synthetic_argv("--records", str(records))) == 0
        assert main(synthetic_argv("--records", str(records), "--start", "2")) == 2
        assert "--start must be 0" in capsys.readouterr().err
        assert len(records.read_text().splitlines()) == 2

    def test_scripted_backend_needs_script(self, tmp_path, capsys):
        dataset = write_game24_csv(tmp_path, [(1, "4 9 10 13")])
        argv = ["run", "--task", "game24", "--dataset", str(dataset),
                "--backend", "scripted"]
        assert main(argv) == 2
        assert "--script is required" in capsys.readouterr().err

    def test_synthetic_backend_rejected_elsewhere(self, tmp_path, capsys):
        dataset = write_game24_csv(tmp_path, [(1, "4 9 10 13")])
        argv = ["run", "--task", "game24", "--dataset", str(dataset),
                "--backend", "synthetic"]
        assert main(argv) == 2
        assert "only answers the synthetic task" in capsys.readouterr().err

    def test_http_backend_needs_endpoint(self, tmp_path, monkeypatch, capsys):
        for var in ("TOUT_API_BASE", "TOUT_API_KEY", "TOUT_MODEL"):
            monkeypatch.delenv(var, raising=False)
        dataset = write_game24_csv(tmp_path, [(1, "4 9 10 13")])
        assert main(["run", "--task", "game24", "--dataset", str(dataset)]) == 2
        assert "error:" in capsys.readouterr().err

    def test_backend_outage_exits_one(self, tmp_path, monkeypatch, capsys):
        class _Down(Backend):
            def __init__(self, **kwargs):
                pass

            def generate(self, request):
                raise BackendUnavailableError("service down (status 503)")

        monkeypatch.setattr("tout.cli.HttpBackend", _Down)
        dataset = write_game24_csv(tmp_path, [(1, "4 9 10 13")])
        argv = ["run", "--task", "game24", "--dataset", str(dataset),
                "--method", "io"]
        assert main(argv) == 1
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("flags, named", [
        (["--out", "{dir}", "--records", "{records}"], "{dir}"),
        (["--out", "{missing}/table.csv", "--records", "{records}"],
         "{missing}/table.csv"),
        (["--out-dir", "{file}", "--records", "{records}"], "{file}"),
        (["--out-dir", "{file}"], "{file}"),
    ], ids=["out-a-directory", "out-in-a-missing-directory",
            "out-dir-a-file-with-records", "out-dir-a-file"])
    def test_unwritable_output_stops_before_any_episode(
        self, tmp_path, capsys, flags, named
    ):
        (tmp_path / "folder").mkdir()
        (tmp_path / "plain").write_text("not a directory", encoding="utf-8")
        paths = {"dir": tmp_path / "folder", "file": tmp_path / "plain",
                 "missing": tmp_path / "absent", "records": tmp_path / "r.jsonl"}
        argv = ["run", "--task", "synthetic", "--depth", "3", "--episodes", "20"]
        argv += [flag.format(**paths) for flag in flags]
        assert main(argv) == 2
        out, err = capsys.readouterr()
        assert err.startswith("error: ") and named.format(**paths) in err
        assert out == ""
        assert list(tmp_path.rglob("*.jsonl")) == []  # no record was written
        assert (tmp_path / "plain").read_text(encoding="utf-8") == "not a directory"


# Input files that do not parse: (file name, text, what it feeds: the config,
# the script or the named task's dataset, message).
BAD_FILES = [
    pytest.param("run.ini", "task = synthetic\n", "config", "not an INI file",
                 id="ini-no-section-header"),
    pytest.param("run.ini", "[search]\nm = 4\n[search]\nk = 2\n", "config",
                 "not an INI file", id="ini-duplicate-section"),
    pytest.param("run.ini", "[search]\nm = four\n", "config",
                 "bad value for 'm' in [search]", id="ini-m-not-an-integer"),
    pytest.param("run.ini", "[search]\nluq_enabled = maybe\n", "config",
                 "bad value for 'luq_enabled' in [search]", id="ini-not-a-boolean"),
    pytest.param("run.ini", "[run]\nepisodes = two\n", "config",
                 "bad value for 'episodes' in [run]", id="ini-episodes-not-an-integer"),
    pytest.param("script.json", "{not json", "script", "not JSON",
                 id="script-not-json"),
    pytest.param("script.json", '["a", "b"]', "script", "expected a JSON object",
                 id="script-a-list"),
    pytest.param("script.json", '{"__default__": 3}', "script", "must be text",
                 id="script-entry-not-text"),
    pytest.param("mini.json", "clues: none", "crosswords", "not JSON",
                 id="crosswords-dataset-not-json"),
    pytest.param("puzzles.csv", "rank,puzzle\nx,4 9 10 13\n", "game24", "line 2",
                 id="game24-rank-not-an-integer"),
    pytest.param("puzzles.csv", "rank,puzzle\n1,4 9 10 13\n2\n", "game24",
                 "line 3", id="game24-short-row"),
]


class TestBadInputFiles:
    """A file that does not parse is a usage error naming the file, not a
    traceback."""

    @pytest.mark.parametrize("name, text, role, message", BAD_FILES)
    def test_exit_two_naming_the_file(self, tmp_path, capsys, name, text, role, message):
        path = tmp_path / name
        path.write_text(text, encoding="utf-8")
        if role == "config":
            argv = synthetic_argv("--config", str(path))
        elif role == "script":
            dataset = write_game24_csv(tmp_path, [(1, "4 9 10 13")])
            argv = ["run", "--task", "game24", "--dataset", str(dataset),
                    "--method", "io", "--backend", "scripted", "--script", str(path)]
        else:
            argv = ["run", "--task", role, "--dataset", str(path),
                    "--backend", "scripted", "--script", "unused"]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and str(path) in err and message in err


class TestScriptedRun:
    def test_game24_io_end_to_end(self, tmp_path, capsys):
        dataset = write_game24_csv(tmp_path, [(1, "4 9 10 13")])
        config = replace(SearchConfig(), T=3)
        episode = EpisodeScript(make_task("game24"), config)
        episode.io("4 9 10 13", "Answer: (13 - 9) * (10 - 4) = 24")
        table = {":".join(map(str, key)): text for key, text in episode.script.items()}
        table["__default__"] = ""
        script = tmp_path / "script.json"
        script.write_text(json.dumps(table))

        outdir = tmp_path / "artifacts"
        argv = [
            "run", "--task", "game24", "--dataset", str(dataset),
            "--method", "io", "--backend", "scripted", "--script", str(script),
            "--out-dir", str(outdir),
        ]
        assert main(argv) == 0
        rows = [r for r in stdout_rows(capsys) if r["metric"] == "success"]
        assert rows[0]["value"] == "100.0"
        assert rows[0]["method"] == "io"

        (transcript,) = (outdir / "transcripts").glob("*.jsonl")
        record = json.loads(transcript.read_text())
        assert record["problem_id"] == "game24/1"
        assert record["final_output"] == "(13 - 9) * (10 - 4)"
        assert record["verdicts"]["success"] == 1.0


class TestCheckGame24:
    def test_correct_answer(self, capsys):
        argv = ["check", "--task", "game24", "--input", "4 9 10 13",
                "--answer", "(13 - 9) * (10 - 4) = 24"]
        assert main(argv) == 0
        verdicts = json.loads(capsys.readouterr().out)
        assert verdicts["success"] == 1.0

    def test_wrong_answer(self, capsys):
        argv = ["check", "--task", "game24", "--input", "4 9 10 13",
                "--answer", "4 + 9 + 10 + 13"]
        assert main(argv) == 1
        verdicts = json.loads(capsys.readouterr().out)
        assert verdicts["parsed"] == 1.0
        assert verdicts["success"] == 0.0

    def test_answer_file(self, tmp_path, capsys):
        answer = tmp_path / "answer.txt"
        answer.write_text("(13 - 9) * (10 - 4)\n")
        argv = ["check", "--task", "game24", "--input", "4 9 10 13",
                "--answer-file", str(answer)]
        assert main(argv) == 0

    def test_missing_answer_file(self, tmp_path, capsys):
        argv = ["check", "--task", "game24", "--input", "4 9 10 13",
                "--answer-file", str(tmp_path / "absent.txt")]
        assert main(argv) == 2

    def test_solve_prints_verified_witness(self, capsys):
        assert main(["check", "--task", "game24", "--input", "3 3 8 8",
                     "--solve"]) == 0
        witness = capsys.readouterr().out.strip()
        assert check_solution(witness, "3 3 8 8")

    def test_solve_unsolvable(self, capsys):
        assert main(["check", "--task", "game24", "--input", "1 1 1 1",
                     "--solve"]) == 1
        assert capsys.readouterr().out.strip() == "unsolvable"

    def test_input_required(self, capsys):
        assert main(["check", "--task", "game24", "--answer", "1+2"]) == 2

    @pytest.mark.parametrize("puzzle, message", [
        ("3 3 8 x", "must be integers"),
        ("0 3 8 8", "must be positive"),
        ("3 8 8", "needs 4 numbers, got 3"),
    ])
    @pytest.mark.parametrize("source", [["--solve"], ["--answer", "8/(3-8/3)"]])
    def test_malformed_puzzle_is_a_usage_error(self, capsys, puzzle, message, source):
        assert main(["check", "--task", "game24", "--input", puzzle, *source]) == 2
        out, err = capsys.readouterr()
        assert message in err
        assert out == ""

    def test_some_answer_source_required(self, capsys):
        assert main(["check", "--task", "game24", "--input", "4 9 10 13"]) == 2


class TestCheckCrosswords:
    def test_correct_grid(self, tmp_path, capsys):
        path = write_crossword_json(tmp_path)
        argv = ["check", "--task", "crosswords", "--input", str(path),
                "--answer", "\n".join(WORDS)]
        assert main(argv) == 0
        verdicts = json.loads(capsys.readouterr().out)
        assert verdicts["success"] == 1.0

    def test_one_bad_letter(self, tmp_path, capsys):
        path = write_crossword_json(tmp_path)
        grid = "\n".join(WORDS[:4] + ("TRENT",))
        argv = ["check", "--task", "crosswords", "--input", str(path),
                "--answer", grid]
        assert main(argv) == 1
        verdicts = json.loads(capsys.readouterr().out)
        assert verdicts["success"] == 0.0

    def test_index_out_of_range(self, tmp_path, capsys):
        path = write_crossword_json(tmp_path)
        argv = ["check", "--task", "crosswords", "--input", str(path),
                "--answer", "x", "--index", "5"]
        assert main(argv) == 2
        assert "out of range" in capsys.readouterr().err

    def test_solve_not_supported(self, tmp_path, capsys):
        path = write_crossword_json(tmp_path)
        argv = ["check", "--task", "crosswords", "--input", str(path), "--solve"]
        assert main(argv) == 2
        assert "does not apply" in capsys.readouterr().err


class TestCheckDataset:
    def test_all_solvable(self, tmp_path, capsys):
        dataset = write_game24_csv(tmp_path, [(901, "4 9 10 13"), (902, "3 3 8 8")])
        argv = ["check", "--task", "game24", "--dataset", str(dataset)]
        assert main(argv) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0].startswith("901,4 9 10 13,ok,")
        assert lines[1].startswith("902,3 3 8 8,ok,")
        assert lines[-1] == "checked 2 puzzles, 0 failures"
        witness = lines[0].split(",", 3)[3]
        assert check_solution(witness, "4 9 10 13")

    def test_unsolvable_puzzle_fails_the_audit(self, tmp_path, capsys):
        dataset = write_game24_csv(tmp_path, [(1, "4 9 10 13"), (2, "1 1 1 1")])
        argv = ["check", "--task", "game24", "--dataset", str(dataset)]
        assert main(argv) == 1
        lines = capsys.readouterr().out.splitlines()
        assert "1 1 1 1,unsolvable" in lines[1]
        assert lines[-1] == "checked 2 puzzles, 1 failures"
