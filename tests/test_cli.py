"""Tests for the command-line interface."""

import io
import subprocess
import sys

import pytest

from repro.cli import build_parser, main


@pytest.fixture()
def strings_file(tmp_path):
    path = tmp_path / "strings.txt"
    path.write_text(
        "Main Street\nMaine Street\nElm Avenue\nPennsylvania Avenue\n"
    )
    return path


def run_cli(argv):
    out = io.StringIO()
    code = main(argv, out=out)
    return code, out.getvalue()


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_version_flag(self):
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args(["--version"])
        assert exc.value.code == 0

    def test_algorithm_choices_validated(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["query", "--index", "x", "--text", "y",
                 "--algorithm", "bogus"]
            )


class TestIndexAndQuery:
    def test_index_builds(self, strings_file, tmp_path):
        code, out = run_cli(
            ["index", "--input", str(strings_file),
             "--output", str(tmp_path / "idx")]
        )
        assert code == 0
        assert "indexed 4 strings" in out

    def test_query_finds_match(self, strings_file, tmp_path):
        run_cli(["index", "--input", str(strings_file),
                 "--output", str(tmp_path / "idx")])
        code, out = run_cli(
            ["query", "--index", str(tmp_path / "idx"),
             "--text", "Main Stret", "--threshold", "0.5"]
        )
        assert code == 0
        assert "Main Street" in out
        first_score = float(out.splitlines()[0].split("\t")[0])
        assert 0.5 <= first_score <= 1.0

    def test_query_empty_tokens(self, strings_file, tmp_path):
        run_cli(["index", "--input", str(strings_file),
                 "--output", str(tmp_path / "idx")])
        code, _ = run_cli(
            ["query", "--index", str(tmp_path / "idx"), "--text", ""]
        )
        assert code == 2

    def test_topk(self, strings_file, tmp_path):
        run_cli(["index", "--input", str(strings_file),
                 "--output", str(tmp_path / "idx")])
        code, out = run_cli(
            ["topk", "--index", str(tmp_path / "idx"),
             "--text", "Avenue", "-k", "2"]
        )
        assert code == 0
        assert len(out.strip().splitlines()) == 2

    def test_info(self, strings_file, tmp_path):
        run_cli(["index", "--input", str(strings_file),
                 "--output", str(tmp_path / "idx")])
        code, out = run_cli(["info", "--index", str(tmp_path / "idx")])
        assert code == 0
        assert "sets:        4" in out

    def test_custom_q_round_trips(self, strings_file, tmp_path):
        # The query command must tokenize with the q the index was built
        # with (a 4-gram index probed with 3-grams finds nothing).
        run_cli(["index", "--input", str(strings_file),
                 "--output", str(tmp_path / "q4"), "--q", "4"])
        code, out = run_cli(
            ["query", "--index", str(tmp_path / "q4"),
             "--text", "Main Street", "--threshold", "0.9"]
        )
        assert code == 0
        assert "Main Street" in out

    def test_empty_input_file(self, tmp_path):
        empty = tmp_path / "empty.txt"
        empty.write_text("\n\n")
        code, _ = run_cli(
            ["index", "--input", str(empty),
             "--output", str(tmp_path / "idx")]
        )
        assert code == 2

    def test_missing_index_dir(self, tmp_path):
        code, _ = run_cli(
            ["query", "--index", str(tmp_path / "nope"), "--text", "x"]
        )
        assert code == 1


class TestDedupe:
    def test_groups_duplicates(self, tmp_path):
        path = tmp_path / "dirty.txt"
        path.write_text(
            "Acme Corporation\nAcme Corporation\nAcme Corporatoin\n"
            "Globex Inc\nTotally Different LLC\n"
        )
        code, out = run_cli(
            ["dedupe", "--input", str(path), "--threshold", "0.55"]
        )
        assert code == 0
        assert "group 1 (3 records)" in out
        assert "Totally Different LLC" not in out.split("groups")[0]

    def test_empty_input(self, tmp_path):
        path = tmp_path / "empty.txt"
        path.write_text("\n")
        code, _ = run_cli(["dedupe", "--input", str(path)])
        assert code == 2

    def test_min_size(self, tmp_path):
        path = tmp_path / "dirty.txt"
        path.write_text("aaa bbb\naaa bbb\nccc ddd\n")
        code, out = run_cli(
            ["dedupe", "--input", str(path), "--min-size", "3"]
        )
        assert code == 0
        assert "0 duplicate groups" in out


class TestBench:
    def test_bench_prints_table(self):
        code, out = run_cli(
            ["bench", "--records", "300", "--queries", "3", "--tau", "0.8"]
        )
        assert code == 0
        assert "engine" in out
        assert "sf" in out


class TestModuleEntryPoint:
    def test_python_dash_m(self, strings_file, tmp_path):
        result = subprocess.run(
            [sys.executable, "-m", "repro", "index",
             "--input", str(strings_file),
             "--output", str(tmp_path / "idx")],
            capture_output=True, text=True,
        )
        assert result.returncode == 0
        assert "indexed 4 strings" in result.stdout


class TestBatchCommand:
    @pytest.fixture()
    def index_dir(self, strings_file, tmp_path):
        run_cli(["index", "--input", str(strings_file),
                 "--output", str(tmp_path / "idx")])
        return tmp_path / "idx"

    @pytest.fixture()
    def queries_file(self, tmp_path):
        path = tmp_path / "queries.txt"
        path.write_text("Main Stret\nElm Avenu\nMain Stret\n")
        return path

    def test_batch_answers_every_line(self, index_dir, queries_file):
        code, out = run_cli(
            ["batch", "--index", str(index_dir),
             "--input", str(queries_file), "--threshold", "0.5"]
        )
        assert code == 0
        assert "Main Street" in out
        assert "Elm Avenue" in out

    def test_batch_json_one_object_per_line(self, index_dir, queries_file):
        import json

        code, out = run_cli(
            ["batch", "--index", str(index_dir),
             "--input", str(queries_file), "--threshold", "0.5", "--json"]
        )
        assert code == 0
        rows = [json.loads(line) for line in out.strip().splitlines()]
        assert len(rows) == 3
        assert all(row["ok"] for row in rows)
        # The repeated query is answered by cache or coalescing, with
        # the same results as its first occurrence.
        assert rows[2]["results"] == rows[0]["results"]

    @pytest.mark.parametrize(
        "command", [["batch", "--input", "q.txt"], ["serve"]]
    )
    def test_workers_option_is_gone(self, command):
        # Every query runs in the caller's thread: there is no pool
        # width to set, so the option is rejected as unknown.
        build_parser().parse_args([*command, "--index", "idx"])
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args(
                [*command, "--index", "idx", "--workers", "4"]
            )
        assert exc.value.code == 2

    def test_batch_metrics_summary_on_stderr(self, index_dir, queries_file,
                                             capsys):
        code, out = run_cli(
            ["batch", "--index", str(index_dir),
             "--input", str(queries_file), "--threshold", "0.5",
             "--metrics"]
        )
        assert code == 0
        err = capsys.readouterr().err
        assert "metrics: " in err
        assert "queries=" in err
        # The scoped registry must not leak into the process default.
        from repro.obs import metrics as obs_metrics

        assert obs_metrics.get_registry().snapshot() == {}


class TestTraceCommand:
    @pytest.fixture()
    def index_dir(self, strings_file, tmp_path):
        run_cli(["index", "--input", str(strings_file),
                 "--output", str(tmp_path / "idx")])
        return tmp_path / "idx"

    def test_query_trace_then_render(self, index_dir, tmp_path):
        import json

        trace_path = tmp_path / "spans.jsonl"
        code, out = run_cli(
            ["query", "--index", str(index_dir), "--text", "Main Stret",
             "--threshold", "0.5", "--trace", str(trace_path)]
        )
        assert code == 0
        assert "Main Street" in out  # tracing must not change answers
        records = [
            json.loads(line)
            for line in trace_path.read_text().splitlines()
        ]
        names = {r["name"] for r in records}
        assert "query" in names and "sf.scan_list" in names

        code, out = run_cli(["trace", "--input", str(trace_path)])
        assert code == 0
        assert "self_ms" in out
        assert "sf.scan_list" in out

    def test_trace_missing_file_is_error(self, tmp_path):
        code, _ = run_cli(
            ["trace", "--input", str(tmp_path / "nope.jsonl")]
        )
        assert code == 2


class TestServeCommand:
    def test_serve_end_to_end(self, strings_file, tmp_path):
        import json
        import socket
        import time
        import urllib.request

        run_cli(["index", "--input", str(strings_file),
                 "--output", str(tmp_path / "idx")])
        with socket.socket() as probe:
            probe.bind(("127.0.0.1", 0))
            port = probe.getsockname()[1]
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve",
             "--index", str(tmp_path / "idx"), "--port", str(port)],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        )
        try:
            url = f"http://127.0.0.1:{port}"
            deadline = time.time() + 10
            while True:
                try:
                    with urllib.request.urlopen(
                        url + "/healthz", timeout=1
                    ) as resp:
                        assert json.loads(resp.read())["ok"]
                    break
                except OSError:
                    if time.time() > deadline:
                        raise
                    time.sleep(0.1)
            request = urllib.request.Request(
                url + "/search",
                data=json.dumps(
                    {"text": "Main Stret", "threshold": 0.5}
                ).encode(),
            )
            with urllib.request.urlopen(request, timeout=5) as resp:
                body = json.loads(resp.read())
            assert body["ok"]
            assert body["results"][0]["payload"] == "Main Street"
            # A serving process always collects metrics: the scrape must
            # carry the query that was just answered.
            with urllib.request.urlopen(url + "/metrics", timeout=5) as resp:
                assert resp.headers["Content-Type"].startswith(
                    "text/plain; version=0.0.4"
                )
                exposition = resp.read().decode("utf-8")
            assert "# TYPE query_latency_seconds histogram" in exposition
            assert 'query_latency_seconds_bucket{algo="sf",le="+Inf"} 1' \
                in exposition
            assert 'elements_read_total{algo="sf"}' in exposition
            assert 'http_requests_total{path="/search"} 1' in exposition
        finally:
            proc.terminate()
            proc.wait(timeout=10)


class TestHelpListsEverySubcommand:
    def test_help_covers_command_table(self):
        from repro.cli import _COMMANDS

        result = subprocess.run(
            [sys.executable, "-m", "repro", "--help"],
            capture_output=True, text=True,
        )
        assert result.returncode == 0
        for command in _COMMANDS:
            assert command in result.stdout, command

    def test_command_table_matches_parser(self):
        from repro.cli import _COMMANDS

        parser = build_parser()
        subparsers = next(
            action for action in parser._actions
            if hasattr(action, "choices") and action.choices
        )
        assert set(subparsers.choices) == set(_COMMANDS)
