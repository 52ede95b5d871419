"""Tests for the command-line entry point (subcommand syntax)."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.cli import main, read_batch_file


def test_cli_single_value_query(capsys):
    code = main(["query", "--dataset", "rotowire",
                 "How many players are taller than 200?"])
    assert code == 0
    assert "value:" in capsys.readouterr().out


def test_cli_plot_query_renders_ascii(capsys):
    code = main(["query", "--dataset", "rotowire", "--trace",
                 "Plot the average height of players per position."])
    assert code == 0
    out = capsys.readouterr().out
    assert "[bar]" in out
    assert "step 1:" in out  # --trace prints the physical plan


def test_cli_error_exit_code(capsys):
    code = main(["query", "--dataset", "rotowire", "levitate please"])
    assert code == 1
    assert "error:" in capsys.readouterr().out


def test_cli_batch_mode(tmp_path, capsys):
    batch = tmp_path / "queries.txt"
    batch.write_text("# smoke batch\n"
                     "How many players are taller than 200?\n"
                     "\n"
                     "How many players are taller than 200?\n",
                     encoding="utf-8")
    code = main(["batch", "--dataset", "rotowire", str(batch)])
    assert code == 0
    out = capsys.readouterr().out
    assert "plan cache: 1 hits, 1 misses" in out


def test_cli_batch_mode_parallel(tmp_path, capsys):
    batch = tmp_path / "queries.txt"
    batch.write_text("How many players are taller than 200?\n"
                     "Who is the tallest player?\n"
                     "How many players are taller than 200?\n",
                     encoding="utf-8")
    code = main(["batch", "--dataset", "rotowire", str(batch),
                 "--workers", "2"])
    assert code == 0
    out = capsys.readouterr().out
    assert "2 worker(s)" in out
    assert "serial-equivalent" in out


def test_cli_batch_backend_flag(tmp_path, capsys):
    batch = tmp_path / "queries.txt"
    batch.write_text("How many players are taller than 200?\n"
                     "Who is the tallest player?\n", encoding="utf-8")
    code = main(["batch", "--dataset", "rotowire", str(batch),
                 "--workers", "2", "--backend", "process"])
    assert code == 0
    out = capsys.readouterr().out
    assert "process backend" in out
    assert "2 queries (2 ok, 0 errors)" in out


def test_cli_batch_rejects_unknown_backend(tmp_path, capsys):
    batch = tmp_path / "queries.txt"
    batch.write_text("whatever\n", encoding="utf-8")
    with pytest.raises(SystemExit) as excinfo:
        main(["batch", "--dataset", "rotowire", str(batch),
              "--backend", "quantum"])
    assert excinfo.value.code == 2
    err = capsys.readouterr().err
    assert "invalid choice: 'quantum'" in err
    assert "process" in err


def test_cli_scale_flag(capsys):
    code = main(["query", "--dataset", "rotowire", "--scale", "0.2",
                 "How many players are taller than 200?"])
    assert code == 0
    assert "value:" in capsys.readouterr().out


@pytest.mark.parametrize("name", ["bench", "loadtest", "cache-bench"])
def test_cli_removed_benchmark_subcommands_are_invalid_choices(name, capsys):
    with pytest.raises(SystemExit) as excinfo:
        main([name])
    assert excinfo.value.code == 2
    assert "invalid choice" in capsys.readouterr().err


def test_cli_empty_batch_file(tmp_path, capsys):
    batch = tmp_path / "empty.txt"
    batch.write_text("# nothing here\n", encoding="utf-8")
    code = main(["batch", "--dataset", "rotowire", str(batch)])
    assert code == 2
    assert "no queries found" in capsys.readouterr().err


def test_read_batch_file_skips_comments_and_blanks(tmp_path):
    batch = tmp_path / "queries.txt"
    batch.write_text("# a comment\n\nquery one\n  query two  \n",
                     encoding="utf-8")
    assert read_batch_file(str(batch)) == ["query one", "query two"]


def test_cli_query_requires_query_argument(capsys):
    with pytest.raises(SystemExit):
        main(["query", "--dataset", "rotowire"])


def test_cli_no_arguments_prints_usage(capsys):
    code = main([])
    assert code == 0
    out = capsys.readouterr().out
    assert "usage: repro" in out
    assert "query" in out and "batch" in out


def test_cli_version_flag(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["--version"])
    assert excinfo.value.code == 0
    assert f"repro {repro.__version__}" in capsys.readouterr().out


def test_cli_plan_cache_file_second_run_is_all_hits(tmp_path, capsys):
    batch = tmp_path / "queries.txt"
    batch.write_text("How many players are taller than 200?\n"
                     "Who is the tallest player?\n",
                     encoding="utf-8")
    cache_file = tmp_path / "plans.json"
    argv = ["batch", "--dataset", "rotowire", str(batch),
            "--plan-cache-file", str(cache_file)]

    assert main(argv) == 0
    first = capsys.readouterr().out
    assert "plan cache: 0 hits, 2 misses" in first
    assert cache_file.exists()
    payload = json.loads(cache_file.read_text(encoding="utf-8"))
    assert len(payload["entries"]) == 2

    # The second run rehydrates the cache: 100% plan-cache hits.
    assert main(argv) == 0
    second = capsys.readouterr().out
    assert "plan cache: 2 hits, 0 misses" in second
    assert "hit rate 100%" in second


def test_cli_plan_cache_file_on_single_query(tmp_path, capsys):
    cache_file = tmp_path / "plans.json"
    argv = ["query", "--dataset", "rotowire",
            "--plan-cache-file", str(cache_file),
            "How many players are taller than 200?"]
    assert main(argv) == 0
    assert cache_file.exists()
    capsys.readouterr()
    assert main(argv) == 0  # second run loads the file and still answers
    assert "value:" in capsys.readouterr().out


def test_python_dash_m_repro_runs_the_cli():
    src = str(Path(repro.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    done = subprocess.run([sys.executable, "-m", "repro", "--help"],
                          capture_output=True, text=True, env=env,
                          timeout=60)
    assert done.returncode == 0, done.stderr
    assert "usage: repro" in done.stdout
