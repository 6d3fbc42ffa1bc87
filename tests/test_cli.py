"""CLI contract tests: flags, defaults, exit codes, and output plumbing."""

import argparse
import concurrent.futures
import contextlib
import io
import json
import time
from dataclasses import replace

import numpy as np
import pytest
from fixtures import read_report, recording_pool
from hypothesis import given, settings
from hypothesis import strategies as st

from reflectspec import bench, cli, models, selftest, verification
from reflectspec.cli import build_parser, main
from reflectspec.errors import DegenerateResidualError, InternalConsistencyError
from reflectspec.selftest import check_decode_law

# The longest float64 row numpy holds, and so the largest --vocab-size.
LONGEST_ROW = np.iinfo(np.intp).max // 8

DOCUMENTED_FLAGS = [
    "--target-model",
    "--vocab-size",
    "--seed",
    "--strategy",
    "--alpha",
    "--gamma",
    "--temperature",
    "--epsilon",
    "--delta",
    "--template-file",
    "--template-inline",
    "--prefix-len",
    "--prompt",
    "--prompt-file",
    "--max-tokens",
    "--eta",
    "--corpus",
    "--entropy-source",
]


class TestParser:
    def test_documented_flags_round_trip_through_help(self):
        parser = build_parser()
        decode_help = parser._subparsers._group_actions[0].choices["decode"].format_help()
        sweep_help = parser._subparsers._group_actions[0].choices["sweep"].format_help()
        for flag in DOCUMENTED_FLAGS:
            assert flag in decode_help, flag
            assert flag in sweep_help, flag
        for flag in ("--out", "--format", "--jobs"):
            assert flag in sweep_help, flag

    def test_reference_defaults(self):
        args = build_parser().parse_args(["decode", "--prompt", "1 2 3"])
        assert args.alpha == (0.3,)
        assert args.prefix_len == 4
        assert args.gamma == (5,)
        assert args.temperature == 0.8

    @pytest.mark.parametrize(
        "command, flag",
        [(c, f) for c in ("decode", "sweep") for f in ("--alpha", "--gamma", "--strategy", "--eta")]
        + [("sweep", "--seeds")],
    )
    def test_empty_grid_is_usage_error_naming_the_flag(self, tmp_path, capsys, command, flag):
        argv = [command, "--prompt", "1 2 3", "--max-tokens", "4", flag, " , "]
        if command == "sweep":
            argv += ["--out", str(tmp_path / "report.csv")]
        assert main(argv) == 2
        assert f"error: argument {flag}: grid ' , ' holds no values" in capsys.readouterr().err
        assert not (tmp_path / "report.csv").exists()

    def test_unknown_flag_is_usage_error(self):
        assert main(["decode", "--bogus"]) == 2

    def test_bad_value_is_usage_error(self):
        assert main(["decode", "--gamma", "notanint", "--prompt", "1"]) == 2

    def test_help_exits_zero(self):
        assert main(["--help"]) == 0

    def test_removed_flags_are_usage_errors(self):
        assert main(["decode", "--prompt", "1", "--draft-model", "noisy"]) == 2
        assert main(["sweep", "--prompt", "1", "--out", "r.csv", "--eta-grid", "0,1"]) == 2

    @pytest.mark.parametrize("command", ["decode", "sweep"])
    @pytest.mark.parametrize(
        "flag", [["--alpha", "abc"], ["--gamma", "5,x"], ["--strategy", "specsample,bogus"]]
    )
    def test_malformed_grid_value_is_usage_error(self, tmp_path, capsys, command, flag):
        out = tmp_path / "r.csv"
        argv = [command, "--prompt", "1"] + (["--out", str(out)] if command == "sweep" else [])
        assert main(argv + flag) == 2
        assert f"argument {flag[0]}:" in capsys.readouterr().err
        assert not out.exists()

    def test_malformed_seed_grid_is_usage_error(self, tmp_path):
        argv = ["sweep", "--prompt", "1", "--out", str(tmp_path / "r.csv"), "--seeds", "0,x"]
        assert main(argv) == 2

    @pytest.mark.parametrize(
        "command, flag, first, second",
        [
            (c, f, a, b)
            for c in ("decode", "sweep")
            for f, a, b in (
                ("--alpha", "0.3", "0.5"),
                ("--gamma", "3", "5"),
                ("--strategy", "exact", "typical"),
                ("--eta", "0", "0.5"),
            )
        ]
        + [("sweep", "--seeds", "0", "1")],
    )
    def test_repeated_grid_flag_is_usage_error(self, tmp_path, capsys, command, flag, first, second):
        # argparse alone keeps the last grid and runs only its values.
        out = tmp_path / "r.csv"
        argv = [command, "--prompt", "1 2 3", "--max-tokens", "4", flag, first, flag, second]
        assert main(argv + (["--out", str(out)] if command == "sweep" else [])) == 2
        captured = capsys.readouterr()
        assert f"error: argument {flag}: given more than once" in captured.err
        assert f"one comma-separated grid, e.g. {flag} a,b" in captured.err
        assert captured.out == "" and not out.exists()

    @pytest.mark.parametrize("command", ["decode", "sweep"])
    @pytest.mark.parametrize(
        "flag, value",
        [
            ("--temperature", "nan"),
            ("--temperature", "inf"),
            ("--temperature", "-inf"),
            ("--alpha", "nan"),
            ("--alpha", "0,inf"),
            ("--eta", "nan"),
            ("--eta", "0.5,-inf"),
        ],
    )
    def test_non_finite_value_is_usage_error(self, tmp_path, capsys, command, flag, value):
        # A sweep would write it to the report, and a bare NaN or Infinity
        # is not strict JSON.
        out = tmp_path / "r.json"
        # ``--flag=value``, since argparse reads a bare ``-inf`` as a flag.
        argv = [command, "--prompt", "1 2 3", "--max-tokens", "4", f"{flag}={value}"]
        if command == "sweep":
            argv += ["--format", "json", "--out", str(out)]
        assert main(argv) == 2
        captured = capsys.readouterr()
        bad = value.split(",")[-1]
        assert f"error: argument {flag}: must be a finite number, got {bad!r}" in captured.err
        assert captured.out == "" and not out.exists()

    def test_decode_and_sweep_define_the_same_setting_flags(self):
        """The setting flags are defined once; each command adds only its own
        output and run options."""
        commands = build_parser()._subparsers._group_actions[0].choices

        def settings(name, own):
            return [
                (a.option_strings, a.default, a.help, a.choices)
                for a in commands[name]._actions
                if not set(a.option_strings) & own
            ]

        decode_settings = settings("decode", {"--out", "--full-stats", "--timing", "--verbose"})
        assert decode_settings == settings("sweep", {"--seeds", "--out", "--format", "--jobs", "--timing"})
        flags = {f for option_strings, *_ in decode_settings for f in option_strings}
        assert {"--alpha", "--strategy", "--prompt", "--prompt-file", "--template-file"} <= flags


class TestDecodeCommand:
    def test_deterministic_stdout(self, capsys):
        argv = [
            "decode",
            "--strategy",
            "specsample",
            "--alpha",
            "0",
            "--gamma",
            "5",
            "--seed",
            "7",
            "--prompt",
            "1 2 3",
            "--max-tokens",
            "16",
        ]
        assert main(argv) == 0
        first = capsys.readouterr().out
        assert main(argv) == 0
        second = capsys.readouterr().out
        assert first == second
        assert "output tokens:" in first
        assert "mat:" in first

    def test_stats_file_written(self, tmp_path, capsys):
        out = tmp_path / "stats.json"
        code = main(
            ["decode", "--prompt", "1 2 3", "--max-tokens", "8", "--out", str(out)]
        )
        assert code == 0
        payload = json.loads(out.read_text())
        assert payload["total_tokens"] == 8
        assert "steps" in payload

    def test_default_eta_drafts_with_the_target_base(self, capsys):
        # The tokens the former default draft (the target's base) gave.
        argv = ["decode", "--prompt", "1 2 3", "--beta", "0.5", "--seed", "7", "--max-tokens", "64"]
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert (
            "output tokens: 44 55 37 3 12 18 21 12 34 33 35 7 42 1 4 31 31 0 15 46 18 24 1 61 "
            "27 48 3 47 35 18 12 49 33 62 42 31 17 3 56 18 29 61 40 48 5 27 51 26 38 16 9 58 "
            "21 18 6 55 43 28 28 39 45 61 12 62\n"
        ) in out
        assert "mat: 5.8182" in out

    def test_vanilla_strategy(self, capsys):
        assert main(["decode", "--strategy", "vanilla", "--prompt", "1", "--max-tokens", "5"]) == 0
        assert "mat: 1.0000" in capsys.readouterr().out

    def test_missing_prompt_is_runtime_error(self, capsys):
        assert main(["decode"]) == 1
        assert "error:" in capsys.readouterr().err

    def test_ngram_without_corpus_fails(self, capsys):
        assert main(["decode", "--target-model", "ngram", "--prompt", "1"]) == 1

    def test_corpus_mode_emits_text(self, tmp_path, capsys):
        corpus = tmp_path / "corpus.txt"
        corpus.write_text(
            "the cat sat on the mat\nthe dog sat on the rug\nthe cat ran to the dog\n",
            encoding="utf-8",
        )
        code = main(
            [
                "decode",
                "--corpus",
                str(corpus),
                "--target-model",
                "ngram",
                "--prompt",
                "the cat",
                "--max-tokens",
                "6",
                "--seed",
                "3",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "output text:" in out

    @pytest.mark.parametrize("smoothing", ["nan", "inf"])
    def test_non_finite_smoothing_is_runtime_error(self, tmp_path, capsys, smoothing):
        corpus = tmp_path / "corpus.txt"
        corpus.write_text(CORPUS, encoding="utf-8")
        argv = ["decode", "--corpus", str(corpus), "--target-model", "ngram", "--prompt", "the cat"]
        assert main(argv + ["--smoothing", smoothing]) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith(f"error: smoothing must be finite and > 0, got {smoothing}")
        assert "Warning" not in captured.err and captured.out == ""

    def test_template_file(self, tmp_path, capsys):
        template = tmp_path / "probe.txt"
        template.write_text("${draft} 9 ${prefix} ${draft}\n", encoding="utf-8")
        code = main(
            [
                "decode",
                "--template-file",
                str(template),
                "--prompt",
                "1 2 3",
                "--max-tokens",
                "6",
            ]
        )
        assert code == 0

    def test_negative_beta_is_runtime_error(self, capsys):
        argv = ["decode", "--prompt", "1 2 3", "--beta", "-0.5", "--max-tokens", "8"]
        assert main(argv) == 1
        assert "beta" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "flag, message",
        [
            (["--eta", "1.5"], "eta must lie in [0, 1], got 1.5"),
            (["--eta", "-0.5"], "eta must lie in [0, 1], got -0.5"),
            (["--eos-token", "999"], "eos_token 999 outside vocabulary of size 64"),
            (["--eos-token", "-3"], "eos_token -3 outside vocabulary of size 64"),
            (["--temperature", "1e-310"], "temperature 1e-310 is too small for logits"),
            (["--temperature", "-1"], "temperature must be >= 0, got -1.0"),
            (["--beta", "1.5"], "beta must lie in [0, 1], got 1.5"),
            (["--beta", "nan"], "beta must lie in [0, 1], got nan"),
            # The default target is a table model, which never reads smoothing.
            (["--smoothing", "nan"], "smoothing must be finite and > 0, got nan"),
            (["--smoothing", "-5"], "smoothing must be finite and > 0, got -5.0"),
            # The seed seeds the table model as a signed 64-bit integer and
            # the decode's generator, which takes no negative seed.
            (["--seed", str(2**63)], f"seed must lie in [-2**63, 2**63), got {2**63}"),
            (["--seed", "99999999999999999999999"], "seed must lie in [-2**63, 2**63), got 99999999999999999999999"),
            (["--seed", "-5"], "seed must be >= 0, got -5"),
            # The marker is checked whether or not beta builds the wrapper.
            (["--marker", "999"], "marker 999 outside vocabulary of size 64"),
            (["--marker", "-3", "--beta", "0.5"], "marker -3 outside vocabulary of size 64"),
            (["--alpha", "1.5"], "alpha must lie in [0, 1], got 1.5"),
            (["--gamma", "0"], "gamma must be >= 1, got 0"),
            # A step draws its gamma + 1 uniforms as one float64 row.
            (["--gamma", str(2**60)], f"gamma must be < {LONGEST_ROW}, got {2**60}"),
            (["--gamma", str(2**63)], f"gamma must be < {LONGEST_ROW}, got {2**63}"),
            (["--max-tokens", "0"], "max_new_tokens must be >= 1, got 0"),
            # numpy holds no float64 logits row of LONGEST_ROW + 1 or more.
            (["--vocab-size", str(2**62)], f"vocab_size must be <= {LONGEST_ROW}, got {2**62}"),
            (["--vocab-size", str(2**64)], f"vocab_size must be <= {LONGEST_ROW}, got {2**64}"),
            (["--vocab-size", str(2**64 + 1)], f"vocab_size must be <= {LONGEST_ROW}, got {2**64 + 1}"),
            (["--vocab-size", str(2**64 + 1), "--beta", "0"], f"vocab_size must be <= {LONGEST_ROW}, got {2**64 + 1}"),
        ],
    )
    def test_out_of_range_setting_is_runtime_error_naming_it(self, capsys, flag, message):
        argv = ["decode", "--prompt", "1 2 3", "--max-tokens", "8"]
        assert main(argv + flag) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith(f"error: {message}")
        assert "Warning" not in captured.err and captured.out == ""

    @pytest.mark.parametrize("template", [[], ["--template-inline", "${draft}"]])
    def test_negative_prefix_len_is_runtime_error(self, capsys, template):
        argv = ["decode", "--prompt", "1 2 3", "--prefix-len", "-1", "--max-tokens", "4"]
        assert main(argv + template) == 1
        assert "prefix_len must be >= 0" in capsys.readouterr().err

    @pytest.mark.parametrize("strategy", ["exact", "specsample", "typical", "vanilla"])
    @pytest.mark.parametrize("flag", [["--epsilon", "5"], ["--delta", "0"]])
    def test_out_of_range_epsilon_delta_fail_every_strategy(self, capsys, strategy, flag):
        argv = ["decode", "--prompt", "1 2 3", "--strategy", strategy, "--max-tokens", "4"]
        assert main(argv + flag) == 1
        assert f"error: {flag[0][2:]} must lie in (0, 1]" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "extra, flag",
        [
            (["--prompt", "1", "--alpha", "0.3,0.5"], "--alpha"),
            (["--prompt", "1", "--gamma", "3,5"], "--gamma"),
            (["--prompt", "1", "--strategy", "exact,typical"], "--strategy"),
            (["--prompt", "1", "--eta", "0,1"], "--eta"),
            (["--prompt", "1", "--prompt", "2"], "--prompt"),
            (["--prompt-file", "TWO_LINES"], "--prompt-file"),
            (["--prompt", "1", "--template-inline", "${draft}", "--template-inline", "${draft} 9 ${draft}"],
             "--template-inline"),
            (["--prompt", "1", "--template-inline", "${draft}", "--template-file", "TEMPLATE"],
             "--template-file"),
        ],
    )
    def test_second_setting_value_is_runtime_error_naming_it(self, tmp_path, capsys, extra, flag):
        (tmp_path / "prompts.txt").write_text("1 2\n3 4\n", encoding="utf-8")
        (tmp_path / "probe.txt").write_text("${draft} 9 ${prefix} ${draft}\n", encoding="utf-8")
        paths = {"TWO_LINES": str(tmp_path / "prompts.txt"), "TEMPLATE": str(tmp_path / "probe.txt")}
        argv = ["decode", "--max-tokens", "4"] + [paths.get(a, a) for a in extra]
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("error: decode takes one value of")
        assert flag in captured.err and captured.out == ""

    def test_timing_flag_adds_wall_time(self, capsys):
        argv = ["decode", "--prompt", "1 2", "--max-tokens", "4"]
        main(argv)
        assert "wall time" not in capsys.readouterr().out
        main(argv + ["--timing"])
        assert "wall time" in capsys.readouterr().out

    def test_timing_covers_the_whole_decode_call(self, monkeypatch, capsys):
        def slow_decode(*args, real=cli.decode):
            time.sleep(0.05)  # inside the decode call, outside every step
            return real(*args)

        monkeypatch.setattr(cli, "decode", slow_decode)
        assert main(["decode", "--prompt", "1 2", "--max-tokens", "4", "--timing"]) == 0
        [line] = [ln for ln in capsys.readouterr().out.splitlines() if ln.startswith("wall time:")]
        assert float(line.split()[2].rstrip("s")) >= 0.05


class TestSweepCommand:
    def test_sweep_writes_report(self, tmp_path, capsys):
        out = tmp_path / "report.csv"
        code = main(
            [
                "sweep",
                "--prompt",
                "1 2 3",
                "--prompt",
                "4 5 6",
                "--alpha",
                "0,0.3",
                "--beta",
                "0.5",
                "--eta",
                "0.4",
                "--max-tokens",
                "8",
                "--out",
                str(out),
            ]
        )
        assert code == 0
        rows = read_report(out, "csv")
        assert len(rows) == 2
        assert {r["alpha"] for r in rows} == {0.0, 0.3}

    def test_sweep_json_matches_csv_content(self, tmp_path):
        common = [
            "sweep",
            "--prompt",
            "1 2 3",
            "--max-tokens",
            "8",
            "--seeds",
            "0,1",
        ]
        csv_path = tmp_path / "r.csv"
        json_path = tmp_path / "r.json"
        assert main(common + ["--out", str(csv_path)]) == 0
        assert main(common + ["--format", "json", "--out", str(json_path)]) == 0
        assert read_report(csv_path, "csv") == read_report(json_path, "json")

    def test_eta_grid_endpoints_differ(self, tmp_path):
        out = tmp_path / "report.csv"
        assert main(["sweep", "--prompt", "1 2 3", "--eta", "0,1", "--out", str(out)]) == 0
        rows = read_report(out, "csv")
        assert [r["eta"] for r in rows] == [0.0, 1.0]
        assert rows[0]["mat"] > rows[1]["mat"]

    def test_grids_skip_empty_items(self, tmp_path):
        out = tmp_path / "report.csv"
        grids = ["--alpha", "0.3,", "--gamma", "5,", "--eta", ",0.4", "--seeds", "0,"]
        argv = ["sweep", "--prompt", "1 2 3", "--max-tokens", "4", "--out", str(out)] + grids
        assert main(argv + ["--strategy", "exact,"]) == 0
        assert len(read_report(out, "csv")) == 1

    @pytest.mark.parametrize("jobs", ["0", "-2"])
    def test_jobs_below_one_is_usage_error(self, tmp_path, capsys, monkeypatch, jobs):
        started = []
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", recording_pool(started))
        out = tmp_path / "report.csv"
        argv = ["sweep", "--prompt", "1 2 3", "--alpha", "0,0.3", "--max-tokens", "4"]
        assert main(argv + ["--jobs", jobs, "--out", str(out)]) == 2
        assert f"error: argument --jobs: must be >= 1, got {jobs}" in capsys.readouterr().err
        assert started == [] and not out.exists()

    @pytest.mark.parametrize("jobs", ["1", "2"])
    def test_negative_beta_fails_every_cell(self, tmp_path, capsys, jobs):
        out = tmp_path / "report.csv"
        argv = ["sweep", "--prompt", "1 2 3", "--alpha", "0,0.3", "--beta", "-0.5"]
        assert main(argv + ["--max-tokens", "4", "--jobs", jobs, "--out", str(out)]) == 0
        rows = read_report(out, "csv")
        assert len(rows) == 2
        assert all(r["error"].startswith("InvalidConfigError: beta") for r in rows)

    @pytest.mark.parametrize("jobs", ["1", "2"])
    @pytest.mark.parametrize(
        "flag, message",
        [
            (["--eta", "1.5"], "eta must lie in [0, 1], got 1.5"),
            (["--eos-token", "999"], "eos_token 999 outside vocabulary of size 64"),
            (["--temperature", "1e-310"], "temperature 1e-310 is too small for logits"),
            (["--temperature", "-1"], "temperature must be >= 0, got -1.0"),
            (["--beta", "1.5"], "beta must lie in [0, 1], got 1.5"),
            (["--beta", "nan"], "beta must lie in [0, 1], got nan"),
            (["--smoothing", "nan"], "smoothing must be finite and > 0, got nan"),
            (["--smoothing", "-5"], "smoothing must be finite and > 0, got -5.0"),
            (["--seed", "99999999999999999999999"], "seed must lie in [-2**63, 2**63), got 99999999999999999999999"),
            (["--marker", "999"], "marker 999 outside vocabulary of size 64"),
            (["--alpha", "1.5"], "alpha must lie in [0, 1], got 1.5"),
            (["--gamma", "0"], "gamma must be >= 1, got 0"),
            (["--gamma", str(2**60)], f"gamma must be < {LONGEST_ROW}, got {2**60}"),
            (["--gamma", str(2**63)], f"gamma must be < {LONGEST_ROW}, got {2**63}"),
            (["--max-tokens", "0"], "max_new_tokens must be >= 1, got 0"),
            (["--vocab-size", str(2**64)], f"vocab_size must be <= {LONGEST_ROW}, got {2**64}"),
            (["--vocab-size", str(2**64 + 1)], f"vocab_size must be <= {LONGEST_ROW}, got {2**64 + 1}"),
        ],
    )
    def test_out_of_range_setting_fails_every_cell(self, tmp_path, jobs, flag, message):
        out = tmp_path / "report.csv"
        # The four cells come from the seed and strategy grids, which no flag
        # under test sets, and the flag comes last, so it overrides a default.
        argv = ["sweep", "--prompt", "1 2 3", "--seeds", "0,1", "--strategy", "exact,vanilla"]
        assert main(argv + ["--max-tokens", "4", "--jobs", jobs, "--out", str(out)] + flag) == 0
        rows = read_report(out, "csv")
        assert len(rows) == 4
        assert all(r["error"].startswith(f"InvalidConfigError: {message}") for r in rows)

    @pytest.mark.parametrize("command", ["decode", "sweep 1", "sweep 2"])
    def test_memory_error_ends_in_one_error_line(self, tmp_path, capsys, monkeypatch, command):
        # A MemoryError stops the whole sweep: it lands in no cell's row, and
        # no report is written. Nothing is allocated for real.
        def out_of_memory(self, window):
            raise MemoryError

        monkeypatch.setattr(models.TableModel, "window_logits", out_of_memory)
        out = tmp_path / "out.json"
        argv = ["--prompt", "1 2 3", "--max-tokens", "4", "--out", str(out)]
        if command != "decode":
            argv += ["--alpha", "0,0.3", "--jobs", command.split()[1]]
        assert main(command.split()[:1] + argv) == 1
        captured = capsys.readouterr()
        assert captured.err == "error: MemoryError\n" and captured.out == ""
        assert not out.exists()

    @pytest.mark.parametrize("command", ["decode", "sweep 1", "sweep 2"])
    def test_a_fault_escapes_main(self, tmp_path, capsys, monkeypatch, command):
        # A broken invariant is no caller's error: no handler prints it as
        # an ``error:`` line or records it in a cell's row.
        def broken(*args):
            raise InternalConsistencyError("bookkeeping broke")

        monkeypatch.setattr(cli, "decode", broken)
        monkeypatch.setattr(bench, "decode", broken)
        out = tmp_path / "out.json"
        argv = ["--prompt", "1 2 3", "--max-tokens", "4", "--out", str(out)]
        if command != "decode":
            argv += ["--alpha", "0,0.3", "--jobs", command.split()[1]]
        with pytest.raises(InternalConsistencyError, match="bookkeeping broke"):
            main(command.split()[:1] + argv)
        assert capsys.readouterr().err == ""
        assert not out.exists()

    @pytest.mark.parametrize("jobs", ["1", "2"])
    def test_negative_seed_runs_every_cell(self, tmp_path, jobs):
        # Cells seed their decodes from streams derived from the seed, which
        # are never negative; the table model takes a negative seed.
        out = tmp_path / "report.csv"
        argv = ["sweep", "--prompt", "1 2 3", "--alpha", "0,0.3", "--seed", "-5"]
        assert main(argv + ["--max-tokens", "4", "--jobs", jobs, "--out", str(out)]) == 0
        rows = read_report(out, "csv")
        assert len(rows) == 2
        assert all(not r["error"] and r["output_tokens"] == 4 for r in rows)

    @pytest.mark.parametrize("jobs", ["1", "2"])
    def test_out_of_range_delta_fails_every_cell(self, tmp_path, jobs):
        out = tmp_path / "report.csv"
        argv = ["sweep", "--prompt", "1 2 3", "--strategy", "exact,specsample,typical", "--delta", "0"]
        assert main(argv + ["--max-tokens", "4", "--jobs", jobs, "--out", str(out)]) == 0
        rows = read_report(out, "csv")
        assert len(rows) == 3
        assert all(r["error"].startswith("InvalidConfigError: delta") for r in rows)

    @pytest.mark.parametrize("jobs", ["1", "2"])
    @pytest.mark.parametrize("smoothing", ["nan", "inf"])
    def test_non_finite_smoothing_fails_every_cell(self, tmp_path, capsys, jobs, smoothing):
        corpus = tmp_path / "corpus.txt"
        corpus.write_text(CORPUS, encoding="utf-8")
        out = tmp_path / "report.csv"
        argv = ["sweep", "--corpus", str(corpus), "--target-model", "ngram", "--prompt", "the cat"]
        argv += ["--alpha", "0,0.3", "--smoothing", smoothing, "--max-tokens", "4"]
        assert main(argv + ["--jobs", jobs, "--out", str(out)]) == 0
        assert "Warning" not in capsys.readouterr().err
        rows = read_report(out, "csv")
        assert len(rows) == 2
        message = f"InvalidConfigError: smoothing must be finite and > 0, got {smoothing}"
        assert all(r["error"] == message for r in rows)

    def test_match_mode_reaches_sweep_cells(self, tmp_path):
        def report(mode, temperature):
            out = tmp_path / f"{mode}-{temperature}.csv"
            argv = ["sweep", "--prompt", "1 2 3", "--strategy", "exact", "--seeds", "0,1"]
            argv += ["--max-tokens", "32", "--match-mode", mode, "--temperature", temperature]
            assert main(argv + ["--out", str(out)]) == 0
            return out.read_text()

        assert report("greedy", "0.8") != report("sample", "0.8")
        # At temperature 0 every distribution is one-hot: a draw is the argmax.
        assert report("greedy", "0") == report("sample", "0")

    @pytest.mark.parametrize("template", [[], ["--template-inline", "${draft}"]])
    def test_negative_prefix_len_is_runtime_error(self, tmp_path, capsys, template):
        out = tmp_path / "report.csv"
        argv = ["sweep", "--prompt", "1 2 3", "--prefix-len", "-1", "--out", str(out)]
        assert main(argv + ["--max-tokens", "4"] + template) == 1
        assert "prefix_len must be >= 0" in capsys.readouterr().err
        assert not out.exists()

    def test_sweep_requires_out(self, capsys):
        assert main(["sweep", "--prompt", "1"]) == 2

    def test_sweep_without_prompts_fails(self, tmp_path):
        assert main(["sweep", "--out", str(tmp_path / "r.csv")]) == 1

    def test_unwritable_out_is_runtime_error(self, tmp_path, capsys):
        out = tmp_path / "missing-dir" / "r.csv"
        code = main(["sweep", "--prompt", "1 2", "--max-tokens", "4", "--out", str(out)])
        assert code == 1
        assert "error:" in capsys.readouterr().err


CORPUS = "the cat sat on the mat\nthe dog sat on the rug\nthe cat ran to the dog\n"


class TestOnePair:
    """``decode`` and ``sweep`` run on the same (target, draft) pair and the
    same ``DecodeConfig``."""

    @staticmethod
    def run_both(monkeypatch, tmp_path, flags):
        """Run ``decode`` and ``sweep`` on ``flags``; return the pair and the
        config each passed to the engine's ``decode`` (a sweep's last)."""
        pairs, configs = {}, {}
        for name, module in (("decode", cli), ("sweep", bench)):
            def capture(target, draft, prompt, config, name=name, real=module.decode):
                pairs[name] = (target, draft)
                configs[name] = config
                return real(target, draft, prompt, config)

            monkeypatch.setattr(module, "decode", capture)
        assert main(["decode"] + flags) == 0
        assert main(["sweep", "--out", str(tmp_path / "r.csv")] + flags) == 0
        return pairs, configs

    @pytest.mark.parametrize("target_model", ["table", "ngram"])
    @pytest.mark.parametrize("beta", ["0", "0.5"])
    @pytest.mark.parametrize("eta", ["0", "0.4", "1"])
    def test_decode_and_sweep_pairs_agree(self, monkeypatch, tmp_path, capsys, target_model, beta, eta):
        flags = ["--target-model", target_model, "--beta", beta, "--eta", eta, "--seed", "3"]
        prompt = "1 2 3"
        if target_model == "ngram":
            corpus = tmp_path / "corpus.txt"
            corpus.write_text(CORPUS, encoding="utf-8")
            flags += ["--corpus", str(corpus)]
            prompt = "the cat"
        flags += ["--prompt", prompt, "--max-tokens", "4"]
        pairs, _ = self.run_both(monkeypatch, tmp_path, flags)
        vocab = pairs["decode"][0].vocab_size
        marker = getattr(pairs["decode"][0], "marker", vocab - 1)
        rng = np.random.default_rng(0)
        for _ in range(40):
            pre = [int(t) for t in rng.integers(0, vocab, size=int(rng.integers(1, 10)))]
            # A planted marker and tail, so the reflection wrapper copies.
            for ctx in (pre, pre + [marker] + pre[-2:]):
                for got, want in zip(pairs["decode"], pairs["sweep"]):
                    assert np.array_equal(got.next_logits(ctx), want.next_logits(ctx))

    @pytest.mark.parametrize("strategy", ["exact", "specsample", "typical", "vanilla"])
    @pytest.mark.parametrize("template", [[], ["--template-inline", "${draft}"]])
    @pytest.mark.parametrize(
        "setting",
        [
            ["--prefix-len", "4"],
            ["--prefix-len", "0"],
            ["--match-mode", "greedy"],
            ["--entropy-source", "fused"],
            ["--temperature", "0"],
            ["--eos-token", "5"],
            ["--epsilon", "0.5", "--delta", "0.7"],
            ["--alpha", "0.6", "--gamma", "3", "--eta", "0.4", "--beta", "0.5"],
        ],
    )
    def test_decode_and_sweep_configs_agree(self, monkeypatch, tmp_path, strategy, template, setting):
        flags = ["--prompt", "1 2 3", "--max-tokens", "4", "--strategy", strategy]
        _, configs = self.run_both(monkeypatch, tmp_path, flags + template + setting)
        # A decode runs on --seed itself, a sweep cell on a seed derived from it.
        assert replace(configs["decode"], seed=0) == replace(configs["sweep"], seed=0)


def biased_residual(p, q, real=verification.residual_distribution):
    """The residual with a tenth of its mass moved to the uniform law."""
    return 0.9 * real(p, q) + 0.1 / p.size


class TestSelftest:
    def test_selftest_passes_on_clean_build(self, capsys):
        assert main(["selftest"]) == 0
        out = capsys.readouterr().out
        assert out.count("[PASS]") == 4
        assert "[PASS] decode-law: " in out
        assert "[FAIL]" not in out

    def test_decode_law_check_passes_within_time_bound(self):
        start = time.perf_counter()
        result = check_decode_law()
        assert time.perf_counter() - start < 5.0
        assert result.passed is True, result.detail

    def test_decode_law_check_fails_on_biased_residual(self, monkeypatch):
        # The check enumerates with the very kernel the verifier runs.
        assert selftest.residual_distribution is verification.residual_distribution
        monkeypatch.setattr(selftest, "residual_distribution", biased_residual)
        result = check_decode_law()
        assert result.passed is False, result.detail

    def test_a_raising_check_fails_by_name_and_the_rest_run(self, monkeypatch, capsys):
        # The residual with its np.maximum dropped: p - q has no mass.
        def unclipped_residual(p, q):
            residual = p - q
            mass = float(residual.sum())
            if mass < 1e-12:
                raise DegenerateResidualError("residual distribution has no mass")
            return residual / mass

        monkeypatch.setattr(selftest, "residual_distribution", unclipped_residual)
        assert main(["selftest"]) == 1
        captured = capsys.readouterr()
        lines = captured.out.splitlines()
        assert [line.split(":")[0] for line in lines] == [
            "[PASS] unbiasedness",
            "[FAIL] residual",
            "[PASS] typical-thresholds",
            "[FAIL] decode-law",
        ]
        raised = ": raised DegenerateResidualError: residual distribution has no mass"
        assert lines[1] == "[FAIL] residual" + raised
        assert lines[3] == "[FAIL] decode-law" + raised
        assert captured.err == ""

    def test_an_internal_consistency_error_propagates(self, monkeypatch):
        def broken(dist, epsilon, delta):
            raise InternalConsistencyError("bookkeeping broke")

        monkeypatch.setattr(selftest, "typical_threshold", broken)
        with pytest.raises(InternalConsistencyError, match="bookkeeping broke"):
            selftest.run_all()
        with pytest.raises(InternalConsistencyError, match="bookkeeping broke"):
            main(["selftest"])

    def test_failing_check_exits_one_and_prints_fail(self, monkeypatch, capsys):
        monkeypatch.setattr(selftest, "residual_distribution", biased_residual)
        assert main(["selftest"]) == 1
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 4
        assert any(line.startswith("[FAIL] decode-law: ") for line in lines)


# Values each setting flag draws in the decode contract test: small valid
# values, bounds, 0, -1, NaN, the infinities, empty, non-numeric, 2**63 and
# 2**64 +- 1. A value that would make a decode do work that grows with it
# (a vocabulary, draft length or token budget of 2**12 or more) is left out,
# unless it is refused before any work. ``@corpus``, ``@template``,
# ``@prompts``, ``@empty`` and ``@missing`` name files of the test.
HUGE = [str(2**63), str(2**64 - 1), str(2**64), str(2**64 + 1)]
BAD = ["0", "-1", "", "x"]
FLOATS = ["0.3", "0.5", "1", "1.5", "1e-310", "nan", "inf", "-inf"] + BAD + HUGE
FILES = ["@empty", "@missing"]
SETTING_VALUES = {
    "--target-model": ["table", "ngram", "bogus", ""],
    "--vocab-size": ["2", "3", "64", "4095", "1"] + BAD + HUGE,
    "--seed": ["1", "7", str(2**63 - 1), str(-(2**63))] + BAD + HUGE,
    "--order": ["1", "2", "3"] + BAD + HUGE,
    "--smoothing": FLOATS,
    "--beta": FLOATS,
    "--marker": ["1", "2", "63", "4095"] + BAD + HUGE,
    "--corpus": ["@corpus"] + FILES,
    "--alpha": ["0,0.3", ","] + FLOATS,
    "--gamma": ["1", "2", "5", "1,2"] + BAD + HUGE,
    "--strategy": ["exact", "specsample", "typical", "vanilla", "exact,vanilla", "bogus", ""],
    "--eta": ["0,1", ","] + FLOATS,
    "--template-inline": [
        "${draft} [BACK] ${prefix} ${draft}",
        "${draft} ${prefix} ${draft}",
        "${draft} 1 x ${prefix} ${draft}",
        "${draft}",
        "${prefix}",
        "x",
        "",
    ],
    "--template-file": ["@template"] + FILES,
    "--prompt": ["1 2 3", "0", "the cat", "63", "4095", "-1", str(2**64), "x", ""],
    "--prompt-file": ["@prompts"] + FILES,
    "--temperature": FLOATS,
    "--epsilon": FLOATS,
    "--delta": FLOATS,
    "--prefix-len": ["1", "4"] + BAD + HUGE,
    "--max-tokens": ["1", "4", "16"] + BAD,
    "--eos-token": ["1", "2", "63", "4095"] + BAD + HUGE,
    "--entropy-source": ["original", "fused", "bogus", ""],
    "--match-mode": ["sample", "greedy", "bogus", ""],
}


@st.composite
def decode_argv(draw, files):
    """A ``decode`` argv in int mode or in corpus mode (a tiny corpus file),
    mostly with a prompt, and up to six drawn ``--flag=value`` settings."""
    argv = ["decode"]
    if draw(st.booleans()):
        argv.append(f"--corpus={files['@corpus']}")
    if draw(st.integers(0, 9)):
        argv.append(f"--prompt={draw(st.sampled_from(['1 2 3', 'the cat', '2']))}")
    setting = st.sampled_from(sorted(SETTING_VALUES)).flatmap(
        lambda flag: st.sampled_from(SETTING_VALUES[flag]).map(
            lambda value: f"{flag}={files.get(value, value)}"
        )
    )
    return argv + draw(st.lists(setting, max_size=6))


class TestDecodeContract:
    """Every decode argv ends in one of three ways: exit 0 with its output
    tokens, exit 1 with one ``error:`` line, or exit 2 from argparse."""

    @pytest.fixture(scope="class")
    def files(self, tmp_path_factory):
        root = tmp_path_factory.mktemp("decode-contract")
        texts = {
            "@corpus": "the cat sat down\nthe dog ran\n",
            "@template": "${draft} [BACK] ${prefix} ${draft}\n",
            "@prompts": "the cat\n",
            "@empty": "",
        }
        files = {"@missing": root / "missing.txt"}
        for name, text in texts.items():
            files[name] = root / f"{name[1:]}.txt"
            files[name].write_text(text, encoding="utf-8")
        return files

    def test_every_setting_flag_draws_values(self):
        parser = argparse.ArgumentParser(add_help=False)
        cli._add_setting_args(parser)
        assert set(SETTING_VALUES) == {f for a in parser._actions for f in a.option_strings}

    @settings(max_examples=400, deadline=None)
    @given(data=st.data())
    def test_decode_ends_in_one_of_three_outcomes(self, files, data):
        argv = data.draw(decode_argv(files))
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
        out, err = out.getvalue(), err.getvalue()
        if code == 0:
            assert err == "" and "\noutput tokens: " in "\n" + out
        elif code == 1:
            assert out == "" and err.startswith("error: ") and err.count("\n") == 1, err
        else:
            assert code == 2 and "usage: " in err and "decode: error: argument" in err, err
