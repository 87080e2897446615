"""End-to-end tests for the command-line interface."""

import csv
import json
import math
import os
import shutil
import subprocess
import time

import numpy as np
import pytest

from lrdcp import _parallel, cli
from lrdcp.cli import main, read_series
from lrdcp.limitdist import CriticalValueTable
from lrdcp.montecarlo import CSV_COLUMNS, ExperimentSpec, run_experiments


@pytest.fixture(scope="module")
def cv_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("cv") / "table.json"
    code = main(
        [
            "critical-values", "--hurst", "0.7", "--grid", "100",
            "--reps", "200", "--seed", "3", "--out", str(path),
        ]
    )
    assert code == 0
    return path


@pytest.fixture(scope="module")
def data_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("data") / "series.txt"
    code = main(
        [
            "generate-fgn", "--hurst", "0.7", "--length", "300",
            "--seed", "5", "--out", str(path),
        ]
    )
    assert code == 0
    return path


class TestReadSeries:
    def test_comments_and_blanks_skipped(self, tmp_path):
        path = tmp_path / "in.txt"
        path.write_text("# header\n1.5\n\n  2.5\n# trailing\n3.5\n-4.5\n")
        series = read_series(path)
        assert np.array_equal(series.values, [1.5, 2.5, 3.5, -4.5])

    def test_parse_error_names_line(self, tmp_path):
        path = tmp_path / "in.txt"
        path.write_text("1.0\n2.0\nabc\n4.0\n")
        with pytest.raises(ValueError, match="line 3"):
            read_series(path)

    def test_non_finite_rejected_with_line(self, tmp_path):
        path = tmp_path / "in.txt"
        path.write_text("1.0\nnan\n3.0\n4.0\n")
        with pytest.raises(ValueError, match="line 2"):
            read_series(path)
        path.write_text("1.0\n2.0\n3.0\ninf\n")
        with pytest.raises(ValueError, match="line 4"):
            read_series(path)
        path.write_text("1.0\n2.0\nnan\n4.0\n")
        with pytest.raises(ValueError, match="non-finite value at line 3"):
            read_series(path)

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "in.txt"
        for text in ("# only a comment\n", "", "\n\n"):
            path.write_text(text)
            with pytest.raises(ValueError, match="no data"):
                read_series(path)

    @staticmethod
    def _file(tmp_path, text):
        path = tmp_path / "in.txt"
        path.write_text(text, newline="")  # line endings written as given
        return path

    @staticmethod
    def _error(path):
        with pytest.raises(ValueError) as excinfo:
            read_series(path)
        return str(excinfo.value)

    def test_crlf_and_lone_cr_line_endings(self, tmp_path):
        for text in ("1.5\r\n2.5\r\n# c\r\n3.5\r\n-4.5\r\n",
                     "1.5\r2.5\r# c\r3.5\r-4.5\r"):
            path = self._file(tmp_path, text)
            assert read_series(path).values.tolist() == [1.5, 2.5, 3.5, -4.5]
        for text in ("1\r\n2\r\nabc\r\n4\r\n", "1\r2\rabc\r4\r"):
            path = self._file(tmp_path, text)
            assert self._error(path) == f"parse error at line 3 of {path}: 'abc'"

    def test_unicode_whitespace_around_value(self, tmp_path):
        path = self._file(
            tmp_path, "\t1.5\t\n\u00a02.5\u00a0\n\u30003.5\u3000\n \t4.5 \n"
        )
        assert read_series(path).values.tolist() == [1.5, 2.5, 3.5, 4.5]

    def test_indented_comment_skipped(self, tmp_path):
        path = self._file(tmp_path, "1.5\n   # note\n\t# tab\n2.5\n3.5\n4.5\n")
        assert read_series(path).values.tolist() == [1.5, 2.5, 3.5, 4.5]

    def test_inline_comment_is_parse_error(self, tmp_path):
        path = self._file(tmp_path, "1.0\n2.0\n1.5 # note\n4.0\n")
        assert self._error(path) == (
            f"parse error at line 3 of {path}: '1.5 # note'"
        )

    def test_float_syntax_kept(self, tmp_path):
        path = self._file(tmp_path, "1_000\n+1e3\n-0.0\n2.5\n")
        values = read_series(path).values
        assert values.tolist() == [1000.0, 1000.0, 0.0, 2.5]
        assert np.signbit(values[2])

    def test_values_keep_every_bit(self, tmp_path):
        expected = np.random.default_rng(4).standard_normal(500) * 1e3
        text = "".join(f"{x!r}\n" for x in expected.tolist())
        assert read_series(self._file(tmp_path, text)).values.tobytes() == (
            expected.tobytes()
        )

    @pytest.mark.parametrize("token", ["Infinity", "-inf", "nan"])
    def test_spelled_non_finite_rejected_at_line(self, token, tmp_path):
        path = self._file(tmp_path, f"1.0\n# c\n{token}\n4.0\n5.0\n")
        assert self._error(path) == (
            f"non-finite value at line 3 of {path}: {token!r}"
        )

    def test_first_offending_line_wins(self, tmp_path):
        path = self._file(tmp_path, "# head\n1.0\n\ninf\nabc\n2.0\n")
        assert self._error(path) == f"non-finite value at line 4 of {path}: 'inf'"
        path = self._file(tmp_path, "# head\n1.0\n\nabc\nnan\n2.0\n")
        assert self._error(path) == f"parse error at line 4 of {path}: 'abc'"
        # a blank line must not hide a two-value line
        path = self._file(tmp_path, "1.5 2.5\n\n3.5\n4.5\n")
        assert self._error(path) == (
            f"parse error at line 1 of {path}: '1.5 2.5'"
        )

    @pytest.mark.parametrize("tail", ["", "\n", "# end\n", "\n# end\n"])
    def test_one_parse_pass_whatever_the_tail(self, tail, monkeypatch,
                                              tmp_path):
        # a trailing blank or comment line sends the file to the per-line
        # path at once, not after a float pass over every line before it
        calls = []
        parse = cli._parse

        def counting(lines):
            calls.append(len(lines))
            return parse(lines)

        monkeypatch.setattr(cli, "_parse", counting)
        path = self._file(tmp_path, "1.5\n2.5\n3.5\n4.5\n" + tail)
        assert read_series(path).values.tolist() == [1.5, 2.5, 3.5, 4.5]
        assert calls == [4]

    def test_last_line_without_newline(self, tmp_path):
        path = self._file(tmp_path, "1.5\n2.5\n3.5\n4.5")
        assert read_series(path).values.tolist() == [1.5, 2.5, 3.5, 4.5]

    @pytest.mark.parametrize("separator", ["\u2028", "\x0c"])
    def test_unicode_line_breaks_stay_in_line(self, separator, tmp_path):
        line = f"1.5{separator}2.5"
        path = self._file(tmp_path, f"1.0\n2.0\n{line}\n4.0\n5.0\n")
        assert self._error(path) == f"parse error at line 3 of {path}: {line!r}"

    def test_pipe_input_reports_line(self):
        read_end, write_end = os.pipe()
        try:
            os.write(write_end, b"1.0\n2.0\n3.0\nabc\n5.0\n")
            os.close(write_end)
            path = f"/dev/fd/{read_end}"
            assert self._error(path) == f"parse error at line 4 of {path}: 'abc'"
        finally:
            os.close(read_end)

    def test_parsing_scales_linearly(self, tmp_path):
        # ten times the lines must cost well under fifteen times the CPU
        # time; process time, so another process on the host does not count
        def write(path, count):
            with open(path, "w") as handle:
                handle.writelines(f"{i % 7}.25\n" for i in range(count))

        small = tmp_path / "small.txt"
        big = tmp_path / "big.txt"
        write(small, 100_000)
        write(big, 1_000_000)

        def clock(path, expected):
            start = time.process_time()
            series = read_series(path)
            elapsed = time.process_time() - start
            assert series.n == expected
            return elapsed

        # the sizes alternate, so a slow phase of the host hits both
        small_best = big_best = float("inf")
        for _ in range(3):
            small_best = min(small_best, clock(small, 100_000))
            big_best = min(big_best, clock(big, 1_000_000))
        assert big_best / small_best < 15.0


class TestGenerateFgn:
    def test_writes_requested_length(self, data_file, capsys):
        values = np.loadtxt(data_file)
        assert values.shape == (300,)

    def test_reports_given_seed(self, tmp_path, capsys):
        code = main(
            [
                "generate-fgn", "--hurst", "0.6", "--length", "64",
                "--seed", "9", "--out", str(tmp_path / "x.txt"),
            ]
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["seed"] == 9
        assert payload["hurst"] == 0.6

    def test_draws_and_records_seed_when_omitted(self, tmp_path, capsys):
        seeds = []
        for name in ("a.txt", "b.txt"):
            code = main(
                [
                    "generate-fgn", "--hurst", "0.6", "--length", "16",
                    "--out", str(tmp_path / name),
                ]
            )
            assert code == 0
            seeds.append(json.loads(capsys.readouterr().out)["seed"])
        assert all(isinstance(seed, int) for seed in seeds)
        assert seeds[0] != seeds[1]

    def test_same_seed_same_file(self, tmp_path):
        paths = [tmp_path / "a.txt", tmp_path / "b.txt"]
        for path in paths:
            main(
                [
                    "generate-fgn", "--hurst", "0.8", "--length", "128",
                    "--seed", "4", "--out", str(path),
                ]
            )
        assert paths[0].read_bytes() == paths[1].read_bytes()

    def test_rejects_bad_hurst(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(
                [
                    "generate-fgn", "--hurst", "1.5", "--length", "16",
                    "--out", str(tmp_path / "x.txt"),
                ]
            )
        assert excinfo.value.code == 2
        last = capsys.readouterr().err.splitlines()[-1]
        assert last.startswith("lrdcp: error:")
        assert "hurst must lie in (0, 1)" in last


class TestTestCommand:
    def test_round_trip_with_cv_file(self, data_file, cv_file, capsys):
        code = main(
            [
                "test", "--input", str(data_file), "--hurst", "0.7",
                "--cv", str(cv_file),
            ]
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["n"] == 300
        assert payload["statistic"] > 0.0
        assert isinstance(payload["reject"], bool)
        assert payload["cv_source"] == "file"
        assert "cv_seed" not in payload

    def test_hurst_required_and_bounded(self, data_file, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["test", "--input", str(data_file)])
        assert excinfo.value.code == 2
        assert "hurst" in capsys.readouterr().err
        with pytest.raises(SystemExit) as excinfo:
            main(["test", "--input", str(data_file), "--hurst", "1.5"])
        assert excinfo.value.code == 2
        assert "(0.5, 1)" in capsys.readouterr().err

    def test_missing_input_is_runtime_error(self, cv_file, capsys):
        code = main(
            [
                "test", "--input", "/nonexistent/series.txt", "--hurst", "0.7",
                "--cv", str(cv_file),
            ]
        )
        assert code == 1
        assert capsys.readouterr().err.startswith("error:")

    def test_window_mismatch_with_table(self, data_file, cv_file, capsys):
        code = main(
            [
                "test", "--input", str(data_file), "--hurst", "0.7",
                "--cv", str(cv_file), "--tau1", "0.2",
            ]
        )
        assert code == 1
        assert "window" in capsys.readouterr().err

    def test_tie_warning_on_stderr(self, tmp_path, cv_file, capsys):
        path = tmp_path / "tied.txt"
        rng = np.random.default_rng(0)
        np.savetxt(path, rng.integers(0, 4, size=200).astype(float))
        code = main(
            ["test", "--input", str(path), "--hurst", "0.7", "--cv", str(cv_file)]
        )
        assert code == 0
        captured = capsys.readouterr()
        assert "midranks" in captured.err
        assert json.loads(captured.out)["tie_warning"] is True

    def test_missing_level_is_one_unquoted_line(self, data_file, cv_file,
                                                capsys):
        code = main(
            [
                "test", "--input", str(data_file), "--hurst", "0.7",
                "--level", "0.025", "--cv", str(cv_file),
            ]
        )
        assert code == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "error: missing critical value for level 0.025; "
            "table holds [0.01, 0.05, 0.1]\n"
        )

    def test_too_short_series_fails_before_simulating(self, tmp_path,
                                                      monkeypatch, capsys):
        calls = []
        monkeypatch.setattr(cli, "critical_values",
                            lambda *args: calls.append(args))
        path = tmp_path / "short.txt"
        path.write_text("1.0\n2.0\n3.0\n4.0\n5.0\n6.0\n")
        code = main(
            ["test", "--input", str(path), "--hurst", "0.7", "--seed", "1"]
        )
        assert code == 1
        assert calls == []
        assert capsys.readouterr().err == (
            "error: window (0.15, 0.85) is too narrow for n=6: admissible "
            "splits [0, 5] must lie in [1, 5]\n"
        )

    def test_verdict_written_to_file(self, data_file, cv_file, tmp_path):
        out = tmp_path / "verdict.json"
        code = main(
            [
                "test", "--input", str(data_file), "--hurst", "0.7",
                "--cv", str(cv_file), "--out", str(out),
            ]
        )
        assert code == 0
        assert "statistic" in json.loads(out.read_text())


class TestCriticalValuesCommand:
    def test_deterministic_output_files(self, tmp_path):
        paths = [tmp_path / "a.json", tmp_path / "b.json"]
        for path in paths:
            code = main(
                [
                    "critical-values", "--hurst", "0.8", "--grid", "100",
                    "--reps", "150", "--seed", "21", "--out", str(path),
                ]
            )
            assert code == 0
        assert paths[0].read_bytes() == paths[1].read_bytes()

    def test_table_schema(self, cv_file):
        payload = json.loads(cv_file.read_text())
        assert payload["hurst"] == 0.7
        assert payload["grid"] == 100
        assert payload["reps"] == 200
        assert payload["seed"] == 3
        assert set(payload["quantiles"]) == {"0.1", "0.05", "0.01"}

    def test_custom_levels(self, tmp_path, capsys):
        code = main(
            [
                "critical-values", "--hurst", "0.7", "--grid", "100",
                "--reps", "150", "--seed", "2", "--levels", "0.2,0.02",
            ]
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert set(payload["quantiles"]) == {"0.2", "0.02"}

    def test_rejects_tiny_runs(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["critical-values", "--hurst", "0.7", "--reps", "50"])
        assert excinfo.value.code == 2
        last = capsys.readouterr().err.splitlines()[-1]
        assert last.startswith("lrdcp: error:")
        assert "replications (reps) must be >= 100" in last


_VALID_ARGV = {
    "test": ["test", "--input", "x.txt", "--hurst", "0.7"],
    "generate-fgn": ["generate-fgn", "--hurst", "0.7", "--length", "16",
                     "--out", "x.txt"],
    "critical-values": ["critical-values", "--hurst", "0.7"],
    "experiment": ["experiment", "--kind", "size", "--hurst", "0.7",
                   "--n", "50"],
    "reproduce-tables": ["reproduce-tables", "--out", "tables"],
}

# (subcommand, flags appended to its valid argv, text of the last line);
# "<cv>" stands for a valid critical-value table for H = 0.7
_SPEC_REJECTED = [
    ("test", ["--hurst", "nan"], "hurst must lie in (0.5, 1)"),
    ("test", ["--hurst", "0.3"], "hurst must lie in (0.5, 1)"),
    ("test", ["--hurst", "1.5"], "hurst must lie in (0.5, 1)"),
    ("test", ["--hurst", "1.5", "--cv", "<cv>"], "hurst must lie in (0.5, 1)"),
    ("test", ["--level", "1.0", "--cv", "<cv>"], "levels must lie"),
    ("test", ["--tau1", "0.9"], "window must satisfy"),
    ("generate-fgn", ["--hurst", "nan"], "hurst must lie in (0, 1)"),
    ("generate-fgn", ["--hurst", "1.5"], "hurst must lie in (0, 1)"),
    ("generate-fgn", ["--length", "1"], "length must be at least 2"),
    ("critical-values", ["--hurst", "nan"], "hurst must lie in (0.5, 1)"),
    ("critical-values", ["--hurst", "0.3"], "hurst must lie in (0.5, 1)"),
    ("critical-values", ["--hurst", "1.5"], "hurst must lie in (0.5, 1)"),
    ("critical-values", ["--reps", "50"], "replications (reps)"),
    ("critical-values", ["--reps", str(2**48 + 1)], "<= 2**48"),
    ("critical-values", ["--grid", "50"], "grid_size must be >= 100"),
    ("critical-values", ["--levels", "0.5,1.5"], "levels must lie"),
    ("critical-values", ["--tau1", "0.9"], "window must satisfy"),
    ("experiment", ["--hurst", "nan"], "hurst must lie in (0.5, 1)"),
    ("experiment", ["--hurst", "0.3"], "hurst must lie in (0.5, 1)"),
    ("experiment", ["--hurst", "1.5", "--cv", "<cv>"],
     "hurst must lie in (0.5, 1)"),
    ("experiment", ["--level", "1.0"], "levels must lie"),
    ("experiment", ["--tau", "0"], "tau must lie in (0, 1)"),
    ("experiment", ["--tau1", "0.9"], "window must satisfy"),
    ("experiment", ["--reps", "0"], "replications must be positive"),
    ("experiment", ["--reps", str(2**48 + 1)], "at most 2**48"),
    ("experiment", ["--kind", "power", "--delta", "nan"], "must be finite"),
    ("experiment", ["--kind", "power", "--delta", "inf"], "must be finite"),
    ("experiment", ["--delta", "1"], "size experiments must have delta = 0"),
    ("experiment", ["--kind", "local-alt", "--c", "2", "--delta", "1"],
     "take c, not a fixed delta"),
    ("experiment", ["--c", "3"], "size experiments must have c = 0"),
    ("experiment", ["--kind", "power", "--delta", "1", "--c", "3"],
     "power experiments must have c = 0"),
    ("experiment", ["--kind", "consistency", "--delta", "1", "--c", "-1"],
     "consistency experiments must have c = 0"),
    ("experiment", ["--kind", "local-alt", "--c", "inf"], "must be finite"),
    ("experiment", ["--kind", "local-alt", "--c", "nan"], "must be finite"),
    ("reproduce-tables", ["--scale", "inf"], "--scale must be positive"),
    ("reproduce-tables", ["--scale", "nan"], "--scale must be positive"),
    ("reproduce-tables", ["--scale", "0"], "--scale must be positive"),
    # 10,000 replications at scale 1, so at most 2**48 / 10**4 = 2.8147e10
    ("reproduce-tables", ["--scale", "2.815e10"], "at most 2**48"),
    ("reproduce-tables", ["--scale", "1e200"], "at most 2**48"),
    ("reproduce-tables", ["--scale", "1e305"], "at most 2**48"),
    ("reproduce-tables", ["--tau1", "0.9"], "window must satisfy"),
]


class TestSpecRejection:
    """A value a spec rejects is a one-line usage error before any work."""

    @pytest.mark.parametrize(
        "command, flags, message", _SPEC_REJECTED,
        ids=[f"{command} {' '.join(flags)}"
             for command, flags, _ in _SPEC_REJECTED],
    )
    def test_usage_error_before_any_work(self, command, flags, message,
                                         cv_file, tmp_path, monkeypatch,
                                         capsys):
        calls = []
        for name in ("critical_values", "run_experiments", "read_series",
                     "reproduce_tables"):
            monkeypatch.setattr(cli, name,
                                lambda *a, name=name: calls.append(name))
        monkeypatch.chdir(tmp_path)
        flags = [str(cv_file) if flag == "<cv>" else flag for flag in flags]
        with pytest.raises(SystemExit) as excinfo:
            main(_VALID_ARGV[command] + flags)
        assert excinfo.value.code == 2
        assert calls == []
        err = capsys.readouterr().err
        assert "Traceback" not in err
        last = err.splitlines()[-1]
        assert last.startswith("lrdcp: error:") and message in last
        assert not (tmp_path / "x.txt").exists()


class TestThreadEnvironment:
    @pytest.mark.parametrize("value", ["0", "-3"])
    def test_bad_worker_count_is_runtime_error(self, value, tmp_path,
                                               monkeypatch, capsys):
        monkeypatch.setenv("LRD_CP_THREADS", value)
        code = main(
            [
                "critical-values", "--hurst", "0.8", "--grid", "100",
                "--reps", "150", "--seed", "21",
                "--out", str(tmp_path / "cv.json"),
            ]
        )
        assert code == 1
        err = capsys.readouterr().err
        assert err == (
            f"error: LRD_CP_THREADS must be an integer >= 1, got {value!r}\n"
        )


class TestExperimentCommand:
    def test_size_smoke_to_stdout(self, cv_file, capsys):
        code = main(
            [
                "experiment", "--kind", "size", "--hurst", "0.7", "--n", "50",
                "--reps", "60", "--seed", "1", "--cv", str(cv_file),
            ]
        )
        assert code == 0
        rows = json.loads(capsys.readouterr().out)
        assert len(rows) == 1
        assert rows[0]["kind"] == "size"
        assert 0.0 <= rows[0]["rejection_rate"] <= 1.0
        assert rows[0]["cv_source"] == "file"

    def test_json_reports_statistic_summary_and_standard_error(
            self, cv_file, tmp_path, capsys):
        argv = [
            "experiment", "--kind", "power", "--hurst", "0.7", "--n", "50",
            "--delta", "1.0", "--reps", "60", "--seed", "1",
            "--cv", str(cv_file),
        ]
        assert main(argv) == 0
        (row,) = json.loads(capsys.readouterr().out)
        out = tmp_path / "rows.json"
        assert main(argv + ["--out", str(out), "--format", "json"]) == 0
        assert json.loads(out.read_text()) == [row]
        table = CriticalValueTable.from_json(cv_file.read_text())
        spec = ExperimentSpec(kind="power", hurst=0.7, n=50, replications=60,
                              delta=1.0, master_seed=1)
        (result,) = run_experiments([spec], table)
        rate = row["rejection_rate"]
        assert 0.0 < rate < 1.0
        assert row["rejection_se"] == math.sqrt(rate * (1.0 - rate) / 60)
        assert row["mean_statistic"] == result.mean_statistic
        assert row["median_statistic"] == result.median_statistic
        assert set(row) == set(CSV_COLUMNS) | {
            "cv_source", "mean_statistic", "median_statistic", "rejection_se"
        }

    def test_csv_output_has_pinned_columns(self, cv_file, tmp_path):
        out = tmp_path / "rows.csv"
        code = main(
            [
                "experiment", "--kind", "power", "--hurst", "0.7", "--n", "50",
                "--delta", "2.0", "--reps", "40", "--seed", "1",
                "--cv", str(cv_file), "--out", str(out),
            ]
        )
        assert code == 0
        with open(out, newline="") as handle:
            rows = list(csv.DictReader(handle))
        assert list(rows[0]) == list(CSV_COLUMNS)
        assert rows[0]["kind"] == "power"

    def test_comma_list_runs_each_length(self, cv_file, capsys):
        code = main(
            [
                "experiment", "--kind", "consistency", "--hurst", "0.7",
                "--n", "50,80", "--delta", "1.0", "--reps", "40",
                "--seed", "1", "--cv", str(cv_file),
            ]
        )
        assert code == 0
        rows = json.loads(capsys.readouterr().out)
        assert [row["n"] for row in rows] == [50, 80]

    def test_comma_list_is_one_map(self, cv_file, monkeypatch, capsys):
        maps = []
        chunked_map = _parallel.chunked_map

        def counting_map(func, tasks):
            maps.append(len(tasks))
            return chunked_map(func, tasks)

        monkeypatch.setattr(_parallel, "chunked_map", counting_map)
        code = main(
            [
                "experiment", "--kind", "size", "--hurst", "0.7",
                "--n", "50,80,120", "--reps", "600", "--seed", "1",
                "--cv", str(cv_file),
            ]
        )
        assert code == 0
        assert maps == [6]
        assert len(json.loads(capsys.readouterr().out)) == 3

    def test_local_alt_alias(self, cv_file, capsys):
        code = main(
            [
                "experiment", "--kind", "local-alt", "--hurst", "0.7",
                "--n", "50", "--c", "5.0", "--reps", "40", "--seed", "1",
                "--cv", str(cv_file),
            ]
        )
        assert code == 0
        assert json.loads(capsys.readouterr().out)[0]["c"] == 5.0

    @pytest.mark.parametrize(
        "n_text, message",
        [("100,2", "n must be at least 4"), ("100,5", "too narrow for n=5")],
    )
    def test_every_length_checked_before_simulating(self, n_text, message,
                                                    monkeypatch, capsys):
        calls = []
        for name in ("critical_values", "run_experiments"):
            monkeypatch.setattr(cli, name, lambda *a, name=name: calls.append(name))
        with pytest.raises(SystemExit) as excinfo:
            main(
                [
                    "experiment", "--kind", "size", "--hurst", "0.7",
                    "--n", n_text, "--reps", "40", "--seed", "1",
                ]
            )
        assert excinfo.value.code == 2
        assert calls == []
        last = capsys.readouterr().err.splitlines()[-1]
        assert last.startswith("lrdcp: error:") and message in last

    def test_power_needs_nonzero_delta(self, cv_file, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(
                [
                    "experiment", "--kind", "power", "--hurst", "0.7",
                    "--n", "50", "--reps", "40", "--cv", str(cv_file),
                ]
            )
        assert excinfo.value.code == 2
        last = capsys.readouterr().err.splitlines()[-1]
        assert last.startswith("lrdcp: error:")
        assert "power experiments must have delta != 0" in last


class TestConfigFile:
    def test_config_supplies_defaulted_flags(self, data_file, cv_file, tmp_path,
                                              capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"level": 0.01, "hurst": 0.7}))
        code = main(
            [
                "--config", str(cfg), "test", "--input", str(data_file),
                "--cv", str(cv_file),
            ]
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["level"] == 0.01
        assert payload["hurst"] == 0.7

    def test_explicit_flag_beats_config(self, data_file, cv_file, tmp_path,
                                        capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"level": 0.01}))
        code = main(
            [
                "--config", str(cfg), "test", "--input", str(data_file),
                "--hurst", "0.7", "--level", "0.1", "--cv", str(cv_file),
            ]
        )
        assert code == 0
        assert json.loads(capsys.readouterr().out)["level"] == 0.1

    def test_malformed_config_is_runtime_error(self, data_file, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text("{not json")
        code = main(
            [
                "--config", str(cfg), "test", "--input", str(data_file),
                "--hurst", "0.7",
            ]
        )
        assert code == 1
        assert "bad config" in capsys.readouterr().err


class TestConfigNull:
    """A JSON null leaves its flag at the default."""

    def test_null_seed_draws_and_records_one(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"seed": None}))
        code = main(
            [
                "--config", str(cfg), "generate-fgn", "--hurst", "0.7",
                "--length", "16", "--out", str(tmp_path / "x.txt"),
            ]
        )
        assert code == 0
        seed = json.loads(capsys.readouterr().out)["seed"]
        assert isinstance(seed, int) and 0 <= seed < 1 << 63

    def test_null_cv_simulates(self, data_file, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"cv": None, "seed": None, "hurst": 0.7}))
        code = main(
            ["--config", str(cfg), "test", "--input", str(data_file)]
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["cv_source"] == "simulated"
        assert isinstance(payload["cv_seed"], int)


class TestSeedArgument:
    @pytest.mark.parametrize("seed", ["-1", str(1 << 63)])
    @pytest.mark.parametrize(
        "argv",
        [
            ["test", "--input", "x.txt", "--hurst", "0.7"],
            ["generate-fgn", "--hurst", "0.7", "--length", "16", "--out", "x"],
            ["critical-values", "--hurst", "0.7"],
            ["experiment", "--kind", "size", "--hurst", "0.7", "--n", "50"],
            ["reproduce-tables", "--out", "x"],
        ],
    )
    def test_out_of_range_seed_is_usage_error(self, argv, seed, tmp_path,
                                              monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        with pytest.raises(SystemExit) as excinfo:
            main(argv + ["--seed", seed])
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert err.splitlines()[-1].endswith(
            f"argument --seed: seed must lie in [0, 2**63), got {seed}"
        )

    def test_largest_seed_accepted(self, tmp_path, capsys):
        seed = (1 << 63) - 1
        code = main(
            [
                "generate-fgn", "--hurst", "0.7", "--length", "16",
                "--seed", str(seed), "--out", str(tmp_path / "x.txt"),
            ]
        )
        assert code == 0
        assert json.loads(capsys.readouterr().out)["seed"] == seed


class TestTableMismatch:
    def test_table_for_another_hurst_is_runtime_error(self, data_file, cv_file,
                                                      capsys):
        code = main(
            [
                "test", "--input", str(data_file), "--hurst", "0.6",
                "--cv", str(cv_file),
            ]
        )
        assert code == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "error: critical-value table is for hurst=0.7, "
            "requested hurst=0.6\n"
        )

    @pytest.mark.parametrize(
        "text", ["[]", '{"quantiles": [1, 2]}', '{"hurst": 0.7}']
    )
    def test_malformed_table_is_runtime_error(self, text, data_file, tmp_path,
                                              capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(text)
        code = main(
            [
                "test", "--input", str(data_file), "--hurst", "0.7",
                "--cv", str(bad),
            ]
        )
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: critical-value table")
        assert err.count("\n") == 1


class TestConfigConversion:
    def test_string_number_is_converted(self, data_file, cv_file, tmp_path,
                                        capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"hurst": "0.7", "level": "0.1"}))
        code = main(
            [
                "--config", str(cfg), "test", "--input", str(data_file),
                "--cv", str(cv_file),
            ]
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["hurst"] == 0.7
        assert payload["level"] == 0.1

    @pytest.mark.parametrize(
        "config, key",
        [
            ({"hurst": "abc"}, "hurst"),
            ({"hurst": [0.7]}, "hurst"),
            ({"hurst": 0.7, "seed": -1}, "seed"),
            ({"hurst": 0.7, "seed": 1.5}, "seed"),
        ],
    )
    def test_unconvertible_value_is_usage_error(self, config, key, data_file,
                                                tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(config))
        with pytest.raises(SystemExit) as excinfo:
            main(["--config", str(cfg), "test", "--input", str(data_file)])
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert err.splitlines()[-1].startswith(f"lrdcp: error: config {cfg}: {key}:")

    def test_choice_outside_flag_choices_is_usage_error(self, cv_file,
                                                        tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"format": "xml"}))
        with pytest.raises(SystemExit) as excinfo:
            main(
                [
                    "--config", str(cfg), "experiment", "--kind", "size",
                    "--hurst", "0.7", "--n", "50", "--cv", str(cv_file),
                ]
            )
        assert excinfo.value.code == 2
        assert "format" in capsys.readouterr().err.splitlines()[-1]


class TestListArguments:
    def test_bad_levels_entry_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["critical-values", "--hurst", "0.7", "--levels", "0.1,x"])
        assert excinfo.value.code == 2
        last = capsys.readouterr().err.splitlines()[-1]
        assert last.startswith("lrdcp: error: --levels must be a comma list")

    def test_bad_n_entry_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(
                [
                    "experiment", "--kind", "size", "--hurst", "0.7",
                    "--n", "50,abc",
                ]
            )
        assert excinfo.value.code == 2
        last = capsys.readouterr().err.splitlines()[-1]
        assert last.startswith(
            "lrdcp: error: --n must be an integer or comma list"
        )


class TestConfigChecks:
    def test_config_array_is_runtime_error(self, data_file, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text("[0.7]")
        code = main(
            [
                "--config", str(cfg), "test", "--input", str(data_file),
                "--hurst", "0.7",
            ]
        )
        assert code == 1
        assert capsys.readouterr().err == (
            f"error: bad config {cfg}: expected a JSON object\n"
        )

    def test_bad_value_fails_when_its_flag_is_typed(self, data_file, cv_file,
                                                    tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"level": "abc"}))
        with pytest.raises(SystemExit) as excinfo:
            main(
                [
                    "--config", str(cfg), "test", "--input", str(data_file),
                    "--hurst", "0.7", "--level", "0.1", "--cv", str(cv_file),
                ]
            )
        assert excinfo.value.code == 2
        last = capsys.readouterr().err.splitlines()[-1]
        assert last.startswith(f"lrdcp: error: config {cfg}: level:")

    @pytest.mark.parametrize(
        "value, outcome",
        [
            ("0.01", 0.01),
            (0.01, 0.01),
            (None, 0.05),
            (True, "a boolean"),
            (False, "a boolean"),
            ([0.01], "an array"),
            ({"level": 0.01}, "an object"),
        ],
        ids=["string", "number", "null", "true", "false", "array", "object"],
    )
    def test_each_json_type_of_a_value(self, value, outcome, data_file,
                                       cv_file, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"level": value}))
        argv = ["--config", str(cfg), "test", "--input", str(data_file),
                "--hurst", "0.7", "--cv", str(cv_file)]
        if isinstance(outcome, float):
            assert main(argv) == 0
            assert json.loads(capsys.readouterr().out)["level"] == outcome
            return
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        assert excinfo.value.code == 2
        assert capsys.readouterr().err.splitlines()[-1] == (
            f"lrdcp: error: config {cfg}: level: expected a JSON string or "
            f"number, got {outcome}"
        )

    def test_array_value_writes_no_file(self, tmp_path, monkeypatch, capsys):
        # str(["a", 1]) once became the output path
        monkeypatch.chdir(tmp_path)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"out": ["a", 1]}))
        with pytest.raises(SystemExit) as excinfo:
            main(["--config", str(cfg), "critical-values", "--hurst", "0.7",
                  "--reps", "100", "--grid", "100"])
        assert excinfo.value.code == 2
        assert "out: expected a JSON string or number" in capsys.readouterr().err
        assert os.listdir(tmp_path) == ["cfg.json"]

    def test_unknown_key_is_usage_error(self, data_file, cv_file, tmp_path,
                                        capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"levle": 0.01}))
        with pytest.raises(SystemExit) as excinfo:
            main(["--config", str(cfg), "test", "--input", str(data_file),
                  "--hurst", "0.7", "--cv", str(cv_file)])
        assert excinfo.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines()[-1] == (
            f"lrdcp: error: config {cfg}: levle: names no option of any "
            f"subcommand"
        )

    def test_option_of_another_subcommand_is_ignored(self, data_file, cv_file,
                                                     tmp_path, capsys):
        # one file can serve test and critical-values alike
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"grid": 200, "reps": "abc", "level": 0.1}))
        code = main(["--config", str(cfg), "test", "--input", str(data_file),
                     "--hurst", "0.7", "--cv", str(cv_file)])
        assert code == 0
        assert json.loads(capsys.readouterr().out)["level"] == 0.1


class TestReproduceTables:
    def test_smoke_run_emits_all_tables(self, tmp_path, capsys):
        out_dir = tmp_path / "tables"
        code = main(
            [
                "reproduce-tables", "--out", str(out_dir), "--scale", "0.001",
                "--seed", "0",
            ]
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["seed"] == 0
        for name in ("table1", "table2", "table3", "table4", "manifest"):
            assert name in payload["files"]
        for name in ("table1.csv", "table2.csv", "table3.csv", "table4.csv",
                     "manifest.json"):
            assert (out_dir / name).exists()

        with open(out_dir / "table1.csv", newline="") as handle:
            rows = list(csv.DictReader(handle))
        assert len(rows) == 12  # four dependence levels, three quantiles
        levels = {row["level"] for row in rows}
        assert levels == {"0.1", "0.05", "0.01"}

        manifest = json.loads((out_dir / "manifest.json").read_text())
        assert manifest["replications"]["critical_values"] == 200
        assert manifest["window"] == [0.15, 0.85]

        with open(out_dir / "table3.csv", newline="") as handle:
            rows = list(csv.DictReader(handle))
        assert {row["tau"] for row in rows} == {"0.5"}
        with open(out_dir / "table4.csv", newline="") as handle:
            rows = list(csv.DictReader(handle))
        assert {row["tau"] for row in rows} == {"0.25"}


class TestParser:
    def test_terminal_width_queried_once(self, monkeypatch):
        calls = []
        query = shutil.get_terminal_size

        def counting(*args, **kwargs):
            calls.append(args)
            return query(*args, **kwargs)

        monkeypatch.setattr(shutil, "get_terminal_size", counting)
        cli.build_parser()
        assert len(calls) == 1


class TestConsoleEntryPoint:
    def test_installed_script_responds(self):
        exe = shutil.which("lrdcp")
        assert exe is not None, "console script not on PATH"
        proc = subprocess.run(
            [exe, "--help"], capture_output=True, text=True, timeout=60
        )
        assert proc.returncode == 0
        assert "change-point" in proc.stdout
